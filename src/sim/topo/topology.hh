/**
 * @file
 * N-node interconnect topologies, the simulator's only network medium
 * (the thesis models exactly two nodes; a 925 installation was a
 * machine-room full of them).
 *
 * A Topology describes the interconnect at the Experiment level:
 * point-to-point links with a propagation latency (kind 0), a
 * store-and-forward switch (kind 1), or one token ring carrying every
 * node (kind 2).  Placement policies decide which nodes carry a
 * conversation's client and server.
 *
 * nodes == 0 leaves the choice to effectiveTopology()
 * (sim/kernel/ipc_sim.hh): one node for a local run, else the
 * two-node mesh with the classic placement.  A fixed wire delay is
 * that mesh with linkLatencyUs; the thesis' 4 Mb/s ring is kind 2
 * on two nodes.
 *
 * The Ledger types carry the exact per-link / per-router flow-
 * conservation counts the topo.* invariant family asserts (see
 * src/sim/check/invariants.cc): on every link
 * msgsIn == msgsOut + dropped + inFlightAtEnd, and at every router
 * received == forwarded + dropped + inFlightAtEnd, where the
 * in-flight terms are read structurally from the queues at end of
 * run — a silently vanished packet cannot balance the books.
 */

#ifndef HSIPC_SIM_TOPO_TOPOLOGY_HH
#define HSIPC_SIM_TOPO_TOPOLOGY_HH

#include <string>
#include <utility>
#include <vector>

namespace hsipc::sim::topo
{

/** The Experiment-level interconnect description. */
struct Topology
{
    //! Node count; 0 lets the experiment's workload pick the
    //! default fabric (see effectiveTopology), any value >= 2 is
    //! taken as given.
    int nodes = 0;

    //! 0 = point-to-point full mesh, 1 = store-and-forward switch
    //! (star), 2 = one token ring.
    int kind = 0;

    double linkLatencyUs = 0; //!< propagation delay per link
    double switchLatencyUs = 0; //!< per-packet switch processing

    //! The ring's rate (kind 2): one station per node, the station
    //! number being the node id.
    double segMbps = 4.0;

    //! Client/server placement: 0 = classic (all clients node 0,
    //! all servers node 1; both node 0 on a one-node run),
    //! 1 = round-robin (client i%N, server (i+1)%N), 2 = locality
    //! (client and server co-resident at i%N).
    int placement = 0;

    bool enabled() const { return nodes > 0; }

    friend bool operator==(const Topology &,
                           const Topology &) = default;
};

/**
 * Client and server node of conversation @p index under the
 * topology's placement policy — a pure function of (topology,
 * index), so open arrivals and jobs=1/N sweeps place identically.
 */
std::pair<int, int> placeConversation(const Topology &t, long index);

/** One link's whole-run conservation ledger. */
struct LinkLedger
{
    std::string name;   //!< e.g. "n0->n1", "n3->sw", "ring0"
    long msgsIn = 0;    //!< packets handed to the link
    long msgsOut = 0;   //!< packets delivered off the link
    long bytesIn = 0;
    long bytesOut = 0;
    long dropped = 0;   //!< always 0 today (drops happen upstream)
    long inFlightAtEnd = 0; //!< scheduled, undelivered at the horizon
    long retransmissions = 0; //!< channel retx routed over this link
    long queuePeak = 0; //!< peak simultaneous in-flight packets
};

/** One router's whole-run conservation ledger. */
struct RouterLedger
{
    std::string name;   //!< "sw" (the star's switch)
    long received = 0;  //!< packets that arrived at the router
    long forwarded = 0; //!< packets sent onward
    long dropped = 0;   //!< accounted drops (none today)
    long inFlightAtEnd = 0; //!< queued or in service at the horizon
    long queuePeak = 0; //!< peak queued + in-service population
};

/** The Outcome's per-link ledger; empty when the layer is off. */
struct Ledger
{
    bool enabled = false;
    std::vector<LinkLedger> links;
    std::vector<RouterLedger> routers;
};

} // namespace hsipc::sim::topo

#endif // HSIPC_SIM_TOPO_TOPOLOGY_HH
