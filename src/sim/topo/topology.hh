/**
 * @file
 * N-node interconnect topologies, the simulator's only network medium
 * (the thesis models exactly two nodes; a 925 installation was a
 * machine-room full of them).
 *
 * A Topology describes the interconnect at the Experiment level:
 * point-to-point links with latency and bandwidth (kind 0), a
 * store-and-forward switch (kind 1), or token-ring segments bridged
 * by routers over a full-mesh backbone (kind 2).  Placement policies
 * decide which nodes carry a conversation's client and server.
 *
 * nodes == 0 leaves the choice to effectiveTopology()
 * (sim/kernel/ipc_sim.hh): one node for a local run, else the
 * two-node mesh with the classic placement.  A fixed wire delay is
 * that mesh with linkLatencyUs; the thesis' 4 Mb/s ring is kind 2
 * with one segment.
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

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hsipc::sim::topo
{

/**
 * A directed per-pair override of the mesh link defaults (kind 0
 * only).  Entries whose endpoints fall outside [0, nodes) are
 * ignored rather than rejected, so shrinking `nodes` downward never
 * invalidates a configuration.
 */
struct TopoLink
{
    int a = 0;          //!< source node
    int b = 1;          //!< destination node
    double latencyUs = 0;
    double mbps = 0;    //!< 0 = no serialization delay
    friend bool operator==(const TopoLink &,
                           const TopoLink &) = default;
};

/** The Experiment-level interconnect description. */
struct Topology
{
    //! Node count; 0 lets the experiment's workload pick the
    //! default fabric (see effectiveTopology), any value >= 2 is
    //! taken as given.
    int nodes = 0;

    //! 0 = point-to-point full mesh, 1 = store-and-forward switch
    //! (star), 2 = token-ring segments bridged by routers.
    int kind = 0;

    double linkLatencyUs = 0; //!< propagation delay per link
    double linkMbps = 0;      //!< link rate; 0 = infinite (no ser.)
    double switchLatencyUs = 0; //!< per-packet router processing

    //! Ring-segment topology (kind 2): contiguous segments of
    //! roughly nodes/segments stations each, every segment its own
    //! token ring at segMbps; with more than one segment each ring
    //! gains a router station and routers bridge segments over a
    //! full-mesh backbone of point-to-point links.
    int segments = 1;
    double segMbps = 4.0;

    //! Client/server placement: 0 = classic (all clients node 0,
    //! all servers node 1; both node 0 on a one-node run),
    //! 1 = round-robin (client i%N, server (i+1)%N), 2 = locality
    //! (client and server co-resident at i%N), 3 = hot-spot (client
    //! i%N, server Zipf-distributed with node 0 hottest).
    int placement = 0;
    double zipfSkew = 1.0; //!< Zipf exponent of the hot-spot draw

    //! Per-pair mesh overrides; see TopoLink.
    std::vector<TopoLink> links;

    bool enabled() const { return nodes > 0; }

    /** Segments actually instantiated: clamped into [1, nodes]. */
    int
    effectiveSegments() const
    {
        const int s = segments < 1 ? 1 : segments;
        return s > nodes ? nodes : s;
    }

    /** Contiguous balanced segment of @p node (kind 2). */
    int
    segmentOf(int node) const
    {
        return static_cast<int>(
            (static_cast<long>(node) * effectiveSegments()) / nodes);
    }

    friend bool operator==(const Topology &,
                           const Topology &) = default;
};

/**
 * Client and server node of conversation @p index under the
 * topology's placement policy — a pure function of (topology, index,
 * seed), so open arrivals and jobs=1/N sweeps place identically.
 */
std::pair<int, int> placeConversation(const Topology &t, long index,
                                      std::uint64_t seed);

/** One link's whole-run conservation ledger. */
struct LinkLedger
{
    std::string name;   //!< e.g. "n0->n1", "n3->sw", "ring1", "r0->r2"
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
    std::string name;   //!< "sw" (kind 1) or "r<segment>" (kind 2)
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
