/**
 * @file
 * The instantiated interconnect: routes packets between N kernel
 * nodes according to a Topology, and keeps the exact per-link /
 * per-router conservation ledger the topo.* invariants audit.
 *
 * Three fabrics (Topology::kind):
 *
 *  - **mesh** (0): a dedicated directed link per ordered node pair,
 *    each with the topology's propagation latency.  One scheduled
 *    event per packet; the two-node mesh is the default medium of
 *    every remote and mixed run (see effectiveTopology in
 *    sim/kernel/ipc_sim.hh).
 *
 *  - **star** (1): every node hangs off one store-and-forward switch.
 *    Ingress link (latency), a single-server FIFO switch (per-packet
 *    processing), egress link (latency).  The switch queue is where
 *    fan-in traffic — several clients aimed at one hot server —
 *    actually contends.
 *
 *  - **ring** (2): one token ring (the thesis' 4 Mb/s ring, a
 *    TokenRing whose utilization and token wait ringStats()
 *    reports) with one station per node, the station number being
 *    the node id.
 *
 * Accounting discipline: every hand-off increments the receiving
 * element's ledger *before* any event is scheduled, and completion
 * counts are bumped by the delivery event itself, so at any instant
 * (and in particular at the measurement horizon) the structural
 * population of every queue equals its ledger imbalance.  The
 * topo.conservation invariant asserts exactly that; a packet that
 * vanishes without being counted (see TestHooks::topoRouterDrop)
 * breaks it.
 *
 * Observational hooks mirror the rest of the simulator: a Tracer
 * gets a "topo" counter track of the switch's depth (star only),
 * an EngineProfiler a "wire" origin that claims every delivery.
 * Neither perturbs the event sequence.
 */

#ifndef HSIPC_SIM_TOPO_NETWORK_HH
#define HSIPC_SIM_TOPO_NETWORK_HH

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/obs/probe.hh"
#include "sim/des/event_queue.hh"
#include "sim/node/token_ring.hh"
#include "sim/topo/topology.hh"

namespace hsipc::sim::topo
{

/** The routing fabric instantiated from a Topology. */
class Network
{
  public:
    /**
     * Every element the topology implies is built here — links, the
     * switch, the ring — so construction is the only allocation site.
     */
    Network(EventQueue &eq, const Topology &t, const obs::Sinks &sinks);

    /**
     * Route @p bytes from node @p src to node @p dst (src != dst);
     * @p deliver fires when the packet fully arrives.
     */
    void send(int src, int dst, int bytes, EventQueue::Callback deliver);

    /**
     * Charge @p count retransmissions to every link on the forward
     * route src -> dst (the reliable channel counts them; the fabric
     * only learns the total after the run).
     */
    void attributeRetransmissions(int src, int dst, long count);

    /** Snapshot every ledger (structural in-flight included). */
    void fillLedger(Ledger &out) const;

    /** Total structural router population (timeline gauge). */
    double routerDepthSum() const;

    /** Total packets currently traversing links (timeline gauge). */
    double linkInFlightSum() const;

    /** The ring's utilization and mean token wait (us); zeros
     *  without a ring. */
    std::pair<double, double> ringStats() const;

  private:
    /** A point-to-point link (or the ring booked as one ledger). */
    struct Link
    {
        LinkLedger led;
        long inFlight = 0;
    };

    /** One queued packet awaiting switch service. */
    struct Item
    {
        Tick service;
        EventQueue::Callback next;
    };

    /** A single-server FIFO store-and-forward element. */
    struct Router
    {
        RouterLedger led;
        std::deque<Item> q;
        bool busy = false;

        // Move-only: the queued callbacks cannot be copied, and an
        // explicitly deleted copy makes vector relocation pick the
        // (potentially throwing) move instead of a hard error.
        Router() = default;
        Router(const Router &) = delete;
        Router &operator=(const Router &) = delete;
        Router(Router &&) = default;
        Router &operator=(Router &&) = default;

        long
        depth() const
        {
            return static_cast<long>(q.size()) + (busy ? 1 : 0);
        }
    };

    /** Schedule @p cb after @p delay with profiler attribution. */
    void dispatch(Tick delay, EventQueue::Callback cb);

    /** Put a packet on link @p li; delivery runs @p then. */
    void traverse(std::size_t li, int bytes, EventQueue::Callback then);

    /** Hand a packet to router @p ri (drop hook lives here). */
    void routerArrive(std::size_t ri, Tick service,
                      EventQueue::Callback next);

    void startService(std::size_t ri);

    /** Sample router @p ri's depth onto the trace, if tracing. */
    void traceDepth(std::size_t ri);

    std::size_t meshIndex(int src, int dst) const;

    EventQueue &eq;
    const Topology topo;
    const Tick latency; //!< every point-to-point link's delay
    trace::Tracer *tracer = nullptr; //!< non-null only when enabled
    obs::EngineProfiler *prof = nullptr;
    int wireOrigin = 0;
    int topoTrack = -1;

    std::vector<Link> links;
    std::vector<Router> routers;
    //! The ring (kind 2 only), booked on the ledger of links[0].
    std::unique_ptr<TokenRing> ring;
};

} // namespace hsipc::sim::topo

#endif // HSIPC_SIM_TOPO_NETWORK_HH
