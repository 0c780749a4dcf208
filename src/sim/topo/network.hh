/**
 * @file
 * The instantiated interconnect: routes packets between N kernel
 * nodes according to a Topology, and keeps the exact per-link /
 * per-router conservation ledger the topo.* invariants audit.
 *
 * Three fabrics (Topology::kind):
 *
 *  - **mesh** (0): a dedicated directed link per ordered node pair,
 *    each with its own propagation latency and optional serialization
 *    rate (overridable per pair).  One scheduled event per packet;
 *    the two-node mesh is the default medium of every remote and
 *    mixed run (see effectiveTopology in sim/kernel/ipc_sim.hh).
 *
 *  - **star** (1): every node hangs off one store-and-forward switch.
 *    Ingress link (latency + serialization), a single-server FIFO
 *    switch (per-packet processing + serialization onto the output
 *    port), egress link (latency).  The switch queue is where
 *    fan-in traffic — several clients aimed at one hot server —
 *    actually contends.
 *
 *  - **ring segments** (2): contiguous token-ring segments (the
 *    thesis' 4 Mb/s ring, one TokenRing instance per segment, whose
 *    utilization and token wait ringStats() reports); with
 *    more than one segment each ring gains a router station, and the
 *    routers bridge segments over a full mesh of point-to-point
 *    backbone links.  A cross-segment packet takes source ring →
 *    source router → backbone → destination router → destination
 *    ring.
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
 * gets a "topo" counter track of router depths (if there are any),
 * an EngineProfiler a "wire" origin and the inter-node lookahead
 * edges.  Neither perturbs the event sequence.
 */

#ifndef HSIPC_SIM_TOPO_NETWORK_HH
#define HSIPC_SIM_TOPO_NETWORK_HH

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/obs/engine_prof.hh"
#include "common/trace/tracer.hh"
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
     * @p tracer may be null (or disabled); @p prof may be null.
     * Every element the topology implies is built here — links,
     * routers, rings — so construction is the only allocation site.
     */
    Network(EventQueue &eq, const Topology &t, trace::Tracer *tracer,
            obs::EngineProfiler *prof);

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

    /** Busiest ring's utilization and mean token wait (us) over all
     *  rings' packets; zeros without rings. */
    std::pair<double, double> ringStats() const;

  private:
    /** A point-to-point link (or a ring booked as one ledger). */
    struct Link
    {
        LinkLedger led;
        Tick latency = 0;
        double mbps = 0;    //!< 0 = no serialization
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

    Tick serTicks(int bytes, double mbps) const;

    /** Schedule @p cb after @p delay with profiler attribution. */
    void dispatch(Tick delay, EventQueue::Callback cb);

    /** Put a packet on link @p li; delivery runs @p then. */
    void traverse(std::size_t li, int bytes, EventQueue::Callback then);

    /** A ring delivery completes against ring link @p li. */
    void ringDelivered(std::size_t li, int bytes);

    /** Hand a packet to router @p ri (drop hook lives here). */
    void routerArrive(std::size_t ri, Tick service,
                      EventQueue::Callback next);

    void startService(std::size_t ri);

    /** Sample router @p ri's depth onto the trace, if tracing. */
    void traceDepth(std::size_t ri);

    std::size_t meshIndex(int src, int dst) const;

    // Ring-segment geometry (kind 2).
    int segmentStart(int seg) const;
    int localStation(int node) const;

    EventQueue &eq;
    const Topology topo;
    trace::Tracer *tracer = nullptr; //!< non-null only when enabled
    obs::EngineProfiler *prof = nullptr;
    int wireOrigin = 0;
    int topoTrack = -1;

    std::vector<Link> links;
    std::vector<Router> routers;
    //! One ring per segment (kind 2); rings[s] is booked on the
    //! ledger of links[s].
    std::vector<std::unique_ptr<TokenRing>> rings;
    //! Backbone link index for ordered router pair (a, b), kind 2
    //! with more than one segment: rings first, then row-major pairs.
    std::size_t backboneIndex(int a, int b) const;
};

} // namespace hsipc::sim::topo

#endif // HSIPC_SIM_TOPO_NETWORK_HH
