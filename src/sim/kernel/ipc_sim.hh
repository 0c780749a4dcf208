/**
 * @file
 * Event-driven simulation of the §6.3 client/server workload on the
 * four node architectures — the executable stand-in for the thesis'
 * 925 implementation (chapter 4).
 *
 * Clients loop issuing blocking remote-invocation sends; servers loop
 * posting receives, computing for a uniformly-distributed time, and
 * replying.  Kernel activities run on simulated processors (host,
 * message coprocessor, DMA engines) whose shared-memory accesses
 * contend on explicit bus resources; network interrupts run at
 * interrupt priority and preempt.  Rendezvous matching uses real
 * service queues and a finite kernel-buffer pool, so the simulator
 * exercises genuine IPC kernel logic rather than replaying fixed
 * delays.
 *
 * Unlike the GTPN models (which assume processor sharing and let any
 * host serve any task), tasks here are statically bound to a host —
 * exactly the difference §6.8 cites to explain the model's optimism at
 * low offered loads.
 */

#ifndef HSIPC_SIM_IPC_SIM_HH
#define HSIPC_SIM_IPC_SIM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics/metrics.hh"
#include "common/obs/engine_prof.hh"
#include "common/obs/steady.hh"
#include "common/obs/timeline.hh"
#include "common/stats.hh"
#include "common/trace/critical_path.hh"
#include "common/trace/tracer.hh"
#include "core/models/processing_times.hh"
#include "sim/net/faults.hh"
#include "sim/topo/topology.hh"

namespace hsipc::sim
{

/** Configuration of one simulated experiment. */
struct Experiment
{
    models::Arch arch = models::Arch::II;
    bool local = true;
    int conversations = 1;

    /**
     * Mixed-workload mode (a capability the thesis' models lack,
     * §6.6.3): when either count is nonzero, two nodes carry
     * mixedLocal same-node conversations plus mixedRemote cross-node
     * conversations, interleaved over both nodes; `local` and
     * `conversations` are ignored.
     */
    int mixedLocal = 0;
    int mixedRemote = 0;
    double computeUs = 0;     //!< mean server computation X
    int hostsPerNode = 1;
    bool extraCopy = false;   //!< §6.8 validation configuration
    double mpSpeedFactor = 1; //!< MP speed relative to the host
    int kernelBuffers = 64;   //!< finite buffer pool per node
    int packetBytes = 48;     //!< message + header on the wire
    double warmupUs = 100000;
    double measureUs = 1500000;
    std::uint64_t seed = 1;

    /**
     * Unreliable-medium reliability stack (pay-for-use: with every
     * rate zero, no crash windows and reliableProtocol false, the
     * stack is bypassed entirely and results are bit-identical to an
     * ideal-medium run).  Any nonzero fault rate or crash window
     * enables the sliding-window ack/timeout/retransmit protocol,
     * whose processing runs on the host (Architecture I) or the MP
     * (II–IV) — see src/sim/net/reliable.hh.
     */
    double lossRate = 0;      //!< per-packet drop probability
    double corruptRate = 0;   //!< per-packet corruption probability
    double duplicateRate = 0; //!< per-packet duplication probability
    double reorderRate = 0;   //!< per-packet reorder probability
    double reorderDelayUs = 200;    //!< hold-back of a reordered packet
    double retransmitTimeoutUs = 5000; //!< initial RTO (doubles, capped)
    int retransmitWindow = 8;       //!< sliding-window size
    bool reliableProtocol = false;  //!< run the protocol even fault-free
    std::vector<CrashWindow> crashSchedule; //!< scheduled node outages

    /**
     * Observability (see docs/observability.md).  A nonempty
     * traceFile enables the tracer and writes a Chrome trace_event
     * JSON timeline (one track per simulated resource) at end of run;
     * a nonempty metricsFile enables the metrics registry and writes
     * its JSON dump.  Both are strictly observational: enabling them
     * leaves every Outcome field bit-identical (pinned by
     * Observability.TracingDoesNotPerturbOutcome).
     */
    std::string traceFile;
    std::string metricsFile;

    /**
     * Record every message's causal intervals and fill
     * Outcome::decomposition with the critical-path latency
     * decomposition (see common/trace/critical_path.hh).  Independent
     * of the tracer, and — like it — strictly observational: all
     * other Outcome fields stay bit-identical.
     */
    bool decomposeLatency = false;

    /**
     * Time-resolved observability (see docs/observability.md).
     * A positive timelineIntervalUs records windowed series over the
     * whole run (counter deltas binned by event timestamp, gauges
     * sampled at bin boundaries) into Outcome::timeline, runs the
     * MSER-5 steady-state analysis into Outcome::stats, and — when
     * timelineFile names a path — writes the timeline document
     * there.  Strictly observational: the sampler events only read
     * state, so every other Outcome field stays bit-identical.
     */
    double timelineIntervalUs = 0; //!< bin width; 0 = no timeline
    std::string timelineFile;      //!< optional timeline JSON path

    /**
     * Deterministic trace sampling: record causal chains (and the
     * tracer's per-message flow/async events) only for this fraction
     * of message ids, chosen by a pure hash of (seed, id) — see
     * common/obs/trace_sample.hh.  1 keeps everything; sampled
     * messages keep *complete* chains, and jobs=1/N runs agree
     * bit-identically.  Affects only trace-derived artifacts (the
     * decomposition covers the sampled subset).
     */
    double traceSampleRate = 1;

    /**
     * End-to-end RPC robustness layer (pay-for-use: with every knob
     * at its default the layer is bypassed entirely, the Rpc ledger
     * stays zero, and results are bit-identical to a pre-robustness
     * run).  Any of open arrivals, a deadline, a retry budget, or a
     * service-queue cap enables it; all robustness randomness (draws
     * for interarrival times and backoff jitter) comes from a
     * dedicated RNG stream, so the workload's own sequence is never
     * perturbed.  See DESIGN.md "Robustness".
     */
    //! 0 = closed loop (the thesis' workload), 1 = Poisson open
    //! arrivals, 2 = bounded-Pareto open arrivals.  Open modes are
    //! incompatible with the mixed workload.
    int arrivalMode = 0;
    //! Offered request rate, used only by the open arrival modes.
    //! The default is positive (not 0) so every robustness knob can
    //! be reset to its default independently of the others and still
    //! name a runnable configuration — the greedy shrinker relies on
    //! that.
    double arrivalRatePerSec = 1000;
    double paretoAlpha = 1.5;     //!< bounded-Pareto shape (> 0, != 1)
    double paretoBound = 1000;    //!< bounded-Pareto H/L truncation ratio
    //! Request deadline measured from arrival; 0 = none.  An expired
    //! request terminates at its deadline; a reply arriving later is
    //! an orphan and is discarded (at-most-once semantics).
    double deadlineUs = 0;
    //! Client-side retries per request after the initial attempt,
    //! paced by exponential backoff with +/-25% jitter.
    int retryBudget = 0;
    double retryBackoffUs = 2000;    //!< first attempt timeout
    double retryBackoffMaxUs = 32000; //!< backoff ceiling
    //! Bound on a node's service queue; 0 = unbounded.  Overflow is
    //! resolved by shedPolicy: 0 rejects the newcomer, 1 evicts the
    //! oldest queued request, 2 evicts the least-slack request and
    //! additionally sheds already-expired entries at dequeue time.
    int svcQueueCap = 0;
    int shedPolicy = 0;
    //! Reliable-channel retransmission backoff ceiling (satellite of
    //! the robustness layer; previously hard-coded in
    //! sim/net/reliable.hh).  Effective ceiling is
    //! max(rtoMaxUs, retransmitTimeoutUs).
    double rtoMaxUs = 80000;

    /**
     * Engine self-profiling (see common/obs/engine_prof.hh and
     * docs/performance.md "Profiling the engine").  When set, the run
     * fills Outcome::engineProfile with the simulator's own cost
     * model: event-queue telemetry, dwell/heap-depth distributions,
     * per-component wall-clock sketches, and the scheduling-provenance
     * lookahead graph; engineProfileFile (requires engineProfile)
     * additionally writes the profile document there.  Strictly
     * observational: every other Outcome field — and every trace,
     * metrics, and timeline artifact — stays byte-identical, and the
     * profile itself never enters outcomeJson().
     */
    bool engineProfile = false;
    std::string engineProfileFile;

    /**
     * The interconnect, the only network medium (see
     * sim/topo/topology.hh and effectiveTopology() below).  nodes >= 2
     * instantiates the described fabric and supersedes `local`; the
     * mixed workload accepts only two nodes with placement 0.
     */
    topo::Topology topo;

    /**
     * Field-wise exact equality (doubles compare bitwise) — what the
     * JSON round-trip (sim/check/experiment_json.hh) preserves and
     * the shrinker uses to detect a no-op simplification.
     */
    friend bool operator==(const Experiment &,
                           const Experiment &) = default;
};

/**
 * True when any robustness knob is active — the single gate the
 * simulator, the invariant oracle, and the differential harness share
 * (the differential models cover only the classic closed workload).
 */
inline bool
robustnessEnabled(const Experiment &exp)
{
    return exp.arrivalMode != 0 || exp.deadlineUs > 0 ||
           exp.retryBudget > 0 || exp.svcQueueCap > 0;
}

/**
 * The interconnect a run instantiates, shared by the simulator, the
 * oracle, the differential and the generator: an explicit topology
 * as given, one node (no fabric) for a non-mixed `local` run, else
 * the zero-latency two-node mesh with the classic placement.
 */
inline topo::Topology
effectiveTopology(const Experiment &exp)
{
    if (exp.topo.enabled())
        return exp.topo;
    topo::Topology t;
    t.nodes = exp.local && exp.mixedLocal + exp.mixedRemote == 0 ? 1 : 2;
    return t;
}

/** Measured outcome of a run. */
struct Outcome
{
    double throughputPerSec = 0; //!< completed round trips per second
    double meanRoundTripUs = 0;
    double rtCi95Us = 0;
    double rtP50Us = 0;  //!< median round trip
    double rtP95Us = 0;  //!< 95th-percentile round trip
    long roundTrips = 0;
    double hostUtil = 0;        //!< max over hosts, client+server nodes
    double mpUtil = 0;
    double busUtil = 0;

    /**
     * Busy fraction of every simulated resource (each host CPU, MP,
     * bus partition, and DMA engine, keyed by its track name, e.g.
     * "n0.mp") over the measurement window — the per-resource
     * utilization timeline's end-of-run summary, answering "which
     * resource saturates first" directly.  Unlike hostUtil/mpUtil/
     * busUtil above (whole-run maxima kept for compatibility), these
     * exclude warmup.
     */
    std::map<std::string, double> resourceUtilization;
    long bufferStalls = 0;      //!< sends delayed by buffer exhaustion
    double ringUtil = 0;        //!< busiest ring segment (kind 2)
    double ringTokenWaitUs = 0; //!< mean token wait, all segments

    /**
     * Measured processing time per kernel activity, microseconds per
     * completed round trip — the simulator's counterpart of the
     * chapter-4 measurements that fed Tables 6.4-6.23.
     */
    std::map<std::string, double> activityUsPerRoundTrip;

    // Mixed-workload breakdown (zero when not in mixed mode):
    double localThroughputPerSec = 0;
    double remoteThroughputPerSec = 0;
    double localMeanRtUs = 0;
    double remoteMeanRtUs = 0;

    // Reliability-stack measurements (all zero when the stack is
    // bypassed; counted over the measurement window only):
    long retransmissions = 0;   //!< data packets sent again on timeout
    long timeoutsFired = 0;     //!< retransmission timers that expired
    long duplicatesDropped = 0; //!< suppressed by sequence number
    long corruptDiscarded = 0;  //!< packets failing the checksum
    long faultDrops = 0;        //!< packets the medium lost outright
    long crashDrops = 0;        //!< packets lost at a crashed node
    double netThroughputPktsPerSec = 0; //!< data pkts offered the wire
    double netGoodputPktsPerSec = 0; //!< first-copy in-order deliveries
    //! Protocol processing charged per round trip, split by who paid.
    double protoHostUsPerRt = 0;
    double protoMpUsPerRt = 0;
    //! Crash recovery: windows recovered from, and the mean time from
    //! the end of an outage to the first completed round trip
    //! involving the crashed node.
    int crashWindowsRecovered = 0;
    double meanRecoveryUs = 0;

    /**
     * Whole-run conservation ledger of the reliability stack and the
     * fault injector (unlike the windowed counters above, these cover
     * warmup too, so exact flow-conservation identities hold — the
     * raw material of the fuzzer's invariant oracle, see
     * src/sim/check/invariants.hh).  All zero when the run never
     * instantiates the reliability stack.
     */
    struct NetTotals
    {
        // Reliable-channel ledger, summed over both directions.
        long msgsAccepted = 0;   //!< messages handed to send()
        long msgsDelivered = 0;  //!< exactly-once deliveries upward
        long windowPendingAtEnd = 0; //!< transmitted, unacked at end
        long backlogAtEnd = 0;   //!< accepted, never transmitted
        long dataTransmissions = 0; //!< incl. retransmissions
        long retransmissions = 0;
        long timeoutsFired = 0;
        long duplicatesDropped = 0;
        long corruptDiscarded = 0; //!< data and ack checksum discards
        long acksSent = 0;
        // Fault-injector ledger (data and ack packets alike).
        long pktsInjected = 0;   //!< packets offered to the injector
        long pktsDropped = 0;    //!< lost in the medium
        long pktsCorrupted = 0;  //!< delivered with a failing checksum
        long pktsDuplicated = 0; //!< extra trailing copies created
        long pktsReordered = 0;  //!< held back past later traffic
        long pktsCrashDropped = 0; //!< lost at a crashed node
    };
    NetTotals netTotals;

    /**
     * Whole-run disposition ledger of the RPC robustness layer (all
     * zero when the layer is off — the analogue of NetTotals for the
     * request level).  Every offered request reaches exactly one
     * terminal disposition or is still in flight at end of run:
     *
     *   offered = completed + shed + expired + lostToCrash
     *           + inFlightAtEnd
     *
     * holds exactly; the fuzzer's rpc.* invariants are built on it.
     */
    struct Rpc
    {
        long offered = 0;   //!< requests started (arrivals + retries' parents counted once)
        long attempts = 0;  //!< request transmissions incl. retries
        long retries = 0;   //!< re-sends after a client timeout
        long admitted = 0;  //!< attempts accepted into a service queue
        long completed = 0; //!< requests finishing with a live reply
        long shed = 0;          //!< requests terminated by shedding
        long shedAttempts = 0;  //!< attempts shed (incl. recovered ones)
        long expired = 0;       //!< requests terminated at their deadline
        long lostToCrash = 0;   //!< requests terminated by a crash flush
        long crashLostAttempts = 0; //!< attempts flushed at a crash
        long duplicatesSuppressed = 0; //!< retry copies deduped at the server
        long replyReplays = 0;  //!< reply-cache replays to a retry
        long orphanedReplies = 0; //!< replies discarded at a dead request
        long inFlightAtEnd = 0; //!< requests with no disposition at end
        //! Windowed rates: requests offered and goodput (completions
        //! within deadline) per second over the measurement window.
        double offeredPerSec = 0;
        double goodputPerSec = 0;
        //! Mean and p95 request sojourn (arrival to completion) over
        //! completed requests in the window.
        double meanSojournUs = 0;
        double p95SojournUs = 0;
    };
    Rpc rpc;
    //! Robustness processing (admission, shedding, dedup, replay,
    //! retry, expiry handling) charged per completed round trip,
    //! split by who paid — the host on Architecture I, the MP on
    //! II-IV ("who pays for robustness").
    double rpcHostUsPerRt = 0;
    double rpcMpUsPerRt = 0;

    /**
     * Critical-path latency decomposition over the measurement
     * window, filled only when Experiment::decomposeLatency is set:
     * per-component mean/p50/p95/p99, per-resource service and
     * queueing shares, and the bottleneck resource.  Each message's
     * components partition its round trip exactly, so
     * service + queue + network + blocked = roundTrip for the means.
     */
    trace::Decomposition decomposition;

    /**
     * Windowed series over the run, filled only when
     * Experiment::timelineIntervalUs is positive.  Every counter
     * series integrates exactly to its whole-run ledger counterpart
     * (the fuzz oracle's timeline.* invariants).
     */
    obs::Timeline timeline;

    /**
     * MSER-5 steady-state analysis of the timeline (enabled with
     * it): detected truncation point, batch-means CIs on throughput
     * and round-trip latency, and the transientPolluted flag when
     * the configured warmup did not cover the detected transient.
     */
    obs::SteadyStats stats;

    /**
     * The engine's self-profile, filled only when
     * Experiment::engineProfile is set (or an external profiler sink
     * was supplied).  Wall-clock values inside are nondeterministic
     * by nature, so this field is deliberately excluded from
     * outcomeJson(); its deterministicJson() subset is what the fuzz
     * oracle compares across replicas.
     */
    obs::EngineProfile engineProfile;

    /**
     * Per-link / per-router flow-conservation ledger of the fabric,
     * filled only when Experiment::topo is set explicitly (the topo.*
     * invariant family audits it).  Like engineProfile it stays out
     * of outcomeJson() and is rendered separately by topoJson().
     */
    topo::Ledger topo;
};

/** Run the experiment to completion and return the measurements. */
Outcome runExperiment(const Experiment &exp);

/**
 * As above, but record into caller-supplied sinks: @p tracer (enable
 * it first) receives the event timeline for in-process inspection —
 * busyByTrack()/busyByName() turn it into utilization and activity
 * breakdowns — and @p metrics receives the counters/gauges/histograms.
 * Either may be null.  `traceFile`/`metricsFile` still write files
 * when set.
 */
Outcome runExperiment(const Experiment &exp, trace::Tracer *tracer,
                      metrics::Registry *metrics);

/**
 * As above with an engine-profiler sink: a non-null @p engineProf
 * profiles the run (whether or not exp.engineProfile is set) and can
 * be inspected by the caller afterwards — the per-run isolation hook
 * SweepRunner::runWithSinks uses.  Outcome::engineProfile receives a
 * copy either way.
 */
Outcome runExperiment(const Experiment &exp, trace::Tracer *tracer,
                      metrics::Registry *metrics,
                      obs::EngineProfiler *engineProf);

} // namespace hsipc::sim

#endif // HSIPC_SIM_IPC_SIM_HH
