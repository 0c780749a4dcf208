/**
 * @file
 * The invariant oracle: properties every simulation outcome must
 * satisfy, whatever the configuration.
 *
 * The catalog (see docs/testing.md for the rationale of each):
 *
 *  measurement sanity
 *   - every per-resource utilization, and the legacy maxima, lie in
 *     [0, 1]; ring utilization too, and it is zero unless the
 *     effective topology is a kind-2 ring fabric
 *   - throughput is exactly completed round trips over the
 *     measurement window; local + remote split sums to the total
 *   - percentiles are ordered (p50 <= p95), activity and protocol
 *     charges are non-negative, and architecture I (no MP) reports
 *     zero MP utilization and zero MP protocol charge, while II-IV
 *     charge protocol work to the MP only
 *
 *  flow conservation (whole-run ledger, Outcome::netTotals)
 *   - message conservation: accepted = delivered + still-pending,
 *     bracketed exactly: delivered <= accepted - backlog and
 *     delivered >= accepted - backlog - windowPending
 *   - first-transmission identity: dataTransmissions -
 *     retransmissions = accepted - backlog (every message not stuck
 *     in the backlog is transmitted exactly once as a first copy)
 *   - goodput <= throughput: delivered <= dataTransmissions, and the
 *     windowed packet rates obey the same with a window-edge slack
 *   - retransmissions <= timeouts fired; duplicates dropped are
 *     explained by injected duplicates plus retransmissions;
 *     checksum discards are explained by injected corruptions;
 *     windowed counters are non-negative and bounded by the ledger
 *
 *  decomposition exactness (when enabled)
 *   - service + queue + network + blocked mean = round-trip mean
 *     (the gapless-partition property of critical_path.cc)
 *   - component percentiles ordered, bottleneck named with a share
 *     in [0, 1]; with trace sampling the decomposition covers a
 *     subset of the trips, so coverage becomes an upper bound
 *
 *  timeline integrals (when Experiment::timelineIntervalUs > 0)
 *   - every windowed counter series integrates *exactly* (to the
 *     counter's unit) to its whole-run ledger counterpart:
 *     completed trips, buffer stalls, the rpc disposition series,
 *     and the reliable-channel series
 *   - series are bin-aligned (every series spans the same bin
 *     count), utilization gauges lie in [0, 1], and the steady-state
 *     stats are filled iff the timeline is; when the knob is off the
 *     timeline and stats must be empty
 *
 *  sketch accuracy (when a registry was attached)
 *   - a quantile sketch sharing a histogram's name saw the same
 *     sample stream (equal count/sum/extremes) and each reported
 *     quantile lies inside the histogram's log2 bucket for that
 *     rank, widened by the sketch's configured relative error
 *
 *  engine profile (Experiment::engineProfile; engprof.*)
 *   - pay-for-use: with the knob off the profile is empty
 *   - queue conservation: pushes = pops + remainingAtEnd, with
 *     remainingAtEnd below the observed heap peak
 *   - sampling: sampled executions <= pops, dwell samples <= pushes,
 *     dwell and heap-depth sketches fill in lockstep, dwell >= 0
 *   - attribution: track event counts partition pops exactly (track
 *     0 "sim" holds the residual) and wall samples partition the
 *     sampled executions
 *   - lookahead graph: per-edge zeroDelta <= count, deltas
 *     non-negative, and minPositiveDeltaUs > 0 exactly when the edge
 *     saw a positive delta
 *
 *  fabric ledger (Experiment::topo; topo.*)
 *   - topo.bypass: without an explicit topology the reported ledger
 *     is empty
 *   - topo.enabled: with one, the ledger is filled and its element
 *     counts are a pure function of the shape (mesh: N(N-1)
 *     directed links, no routers; star: 2N links and one switch;
 *     S ring segments: S ring links, plus S routers and S(S-1)
 *     backbone links when S > 1)
 *   - topo.conservation: *exact* flow conservation on every link
 *     (msgsIn = msgsOut + dropped + inFlightAtEnd) and every router
 *     (received = forwarded + dropped + inFlightAtEnd); bytes never
 *     grow in transit (bytesOut <= bytesIn) and no in-flight count
 *     exceeds its observed queue peak
 *   - topo.nonneg: every ledger entry is non-negative
 *   - topo.retransAttribution: each link's attributed
 *     retransmissions are bounded by the whole-run channel total
 *
 *  determinism (re-run checks)
 *   - tracing on vs off: bit-identical outcomeJson
 *   - a multi-node run without an explicit topology vs the same run
 *     with effectiveTopology() spelled out: bit-identical outcomeJson
 *     (topo.resolverIdentity), and the spelled run's ledger passes
 *     every topo.* check — so the family audits every fabric
 *   - engineProfile flipped: bit-identical outcomeJson
 *     (engprof.payForUse — the profile never enters the outcome)
 *   - SweepRunner jobs=1 vs jobs=N: bit-identical outcomeJson, and
 *     the profile's deterministic subset (counters, simulated-time
 *     sketches, the edge graph — never wall-clock values) replicates
 *     bit-exactly too (engprof.deterministic)
 *   - every re-run comparison pins outcomeJson *plus* topoJson, so
 *     the per-link/per-router ledger must replicate bit-exactly
 *     across tracing, queue policy, profiling, and parallelism
 *
 * checkOutcome() applies the single-run invariants to an existing
 * Outcome; checkedRun() runs the experiment and optionally the
 * re-run determinism checks as well.
 */

#ifndef HSIPC_SIM_CHECK_INVARIANTS_HH
#define HSIPC_SIM_CHECK_INVARIANTS_HH

#include <string>
#include <vector>

#include "sim/kernel/ipc_sim.hh"

namespace hsipc::sim::check
{

/** One violated invariant. */
struct Violation
{
    std::string invariant; //!< stable id, e.g. "conservation.firstTx"
    std::string detail;    //!< the numbers that broke it
};

/** Render violations one per line (empty string when none). */
std::string formatViolations(const std::vector<Violation> &v);

/** Which re-run (determinism) checks checkedRun() performs. */
struct OracleOptions
{
    /** Re-run with an enabled tracer+metrics sink and compare. */
    bool checkTraceIdentity = true;

    /**
     * Run a 3-replica sweep serially and with this many jobs and
     * compare every outcome (0 disables the check).
     */
    int parallelJobs = 3;
};

/** Result of a checked run. */
struct CheckResult
{
    Outcome outcome;
    std::vector<Violation> violations;

    bool ok() const { return violations.empty(); }
};

/** Apply the single-run invariant catalog to @p out. */
std::vector<Violation> checkOutcome(const Experiment &exp,
                                    const Outcome &out);

/**
 * Check every histogram/sketch pair in @p reg: a sketch sharing a
 * histogram's name must have seen the same sample stream, and each
 * reported quantile must land inside the histogram's log2 bucket for
 * that rank, widened by the sketch's relative accuracy.  Applied by
 * checkedRun() to the registry of its traced re-run.
 */
std::vector<Violation>
checkSketchAccuracy(const metrics::Registry &reg);

/** Run @p exp, then the invariant catalog and determinism checks. */
CheckResult checkedRun(const Experiment &exp,
                       const OracleOptions &opts = OracleOptions());

} // namespace hsipc::sim::check

#endif // HSIPC_SIM_CHECK_INVARIANTS_HH
