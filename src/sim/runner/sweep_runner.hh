/**
 * @file
 * Deterministic parallel execution of experiment sweeps.
 *
 * Every bench that reproduces a figure or table evaluates a vector of
 * independent Experiment configurations.  SweepRunner runs them on a
 * fixed-size thread pool with the guarantee that makes the
 * parallelism safe to adopt everywhere: the Outcome vector is
 * BIT-IDENTICAL between `jobs = 1` (a true serial fallback that runs
 * inline, creating no threads) and any `jobs = N`.  That holds
 * because each simulation is self-contained — its own event queue,
 * RNG (seeded from the Experiment alone), fault injector, tracer and
 * metrics registry — and results land by input index, never by
 * completion order.
 *
 * Observability isolation: a run that names traceFile/reportFile
 * writes its own files exactly as it would serially; runs never share
 * a Tracer, Registry or EngineProfiler.  For in-process sinks,
 * runWithSinks() gives every run its own caller-constructed ones.
 */

#ifndef HSIPC_SIM_SWEEP_RUNNER_HH
#define HSIPC_SIM_SWEEP_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel/ipc_sim.hh"

namespace hsipc::sim
{

/** How a sweep executes. */
struct SweepOptions
{
    /**
     * Worker threads; 1 = serial inline execution (the default, and
     * the reference behavior every parallel run must reproduce
     * bit-identically).
     */
    int jobs = 1;

    /**
     * When nonzero, overwrite each Experiment's seed with
     * parallel::deriveSeed(seedBase, index) before running — the
     * per-task seed-derivation scheme for replication studies.  Zero
     * (default) leaves the seeds the caller set.
     */
    std::uint64_t seedBase = 0;
};

/** Runs vectors of Experiments to Outcomes, serially or in parallel. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = SweepOptions())
        : opts(opts)
    {}

    /** Run every experiment; outcome i belongs to experiment i. */
    std::vector<Outcome> run(std::vector<Experiment> exps) const;

    /**
     * As run(), but give run i the caller-supplied sinks
     * (*tracers)[i] / (*metrics)[i] — per-run isolation the caller
     * can inspect afterwards, never shared, so parallel sweeps record
     * without cross-run interference.  Either vector pointer may be
     * null; non-null vectors must match exps in length (entries may
     * be null to skip a run).
     */
    std::vector<Outcome> runWithSinks(
        std::vector<Experiment> exps,
        const std::vector<trace::Tracer *> *tracers,
        const std::vector<metrics::Registry *> *metrics) const;

    const SweepOptions &options() const { return opts; }

  private:
    SweepOptions opts;
};

/** One-shot convenience: run @p exps with @p jobs workers. */
std::vector<Outcome> runSweep(std::vector<Experiment> exps, int jobs);

/**
 * Deterministic JSON rendering of the Outcome's measurements (maps
 * are ordered, doubles use the shared %.12g form) — the
 * byte-comparable artifact the serial-vs-parallel determinism tests
 * and tools pin.  The timeline and its steady-state stats are
 * rendered by the run report's "timeline" section instead, the
 * engine profile by EngineProfile::toJson() and the fabric ledger by
 * topoJson().
 */
std::string outcomeJson(const Outcome &out);

/**
 * Deterministic JSON rendering of the topology layer's per-link /
 * per-router conservation ledger (ledger order is construction
 * order, so the document is byte-comparable across replicas).  Kept
 * out of outcomeJson(), whose documents carry the simulated
 * measurements alone.
 */
std::string topoJson(const Outcome &out);

} // namespace hsipc::sim

#endif // HSIPC_SIM_SWEEP_RUNNER_HH
