/**
 * @file
 * Seeded random Experiment generator for the property-based fuzzer.
 *
 * Each draw covers the simulator's whole configuration surface — all
 * four architectures, classic local/non-local and mixed workloads,
 * multiprocessor nodes, MP speed ablations, every fabric kind, the full
 * fault/protocol knob set, and the observational toggles (latency
 * decomposition; tracing is exercised separately by the oracle's
 * bit-identity check) — under validity constraints that make every
 * generated configuration runnable: probabilities stay in [0, 1],
 * crash windows are well-formed, lie inside the simulated horizon and
 * name an existing node, horizons are short enough that a fuzz run of
 * hundreds of experiments finishes in seconds.
 *
 * The mapping seed -> Experiment is pure: generate(i) depends only on
 * the generator's base seed and i, so a fuzz failure is reproducible
 * from two integers before the shrinker even starts.
 */

#ifndef HSIPC_SIM_CHECK_GENERATOR_HH
#define HSIPC_SIM_CHECK_GENERATOR_HH

#include <cstdint>

#include "sim/kernel/ipc_sim.hh"

namespace hsipc::sim::check
{

/**
 * The canonical small configuration the fuzzer perturbs and the
 * shrinker simplifies toward: every default Experiment knob except
 * horizons shortened (warmup 2 ms, measurement 40 ms of simulated
 * time) so a single run costs milliseconds of wall clock.  A knob
 * "counts" in a repro's size when it differs from this base.
 */
Experiment baseExperiment();

/** Draws random runnable Experiments; deterministic in the seed. */
class ExperimentGenerator
{
  public:
    explicit ExperimentGenerator(std::uint64_t baseSeed)
        : baseSeed(baseSeed)
    {}

    /**
     * The @p index-th random Experiment of this generator's stream.
     * Pure function of (baseSeed, index).
     */
    Experiment generate(std::uint64_t index) const;

  private:
    std::uint64_t baseSeed;
};

} // namespace hsipc::sim::check

#endif // HSIPC_SIM_CHECK_GENERATOR_HH
