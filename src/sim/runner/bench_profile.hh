/**
 * @file
 * Two-line `--profile` support for the bench binaries.
 *
 * Every bench parses `--profile` through bench::init(); a sweep bench
 * opts its experiments in with applyBenchProfile() before running and
 * publishes the merged engine profile with writeBenchProfile() after,
 * as a run report whose only section is "engineProfile".
 * With the flag absent both helpers are no-ops, preserving the
 * pay-for-use contract: an unprofiled bench run stays byte-identical.
 */

#ifndef HSIPC_SIM_BENCH_PROFILE_HH
#define HSIPC_SIM_BENCH_PROFILE_HH

#include <cstdio>
#include <vector>

#include "common/bench_main.hh"
#include "common/file.hh"
#include "common/json.hh"
#include "sim/kernel/ipc_sim.hh"

namespace hsipc::sim
{

/** Turn the engine profiler on for every Experiment when --profile. */
inline void
applyBenchProfile(std::vector<Experiment> &exps)
{
    if (!bench::profile())
        return;
    for (Experiment &e : exps)
        e.engineProfile = true;
}

/**
 * Write @p merged to bench::profilePath() as a run report whose only
 * section is "engineProfile".
 */
inline void
writeProfileReport(const obs::EngineProfile &merged)
{
    writeFileOrDie(bench::profilePath(),
                   jsonSections({{"engineProfile", merged.toJson()}}));
    std::printf("engine profile: %s\n", bench::profilePath().c_str());
}

/**
 * Merge the per-run profiles of @p outcomes and write the combined
 * report (writeProfileReport()).  Merging is exact (counters add,
 * sketches merge associatively), so the aggregate cost model reflects
 * the whole sweep regardless of --jobs.
 */
inline void
writeBenchProfile(const std::vector<Outcome> &outcomes)
{
    if (!bench::profile())
        return;
    obs::EngineProfile merged;
    for (const Outcome &o : outcomes)
        merged.merge(o.engineProfile);
    writeProfileReport(merged);
}

} // namespace hsipc::sim

#endif // HSIPC_SIM_BENCH_PROFILE_HH
