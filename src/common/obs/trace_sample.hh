/**
 * @file
 * Deterministic per-message-id trace sampling.
 *
 * Full causal traces are O(messages); at cluster scale that is the
 * memory bill that kills observability first.  This sampler keeps a
 * fixed fraction of message ids, chosen by hashing the id with
 * parallel::deriveSeed, the SplitMix64 mixer the parallel runner
 * uses for seed derivation.  The decision is a pure function of
 * (seed, id):
 *
 *  - every recorder (causal log, tracer flows) agrees on which ids
 *    to keep, so a sampled message's causal chain is *complete* —
 *    start, every interval, and its terminal all survive;
 *  - a SweepRunner shard makes the same decisions at jobs=1 and
 *    jobs=N, preserving bit-identical outputs;
 *  - no RNG state is consumed, so enabling sampling perturbs
 *    nothing else in the simulation.
 */

#ifndef HSIPC_COMMON_OBS_TRACE_SAMPLE_HH
#define HSIPC_COMMON_OBS_TRACE_SAMPLE_HH

#include <cstdint>

#include "common/rng.hh"

namespace hsipc::obs
{

class TraceSampler
{
  public:
    /** Default: keep everything (rate 1). */
    TraceSampler() = default;

    TraceSampler(double rate, std::uint64_t seed)
        : rate(rate), seed(seed)
    {}

    bool keepAll() const { return rate >= 1; }

    /** Deterministic keep/drop decision for message @p msgId. */
    bool
    sampled(long msgId) const
    {
        if (rate >= 1)
            return true;
        if (rate <= 0)
            return false;
        const std::uint64_t z = parallel::deriveSeed(
            seed, static_cast<std::uint64_t>(msgId));
        // Top 53 bits -> uniform double in [0, 1).
        return static_cast<double>(z >> 11) * 0x1.0p-53 < rate;
    }

  private:
    double rate = 1;
    std::uint64_t seed = 0;
};

} // namespace hsipc::obs

#endif // HSIPC_COMMON_OBS_TRACE_SAMPLE_HH
