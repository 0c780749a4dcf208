/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in the library draws from an explicitly
 * seeded Rng so that all tests and benches are reproducible.  The
 * generator is xoshiro256** seeded through SplitMix64, which is both
 * fast and of high statistical quality.
 */

#ifndef HSIPC_COMMON_RNG_HH
#define HSIPC_COMMON_RNG_HH

#include <cstdint>

namespace hsipc
{

/** xoshiro256** generator with SplitMix64 seeding. */
class Rng
{
  public:
    /** Construct from a 64-bit seed; any value (including 0) is fine. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state) {
            // SplitMix64 step.
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n); n must be positive. */
    std::uint64_t
    below(std::uint64_t n)
    {
        return next() % n;
    }

    /** Bernoulli trial with success probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Geometric holding time in unit steps with the given mean:
     * the number of trials up to and including the first success of a
     * Bernoulli(1/mean) process.  Matches the thesis' approximation of
     * large constant delays by geometric delays (Fig 6.7).
     */
    std::uint64_t
    geometric(double mean)
    {
        if (mean <= 1.0)
            return 1;
        const double p = 1.0 / mean;
        std::uint64_t n = 1;
        while (!chance(p))
            ++n;
        return n;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

namespace parallel
{

/**
 * Derive a statistically independent 64-bit seed for task @p index
 * from @p base.  SplitMix64 applied to base + index * golden-gamma:
 * the same finalizer the Rng uses for state expansion, so derived
 * seeds are well-mixed even for consecutive indices, and the mapping
 * is a pure function — the anchor of run-order independence.  The
 * parallel runner seeds its tasks with it, the fuzz generator its
 * draws, and the trace sampler hashes message ids with it.
 */
inline std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t index)
{
    std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace parallel

} // namespace hsipc

#endif // HSIPC_COMMON_RNG_HH
