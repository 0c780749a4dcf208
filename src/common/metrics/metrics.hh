/**
 * @file
 * A registry of named counters, log2-bucket histograms and quantile
 * sketches.
 *
 * Any component can register an instrument by name and update it at
 * simulation speed; at end of run the registry renders every
 * instrument as JSON (machine-readable) or a formatted table
 * (human-readable).  Names are dotted paths —
 * `<node>.<resource>.<quantity>` for per-resource series,
 * `<subsystem>.<quantity>` otherwise — so the dump sorts into
 * readable groups (std::map keeps it deterministic).
 *
 * Updates are a map lookup amortized to a held reference: callers
 * fetch `Counter &` once and bump it in the hot loop.  A Registry
 * that is never dumped costs nothing beyond those updates, and the
 * simulator only instantiates instruments when a run report was
 * requested, keeping the disabled path free.  Whole-run values the
 * simulator's Outcome already carries are not copied in here.
 */

#ifndef HSIPC_COMMON_METRICS_METRICS_HH
#define HSIPC_COMMON_METRICS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>

#include "common/obs/sketch.hh"

namespace hsipc::metrics
{

/** A monotonically increasing count. */
class Counter
{
  public:
    void inc(std::int64_t by = 1) { total += by; }
    std::int64_t value() const { return total; }

  private:
    std::int64_t total = 0;
};

/**
 * A histogram over power-of-two buckets.
 *
 * Bucket 0 holds values below 1 (including zero and negatives);
 * bucket i >= 1 holds the half-open range [2^(i-1), 2^i), so an exact
 * power of two lands in the bucket it opens.  Values at or beyond
 * 2^(numBuckets-1) clamp into the last bucket.  Log2 buckets span the
 * microsecond-to-second dynamic range of simulated latencies in 64
 * slots with uniform relative resolution.
 */
class Histogram
{
  public:
    static constexpr int numBuckets = 64;

    /** Bucket index for @p v under the scheme above. */
    static int bucketIndex(double v);

    /** Inclusive lower bound of bucket @p i (0 for bucket 0). */
    static double bucketLowerBound(int i);

    void observe(double v);

    std::int64_t count() const { return n; }
    double sum() const { return total; }
    double mean() const { return n > 0 ? total / double(n) : 0.0; }
    double min() const { return n > 0 ? lo : 0.0; }
    double max() const { return n > 0 ? hi : 0.0; }
    std::int64_t bucketCount(int i) const;

    /**
     * Smallest bucket lower bound at or above the @p q quantile
     * (0..1) — an upper estimate with one-bucket resolution.
     */
    double quantileUpperBound(double q) const;

  private:
    std::int64_t buckets[numBuckets] = {};
    std::int64_t n = 0;
    double total = 0;
    double lo = 0;
    double hi = 0;
};

/** Named instruments, created on first use. */
class Registry
{
  public:
    Counter &counter(const std::string &name) { return counters[name]; }

    Histogram &
    histogram(const std::string &name)
    {
        return histograms[name];
    }

    /**
     * A mergeable quantile sketch (default relative accuracy).  A
     * sketch sharing a histogram's name takes over that histogram's
     * reported p50/p95/p99: the sketch's fixed relative error beats
     * the log2 bucket edge (up to 2x off), and being mergeable it
     * reports the same answer whether the samples were observed in
     * one run or combined across shards.
     */
    obs::QuantileSketch &
    sketch(const std::string &name)
    {
        return sketches.try_emplace(name).first->second;
    }

    bool
    empty() const
    {
        return counters.empty() && histograms.empty() &&
               sketches.empty();
    }

    const std::map<std::string, Histogram> &
    allHistograms() const
    {
        return histograms;
    }

    const std::map<std::string, obs::QuantileSketch> &
    allSketches() const
    {
        return sketches;
    }

    /**
     * The quantile reported for histogram @p name: the same-named
     * sketch's value when one observed the same sample stream, else
     * the histogram's own bucket upper bound, clamped to the largest
     * sample (the bucket's edge may lie past every sample in it).
     */
    double histogramQuantile(const std::string &name,
                             const Histogram &h, double q) const;

    /** One JSON object: {"counters":{...},"histograms":{...},...}. */
    std::string toJson() const;

    /** Human-readable tables (one per instrument kind). */
    std::string toTable() const;

  private:
    std::map<std::string, Counter> counters;
    std::map<std::string, Histogram> histograms;
    std::map<std::string, obs::QuantileSketch> sketches;
};

} // namespace hsipc::metrics

#endif // HSIPC_COMMON_METRICS_METRICS_HH
