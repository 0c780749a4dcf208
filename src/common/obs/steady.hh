/**
 * @file
 * Warmup / steady-state detection over timeline series.
 *
 * Benches pick a warmup window by eyeball; nothing checks it.  This
 * module applies the MSER-5 rule (White's Marginal Standard Error
 * Rule over batches of five observations) to the run's own
 * throughput timeline to *detect* the end of the initial transient,
 * then forms batch-means confidence intervals on throughput and
 * round-trip latency over the remaining batches.  A run whose
 * detected truncation point lands past its configured warmup gets
 * `transientPolluted = true`: its measurement window silently
 * averaged ramp-up into "steady state".
 */

#ifndef HSIPC_COMMON_OBS_STEADY_HH
#define HSIPC_COMMON_OBS_STEADY_HH

#include <cstddef>
#include <string>
#include <vector>

namespace hsipc::obs
{

/** Steady-state summary, surfaced as `Outcome.stats`. */
struct SteadyStats
{
    bool enabled = false; //!< analysis ran (timeline was recorded)

    /** Too few batches for MSER-5 to say anything (short run). */
    bool insufficientData = false;

    /**
     * The detected transient extends past the configured warmup:
     * measured aggregates include ramp-up.
     */
    bool transientPolluted = false;

    double truncationUs = 0; //!< detected steady-state onset
    long batches = 0;        //!< batch-means batches after truncation
    double throughputPerSec = 0; //!< steady-state batch-means mean
    double throughputCi95PerSec = 0;
    double meanRtUs = 0; //!< steady-state round-trip batch mean
    double rtCi95Us = 0;

    /** One-line JSON object of every field (the timeline's "stats"). */
    std::string toJson() const;

    friend bool operator==(const SteadyStats &,
                           const SteadyStats &) = default;
};

/**
 * MSER-5 truncation point: the index into @p obs (a multiple of 5)
 * at which the marginal standard error of the remaining batch means
 * is minimized.  Returns obs.size() when there are fewer than two
 * batches to compare.
 */
std::size_t mser5Truncation(const std::vector<double> &obs);

/**
 * Full analysis over whole-run per-bin series (warmup included):
 * @p tripsPerBin round trips completed in each bin and
 * @p rtSumUsPerBin the summed round-trip microseconds of those
 * trips.  @p intervalUs is the bin width, @p warmupUs the configured
 * warmup the caller believed sufficient.
 */
SteadyStats analyzeSteadyState(const std::vector<double> &tripsPerBin,
                               const std::vector<double> &rtSumUsPerBin,
                               double intervalUs, double warmupUs);

} // namespace hsipc::obs

#endif // HSIPC_COMMON_OBS_STEADY_HH
