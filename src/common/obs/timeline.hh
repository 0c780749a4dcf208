/**
 * @file
 * Time-resolved windowed series ("timelines") for simulation runs.
 *
 * Everything else the simulator reports is a whole-run aggregate;
 * aggregates cannot show a goodput collapse at the knee or a
 * post-crash recovery ramp.  A Timeline keeps two kinds of series
 * over fixed intervals of simulated time:
 *
 *  - **counters**: per-bin event deltas (offered, completed, shed,
 *    retransmissions, ...).  Each increment is binned by the
 *    simulated timestamp at which the event happened, so by
 *    construction the series' integral (sum of bins) reproduces the
 *    corresponding whole-run Outcome counter *exactly* — the
 *    `timeline.integral` invariant the fuzz oracle checks.
 *
 *  - **gauges**: end-of-bin samples of instantaneous state
 *    (per-resource utilization over the bin, service-queue depth,
 *    free buffers, in-flight requests).
 *
 * Recording is pay-for-use: a disabled recorder leaves every series
 * handle null and each instrumentation site costs one branch.
 */

#ifndef HSIPC_COMMON_OBS_TIMELINE_HH
#define HSIPC_COMMON_OBS_TIMELINE_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/time.hh"

namespace hsipc::obs
{

/** The finished data, carried on the simulation Outcome. */
struct Timeline
{
    double intervalUs = 0; //!< bin width; 0 = timeline disabled
    double horizonUs = 0;  //!< covered span (warmup + measurement)
    double warmupUs = 0;   //!< where the measurement window starts
    std::map<std::string, std::vector<double>> counters;
    std::map<std::string, std::vector<double>> gauges;

    bool enabled() const { return intervalUs > 0; }
    std::size_t bins() const;

    /** Sum of a counter series' bins (0 for an absent series). */
    double total(const std::string &name) const;

    /**
     * Compact JSON object.  @p extraSections, when non-empty, is a
     * raw `"key": value, ...` fragment spliced in before the series —
     * the simulator uses it to embed steady-state stats and the
     * latency decomposition into the run report's timeline section.
     */
    std::string toJson(const std::string &extraSections = "") const;

    friend bool operator==(const Timeline &, const Timeline &) =
        default;
};

/** Accumulates a Timeline against simulated time. */
class TimelineRecorder
{
  public:
    struct Series
    {
        std::vector<double> bins;
    };

    /** Enable recording: @p intervalUs-wide bins over @p horizonUs. */
    void configure(double intervalUs, double horizonUs,
                   double warmupUs);

    bool enabled() const { return intervalTicks > 0; }
    Tick interval() const { return intervalTicks; }

    /** Series handle (stable for the recorder's lifetime). */
    Series &counter(const std::string &name);

    /** Add @p n to the bin containing simulated time @p at. */
    void add(Series &s, Tick at, double n = 1);

    /** Set gauge @p name's value for bin @p bin. */
    void sample(const std::string &name, std::size_t bin,
                double value);

    /** The bin containing simulated time @p at. */
    std::size_t binOf(Tick at) const;

    /** Total bins over the configured horizon. */
    std::size_t binCount() const { return bins; }

    const std::map<std::string, Series> &counterSeries() const
    {
        return counterMap;
    }
    const std::map<std::string, std::vector<double>> &
    gaugeSeries() const
    {
        return gaugeMap;
    }

    /** Pad every series to binCount() and move the data out. */
    Timeline take();

  private:
    Tick intervalTicks = 0;
    double intervalUsVal = 0;
    double horizonUsVal = 0;
    double warmupUsVal = 0;
    std::size_t bins = 0;
    std::map<std::string, Series> counterMap;
    std::map<std::string, std::vector<double>> gaugeMap;
};

} // namespace hsipc::obs

#endif // HSIPC_COMMON_OBS_TIMELINE_HH
