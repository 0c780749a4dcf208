/**
 * @file
 * Structured event tracing for the simulators.
 *
 * The thesis' methodology lives and dies by *where time goes*: §3.3
 * instruments a kernel to break a round trip into activities, and
 * chapter 6 attributes throughput differences to contention on
 * specific resources.  A Tracer makes the same attribution possible
 * for every simulated run: components record typed events — spans of
 * busy time and instantaneous occurrences — against named tracks (one
 * per simulated resource: each host CPU, MP, bus partition, DMA
 * engine, network channel), stamped with simulated time.
 *
 * The recorded timeline serves two consumers:
 *
 *  - chromeJson() emits Chrome trace_event JSON, loadable in Perfetto
 *    or chrome://tracing, with one "thread" per track;
 *  - busyByTrack()/busyByName() fold the spans into per-resource
 *    utilization and per-activity time breakdowns — the simulator's
 *    own Table-3-style profile, computed from its execution rather
 *    than from the synthetic profiling harness.
 *
 * Tracing is strictly pay-for-use: a disabled Tracer (the default)
 * rejects every record with a single branch and allocates nothing, so
 * instrumented components cost one pointer test per event when no
 * trace was requested.  Recording draws no randomness and schedules
 * no events, so enabling it cannot perturb simulation results.
 *
 * Consecutive spans on one track that share a name and abut in time
 * are merged on insertion: an uncontended kernel activity whose CPU
 * chunks and memory accesses are charged piecewise collapses to a
 * single span, and only genuine gaps (bus stalls, preemption) split
 * it.  This keeps traces compact without losing any busy/idle edge.
 */

#ifndef HSIPC_COMMON_TRACE_TRACER_HH
#define HSIPC_COMMON_TRACE_TRACER_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/obs/trace_sample.hh"
#include "common/time.hh"

namespace hsipc::trace
{

/** Event kinds, a subset of the Chrome trace_event phases. */
enum class Phase : std::uint8_t
{
    Complete,   //!< a span [start, start + duration) of busy time
    Instant,    //!< a point occurrence (drop, timeout, crash, ...)
    Counter,    //!< a sampled value (queue depth, window occupancy)
    FlowStart,  //!< first step of a causal flow ("s")
    FlowStep,   //!< intermediate step of a causal flow ("t")
    FlowEnd,    //!< terminating step of a causal flow ("f")
    AsyncBegin, //!< start of an async lifetime span ("b")
    AsyncEnd,   //!< end of an async lifetime span ("e")
};

/** One recorded event. */
struct Event
{
    Phase phase = Phase::Instant;
    int track = 0;
    Tick start = 0;
    Tick duration = 0; //!< Complete only
    double value = 0;  //!< Counter only
    //! Correlation id (0 = none).  On Complete/Instant events it tags
    //! the span with the message it serves; on flow/async events it is
    //! the Chrome event id that scopes the arrow or lifetime pair.
    long id = 0;
    std::string name;
    const char *category = ""; //!< static string, never owned
};

/** Records typed events against named per-resource tracks. */
class Tracer
{
  public:
    bool enabled() const { return on; }
    void setEnabled(bool e) { on = e; }

    /**
     * Keep per-message flow and async events only for the ids @p s
     * samples.  Complete spans and counters are never dropped —
     * utilization and windowed rates must stay whole-population —
     * so sampling bounds exactly the per-message O(messages) event
     * classes.  The decision is a pure function of (seed, id),
     * matching the CausalLog's, so a sampled message keeps its whole
     * arrow chain.
     */
    void setMessageSampler(const obs::TraceSampler &s)
    {
        msgSampler = s;
    }

    /**
     * Register (or look up) the track named @p name and return its
     * id.  Track ids are assigned in registration order, so a fixed
     * registration sequence yields a stable trace layout.
     */
    int track(const std::string &name);

    /**
     * Record a busy span; merges with an abutting same-name span.
     * Spans carrying different @p id values never merge, so the
     * per-message timeline stays separable even when one message's
     * work abuts the next one's on the same resource.
     */
    void complete(int track, const std::string &name, Tick start,
                  Tick duration, const char *category = "activity",
                  long id = 0);

    /** Record a point occurrence (optionally tagged with a msg id). */
    void instant(int track, const std::string &name, Tick ts,
                 const char *category = "event", long id = 0);

    /**
     * Record one step of causal flow @p id at @p ts on @p track.  The
     * first step of an id emits a Chrome flow-start ("s"); subsequent
     * steps emit flow-steps ("t"), so Perfetto draws an arrow chain
     * through the enclosing slices.  @p ts must lie inside a Complete
     * span on @p track for the arrow to bind.
     */
    void flowStep(int track, const std::string &name, Tick ts, long id);

    /**
     * Terminate causal flow @p id ("f", binding to the enclosing
     * slice) and retire the id so a later reuse starts a new chain.
     */
    void flowEnd(int track, const std::string &name, Tick ts, long id);

    /** Begin an async lifetime span scoped by (@p category, @p id). */
    void asyncBegin(int track, const std::string &name, Tick ts,
                    long id, const char *category = "msg");

    /** End the async lifetime span scoped by (@p category, @p id). */
    void asyncEnd(int track, const std::string &name, Tick ts, long id,
                  const char *category = "msg");

    /** Record a sampled value (rendered as a counter track). */
    void counter(int track, const std::string &name, Tick ts,
                 double value);

    const std::vector<Event> &events() const { return log; }
    const std::vector<std::string> &trackNames() const { return tracks; }

    /**
     * Render the Chrome trace_event JSON document: thread_name
     * metadata for every track (in id order) followed by the events
     * in recording order.  Timestamps are microseconds of simulated
     * time.
     */
    std::string chromeJson() const;

    /**
     * Busy ticks per track: Complete spans clipped to
     * [from, to).  Dividing by (to - from) gives the per-resource
     * utilization over that window.
     */
    std::map<std::string, Tick> busyByTrack(Tick from, Tick to) const;

    /**
     * Busy ticks per span name clipped to [from, to) — the
     * per-activity time breakdown across all tracks.
     */
    std::map<std::string, Tick> busyByName(Tick from, Tick to) const;

  private:
    void push(Phase phase, int track, const std::string &name, Tick ts,
              long id, const char *category);

    bool on = false;
    obs::TraceSampler msgSampler; //!< default: keep every id
    std::vector<std::string> tracks;
    std::map<std::string, int> trackIds;
    std::vector<Event> log;
    //! Index into @c log of the last Complete span per track, or -1;
    //! only that span is a merge candidate.
    std::vector<long> lastSpan;
    //! Flow ids that already emitted their "s" step.
    std::set<long> openFlows;
};

} // namespace hsipc::trace

#endif // HSIPC_COMMON_TRACE_TRACER_HH
