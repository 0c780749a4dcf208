/**
 * @file
 * Pay-for-use self-profiler for the discrete-event engine.
 *
 * Everything else under obs/ observes the *simulated* system; this
 * observes the *simulator*: where wall-clock time goes per executed
 * event (bucketed by the component that handled it), how the event
 * queue behaves (dwell times, heap depth, push/pop/comparison
 * counts), how the EventCallback storage tiers are exercised, and
 * how much work the access loops do.  A profiled run executes the
 * bare run's events and access loops: the profiler only counts and
 * samples them, so the profile describes the program that runs
 * without it.
 *
 * Discipline mirrors the tracer and timeline recorders:
 *
 *  - **Disabled** (no profiler attached): one predictable branch per
 *    instrumentation site, and every simulator output — outcome JSON,
 *    traces, metrics — stays byte-identical (pinned by tests and the
 *    fuzz oracle's `engprof.*` family).
 *
 *  - **Enabled**: plain counter increments on every event; the
 *    expensive work (two steady_clock reads, quantile-sketch
 *    observes) runs only on a deterministic 1-in-N subsample chosen
 *    by event sequence number, keeping measured overhead on the
 *    event-queue microbenchmarks under 5%.
 *
 * Wall-clock values are inherently nondeterministic, so the profile
 * splits: deterministicJson() renders the subset that is bit-stable
 * across reruns and jobs levels (counters, dwell/depth sketches over
 * *simulated* quantities, per-track event counts);
 * toJson() adds the wall-time sketches and pool-miss counts on top.
 * Nothing here ever enters outcomeJson().
 */

#ifndef HSIPC_COMMON_OBS_ENGINE_PROF_HH
#define HSIPC_COMMON_OBS_ENGINE_PROF_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/obs/pool_counters.hh"
#include "common/obs/sketch.hh"
#include "common/time.hh"

namespace hsipc::obs
{

/** The finished engine profile, carried on the simulation Outcome. */
struct EngineProfile
{
    bool enabled = false;
    std::uint64_t sampleEvery = 0; //!< wall/dwell subsampling period

    // Event-queue telemetry (every event; plain counters).
    // Both pending sets count: the callback heap and the step heap.
    std::uint64_t pushes = 0;        //!< keys scheduled
    std::uint64_t pops = 0;
    std::uint64_t comparisons = 0;   //!< heap-order tests in sifts
    std::uint64_t maxHeapSize = 0;   //!< peak in-flight population
    std::uint64_t remainingAtEnd = 0; //!< pushed, never executed

    // EventCallback storage telemetry (per-run deltas).
    std::uint64_t spillConstructs = 0;    //!< pooled spill constructions
    std::uint64_t oversizeConstructs = 0; //!< larger than a pool block
    std::uint64_t freshPoolBlocks = 0;    //!< pool misses (NOT deterministic)

    std::uint64_t sampledEvents = 0; //!< executions wall-clock sampled

    /**
     * The access loop's work (docs/performance.md, "Co-stepping
     * access loops").  A loop starts at a step event popped from the
     * step heap, which counts as a pop; the step keys it consumes
     * after that do not, so pushes = pops + (steps - loops) +
     * remainingAtEnd.  A step that runs its processor's later
     * accesses in place pushes no key for them and counts once.
     */
    struct CoStep
    {
        std::uint64_t loops = 0; //!< loops started
        std::uint64_t steps = 0; //!< step keys the loops consumed
        //! Stops by cause: a pending non-step event came first, the
        //! next step lay past the runUntil() bound, nothing was left.
        std::uint64_t stopNonAccess = 0;
        std::uint64_t stopBound = 0;
        std::uint64_t stopDrained = 0;

        void merge(const CoStep &other);
    };
    CoStep coStep; //!< rendered only when a loop started

    QuantileSketch dwellUs;   //!< sampled events' queue residence (sim us)
    QuantileSketch heapDepth; //!< heap size at sampled pushes

    /** Wall-clock cost bucket: one per event-handling component. */
    struct Track
    {
        std::string name;
        std::uint64_t events = 0; //!< executed events attributed here
        QuantileSketch wallNs;    //!< sampled execution wall time (ns)
    };
    std::vector<Track> tracks;

    /**
     * Fold @p other in: counters add, sketches merge exactly, tracks
     * match by name so profiles from different runs of a sweep
     * aggregate into one cost model.
     */
    void merge(const EngineProfile &other);

    /**
     * The reproducible subset (no wall-clock values, no pool-miss
     * counts): bit-identical across reruns and jobs=1/N — what the
     * fuzz oracle's replica comparison pins.
     */
    std::string deterministicJson() const;

    /** The full document: deterministic subset + wall-time sketches. */
    std::string toJson() const;
};

/**
 * The live recorder.  Attach to an EventQueue (queue hooks) and to
 * the components whose events it attributes (claim()); call
 * beginRun() before and finishRun() after the run.
 */
class EngineProfiler
{
  public:
    /**
     * Default subsampling: every 1024th event pays for the wall
     * sample and sketch observes.  A steady_clock read costs ~30 ns
     * on typical hosts and an event ~35 ns, so at 1-in-1024 the
     * sampling machinery amortizes to ~1% of the event loop; runs
     * long enough to profile (10^5+ events) still collect hundreds
     * of samples per sketch.
     */
    static constexpr std::uint64_t defaultSampleShift = 10;

    explicit EngineProfiler(
        std::uint64_t sampleShift = defaultSampleShift)
        : sampleMask_((std::uint64_t{1} << sampleShift) - 1)
    {
        prof_.sampleEvery = sampleMask_ + 1;
        // Origin 0 catches events no component claims (kickoffs,
        // samplers, protocol timers).
        origin("sim");
    }

    /** Snapshot the pool counters; call on the run's thread. */
    void
    beginRun()
    {
        prof_.enabled = true;
        poolStart_ = callbackPoolCounters();
    }

    /**
     * Intern an attribution origin (idempotent per name).  Call while
     * wiring components up, before the run — interning mid-run would
     * allocate on the event path.
     */
    int
    origin(const std::string &name)
    {
        for (std::size_t i = 0; i < prof_.tracks.size(); ++i) {
            if (prof_.tracks[i].name == name)
                return static_cast<int>(i);
        }
        EngineProfile::Track t;
        t.name = name;
        prof_.tracks.push_back(std::move(t));
        return static_cast<int>(prof_.tracks.size() - 1);
    }

    /**
     * Attribute the running event to origin @p id.  notePop() opens
     * the claim window; the first claim takes the event (its count,
     * and its wall sample when the event is a sampled one) and closes
     * it, so a later claim in the same event counts nothing.  Claims
     * outside an event (while wiring) find it closed too.
     */
    void
    claim(int id)
    {
        if (!claimOpen_)
            return;
        claimOpen_ = false;
        eventOrigin_ = id;
        ++prof_.tracks[static_cast<std::size_t>(id)].events;
    }

    // --- EventQueue hooks -------------------------------------------
    //
    // The queue keeps the per-event counters (pushes and comparisons
    // as it schedules and sifts, pops via its executed counter, peak
    // depth, all as members on cache lines it dirties every event)
    // and hands them over in batch; the profiler object is touched
    // per event only by notePop()'s one store, plus the sampled
    // 1-in-N sketch observes.  That split is what keeps profiled-run
    // overhead on the event-queue microbenchmarks low.

    /**
     * A sampled push: queue residence and post-push heap size.
     * Out-of-line (and cold): inlining two sketch observes into
     * EventQueue::schedule would bloat the hot path's code for a
     * 1-in-N branch.
     */
    __attribute__((cold)) void observePush(Tick dwellTicks,
                                           std::size_t heapSize);

    /**
     * A pop, immediately before the event body runs: opens the claim
     * window for the first claim() the event body makes.  An event
     * nothing claims falls to origin 0, "sim" (finishRun()).
     */
    void notePop() { claimOpen_ = true; }

    /** Batched queue-counter deltas (flushed after run loops). */
    void
    addQueueTotals(std::uint64_t pushes, std::uint64_t pops,
                   std::uint64_t comparisons, std::uint64_t maxHeap)
    {
        prof_.pushes += pushes;
        prof_.pops += pops;
        prof_.comparisons += comparisons;
        if (maxHeap > prof_.maxHeapSize)
            prof_.maxHeapSize = maxHeap;
    }

    /** One access loop's counts, added at its stop. */
    void
    noteCoStep(const EngineProfile::CoStep &loop)
    {
        prof_.coStep.merge(loop);
    }

    /** The subsample mask; the queue caches it beside its hot state. */
    std::uint64_t sampleMask() const { return sampleMask_; }

    /** Deterministic 1-in-N subsample predicate. */
    bool
    sampledSeq(std::uint64_t seq) const
    {
        return (seq & sampleMask_) == 0;
    }

    /** Bracket a sampled event body with a wall-clock pair. */
    void
    beginEvent()
    {
        eventOrigin_ = 0;
        t0_ = std::chrono::steady_clock::now();
    }

    __attribute__((cold)) void endEvent();

    /** Close the run: @p remaining is the end-of-run queue size. */
    void finishRun(std::size_t remaining);

    const EngineProfile &profile() const { return prof_; }

    /** Move the finished profile out (the recorder is spent). */
    EngineProfile take() { return std::move(prof_); }

  private:
    EngineProfile prof_;
    std::uint64_t sampleMask_;
    CallbackPoolCounters poolStart_;
    bool claimOpen_ = false; //!< the running event is still unclaimed
    int eventOrigin_ = 0;    //!< first claimant of the current event
    std::chrono::steady_clock::time_point t0_;
};

} // namespace hsipc::obs

#endif // HSIPC_COMMON_OBS_ENGINE_PROF_HH
