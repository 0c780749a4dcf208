/**
 * @file
 * Discrete-event simulation core: a time-ordered event queue with
 * stable FIFO ordering among simultaneous events.
 *
 * The pending-event set is an indirect binary min-heap.  The heap
 * holds only 16-byte keys, (when, seq << 24 | step << 22 | slot),
 * so comparing the second word compares seq; the callbacks sit still
 * in a slot arena beside it, reused through a LIFO free list.  Each
 * sift level therefore moves one key, where it used to move a whole
 * 80-byte event through EventCallback's move (docs/performance.md,
 * "The DES event-loop fast path").  A push builds its callback in a
 * slot: schedule() forwards the callable itself, so the target moves
 * once, into the slot, and never passes through an EventCallback
 * temporary.  A pop moves it out once, frees the slot, and only then
 * invokes it, because the callback may schedule events and grow the
 * arena under itself.
 *
 * The heap is explicit rather than a std::priority_queue so that
 * runUntil() does exactly one heap inspection per executed event:
 * the bounds check reads the root in place and the same read feeds
 * the pop.  O(log n) per operation; the simulator keeps a few dozen
 * pending events (docs/performance.md, "Why one heap").
 *
 * Backing storage is reserved up front so the steady state never
 * reallocates.  Callbacks are EventCallback (see callable.hh): 48
 * bytes of inline capture storage and a pooled spill path, so
 * scheduling stops allocating per event.
 *
 * Step events carry no callback at all.  A processor's chunk end
 * with accesses left and a bus release are keys that name their kind
 * and their target (scheduleStep()); the access loop in
 * node/processor.cc runs them.  When runUntil() pops one, the loop
 * runs it and every later step event, on any bus of any node, in
 * exact (when, seq) order, up to the first pending non-step event or
 * the bound.  The steps it schedules meanwhile are kept as keys in a
 * small heap of its own, and the step events it meets at the root of
 * this heap are taken over; at the stop the loop's keys go back here
 * with the seqs they drew.  runOne() runs a step event alone, and so
 * does runUntil() while a sink that records per access is observed
 * (observe()): the queue alone decides whether steps co-step
 * (docs/performance.md, "Co-stepping access loops").
 */

#ifndef HSIPC_SIM_EVENT_QUEUE_HH
#define HSIPC_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/obs/probe.hh"
#include "common/time.hh"
#include "sim/des/callable.hh"

namespace hsipc::sim
{

class AccessLoop; // node/processor.cc

/** The event queue driving a simulation. */
class EventQueue
{
  public:
    using Callback = EventCallback;

    /**
     * The events the access loop steps: a processor's chunk end with
     * accesses left, and a bus release.  Every other event is None.
     */
    enum class Step : std::uint8_t
    {
        None,
        ChunkEnd,
        Release,
    };

    EventQueue()
    {
        heap.reserve(reservedCapacity);
        slots.reserve(reservedCapacity);
        freeSlots.reserve(reservedCapacity);
        loopKeys.reserve(reservedCapacity);
    }

    Tick now() const { return current; }

    /**
     * Report to the run's sinks: queue telemetry, dwell/depth sampling
     * and wall-clock bracketing to the engine profiler (one predictable
     * branch per hook without one).  While the tracer or the causal log
     * records per access, runUntil() runs each step event alone, as
     * runOne() does.  Observational only: the same events run in the
     * same order either way.
     */
    void
    observe(const obs::Sinks &s)
    {
        prof = s.prof;
        profMask = prof ? prof->sampleMask() : 0;
        profPushes = 0;
        profExecFlushed = executed;
        profCmps = 0;
        profMaxHeap = 0;
        stepsAlone = s.perAccess();
    }

    /**
     * Schedule @p f at absolute time @p when (>= now).  @p f is any
     * `void()` callable, or an EventCallback passed by std::move; it
     * is built in its slot (see EventCallback::emplace).
     */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        if (prof)
            pushT<true>(when, std::forward<F>(f));
        else
            pushT<false>(when, std::forward<F>(f));
    }

    /** Schedule @p f @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&f)
    {
        schedule(current + delay, std::forward<F>(f));
    }

    /**
     * Register @p who as a step target: the Processor whose chunk
     * ends, or the Resource whose releases, scheduleStep() names by
     * the returned id.
     */
    std::uint32_t
    addStepTarget(void *who)
    {
        hsipc_assert(stepTargets.size() < idMask);
        stepTargets.push_back(who);
        return static_cast<std::uint32_t>(stepTargets.size() - 1);
    }

    /**
     * Schedule step @p kind of target @p id at @p when.  The seq is
     * drawn now, as for any event; inside an access loop the key
     * joins the loop's own keys instead of this heap.
     */
    void
    scheduleStep(Tick when, Step kind, std::uint32_t id)
    {
        hsipc_assert(when >= current);
        hsipc_assert(nextSeq >> (64 - seqShift) == 0);
        const Key k{when, nextSeq++ << seqShift |
                              static_cast<std::uint64_t>(kind)
                                  << stepShift |
                              id};
        if (!looping) {
            pushKey(k);
        } else if (!haveNext) [[likely]] {
            loopNext = k; // most steps schedule one: often the next
            haveNext = true;
        } else {
            pushLoopKey(k);
        }
    }

    /** Is an access loop running (see node/processor.cc)? */
    bool coStepping() const { return looping; }

    bool empty() const { return heap.empty(); }

    std::size_t size() const { return heap.size(); }

    /** Events executed since construction (for the metrics dump). */
    std::uint64_t eventsRun() const { return executed; }

    /**
     * Pop and run the earliest event; false when none remain.  A step
     * event runs alone, never as an access loop: the caller may
     * inspect state between any two events.
     */
    bool
    runOne()
    {
        if (empty())
            return false;
        if (prof) {
            execOne<true>(noLoop);
            flushProfile();
        } else {
            execOne<false>(noLoop);
        }
        return true;
    }

    /**
     * Run until the clock passes @p end or the queue drains.  The hot
     * loop inspects the earliest pending event once per executed
     * event: the bounds check reads it in place, and the same read
     * feeds the pop.  A step event starts an access loop bounded by
     * @p end, unless a per-access sink is observed: events at exactly
     * the bound still run, and the caller inspects state only after
     * this returns.  The profiled instantiation is dispatched once,
     * outside the loop.
     */
    void
    runUntil(Tick end)
    {
        if (prof)
            runUntilT<true>(end);
        else
            runUntilT<false>(end);
    }

  private:
    friend class AccessLoop;

    /**
     * Key::order is seq << seqShift | step << stepShift | id: the id
     * is the callback's slot for a None event and the target for a
     * step event.
     */
    static constexpr unsigned seqShift = 24;
    static constexpr unsigned stepShift = 22;
    static constexpr std::uint64_t idMask = (1ull << stepShift) - 1;

    /** A heap entry: the event's time and its packed order word. */
    struct Key
    {
        Tick when;
        std::uint64_t order;

        std::uint64_t seq() const { return order >> seqShift; }
        Step
        step() const
        {
            return static_cast<Step>((order >> stepShift) & 3);
        }
        std::uint32_t
        id() const
        {
            return static_cast<std::uint32_t>(order & idMask);
        }
    };

    /**
     * Heap order: earlier time first, FIFO (seq) among equals.  seq
     * is unique, so the bits below it never decide.
     */
    static bool
    before(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.order < b.order;
    }

    /** The access loop's min-heap order, for the std heap functions. */
    struct After
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            return before(b, a);
        }
    };

    /**
     * Build @p f in a free slot and push its key: the insertion path
     * of every callback event.
     */
    template <bool Prof, typename F>
    void
    pushT(Tick when, F &&f)
    {
        hsipc_assert(when >= current);
        hsipc_assert(nextSeq >> (64 - seqShift) == 0);
        std::uint32_t slot;
        if (freeSlots.empty()) {
            hsipc_assert(slots.size() <= idMask);
            slot = static_cast<std::uint32_t>(slots.size());
            slots.emplace_back().emplace(std::forward<F>(f));
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
            slots[slot].emplace(std::forward<F>(f));
        }
        pushKeyT<Prof>(Key{when, nextSeq++ << seqShift | slot});
    }

    /**
     * The single heap insertion: the profiled instantiation counts
     * the push and tracks peak population and the 1-in-N dwell/depth
     * subsample; Prof=false compiles to the bare insert.
     */
    template <bool Prof>
    void
    pushKeyT(Key k)
    {
        if constexpr (Prof) {
            ++profPushes;
            const std::size_t depth = heap.size() + 1;
            if (depth > profMaxHeap)
                profMaxHeap = depth;
            // An event pushed for `when` sits in the queue exactly
            // `when - now` simulated ticks — dwell is known at push
            // time, so events carry no extra timestamp.
            if ((k.seq() & profMask) == 0) [[unlikely]]
                prof->observePush(k.when - current, depth);
        }
        heap.push_back(k);
        siftUpT<Prof>(heap.size() - 1);
    }

    void
    pushKey(Key k)
    {
        if (prof)
            pushKeyT<true>(k);
        else
            pushKeyT<false>(k);
    }

    /** Add @p k to the access loop's own heap of keys. */
    void
    pushLoopKey(Key k)
    {
        loopKeys.push_back(k);
        std::push_heap(loopKeys.begin(), loopKeys.end(), After{});
    }

    /** Remove the root key (the access loop's take-over). */
    Key
    popRoot()
    {
        return prof ? popTop<true>() : popTop<false>();
    }

    /**
     * Pop and execute the earliest event.  A callback leaves its
     * slot, and the slot returns to the free list, before it runs:
     * it may schedule events, and so grow the arena, while running.
     * A step event goes to the access loop, bounded by @p loopEnd.
     * The Prof=true instantiation counts the pop, and for the
     * deterministic 1-in-N subsample (keyed on seq, as at push)
     * brackets the event body with a steady_clock pair.
     */
    template <bool Prof>
    void
    execOne(Tick loopEnd)
    {
        const Key top = popTop<Prof>();
        current = top.when;
        ++executed;
        if constexpr (Prof)
            prof->notePop();
        if (top.step() != Step::None) {
            if (Prof && (top.seq() & profMask) == 0) [[unlikely]]
                loopSampled(top, loopEnd);
            else
                accessLoop(*this, top, loopEnd);
            return;
        }
        Callback cb = std::move(slots[top.id()]);
        freeSlots.push_back(top.id());
        if constexpr (Prof) {
            if ((top.seq() & profMask) == 0) [[unlikely]]
                execSampled(cb);
            else
                cb();
        } else {
            cb();
        }
    }

    /**
     * The wall-clock-bracketed execution of a 1-in-N sampled event.
     * Outlined and cold so the chrono machinery never sits inside
     * the hot run loop's code.
     */
    __attribute__((noinline, cold)) void
    execSampled(const Callback &cb)
    {
        prof->beginEvent();
        cb();
        prof->endEvent();
    }

    /** execSampled() for a step event: the whole loop is the sample. */
    __attribute__((noinline, cold)) void
    loopSampled(Key first, Tick loopEnd)
    {
        prof->beginEvent();
        accessLoop(*this, first, loopEnd);
        prof->endEvent();
    }

    template <bool Prof>
    void
    runUntilT(Tick end)
    {
        const Tick loopEnd = stepsAlone ? noLoop : end;
        while (!heap.empty() && heap.front().when <= end)
            execOne<Prof>(loopEnd);
        if (current < end)
            current = end;
        if constexpr (Prof)
            flushProfile();
    }

    /**
     * Hand the profiler the queue counters it deliberately does not
     * keep itself: pushes counted at each heap push, and pops as the
     * executed delta since the last flush (a step event the access
     * loop takes over is neither; the loop reports those itself);
     * comparisons and peak population accumulate in queue members
     * whose cache lines every event dirties anyway.  Runs after every
     * run loop, so the ledger is current whenever control returns to
     * the caller.
     */
    void
    flushProfile()
    {
        prof->addQueueTotals(profPushes, executed - profExecFlushed,
                             profCmps, profMaxHeap);
        profPushes = 0;
        profExecFlushed = executed;
        profCmps = 0;
    }

    /** Remove and return the root key, restoring the heap invariant. */
    template <bool Prof>
    Key
    popTop()
    {
        const Key top = heap.front();
        heap.front() = heap.back();
        heap.pop_back();
        if (heap.size() > 1)
            siftDownT<Prof>(0);
        return top;
    }

    /**
     * Bubble the key at @p i up, hole-style (one move per level).
     * The Prof=true instantiation counts heap-order comparisons into
     * the profiler; Prof=false compiles to the original sift.
     */
    template <bool Prof>
    void
    siftUpT(std::size_t i)
    {
        std::uint64_t cmps = 0;
        const Key e = heap[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if constexpr (Prof)
                ++cmps;
            if (!before(e, heap[parent]))
                break;
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = e;
        if constexpr (Prof)
            profCmps += cmps;
    }

    /** Push the key at @p i down, hole-style. */
    template <bool Prof>
    void
    siftDownT(std::size_t i)
    {
        std::uint64_t cmps = 0;
        const Key e = heap[i];
        const std::size_t n = heap.size();
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n) {
                if constexpr (Prof)
                    ++cmps;
                if (before(heap[child + 1], heap[child]))
                    ++child;
            }
            if constexpr (Prof)
                ++cmps;
            if (!before(heap[child], e))
                break;
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = e;
        if constexpr (Prof)
            profCmps += cmps;
    }

    /**
     * The pre-sized backing stores (heap, slots, free list): the
     * kernel simulator keeps a few dozen to a few hundred events in
     * flight, so this headroom removes every steady-state
     * reallocation.
     */
    static constexpr std::size_t reservedCapacity = 1024;

    /** A step's loop bound before every tick: it runs alone. */
    static constexpr Tick noLoop = std::numeric_limits<Tick>::min();

    std::vector<Key> heap;
    std::vector<Callback> slots;           //!< pending callbacks by slot
    std::vector<std::uint32_t> freeSlots; //!< LIFO: last freed, first reused
    Tick current = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
    std::vector<void *> stepTargets; //!< by step-event id
    //! Runs a popped step event, and the access loop after it up to
    //! the bound; installed by the first Processor on this queue.
    void (*accessLoop)(EventQueue &, Key, Tick) = nullptr;
    bool stepsAlone = false;   //!< a per-access sink is observed
    bool looping = false;      //!< inside an access loop
    std::vector<Key> loopKeys; //!< its pending steps; empty outside
    bool haveNext = false;     //!< the running step scheduled loopNext
    Key loopNext{};            //!< the first step it scheduled
    obs::EngineProfiler *prof = nullptr;
    // Per-event profiling state lives here, not on the profiler: the
    // queue's cache lines are dirty every event regardless, so these
    // cost the hot loop almost nothing; flushProfile() batches them
    // over.  profMask is cached so the 1-in-N tests stay local too.
    std::uint64_t profMask = 0;
    std::uint64_t profPushes = 0;      //!< heap pushes since flush
    std::uint64_t profCmps = 0;        //!< sift comparisons since flush
    std::size_t profMaxHeap = 0;       //!< peak population since attach
    std::uint64_t profExecFlushed = 0; //!< executed at last flush
};

} // namespace hsipc::sim

#endif // HSIPC_SIM_EVENT_QUEUE_HH
