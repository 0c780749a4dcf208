/**
 * @file
 * Discrete-event simulation core: a time-ordered event queue with
 * stable FIFO ordering among simultaneous events.
 *
 * The pending-event set is an indirect binary min-heap.  The heap
 * holds only 16-byte keys, (when, seq << slotBits | slot), so
 * comparing the second word compares seq; the callbacks sit still
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
 */

#ifndef HSIPC_SIM_EVENT_QUEUE_HH
#define HSIPC_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/obs/engine_prof.hh"
#include "common/time.hh"
#include "sim/des/callable.hh"

namespace hsipc::sim
{

/** The event queue driving a simulation. */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue()
    {
        heap.reserve(reservedCapacity);
        slots.reserve(reservedCapacity);
        freeSlots.reserve(reservedCapacity);
    }

    Tick now() const { return current; }

    /**
     * Attach a self-profiler (see common/obs/engine_prof.hh): queue
     * telemetry, dwell/depth sampling, and wall-clock bracketing of
     * executed events.  Observational only — a profiled run executes
     * the same events in the same order; with no profiler attached
     * every hook is one predictable branch.
     */
    void
    attachProfiler(obs::EngineProfiler *p)
    {
        prof = p;
        profMask = p ? p->sampleMask() : 0;
        profSeqFlushed = nextSeq;
        profExecFlushed = executed;
        profCmps = 0;
        profMaxHeap = 0;
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

    bool empty() const { return heap.empty(); }

    std::size_t size() const { return heap.size(); }

    /** Events executed since construction (for the metrics dump). */
    std::uint64_t eventsRun() const { return executed; }

    /**
     * The quiet horizon: the last tick up to which only the running
     * event's own continuations can execute.  It is one tick before
     * the earliest pending event, capped at the active runUntil()
     * bound (events at exactly the bound still run inside the loop;
     * the caller inspects state only after it returns).  Outside
     * runUntil() — in particular under runOne(), whose caller may
     * inspect state between any two events — there is no quiet
     * span, and the horizon lies before every tick.
     *
     * A handler that books its own continuations up to this tick
     * without scheduling them is unobservable: no other event fires
     * in between, and the runUntil() caller sees the state only at
     * the bound.
     */
    Tick
    quietHorizon() const
    {
        if (heap.empty())
            return runEnd;
        return std::min(runEnd, heap.front().when - 1);
    }

    /**
     * Pop and run the earliest event; false when none remain.  The
     * quiet horizon stays off: the caller may inspect state between
     * any two events.
     */
    bool
    runOne()
    {
        if (empty())
            return false;
        if (prof) {
            execOne<true>();
            flushProfile();
        } else {
            execOne<false>();
        }
        return true;
    }

    /**
     * Run until the clock passes @p end or the queue drains.  The hot
     * loop inspects the earliest pending event once per executed
     * event: the bounds check reads it in place, and the same read
     * feeds the pop.  The profiled instantiation is dispatched once,
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
    /** Low bits of Key::order that name the callback's slot. */
    static constexpr unsigned slotBits = 24;
    static constexpr std::uint64_t slotMask = (1ull << slotBits) - 1;

    /** A heap entry: the event's time and seq << slotBits | slot. */
    struct Key
    {
        Tick when;
        std::uint64_t order;

        std::uint64_t seq() const { return order >> slotBits; }
        std::uint32_t
        slot() const
        {
            return static_cast<std::uint32_t>(order & slotMask);
        }
    };

    /**
     * Heap order: earlier time first, FIFO (seq) among equals.  seq
     * is unique, so the slot bits below it never decide.
     */
    static bool
    before(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.order < b.order;
    }

    /**
     * The single insertion path: the profiled instantiation tracks
     * peak population and the 1-in-N dwell/depth subsample;
     * Prof=false compiles to the bare insert.
     */
    template <bool Prof, typename F>
    void
    pushT(Tick when, F &&f)
    {
        hsipc_assert(when >= current);
        if constexpr (Prof) {
            const std::size_t depth = heap.size() + 1;
            if (depth > profMaxHeap)
                profMaxHeap = depth;
            // An event scheduled for `when` sits in the queue exactly
            // `when - now` simulated ticks — dwell is known at push
            // time, so events carry no extra timestamp.
            if ((nextSeq & profMask) == 0) [[unlikely]]
                prof->observePush(when - current, depth);
        }
        hsipc_assert(nextSeq >> (64 - slotBits) == 0);
        std::uint32_t slot;
        if (freeSlots.empty()) {
            hsipc_assert(slots.size() <= slotMask);
            slot = static_cast<std::uint32_t>(slots.size());
            slots.emplace_back().emplace(std::forward<F>(f));
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
            slots[slot].emplace(std::forward<F>(f));
        }
        heap.push_back(Key{when, nextSeq++ << slotBits | slot});
        siftUpT<Prof>(heap.size() - 1);
    }

    /**
     * Pop and execute the earliest event.  The callback leaves its
     * slot, and the slot returns to the free list, before it runs:
     * it may schedule events, and so grow the arena, while running.
     * The Prof=true instantiation counts the pop, and for the
     * deterministic 1-in-N subsample (keyed on seq, as at push)
     * brackets the event body with a steady_clock pair.
     */
    template <bool Prof>
    void
    execOne()
    {
        const Key top = popTop<Prof>();
        Callback cb = std::move(slots[top.slot()]);
        freeSlots.push_back(top.slot());
        current = top.when;
        ++executed;
        if constexpr (Prof) {
            prof->notePop();
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

    template <bool Prof>
    void
    runUntilT(Tick end)
    {
        runEnd = end;
        while (!heap.empty() && heap.front().when <= end)
            execOne<Prof>();
        runEnd = noHorizon;
        if (current < end)
            current = end;
        if constexpr (Prof)
            flushProfile();
    }

    /**
     * Hand the profiler the queue counters it deliberately does not
     * keep itself: pushes are the seq-counter delta and pops the
     * executed delta since the last flush; comparisons and peak
     * population accumulate in queue members whose cache lines every
     * event dirties anyway.  Runs after every run loop, so the
     * ledger is current whenever control returns to the caller.
     */
    void
    flushProfile()
    {
        prof->addQueueTotals(nextSeq - profSeqFlushed,
                             executed - profExecFlushed, profCmps,
                             profMaxHeap);
        profSeqFlushed = nextSeq;
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

    /** quietHorizon() outside runUntil(): before every tick. */
    static constexpr Tick noHorizon = std::numeric_limits<Tick>::min();

    std::vector<Key> heap;
    std::vector<Callback> slots;           //!< pending callbacks by slot
    std::vector<std::uint32_t> freeSlots; //!< LIFO: last freed, first reused
    Tick current = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
    Tick runEnd = noHorizon; //!< the active runUntil() bound
    obs::EngineProfiler *prof = nullptr;
    // Per-event profiling state lives here, not on the profiler: the
    // queue's cache lines are dirty every event regardless, so these
    // cost the hot loop almost nothing; flushProfile() batches them
    // over.  profMask is cached so the 1-in-N tests stay local too.
    std::uint64_t profMask = 0;
    std::uint64_t profCmps = 0;        //!< sift comparisons since flush
    std::size_t profMaxHeap = 0;       //!< peak population since attach
    std::uint64_t profSeqFlushed = 0;  //!< nextSeq at last flush
    std::uint64_t profExecFlushed = 0; //!< executed at last flush
};

} // namespace hsipc::sim

#endif // HSIPC_SIM_EVENT_QUEUE_HH
