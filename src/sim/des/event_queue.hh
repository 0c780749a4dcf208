/**
 * @file
 * Discrete-event simulation core: a time-ordered event queue with
 * stable FIFO ordering among simultaneous events.
 *
 * Each pending-event set is an indirect binary min-heap.  A heap
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
 * The heaps are explicit rather than std::priority_queues so that
 * runUntil() inspects the two roots once per executed event: the
 * bounds check reads the earlier root in place and the same read
 * feeds the pop.  O(log n) per operation; the simulator keeps a few
 * dozen pending events (docs/performance.md, "Why one heap per event
 * kind").
 *
 * Backing storage is reserved up front so the steady state never
 * reallocates.  Callbacks are EventCallback (see callable.hh): 48
 * bytes of inline capture storage and a pooled spill path, so
 * scheduling stops allocating per event.
 *
 * Step events carry no callback at all.  A processor's chunk end
 * with accesses left and a bus release are keys that name their kind
 * and their target (scheduleStep()); the access loop in
 * node/processor.cc runs them.  They wait in a second heap of their
 * own, split from the callback heap by event kind alone: the next
 * event is the earlier of the two roots by (when, seq), and seq is
 * drawn in one sequence for both, so the two sets run in exactly the
 * order one heap would.  When runUntil() pops a step event, the loop
 * runs it and every later step event, on any bus of any node, in
 * exact (when, seq) order, up to the first pending callback event or
 * the bound; the keys it schedules meanwhile join the step heap, and
 * at the stop they stay there for the next loop.  runOne() runs a
 * step event alone, and so does runUntil() while a sink that records
 * per access is observed (observe()): the queue alone decides whether
 * steps co-step (docs/performance.md, "Co-stepping access loops").
 */

#ifndef HSIPC_SIM_EVENT_QUEUE_HH
#define HSIPC_SIM_EVENT_QUEUE_HH

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
        stepHeap.reserve(reservedCapacity);
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
     * drawn now, as for any event, and the key joins the step heap;
     * the first one a step schedules inside an access loop waits
     * beside it as the loop's likely next step.
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
        if (prof)
            notePush(k);
        if (looping && !haveNext) [[likely]] {
            loopNext = k; // most steps schedule one: often the next
            haveNext = true;
        } else {
            insertStep(k);
        }
    }

    /** Is an access loop running (see node/processor.cc)? */
    bool coStepping() const { return looping; }

    bool empty() const { return heap.empty() && stepHeap.empty(); }

    std::size_t size() const { return heap.size() + stepHeap.size(); }

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
        std::vector<Key> *set = earliestSet();
        if (!set)
            return false;
        if (prof) {
            execOne<true>(*set, noLoop);
            flushProfile();
        } else {
            execOne<false>(*set, noLoop);
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
        const Key k{when, nextSeq++ << seqShift | slot};
        if constexpr (Prof)
            notePush(k);
        insertT<Prof>(heap, k);
    }

    /** Events pending in either set, the access loop's next included. */
    std::size_t
    pending() const
    {
        return heap.size() + stepHeap.size() + (haveNext ? 1 : 0);
    }

    /**
     * The profiled push ledger, once per key scheduled into either
     * set: it counts the push and tracks peak population and the
     * 1-in-N dwell/depth subsample.
     */
    void
    notePush(Key k)
    {
        ++profPushes;
        const std::size_t depth = pending() + 1;
        if (depth > profMaxHeap)
            profMaxHeap = depth;
        // An event pushed for `when` sits in the queue exactly
        // `when - now` simulated ticks — dwell is known at push time,
        // so events carry no extra timestamp.
        if ((k.seq() & profMask) == 0) [[unlikely]]
            prof->observePush(k.when - current, depth);
    }

    /** Add @p k to the step heap (its push is already counted). */
    void
    insertStep(Key k)
    {
        if (prof)
            insertT<true>(stepHeap, k);
        else
            insertT<false>(stepHeap, k);
    }

    /** Remove the step heap's root. */
    Key
    popStep()
    {
        return prof ? popTopT<true>(stepHeap) : popTopT<false>(stepHeap);
    }

    /** Remove the step heap's root and put @p k in its place. */
    Key
    replaceStep(Key k)
    {
        return prof ? replaceTopT<true>(stepHeap, k)
                    : replaceTopT<false>(stepHeap, k);
    }

    /**
     * The set whose root is the earliest pending event, by
     * (when, seq); null when both are empty.
     */
    std::vector<Key> *
    earliestSet()
    {
        if (stepHeap.empty())
            return heap.empty() ? nullptr : &heap;
        if (heap.empty() || before(stepHeap.front(), heap.front()))
            return &stepHeap;
        return &heap;
    }

    /**
     * Pop and execute the root of @p set, the earliest event.  A
     * callback leaves its slot, and the slot returns to the free
     * list, before it runs: it may schedule events, and so grow the
     * arena, while running.  A step event goes to the access loop,
     * bounded by @p loopEnd.
     * The Prof=true instantiation counts the pop, and for the
     * deterministic 1-in-N subsample (keyed on seq, as at push)
     * brackets the event body with a steady_clock pair.
     */
    template <bool Prof>
    void
    execOne(std::vector<Key> &set, Tick loopEnd)
    {
        const Key top = popTopT<Prof>(set);
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
        for (std::vector<Key> *set;
             (set = earliestSet()) && set->front().when <= end;)
            execOne<Prof>(*set, loopEnd);
        if (current < end)
            current = end;
        if constexpr (Prof)
            flushProfile();
    }

    /**
     * Hand the profiler the queue counters it deliberately does not
     * keep itself: pushes counted as each key is scheduled, and pops
     * as the executed delta since the last flush (a step an access
     * loop runs after its first is not a pop; the loop reports those
     * itself); comparisons and peak population, over both sets,
     * accumulate in queue members whose cache lines every event
     * dirties anyway.  Runs after every run loop, so the ledger is
     * current whenever control returns to the caller.
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

    /** Add @p k to min-heap @p h. */
    template <bool Prof>
    void
    insertT(std::vector<Key> &h, Key k)
    {
        h.push_back(k);
        siftUpT<Prof>(h, h.size() - 1);
    }

    /** Remove and return the root key of @p h, restoring its order. */
    template <bool Prof>
    Key
    popTopT(std::vector<Key> &h)
    {
        const Key top = h.front();
        h.front() = h.back();
        h.pop_back();
        if (h.size() > 1)
            siftDownT<Prof>(h, 0);
        return top;
    }

    /** Remove and return the root key of @p h, putting @p k there. */
    template <bool Prof>
    Key
    replaceTopT(std::vector<Key> &h, Key k)
    {
        const Key top = h.front();
        h.front() = k;
        siftDownT<Prof>(h, 0);
        return top;
    }

    /**
     * Bubble the key at @p i of @p h up, hole-style (one move per
     * level).  The Prof=true instantiation counts heap-order
     * comparisons into the profiler; Prof=false compiles to the bare
     * sift.
     */
    template <bool Prof>
    void
    siftUpT(std::vector<Key> &h, std::size_t i)
    {
        std::uint64_t cmps = 0;
        const Key e = h[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if constexpr (Prof)
                ++cmps;
            if (!before(e, h[parent]))
                break;
            h[i] = h[parent];
            i = parent;
        }
        h[i] = e;
        if constexpr (Prof)
            profCmps += cmps;
    }

    /** Push the key at @p i of @p h down, hole-style. */
    template <bool Prof>
    void
    siftDownT(std::vector<Key> &h, std::size_t i)
    {
        std::uint64_t cmps = 0;
        const Key e = h[i];
        const std::size_t n = h.size();
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n) {
                if constexpr (Prof)
                    ++cmps;
                if (before(h[child + 1], h[child]))
                    ++child;
            }
            if constexpr (Prof)
                ++cmps;
            if (!before(h[child], e))
                break;
            h[i] = h[child];
            i = child;
        }
        h[i] = e;
        if constexpr (Prof)
            profCmps += cmps;
    }

    /**
     * The pre-sized backing stores (both heaps, slots, free list): the
     * kernel simulator keeps a few dozen to a few hundred events in
     * flight, so this headroom removes every steady-state
     * reallocation.
     */
    static constexpr std::size_t reservedCapacity = 1024;

    /** A step's loop bound before every tick: it runs alone. */
    static constexpr Tick noLoop = std::numeric_limits<Tick>::min();

    std::vector<Key> heap;                //!< callback events
    std::vector<Key> stepHeap;            //!< step events
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
    bool haveNext = false;     //!< the running step scheduled loopNext
    Key loopNext{};            //!< the first step it scheduled
    obs::EngineProfiler *prof = nullptr;
    // Per-event profiling state lives here, not on the profiler: the
    // queue's cache lines are dirty every event regardless, so these
    // cost the hot loop almost nothing; flushProfile() batches them
    // over.  profMask is cached so the 1-in-N tests stay local too.
    std::uint64_t profMask = 0;
    std::uint64_t profPushes = 0;      //!< keys scheduled since flush
    std::uint64_t profCmps = 0;        //!< sift comparisons since flush
    std::size_t profMaxHeap = 0;       //!< peak population since attach
    std::uint64_t profExecFlushed = 0; //!< executed at last flush
};

} // namespace hsipc::sim

#endif // HSIPC_SIM_EVENT_QUEUE_HH
