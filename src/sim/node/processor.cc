#include "sim/node/processor.hh"

#include <algorithm>
#include <limits>

#include "sim/check/test_hooks.hh"

namespace hsipc::sim
{

/**
 * The access loop: runs a popped step event and every later step
 * event, on any bus of any node, in exact (when, seq) order, up to
 * the first pending non-step event or the runUntil() bound
 * (docs/performance.md, "Co-stepping access loops").
 *
 * A step is exactly what the event does when it runs alone: the
 * chunk end's takeAccess(), charge() and acquire(), or the release's
 * resumption of the holder (segment(), with its preemption test) and
 * grant of the next request.  Every step event waits in the queue's
 * step heap, whoever scheduled it, with the seq it drew; the loop
 * runs the earliest of them while it comes before the callback
 * heap's root.  A finish, or any other event, goes onto the callback
 * heap, so it bounds the rest of the loop.  At the stop the loop's
 * keys stay where they are, for the next loop to start from.
 */
class AccessLoop
{
  public:
    /** Install run() as @p eq's access loop. */
    static void attach(EventQueue &eq) { eq.accessLoop = &run; }

  private:
    using Key = EventQueue::Key;
    using Step = EventQueue::Step;

    static const obs::Probe &
    probeOf(const EventQueue &q, Key k)
    {
        void *who = q.stepTargets[k.id()];
        if (k.step() == Step::ChunkEnd)
            return static_cast<Processor *>(who)->probe;
        return static_cast<Resource *>(who)->probe;
    }

    /** Run step event @p k alone. */
    static void
    step(EventQueue &q, Key k)
    {
        void *who = q.stepTargets[k.id()];
        if (k.step() == Step::ChunkEnd)
            static_cast<Processor *>(who)->chunkEnd();
        else
            static_cast<Resource *>(who)->release();
    }

    static Key otherThan(const EventQueue &q, Tick end, Tick slack);
    static bool comesFirst(const EventQueue &q, Tick when, Step kind,
                           std::uint32_t id, const Key &other);
    static bool resumeQuietly(EventQueue &q, Processor &p,
                              const Key &other);
    static void accessQuietly(EventQueue &q, Processor &p,
                              const Key &other);

    static void run(EventQueue &q, Key first, Tick end);
};

/*
 * In a loop, the steps of a processor whose bus is free run in place:
 * a chunk end whose release, then the chunk end after it, each come
 * before every other pending event and by the bound, and a release
 * with nobody waiting.  That is what their steps would do — the
 * grant's bookHold(), the release, segment()'s preemption test and
 * chargeChunk() — with each seq drawn where their schedule would draw
 * it, minus the dispatch.  The first access that finds the bus taken,
 * or a key that does not come first, falls back to the step's own
 * code at that point.  A profiled loop runs the same way: the
 * profiler counts the keys, not the accesses in place.
 */

/**
 * The earliest pending event that is not one of the running steps':
 * the step heap's root, the callback heap's root (moved by the slack
 * plant), or just past the bound.  A step in place schedules nothing
 * else, so it holds while one runs.
 */
AccessLoop::Key
AccessLoop::otherThan(const EventQueue &q, Tick end, Tick slack)
{
    Key other{end == std::numeric_limits<Tick>::max() ? end : end + 1, 0};
    if (!q.stepHeap.empty() && EventQueue::before(q.stepHeap.front(), other))
        other = q.stepHeap.front();
    if (!q.heap.empty()) {
        Key r = q.heap.front();
        r.when += slack;
        if (EventQueue::before(r, other))
            other = r;
    }
    return other;
}

/** Would step @p kind of @p id at @p when, with the next seq, run next? */
bool
AccessLoop::comesFirst(const EventQueue &q, Tick when, Step kind,
                       std::uint32_t id, const Key &other)
{
    const Key k{when, q.nextSeq << EventQueue::seqShift |
                          static_cast<std::uint64_t>(kind)
                              << EventQueue::stepShift |
                          id};
    return EventQueue::before(k, other);
}

/**
 * Resume @p p after its release at now, as segment() would.  True
 * when its next chunk end comes first: its seq is drawn and the clock
 * is there, for accessQuietly().
 */
bool
AccessLoop::resumeQuietly(EventQueue &q, Processor &p, const Key &other)
{
    Processor::Running &r = *p.running;
    if (!p.queue.empty() && p.queue.front().act.priority > r.act.priority) {
        p.segment(); // preempted at this boundary
        return false;
    }
    const Tick at = p.chargeChunk(q.current);
    if (r.memLeft + r.memLeft2 == 0 ||
        !comesFirst(q, at, Step::ChunkEnd, p.stepId, other)) {
        p.scheduleNext(at);
        return false;
    }
    ++q.nextSeq;
    q.current = at;
    return true;
}

/** Chunk end of @p p at now, and its quiet accesses after it. */
void
AccessLoop::accessQuietly(EventQueue &q, Processor &p, const Key &other)
{
    Processor::Running &r = *p.running;
    do {
        Resource *bus = p.takeAccess();
        p.charge(q.current, Resource::holdTicks, true);
        if (!bus->quiet() ||
            !comesFirst(q, q.current + Resource::holdTicks, Step::Release,
                        bus->stepId, other)) {
            bus->acquire(r.act.priority, p, r.act.msgId);
            return;
        }
        // The release comes next: the grant's seq, its hold, and the
        // release itself, which leaves the bus free again.
        ++q.nextSeq;
        bus->bookHold(q.current);
        q.current += Resource::holdTicks;
    } while (resumeQuietly(q, p, other));
}

void
AccessLoop::run(EventQueue &q, Key first, Tick end)
{
    // The popped event is its component's, alone or in a loop.
    const obs::Probe &firstProbe = probeOf(q, first);
    firstProbe.claim();
    if (end < first.when) { // runOne(), or a per-access sink: alone
        step(q, first);
        return;
    }
    // Steps in place record no grant: a component that records per
    // access, on a queue not told so (EventQueue::observe()), would
    // lose its records here.  One check per loop, not per step.
    hsipc_assert(!firstProbe.perAccess());
    // The slack plant moves the callback root, and the bound, that
    // much later: the loop runs steps past the next pending event.
    const Tick slack = check::testHooks().coStepSlackTicks;
    if (slack > 0 && end <= std::numeric_limits<Tick>::max() - slack)
        end += slack;
    const std::vector<Key> &keys = q.stepHeap;
    obs::EngineProfile::CoStep c;
    c.loops = 1;
    q.looping = true;
    for (Key k = first;;) {
        q.current = k.when;
        void *who = q.stepTargets[k.id()];
        if (k.step() == Step::ChunkEnd) {
            accessQuietly(q, *static_cast<Processor *>(who),
                          otherThan(q, end, slack));
        } else if (Resource &b = *static_cast<Resource *>(who);
                   b.waiting.empty()) {
            // The release: with nobody waiting, grantNext() after the
            // holder's segment() has nothing to do.
            Processor &p = *b.heldBy;
            b.busy = false;
            b.heldBy = nullptr;
            const Key other = otherThan(q, end, slack);
            if (resumeQuietly(q, p, other))
                accessQuietly(q, p, other);
        } else {
            step(q, k);
        }
        ++c.steps;
        // The earliest step: the first one this step scheduled when it
        // comes before the rest, as it often does (a chunk end's
        // release, a release's next chunk end), with no trip through
        // the step heap.
        const bool nextFirst =
            q.haveNext &&
            (keys.empty() || EventQueue::before(q.loopNext, keys.front()));
        const Key *mine = nextFirst       ? &q.loopNext
                          : !keys.empty() ? &keys.front()
                                          : nullptr;
        // A callback event that comes first stops the loop.
        if (!q.heap.empty()) {
            Key r = q.heap.front();
            r.when += slack;
            if (!mine || EventQueue::before(r, *mine)) {
                if (r.when > end)
                    ++c.stopBound;
                else
                    ++c.stopNonAccess;
                break;
            }
        }
        if (!mine) {
            ++c.stopDrained;
            break;
        }
        if (mine->when > end) {
            ++c.stopBound;
            break;
        }
        if (nextFirst)
            k = q.loopNext;
        else if (q.haveNext)
            k = q.replaceStep(q.loopNext);
        else
            k = q.popStep();
        q.haveNext = false;
    }
    q.looping = false;
    if (q.haveNext) {
        q.insertStep(q.loopNext);
        q.haveNext = false;
    }
    if (q.prof)
        q.prof->noteCoStep(c);
}

void
resumeAfterAccess(Processor &master)
{
    master.segment();
}

Processor::Processor(EventQueue &eq, std::string name)
    : eq(eq), name(std::move(name)), stepId(eq.addStepTarget(this))
{
    AccessLoop::attach(eq);
}

void
Processor::charge(Tick at, Tick t, bool accessWait)
{
    busyTicks += t;
    chargedUntil = at + t;
    hsipc_assert(running);
    if (!running->ticks) [[unlikely]]
        running->ticks = &activitySlot();
    *running->ticks += t;
    if (probe.perAccess()) [[unlikely]]
        recordCharge(at, t, accessWait);
}

Tick &
Processor::activitySlot()
{
    return perActivity[running->act.name];
}

void
Processor::recordCharge(Tick at, Tick t, bool accessWait)
{
    const long msg = running->act.msgId;
    if (probe.tracer && t > 0) {
        // The first charge of a message-serving activity is where its
        // flow arrow lands: inside the span recorded just below.
        if (msg != 0 && !running->flowed) {
            running->flowed = true;
            probe.tracer->flowStep(probe.track, "msg", at, msg);
        }
        probe.tracer->complete(probe.track, running->act.name, at, t,
                               "activity", msg);
    }
    // Access-wait charges stay off the causal log: the bus records
    // that microsecond as the message's service itself.
    if (probe.causal && msg != 0 && !accessWait)
        probe.causal->interval(msg, name, trace::Component::Service,
                               at, at + t);
}

void
Processor::submit(Activity act)
{
    Running r;
    r.cpuLeft = act.processing;
    r.memLeft = act.bus ? act.memAccesses : 0;
    r.memLeft2 = act.bus2 ? act.memAccesses2 : 0;
    // Accesses without a bus still cost their cycle time, serially on
    // this processor.
    if (!act.bus)
        r.cpuLeft += static_cast<Tick>(act.memAccesses) * tickUs;
    if (!act.bus2)
        r.cpuLeft += static_cast<Tick>(act.memAccesses2) * tickUs;
    const int segments = r.memLeft + r.memLeft2 + 1;
    r.chunk = r.cpuLeft / segments;
    r.act = std::move(act);

    // Preempt at the next chunk boundary if this is more urgent; the
    // queue is kept in priority order, FCFS within each priority.
    const int prio = r.act.priority;
    queue.insert(std::partition_point(queue.begin(), queue.end(),
                                      [prio](const Running &q) {
                                          return q.act.priority >= prio;
                                      }),
                 std::move(r));
    maybeStart();
}

void
Processor::maybeStart()
{
    if (running || queue.empty())
        return;
    running.emplace(std::move(queue.front()));
    queue.pop_front();
    segment();
}

void
Processor::segment()
{
    hsipc_assert(running);

    // Check for preemption by a higher-priority pending activity.
    if (!queue.empty() &&
        queue.front().act.priority > running->act.priority) {
        Running paused = std::move(*running);
        running.reset();
        // Re-insert after the urgent work but ahead of its own class.
        const int prio = paused.act.priority;
        queue.insert(std::partition_point(queue.begin(), queue.end(),
                                          [prio](const Running &q) {
                                              return q.act.priority >
                                                     prio;
                                          }),
                     std::move(paused));
        maybeStart();
        return;
    }

    scheduleNext(chargeChunk(eq.now()));
}

Tick
Processor::chargeChunk(Tick at)
{
    // Interleave: while accesses remain, run one CPU chunk then one
    // memory access; the final chunk (the tail) absorbs the rounding
    // remainder.
    Running &r = *running;
    const Tick chunk = r.memLeft + r.memLeft2 > 0
        ? std::min(r.chunk, r.cpuLeft)
        : r.cpuLeft;
    r.cpuLeft -= chunk;
    charge(at, chunk);
    return at + chunk;
}

void
Processor::scheduleNext(Tick at)
{
    if (running->memLeft + running->memLeft2 > 0) {
        eq.scheduleStep(at, EventQueue::Step::ChunkEnd, stepId);
    } else {
        eq.schedule(at, [this]() {
            probe.claim();
            finish();
        });
    }
}

Resource *
Processor::takeAccess()
{
    // Alternate between the two partitions when both remain.
    if (running->memLeft > 0 && running->memLeft >= running->memLeft2) {
        --running->memLeft;
        return running->act.bus;
    }
    --running->memLeft2;
    return running->act.bus2;
}

void
Processor::chunkEnd()
{
    Resource *bus = takeAccess();
    charge(eq.now(), Resource::holdTicks, true); // waits on its access
    bus->acquire(running->act.priority, *this, running->act.msgId);
}

void
Processor::finish()
{
    hsipc_assert(running);
    const EventQueue::Callback done = std::move(running->act.onDone);
    running.reset();
    maybeStart();
    if (done)
        done();
}

} // namespace hsipc::sim
