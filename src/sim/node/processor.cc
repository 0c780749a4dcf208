#include "sim/node/processor.hh"

#include "sim/check/test_hooks.hh"

namespace hsipc::sim
{

Processor::Processor(EventQueue &eq, std::string name)
    : eq(eq), name(std::move(name)),
      fastForwardSlack(check::testHooks().fastForwardSlackTicks)
{}

void
Processor::charge(Tick at, Tick t, bool accessWait)
{
    busyTicks += t;
    chargedUntil = at + t;
    hsipc_assert(running);
    if (!running->ticks)
        running->ticks = &perActivity[running->act.name];
    *running->ticks += t;
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
    if (probe.prof)
        probe.prof->edge(probe.origin, at - eq.now());
    if (running->memLeft + running->memLeft2 > 0) {
        eq.schedule(at, [this]() {
            const auto s = probe.scope();
            chunkEnd();
        });
    } else {
        eq.schedule(at, [this]() {
            const auto s = probe.scope();
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
    if (fastForward())
        return;
    Resource *bus = takeAccess();
    charge(eq.now(), tickUs, true); // the processor waits on its access
    bus->acquire(running->act.priority, tickUs,
                 [this]() {
                     const auto s = probe.scope();
                     segment();
                 },
                 running->act.msgId);
}

bool
Processor::fastForward()
{
    // The horizon test comes first: it is the cheapest, and on a busy
    // fleet, where another node's event is nearly always less than an
    // access away, it is the one that fails.
    const Tick horizon = eq.quietHorizon() + fastForwardSlack;
    Tick at = eq.now();
    if (at + tickUs > horizon)
        return false;
    // The tracer and the causal log record one span per access.
    if (probe.perAccess())
        return false;
    Running &r = *running;
    // A more urgent activity preempts at the next boundary.
    if (!queue.empty() && queue.front().act.priority > r.act.priority)
        return false;
    const auto usable = [](const Resource *bus) {
        return bus->quiet() && !bus->observer().perAccess();
    };
    if ((r.memLeft > 0 && !usable(r.act.bus)) ||
        (r.memLeft2 > 0 && !usable(r.act.bus2)))
        return false;

    // Nothing fires before the horizon, so nothing can acquire a bus,
    // submit work or read state until then: book each access and the
    // chunk after it exactly as the per-access path would, and
    // schedule only the event segment() schedules at the last
    // release.
    for (;;) {
        Resource *bus = takeAccess();
        charge(at, tickUs, true);
        bus->bookHold(at, tickUs);
        at = chargeChunk(at + tickUs);
        if (r.memLeft + r.memLeft2 == 0 || at + tickUs > horizon) {
            scheduleNext(at);
            return true;
        }
    }
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
