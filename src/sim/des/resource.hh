/**
 * @file
 * A serially-reusable resource (the shared-memory bus): one holder at
 * a time, granted by priority then FIFO, each holding it for one 1-us
 * access.
 *
 * Most acquires find the bus free and nobody waiting.  Those are
 * granted directly: the request never enters the queue.  Queued
 * requests reach the same grant() when the bus frees, so both paths
 * book, trace and release alike (docs/performance.md, "Building
 * callbacks in place and granting an idle bus directly").
 *
 * Every holder is a processor, and an access carries no callback: the
 * request names the processor, and the release resumes it directly.
 * The release is a step event (EventQueue::Step::Release), so under
 * runUntil() the access loop in node/processor.cc runs it with the
 * holder's next chunk end and every other access event up to the next
 * non-access event, unless the queue runs each step alone.  The loop
 * runs release() itself (with nobody waiting, its two stores and the
 * holder's resumption in place), so the holder, the wait queue and the
 * grant rule (priority, then queue order) are those of the step-by-step
 * run at every step, and at its stop (docs/performance.md,
 * "Co-stepping access loops").
 */

#ifndef HSIPC_SIM_RESOURCE_HH
#define HSIPC_SIM_RESOURCE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/obs/probe.hh"
#include "sim/check/test_hooks.hh"
#include "sim/des/event_queue.hh"

namespace hsipc::sim
{

class Processor;

/** Resume @p master's activity after its access (node/processor.cc). */
void resumeAfterAccess(Processor &master);

/** A single-server resource with prioritized FIFO queueing. */
class Resource
{
  public:
    Resource(EventQueue &eq, std::string name)
        : eq(eq), name(std::move(name)), stepId(eq.addStepTarget(this)),
          fifoInLoops(check::testHooks().coStepFifoGrant)
    {}

    /**
     * Report to the run's sinks: holds and queue depth on a trace
     * track; a request carrying a msgId as Queue (wait for the grant)
     * and Service (the hold) intervals on this resource's name; and
     * release events in the engine profile.  Observational only: grant
     * order and timing never change.
     */
    void observe(const obs::Sinks &s) { probe = obs::Probe(s, name); }

    /** Every grant's hold: one access. */
    static constexpr Tick holdTicks = tickUs;

    /**
     * Acquire the resource for one access of @p master; the release
     * resumes it (resumeAfterAccess()).  Higher @p priority requests
     * are granted first; equal priorities are FIFO.  @p msgId (0 =
     * none) attributes the wait and the hold to a message's critical
     * path.
     *
     * A free resource with nobody waiting is granted at once, with no
     * trip through the queue, and the grant is the one a queued
     * request gets (the same "queued" samples, intervals and release).
     */
    void
    acquire(int priority, Processor &master, long msgId)
    {
        if (!busy && waiting.empty()) {
            noteIdleRequest();
            heldBy = &master;
            grant(msgId, eq.now());
            return;
        }
        waiting.push_back(Request{priority, msgId, eq.now(), &master});
        noteQueued();
    }

    /** Fraction of time the resource has been held. */
    double
    utilization() const
    {
        const Tick span = eq.now();
        return span > 0
            ? static_cast<double>(busyTime()) /
                  static_cast<double>(span)
            : 0.0;
    }

    /**
     * Total ticks the resource has been held up to the present.  A
     * hold is booked in full when granted, so the portion of the
     * current hold that lies in the future is excluded (see
     * Processor::busyTime()).
     */
    Tick
    busyTime() const
    {
        return busyTicks - std::max<Tick>(0, heldUntil - eq.now());
    }

    std::size_t queueLength() const { return waiting.size(); }

    /** Free, with nobody waiting: an acquire() now is granted at once. */
    bool quiet() const { return !busy && waiting.empty(); }

    const std::string &resourceName() const { return name; }

  private:
    friend class AccessLoop;

    struct Request
    {
        int priority;
        long msgId;        //!< message whose path this access is on
        Tick enqueuedAt;   //!< when the request joined the queue
        Processor *master; //!< the accessing processor
    };
    static_assert(std::is_trivially_copyable_v<Request>);

    /** The "queued" sample of an idle grant: the request alone. */
    void
    noteIdleRequest()
    {
        if (probe.tracer)
            probe.tracer->counter(probe.track, "queued", eq.now(), 1.0);
    }

    /** After a request joined the queue: report, and grant if free. */
    void
    noteQueued()
    {
        if (probe.tracer)
            probe.tracer->counter(probe.track, "queued", eq.now(),
                                  static_cast<double>(waiting.size()));
        if (!busy)
            grantNext();
    }

    /**
     * Grant the best waiting request (priority, then FIFO).  The
     * test-only fifoInLoops plant takes the oldest instead while an
     * access loop runs.
     */
    void
    grantNext()
    {
        if (waiting.empty())
            return;
        std::size_t best = 0;
        if (!(fifoInLoops && eq.coStepping())) [[likely]] {
            for (std::size_t i = 1; i < waiting.size(); ++i) {
                if (waiting[i].priority > waiting[best].priority)
                    best = i;
            }
        }
        const Request req = waiting[best];
        waiting.erase(waiting.begin() + static_cast<long>(best));
        heldBy = req.master;
        grant(req.msgId, req.enqueuedAt);
    }

    /**
     * Hand the resource to the processor already in heldBy: book the
     * hold, report it, and schedule the release.  One grant is
     * outstanding at a time, so the release names only this bus.
     */
    void
    grant(long msgId, Tick enqueuedAt)
    {
        busy = true;
        bookHold(eq.now());
        if (probe.perAccess()) [[unlikely]]
            recordGrant(msgId, enqueuedAt);
        eq.scheduleStep(eq.now() + holdTicks, EventQueue::Step::Release,
                        stepId);
    }

    /** grant()'s trace span and causal intervals. */
    __attribute__((noinline, cold)) void
    recordGrant(long msgId, Tick enqueuedAt)
    {
        if (probe.tracer) {
            probe.tracer->complete(probe.track, "access", eq.now(),
                                   holdTicks, "bus", msgId);
            probe.tracer->counter(probe.track, "queued", eq.now(),
                                  static_cast<double>(waiting.size()));
        }
        if (probe.causal && msgId != 0) {
            probe.causal->interval(msgId, name, trace::Component::Queue,
                                   enqueuedAt, eq.now());
            probe.causal->interval(msgId, name,
                                   trace::Component::Service, eq.now(),
                                   eq.now() + holdTicks);
        }
    }

    /** Book a hold granted at @p at. */
    void
    bookHold(Tick at)
    {
        busyTicks += holdTicks;
        heldUntil = at + holdTicks;
    }

    /**
     * The release: resume the holder, then grant the next.  The holder
     * schedules its next chunk end and acquires nothing in place, so
     * the bus is still free here.
     */
    void
    release()
    {
        busy = false;
        Processor &m = *heldBy;
        heldBy = nullptr;
        resumeAfterAccess(m);
        grantNext();
    }

    EventQueue &eq;
    std::string name;
    obs::Probe probe;
    const std::uint32_t stepId; //!< this bus as a step-event target
    //! Test-only: grant FIFO inside access loops (check::TestHooks).
    const bool fifoInLoops;
    //! A handful at most (one per master): a vector never allocates
    //! once it has grown, where a deque allocates a block every few
    //! requests.
    std::vector<Request> waiting;
    Processor *heldBy = nullptr; //!< the holding processor, if any
    bool busy = false;
    Tick busyTicks = 0;
    Tick heldUntil = 0; //!< end of the latest granted hold
};

} // namespace hsipc::sim

#endif // HSIPC_SIM_RESOURCE_HH
