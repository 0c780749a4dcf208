/**
 * @file
 * A serially-reusable resource (the shared-memory bus): one holder at
 * a time, granted by priority then FIFO, held for a fixed duration.
 */

#ifndef HSIPC_SIM_RESOURCE_HH
#define HSIPC_SIM_RESOURCE_HH

#include <algorithm>
#include <deque>
#include <string>

#include "common/trace/critical_path.hh"
#include "common/trace/tracer.hh"
#include "sim/des/event_queue.hh"

namespace hsipc::sim
{

/** A single-server resource with prioritized FIFO queueing. */
class Resource
{
  public:
    Resource(EventQueue &eq, std::string name)
        : eq(eq), name(std::move(name))
    {}

    /**
     * Record this resource's holds (and queue depth) as a track in
     * @p t.  Purely observational: tracing never alters grant order
     * or timing.
     */
    void
    attachTracer(trace::Tracer *t)
    {
        tracer = t;
        traceTrack = t ? t->track(name) : -1;
    }

    /**
     * Report per-message queue/service intervals into @p log: a
     * request carrying a msgId contributes its wait-for-grant time as
     * Queue and its hold as Service on this resource's name.
     * Observational only.
     */
    void attachCausalLog(trace::CausalLog *log) { causal = log; }

    /**
     * Attribute release events to this resource in @p p's wall-clock
     * cost model and record a provenance edge (whoever is granting →
     * this resource, delta = the hold) per grant.  Observational only.
     */
    void
    attachProfiler(obs::EngineProfiler *p)
    {
        prof = p;
        profOrigin = p ? p->origin(name) : 0;
    }

    /**
     * Acquire the resource for @p hold ticks; @p done runs at release
     * time.  Higher @p priority requests are granted first; equal
     * priorities are FIFO.  @p msgId (0 = none) attributes the wait
     * and the hold to a message's critical path.
     */
    void
    acquire(int priority, Tick hold, EventQueue::Callback done,
            long msgId = 0)
    {
        waiting.push_back(
            Request{priority, hold, msgId, eq.now(), std::move(done)});
        if (tracer && tracer->enabled())
            tracer->counter(traceTrack, "queued", eq.now(),
                            static_cast<double>(waiting.size()));
        if (!busy)
            grantNext();
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

    /** True while the tracer or the causal log records this resource. */
    bool
    recording() const
    {
        return (tracer && tracer->enabled()) ||
               (causal && causal->enabled());
    }

    /**
     * Book a hold of @p hold ticks granted at @p at, exactly as an
     * uncontended acquire() at @p at would, but with no release
     * event.  Only for a caller that has established that the hold
     * starts and ends before anything else can observe or acquire
     * the resource (see Processor's fast-forward).
     */
    void
    bookHold(Tick at, Tick hold)
    {
        busyTicks += hold;
        heldUntil = at + hold;
    }

    const std::string &resourceName() const { return name; }

  private:
    struct Request
    {
        int priority;
        Tick hold;
        long msgId;      //!< message whose path this access is on
        Tick enqueuedAt; //!< when the request joined the queue
        EventQueue::Callback done;
    };

    void
    grantNext()
    {
        if (waiting.empty())
            return;
        // Highest priority first; FIFO within a priority.
        std::size_t best = 0;
        for (std::size_t i = 1; i < waiting.size(); ++i) {
            if (waiting[i].priority > waiting[best].priority)
                best = i;
        }
        Request req = std::move(waiting[best]);
        waiting.erase(waiting.begin() + static_cast<long>(best));

        busy = true;
        bookHold(eq.now(), req.hold);
        if (tracer && tracer->enabled()) {
            tracer->complete(traceTrack, "access", eq.now(), req.hold,
                             "bus", req.msgId);
            tracer->counter(traceTrack, "queued", eq.now(),
                            static_cast<double>(waiting.size()));
        }
        if (causal && causal->enabled() && req.msgId != 0) {
            causal->interval(req.msgId, name, trace::Component::Queue,
                             req.enqueuedAt, eq.now());
            causal->interval(req.msgId, name,
                             trace::Component::Service, eq.now(),
                             eq.now() + req.hold);
        }
        if (prof)
            prof->edge(profOrigin, req.hold);
        // One grant is outstanding at a time, so its continuation
        // waits in a member and the release captures only `this`:
        // the event stays within the callback's inline storage.
        heldDone = std::move(req.done);
        eq.scheduleAfter(req.hold, [this]() {
            obs::EngineProfiler::Scope s(prof, profOrigin);
            busy = false;
            // Moved out first: the continuation may re-acquire.
            const EventQueue::Callback done = std::move(heldDone);
            done();
            if (!busy)
                grantNext();
        });
    }

    EventQueue &eq;
    std::string name;
    trace::Tracer *tracer = nullptr;
    trace::CausalLog *causal = nullptr;
    obs::EngineProfiler *prof = nullptr;
    int profOrigin = 0;
    int traceTrack = -1;
    std::deque<Request> waiting;
    EventQueue::Callback heldDone; //!< the current grant's continuation
    bool busy = false;
    Tick busyTicks = 0;
    Tick heldUntil = 0; //!< end of the latest granted hold
};

} // namespace hsipc::sim

#endif // HSIPC_SIM_RESOURCE_HH
