/**
 * @file
 * A simulated processor executing kernel activities.
 *
 * An activity is processing time interleaved with shared-memory
 * accesses: the processing is cut into (accesses + 1) equal CPU chunks
 * with one 1-microsecond bus access between consecutive chunks, which
 * reproduces the access pattern the thesis' low-level contention model
 * assumes (§6.6.2).  Higher-priority activities (network interrupts)
 * preempt the current one at chunk boundaries — "typically on single
 * machine instruction boundaries" (§6.6.1) — and the preempted
 * activity resumes where it left off.
 *
 * A chunk end with accesses left is a step event
 * (EventQueue::Step::ChunkEnd).  Under runUntil(), the access loop
 * (AccessLoop, in processor.cc) runs those and the bus releases
 * together, in exact (when, seq) order, up to the next non-access
 * event: no callback, heap push or indirect call per access, and the
 * same steps, in the same order, as event by event.  runOne(), and
 * runUntil() while the tracer or the causal log records, run each
 * step alone (docs/performance.md, "Co-stepping access loops").
 *
 * The running activity is held inline (std::optional), so starting
 * one allocates nothing.
 */

#ifndef HSIPC_SIM_PROCESSOR_HH
#define HSIPC_SIM_PROCESSOR_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/obs/probe.hh"
#include "sim/des/event_queue.hh"
#include "sim/des/resource.hh"

namespace hsipc::sim
{

/** Activity priorities. */
enum : int
{
    prioTask = 0,      //!< normal kernel/task processing
    prioInterrupt = 1, //!< network interrupt service
};

/** One schedulable kernel activity. */
struct Activity
{
    std::string name;
    Tick processing = 0;      //!< CPU time, ticks
    int memAccesses = 0;      //!< 1-us accesses on @c bus
    Resource *bus = nullptr;  //!< primary shared-memory partition
    int memAccesses2 = 0;     //!< accesses on @c bus2 (architecture IV)
    Resource *bus2 = nullptr;
    int priority = prioTask;
    //! Lifetime id of the message this activity serves (0 = none):
    //! tags trace spans, chains flow arrows, and attributes the
    //! activity's time to that message's critical path.
    long msgId = 0;
    EventQueue::Callback onDone;
};

/** A processor running activities with priority preemption. */
class Processor
{
  public:
    /** Build a processor; it installs the access loop on @p eq. */
    Processor(EventQueue &eq, std::string name);

    /** Queue an activity (FCFS within its priority). */
    void submit(Activity act);

    /**
     * Report to the run's sinks: one trace span per charged CPU chunk
     * or access wait, labelled with the activity name (the tracer
     * merges abutting same-name spans, so an uncontended activity is
     * one span); every CPU chunk of an activity with a msgId as a
     * Service interval on this processor's name (the access waits
     * stay off the causal log: the bus attributes that microsecond
     * itself); and its chunk-end and finish events in the engine
     * profile.  Observational only.
     */
    void observe(const obs::Sinks &s) { probe = obs::Probe(s, name); }

    const obs::Probe &observer() const { return probe; }

    double
    utilization() const
    {
        const Tick span = eq.now();
        return span > 0
            ? static_cast<double>(busyTime()) /
                  static_cast<double>(span)
            : 0.0;
    }

    /** Busy ticks accumulated per activity name (CPU + memory). */
    const std::map<std::string, Tick> &
    activityTicks() const
    {
        return perActivity;
    }

    const std::string &processorName() const { return name; }
    bool idle() const { return !running && queue.empty(); }

    /**
     * Total ticks this processor has been busy (CPU + memory) up to
     * the present.  Charges are booked when a chunk *starts*, so the
     * part of the current chunk that lies in the future is excluded —
     * otherwise a chunk in flight at a measurement boundary would be
     * double-attributed and utilization could exceed 1.
     */
    Tick
    busyTime() const
    {
        return busyTicks - std::max<Tick>(0, chargedUntil - eq.now());
    }

  private:
    /** Execution state of an in-progress activity. */
    struct Running
    {
        Activity act;
        Tick cpuLeft = 0;
        int memLeft = 0;  //!< remaining accesses on bus
        int memLeft2 = 0; //!< remaining accesses on bus2
        Tick chunk = 0;   //!< CPU per segment
        bool flowed = false; //!< flow step already emitted
        //! This activity's perActivity slot, taken on its first charge
        //! (not at submit: an activity that never starts books none).
        Tick *ticks = nullptr;
    };

    friend class AccessLoop;
    friend void resumeAfterAccess(Processor &master);

    void maybeStart();
    void segment();
    Tick chargeChunk(Tick at);
    void scheduleNext(Tick at);
    void chunkEnd();
    Resource *takeAccess();
    void finish();

    EventQueue &eq;
    std::string name;
    obs::Probe probe;
    const std::uint32_t stepId; //!< this processor as a step-event target
    void charge(Tick at, Tick t, bool accessWait = false);
    /** The running activity's perActivity slot (its first charge). */
    __attribute__((noinline, cold)) Tick &activitySlot();
    /** charge()'s trace span and causal interval, when recording. */
    __attribute__((noinline, cold)) void recordCharge(Tick at, Tick t,
                                                      bool accessWait);

    std::deque<Running> queue;
    std::optional<Running> running;
    Tick busyTicks = 0;
    Tick chargedUntil = 0; //!< end of the latest booked charge
    std::map<std::string, Tick> perActivity;
};

} // namespace hsipc::sim

#endif // HSIPC_SIM_PROCESSOR_HH
