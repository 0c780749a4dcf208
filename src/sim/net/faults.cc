#include "sim/net/faults.hh"

namespace hsipc::sim
{

void
FaultInjector::observe(const obs::Sinks &sinks, const EventQueue &c)
{
    trace::Tracer *t = sinks.tracer;
    if (!t)
        return;
    tracer = t;
    clock = &c;
    traceTrack = t->track("medium");
    // Crash windows are scheduled, not random: record their edges up
    // front so the timeline shows the outage before any packet hits it.
    for (const CrashWindow &w : plan.crashes) {
        // Append-style (not "n" + ...): the operator+ chain trips a
        // GCC 12 -Wrestrict false positive when inlined.
        std::string node = "n";
        node += std::to_string(w.node);
        t->instant(traceTrack, node + " crash", usToTicks(w.startUs),
                   "crash");
        t->instant(traceTrack, node + " recover", usToTicks(w.endUs),
                   "crash");
    }
}

void
FaultInjector::note(const char *event)
{
    if (tracer)
        tracer->instant(traceTrack, event, clock->now(), "fault");
}

std::vector<FaultInjector::Copy>
FaultInjector::judge()
{
    ++counts.injected;
    std::vector<Copy> copies;
    if (plan.dropRate > 0 && rng.chance(plan.dropRate)) {
        ++counts.dropped;
        note("drop");
        return copies;
    }

    Copy original;
    if (plan.corruptRate > 0 && rng.chance(plan.corruptRate)) {
        original.corrupted = true;
        ++counts.corrupted;
        note("corrupt");
    }
    if (plan.reorderRate > 0 && rng.chance(plan.reorderRate)) {
        original.extraDelay = usToTicks(plan.reorderDelayUs);
        ++counts.reordered;
        note("reorder");
    }
    copies.push_back(original);

    if (plan.duplicateRate > 0 && rng.chance(plan.duplicateRate)) {
        // The duplicate trails the original; it is a faithful copy of
        // the bits on the wire, so it shares the original's corruption.
        Copy dup = original;
        dup.extraDelay += usToTicks(plan.duplicateLagUs);
        copies.push_back(dup);
        ++counts.duplicated;
        note("duplicate");
    }
    return copies;
}

bool
FaultInjector::nodeUp(int node, Tick now) const
{
    for (const CrashWindow &w : plan.crashes) {
        if (w.node == node && now >= usToTicks(w.startUs) &&
            now < usToTicks(w.endUs))
            return false;
    }
    return true;
}

} // namespace hsipc::sim
