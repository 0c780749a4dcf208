#include "common/obs/engine_prof.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/logging.hh"

namespace hsipc::obs
{

namespace
{

std::string
u64(std::uint64_t v)
{
    return jsonNumber(static_cast<double>(v));
}

/**
 * The document body; @p full adds the wall-clock sketches and the
 * pool-miss count — everything a rerun cannot reproduce bit-exactly.
 */
std::string
render(const EngineProfile &p, bool full)
{
    std::string doc = "{\n  \"engineProfile\": 1";
    doc += ",\n  \"enabled\": ";
    doc += p.enabled ? "true" : "false";
    doc += ",\n  \"sampleEvery\": " + u64(p.sampleEvery);
    doc += ",\n  \"sampledEvents\": " + u64(p.sampledEvents);
    doc += ",\n  \"queue\": {\"pushes\": " + u64(p.pushes) +
           ", \"pops\": " + u64(p.pops) +
           ", \"comparisons\": " + u64(p.comparisons) +
           ", \"maxHeapSize\": " + u64(p.maxHeapSize) +
           ", \"remainingAtEnd\": " + u64(p.remainingAtEnd) + "}";
    if (p.coStep.loops > 0) {
        const EngineProfile::CoStep &c = p.coStep;
        doc += ",\n  \"coStep\": {\"loops\": " + u64(c.loops) +
               ", \"steps\": " + u64(c.steps) +
               ", \"stops\": {\"nonAccess\": " + u64(c.stopNonAccess) +
               ", \"bound\": " + u64(c.stopBound) +
               ", \"drained\": " + u64(c.stopDrained) + "}}";
    }
    doc += ",\n  \"callbacks\": {\"spillConstructs\": " +
           u64(p.spillConstructs) + ", \"oversizeConstructs\": " +
           u64(p.oversizeConstructs);
    if (full)
        doc += ", \"freshPoolBlocks\": " + u64(p.freshPoolBlocks);
    doc += "}";
    doc += ",\n  \"dwellUs\": " + p.dwellUs.summaryJson();
    doc += ",\n  \"heapDepth\": " + p.heapDepth.summaryJson();
    doc += ",\n  \"tracks\": [";
    for (std::size_t i = 0; i < p.tracks.size(); ++i) {
        const EngineProfile::Track &t = p.tracks[i];
        doc += std::string(i ? "," : "") + "\n   {\"name\": " +
               jsonString(t.name) + ", \"events\": " + u64(t.events) +
               ", \"sampled\": " +
               u64(static_cast<std::uint64_t>(t.wallNs.count()));
        if (full)
            doc += ", \"wallNs\": " + t.wallNs.summaryJson();
        doc += "}";
    }
    doc += p.tracks.empty() ? "]" : "\n  ]";
    return doc + "\n}\n";
}

} // namespace

void
EngineProfile::CoStep::merge(const CoStep &other)
{
    loops += other.loops;
    steps += other.steps;
    stopNonAccess += other.stopNonAccess;
    stopBound += other.stopBound;
    stopDrained += other.stopDrained;
}

void
EngineProfile::merge(const EngineProfile &other)
{
    enabled = enabled || other.enabled;
    if (sampleEvery == 0)
        sampleEvery = other.sampleEvery;
    pushes += other.pushes;
    pops += other.pops;
    comparisons += other.comparisons;
    maxHeapSize = std::max(maxHeapSize, other.maxHeapSize);
    remainingAtEnd += other.remainingAtEnd;
    spillConstructs += other.spillConstructs;
    oversizeConstructs += other.oversizeConstructs;
    freshPoolBlocks += other.freshPoolBlocks;
    sampledEvents += other.sampledEvents;
    coStep.merge(other.coStep);
    dwellUs.merge(other.dwellUs);
    heapDepth.merge(other.heapDepth);
    for (const Track &ot : other.tracks) {
        Track *mine = nullptr;
        for (Track &t : tracks) {
            if (t.name == ot.name) {
                mine = &t;
                break;
            }
        }
        if (!mine) {
            Track fresh;
            fresh.name = ot.name;
            tracks.push_back(std::move(fresh));
            mine = &tracks.back();
        }
        mine->events += ot.events;
        mine->wallNs.merge(ot.wallNs);
    }
}

std::string
EngineProfile::deterministicJson() const
{
    return render(*this, false);
}

std::string
EngineProfile::toJson() const
{
    return render(*this, true);
}

void
EngineProfiler::observePush(Tick dwellTicks, std::size_t heapSize)
{
    prof_.dwellUs.observe(ticksToUs(dwellTicks));
    prof_.heapDepth.observe(static_cast<double>(heapSize));
}

void
EngineProfiler::endEvent()
{
    const auto dt = std::chrono::steady_clock::now() - t0_;
    prof_.tracks[static_cast<std::size_t>(eventOrigin_)]
        .wallNs.observe(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count()));
    ++prof_.sampledEvents;
}

void
EngineProfiler::finishRun(std::size_t remaining)
{
    prof_.remainingAtEnd = static_cast<std::uint64_t>(remaining);
    const CallbackPoolCounters now = callbackPoolCounters();
    prof_.spillConstructs =
        now.pooledConstructs - poolStart_.pooledConstructs;
    prof_.oversizeConstructs =
        now.oversizeConstructs - poolStart_.oversizeConstructs;
    prof_.freshPoolBlocks = now.freshBlocks - poolStart_.freshBlocks;
    claimOpen_ = false;

    // Events no component claimed belong to origin 0 ("sim").
    std::uint64_t claimedEvents = 0;
    for (std::size_t i = 1; i < prof_.tracks.size(); ++i)
        claimedEvents += prof_.tracks[i].events;
    hsipc_assert(claimedEvents <= prof_.pops);
    prof_.tracks[0].events = prof_.pops - claimedEvents;
}

} // namespace hsipc::obs
