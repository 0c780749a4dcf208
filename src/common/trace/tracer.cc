#include "common/trace/tracer.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace hsipc::trace
{

int
Tracer::track(const std::string &name)
{
    auto it = trackIds.find(name);
    if (it != trackIds.end())
        return it->second;
    const int id = static_cast<int>(tracks.size());
    tracks.push_back(name);
    trackIds.emplace(name, id);
    lastSpan.push_back(-1);
    return id;
}

void
Tracer::complete(int track, const std::string &name, Tick start,
                 Tick duration, const char *category, long id)
{
    if (!on)
        return;
    hsipc_assert(track >= 0 &&
                 track < static_cast<int>(tracks.size()));
    hsipc_assert(duration >= 0);
    const std::size_t t = static_cast<std::size_t>(track);
    const long last = lastSpan[t];
    if (last >= 0) {
        Event &prev = log[static_cast<std::size_t>(last)];
        // Never merge across message ids: two messages' work abutting
        // on one resource must stay two spans, or the per-message
        // timeline (and any flow arrow bound to it) is lost.
        if (prev.start + prev.duration == start && prev.name == name &&
            prev.id == id) {
            prev.duration += duration;
            return;
        }
    }
    Event ev;
    ev.phase = Phase::Complete;
    ev.track = track;
    ev.start = start;
    ev.duration = duration;
    ev.id = id;
    ev.name = name;
    ev.category = category;
    lastSpan[t] = static_cast<long>(log.size());
    log.push_back(std::move(ev));
}

void
Tracer::push(Phase phase, int track, const std::string &name, Tick ts,
             long id, const char *category)
{
    hsipc_assert(track >= 0 &&
                 track < static_cast<int>(tracks.size()));
    Event ev;
    ev.phase = phase;
    ev.track = track;
    ev.start = ts;
    ev.id = id;
    ev.name = name;
    ev.category = category;
    log.push_back(std::move(ev));
}

void
Tracer::instant(int track, const std::string &name, Tick ts,
                const char *category, long id)
{
    if (!on)
        return;
    push(Phase::Instant, track, name, ts, id, category);
}

void
Tracer::flowStep(int track, const std::string &name, Tick ts, long id)
{
    if (!on || (id != 0 && !msgSampler.sampled(id)))
        return;
    const bool fresh = openFlows.insert(id).second;
    push(fresh ? Phase::FlowStart : Phase::FlowStep, track, name, ts,
         id, "flow");
}

void
Tracer::flowEnd(int track, const std::string &name, Tick ts, long id)
{
    if (!on || (id != 0 && !msgSampler.sampled(id)))
        return;
    // A flow that never started has nothing to terminate.
    if (openFlows.erase(id) == 0)
        return;
    push(Phase::FlowEnd, track, name, ts, id, "flow");
}

void
Tracer::asyncBegin(int track, const std::string &name, Tick ts,
                   long id, const char *category)
{
    if (!on || (id != 0 && !msgSampler.sampled(id)))
        return;
    push(Phase::AsyncBegin, track, name, ts, id, category);
}

void
Tracer::asyncEnd(int track, const std::string &name, Tick ts, long id,
                 const char *category)
{
    if (!on || (id != 0 && !msgSampler.sampled(id)))
        return;
    push(Phase::AsyncEnd, track, name, ts, id, category);
}

void
Tracer::counter(int track, const std::string &name, Tick ts,
                double value)
{
    if (!on)
        return;
    hsipc_assert(track >= 0 &&
                 track < static_cast<int>(tracks.size()));
    Event ev;
    ev.phase = Phase::Counter;
    ev.track = track;
    ev.start = ts;
    ev.value = value;
    ev.name = name;
    ev.category = "counter";
    log.push_back(std::move(ev));
}

namespace
{

/** Chrome trace ts/dur are microseconds; ticks are nanoseconds. */
std::string
tsUs(Tick t)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(t) / static_cast<double>(tickUs));
    return buf;
}

} // namespace

std::string
Tracer::chromeJson() const
{
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out << ",";
        first = false;
        out << "\n";
    };

    // One simulated "thread" per track, named after its resource.
    for (std::size_t t = 0; t < tracks.size(); ++t) {
        sep();
        out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t
            << ",\"name\":\"thread_name\",\"args\":{\"name\":"
            << jsonString(tracks[t]) << "}}";
    }

    // The "args":{"msg":N} tag on spans and instants keys them to the
    // message they serve; flow ("s"/"t"/"f") and async ("b"/"e")
    // events carry the same number as their Chrome event id, which is
    // what scopes arrow chains and lifetime pairs.
    long ev_id = 0;
    auto msgArg = [&]() {
        out << ",\"args\":{\"msg\":" << ev_id << "}";
    };
    for (const Event &ev : log) {
        sep();
        ev_id = ev.id;
        switch (ev.phase) {
          case Phase::Complete:
            out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.track
                << ",\"ts\":" << tsUs(ev.start)
                << ",\"dur\":" << tsUs(ev.duration)
                << ",\"name\":" << jsonString(ev.name)
                << ",\"cat\":\"" << ev.category << "\"";
            if (ev.id != 0)
                msgArg();
            out << "}";
            break;
          case Phase::Instant:
            out << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << ev.track
                << ",\"ts\":" << tsUs(ev.start)
                << ",\"name\":" << jsonString(ev.name)
                << ",\"cat\":\"" << ev.category
                << "\",\"s\":\"t\"";
            if (ev.id != 0)
                msgArg();
            out << "}";
            break;
          case Phase::Counter:
            out << "{\"ph\":\"C\",\"pid\":1,\"tid\":" << ev.track
                << ",\"ts\":" << tsUs(ev.start)
                << ",\"name\":" << jsonString(ev.name)
                << ",\"args\":{\"value\":" << jsonNumber(ev.value)
                << "}}";
            break;
          case Phase::FlowStart:
          case Phase::FlowStep:
          case Phase::FlowEnd:
            out << "{\"ph\":\""
                << (ev.phase == Phase::FlowStart  ? 's'
                    : ev.phase == Phase::FlowStep ? 't'
                                                  : 'f')
                << "\",\"pid\":1,\"tid\":" << ev.track
                << ",\"ts\":" << tsUs(ev.start)
                << ",\"id\":" << ev.id
                << ",\"name\":" << jsonString(ev.name)
                << ",\"cat\":\"" << ev.category << "\"";
            // Bind the terminating step to its enclosing slice, not
            // the next one to begin.
            if (ev.phase == Phase::FlowEnd)
                out << ",\"bp\":\"e\"";
            out << "}";
            break;
          case Phase::AsyncBegin:
          case Phase::AsyncEnd:
            out << "{\"ph\":\""
                << (ev.phase == Phase::AsyncBegin ? 'b' : 'e')
                << "\",\"pid\":1,\"tid\":" << ev.track
                << ",\"ts\":" << tsUs(ev.start)
                << ",\"id\":" << ev.id
                << ",\"name\":" << jsonString(ev.name)
                << ",\"cat\":\"" << ev.category << "\"}";
            break;
        }
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out.str();
}

std::map<std::string, Tick>
Tracer::busyByTrack(Tick from, Tick to) const
{
    std::map<std::string, Tick> busy;
    for (const Event &ev : log) {
        if (ev.phase != Phase::Complete)
            continue;
        const Tick lo = std::max(ev.start, from);
        const Tick hi = std::min(ev.start + ev.duration, to);
        if (hi > lo)
            busy[tracks[static_cast<std::size_t>(ev.track)]] +=
                hi - lo;
    }
    return busy;
}

std::map<std::string, Tick>
Tracer::busyByName(Tick from, Tick to) const
{
    std::map<std::string, Tick> busy;
    for (const Event &ev : log) {
        if (ev.phase != Phase::Complete)
            continue;
        const Tick lo = std::max(ev.start, from);
        const Tick hi = std::min(ev.start + ev.duration, to);
        if (hi > lo)
            busy[ev.name] += hi - lo;
    }
    return busy;
}

} // namespace hsipc::trace
