#include "des_ledger.hh"

#include <algorithm>
#include <cctype>

#include "common/obs/engine_prof.hh"

namespace perfbench
{

namespace
{

bool
allDigits(const std::string &s)
{
    return !s.empty() &&
           std::all_of(s.begin(), s.end(),
                       [](unsigned char c) { return std::isdigit(c); });
}

} // namespace

bool
layerOf(const std::string &track, Layer &layer)
{
    if (track == "sim") {
        layer = Layer::Net;
        return true;
    }
    if (track == "wire") {
        layer = Layer::Topo;
        return true;
    }
    const std::size_t dot = track.find('.');
    if (track.empty() || track[0] != 'n' || dot == std::string::npos ||
        !allDigits(track.substr(1, dot - 1)))
        return false;
    const std::string part = track.substr(dot + 1);
    if (part == "mp" ||
        (part.rfind("host", 0) == 0 && allDigits(part.substr(4)))) {
        layer = Layer::Proc;
        return true;
    }
    if (part == "busTcb" || part == "busKb") {
        layer = Layer::Bus;
        return true;
    }
    if (part == "nicIn" || part == "nicOut") {
        layer = Layer::Nic;
        return true;
    }
    return false;
}

void
DesLedger::add(const hsipc::sim::Outcome &out)
{
    const hsipc::obs::EngineProfile &p = out.engineProfile;
    if (!p.enabled)
        errors.push_back("traced run carries no engine profile");
    events += p.pops;
    spills += p.spillConstructs + p.oversizeConstructs;
    comparisons += p.comparisons;
    maxPending = std::max(maxPending, p.maxHeapSize);

    std::uint64_t claimed = 0;
    for (const hsipc::obs::EngineProfile::Track &t : p.tracks) {
        Layer l;
        if (!layerOf(t.name, l)) {
            errors.push_back("profile track '" + t.name +
                             "' maps to no layer");
            continue;
        }
        const auto i = static_cast<std::size_t>(l);
        layerEvents[i] += t.events;
        layerWallNs[i] += t.wallNs.sum();
        claimed += t.events;
    }
    if (claimed != p.pops) {
        errors.push_back("layer event counts sum to " +
                         std::to_string(claimed) + ", not the " +
                         std::to_string(p.pops) + " events executed");
    }

    roundTrips += out.roundTrips;
    for (const hsipc::sim::topo::LinkLedger &l : out.topo.links)
        linkMsgs += l.msgsIn;
    for (const hsipc::sim::topo::RouterLedger &r : out.topo.routers)
        routerQueuePeak = std::max(routerQueuePeak, r.queuePeak);
    retransmissions += out.netTotals.retransmissions;
    acks += out.netTotals.acksSent;
    timeouts += out.netTotals.timeoutsFired;
}

double
DesLedger::wallShare(Layer l) const
{
    double total = 0;
    for (double ns : layerWallNs)
        total += ns;
    return total > 0 ? layerWallNs[static_cast<std::size_t>(l)] / total
                     : 0;
}

} // namespace perfbench
