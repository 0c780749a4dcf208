#include "sim/analysis/bottleneck.hh"

#include <vector>

#include "common/logging.hh"
#include "core/gtpn/analyzer.hh"
#include "core/models/local_model.hh"
#include "core/models/solution.hh"

namespace hsipc::sim::analysis
{

const char *
resourceClassName(ResourceClass c)
{
    switch (c) {
      case ResourceClass::Host:
        return "host";
      case ResourceClass::Mp:
        return "mp";
      case ResourceClass::Bus:
        return "bus";
      case ResourceClass::Dma:
        return "dma";
      case ResourceClass::Network:
        return "network";
      case ResourceClass::Other:
        return "other";
    }
    return "?";
}

ResourceClass
classifyResource(const std::string &name)
{
    // Track names are "<node>.<resource>" ("n0.host1", "n1.busKb",
    // "n0.nicIn") except the node-less medium, "net".
    if (name.find(".host") != std::string::npos)
        return ResourceClass::Host;
    if (name.find(".mp") != std::string::npos)
        return ResourceClass::Mp;
    if (name.find(".bus") != std::string::npos)
        return ResourceClass::Bus;
    if (name.find(".nic") != std::string::npos)
        return ResourceClass::Dma;
    if (name == "net" || name.find("net.") == 0)
        return ResourceClass::Network;
    return ResourceClass::Other;
}

std::map<ResourceClass, double>
classShares(const trace::Decomposition &d)
{
    std::map<ResourceClass, double> shares;
    for (const auto &[name, us] : d.serviceUsByResource)
        shares[classifyResource(name)] += us;
    for (const auto &[name, us] : d.queueUsByResource)
        shares[classifyResource(name)] += us;
    return shares;
}

ResourceClass
traceBottleneck(const trace::Decomposition &d)
{
    ResourceClass best = ResourceClass::Other;
    double best_us = -1;
    for (const auto &[cls, us] : classShares(d)) {
        if (us > best_us) {
            best = cls;
            best_us = us;
        }
    }
    return best;
}

namespace
{

/**
 * Time-averaged in-flight firings of one geometric stage — its
 * exit/loop pair are both delay-1, so occupancy is their summed
 * firing rate times one unit.
 */
double
stageOccupancy(const gtpn::PetriNet &net,
               const gtpn::AnalyzerResult &r, const std::string &stage)
{
    const auto exit_rate = static_cast<std::size_t>(
        net.findTransition(stage + ".exit"));
    const auto loop_rate = static_cast<std::size_t>(
        net.findTransition(stage + ".loop"));
    // firingRate counts timed transitions only; a stage on the round
    // trip whose exit read 0 would have lost its delay.
    hsipc_assert(r.firingRate[exit_rate] > 0.0);
    return r.firingRate[exit_rate] + r.firingRate[loop_rate];
}

} // namespace

GtpnSaturation
gtpnSaturation(models::Arch arch, int conversations, double computeUs)
{
    const models::LocalParams p = models::localParams(arch);
    // Same granularity choice as solveLocal.
    const double scale = models::localTimeScale(p, computeUs);
    const models::LocalModel m =
        models::buildLocalModel(p, conversations, computeUs, scale);
    const gtpn::AnalyzerResult r = gtpn::analyze(m.net);
    hsipc_assert(!r.deadlock);
    hsipc_assert(r.converged);

    std::vector<std::string> host_stages;
    std::vector<std::string> mp_stages;
    if (arch == models::Arch::I) {
        host_stages = {"send", "recv", "matchReply"};
    } else {
        host_stages = {"sendSyscall", "recvSyscall", "hostReply"};
        mp_stages = {"mpSend", "mpRecv", "mpMatch", "mpReply"};
    }

    GtpnSaturation out;
    out.states = r.numStates;
    for (const std::string &s : host_stages)
        out.hostUtil += stageOccupancy(m.net, r, s);
    for (const std::string &s : mp_stages)
        out.mpUtil += stageOccupancy(m.net, r, s);
    out.bottleneck = out.mpUtil > out.hostUtil ? ResourceClass::Mp
                                               : ResourceClass::Host;
    return out;
}

} // namespace hsipc::sim::analysis
