#include "sim/runner/sweep_runner.hh"

#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parallel/parallel.hh"

namespace hsipc::sim
{

namespace
{

std::string
mapJson(const std::map<std::string, double> &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : m) {
        out += (first ? "" : ", ") + jsonString(key) + ": " +
               jsonNumber(value);
        first = false;
    }
    return out + "}";
}

std::string
statsJson(const trace::ComponentStats &s)
{
    return "{\"meanUs\": " + jsonNumber(s.meanUs) +
           ", \"p50Us\": " + jsonNumber(s.p50Us) +
           ", \"p95Us\": " + jsonNumber(s.p95Us) +
           ", \"p99Us\": " + jsonNumber(s.p99Us) + "}";
}

} // namespace

std::vector<Outcome>
SweepRunner::run(std::vector<Experiment> exps) const
{
    return runWithSinks(std::move(exps), nullptr, nullptr);
}

std::vector<Outcome>
SweepRunner::runWithSinks(
    std::vector<Experiment> exps,
    const std::vector<trace::Tracer *> *tracers,
    const std::vector<metrics::Registry *> *metrics) const
{
    if (tracers)
        hsipc_assert(tracers->size() == exps.size());
    if (metrics)
        hsipc_assert(metrics->size() == exps.size());

    if (opts.seedBase != 0) {
        for (std::size_t i = 0; i < exps.size(); ++i)
            exps[i].seed = parallel::deriveSeed(
                opts.seedBase, static_cast<std::uint64_t>(i));
    }

    std::vector<Outcome> outcomes(exps.size());
    parallel::parallelFor(opts.jobs, exps.size(), [&](std::size_t i) {
        trace::Tracer *tracer = tracers ? (*tracers)[i] : nullptr;
        metrics::Registry *reg = metrics ? (*metrics)[i] : nullptr;
        outcomes[i] = runExperiment(exps[i], tracer, reg);
    });
    return outcomes;
}

std::vector<Outcome>
runSweep(std::vector<Experiment> exps, int jobs)
{
    SweepOptions opts;
    opts.jobs = jobs;
    return SweepRunner(opts).run(std::move(exps));
}

std::string
outcomeJson(const Outcome &out)
{
    std::string doc = "{";
    auto num = [&](const char *name, double v, bool comma = true) {
        doc += std::string("\"") + name + "\": " + jsonNumber(v) +
               (comma ? ",\n " : "");
    };
    num("throughputPerSec", out.throughputPerSec);
    num("meanRoundTripUs", out.meanRoundTripUs);
    num("rtCi95Us", out.rtCi95Us);
    num("rtP50Us", out.rtP50Us);
    num("rtP95Us", out.rtP95Us);
    num("roundTrips", static_cast<double>(out.roundTrips));
    num("hostUtil", out.hostUtil);
    num("mpUtil", out.mpUtil);
    num("busUtil", out.busUtil);
    doc += "\"resourceUtilization\": " +
           mapJson(out.resourceUtilization) + ",\n ";
    num("bufferStalls", static_cast<double>(out.bufferStalls));
    num("ringUtil", out.ringUtil);
    num("ringTokenWaitUs", out.ringTokenWaitUs);
    doc += "\"activityUsPerRoundTrip\": " +
           mapJson(out.activityUsPerRoundTrip) + ",\n ";
    num("localThroughputPerSec", out.localThroughputPerSec);
    num("remoteThroughputPerSec", out.remoteThroughputPerSec);
    num("localMeanRtUs", out.localMeanRtUs);
    num("remoteMeanRtUs", out.remoteMeanRtUs);
    num("retransmissions", static_cast<double>(out.retransmissions));
    num("timeoutsFired", static_cast<double>(out.timeoutsFired));
    num("duplicatesDropped",
        static_cast<double>(out.duplicatesDropped));
    num("corruptDiscarded", static_cast<double>(out.corruptDiscarded));
    num("faultDrops", static_cast<double>(out.faultDrops));
    num("crashDrops", static_cast<double>(out.crashDrops));
    num("netThroughputPktsPerSec", out.netThroughputPktsPerSec);
    num("netGoodputPktsPerSec", out.netGoodputPktsPerSec);
    num("protoHostUsPerRt", out.protoHostUsPerRt);
    num("protoMpUsPerRt", out.protoMpUsPerRt);
    num("crashWindowsRecovered",
        static_cast<double>(out.crashWindowsRecovered));
    num("meanRecoveryUs", out.meanRecoveryUs);
    const Outcome::NetTotals &nt = out.netTotals;
    doc += "\"netTotals\": {";
    bool firstTot = true;
    auto tot = [&](const char *name, long v) {
        doc += std::string(firstTot ? "" : ", ") + "\"" + name +
               "\": " + jsonNumber(static_cast<double>(v));
        firstTot = false;
    };
    tot("msgsAccepted", nt.msgsAccepted);
    tot("msgsDelivered", nt.msgsDelivered);
    tot("windowPendingAtEnd", nt.windowPendingAtEnd);
    tot("backlogAtEnd", nt.backlogAtEnd);
    tot("dataTransmissions", nt.dataTransmissions);
    tot("retransmissions", nt.retransmissions);
    tot("timeoutsFired", nt.timeoutsFired);
    tot("duplicatesDropped", nt.duplicatesDropped);
    tot("corruptDiscarded", nt.corruptDiscarded);
    tot("acksSent", nt.acksSent);
    tot("pktsInjected", nt.pktsInjected);
    tot("pktsDropped", nt.pktsDropped);
    tot("pktsCorrupted", nt.pktsCorrupted);
    tot("pktsDuplicated", nt.pktsDuplicated);
    tot("pktsReordered", nt.pktsReordered);
    tot("pktsCrashDropped", nt.pktsCrashDropped);
    doc += "},\n ";
    const Outcome::Rpc &r = out.rpc;
    doc += "\"rpc\": {";
    bool firstRpc = true;
    auto rpcNum = [&](const char *name, double v) {
        doc += std::string(firstRpc ? "" : ", ") + "\"" + name +
               "\": " + jsonNumber(v);
        firstRpc = false;
    };
    rpcNum("offered", static_cast<double>(r.offered));
    rpcNum("attempts", static_cast<double>(r.attempts));
    rpcNum("retries", static_cast<double>(r.retries));
    rpcNum("admitted", static_cast<double>(r.admitted));
    rpcNum("completed", static_cast<double>(r.completed));
    rpcNum("shed", static_cast<double>(r.shed));
    rpcNum("shedAttempts", static_cast<double>(r.shedAttempts));
    rpcNum("expired", static_cast<double>(r.expired));
    rpcNum("lostToCrash", static_cast<double>(r.lostToCrash));
    rpcNum("crashLostAttempts",
           static_cast<double>(r.crashLostAttempts));
    rpcNum("duplicatesSuppressed",
           static_cast<double>(r.duplicatesSuppressed));
    rpcNum("replyReplays", static_cast<double>(r.replyReplays));
    rpcNum("orphanedReplies", static_cast<double>(r.orphanedReplies));
    rpcNum("inFlightAtEnd", static_cast<double>(r.inFlightAtEnd));
    rpcNum("offeredPerSec", r.offeredPerSec);
    rpcNum("goodputPerSec", r.goodputPerSec);
    rpcNum("meanSojournUs", r.meanSojournUs);
    rpcNum("p95SojournUs", r.p95SojournUs);
    doc += "},\n ";
    num("rpcHostUsPerRt", out.rpcHostUsPerRt);
    num("rpcMpUsPerRt", out.rpcMpUsPerRt);
    const trace::Decomposition &d = out.decomposition;
    doc += "\"decomposition\": {\"messages\": " +
           jsonNumber(static_cast<double>(d.messages)) +
           ",\n  \"roundTrip\": " + statsJson(d.roundTrip) +
           ",\n  \"service\": " + statsJson(d.service) +
           ",\n  \"queue\": " + statsJson(d.queue) +
           ",\n  \"network\": " + statsJson(d.network) +
           ",\n  \"blocked\": " + statsJson(d.blocked) +
           ",\n  \"serviceUsByResource\": " +
           mapJson(d.serviceUsByResource) +
           ",\n  \"queueUsByResource\": " +
           mapJson(d.queueUsByResource) +
           ",\n  \"bottleneck\": " + jsonString(d.bottleneck) +
           ",\n  \"bottleneckShare\": " +
           jsonNumber(d.bottleneckShare) + "}";
    doc += "\n}\n";
    return doc;
}

std::string
topoJson(const Outcome &out)
{
    const topo::Ledger &t = out.topo;
    std::string doc = "{\"enabled\": ";
    doc += t.enabled ? "true" : "false";
    doc += ",\n \"links\": [";
    bool first = true;
    for (const topo::LinkLedger &l : t.links) {
        doc += first ? "" : ",\n  ";
        doc += "{\"name\": " + jsonString(l.name) +
               ", \"msgsIn\": " + std::to_string(l.msgsIn) +
               ", \"msgsOut\": " + std::to_string(l.msgsOut) +
               ", \"bytesIn\": " + std::to_string(l.bytesIn) +
               ", \"bytesOut\": " + std::to_string(l.bytesOut) +
               ", \"dropped\": " + std::to_string(l.dropped) +
               ", \"inFlightAtEnd\": " +
               std::to_string(l.inFlightAtEnd) +
               ", \"retransmissions\": " +
               std::to_string(l.retransmissions) +
               ", \"queuePeak\": " + std::to_string(l.queuePeak) +
               "}";
        first = false;
    }
    doc += "],\n \"routers\": [";
    first = true;
    for (const topo::RouterLedger &r : t.routers) {
        doc += first ? "" : ",\n  ";
        doc += "{\"name\": " + jsonString(r.name) +
               ", \"received\": " + std::to_string(r.received) +
               ", \"forwarded\": " + std::to_string(r.forwarded) +
               ", \"dropped\": " + std::to_string(r.dropped) +
               ", \"inFlightAtEnd\": " +
               std::to_string(r.inFlightAtEnd) +
               ", \"queuePeak\": " + std::to_string(r.queuePeak) +
               "}";
        first = false;
    }
    doc += "]\n}\n";
    return doc;
}

} // namespace hsipc::sim
