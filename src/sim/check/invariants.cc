#include "sim/check/invariants.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/metrics/metrics.hh"
#include "common/time.hh"
#include "common/trace/tracer.hh"
#include "sim/runner/sweep_runner.hh"

namespace hsipc::sim::check
{

namespace
{

// Absolute slack for quantities that are exact up to floating-point
// evaluation order, and relative slack for recomputed ratios.
constexpr double kEps = 1e-9;

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

/** Collects violations with uniform formatting. */
struct Checker
{
    const Experiment &exp;
    const Outcome &out;
    std::vector<Violation> v;

    void
    fail(const char *id, const std::string &detail)
    {
        v.push_back({id, detail});
    }

    void
    expectTrue(bool ok, const char *id, const std::string &detail)
    {
        if (!ok)
            fail(id, detail);
    }

    /** a <= b up to kEps absolute slack. */
    void
    expectLe(double a, const char *an, double b, const char *bn,
             const char *id)
    {
        if (!(a <= b + kEps))
            fail(id, std::string(an) + "=" + fmt(a) + " > " + bn +
                         "=" + fmt(b));
    }

    void
    expectUnit(double u, const char *name, const char *id)
    {
        if (!(u >= -kEps && u <= 1.0 + kEps))
            fail(id,
                 std::string(name) + "=" + fmt(u) + " outside [0,1]");
    }

    void
    expectNonNeg(double u, const char *name, const char *id)
    {
        if (!(u >= 0))
            fail(id, std::string(name) + "=" + fmt(u) + " negative");
    }

    /** Exact integer identity lhs == rhs. */
    void
    expectEq(long lhs, const char *le, long rhs, const char *re,
             const char *id)
    {
        if (lhs != rhs)
            fail(id, std::string(le) + "=" + std::to_string(lhs) +
                         " != " + re + "=" + std::to_string(rhs));
    }

    /** Relative agreement of a recomputed quantity. */
    void
    expectClose(double got, const char *gn, double want,
                const char *wn, double rel, const char *id)
    {
        const double scale = std::max({1.0, std::fabs(got),
                                       std::fabs(want)});
        if (!(std::fabs(got - want) <= rel * scale))
            fail(id, std::string(gn) + "=" + fmt(got) + " vs " + wn +
                         "=" + fmt(want));
    }
};

void
checkMeasurement(Checker &c)
{
    const Experiment &exp = c.exp;
    const Outcome &out = c.out;

    for (const auto &[name, util] : out.resourceUtilization)
        c.expectUnit(util, name.c_str(), "util.range");
    c.expectUnit(out.hostUtil, "hostUtil", "util.range");
    c.expectUnit(out.mpUtil, "mpUtil", "util.range");
    c.expectUnit(out.busUtil, "busUtil", "util.range");
    c.expectUnit(out.ringUtil, "ringUtil", "util.range");
    const topo::Topology topology = effectiveTopology(exp);
    if (topology.nodes < 2 || topology.kind != 2) {
        c.expectTrue(out.ringUtil == 0 && out.ringTokenWaitUs == 0,
                     "ring.absent",
                     "ring measurements nonzero without a ring");
    }

    c.expectTrue(out.roundTrips >= 0, "throughput.recompute",
                 "negative roundTrips");
    const double windowSec = ticksToUs(usToTicks(exp.measureUs)) / 1e6;
    c.expectClose(out.throughputPerSec,
                  "throughputPerSec",
                  static_cast<double>(out.roundTrips) / windowSec,
                  "roundTrips/window", 1e-9, "throughput.recompute");
    c.expectClose(out.localThroughputPerSec +
                      out.remoteThroughputPerSec,
                  "local+remote", out.throughputPerSec, "total", 1e-9,
                  "throughput.split");
    if (out.roundTrips > 0) {
        c.expectTrue(out.meanRoundTripUs > 0, "latency.positive",
                     "meanRoundTripUs=" + fmt(out.meanRoundTripUs) +
                         " with " + std::to_string(out.roundTrips) +
                         " round trips");
        c.expectLe(out.rtP50Us, "rtP50Us", out.rtP95Us, "rtP95Us",
                   "latency.percentileOrder");
    }
    for (const auto &[name, us] : out.activityUsPerRoundTrip)
        c.expectNonNeg(us, name.c_str(), "activity.nonneg");
    c.expectNonNeg(out.protoHostUsPerRt, "protoHostUsPerRt",
                   "proto.nonneg");
    c.expectNonNeg(out.protoMpUsPerRt, "protoMpUsPerRt",
                   "proto.nonneg");

    if (exp.arch == models::Arch::I) {
        c.expectTrue(out.mpUtil == 0, "arch1.noMp",
                     "mpUtil=" + fmt(out.mpUtil) +
                         " on the MP-less architecture I");
        c.expectTrue(out.protoMpUsPerRt == 0, "arch1.noMp",
                     "protoMpUsPerRt=" + fmt(out.protoMpUsPerRt) +
                         " on architecture I");
        for (const auto &[name, util] : out.resourceUtilization) {
            if (name.find(".mp") != std::string::npos)
                c.fail("arch1.noMp", "resource '" + name +
                                         "' on architecture I");
        }
    } else {
        // With an MP present, protocol processing runs there.
        c.expectTrue(out.protoHostUsPerRt == 0, "proto.placement",
                     "protoHostUsPerRt=" + fmt(out.protoHostUsPerRt) +
                         " charged to the host on arch " +
                         std::to_string(static_cast<int>(exp.arch)));
    }

    // One node is all local, and so is the locality placement, which
    // pins each client to its server's node; the classic and
    // round-robin placements never co-locate a pair.  The mixed
    // workload interleaves both kinds.
    const bool mixed = exp.mixedLocal + exp.mixedRemote > 0;
    if (topology.nodes == 1 || (!mixed && topology.placement == 2))
        c.expectTrue(out.remoteThroughputPerSec == 0, "workload.split",
                     "remote throughput on a local-only run");
    else if (!mixed && topology.placement <= 1)
        c.expectTrue(out.localThroughputPerSec == 0, "workload.split",
                     "local throughput on a remote-only run");

    c.expectTrue(out.crashWindowsRecovered >= 0 &&
                     static_cast<std::size_t>(
                         out.crashWindowsRecovered) <=
                         exp.crashSchedule.size(),
                 "crash.recoveredBound",
                 "crashWindowsRecovered=" +
                     std::to_string(out.crashWindowsRecovered) +
                     " of " +
                     std::to_string(exp.crashSchedule.size()) +
                     " scheduled");
    c.expectNonNeg(out.meanRecoveryUs, "meanRecoveryUs",
                   "crash.recoveredBound");
    c.expectTrue(out.bufferStalls >= 0, "buffers.nonneg",
                 "negative bufferStalls");
}

void
checkConservation(Checker &c)
{
    const Experiment &exp = c.exp;
    const Outcome &out = c.out;
    const Outcome::NetTotals &nt = out.netTotals;

    const long ledger[] = {nt.msgsAccepted, nt.msgsDelivered,
                           nt.windowPendingAtEnd, nt.backlogAtEnd,
                           nt.dataTransmissions, nt.retransmissions,
                           nt.timeoutsFired, nt.duplicatesDropped,
                           nt.corruptDiscarded, nt.acksSent,
                           nt.pktsInjected, nt.pktsDropped,
                           nt.pktsCorrupted, nt.pktsDuplicated,
                           nt.pktsReordered, nt.pktsCrashDropped};
    for (long v : ledger)
        c.expectTrue(v >= 0, "conservation.nonneg",
                     "negative ledger entry " + std::to_string(v));

    // Message conservation: everything accepted either reached the
    // peer exactly once, is transmitted-but-unacked, or never left
    // the backlog.
    const long settled = nt.msgsAccepted - nt.backlogAtEnd;
    c.expectTrue(nt.msgsDelivered <= settled &&
                     nt.msgsDelivered >=
                         settled - nt.windowPendingAtEnd,
                 "conservation.messages",
                 "delivered=" + std::to_string(nt.msgsDelivered) +
                     " outside [accepted-backlog-pending, "
                     "accepted-backlog] = [" +
                     std::to_string(settled - nt.windowPendingAtEnd) +
                     ", " + std::to_string(settled) + "]");

    // First-transmission identity: every message leaving the backlog
    // is transmitted exactly once as a first copy.
    c.expectEq(nt.dataTransmissions - nt.retransmissions,
               "dataTransmissions-retransmissions", settled,
               "accepted-backlog", "conservation.firstTx");

    c.expectTrue(nt.retransmissions <= nt.timeoutsFired,
                 "conservation.retransmitCause",
                 "retransmissions=" +
                     std::to_string(nt.retransmissions) +
                     " > timeoutsFired=" +
                     std::to_string(nt.timeoutsFired));

    // Goodput never exceeds throughput, and every extra arrival of a
    // sequence number is explained by a retransmission or an injected
    // duplicate.
    c.expectTrue(nt.msgsDelivered <= nt.dataTransmissions,
                 "conservation.goodput",
                 "delivered=" + std::to_string(nt.msgsDelivered) +
                     " > dataTransmissions=" +
                     std::to_string(nt.dataTransmissions));
    c.expectTrue(nt.msgsDelivered + nt.duplicatesDropped <=
                     nt.dataTransmissions + nt.pktsDuplicated,
                 "conservation.duplicates",
                 "delivered+dupDropped=" +
                     std::to_string(nt.msgsDelivered +
                                    nt.duplicatesDropped) +
                     " > dataTx+injectedDups=" +
                     std::to_string(nt.dataTransmissions +
                                    nt.pktsDuplicated));

    // A checksum discard needs an injected corruption (duplicates of
    // a corrupted packet share its corruption, hence the dup term).
    c.expectTrue(nt.corruptDiscarded <=
                     nt.pktsCorrupted + nt.pktsDuplicated,
                 "conservation.corruption",
                 "corruptDiscarded=" +
                     std::to_string(nt.corruptDiscarded) +
                     " > injected corrupted+duplicated=" +
                     std::to_string(nt.pktsCorrupted +
                                    nt.pktsDuplicated));

    // The windowed counters are sub-ranges of the whole-run ledger.
    c.expectTrue(out.retransmissions >= 0 &&
                     out.retransmissions <= nt.retransmissions,
                 "conservation.window",
                 "windowed retransmissions=" +
                     std::to_string(out.retransmissions) +
                     " outside [0, " +
                     std::to_string(nt.retransmissions) + "]");
    c.expectTrue(out.timeoutsFired >= 0 &&
                     out.timeoutsFired <= nt.timeoutsFired,
                 "conservation.window",
                 "windowed timeoutsFired=" +
                     std::to_string(out.timeoutsFired) +
                     " outside [0, " +
                     std::to_string(nt.timeoutsFired) + "]");
    c.expectTrue(out.duplicatesDropped >= 0 &&
                     out.duplicatesDropped <= nt.duplicatesDropped,
                 "conservation.window",
                 "windowed duplicatesDropped=" +
                     std::to_string(out.duplicatesDropped) +
                     " outside [0, " +
                     std::to_string(nt.duplicatesDropped) + "]");
    c.expectTrue(out.corruptDiscarded >= 0 &&
                     out.corruptDiscarded <= nt.corruptDiscarded,
                 "conservation.window",
                 "windowed corruptDiscarded=" +
                     std::to_string(out.corruptDiscarded) +
                     " outside [0, " +
                     std::to_string(nt.corruptDiscarded) + "]");
    c.expectTrue(out.faultDrops >= 0 &&
                     out.faultDrops <= nt.pktsDropped,
                 "conservation.window",
                 "windowed faultDrops=" +
                     std::to_string(out.faultDrops) + " outside [0, " +
                     std::to_string(nt.pktsDropped) + "]");
    c.expectTrue(out.crashDrops >= 0 &&
                     out.crashDrops <= nt.pktsCrashDropped,
                 "conservation.window",
                 "windowed crashDrops=" +
                     std::to_string(out.crashDrops) + " outside [0, " +
                     std::to_string(nt.pktsCrashDropped) + "]");

    // Windowed goodput <= windowed throughput, up to deliveries of
    // packets transmitted before the window opened (bounded by the
    // two channels' windows) — in packets, not rates.
    const double windowSec = ticksToUs(usToTicks(exp.measureUs)) / 1e6;
    c.expectTrue(out.netGoodputPktsPerSec * windowSec <=
                     out.netThroughputPktsPerSec * windowSec +
                         2.0 * exp.retransmitWindow + 1e-6,
                 "conservation.goodputRate",
                 "goodput=" + fmt(out.netGoodputPktsPerSec) +
                     " pkts/s vs throughput=" +
                     fmt(out.netThroughputPktsPerSec) + " pkts/s");

    // Faults that are disabled must not occur.
    if (exp.lossRate == 0)
        c.expectEq(nt.pktsDropped, "pktsDropped", 0, "disabled loss",
                   "faults.disabled");
    if (exp.corruptRate == 0)
        c.expectEq(nt.pktsCorrupted, "pktsCorrupted", 0,
                   "disabled corruption", "faults.disabled");
    if (exp.duplicateRate == 0)
        c.expectEq(nt.pktsDuplicated, "pktsDuplicated", 0,
                   "disabled duplication", "faults.disabled");
    if (exp.reorderRate == 0)
        c.expectEq(nt.pktsReordered, "pktsReordered", 0,
                   "disabled reordering", "faults.disabled");
    if (exp.crashSchedule.empty())
        c.expectEq(nt.pktsCrashDropped, "pktsCrashDropped", 0,
                   "no crash windows", "faults.disabled");

    // Pay-for-use: a run that never instantiates the reliability
    // stack (single node, or two fault-free nodes without
    // reliableProtocol) must leave the whole ledger at zero.
    const bool faultFree = exp.lossRate == 0 && exp.corruptRate == 0 &&
                           exp.duplicateRate == 0 &&
                           exp.reorderRate == 0 &&
                           exp.crashSchedule.empty();
    const bool twoNodes = effectiveTopology(exp).nodes >= 2;
    if (!twoNodes || (faultFree && !exp.reliableProtocol)) {
        c.expectTrue(nt.pktsInjected == 0 && nt.msgsAccepted == 0 &&
                         nt.dataTransmissions == 0 &&
                         out.netThroughputPktsPerSec == 0,
                     "conservation.bypass",
                     "reliability-stack activity on a run that must "
                     "bypass the stack (injected=" +
                         std::to_string(nt.pktsInjected) +
                         ", accepted=" +
                         std::to_string(nt.msgsAccepted) + ")");
    }
}

void
checkDecomposition(Checker &c)
{
    const Outcome &out = c.out;
    const trace::Decomposition &d = out.decomposition;
    if (!c.exp.decomposeLatency) {
        c.expectTrue(d.messages == 0, "decomp.disabled",
                     "decomposition filled without decomposeLatency");
        return;
    }
    // Two ways the decomposition can legitimately cover a subset of
    // the measured trips: robust runs may complete a round trip whose
    // final attempt left no causal record, and trace sampling keeps
    // only the hash-selected message ids.  Either way coverage is an
    // upper bound and the decomposed mean is over a subset.
    const bool subset =
        robustnessEnabled(c.exp) || c.exp.traceSampleRate < 1;
    if (subset) {
        c.expectTrue(d.messages <= out.roundTrips, "decomp.coverage",
                     "decomposition.messages=" +
                         std::to_string(d.messages) + " > roundTrips=" +
                         std::to_string(out.roundTrips));
    } else {
        c.expectEq(d.messages, "decomposition.messages",
                   out.roundTrips, "roundTrips", "decomp.coverage");
    }
    if (d.messages <= 0)
        return;

    const double sum = d.service.meanUs + d.queue.meanUs +
                       d.network.meanUs + d.blocked.meanUs;
    c.expectClose(sum, "service+queue+network+blocked",
                  d.roundTrip.meanUs, "roundTrip mean", 1e-6,
                  "decomp.partition");
    if (!subset)
        c.expectClose(d.roundTrip.meanUs, "decomposed roundTrip mean",
                      out.meanRoundTripUs, "measured mean", 1e-6,
                      "decomp.partition");

    const struct
    {
        const char *name;
        const trace::ComponentStats &s;
    } comps[] = {{"roundTrip", d.roundTrip}, {"service", d.service},
                 {"queue", d.queue},         {"network", d.network},
                 {"blocked", d.blocked}};
    for (const auto &comp : comps) {
        c.expectNonNeg(comp.s.meanUs, comp.name, "decomp.nonneg");
        c.expectLe(comp.s.p50Us, "p50", comp.s.p95Us, "p95",
                   "decomp.percentileOrder");
        c.expectLe(comp.s.p95Us, "p95", comp.s.p99Us, "p99",
                   "decomp.percentileOrder");
    }
    double resourceService = 0;
    for (const auto &[name, us] : d.serviceUsByResource) {
        c.expectNonNeg(us, name.c_str(), "decomp.nonneg");
        resourceService += us;
    }
    for (const auto &[name, us] : d.queueUsByResource)
        c.expectNonNeg(us, name.c_str(), "decomp.nonneg");
    c.expectClose(resourceService, "sum of serviceUsByResource",
                  d.service.meanUs + d.network.meanUs,
                  "service+network mean", 1e-6, "decomp.byResource");
    // A covered trip can decompose to pure blocking: a robust retry
    // can complete a request whose service/queue/network spans all
    // landed on another attempt's causal record, leaving one
    // interval-free record that reconstructs as a single blocked
    // segment.  With no resource carrying any share there is no
    // bottleneck to name; otherwise one must be named.
    if (d.service.meanUs + d.queue.meanUs + d.network.meanUs > 0)
        c.expectTrue(!d.bottleneck.empty(), "decomp.bottleneck",
                     "no bottleneck named despite decomposed "
                     "resource time");
    c.expectUnit(d.bottleneckShare, "bottleneckShare",
                 "decomp.bottleneck");
}

void
checkRpc(Checker &c)
{
    const Experiment &exp = c.exp;
    const Outcome &out = c.out;
    const Outcome::Rpc &r = out.rpc;

    c.expectNonNeg(out.rpcHostUsPerRt, "rpcHostUsPerRt", "rpc.nonneg");
    c.expectNonNeg(out.rpcMpUsPerRt, "rpcMpUsPerRt", "rpc.nonneg");

    if (!robustnessEnabled(exp)) {
        // Pay-for-use: with every robustness knob at its default the
        // whole ledger (and its processing charge) must stay zero.
        const long ledger[] = {
            r.offered,     r.attempts,     r.retries,
            r.admitted,    r.completed,    r.shed,
            r.shedAttempts, r.expired,     r.lostToCrash,
            r.crashLostAttempts, r.duplicatesSuppressed,
            r.replyReplays, r.orphanedReplies, r.inFlightAtEnd};
        for (long v : ledger)
            c.expectTrue(v == 0, "rpc.bypass",
                         "robustness ledger entry " +
                             std::to_string(v) +
                             " nonzero on a non-robust run");
        c.expectTrue(r.offeredPerSec == 0 && r.goodputPerSec == 0 &&
                         r.meanSojournUs == 0 && r.p95SojournUs == 0 &&
                         out.rpcHostUsPerRt == 0 &&
                         out.rpcMpUsPerRt == 0,
                     "rpc.bypass",
                     "robustness rates nonzero on a non-robust run");
        return;
    }

    const long ledger[] = {
        r.offered,     r.attempts,     r.retries,
        r.admitted,    r.completed,    r.shed,
        r.shedAttempts, r.expired,     r.lostToCrash,
        r.crashLostAttempts, r.duplicatesSuppressed,
        r.replyReplays, r.orphanedReplies, r.inFlightAtEnd};
    for (long v : ledger)
        c.expectTrue(v >= 0, "rpc.nonneg",
                     "negative rpc ledger entry " + std::to_string(v));
    c.expectNonNeg(r.offeredPerSec, "offeredPerSec", "rpc.nonneg");
    c.expectNonNeg(r.goodputPerSec, "goodputPerSec", "rpc.nonneg");
    c.expectNonNeg(r.meanSojournUs, "meanSojournUs", "rpc.nonneg");
    c.expectNonNeg(r.p95SojournUs, "p95SojournUs", "rpc.nonneg");

    // Disposition conservation: every offered request ends in exactly
    // one of the four terminal states or is still in flight at the
    // end of the run.  Exact, on every configuration.
    c.expectEq(r.offered, "offered",
               r.completed + r.shed + r.expired + r.lostToCrash +
                   r.inFlightAtEnd,
               "completed+shed+expired+lostToCrash+inFlightAtEnd",
               "rpc.conservation");

    // Attempt accounting: each request sends once plus one per used
    // retry, and the budget caps the retries.
    c.expectTrue(r.attempts <= r.offered + r.retries,
                 "rpc.attempts",
                 "attempts=" + std::to_string(r.attempts) +
                     " > offered+retries=" +
                     std::to_string(r.offered + r.retries));
    c.expectTrue(r.retries <=
                     static_cast<long>(exp.retryBudget) * r.offered,
                 "rpc.retryBudget",
                 "retries=" + std::to_string(r.retries) +
                     " > budget*offered=" +
                     std::to_string(static_cast<long>(exp.retryBudget) *
                                    r.offered));

    // Server-side classification: every delivered attempt is admitted,
    // deduplicated, replayed at, or shed — never double-counted.
    c.expectTrue(r.admitted + r.duplicatesSuppressed + r.replyReplays <=
                     r.attempts,
                 "rpc.serverLedger",
                 "admitted+dedup+replays=" +
                     std::to_string(r.admitted + r.duplicatesSuppressed +
                                    r.replyReplays) +
                     " > attempts=" + std::to_string(r.attempts));
    c.expectTrue(r.completed <= r.admitted, "rpc.serverLedger",
                 "completed=" + std::to_string(r.completed) +
                     " > admitted=" + std::to_string(r.admitted));
    // Every reply is produced by a serviced admission or a replay.
    c.expectTrue(r.completed + r.orphanedReplies <=
                     r.admitted + r.replyReplays,
                 "rpc.serverLedger",
                 "completed+orphaned=" +
                     std::to_string(r.completed + r.orphanedReplies) +
                     " > admitted+replays=" +
                     std::to_string(r.admitted + r.replyReplays));
    c.expectTrue(r.shed <= r.shedAttempts, "rpc.shedBound",
                 "shed=" + std::to_string(r.shed) +
                     " > shedAttempts=" +
                     std::to_string(r.shedAttempts));
    c.expectTrue(r.lostToCrash <= r.crashLostAttempts, "rpc.crashBound",
                 "lostToCrash=" + std::to_string(r.lostToCrash) +
                     " > crashLostAttempts=" +
                     std::to_string(r.crashLostAttempts));

    // Disabled mechanisms must not fire.
    if (exp.svcQueueCap == 0)
        c.expectTrue(r.shedAttempts == 0 && r.shed == 0,
                     "rpc.disabled", "shedding without a queue cap");
    if (exp.retryBudget == 0)
        c.expectTrue(r.retries == 0, "rpc.disabled",
                     "retries without a retry budget");
    if (exp.deadlineUs == 0)
        c.expectTrue(r.expired == 0, "rpc.disabled",
                     "expiries without a deadline");
    if (exp.crashSchedule.empty())
        c.expectTrue(r.lostToCrash == 0 && r.crashLostAttempts == 0,
                     "rpc.disabled", "crash losses without crashes");

    // Expiry preempts late completion, so goodput is throughput.
    c.expectClose(r.goodputPerSec, "goodputPerSec",
                  out.throughputPerSec, "throughputPerSec", 1e-9,
                  "rpc.goodput");

    // No completed request outlives its deadline (the deadline event
    // is scheduled before any reply can be, so it wins tick ties).
    if (exp.deadlineUs > 0 && r.completed > 0) {
        const double bound = ticksToUs(
            std::max<Tick>(1, usToTicks(exp.deadlineUs)));
        c.expectLe(r.meanSojournUs, "meanSojournUs", bound,
                   "deadline", "rpc.sojournDeadline");
        c.expectLe(r.p95SojournUs, "p95SojournUs", bound, "deadline",
                   "rpc.sojournDeadline");
    }

    // Who pays for robustness: the host on Architecture I, the MP on
    // II-IV — mirrors the protocol-placement invariant.
    if (exp.arch == models::Arch::I)
        c.expectTrue(out.rpcMpUsPerRt == 0, "rpc.placement",
                     "rpcMpUsPerRt=" + fmt(out.rpcMpUsPerRt) +
                         " on the MP-less architecture I");
    else
        c.expectTrue(out.rpcHostUsPerRt == 0, "rpc.placement",
                     "rpcHostUsPerRt=" + fmt(out.rpcHostUsPerRt) +
                         " charged to the host on arch " +
                         std::to_string(static_cast<int>(exp.arch)));
}

void
checkTimeline(Checker &c)
{
    const Experiment &exp = c.exp;
    const Outcome &out = c.out;
    const obs::Timeline &t = out.timeline;

    if (exp.timelineIntervalUs <= 0) {
        // Pay-for-use: no knob, no timeline, no steady-state stats.
        c.expectTrue(!t.enabled() && t.counters.empty() &&
                         t.gauges.empty(),
                     "timeline.disabled",
                     "timeline filled without timelineIntervalUs");
        c.expectTrue(out.stats == obs::SteadyStats{},
                     "timeline.disabled",
                     "steady-state stats filled without a timeline");
        return;
    }

    c.expectTrue(t.enabled(), "timeline.meta",
                 "timeline empty despite timelineIntervalUs=" +
                     fmt(exp.timelineIntervalUs));
    c.expectClose(t.intervalUs, "timeline.intervalUs",
                  exp.timelineIntervalUs, "Experiment knob", 1e-12,
                  "timeline.meta");
    c.expectClose(t.horizonUs, "timeline.horizonUs",
                  exp.warmupUs + exp.measureUs, "warmup+measure",
                  1e-12, "timeline.meta");

    // Every series spans the same bin range.
    const std::size_t bins = t.bins();
    c.expectTrue(bins > 0, "timeline.bins", "timeline has no bins");
    for (const auto &[name, s] : t.counters)
        c.expectTrue(s.size() == bins, "timeline.bins",
                     "counter series '" + name + "' has " +
                         std::to_string(s.size()) + " of " +
                         std::to_string(bins) + " bins");
    for (const auto &[name, g] : t.gauges)
        c.expectTrue(g.size() == bins, "timeline.bins",
                     "gauge series '" + name + "' has " +
                         std::to_string(g.size()) + " of " +
                         std::to_string(bins) + " bins");

    // The integral property: a counter series' bins sum *exactly*
    // (the increments are integers well inside double precision) to
    // the whole-run ledger counter bumped at the very same sites.
    const auto integral = [&](const char *name) {
        return std::llround(t.total(name));
    };
    const auto has = [&](const char *name) {
        return t.counters.count(name) > 0;
    };
    c.expectTrue(has("ipc.completedTrips") && has("ipc.allTrips") &&
                     has("ipc.bufferStalls"),
                 "timeline.series",
                 "core ipc series missing from an enabled timeline");
    c.expectEq(integral("ipc.completedTrips"),
               "sum(ipc.completedTrips)", out.roundTrips,
               "roundTrips", "timeline.integral");
    c.expectEq(integral("ipc.bufferStalls"), "sum(ipc.bufferStalls)",
               out.bufferStalls, "bufferStalls", "timeline.integral");
    // allTrips includes warmup completions, so it dominates the
    // measured count.
    c.expectTrue(integral("ipc.allTrips") >= out.roundTrips,
                 "timeline.integral",
                 "sum(ipc.allTrips)=" +
                     std::to_string(integral("ipc.allTrips")) +
                     " < roundTrips=" +
                     std::to_string(out.roundTrips));

    const Outcome::Rpc &r = out.rpc;
    if (robustnessEnabled(exp)) {
        const struct
        {
            const char *series;
            long ledger;
            const char *ledgerName;
        } rpcPairs[] = {
            {"rpc.offered", r.offered, "rpc.offered"},
            {"rpc.completed", r.completed, "rpc.completed"},
            {"rpc.shed", r.shed, "rpc.shed"},
            {"rpc.shedAttempts", r.shedAttempts, "rpc.shedAttempts"},
            {"rpc.expired", r.expired, "rpc.expired"},
            {"rpc.lostToCrash", r.lostToCrash, "rpc.lostToCrash"},
            {"rpc.retries", r.retries, "rpc.retries"},
            {"rpc.orphanedReplies", r.orphanedReplies,
             "rpc.orphanedReplies"},
        };
        for (const auto &p : rpcPairs) {
            if (!has(p.series)) {
                c.fail("timeline.series",
                       std::string("missing series '") + p.series +
                           "' on a robust timeline run");
                continue;
            }
            c.expectEq(integral(p.series), p.series, p.ledger,
                       p.ledgerName, "timeline.integral");
        }
    } else {
        c.expectTrue(!has("rpc.offered"), "timeline.series",
                     "rpc series on a non-robust run");
    }

    // The reliable-channel series exist iff the channels do; absent
    // series mean the whole-run ledger is zero too (bypass).
    const Outcome::NetTotals &nt = out.netTotals;
    if (has("net.dataTransmissions")) {
        c.expectEq(integral("net.dataTransmissions"),
                   "sum(net.dataTransmissions)", nt.dataTransmissions,
                   "netTotals.dataTransmissions", "timeline.integral");
        c.expectEq(integral("net.retransmissions"),
                   "sum(net.retransmissions)", nt.retransmissions,
                   "netTotals.retransmissions", "timeline.integral");
        c.expectEq(integral("net.delivered"), "sum(net.delivered)",
                   nt.msgsDelivered, "netTotals.msgsDelivered",
                   "timeline.integral");
        c.expectEq(integral("net.acksSent"), "sum(net.acksSent)",
                   nt.acksSent, "netTotals.acksSent",
                   "timeline.integral");
    } else {
        c.expectEq(nt.dataTransmissions, "netTotals.dataTransmissions",
                   0, "bypassed channel series", "timeline.series");
    }

    // Per-bin utilization gauges are utilizations.
    for (const auto &[name, g] : t.gauges) {
        if (name.rfind("util.", 0) != 0)
            continue;
        for (double u : g)
            c.expectUnit(u, name.c_str(), "timeline.gaugeRange");
    }

    // Steady-state stats ride the timeline.
    c.expectTrue(out.stats.enabled, "timeline.stats",
                 "stats disabled despite an enabled timeline");
    // The truncation point is bin-granular, so it can overshoot the
    // horizon by the final partial bin (and a short run truncates at
    // its very end: bins * interval).
    const double binSpanUs =
        static_cast<double>(bins) * t.intervalUs;
    c.expectTrue(out.stats.truncationUs >= 0 &&
                     out.stats.truncationUs <= binSpanUs + kEps,
                 "timeline.stats",
                 "truncationUs=" + fmt(out.stats.truncationUs) +
                     " outside the binned horizon " + fmt(binSpanUs));
    c.expectTrue(out.stats.batches >= 0, "timeline.stats",
                 "negative batch count");
    c.expectNonNeg(out.stats.throughputCi95PerSec,
                   "throughputCi95PerSec", "timeline.stats");
    c.expectNonNeg(out.stats.rtCi95Us, "rtCi95Us", "timeline.stats");
}

void
checkEngineProfile(Checker &c)
{
    const Experiment &exp = c.exp;
    const obs::EngineProfile &p = c.out.engineProfile;

    if (!exp.engineProfile) {
        // Pay-for-use: no knob, no profile (and checkedRun separately
        // pins that flipping the knob leaves outcomeJson bit-equal).
        c.expectTrue(!p.enabled && p.pushes == 0 && p.pops == 0 &&
                         p.sampledEvents == 0 && p.tracks.empty() &&
                         p.dwellUs.count() == 0,
                     "engprof.disabled",
                     "engine profile filled without the knob");
        return;
    }

    c.expectTrue(p.enabled, "engprof.meta",
                 "profile disabled despite engineProfile=true");
    c.expectTrue(p.sampleEvery > 0, "engprof.meta",
                 "sampleEvery=0 on an enabled profile");
    c.expectTrue(!p.tracks.empty() && p.tracks[0].name == "sim",
                 "engprof.meta", "track 0 is not the 'sim' residual");

    // Queue conservation: every key scheduled was either popped, run
    // by an access loop as a step after its first, or is still
    // pending in one of the two sets at the horizon.
    const obs::EngineProfile::CoStep &cs = p.coStep;
    c.expectEq(static_cast<long>(p.pushes), "engprof.pushes",
               static_cast<long>(p.pops + (cs.steps - cs.loops) +
                                 p.remainingAtEnd),
               "pops + (coStep.steps - coStep.loops) + remainingAtEnd",
               "engprof.conservation");
    // Every loop starts at a popped event and stops for one cause.
    c.expectTrue(cs.loops <= p.pops && cs.steps >= cs.loops &&
                     cs.stopNonAccess + cs.stopBound + cs.stopDrained ==
                         cs.loops,
                 "engprof.conservation",
                 "coStep: " + std::to_string(cs.loops) + " loops, " +
                     std::to_string(cs.steps) + " steps, " +
                     std::to_string(cs.stopNonAccess + cs.stopBound +
                                    cs.stopDrained) +
                     " stops");
    c.expectTrue(p.maxHeapSize >= p.remainingAtEnd,
                 "engprof.conservation",
                 "remainingAtEnd=" + std::to_string(p.remainingAtEnd) +
                     " above the observed peak " +
                     std::to_string(p.maxHeapSize));
    c.expectTrue(p.pushes == 0 || p.maxHeapSize >= 1,
                 "engprof.conservation",
                 "pushes recorded but maxHeapSize=0");

    // Subsampling: samples are a subset of executions, and the dwell
    // and depth sketches fill in lockstep (both observe at sampled
    // pushes).
    c.expectTrue(p.sampledEvents <= p.pops, "engprof.sampling",
                 "sampledEvents=" + std::to_string(p.sampledEvents) +
                     " > pops=" + std::to_string(p.pops));
    c.expectTrue(
        p.dwellUs.count() <= static_cast<std::int64_t>(p.pushes),
        "engprof.sampling", "more dwell samples than pushes");
    c.expectEq(static_cast<long>(p.dwellUs.count()),
               "dwellUs.count", static_cast<long>(p.heapDepth.count()),
               "heapDepth.count", "engprof.sampling");
    c.expectTrue(p.dwellUs.count() == 0 || p.dwellUs.min() >= 0,
                 "engprof.sampling", "negative queue dwell time");

    // Attribution: every executed event lands in exactly one track,
    // and every sampled execution in exactly one wall sketch.
    std::uint64_t events = 0;
    std::int64_t wallSamples = 0;
    for (const obs::EngineProfile::Track &t : p.tracks) {
        events += t.events;
        wallSamples += t.wallNs.count();
    }
    c.expectEq(static_cast<long>(events), "sum(track.events)",
               static_cast<long>(p.pops), "pops",
               "engprof.attribution");
    c.expectEq(static_cast<long>(wallSamples),
               "sum(track.wallNs.count)",
               static_cast<long>(p.sampledEvents), "sampledEvents",
               "engprof.attribution");
}

/**
 * The topology layer's structural ledger (topo.* family).  Flow
 * conservation is *exact* on every link and every router: a packet
 * the layer accepts either came out the other side, was accounted as
 * dropped, or is still in flight at the horizon — nothing vanishes.
 */
void
checkTopo(Checker &c)
{
    const Experiment &exp = c.exp;
    const topo::Ledger &t = c.out.topo;

    if (!exp.topo.enabled()) {
        // The ledger is reported for an explicit topology only
        // (checkedRun audits the default fabric's).
        c.expectTrue(!t.enabled && t.links.empty() &&
                         t.routers.empty(),
                     "topo.bypass",
                     "fabric ledger reported without a topology");
        return;
    }

    c.expectTrue(t.enabled, "topo.enabled",
                 "ledger disabled despite an explicit topology");

    // Element counts are a pure function of the topology shape.
    const std::size_t n = static_cast<std::size_t>(exp.topo.nodes);
    std::size_t wantLinks = 0;
    std::size_t wantRouters = 0;
    switch (exp.topo.kind) {
    case 0: // full mesh: one directed link per ordered pair
        wantLinks = n * (n - 1);
        break;
    case 1: // star: ingress + egress per node, one switch
        wantLinks = 2 * n;
        wantRouters = 1;
        break;
    default: // one ring, booked as one link
        wantLinks = 1;
        break;
    }
    c.expectEq(static_cast<long>(t.links.size()), "ledger links",
               static_cast<long>(wantLinks), "topology shape",
               "topo.enabled");
    c.expectEq(static_cast<long>(t.routers.size()), "ledger routers",
               static_cast<long>(wantRouters), "topology shape",
               "topo.enabled");

    const long totalRetrans = c.out.netTotals.retransmissions;
    for (const topo::LinkLedger &l : t.links) {
        const long entries[] = {l.msgsIn,  l.msgsOut,
                                l.bytesIn, l.bytesOut,
                                l.dropped, l.inFlightAtEnd,
                                l.retransmissions, l.queuePeak};
        for (long v : entries)
            c.expectTrue(v >= 0, "topo.nonneg",
                         "negative entry " + std::to_string(v) +
                             " on link " + l.name);
        c.expectTrue(
            l.msgsIn == l.msgsOut + l.dropped + l.inFlightAtEnd,
            "topo.conservation",
            "link " + l.name + ": msgsIn=" +
                std::to_string(l.msgsIn) +
                " != msgsOut+dropped+inFlight=" +
                std::to_string(l.msgsOut + l.dropped +
                               l.inFlightAtEnd));
        c.expectTrue(l.bytesOut <= l.bytesIn, "topo.conservation",
                     "link " + l.name + ": bytesOut=" +
                         std::to_string(l.bytesOut) + " > bytesIn=" +
                         std::to_string(l.bytesIn));
        c.expectTrue(l.queuePeak >= l.inFlightAtEnd,
                     "topo.conservation",
                     "link " + l.name + ": inFlightAtEnd=" +
                         std::to_string(l.inFlightAtEnd) +
                         " above the observed peak " +
                         std::to_string(l.queuePeak));
        // Retransmission attribution never invents traffic: every
        // per-link count is a sub-ledger of the channel total.
        c.expectTrue(l.retransmissions <= totalRetrans,
                     "topo.retransAttribution",
                     "link " + l.name + ": retransmissions=" +
                         std::to_string(l.retransmissions) +
                         " > netTotals.retransmissions=" +
                         std::to_string(totalRetrans));
    }

    for (const topo::RouterLedger &r : t.routers) {
        const long entries[] = {r.received, r.forwarded, r.dropped,
                                r.inFlightAtEnd, r.queuePeak};
        for (long v : entries)
            c.expectTrue(v >= 0, "topo.nonneg",
                         "negative entry " + std::to_string(v) +
                             " on router " + r.name);
        c.expectTrue(
            r.received == r.forwarded + r.dropped + r.inFlightAtEnd,
            "topo.conservation",
            "router " + r.name + ": received=" +
                std::to_string(r.received) +
                " != forwarded+dropped+inFlight=" +
                std::to_string(r.forwarded + r.dropped +
                               r.inFlightAtEnd));
        c.expectTrue(r.queuePeak >= r.inFlightAtEnd,
                     "topo.conservation",
                     "router " + r.name + ": inFlightAtEnd=" +
                         std::to_string(r.inFlightAtEnd) +
                         " above the observed peak " +
                         std::to_string(r.queuePeak));
    }
}

} // namespace

std::string
formatViolations(const std::vector<Violation> &v)
{
    std::string s;
    for (const Violation &viol : v)
        s += viol.invariant + ": " + viol.detail + "\n";
    return s;
}

std::vector<Violation>
checkOutcome(const Experiment &exp, const Outcome &out)
{
    Checker c{exp, out, {}};
    checkMeasurement(c);
    checkConservation(c);
    checkDecomposition(c);
    checkRpc(c);
    checkTimeline(c);
    checkEngineProfile(c);
    checkTopo(c);
    return std::move(c.v);
}

std::vector<Violation>
checkSketchAccuracy(const metrics::Registry &reg)
{
    std::vector<Violation> v;
    for (const auto &[name, s] : reg.allSketches()) {
        const auto hit = reg.allHistograms().find(name);
        if (hit == reg.allHistograms().end())
            continue;
        const metrics::Histogram &h = hit->second;
        // Same stream: the simulator feeds each sample to both.
        if (s.count() != h.count() ||
            std::fabs(s.sum() - h.sum()) > 1e-6 *
                std::max(1.0, std::fabs(h.sum())) ||
            s.min() != h.min() || s.max() != h.max()) {
            v.push_back({"sketch.stream",
                         "sketch '" + name +
                             "' disagrees with its histogram on "
                             "count/sum/extremes"});
            continue;
        }
        if (s.count() == 0)
            continue;
        // For each quantile, locate the log2 bucket holding the
        // sketch's target rank (floor(q*(n-1)), 0-indexed) — both
        // structures saw the identical stream, so the true sample at
        // that rank lies inside the bucket, and the sketch's
        // alpha-relative estimate must land in the alpha-widened
        // bucket.
        for (double q : {0.50, 0.95, 0.99}) {
            const std::int64_t rank = static_cast<std::int64_t>(
                q * static_cast<double>(s.count() - 1));
            std::int64_t seen = 0;
            int bucket = metrics::Histogram::numBuckets - 1;
            for (int i = 0; i < metrics::Histogram::numBuckets; ++i) {
                seen += h.bucketCount(i);
                if (rank < seen) {
                    bucket = i;
                    break;
                }
            }
            const double lb =
                metrics::Histogram::bucketLowerBound(bucket);
            const double ub = bucket + 1 <
                                      metrics::Histogram::numBuckets
                                  ? metrics::Histogram::bucketLowerBound(
                                        bucket + 1)
                                  : h.max();
            const double a = s.relativeAccuracy();
            const double got = s.quantile(q);
            if (!(got >= lb * (1 - a) - 1e-9 &&
                  got <= ub * (1 + a) + 1e-9))
                v.push_back(
                    {"sketch.quantileBound",
                     "sketch '" + name + "' q=" + fmt(q) + " -> " +
                         fmt(got) + " outside alpha-widened bucket [" +
                         fmt(lb) + ", " + fmt(ub) + "]"});
        }
    }
    return v;
}

CheckResult
checkedRun(const Experiment &exp, const OracleOptions &opts)
{
    CheckResult res;
    res.outcome = runExperiment(exp);
    res.violations = checkOutcome(exp, res.outcome);

    // The timeline, its steady-state stats and the fabric ledger
    // live outside outcomeJson; replica comparisons pin the composite
    // so windowed series and per-link counters must replicate
    // bit-exactly too.
    const auto measuredJson = [](const Outcome &o) {
        return outcomeJson(o) + o.timeline.toJson() + o.stats.toJson();
    };
    const auto fullJson = [&measuredJson](const Outcome &o) {
        return measuredJson(o) + topoJson(o);
    };
    const std::string baseJson = fullJson(res.outcome);

    if (opts.checkTraceIdentity) {
        trace::Tracer tracer;
        tracer.setEnabled(true);
        metrics::Registry registry;
        const Outcome traced =
            runExperiment(exp, &tracer, &registry);
        if (fullJson(traced) != baseJson)
            res.violations.push_back(
                {"determinism.traceIdentity",
                 "outcomeJson differs between trace-off and trace-on "
                 "runs of the same Experiment"});
        // The traced re-run fills the registry's histogram/sketch
        // pairs; check the sketches against their histograms.
        for (Violation &viol : checkSketchAccuracy(registry))
            res.violations.push_back(std::move(viol));
    }

    // The ledger is reported for an explicit topology only, so the
    // default fabric of a multi-node run is audited through its
    // explicit spelling: the same outcome, and a ledger that balances.
    if (opts.checkTraceIdentity && !exp.topo.enabled() &&
        effectiveTopology(exp).nodes >= 2) {
        Experiment spelled = exp;
        spelled.topo = effectiveTopology(exp);
        const Outcome o = runExperiment(spelled);
        if (measuredJson(o) != measuredJson(res.outcome))
            res.violations.push_back(
                {"topo.resolverIdentity",
                 "outcomeJson differs between the default fabric and "
                 "its explicit topology spelling"});
        for (Violation &viol : checkOutcome(spelled, o)) {
            if (viol.invariant.rfind("topo.", 0) == 0)
                res.violations.push_back(std::move(viol));
        }
    }

    if (opts.checkTraceIdentity) {
        // The profiler's pay-for-use contract over the fuzzed
        // surface: flipping engineProfile (either direction) must
        // leave every simulated output bit-identical — the profile
        // itself never enters outcomeJson.
        Experiment flipped = exp;
        flipped.engineProfile = !flipped.engineProfile;
        if (fullJson(runExperiment(flipped)) != baseJson)
            res.violations.push_back(
                {"engprof.payForUse",
                 "outcomeJson differs between engineProfile=" +
                     std::string(exp.engineProfile ? "true"
                                                   : "false") +
                     " and its flip"});
    }

    if (opts.parallelJobs > 1) {
        // Three replicas so the parallel path genuinely runs on the
        // pool (a single-element sweep executes inline).
        const std::vector<Experiment> exps(3, exp);
        const std::vector<Outcome> serial = runSweep(exps, 1);
        const std::vector<Outcome> parallel =
            runSweep(exps, opts.parallelJobs);
        const std::string baseProf =
            res.outcome.engineProfile.deterministicJson();
        for (std::size_t i = 0; i < exps.size(); ++i) {
            const std::string s = fullJson(serial[i]);
            const std::string p = fullJson(parallel[i]);
            if (s != baseJson || p != baseJson) {
                res.violations.push_back(
                    {"determinism.parallelIdentity",
                     "outcomeJson differs across jobs=1 / jobs=" +
                         std::to_string(opts.parallelJobs) +
                         " replica " + std::to_string(i)});
                break;
            }
            // The profile's deterministic subset (counters, dwell
            // sketches of simulated quantities, per-track counts)
            // must replicate too; wall-clock values are excluded by
            // construction.
            if (exp.engineProfile &&
                (serial[i].engineProfile.deterministicJson() !=
                     baseProf ||
                 parallel[i].engineProfile.deterministicJson() !=
                     baseProf)) {
                res.violations.push_back(
                    {"engprof.deterministic",
                     "engine-profile deterministicJson differs "
                     "across replicas (jobs=1 / jobs=" +
                         std::to_string(opts.parallelJobs) +
                         ") replica " + std::to_string(i)});
                break;
            }
        }
    }
    return res;
}

} // namespace hsipc::sim::check
