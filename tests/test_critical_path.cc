/**
 * @file
 * Tests for the causal log and critical-path decomposition: exact
 * accounting on hand-built interval chains, window filtering and
 * aggregation, resource-class folding, and the two load-bearing
 * cross-checks against the simulator — every message's components sum
 * to its measured round trip, and the trace-derived bottleneck agrees
 * with the exact GTPN model's saturating processor on all four
 * architectures.
 */

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace/critical_path.hh"
#include "sim/analysis/bottleneck.hh"
#include "sim/kernel/ipc_sim.hh"

namespace
{

using namespace hsipc;
using trace::CausalLog;
using trace::Component;

// --- Hand-built causal chains ---------------------------------------

TEST(CriticalPath, DisabledLogRecordsNothing)
{
    CausalLog log;
    log.start(1, 0);
    log.interval(1, "cpu", Component::Service, 0, 10);
    log.done(1, 10);
    EXPECT_TRUE(log.records().empty());
}

TEST(CriticalPath, HandBuiltChainDecomposesExactly)
{
    CausalLog log;
    log.setEnabled(true);
    log.start(1, 0);
    log.interval(1, "n0.host0", Component::Service, usToTicks(0),
                 usToTicks(10));
    // Unrecorded gap [10, 14): the message sat in n0.mp's entry queue.
    log.interval(1, "n0.mp", Component::Service, usToTicks(14),
                 usToTicks(20));
    log.interval(1, "net", Component::Network, usToTicks(20),
                 usToTicks(30));
    log.interval(1, "n0.svc", Component::Blocked, usToTicks(30),
                 usToTicks(35));
    log.interval(1, "n0.host0", Component::Service, usToTicks(35),
                 usToTicks(40));
    log.done(1, usToTicks(40));

    const trace::MessagePath p =
        trace::reconstructPath(1, log.records().at(1));
    EXPECT_DOUBLE_EQ(p.roundTripUs, 40.0);
    EXPECT_DOUBLE_EQ(p.serviceUs, 21.0); // 10 + 6 + 5
    EXPECT_DOUBLE_EQ(p.queueUs, 4.0);    // the gap, as queueing
    EXPECT_DOUBLE_EQ(p.networkUs, 10.0);
    EXPECT_DOUBLE_EQ(p.blockedUs, 5.0);
    // The partition is gapless and exact.
    EXPECT_DOUBLE_EQ(p.serviceUs + p.queueUs + p.networkUs +
                         p.blockedUs,
                     p.roundTripUs);

    // The gap was charged as queueing on the *next* interval's
    // resource, and the medium's transit counts as its service.
    EXPECT_DOUBLE_EQ(p.queueUsByResource.at("n0.mp"), 4.0);
    EXPECT_DOUBLE_EQ(p.serviceUsByResource.at("n0.host0"), 15.0);
    EXPECT_DOUBLE_EQ(p.serviceUsByResource.at("n0.mp"), 6.0);
    EXPECT_DOUBLE_EQ(p.serviceUsByResource.at("net"), 10.0);
    ASSERT_EQ(p.segments.size(), 6u); // 5 intervals + 1 filled gap

    // Segments tile [start, end) with no holes.
    Tick cursor = p.start;
    for (const trace::PathSegment &s : p.segments) {
        EXPECT_EQ(s.begin, cursor);
        cursor = s.end;
    }
    EXPECT_EQ(cursor, p.end);
}

TEST(CriticalPath, TrailingGapStaysVisibleAsBlocked)
{
    CausalLog log;
    log.setEnabled(true);
    log.start(7, 0);
    log.interval(7, "cpu", Component::Service, 0, usToTicks(10));
    log.done(7, usToTicks(25));

    const trace::MessagePath p =
        trace::reconstructPath(7, log.records().at(7));
    EXPECT_DOUBLE_EQ(p.blockedUs, 15.0);
    ASSERT_EQ(p.segments.size(), 2u);
    EXPECT_EQ(p.segments.back().resource, "unattributed");
    EXPECT_DOUBLE_EQ(p.serviceUs + p.queueUs + p.networkUs +
                         p.blockedUs,
                     p.roundTripUs);
}

TEST(CriticalPath, ZeroLengthIntervalsCarryNoTime)
{
    CausalLog log;
    log.setEnabled(true);
    log.start(1, 0);
    log.interval(1, "cpu", Component::Service, usToTicks(5),
                 usToTicks(5)); // empty: dropped
    log.interval(1, "cpu", Component::Service, usToTicks(5),
                 usToTicks(9));
    log.done(1, usToTicks(9));
    EXPECT_EQ(log.records().at(1).intervals.size(), 1u);
}

TEST(CriticalPath, DecomposeFiltersWindowAndAggregates)
{
    CausalLog log;
    log.setEnabled(true);
    // Three identical 10-us messages completing at 10, 110, 210 us;
    // only the middle one ends inside the (100, 200] window.
    for (long m = 1; m <= 3; ++m) {
        const Tick base = usToTicks(100) * (m - 1);
        log.start(m, base);
        log.interval(m, "n0.mp", Component::Service, base,
                     base + usToTicks(6));
        log.interval(m, "net", Component::Network,
                     base + usToTicks(6), base + usToTicks(10));
        log.done(m, base + usToTicks(10));
    }
    // A fourth message never completes: skipped.
    log.start(4, usToTicks(150));

    const trace::Decomposition d =
        trace::decompose(log, usToTicks(100), usToTicks(200));
    EXPECT_EQ(d.messages, 1);
    EXPECT_DOUBLE_EQ(d.roundTrip.meanUs, 10.0);
    EXPECT_DOUBLE_EQ(d.service.meanUs, 6.0);
    EXPECT_DOUBLE_EQ(d.network.meanUs, 4.0);
    EXPECT_DOUBLE_EQ(d.queue.meanUs, 0.0);
    EXPECT_EQ(d.bottleneck, "n0.mp");
    EXPECT_DOUBLE_EQ(d.bottleneckShare, 0.6);

    // The whole run: all three messages, same means.
    const trace::Decomposition all =
        trace::decompose(log, 0, usToTicks(1000));
    EXPECT_EQ(all.messages, 3);
    EXPECT_DOUBLE_EQ(all.roundTrip.meanUs, 10.0);
    EXPECT_DOUBLE_EQ(all.serviceUsByResource.at("n0.mp"), 6.0);
}

TEST(CriticalPath, PercentilesFollowSimulatorConvention)
{
    CausalLog log;
    log.setEnabled(true);
    // 100 messages with round trips 1..100 us.
    for (long m = 1; m <= 100; ++m) {
        const Tick base = usToTicks(10 * m);
        log.start(m, base);
        log.interval(m, "cpu", Component::Service, base,
                     base + usToTicks(static_cast<double>(m)));
        log.done(m, base + usToTicks(static_cast<double>(m)));
    }
    const trace::Decomposition d =
        trace::decompose(log, 0, usToTicks(100000));
    ASSERT_EQ(d.messages, 100);
    // sorted[n/2], sorted[(n*95)/100], sorted[(n*99)/100].
    EXPECT_DOUBLE_EQ(d.roundTrip.p50Us, 51.0);
    EXPECT_DOUBLE_EQ(d.roundTrip.p95Us, 96.0);
    EXPECT_DOUBLE_EQ(d.roundTrip.p99Us, 100.0);
    EXPECT_LE(d.roundTrip.p50Us, d.roundTrip.p95Us);
    EXPECT_LE(d.roundTrip.p95Us, d.roundTrip.p99Us);
}

// --- Resource-class folding -----------------------------------------

TEST(Bottleneck, ClassifiesSimulatorResourceNames)
{
    using sim::analysis::ResourceClass;
    using sim::analysis::classifyResource;
    EXPECT_EQ(classifyResource("n0.host0"), ResourceClass::Host);
    EXPECT_EQ(classifyResource("n1.host2"), ResourceClass::Host);
    EXPECT_EQ(classifyResource("n0.mp"), ResourceClass::Mp);
    EXPECT_EQ(classifyResource("n0.busTcb"), ResourceClass::Bus);
    EXPECT_EQ(classifyResource("n1.busKb"), ResourceClass::Bus);
    EXPECT_EQ(classifyResource("n0.nicIn"), ResourceClass::Dma);
    EXPECT_EQ(classifyResource("n1.nicOut"), ResourceClass::Dma);
    EXPECT_EQ(classifyResource("net"), ResourceClass::Network);
    EXPECT_EQ(classifyResource("net.n0->n1"), ResourceClass::Network);
    EXPECT_EQ(classifyResource("n0.svc"), ResourceClass::Other);
    EXPECT_EQ(classifyResource("unattributed"), ResourceClass::Other);
}

TEST(Bottleneck, TraceBottleneckFoldsClasses)
{
    using sim::analysis::ResourceClass;
    trace::Decomposition d;
    d.serviceUsByResource["n0.host0"] = 10;
    d.serviceUsByResource["n1.host0"] = 10;
    d.serviceUsByResource["n0.mp"] = 15;
    d.queueUsByResource["n0.mp"] = 30;
    d.queueUsByResource["n0.busTcb"] = 2;
    const auto shares = sim::analysis::classShares(d);
    EXPECT_DOUBLE_EQ(shares.at(ResourceClass::Host), 20.0);
    EXPECT_DOUBLE_EQ(shares.at(ResourceClass::Mp), 45.0);
    EXPECT_DOUBLE_EQ(shares.at(ResourceClass::Bus), 2.0);
    EXPECT_EQ(sim::analysis::traceBottleneck(d), ResourceClass::Mp);
}

TEST(Bottleneck, GtpnSaturationFindsTheLoadedProcessor)
{
    using sim::analysis::ResourceClass;
    // Architecture I has only the host.
    const auto uni = sim::analysis::gtpnSaturation(models::Arch::I, 2, 0);
    EXPECT_EQ(uni.bottleneck, ResourceClass::Host);
    EXPECT_GT(uni.hostUtil, 0.5);
    EXPECT_EQ(uni.mpUtil, 0.0);

    // At maximum communication the MP's stage means dominate the
    // host syscalls under architecture II...
    const auto mp = sim::analysis::gtpnSaturation(models::Arch::II, 2, 0);
    EXPECT_EQ(mp.bottleneck, ResourceClass::Mp);
    EXPECT_GT(mp.mpUtil, mp.hostUtil);

    // ...but a long server computation shifts saturation to the host,
    // which owns the compute stage.
    const auto host =
        sim::analysis::gtpnSaturation(models::Arch::II, 2, 20000);
    EXPECT_EQ(host.bottleneck, ResourceClass::Host);
    EXPECT_GT(host.hostUtil, host.mpUtil);
}

// --- Simulator integration ------------------------------------------

TEST(SimDecomposition, ComponentsSumToMeasuredRoundTrip)
{
    sim::Experiment e;
    e.arch = models::Arch::II;
    e.conversations = 3;
    e.computeUs = 1000;
    e.topo.nodes = 2;
    e.topo.linkLatencyUs = 50;
    e.warmupUs = 20000;
    e.measureUs = 200000;
    e.decomposeLatency = true;
    const sim::Outcome o = sim::runExperiment(e);
    ASSERT_GT(o.roundTrips, 0);

    const trace::Decomposition &d = o.decomposition;
    EXPECT_EQ(d.messages, o.roundTrips);
    // Each message's partition is exact, so the means partition the
    // mean round trip (acceptance bound is 1%; construction gives
    // floating-point exactness).
    const double sum = d.service.meanUs + d.queue.meanUs +
                       d.network.meanUs + d.blocked.meanUs;
    EXPECT_NEAR(sum, d.roundTrip.meanUs, 1e-6 * d.roundTrip.meanUs);
    EXPECT_NEAR(d.roundTrip.meanUs, o.meanRoundTripUs,
                1e-6 * o.meanRoundTripUs);
    EXPECT_GT(d.service.meanUs, 0);
    EXPECT_GT(d.network.meanUs, 0);
    EXPECT_FALSE(d.bottleneck.empty());
    EXPECT_GT(d.bottleneckShare, 0);
    EXPECT_LE(d.bottleneckShare, 1.0);

    // Per-resource shares re-sum to the component means.
    double svc_by_res = 0;
    for (const auto &[res, us] : d.serviceUsByResource)
        svc_by_res += us;
    EXPECT_NEAR(svc_by_res, d.service.meanUs + d.network.meanUs,
                1e-6 * svc_by_res);
    double q_by_res = 0;
    for (const auto &[res, us] : d.queueUsByResource)
        q_by_res += us;
    EXPECT_NEAR(q_by_res, d.queue.meanUs,
                1e-6 * std::max(q_by_res, 1.0));
}

TEST(SimDecomposition, RetransmissionWaitIsChargedToNetwork)
{
    sim::Experiment e;
    e.arch = models::Arch::II;
    e.conversations = 1;
    e.computeUs = 500;
    e.topo.nodes = 2;
    e.topo.linkLatencyUs = 10;
    e.reliableProtocol = true;
    e.warmupUs = 20000;
    e.measureUs = 300000;
    e.seed = 5;
    e.decomposeLatency = true;
    const sim::Outcome clean = sim::runExperiment(e);
    ASSERT_GT(clean.roundTrips, 0);

    e.lossRate = 0.3;
    const sim::Outcome lossy = sim::runExperiment(e);
    ASSERT_GT(lossy.roundTrips, 0);
    ASSERT_GT(lossy.retransmissions, 0);

    // Every timeout-and-resend waits inside the message's single
    // Network interval, so recovery time lands on the network
    // component (the first RTO alone is 5000 us)...
    EXPECT_GT(lossy.decomposition.network.meanUs,
              clean.decomposition.network.meanUs + 1000);
    // ...and not on the endpoints' service, which stays in the same
    // ballpark (protocol processing runs untagged; it can only stretch
    // queueing, not service).
    EXPECT_LT(lossy.decomposition.service.meanUs,
              2.0 * clean.decomposition.service.meanUs);
}

TEST(SimDecomposition, BottleneckAgreesWithGtpnOnAllArchitectures)
{
    using sim::analysis::ResourceClass;
    for (models::Arch arch : {models::Arch::I, models::Arch::II,
                              models::Arch::III, models::Arch::IV}) {
        // The max-communication workload: local conversations, no
        // server computation.
        const int conversations = 4;
        sim::Experiment e;
        e.arch = arch;
        e.local = true;
        e.conversations = conversations;
        e.computeUs = 0;
        e.warmupUs = 20000;
        e.measureUs = 200000;
        e.decomposeLatency = true;
        const sim::Outcome o = sim::runExperiment(e);
        ASSERT_GT(o.roundTrips, 0) << "arch " << archName(arch);

        const auto model =
            sim::analysis::gtpnSaturation(arch, conversations, 0);
        const ResourceClass traced =
            sim::analysis::traceBottleneck(o.decomposition);
        EXPECT_EQ(traced, model.bottleneck)
            << "arch " << archName(arch) << ": trace says "
            << sim::analysis::resourceClassName(traced)
            << ", GTPN says "
            << sim::analysis::resourceClassName(model.bottleneck)
            << " (host " << model.hostUtil << ", mp " << model.mpUtil
            << ")";
    }
}

} // namespace
