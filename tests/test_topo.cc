/**
 * @file
 * Tests of the topology layer (sim/topo), the simulator's only
 * network medium: the default two-node fabric a remote run resolves
 * to is the explicit 2-node mesh byte for byte, the mesh and the
 * one-segment ring reproduce the pinned numbers of the fixed-wire and
 * two-station-ring media they replaced, placement policies land
 * conversations where specified, every topology kind keeps the
 * per-link/per-router flow-conservation ledger balanced, and the
 * ledger itself behaves (empty on one node, replicated bit-exactly
 * across jobs; reported only for an explicit topology).
 */

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "sim/check/invariants.hh"
#include "sim/kernel/ipc_sim.hh"
#include "sim/runner/sweep_runner.hh"
#include "sim/topo/topology.hh"

namespace
{

using namespace hsipc;
using namespace hsipc::sim;

/**
 * The classic two-node remote workload, spelled without a topology:
 * effectiveTopology() resolves it to the zero-latency 2-node mesh.
 */
Experiment
implicitRemote(int arch)
{
    Experiment e;
    e.arch = static_cast<models::Arch>(arch);
    e.local = false;
    e.conversations = 2;
    e.computeUs = 200;
    e.warmupUs = 2000;
    e.measureUs = 20000;
    e.seed = 99 + static_cast<std::uint64_t>(arch);
    return e;
}

/** The same workload on an explicit 2-node mesh. */
Experiment
explicitMesh(const Experiment &e, double linkLatencyUs)
{
    Experiment m = e;
    m.topo.nodes = 2;
    m.topo.kind = 0; // point-to-point mesh
    m.topo.linkLatencyUs = linkLatencyUs;
    m.topo.placement = 0; // classic: every conversation is 0 -> 1
    return m;
}

/**
 * Round trips, mean round trip and a third per-case counter that
 * the retired fixed-wire medium (wireUs = 150) produced for
 * implicitRemote(arch); the 150 us mesh must reproduce them exactly.
 */
struct Pinned
{
    long roundTrips;
    double meanRoundTripUs;
    long third;
};

void
expectPinned(const Outcome &o, const Pinned &p, long third, int arch)
{
    EXPECT_EQ(o.roundTrips, p.roundTrips) << "arch " << arch;
    EXPECT_EQ(o.meanRoundTripUs, p.meanRoundTripUs) << "arch " << arch;
    EXPECT_EQ(third, p.third) << "arch " << arch;
}

TEST(TopoDegenerate, TwoNodeMeshMatchesLegacyBytesOnEveryArch)
{
    // Third column: round trips again (the fault-free run has no
    // other nonzero counter worth pinning).
    const Pinned wire150[] = {{4, 0x1.3424e66666666p+13, 4},
                              {4, 0x1.12ff5f3b645a2p+13, 4},
                              {6, 0x1.a0df6bdc80576p+12, 6},
                              {6, 0x1.9f77e2a53490bp+12, 6}};
    for (int arch = 1; arch <= 4; ++arch) {
        const Experiment e = implicitRemote(arch);
        EXPECT_EQ(outcomeJson(runExperiment(e)),
                  outcomeJson(runExperiment(explicitMesh(e, 0))))
            << "arch " << arch;
        const Outcome o = runExperiment(explicitMesh(e, 150));
        expectPinned(o, wire150[arch - 1], o.roundTrips, arch);
    }
}

TEST(TopoDegenerate, MatchesLegacyUnderFaults)
{
    // Third column: retransmissions.
    const Pinned wire150[] = {{2, 0x1.08e9fe76c8b44p+14, 3},
                              {2, 0x1.82d999999999ap+13, 5},
                              {4, 0x1.23a790e560418p+13, 4},
                              {4, 0x1.129dad916872ap+13, 1}};
    for (int arch = 1; arch <= 4; ++arch) {
        Experiment e = implicitRemote(arch);
        e.lossRate = 0.1;
        e.corruptRate = 0.05;
        e.duplicateRate = 0.05;
        e.retransmitTimeoutUs = 2000;
        EXPECT_EQ(outcomeJson(runExperiment(e)),
                  outcomeJson(runExperiment(explicitMesh(e, 0))))
            << "arch " << arch;
        const Outcome o = runExperiment(explicitMesh(e, 150));
        expectPinned(o, wire150[arch - 1], o.retransmissions, arch);
    }
}

TEST(TopoDegenerate, MatchesLegacyWithTheReliableProtocol)
{
    // Third column: acknowledgements sent over the whole run.
    const Pinned wire150[] = {{2, 0x1.98f5ee978d4fep+13, 6},
                              {3, 0x1.5c10e6bdc8058p+13, 8},
                              {4, 0x1.067234bc6a7fp+13, 10},
                              {4, 0x1.05ca1a1cac083p+13, 10}};
    for (int arch = 1; arch <= 4; ++arch) {
        Experiment e = implicitRemote(arch);
        e.reliableProtocol = true;
        EXPECT_EQ(outcomeJson(runExperiment(e)),
                  outcomeJson(runExperiment(explicitMesh(e, 0))))
            << "arch " << arch;
        const Outcome o = runExperiment(explicitMesh(e, 150));
        expectPinned(o, wire150[arch - 1], o.netTotals.acksSent, arch);
    }
}

TEST(TopoDegenerate, MatchesLegacyEngineProfileDeterministically)
{
    // The implicit and explicit spellings build the same fabric, so
    // the whole deterministic profile — lookahead graph and callback
    // storage included — agrees.
    Experiment e = implicitRemote(2);
    e.engineProfile = true;
    const Outcome a = runExperiment(e);
    const Outcome b = runExperiment(explicitMesh(e, 0));
    EXPECT_EQ(outcomeJson(a), outcomeJson(b));
    EXPECT_EQ(a.engineProfile.deterministicJson(),
              b.engineProfile.deterministicJson());
}

TEST(TopoRing, OneSegmentReproducesTheTwoStationRing)
{
    // The four ring rates of bench/ablation_network_buffers, whose
    // numbers the retired two-station TokenRing medium produced:
    // round trips, mean round trip, ring utilization, mean token wait.
    struct Ring
    {
        double mbps;
        long roundTrips;
        double meanRoundTripUs;
        double util;
        double waitUs;
    };
    const Ring pinned[] = {
        {16, 405, 0x1.ce58f02ffa94p+13, 0x1.a82e87d2c7b89p-7,
         0x1.cac083126e979p-1},
        {4, 402, 0x1.d39e75ed993bdp+13, 0x1.a4bdba0a52696p-5,
         0x1.2dd2f1a9fbe77p+0},
        {1, 404, 0x1.d05572f634c2ap+13, 0x1.a7b0b39192642p-3,
         0x1.209374bc6a7fp+3},
        {0.25, 362, 0x1.035dd786cb6b8p+14, 0x1.7adbb9da56ce1p-1,
         0x1.0c645a1cac083p+9},
    };
    for (const Ring &r : pinned) {
        Experiment e;
        e.arch = models::Arch::II;
        e.conversations = 4;
        e.computeUs = 1710;
        e.topo.nodes = 2;
        e.topo.kind = 2;
        e.topo.segMbps = r.mbps;
        const Outcome o = runExperiment(e);
        EXPECT_EQ(o.roundTrips, r.roundTrips) << r.mbps << " Mb/s";
        EXPECT_EQ(o.meanRoundTripUs, r.meanRoundTripUs)
            << r.mbps << " Mb/s";
        EXPECT_EQ(o.ringUtil, r.util) << r.mbps << " Mb/s";
        EXPECT_EQ(o.ringTokenWaitUs, r.waitUs) << r.mbps << " Mb/s";
    }
}

TEST(TopoRing, StatsCoverEverySegment)
{
    // Bridged segments: utilization is the busiest ring's, and the
    // token wait averages over every packet on every ring — so both
    // are present, bounded, and zero on the other fabric kinds.
    Experiment e;
    e.warmupUs = 1000;
    e.measureUs = 12000;
    e.computeUs = 100;
    e.conversations = 6;
    e.topo.nodes = 6;
    e.topo.kind = 2;
    e.topo.segments = 3;
    e.topo.segMbps = 2;
    e.topo.placement = 1;
    const Outcome ring = runExperiment(e);
    EXPECT_GT(ring.ringUtil, 0.0);
    EXPECT_LE(ring.ringUtil, 1.0);
    EXPECT_GT(ring.ringTokenWaitUs, 0.0);
    e.topo.kind = 1;
    const Outcome star = runExperiment(e);
    EXPECT_EQ(star.ringUtil, 0.0);
    EXPECT_EQ(star.ringTokenWaitUs, 0.0);
}

TEST(TopoLedger, IsEmptyWithoutATopology)
{
    // A local run resolves to one node: no fabric, no ledger.  A
    // remote run on the default fabric reports none either — its
    // topoJson is byte-identical to the one-node run's.
    Experiment local = implicitRemote(1);
    local.local = true;
    const Outcome out = runExperiment(local);
    EXPECT_FALSE(out.topo.enabled);
    EXPECT_TRUE(out.topo.links.empty());
    EXPECT_TRUE(out.topo.routers.empty());
    EXPECT_NE(topoJson(out).find("\"enabled\": false"),
              std::string::npos);
    EXPECT_EQ(topoJson(runExperiment(implicitRemote(1))), topoJson(out));
}

TEST(TopoLedger, DegenerateMeshBooksEveryMessageOnItsLink)
{
    const Outcome out =
        runExperiment(explicitMesh(implicitRemote(1), 150));
    ASSERT_TRUE(out.topo.enabled);
    ASSERT_EQ(out.topo.links.size(), 2u); // n0->n1 and n1->n0
    EXPECT_TRUE(out.topo.routers.empty());
    EXPECT_EQ(out.topo.links[0].name, "n0->n1");
    EXPECT_EQ(out.topo.links[1].name, "n1->n0");
    for (const topo::LinkLedger &l : out.topo.links) {
        EXPECT_GT(l.msgsIn, 0) << l.name;
        EXPECT_EQ(l.msgsIn,
                  l.msgsOut + l.dropped + l.inFlightAtEnd)
            << l.name;
        EXPECT_GT(l.bytesIn, 0) << l.name;
    }
    // Requests flow 0 -> 1 and replies 1 -> 0, one for one (up to
    // whatever is in flight when the horizon closes).
    EXPECT_NEAR(static_cast<double>(out.topo.links[0].msgsIn),
                static_cast<double>(out.topo.links[1].msgsIn), 2.0);
}

TEST(TopoPlacement, PoliciesLandWhereSpecified)
{
    topo::Topology t;
    t.nodes = 8;

    t.placement = 1; // round-robin
    for (long i = 0; i < 16; ++i) {
        const auto [c, s] = topo::placeConversation(t, i, 7);
        EXPECT_EQ(c, static_cast<int>(i % 8));
        EXPECT_EQ(s, static_cast<int>((i + 1) % 8));
    }

    t.placement = 2; // locality: client and server colocated
    for (long i = 0; i < 16; ++i) {
        const auto [c, s] = topo::placeConversation(t, i, 7);
        EXPECT_EQ(c, s);
        EXPECT_EQ(c, static_cast<int>(i % 8));
    }

    t.placement = 0; // classic: everything talks to node 1
    for (long i = 0; i < 16; ++i) {
        const auto [c, s] = topo::placeConversation(t, i, 7);
        EXPECT_EQ(c, 0);
        EXPECT_EQ(s, 1);
    }
}

TEST(TopoPlacement, HotSpotSkewsTowardLowNodesDeterministically)
{
    topo::Topology t;
    t.nodes = 8;
    t.placement = 3;
    t.zipfSkew = 1.2;
    long hits[8] = {0};
    for (long i = 0; i < 4000; ++i) {
        const auto [c, s] = topo::placeConversation(t, i, 11);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, 8);
        ++hits[s];
        // Same seed, same index: the draw is pure.
        const auto again = topo::placeConversation(t, i, 11);
        EXPECT_EQ(again.first, c);
        EXPECT_EQ(again.second, s);
    }
    // Zipf mass concentrates on the first server node.
    EXPECT_GT(hits[0], hits[7] * 2);
}

TEST(TopoRun, EveryKindKeepsTheOracleGreen)
{
    for (int kind : {0, 1, 2}) {
        for (int nodes : {2, 4, 8}) {
            Experiment e;
            e.warmupUs = 1000;
            e.measureUs = 8000;
            e.computeUs = 100;
            e.conversations = nodes;
            e.seed = static_cast<std::uint64_t>(97 * nodes + kind);
            e.topo.nodes = nodes;
            e.topo.kind = kind;
            e.topo.linkLatencyUs = 30;
            e.topo.switchLatencyUs = 5;
            e.topo.segments = 2;
            e.topo.placement = 1;
            const Outcome out = runExperiment(e);
            const auto v = check::checkOutcome(e, out);
            EXPECT_TRUE(v.empty())
                << "kind " << kind << " nodes " << nodes << ":\n"
                << check::formatViolations(v);
            ASSERT_TRUE(out.topo.enabled);
            EXPECT_GT(out.roundTrips, 0)
                << "kind " << kind << " nodes " << nodes;
        }
    }
}

TEST(TopoRun, StarRoutesEveryRemoteMessageThroughTheSwitch)
{
    Experiment e;
    e.warmupUs = 1000;
    e.measureUs = 8000;
    e.computeUs = 100;
    e.conversations = 4;
    e.topo.nodes = 4;
    e.topo.kind = 1;
    e.topo.linkLatencyUs = 20;
    e.topo.switchLatencyUs = 10;
    e.topo.placement = 1;
    const Outcome out = runExperiment(e);
    ASSERT_TRUE(out.topo.enabled);
    ASSERT_EQ(out.topo.routers.size(), 1u);
    const topo::RouterLedger &sw = out.topo.routers[0];
    EXPECT_EQ(sw.name, "sw");
    EXPECT_GT(sw.received, 0);
    EXPECT_EQ(sw.received,
              sw.forwarded + sw.dropped + sw.inFlightAtEnd);
    // Every ingress arrival reaches the switch.
    long ingressOut = 0;
    for (std::size_t i = 0; i < 4; ++i)
        ingressOut += out.topo.links[i].msgsOut;
    EXPECT_EQ(sw.received, ingressOut);
}

TEST(TopoRun, BridgedRingSegmentsCarryCrossTraffic)
{
    Experiment e;
    e.warmupUs = 1000;
    e.measureUs = 12000;
    e.computeUs = 100;
    e.conversations = 6;
    e.topo.nodes = 6;
    e.topo.kind = 2;
    e.topo.segments = 2;
    e.topo.segMbps = 8;
    e.topo.linkLatencyUs = 40;
    e.topo.switchLatencyUs = 5;
    e.topo.placement = 1; // node 2 -> node 3 crosses the bridge
    const Outcome out = runExperiment(e);
    ASSERT_TRUE(out.topo.enabled);
    // 2 ring links + 2 routers + 2 backbone links.
    ASSERT_EQ(out.topo.links.size(), 4u);
    ASSERT_EQ(out.topo.routers.size(), 2u);
    long backbone = 0;
    for (const topo::LinkLedger &l : out.topo.links)
        if (l.name.find("->") != std::string::npos)
            backbone += l.msgsIn;
    EXPECT_GT(backbone, 0) << "no cross-segment traffic bridged";
    for (const topo::RouterLedger &r : out.topo.routers)
        EXPECT_EQ(r.received,
                  r.forwarded + r.dropped + r.inFlightAtEnd)
            << r.name;
}

TEST(TopoRun, MeshLinkOverridesSlowNamedPairsOnly)
{
    Experiment base;
    base.warmupUs = 2000;
    // Long enough for several ~2 ms trips to finish on the slowed
    // link: a window shorter than one slow round trip would measure
    // zero completions and a meaningless mean of zero.
    base.measureUs = 80000;
    base.computeUs = 50;
    base.conversations = 2;
    base.topo.nodes = 2;
    base.topo.kind = 0;
    base.topo.linkLatencyUs = 10;
    base.topo.placement = 0;
    const Outcome fast = runExperiment(base);

    Experiment slowed = base;
    topo::TopoLink l;
    l.a = 0;
    l.b = 1;
    l.latencyUs = 2000; // request path crawls; reply path untouched
    slowed.topo.links.push_back(l);
    const Outcome slow = runExperiment(slowed);
    EXPECT_LT(slow.roundTrips, fast.roundTrips);
    EXPECT_GT(slow.meanRoundTripUs, fast.meanRoundTripUs);
}

TEST(TopoRun, NToNBitIdentityAcrossQueuePolicyAndJobs)
{
    // The trace-on and jobs=1/N identities extend to N-node runs,
    // ledger included (outcomeJson + topoJson both pinned).
    Experiment e;
    e.warmupUs = 1000;
    e.measureUs = 8000;
    e.computeUs = 120;
    e.conversations = 8;
    e.topo.nodes = 8;
    e.topo.kind = 1;
    e.topo.linkLatencyUs = 25;
    e.topo.switchLatencyUs = 8;
    e.topo.placement = 3;
    e.topo.zipfSkew = 1.3;
    check::OracleOptions opts;
    opts.checkTraceIdentity = true;
    opts.parallelJobs = 3;
    const check::CheckResult res = check::checkedRun(e, opts);
    EXPECT_TRUE(res.ok()) << check::formatViolations(res.violations);
}

TEST(TopoRun, LocalityPlacementProducesLocalTraffic)
{
    Experiment e;
    e.warmupUs = 1000;
    e.measureUs = 8000;
    e.computeUs = 100;
    e.conversations = 4;
    e.topo.nodes = 4;
    e.topo.kind = 0;
    e.topo.linkLatencyUs = 30;
    e.topo.placement = 2; // colocated client/server on every node
    const Outcome out = runExperiment(e);
    EXPECT_GT(out.localThroughputPerSec, 0);
    EXPECT_EQ(out.remoteThroughputPerSec, 0);
    for (const topo::LinkLedger &l : out.topo.links)
        EXPECT_EQ(l.msgsIn, 0) << l.name << " used by local traffic";
}

} // namespace
