/**
 * @file
 * Tests of the N-node topology layer (sim/topo): the degenerate
 * two-node topology is byte-identical to the legacy two-node path on
 * every architecture (with and without faults or the reliable
 * protocol), placement policies land conversations where specified,
 * every topology kind keeps the per-link/per-router flow-conservation
 * ledger balanced, and the ledger itself behaves (pay-for-use when
 * off, replicated bit-exactly across queue policies).
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

/** The classic two-node remote workload the topology must subsume. */
Experiment
legacyRemote(int arch)
{
    Experiment e;
    e.arch = static_cast<models::Arch>(arch);
    e.local = false;
    e.conversations = 2;
    e.computeUs = 200;
    e.wireUs = 150;
    e.warmupUs = 2000;
    e.measureUs = 20000;
    e.seed = 99 + static_cast<std::uint64_t>(arch);
    return e;
}

/** The same workload expressed as a degenerate 2-node topology. */
Experiment
degenerate(const Experiment &legacy)
{
    Experiment e = legacy;
    e.topo.nodes = 2;
    e.topo.kind = 0; // point-to-point mesh
    e.topo.linkLatencyUs = legacy.wireUs;
    e.topo.placement = 0; // classic: every conversation is 0 -> 1
    return e;
}

TEST(TopoDegenerate, TwoNodeMeshMatchesLegacyBytesOnEveryArch)
{
    for (int arch = 1; arch <= 4; ++arch) {
        const Experiment legacy = legacyRemote(arch);
        const Experiment two = degenerate(legacy);
        EXPECT_EQ(outcomeJson(runExperiment(legacy)),
                  outcomeJson(runExperiment(two)))
            << "arch " << arch;
    }
}

TEST(TopoDegenerate, MatchesLegacyUnderFaults)
{
    for (int arch = 1; arch <= 4; ++arch) {
        Experiment legacy = legacyRemote(arch);
        legacy.lossRate = 0.1;
        legacy.corruptRate = 0.05;
        legacy.duplicateRate = 0.05;
        legacy.retransmitTimeoutUs = 2000;
        const Experiment two = degenerate(legacy);
        EXPECT_EQ(outcomeJson(runExperiment(legacy)),
                  outcomeJson(runExperiment(two)))
            << "arch " << arch;
    }
}

TEST(TopoDegenerate, MatchesLegacyWithTheReliableProtocol)
{
    for (int arch = 1; arch <= 4; ++arch) {
        Experiment legacy = legacyRemote(arch);
        legacy.reliableProtocol = true;
        const Experiment two = degenerate(legacy);
        EXPECT_EQ(outcomeJson(runExperiment(legacy)),
                  outcomeJson(runExperiment(two)))
            << "arch " << arch;
    }
}

TEST(TopoDegenerate, MatchesLegacyEngineProfileDeterministically)
{
    // The fabric reuses the legacy "wire" profiler origin, so even
    // the lookahead graph of the degenerate topology matches.  The
    // one line excluded is callback storage: the fabric's wrapper
    // captures link bookkeeping around the kernel's delivery
    // callback, so a handful of wire callbacks spill to the heap
    // that fit inline on the legacy path — an allocator internal,
    // not an event-stream observable.
    const auto stripCallbacks = [](std::string json) {
        const std::size_t from = json.find("\"callbacks\"");
        const std::size_t to = json.find('\n', from);
        if (from != std::string::npos && to != std::string::npos)
            json.erase(from, to - from);
        return json;
    };
    Experiment legacy = legacyRemote(2);
    legacy.engineProfile = true;
    const Experiment two = degenerate(legacy);
    const Outcome a = runExperiment(legacy);
    const Outcome b = runExperiment(two);
    EXPECT_EQ(outcomeJson(a), outcomeJson(b));
    EXPECT_EQ(stripCallbacks(a.engineProfile.deterministicJson()),
              stripCallbacks(b.engineProfile.deterministicJson()));
}

TEST(TopoLedger, IsEmptyWithoutATopology)
{
    const Experiment legacy = legacyRemote(1);
    const Outcome out = runExperiment(legacy);
    EXPECT_FALSE(out.topo.enabled);
    EXPECT_TRUE(out.topo.links.empty());
    EXPECT_TRUE(out.topo.routers.empty());
    EXPECT_NE(topoJson(out).find("\"enabled\": false"),
              std::string::npos);
}

TEST(TopoLedger, DegenerateMeshBooksEveryMessageOnItsLink)
{
    const Outcome out = runExperiment(degenerate(legacyRemote(1)));
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
