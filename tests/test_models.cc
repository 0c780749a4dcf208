/**
 * @file
 * Tests for the chapter-6 architecture models: step-table consistency,
 * single-conversation round trips, architecture ordering, contention
 * model, offered loads, and the non-local fixed point.
 */

#include <gtest/gtest.h>

#include "core/gtpn/analyzer.hh"
#include "core/gtpn/simulator.hh"
#include "core/models/contention.hh"
#include "core/models/local_model.hh"
#include "core/models/nonlocal_model.hh"
#include "core/models/mva.hh"
#include "core/models/offered_load.hh"
#include "core/models/processing_times.hh"
#include "core/models/solution.hh"

namespace
{

using namespace hsipc;
using namespace hsipc::models;

TEST(StepTables, ArchILocalRoundTrip)
{
    // Table 6.4 sums to 4970 us of fixed overhead.
    EXPECT_NEAR(roundTripBest(Arch::I, true), 4970.0, 1e-9);
}

TEST(StepTables, BestEqualsProcessingPlusMemory)
{
    for (Arch a : {Arch::I, Arch::II, Arch::III, Arch::IV}) {
        for (bool local : {true, false}) {
            for (const Step &s : stepTable(a, local)) {
                EXPECT_DOUBLE_EQ(s.best(), s.processing + s.shmem());
                if (!s.workload) {
                    EXPECT_GE(s.contention, s.best() - 1e-9)
                        << archName(a) << " step " << s.number;
                }
            }
        }
    }
}

TEST(StepTables, SmartBusReducesRoundTrip)
{
    auto contention_sum = [](Arch a, bool local) {
        double total = 0.0;
        for (const Step &s : stepTable(a, local)) {
            if (!s.workload)
                total += s.contention;
        }
        return total;
    };
    for (bool local : {true, false}) {
        EXPECT_LT(roundTripBest(Arch::III, local),
                  roundTripBest(Arch::II, local));
        // Partitioning the smart bus leaves the contention-free times
        // unchanged; only the contention-inflated times improve.
        EXPECT_DOUBLE_EQ(roundTripBest(Arch::IV, local),
                         roundTripBest(Arch::III, local));
        EXPECT_LT(contention_sum(Arch::IV, local),
                  contention_sum(Arch::III, local));
    }
}

TEST(StepTables, ArchIVSplitsMemoryAccesses)
{
    bool any_kb = false;
    for (const Step &s : stepTable(Arch::IV, false))
        any_kb = any_kb || s.kbAccess > 0;
    EXPECT_TRUE(any_kb);
    for (const Step &s : stepTable(Arch::II, false))
        EXPECT_EQ(s.kbAccess, 0.0);
}

TEST(OpCosts, SmartBusIsFasterForEveryOperation)
{
    for (const OpCost &op : opCostTable()) {
        EXPECT_LT(op.processingIII + op.memoryIII,
                  op.processingII + op.memoryII)
            << op.operation;
    }
}

TEST(LocalModel, ArchISingleConversationRoundTrip)
{
    // One conversation serializes everything through the host, so the
    // mean cycle is exactly the 4970 us fixed overhead.
    const LocalSolution s = solveLocal(Arch::I, 1, 0.0);
    ASSERT_TRUE(s.converged);
    EXPECT_NEAR(1.0 / s.throughputPerUs, 4970.0, 4970.0 * 0.01);
}

TEST(LocalModel, ArchIThroughputIndependentOfConversations)
{
    // §6.9.1: "the throughput for local conversations is the same
    // irrespective of the number of conversations" for arch I.
    const double t1 = solveLocal(Arch::I, 1, 0.0).throughputPerUs;
    const double t3 = solveLocal(Arch::I, 3, 0.0).throughputPerUs;
    EXPECT_NEAR(t3, t1, t1 * 0.02);
}

TEST(LocalModel, ArchIIOneConversationSlightlySlowerThanArchI)
{
    // §6.9.1: the single-conversation loss of the coprocessor split is
    // small (~10%).
    const double t1 = solveLocal(Arch::I, 1, 0.0).throughputPerUs;
    const double t2 = solveLocal(Arch::II, 1, 0.0).throughputPerUs;
    EXPECT_LT(t2, t1);
    EXPECT_GT(t2, t1 * 0.8);
}

TEST(LocalModel, ArchIIScalesWithConversations)
{
    const double t1 = solveLocal(Arch::II, 1, 0.0).throughputPerUs;
    const double t3 = solveLocal(Arch::II, 3, 0.0).throughputPerUs;
    EXPECT_GT(t3, t1 * 1.2);
}

TEST(LocalModel, ArchIIIBeatsBothAtMaxLoad)
{
    const double t1 = solveLocal(Arch::I, 3, 0.0).throughputPerUs;
    const double t2 = solveLocal(Arch::II, 3, 0.0).throughputPerUs;
    const double t3 = solveLocal(Arch::III, 3, 0.0).throughputPerUs;
    EXPECT_GT(t3, t2);
    EXPECT_GT(t3, t1);
}

TEST(LocalModel, TimeScaleInvariance)
{
    SolveConfig fine;
    fine.timeScale = 2.0;
    SolveConfig coarse;
    coarse.timeScale = 8.0;
    const double a = solveLocal(Arch::III, 2, 0.0, fine).throughputPerUs;
    const double b =
        solveLocal(Arch::III, 2, 0.0, coarse).throughputPerUs;
    EXPECT_NEAR(a, b, a * 0.05);
}

TEST(NonlocalModel, SingleConversationMatchesHandAnalysis)
{
    // Arch I, one conversation: client busy C_d ~ 2767.3 us (Table
    // 6.6 client-node actions) and total cycle C_d + S_d.
    const NonlocalSolution s = solveNonlocal(Arch::I, 1, 0.0);
    ASSERT_TRUE(s.converged);
    const double cycle = 1.0 / s.throughputPerUs;
    // Client-node work: 1314.9 + 235.2 + 235.2 + 982 = 2767.3.
    EXPECT_NEAR(s.clientBusy, 2767.3, 2767.3 * 0.05);
    // Server side: match + reply + DMAs ~ 3823.5 (receive overlapped).
    EXPECT_NEAR(cycle, 2767.3 + 3823.5, (2767.3 + 3823.5) * 0.06);
}

TEST(NonlocalModel, FixedPointConverges)
{
    for (Arch a : {Arch::I, Arch::II}) {
        const NonlocalSolution s = solveNonlocal(a, 2, 1140.0);
        EXPECT_TRUE(s.converged) << archName(a);
        EXPECT_GT(s.throughputPerUs, 0.0);
        EXPECT_GT(s.serverDelay, 0.0);
    }
}

TEST(NonlocalModel, UnfinishedStationarySolveIsNotConverged)
{
    // Two sweeps end every stationary solve before its first
    // convergence check, so however quickly S_d settles, the fixed
    // point is not converged.
    SolveConfig cfg;
    cfg.analyzer.solve.maxSweeps = 2;
    const NonlocalSolution s = solveNonlocal(Arch::II, 2, 1140.0, cfg);
    EXPECT_FALSE(s.converged);
    EXPECT_GT(s.throughputPerUs, 0.0);
}

TEST(NonlocalModel, ArchIIIBeatsIAtMaxLoad)
{
    const double t1 = solveNonlocal(Arch::I, 3, 0.0).throughputPerUs;
    const double t3 = solveNonlocal(Arch::III, 3, 0.0).throughputPerUs;
    EXPECT_GT(t3, t1 * 1.3);
}

TEST(NonlocalModel, ValidationConfigBuilds)
{
    const NonlocalSolution s = solveNonlocalCustom(
        validationClientParams(), validationServerParams(), 2, 2850.0,
        2);
    EXPECT_TRUE(s.converged);
    EXPECT_GT(s.throughputPerUs, 0.0);
}

TEST(Contention, InflatesBusyActivities)
{
    const ContentionResult r = solveContention(archIClientActivities());
    ASSERT_EQ(r.contention.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GT(r.contention[i], r.best[i] * 0.999);
        // Inflation stays modest (Table 6.2 reports ~2%).
        EXPECT_LT(r.contention[i], r.best[i] * 1.15);
    }
}

TEST(Contention, NoContentionForSingleActivity)
{
    const ContentionResult r =
        solveContention({{"Solo", 100, 20, 0}});
    // In isolation the completion time equals best.
    EXPECT_NEAR(r.contention[0], r.best[0], r.best[0] * 0.02);
}

TEST(Contention, PartitionedBusReducesInterference)
{
    std::vector<Activity> both = {
        {"A", 100, 60, 0},
        {"B", 100, 60, 0},
    };
    std::vector<Activity> split = {
        {"A", 100, 60, 0},
        {"B", 100, 60, 1},
    };
    const double together = solveContention(both, 1).contention[0];
    const double apart = solveContention(split, 2).contention[0];
    EXPECT_LT(apart, together);
}

TEST(OfferedLoad, MonotoneDecreasingInServerTime)
{
    SolveConfig cfg;
    double prev = 1.1;
    for (double ms : {0.0, 0.57, 5.7, 45.6}) {
        const double load = offeredLoad(Arch::I, true, ms * 1000.0, cfg);
        EXPECT_LT(load, prev);
        prev = load;
    }
    EXPECT_DOUBLE_EQ(offeredLoad(Arch::I, true, 0.0), 1.0);
}

TEST(OfferedLoad, ArchILocalMatchesPaper)
{
    // Table 6.24 row 5.7 ms: offered load 0.466 for architecture I.
    const double load = offeredLoad(Arch::I, true, 5700.0);
    EXPECT_NEAR(load, 0.466, 0.02);
}

TEST(OfferedLoad, ServerTimeInversion)
{
    const double load = 0.6;
    const double s = serverTimeForLoad(Arch::II, true, load);
    EXPECT_NEAR(offeredLoad(Arch::II, true, s), load, 1e-9);
}


// --- Mean Value Analysis cross-check -------------------------------------

TEST(Mva, SingleStationSingleCustomer)
{
    // One customer, one queueing station: X = 1/D.
    const MvaResult r = solveMva({{"S", 100.0, false}}, 1);
    EXPECT_NEAR(r.throughputPerUs, 0.01, 1e-12);
    EXPECT_NEAR(r.cycleTimeUs, 100.0, 1e-12);
}

TEST(Mva, DelayStationDoesNotQueue)
{
    // Station + think time: interactive-system formula
    // X(N) with Z: R grows only at the queueing station.
    const std::vector<Station> st = {{"CPU", 50.0, false},
                                     {"Think", 200.0, true}};
    const MvaResult r1 = solveMva(st, 1);
    EXPECT_NEAR(r1.throughputPerUs, 1.0 / 250.0, 1e-12);
    const MvaResult r8 = solveMva(st, 8);
    // Asymptotically bounded by 1/D_max = 1/50.
    EXPECT_LT(r8.throughputPerUs, 1.0 / 50.0 + 1e-12);
    EXPECT_GT(r8.throughputPerUs, r1.throughputPerUs * 2.0);
}

TEST(Mva, UtilizationLawHolds)
{
    const std::vector<Station> st = {{"A", 30.0, false},
                                     {"B", 70.0, false}};
    const MvaResult r = solveMva(st, 5);
    EXPECT_NEAR(r.utilization[0], r.throughputPerUs * 30.0, 1e-12);
    EXPECT_LE(r.utilization[1], 1.0 + 1e-9);
    // Little's law: sum of queue lengths equals the population.
    EXPECT_NEAR(r.queueLength[0] + r.queueLength[1], 5.0, 1e-9);
}

TEST(Mva, MatchesGtpnForSingleConversation)
{
    // With one customer there is no queueing anywhere, so MVA and the
    // GTPN agree up to the rendezvous overlap of the receive stage.
    const double mva = mvaLocalThroughput(Arch::II, 1, 0.0);
    const double gtpn = solveLocal(Arch::II, 1, 0.0).throughputPerUs;
    EXPECT_NEAR(mva, gtpn, gtpn * 0.10);
}

TEST(Mva, OverPredictsUnderContention)
{
    // MVA has no rendezvous barrier: at several conversations it must
    // be at least as optimistic as the GTPN.
    const double mva = mvaLocalThroughput(Arch::II, 4, 0.0);
    const double gtpn = solveLocal(Arch::II, 4, 0.0).throughputPerUs;
    EXPECT_GT(mva, gtpn * 0.99);
}

TEST(Mva, ArchIBoundedByHostDemand)
{
    // A single station: X(N) saturates at 1/D for every N.
    const double d = 4970.0;
    for (int n : {1, 2, 4}) {
        EXPECT_NEAR(mvaLocalThroughput(Arch::I, n, 0.0), 1.0 / d,
                    1e-9);
    }
}

// --- Extension features ---------------------------------------------------

TEST(Extensions, ScaleMpSpeedOnlyTouchesMpStages)
{
    const LocalParams base = localParams(Arch::II);
    const LocalParams fast = scaleMpSpeed(base, 2.0);
    EXPECT_DOUBLE_EQ(fast.sendSyscall, base.sendSyscall);
    EXPECT_DOUBLE_EQ(fast.hostReplyBase, base.hostReplyBase);
    EXPECT_DOUBLE_EQ(fast.mpSend, base.mpSend / 2.0);
    EXPECT_DOUBLE_EQ(fast.mpReply, base.mpReply / 2.0);
    // Architecture I is untouched.
    const LocalParams uni = scaleMpSpeed(localParams(Arch::I), 2.0);
    EXPECT_DOUBLE_EQ(uni.uniSend, localParams(Arch::I).uniSend);
}

TEST(Extensions, FasterMpImprovesThroughput)
{
    const double base =
        solveLocalCustom(localParams(Arch::II), 4, 0.0, 1)
            .throughputPerUs;
    const double fast =
        solveLocalCustom(scaleMpSpeed(localParams(Arch::II), 2.0), 4,
                         0.0, 1)
            .throughputPerUs;
    EXPECT_GT(fast, base * 1.4);
}

TEST(Extensions, SecondHostHelpsOnlyUntilMpSaturates)
{
    // Chapter-7 shape: going 1 -> 2 hosts helps; 2 -> 3 barely does,
    // because the single MP is the bottleneck.
    const LocalParams p = localParams(Arch::II);
    const double h1 =
        solveLocalCustom(p, 4, 1710.0, 1).throughputPerUs;
    const double h2 =
        solveLocalCustom(p, 4, 1710.0, 2).throughputPerUs;
    EXPECT_GT(h2, h1 * 1.02);
    const double h3 =
        solveLocalCustom(p, 4, 1710.0, 3).throughputPerUs;
    EXPECT_LT(h3, h2 * 1.05);
}

// Parameterized invariants over architectures and populations.
class ModelInvariants
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ModelInvariants, ThroughputMonotoneInComputeTime)
{
    const auto [arch_i, n] = GetParam();
    const Arch a = static_cast<Arch>(arch_i);
    const double t0 = solveLocal(a, n, 0.0).throughputPerUs;
    const double t1 = solveLocal(a, n, 2850.0).throughputPerUs;
    const double t2 = solveLocal(a, n, 11400.0).throughputPerUs;
    EXPECT_GT(t0, t1);
    EXPECT_GT(t1, t2);
}

TEST_P(ModelInvariants, ThroughputMonotoneInConversations)
{
    const auto [arch_i, n] = GetParam();
    const Arch a = static_cast<Arch>(arch_i);
    if (n <= 1)
        return;
    const double fewer = solveLocal(a, n - 1, 1140.0).throughputPerUs;
    const double more = solveLocal(a, n, 1140.0).throughputPerUs;
    EXPECT_GE(more, fewer * 0.999);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelInvariants,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3)));


TEST(Extensions, OffloadFractionOneIsArchitectureII)
{
    const double off =
        solveLocalCustom(offloadParams(1.0, 1.0), 3, 1140.0, 1)
            .throughputPerUs;
    const double a2 = solveLocal(Arch::II, 3, 1140.0).throughputPerUs;
    EXPECT_NEAR(off, a2, a2 * 0.02);
}

TEST(Extensions, OffloadMonotoneForFastFrontEnd)
{
    double prev = 0.0;
    for (double f : {0.0, 0.5, 1.0}) {
        const double thr =
            solveLocalCustom(offloadParams(f, 2.0), 3, 0.0, 1)
                .throughputPerUs;
        EXPECT_GE(thr, prev * 0.995) << "fraction " << f;
        prev = thr;
    }
}

TEST(Extensions, ZeroOffloadCarriesFullCostOnHost)
{
    // fraction 0: the host does all of architecture II's work, so the
    // result must be below architecture I (which has cheaper stages).
    const double off =
        solveLocalCustom(offloadParams(0.0, 1.0), 2, 0.0, 1)
            .throughputPerUs;
    const double a1 = solveLocal(Arch::I, 2, 0.0).throughputPerUs;
    EXPECT_LT(off, a1);
}


TEST(NonlocalModel, SmartBusArchsConvergeToo)
{
    for (Arch a : {Arch::III, Arch::IV}) {
        const NonlocalSolution s = solveNonlocal(a, 2, 570.0);
        EXPECT_TRUE(s.converged) << archName(a);
        EXPECT_GT(s.throughputPerUs, 0.0);
    }
}

TEST(NonlocalModel, ValidationTwoHostsBeatOne)
{
    const NonlocalSolution one = solveNonlocalCustom(
        validationClientParams(), validationServerParams(), 3, 1140.0,
        1);
    const NonlocalSolution two = solveNonlocalCustom(
        validationClientParams(), validationServerParams(), 3, 1140.0,
        2);
    EXPECT_GT(two.throughputPerUs, one.throughputPerUs);
}

TEST(OfferedLoad, CommunicationTimeIsCached)
{
    const double a = communicationTime(Arch::III, true);
    const double b = communicationTime(Arch::III, true);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 3000.0);
    EXPECT_LT(a, 4500.0);
}

TEST(OfferedLoad, NonlocalMatchesPaperSpotRow)
{
    // Table 6.25 row 5.7 ms, architecture III: 0.474.
    EXPECT_NEAR(offeredLoad(Arch::III, false, 5700.0), 0.474, 0.02);
}


TEST(LocalModel, AnalyzerAgreesWithMonteCarloOnArchIII)
{
    // The architecture net itself, exact vs sampled token game.
    const LocalModel m =
        buildLocalModel(localParams(Arch::III), 2, 570.0, 20.0);
    const gtpn::AnalyzerResult exact = gtpn::analyze(m.net);
    gtpn::SimOptions opts;
    opts.horizon = 300000;
    opts.seed = 99;
    const gtpn::SimResult sim = gtpn::simulate(m.net, opts);
    EXPECT_NEAR(sim.usage(lambdaResource),
                exact.usage(lambdaResource),
                exact.usage(lambdaResource) * 0.05);
}

} // namespace
