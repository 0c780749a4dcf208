/**
 * @file
 * Tests of the property-based fuzzing stack (sim/check): generator
 * validity and coverage, the invariant oracle staying green on the
 * shipped simulator, the three-engine differential agreement, the
 * shrinker's minimization behavior — and the end-to-end acceptance
 * case: a deliberately planted off-by-one in retransmission counting
 * is caught by the conservation oracle and shrunk to a <= 5-knob
 * minimal repro whose JSON replays.
 */

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/check/differential.hh"
#include "sim/check/experiment_json.hh"
#include "sim/check/generator.hh"
#include "sim/check/invariants.hh"
#include "sim/check/shrink.hh"
#include "sim/check/test_hooks.hh"

namespace
{

using namespace hsipc;
using namespace hsipc::sim;
using namespace hsipc::sim::check;

TEST(Generator, IsDeterministicInSeedAndIndex)
{
    const ExperimentGenerator a(7), b(7), c(8);
    for (std::uint64_t i = 0; i < 20; ++i) {
        EXPECT_TRUE(a.generate(i) == b.generate(i)) << i;
        EXPECT_FALSE(a.generate(i) == c.generate(i)) << i;
    }
}

TEST(Generator, CoversTheConfigurationSurface)
{
    const ExperimentGenerator gen(1);
    std::set<int> archs;
    int locals = 0, remotes = 0, mixeds = 0, faulty = 0, rings = 0;
    int crashes = 0, decomposed = 0, multiHost = 0;
    int poisson = 0, pareto = 0, deadlines = 0, retries = 0;
    int capped = 0, rtoCeil = 0;
    std::set<int> shedPolicies;
    std::set<int> topoKinds, topoPlacements, topoNodes;
    int topoOn = 0, topoLinks = 0, topoBig = 0;
    for (std::uint64_t i = 0; i < 300; ++i) {
        const Experiment e = gen.generate(i);
        archs.insert(static_cast<int>(e.arch));
        const bool mixed = e.mixedLocal + e.mixedRemote > 0;
        if (mixed)
            ++mixeds;
        else if (e.local)
            ++locals;
        else
            ++remotes;
        if (e.lossRate > 0 || e.corruptRate > 0 ||
            e.duplicateRate > 0 || e.reorderRate > 0)
            ++faulty;
        if (e.topo.enabled() && e.topo.kind == 2)
            ++rings;
        if (!e.crashSchedule.empty())
            ++crashes;
        if (e.decomposeLatency)
            ++decomposed;
        if (e.hostsPerNode > 1)
            ++multiHost;
        if (e.arrivalMode == 1)
            ++poisson;
        if (e.arrivalMode == 2)
            ++pareto;
        if (e.deadlineUs > 0)
            ++deadlines;
        if (e.retryBudget > 0)
            ++retries;
        if (e.svcQueueCap > 0) {
            ++capped;
            shedPolicies.insert(e.shedPolicy);
        }
        if (e.rtoMaxUs != Experiment().rtoMaxUs)
            ++rtoCeil;
        if (e.topo.enabled()) {
            ++topoOn;
            topoKinds.insert(e.topo.kind);
            topoPlacements.insert(e.topo.placement);
            topoNodes.insert(e.topo.nodes);
            if (!e.topo.links.empty())
                ++topoLinks;
            if (e.topo.nodes >= 16)
                ++topoBig;
        }
    }
    EXPECT_EQ(archs.size(), 4u); // all four architectures
    EXPECT_GT(locals, 0);
    EXPECT_GT(remotes, 0);
    EXPECT_GT(mixeds, 0);
    EXPECT_GT(faulty, 0);
    EXPECT_GT(rings, 0);
    EXPECT_GT(crashes, 0);
    EXPECT_GT(decomposed, 0);
    EXPECT_GT(multiHost, 0);
    // Robustness layer (open arrivals, deadlines, retries, admission
    // control) is sampled, including both arrival processes and all
    // three shed policies.
    EXPECT_GT(poisson, 0);
    EXPECT_GT(pareto, 0);
    EXPECT_GT(deadlines, 0);
    EXPECT_GT(retries, 0);
    EXPECT_GT(capped, 0);
    EXPECT_EQ(shedPolicies.size(), 3u);
    EXPECT_GT(rtoCeil, 0);
    // The topology surface: all three kinds, all four placement
    // policies, link overrides, and node counts up to the 16..32
    // range are all sampled.
    EXPECT_GT(topoOn, 0);
    EXPECT_EQ(topoKinds.size(), 3u);
    EXPECT_EQ(topoPlacements.size(), 4u);
    EXPECT_GT(topoNodes.size(), 4u);
    EXPECT_GT(topoLinks, 0);
    EXPECT_GT(topoBig, 0);
}

TEST(Generator, EveryDrawIsRunnableAndValid)
{
    const ExperimentGenerator gen(2);
    for (std::uint64_t i = 0; i < 100; ++i) {
        const Experiment e = gen.generate(i);
        // The constraints runExperiment() asserts on.
        EXPECT_GE(e.conversations + e.mixedLocal + e.mixedRemote, 1);
        EXPECT_GE(e.hostsPerNode, 1);
        EXPECT_GT(e.packetBytes, 0);
        EXPECT_GE(e.computeUs, 0);
        EXPECT_GE(e.kernelBuffers, 1);
        EXPECT_GT(e.mpSpeedFactor, 0);
        EXPECT_GT(e.measureUs, 0);
        for (double rate : {e.lossRate, e.corruptRate,
                            e.duplicateRate, e.reorderRate}) {
            EXPECT_GE(rate, 0);
            EXPECT_LE(rate, 1);
        }
        EXPECT_GT(e.retransmitTimeoutUs, 0);
        EXPECT_GE(e.retransmitWindow, 1);
        for (const CrashWindow &w : e.crashSchedule) {
            EXPECT_TRUE(w.node == 0 || w.node == 1);
            EXPECT_GE(w.startUs, 0);
            EXPECT_GT(w.endUs, w.startUs);
        }
        // Robustness-layer constraints runExperiment() asserts on.
        EXPECT_TRUE(e.arrivalMode >= 0 && e.arrivalMode <= 2);
        if (e.arrivalMode != 0) {
            EXPECT_GT(e.arrivalRatePerSec, 0);
            EXPECT_EQ(e.mixedLocal + e.mixedRemote, 0)
                << "open arrivals only drive the homogeneous workload";
        }
        if (e.arrivalMode == 2) {
            EXPECT_GT(e.paretoAlpha, 1);
            EXPECT_GT(e.paretoBound, 1);
        }
        EXPECT_GE(e.deadlineUs, 0);
        EXPECT_GE(e.retryBudget, 0);
        if (e.retryBudget > 0) {
            EXPECT_GT(e.retryBackoffUs, 0);
            EXPECT_GE(e.retryBackoffMaxUs, e.retryBackoffUs);
        }
        EXPECT_GE(e.svcQueueCap, 0);
        EXPECT_TRUE(e.shedPolicy >= 0 && e.shedPolicy <= 2);
        EXPECT_GT(e.rtoMaxUs, 0);
        // Topology constraints runExperiment() asserts on.
        EXPECT_TRUE(e.topo.nodes == 0 ||
                    (e.topo.nodes >= 2 && e.topo.nodes <= 1024));
        EXPECT_TRUE(e.topo.kind >= 0 && e.topo.kind <= 2);
        EXPECT_TRUE(e.topo.placement >= 0 && e.topo.placement <= 3);
        EXPECT_GE(e.topo.linkLatencyUs, 0);
        EXPECT_GE(e.topo.linkMbps, 0);
        EXPECT_GE(e.topo.switchLatencyUs, 0);
        EXPECT_GE(e.topo.segments, 1);
        EXPECT_GT(e.topo.segMbps, 0);
        EXPECT_GT(e.topo.zipfSkew, 0);
        for (const auto &l : e.topo.links) {
            EXPECT_GE(l.a, 0);
            EXPECT_GE(l.b, 0);
            EXPECT_NE(l.a, l.b);
            EXPECT_GE(l.latencyUs, 0);
            EXPECT_GE(l.mbps, 0);
        }
        if (e.topo.enabled() && e.mixedLocal + e.mixedRemote > 0) {
            EXPECT_EQ(e.topo.nodes, 2)
                << "the mixed layout spans exactly two nodes";
            EXPECT_EQ(e.topo.placement, 0)
                << "the mixed layout is its own placement";
        }
    }
}

TEST(Oracle, GreenOnGeneratedExperiments)
{
    const ExperimentGenerator gen(3);
    for (std::uint64_t i = 0; i < 30; ++i) {
        OracleOptions opts;
        // Keep the test fast: full determinism re-runs on a sample.
        opts.checkTraceIdentity = (i % 3 == 0);
        opts.parallelJobs = (i % 10 == 0) ? 3 : 0;
        const CheckResult res = checkedRun(gen.generate(i), opts);
        EXPECT_TRUE(res.ok())
            << "index " << i << ":\n"
            << formatViolations(res.violations);
    }
}

TEST(Oracle, UtilizationStaysInUnitRangeAtSaturation)
{
    // Regression for the bug the fuzzer found on day one: busy time
    // booked at chunk start let a saturated host report > 1.
    Experiment e = baseExperiment();
    e.arch = models::Arch::I;
    const std::vector<Violation> v =
        checkOutcome(e, runExperiment(e));
    EXPECT_TRUE(v.empty()) << formatViolations(v);
}

TEST(Differential, EligibilityMatchesTheModeledSubset)
{
    EXPECT_TRUE(differentialEligible(baseExperiment()));
    Experiment remote = baseExperiment();
    remote.local = false;
    EXPECT_FALSE(differentialEligible(remote));
    Experiment faulty = baseExperiment();
    faulty.lossRate = 0.1;
    EXPECT_FALSE(differentialEligible(faulty));
    Experiment big = baseExperiment();
    big.conversations = 10;
    EXPECT_FALSE(differentialEligible(big));
    Experiment multi = baseExperiment();
    multi.hostsPerNode = 2;
    EXPECT_FALSE(differentialEligible(multi));
    // The closed-workload models don't cover the robustness layer.
    Experiment open = baseExperiment();
    open.arrivalMode = 1;
    EXPECT_FALSE(differentialEligible(open));
    Experiment deadline = baseExperiment();
    deadline.deadlineUs = 5000;
    EXPECT_FALSE(differentialEligible(deadline));
    Experiment capped = baseExperiment();
    capped.svcQueueCap = 4;
    EXPECT_FALSE(differentialEligible(capped));
    // Eligibility is "resolves to one node": the mixed workload and
    // any explicit fabric (even one whose placement keeps every pair
    // on-node) are out.
    Experiment mixed = baseExperiment();
    mixed.mixedLocal = 1;
    EXPECT_FALSE(differentialEligible(mixed));
    Experiment fleet = baseExperiment();
    fleet.topo.nodes = 2;
    fleet.topo.placement = 2;
    EXPECT_FALSE(differentialEligible(fleet));
}

TEST(Differential, ThreeEnginesAgreeOnEligibleConfigs)
{
    for (int arch : {1, 2, 3, 4}) {
        Experiment e = baseExperiment();
        e.arch = static_cast<models::Arch>(arch);
        e.conversations = 2;
        e.computeUs = 1000;
        ASSERT_TRUE(differentialEligible(e));
        const std::vector<Violation> v = differentialCheck(e);
        EXPECT_TRUE(v.empty())
            << "arch " << arch << ":\n" << formatViolations(v);
    }
}

TEST(Shrink, MinimizesToTheDecidingKnobs)
{
    // Synthetic predicate (no simulation): the "failure" needs a
    // remote workload and a loss rate above 0.1.  Start from a config
    // with a dozen irrelevant knobs turned and expect exactly the two
    // deciding knobs to survive, with the loss rate bisected down to
    // the boundary.
    const ExperimentGenerator gen(4);
    Experiment noisy = gen.generate(11);
    noisy.local = false;
    noisy.mixedLocal = noisy.mixedRemote = 0;
    noisy.lossRate = 0.29;
    ASSERT_GT(knobDelta(noisy), 2);

    int evals = 0;
    const ShrinkResult res = shrinkExperiment(
        noisy,
        [&evals](const Experiment &cand) {
            ++evals;
            return !cand.local && cand.lossRate > 0.1;
        },
        1000);
    EXPECT_LE(res.knobsChanged, 2);
    EXPECT_FALSE(res.minimal.local);
    EXPECT_GT(res.minimal.lossRate, 0.1);
    EXPECT_LT(res.minimal.lossRate, 0.11); // bisected to the boundary
    EXPECT_EQ(res.runsUsed, evals);
    // Everything irrelevant reset to the base configuration.
    Experiment expect = baseExperiment();
    expect.local = false;
    expect.lossRate = res.minimal.lossRate;
    EXPECT_TRUE(res.minimal == expect);
}

TEST(Fuzz, InjectedRetransmissionBugIsCaughtShrunkAndReplayable)
{
    // A two-node lossy config that forces retransmissions.
    Experiment failing = baseExperiment();
    failing.local = false;
    failing.lossRate = 0.2;
    failing.corruptRate = 0.05;
    failing.computeUs = 500;
    failing.decomposeLatency = true;

    // Healthy simulator: the oracle is green on this config.
    EXPECT_TRUE(checkOutcome(failing, runExperiment(failing)).empty());

    ScopedTestHooks guard;
    testHooks().retransmissionMiscount = 1;

    // The conservation oracle catches the planted off-by-one.
    const std::vector<Violation> caught =
        checkOutcome(failing, runExperiment(failing));
    ASSERT_FALSE(caught.empty());
    std::set<std::string> ids;
    for (const Violation &v : caught)
        ids.insert(v.invariant);
    EXPECT_TRUE(ids.count("conservation.firstTx"))
        << formatViolations(caught);

    // Shrinking anchored to the caught invariants reaches a minimal
    // repro of at most 5 knobs.
    const ShrinkResult shrunk = shrinkExperiment(
        failing, [&ids](const Experiment &cand) {
            for (const Violation &v :
                 checkOutcome(cand, runExperiment(cand)))
                if (ids.count(v.invariant))
                    return true;
            return false;
        });
    EXPECT_LE(shrunk.knobsChanged, 5)
        << "minimal repro still has knobs: " << [&] {
               std::string s;
               for (const std::string &k : knobDiff(shrunk.minimal))
                   s += k + " ";
               return s;
           }();

    // The repro JSON round-trips and still reproduces the violation.
    const Experiment replayed =
        experimentFromJsonText(experimentToJson(shrunk.minimal));
    EXPECT_TRUE(replayed == shrunk.minimal);
    bool stillCaught = false;
    for (const Violation &v :
         checkOutcome(replayed, runExperiment(replayed)))
        stillCaught |= ids.count(v.invariant) > 0;
    EXPECT_TRUE(stillCaught);

    // With the planted bug removed the same repro runs clean: the
    // failure was the bug, not the configuration.
    testHooks().retransmissionMiscount = 0;
    EXPECT_TRUE(
        checkOutcome(replayed, runExperiment(replayed)).empty());
}

TEST(Fuzz, PlantedRouterDropIsCaughtShrunkAndReplayable)
{
    // The drill for the topo.* family: a star topology whose switch
    // silently swallows one forwarded packet without booking it as
    // dropped.  Exact per-router flow conservation must notice.
    Experiment failing = baseExperiment();
    failing.local = false;
    failing.computeUs = 500;
    failing.conversations = 4;
    failing.topo.nodes = 4;
    failing.topo.kind = 1;
    failing.topo.linkLatencyUs = 50;
    failing.topo.switchLatencyUs = 20;
    failing.topo.placement = 1;

    // Healthy simulator: the oracle is green on this config.
    EXPECT_TRUE(checkOutcome(failing, runExperiment(failing)).empty());

    ScopedTestHooks guard;
    testHooks().topoRouterDrop = 1;

    const std::vector<Violation> caught =
        checkOutcome(failing, runExperiment(failing));
    ASSERT_FALSE(caught.empty());
    std::set<std::string> ids;
    for (const Violation &v : caught)
        ids.insert(v.invariant);
    EXPECT_TRUE(ids.count("topo.conservation"))
        << formatViolations(caught);

    // Shrinking anchored to the caught invariants reaches a minimal
    // repro of at most 5 knobs.  The hook is consumed per drop, so
    // the predicate re-arms it before every candidate run.
    const ShrinkResult shrunk = shrinkExperiment(
        failing, [&ids](const Experiment &cand) {
            testHooks().topoRouterDrop = 1;
            for (const Violation &v :
                 checkOutcome(cand, runExperiment(cand)))
                if (ids.count(v.invariant))
                    return true;
            return false;
        });
    EXPECT_LE(shrunk.knobsChanged, 5)
        << "minimal repro still has knobs: " << [&] {
               std::string s;
               for (const std::string &k : knobDiff(shrunk.minimal))
                   s += k + " ";
               return s;
           }();
    // The deciding knobs survive: a topology with a router.
    EXPECT_GE(shrunk.minimal.topo.nodes, 2);
    EXPECT_EQ(shrunk.minimal.topo.kind, 1);

    // The repro JSON round-trips and still reproduces the violation.
    const Experiment replayed =
        experimentFromJsonText(experimentToJson(shrunk.minimal));
    EXPECT_TRUE(replayed == shrunk.minimal);
    testHooks().topoRouterDrop = 1;
    bool stillCaught = false;
    for (const Violation &v :
         checkOutcome(replayed, runExperiment(replayed)))
        stillCaught |= ids.count(v.invariant) > 0;
    EXPECT_TRUE(stillCaught);

    // With the planted bug removed the same repro runs clean: the
    // failure was the bug, not the configuration.
    testHooks().topoRouterDrop = 0;
    EXPECT_TRUE(
        checkOutcome(replayed, runExperiment(replayed)).empty());
}

TEST(Fuzz, PlantedFastForwardOvershootIsCaughtShrunkAndReplayable)
{
    // The drill for the processor's fast-forward of quiet bus runs: a
    // horizon treated as 3 us later than it is books accesses past
    // the next pending event, so a release, a grant or a preemption
    // that event should have seen moves.  Traced runs take the
    // per-access path, which turns the trace-on vs trace-off identity
    // into a fast-forward vs per-access differential.  The config is
    // the fuzz corpus draw that first caught the plant.
    const Experiment failing = ExperimentGenerator(1987).generate(1);
    OracleOptions oracle;
    oracle.parallelJobs = 0;

    // Healthy simulator: the oracle is green on this config.
    EXPECT_TRUE(checkedRun(failing, oracle).ok());

    ScopedTestHooks guard;
    testHooks().fastForwardSlackTicks = usToTicks(3);

    const std::vector<Violation> caught =
        checkedRun(failing, oracle).violations;
    ASSERT_FALSE(caught.empty());
    std::set<std::string> ids;
    for (const Violation &v : caught)
        ids.insert(v.invariant);
    EXPECT_TRUE(ids.count("determinism.traceIdentity"))
        << formatViolations(caught);

    // Shrinking anchored to the caught invariants reaches a minimal
    // repro of at most 5 knobs.
    const auto sameFailure = [&](const Experiment &cand) {
        for (const Violation &v : checkedRun(cand, oracle).violations)
            if (ids.count(v.invariant))
                return true;
        return false;
    };
    const ShrinkResult shrunk = shrinkExperiment(failing, sameFailure);
    EXPECT_LE(shrunk.knobsChanged, 5)
        << "minimal repro still has knobs: " << [&] {
               std::string s;
               for (const std::string &k : knobDiff(shrunk.minimal))
                   s += k + " ";
               return s;
           }();

    // The repro JSON round-trips and still reproduces the violation.
    const Experiment replayed =
        experimentFromJsonText(experimentToJson(shrunk.minimal));
    EXPECT_TRUE(replayed == shrunk.minimal);
    EXPECT_TRUE(sameFailure(replayed));

    // With the planted bug removed the same repro runs clean: the
    // failure was the bug, not the configuration.
    testHooks().fastForwardSlackTicks = 0;
    EXPECT_TRUE(checkedRun(replayed, oracle).ok());
}

} // namespace
