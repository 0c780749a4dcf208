/**
 * @file
 * Tests of the end-to-end RPC robustness layer (sim/kernel +
 * sim/check): strict pay-for-use bypass pinned bit-exactly per
 * architecture, open-arrival offered load, deadline expiry and
 * orphaned replies, retry recovery under loss with at-most-once
 * semantics, bounded-queue shedding and graceful degradation past
 * the overload knee, cost placement on the communication processor,
 * ledger conservation over fuzzed configurations — and the
 * acceptance drill: a planted completion-count off-by-one is caught
 * by the rpc conservation oracle, shrunk to a small repro, and
 * replayed from JSON.
 */

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/check/experiment_json.hh"
#include "sim/check/generator.hh"
#include "sim/check/invariants.hh"
#include "sim/check/shrink.hh"
#include "sim/check/test_hooks.hh"
#include "sim/kernel/ipc_sim.hh"

namespace
{

using namespace hsipc;
using namespace hsipc::sim;
using namespace hsipc::sim::check;

/** The classic closed-loop remote workload used for the bypass pins. */
Experiment
pinConfig(models::Arch arch)
{
    Experiment e;
    e.arch = arch;
    e.local = false;
    e.conversations = 3;
    e.computeUs = 500;
    e.warmupUs = 2000;
    e.measureUs = 40000;
    e.seed = 11;
    return e;
}

/**
 * Open-arrival overload at a two-server node: computeUs dominates so
 * the service host — not the client's send path — is the bottleneck,
 * and kernelBuffers is large so admission control, not client-side
 * buffer exhaustion, decides the outcome.
 */
Experiment
overloadConfig(models::Arch arch, double ratePerSec)
{
    Experiment e;
    e.arch = arch;
    e.local = false;
    e.conversations = 2; // server pool
    e.computeUs = 6000;
    e.kernelBuffers = 64;
    e.warmupUs = 20000;
    e.measureUs = 400000;
    e.seed = 42;
    e.arrivalMode = 1;
    e.arrivalRatePerSec = ratePerSec;
    return e;
}

void
expectClean(const Experiment &e, const Outcome &o)
{
    const std::vector<Violation> v = checkOutcome(e, o);
    EXPECT_TRUE(v.empty()) << formatViolations(v);
}

TEST(RpcRobustness, DefaultsBypassTheLayerBitExactly)
{
    EXPECT_FALSE(robustnessEnabled(Experiment{}));

    // Pinned values harvested from the pre-robustness simulator: with
    // every robustness knob at its default the layer must not perturb
    // a single tick.
    struct Pin {
        models::Arch arch;
        long roundTrips;
        double meanRtUs;
        double throughput;
    };
    const Pin pins[] = {
        {models::Arch::I, 8, 13632.526625, 200},
        {models::Arch::II, 9, 11063.785555555556, 225},
        {models::Arch::III, 14, 8352.9799999999996, 350},
        {models::Arch::IV, 14, 8310.8781428571419, 350},
    };
    for (const Pin &p : pins) {
        const Experiment e = pinConfig(p.arch);
        const Outcome o = runExperiment(e);
        EXPECT_EQ(o.roundTrips, p.roundTrips) << "arch " << int(p.arch);
        EXPECT_EQ(o.meanRoundTripUs, p.meanRtUs) << "arch " << int(p.arch);
        EXPECT_EQ(o.throughputPerSec, p.throughput) << "arch " << int(p.arch);

        // The disposition ledger stays identically zero.
        EXPECT_EQ(o.rpc.offered, 0);
        EXPECT_EQ(o.rpc.attempts, 0);
        EXPECT_EQ(o.rpc.completed, 0);
        EXPECT_EQ(o.rpc.shedAttempts, 0);
        EXPECT_EQ(o.rpc.goodputPerSec, 0.0);
        EXPECT_EQ(o.rpcHostUsPerRt, 0.0);
        EXPECT_EQ(o.rpcMpUsPerRt, 0.0);
        expectClean(e, o);
    }
}

TEST(RpcRobustness, OpenArrivalsTrackTheOfferedRate)
{
    const Experiment e = overloadConfig(models::Arch::III, 100);
    const Outcome o = runExperiment(e);
    // ~40 post-warmup arrivals expected at 100/s over 0.4 s.
    EXPECT_GE(o.rpc.offered, 20);
    EXPECT_LE(o.rpc.offered, 70);
    EXPECT_GT(o.rpc.completed, 0);
    EXPECT_GT(o.rpc.goodputPerSec, 0.0);
    expectClean(e, o);
}

TEST(RpcRobustness, DeadlinesExpireOverloadedRequestsAndOrphanLateReplies)
{
    // 2x the service capacity with a deadline but no admission
    // control: the queue grows without bound, served requests have
    // already expired, and their replies come back to nobody.
    Experiment e = overloadConfig(models::Arch::III, 250);
    e.deadlineUs = 40000;
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.rpc.expired, 0);
    EXPECT_GT(o.rpc.orphanedReplies, 0);
    EXPECT_LT(o.rpc.completed, o.rpc.expired);
    expectClean(e, o);
}

TEST(RpcRobustness, RetriesRecoverLossWithAtMostOnceSemantics)
{
    // A lossy closed loop with a backoff longer than the round trip:
    // lost requests are retried, duplicate arrivals are suppressed,
    // lost replies are replayed from the at-most-once cache, and the
    // superseded attempts' late replies are discarded as orphans.
    Experiment e;
    e.arch = models::Arch::III;
    e.local = false;
    e.conversations = 3;
    e.computeUs = 500;
    e.kernelBuffers = 8;
    e.warmupUs = 5000;
    e.measureUs = 250000;
    e.seed = 11;
    e.lossRate = 0.25;
    e.retryBudget = 3;
    e.retryBackoffUs = 12000;
    e.retryBackoffMaxUs = 48000;
    const Outcome o = runExperiment(e);
    EXPECT_GT(o.rpc.retries, 0);
    EXPECT_GT(o.rpc.duplicatesSuppressed, 0);
    EXPECT_GT(o.rpc.replyReplays, 0);
    EXPECT_GT(o.rpc.orphanedReplies, 0);
    EXPECT_GT(o.rpc.completed, 20);
    // Nothing stalled client-side here, so every request sent at
    // least once and each retry is exactly one extra attempt.
    EXPECT_EQ(o.rpc.attempts, o.rpc.offered + o.rpc.retries);
    expectClean(e, o);
}

TEST(RpcRobustness, BoundedQueuesShedUnderOverload)
{
    // With neither deadline nor retries a shed attempt is terminal
    // for its request: the reject-new policy must produce terminally
    // shed requests while admitted ones still complete.
    Experiment reject = overloadConfig(models::Arch::III, 250);
    reject.svcQueueCap = 4;
    reject.shedPolicy = 0;
    const Outcome o = runExperiment(reject);
    EXPECT_GT(o.rpc.shed, 0);
    EXPECT_GT(o.rpc.completed, 0);
    EXPECT_EQ(o.rpc.shed, o.rpc.shedAttempts);
    expectClean(reject, o);

    // Under overload with deadlines, every policy sheds, and the
    // deadline-aware policy keeps several times the goodput of
    // reject-new, which wastes service on queue entries that expire
    // while waiting.
    double goodput[3];
    for (int pol : {0, 1, 2}) {
        Experiment e = overloadConfig(models::Arch::III, 250);
        e.deadlineUs = 40000;
        e.svcQueueCap = 4;
        e.shedPolicy = pol;
        const Outcome po = runExperiment(e);
        EXPECT_GT(po.rpc.shedAttempts, 0) << "policy " << pol;
        goodput[pol] = po.rpc.goodputPerSec;
        expectClean(e, po);
    }
    EXPECT_GT(goodput[2], 2.0 * goodput[0]);
}

TEST(RpcRobustness, DeadlineAwareSheddingKeepsGoodputPastTheKnee)
{
    // 2x capacity, deadline 40 ms.  Without admission control the
    // goodput collapses; with a small bounded queue and deadline-
    // aware shedding it stays near the service capacity.
    Experiment naked = overloadConfig(models::Arch::III, 250);
    naked.deadlineUs = 40000;
    const Outcome on = runExperiment(naked);

    Experiment guarded = naked;
    guarded.svcQueueCap = 2;
    guarded.shedPolicy = 2;
    const Outcome og = runExperiment(guarded);

    EXPECT_GT(og.rpc.goodputPerSec, 4.0 * on.rpc.goodputPerSec);
    EXPECT_GT(og.rpc.goodputPerSec, 80.0); // near the ~120/s capacity
    expectClean(naked, on);
    expectClean(guarded, og);
}

TEST(RpcRobustness, BookkeepingIsChargedToTheCommProcessor)
{
    // Robustness bookkeeping is kernel work: the host pays on
    // Architecture I, the message processor on II-IV.
    for (models::Arch arch : {models::Arch::I, models::Arch::III}) {
        Experiment e;
        e.arch = arch;
        e.local = false;
        e.conversations = 3;
        e.computeUs = 500;
        e.kernelBuffers = 8;
        e.warmupUs = 5000;
        e.measureUs = 120000;
        e.seed = 5;
        e.deadlineUs = 60000;
        e.retryBudget = 1;
        e.retryBackoffUs = 20000;
        e.retryBackoffMaxUs = 80000;
        const Outcome o = runExperiment(e);
        ASSERT_GT(o.rpc.completed, 0) << "arch " << int(arch);
        if (arch == models::Arch::I) {
            EXPECT_GT(o.rpcHostUsPerRt, 0.0);
            EXPECT_EQ(o.rpcMpUsPerRt, 0.0);
        } else {
            EXPECT_EQ(o.rpcHostUsPerRt, 0.0);
            EXPECT_GT(o.rpcMpUsPerRt, 0.0);
        }
        expectClean(e, o);
    }
}

TEST(RpcRobustness, FuzzedRobustConfigsKeepTheLedgerBalanced)
{
    const ExperimentGenerator gen(3);
    int robustDraws = 0;
    for (std::uint64_t i = 0; i < 60 && robustDraws < 25; ++i) {
        const Experiment e = gen.generate(i);
        if (!robustnessEnabled(e))
            continue;
        ++robustDraws;
        const std::vector<Violation> v =
            checkOutcome(e, runExperiment(e));
        EXPECT_TRUE(v.empty())
            << "generator index " << i << "\n" << formatViolations(v);
    }
    EXPECT_GE(robustDraws, 10);
}

TEST(RpcRobustness, PlantedCompletionMiscountIsCaughtShrunkAndReplayable)
{
    // A small robust config with completions: healthy first.
    Experiment failing;
    failing.arch = models::Arch::III;
    failing.local = false;
    failing.conversations = 3;
    failing.computeUs = 500;
    failing.warmupUs = 5000;
    failing.measureUs = 120000;
    failing.seed = 5;
    failing.deadlineUs = 60000;
    failing.retryBudget = 1;
    failing.retryBackoffUs = 20000;
    failing.retryBackoffMaxUs = 80000;
    EXPECT_TRUE(checkOutcome(failing, runExperiment(failing)).empty());

    ScopedTestHooks guard;
    testHooks().rpcCompletionMiscount = 1;

    // The rpc conservation oracle catches the planted off-by-one.
    const std::vector<Violation> caught =
        checkOutcome(failing, runExperiment(failing));
    ASSERT_FALSE(caught.empty());
    std::set<std::string> ids;
    for (const Violation &v : caught)
        ids.insert(v.invariant);
    EXPECT_TRUE(ids.count("rpc.conservation"))
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

    // With the planted bug removed the same repro runs clean.
    testHooks().rpcCompletionMiscount = 0;
    EXPECT_TRUE(
        checkOutcome(replayed, runExperiment(replayed)).empty());
}

} // namespace
