/**
 * @file
 * Tests of the parallel primitives (common/parallel) and the sweep
 * runner (sim/runner): deterministic result placement, seed
 * derivation, exception propagation — and the invariant every
 * converted bench relies on, pinned at the byte level: the same
 * experiments produce bit-identical Outcomes, run reports and trace
 * files at `jobs = 1`, 2 and 8.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel/parallel.hh"
#include "sim/check/test_hooks.hh"
#include "sim/runner/sweep_runner.hh"

namespace
{

using namespace hsipc;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Parallel, ParallelForVisitsEveryIndexOnce)
{
    for (int jobs : {1, 2, 8}) {
        constexpr std::size_t count = 1000;
        std::vector<std::atomic<int>> visits(count);
        parallel::parallelFor(jobs, count, [&](std::size_t i) {
            visits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(visits[i].load(), 1) << "index " << i
                                           << " jobs " << jobs;
    }
}

TEST(Parallel, RunAllPlacesResultsByInputIndex)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 64; ++i)
        tasks.push_back([i]() { return i * i; });
    for (int jobs : {1, 3, 8}) {
        const std::vector<int> out = parallel::runAll<int>(jobs, tasks);
        ASSERT_EQ(out.size(), tasks.size());
        for (int i = 0; i < 64; ++i)
            EXPECT_EQ(out[i], i * i);
    }
}

TEST(Parallel, ParallelForPropagatesExceptions)
{
    EXPECT_THROW(
        parallel::parallelFor(4, 100,
                              [](std::size_t i) {
                                  if (i == 37)
                                      throw std::runtime_error("boom");
                              }),
        std::runtime_error);
    // Serial fallback path too.
    EXPECT_THROW(
        parallel::parallelFor(1, 100,
                              [](std::size_t i) {
                                  if (i == 37)
                                      throw std::runtime_error("boom");
                              }),
        std::runtime_error);
}

TEST(Parallel, ThreadPoolRunsEverySubmittedTask)
{
    parallel::ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&ran]() {
            ran.fetch_add(1, std::memory_order_relaxed);
        });
    pool.wait();
    EXPECT_EQ(ran.load(), 200);
}

TEST(Parallel, DeriveSeedIsPureAndWellDistributed)
{
    // Stable across calls (a pure function of base and index) —
    // replications must not depend on scheduling.
    EXPECT_EQ(parallel::deriveSeed(42, 0), parallel::deriveSeed(42, 0));
    EXPECT_EQ(parallel::deriveSeed(42, 7), parallel::deriveSeed(42, 7));

    // Distinct per index and per base; never the degenerate zero seed.
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {0ull, 1ull, 42ull}) {
        for (std::size_t i = 0; i < 100; ++i) {
            const std::uint64_t s = parallel::deriveSeed(base, i);
            EXPECT_NE(s, 0u);
            EXPECT_TRUE(seen.insert(s).second)
                << "collision at base " << base << " index " << i;
        }
    }
}

/** A small mixed batch covering the simulator's feature surface. */
std::vector<sim::Experiment>
mixedExperiments()
{
    std::vector<sim::Experiment> exps;

    sim::Experiment a; // plain local run
    a.arch = models::Arch::II;
    a.local = true;
    a.conversations = 2;
    a.computeUs = 1140;
    a.warmupUs = 20000;
    a.measureUs = 150000;
    exps.push_back(a);

    sim::Experiment b = a; // non-local with latency decomposition
    b.local = false;
    b.decomposeLatency = true;
    exps.push_back(b);

    sim::Experiment c = a; // lossy medium, reliability stack
    c.local = false;
    c.reliableProtocol = true;
    c.lossRate = 0.05;
    c.seed = 99;
    exps.push_back(c);

    sim::Experiment d = a; // different architecture + token ring
    d.arch = models::Arch::III;
    d.topo.nodes = 2;
    d.topo.kind = 2;
    exps.push_back(d);

    sim::Experiment e = a; // mixed workload
    e.mixedLocal = 1;
    e.mixedRemote = 1;
    exps.push_back(e);

    return exps;
}

std::string
sweepFingerprint(int jobs)
{
    std::string all;
    for (const sim::Outcome &o :
         sim::runSweep(mixedExperiments(), jobs)) {
        all += sim::outcomeJson(o);
        all += '\n';
    }
    return all;
}

TEST(SweepRunner, OutcomesBitIdenticalAcrossJobLevels)
{
    const std::string serial = sweepFingerprint(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, sweepFingerprint(2));
    EXPECT_EQ(serial, sweepFingerprint(8));
}

TEST(SweepRunner, TimelineAndTraceSamplingBitIdenticalAcrossJobs)
{
    // The trace-sampling decision is a pure hash of (seed, id) and
    // the timeline is per-run state, so the windowed series, steady
    // stats and sampled decompositions must be byte-identical at any
    // job level.
    auto sampledExps = [] {
        std::vector<sim::Experiment> exps = mixedExperiments();
        for (std::size_t i = 0; i < exps.size(); ++i) {
            exps[i].timelineIntervalUs = 5000;
            exps[i].traceSampleRate = 0.5;
            exps[i].decomposeLatency = true;
        }
        return exps;
    };
    auto fingerprint = [&](int jobs) {
        std::string all;
        for (const sim::Outcome &o : sim::runSweep(sampledExps(), jobs))
            all += sim::outcomeJson(o) + o.timeline.toJson() +
                   o.stats.toJson() + "\n";
        return all;
    };
    const std::string serial = fingerprint(1);
    EXPECT_NE(serial.find("\"counters\""), std::string::npos);
    EXPECT_NE(serial.find("\"truncationUs\""), std::string::npos);
    EXPECT_EQ(serial, fingerprint(2));
    EXPECT_EQ(serial, fingerprint(8));
}

TEST(SweepRunner, SinkFilesBitIdenticalAcrossJobLevels)
{
    // The same experiments, file paths included (a report carries its
    // experiment), run serially and then on eight workers.
    const std::string dir = testing::TempDir();
    std::vector<sim::Experiment> exps = mixedExperiments();
    for (std::size_t i = 0; i < exps.size(); ++i) {
        const std::string tag = "hsipc_pr_" + std::to_string(i);
        exps[i].traceFile = dir + tag + ".trace.json";
        exps[i].reportFile = dir + tag + ".report.json";
    }
    auto files = [&exps](int jobs) {
        sim::runSweep(exps, jobs);
        std::vector<std::string> docs;
        for (const sim::Experiment &e : exps) {
            docs.push_back(readFile(e.traceFile));
            docs.push_back(readFile(e.reportFile));
            std::remove(e.traceFile.c_str());
            std::remove(e.reportFile.c_str());
        }
        return docs;
    };

    const std::vector<std::string> serial = files(1);
    const std::vector<std::string> parallel8 = files(8);
    ASSERT_EQ(serial.size(), parallel8.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_FALSE(serial[i].empty()) << i;
        EXPECT_EQ(serial[i], parallel8[i]) << i;
    }
}

TEST(SweepRunner, InProcessSinksMatchSerialRun)
{
    std::vector<sim::Experiment> exps = mixedExperiments();
    exps.resize(2);

    auto runWith = [&exps](int jobs) {
        std::vector<trace::Tracer> tracers(exps.size());
        std::vector<metrics::Registry> regs(exps.size());
        std::vector<trace::Tracer *> tp;
        std::vector<metrics::Registry *> rp;
        for (std::size_t i = 0; i < exps.size(); ++i) {
            tracers[i].setEnabled(true);
            tp.push_back(&tracers[i]);
            rp.push_back(&regs[i]);
        }
        sim::SweepOptions opts;
        opts.jobs = jobs;
        const std::vector<sim::Outcome> outs =
            sim::SweepRunner(opts).runWithSinks(exps, &tp, &rp);
        std::string fp;
        for (std::size_t i = 0; i < exps.size(); ++i) {
            fp += sim::outcomeJson(outs[i]);
            fp += tracers[i].chromeJson();
            fp += regs[i].toJson();
        }
        return fp;
    };

    const std::string serial = runWith(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, runWith(4));
}

TEST(SweepRunner, SeedBaseDerivesDistinctSeedsDeterministically)
{
    std::vector<sim::Experiment> exps(3);
    for (sim::Experiment &e : exps) {
        e.conversations = 1;
        e.computeUs = 1140;
        e.warmupUs = 20000;
        e.measureUs = 100000;
        e.reliableProtocol = true;
        e.lossRate = 0.05; // make the RNG matter
    }

    sim::SweepOptions opts;
    opts.seedBase = 2026;
    auto fingerprint = [&](int jobs) {
        opts.jobs = jobs;
        std::string fp;
        for (const sim::Outcome &o : sim::SweepRunner(opts).run(exps))
            fp += sim::outcomeJson(o) + "\n";
        return fp;
    };

    // Derived seeds are deterministic across job levels...
    const std::string serial = fingerprint(1);
    EXPECT_EQ(serial, fingerprint(8));

    // ...and actually distinct per replication: with identical
    // configs, the three outcome lines must not all collapse to one.
    std::istringstream lines(serial);
    std::set<std::string> uniq;
    std::string line;
    while (std::getline(lines, line))
        uniq.insert(line);
    EXPECT_GT(uniq.size(), 1u);
}

TEST(SweepRunner, EmptySweepReturnsEmpty)
{
    for (int jobs : {1, 4}) {
        const std::vector<sim::Outcome> out =
            sim::runSweep(std::vector<sim::Experiment>{}, jobs);
        EXPECT_TRUE(out.empty()) << "jobs " << jobs;
    }
}

TEST(SweepRunner, ThrowingTaskMidSweepPropagatesAndPoolRecovers)
{
    // A batch large enough that work is genuinely in flight on
    // several workers when one item throws (via the test hook that
    // fires at the top of runExperiment).
    std::vector<sim::Experiment> exps(16);
    for (std::size_t i = 0; i < exps.size(); ++i) {
        exps[i].conversations = 1;
        exps[i].computeUs = 1140;
        exps[i].warmupUs = 5000;
        exps[i].measureUs = 50000;
        exps[i].seed = 1000 + i;
    }

    {
        sim::check::ScopedTestHooks guard;
        sim::check::testHooks().beforeRun =
            [](const sim::Experiment &e) {
                if (e.seed == 1007)
                    throw std::runtime_error("item 7 exploded");
            };
        // The exception reaches the caller — not swallowed by a
        // worker thread, and the sweep does not deadlock waiting for
        // the failed item.  Both the serial and the pooled path.
        EXPECT_THROW(sim::runSweep(exps, 4), std::runtime_error);
        EXPECT_THROW(sim::runSweep(exps, 1), std::runtime_error);
    }

    // The pool drained and the runner is reusable: the same batch
    // (hook gone) completes and matches a fresh serial run.
    std::string serial, parallel4;
    for (const sim::Outcome &o : sim::runSweep(exps, 1))
        serial += sim::outcomeJson(o) + "\n";
    for (const sim::Outcome &o : sim::runSweep(exps, 4))
        parallel4 += sim::outcomeJson(o) + "\n";
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel4);
}

TEST(SweepRunner, OutcomeJsonCoversDecomposition)
{
    sim::Experiment e;
    e.conversations = 1;
    e.computeUs = 570;
    e.warmupUs = 20000;
    e.measureUs = 100000;
    e.decomposeLatency = true;
    const sim::Outcome o = sim::runExperiment(e);
    const std::string j = sim::outcomeJson(o);
    EXPECT_NE(j.find("\"decomposition\""), std::string::npos);
    EXPECT_NE(j.find("\"bottleneck\""), std::string::npos);
    EXPECT_NE(j.find("\"resourceUtilization\""), std::string::npos);
}

} // namespace
