/**
 * @file
 * The engine self-profiler (ISSUE 8): unit coverage of the recorder's
 * ledgers and the profile-smoke contract — a real experiment run with
 * engineProfile on writes a schema-valid JSON document, and turning
 * the knob off leaves every simulated output byte-identical.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json_value.hh"
#include "common/obs/engine_prof.hh"
#include "sim/des/event_queue.hh"
#include "sim/runner/sweep_runner.hh"

namespace
{

using namespace hsipc;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A small but non-trivial remote workload. */
sim::Experiment
smallExperiment()
{
    sim::Experiment e;
    e.arch = models::Arch::II;
    e.local = false;
    e.conversations = 2;
    e.computeUs = 500;
    e.warmupUs = 5000;
    e.measureUs = 50000;
    return e;
}

// --- recorder unit coverage ------------------------------------------

TEST(EngineProfiler, QueueLedgersConserve)
{
    obs::EngineProfiler prof(0); // sample every event
    prof.beginRun();
    sim::EventQueue eq;
    eq.observe(obs::Sinks{.prof = &prof});

    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAfter(i * 10, [&fired]() { ++fired; });
    // Two events remain beyond the run horizon.
    eq.scheduleAfter(1000, [] {});
    eq.scheduleAfter(2000, [] {});
    eq.runUntil(500);
    prof.finishRun(eq.size());

    const obs::EngineProfile &p = prof.profile();
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.pushes, 12u);
    EXPECT_EQ(p.pops, 10u);
    EXPECT_EQ(p.remainingAtEnd, 2u);
    EXPECT_EQ(p.pushes, p.pops + p.remainingAtEnd);
    EXPECT_EQ(fired, 10);
    EXPECT_GE(p.maxHeapSize, p.remainingAtEnd);
    // sampleShift 0 wall-samples every execution.
    EXPECT_EQ(p.sampleEvery, 1u);
    EXPECT_EQ(p.sampledEvents, 10u);
    EXPECT_EQ(p.dwellUs.count(), 12);
    EXPECT_EQ(p.heapDepth.count(), 12);
    EXPECT_GE(p.dwellUs.min(), 0.0);
    // All events unclaimed -> residual "sim" track holds them all.
    ASSERT_FALSE(p.tracks.empty());
    EXPECT_EQ(p.tracks[0].name, "sim");
    EXPECT_EQ(p.tracks[0].events, 10u);
}

TEST(EngineProfiler, SamplingMaskIsDeterministic)
{
    obs::EngineProfiler prof; // default 1-in-1024
    EXPECT_TRUE(prof.sampledSeq(0));
    EXPECT_FALSE(prof.sampledSeq(1));
    EXPECT_FALSE(prof.sampledSeq(255));
    EXPECT_FALSE(prof.sampledSeq(512));
    EXPECT_TRUE(prof.sampledSeq(1024));
    EXPECT_TRUE(prof.sampledSeq(2048));
}

TEST(EngineProfiler, FirstClaimAttributesTheEventOnce)
{
    obs::EngineProfiler prof(0);
    const int busId = prof.origin("bus");
    const int cpuId = prof.origin("cpu");
    EXPECT_EQ(busId, prof.origin("bus")) << "interning is idempotent";
    prof.claim(cpuId); // outside any event: counts nothing

    prof.beginRun();
    sim::EventQueue eq;
    eq.observe(obs::Sinks{.prof = &prof});

    // cpu claims its event, then bus claims the same event: the
    // second claim finds the window closed.  The bus event claims
    // its own, and the last event claims nothing.
    eq.scheduleAfter(1, [&]() {
        prof.claim(cpuId);
        prof.claim(busId);
        eq.scheduleAfter(7, [&]() {
            prof.claim(busId);
            eq.scheduleAfter(0, []() {});
        });
    });
    eq.runUntil(100);
    prof.finishRun(eq.size());

    const obs::EngineProfile &p = prof.profile();
    EXPECT_EQ(p.pops, 3u);
    EXPECT_EQ(p.tracks[static_cast<std::size_t>(cpuId)].events, 1u);
    EXPECT_EQ(p.tracks[static_cast<std::size_t>(busId)].events, 1u)
        << "a second claim in one event counts nothing";
    EXPECT_EQ(p.tracks[0].events, 1u)
        << "the unclaimed event falls to the sim residual";
}

TEST(EngineProfiler, MergeAggregatesByName)
{
    auto runOnce = [](int extraEvents) {
        obs::EngineProfiler prof(0);
        const int id = prof.origin("worker");
        prof.beginRun();
        sim::EventQueue eq;
        eq.observe(obs::Sinks{.prof = &prof});
        for (int i = 0; i < extraEvents; ++i)
            eq.scheduleAfter(i + 1, [&prof, id]() { prof.claim(id); });
        eq.runUntil(1000);
        prof.finishRun(eq.size());
        return prof.take();
    };

    obs::EngineProfile merged = runOnce(2);
    merged.merge(runOnce(3));
    EXPECT_EQ(merged.pushes, 5u);
    EXPECT_EQ(merged.pops, 5u);
    ASSERT_EQ(merged.tracks.size(), 2u);
    EXPECT_EQ(merged.tracks[1].name, "worker");
    EXPECT_EQ(merged.tracks[1].events, 5u);
}

// --- whole-simulation contracts --------------------------------------

TEST(EngineProfileSim, PayForUseByteIdentity)
{
    sim::Experiment off = smallExperiment();
    sim::Experiment on = smallExperiment();
    on.engineProfile = true;

    const sim::Outcome a = sim::runExperiment(off);
    const sim::Outcome b = sim::runExperiment(on);
    EXPECT_EQ(sim::outcomeJson(a), sim::outcomeJson(b))
        << "enabling the engine profiler changed a simulated output";
    EXPECT_FALSE(a.engineProfile.enabled);
    EXPECT_TRUE(b.engineProfile.enabled);
    EXPECT_GT(b.engineProfile.pops, 0u);
}

TEST(EngineProfileSim, DeterministicSubsetReplicates)
{
    sim::Experiment e = smallExperiment();
    e.engineProfile = true;
    const sim::Outcome a = sim::runExperiment(e);
    const sim::Outcome b = sim::runExperiment(e);
    EXPECT_EQ(a.engineProfile.deterministicJson(),
              b.engineProfile.deterministicJson());
}

TEST(EngineProfileSim, ProfileSmokeSchema)
{
    const std::string path =
        testing::TempDir() + "engprof_smoke.json";
    sim::Experiment e = smallExperiment();
    e.engineProfile = true;
    e.reportFile = path;
    const sim::Outcome out = sim::runExperiment(e);

    const std::string doc = slurp(path);
    ASSERT_FALSE(doc.empty()) << "no report written to " << path;
    const JsonValue report = parseJson(doc);
    ASSERT_TRUE(report.has("engineProfile"));
    const JsonValue &v = report.at("engineProfile");
    ASSERT_TRUE(v.isObject());

    // The schema marker and every top-level section.
    ASSERT_TRUE(v.has("engineProfile"));
    EXPECT_EQ(v.at("engineProfile").asNumber(), 1.0);
    EXPECT_TRUE(v.at("enabled").asBool());
    EXPECT_GT(v.at("sampleEvery").asNumber(), 0.0);
    for (const char *key :
         {"sampledEvents", "queue", "callbacks", "dwellUs",
          "heapDepth", "tracks"})
        EXPECT_TRUE(v.has(key)) << "missing key " << key;

    // Every push was popped, run by an access loop after its first
    // step, or is still pending; this run's processors co-step, so
    // the coStep block is there.
    const JsonValue &q = v.at("queue");
    ASSERT_TRUE(v.has("coStep"));
    const JsonValue &cs = v.at("coStep");
    EXPECT_GT(cs.at("loops").asNumber(), 0.0);
    EXPECT_EQ(q.at("pushes").asNumber(),
              q.at("pops").asNumber() +
                  (cs.at("steps").asNumber() - cs.at("loops").asNumber()) +
                  q.at("remainingAtEnd").asNumber());
    EXPECT_GT(q.at("comparisons").asNumber(), 0.0);

    // The full document carries the wall sketches and pool misses.
    EXPECT_TRUE(v.at("callbacks").has("freshPoolBlocks"));

    ASSERT_TRUE(v.at("tracks").isArray());
    const auto &tracks = v.at("tracks").asArray();
    ASSERT_FALSE(tracks.empty());
    double events = 0;
    bool sawWall = false;
    for (const JsonValue &t : tracks) {
        EXPECT_TRUE(t.has("name") && t.has("events") &&
                    t.has("sampled"));
        events += t.at("events").asNumber();
        sawWall = sawWall || t.has("wallNs");
    }
    EXPECT_EQ(events, q.at("pops").asNumber());
    EXPECT_TRUE(sawWall) << "no track carries a wall-clock sketch";

    // The fabric claims its deliveries: a two-node run has some.
    bool wireEvents = false;
    for (const JsonValue &t : tracks)
        wireEvents = wireEvents || (t.at("name").asString() == "wire" &&
                                    t.at("events").asNumber() > 0);
    EXPECT_TRUE(wireEvents) << "no event on the wire track";

    EXPECT_TRUE(out.engineProfile.enabled);
    std::remove(path.c_str());
}

} // namespace
