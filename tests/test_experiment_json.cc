/**
 * @file
 * Tests of the Experiment ⇄ JSON round trip (sim/check) and the
 * underlying JSON parser (common/json_value): every field survives a
 * round trip bit-exactly — including awkward doubles and a full
 * 64-bit seed — and malformed or mistyped documents fail loudly.
 * The rendered bytes and the shrinker's candidate sequence over an
 * every-knob experiment are pinned by digest.
 */

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_value.hh"
#include "sim/check/experiment_json.hh"
#include "sim/check/generator.hh"
#include "sim/check/knobs.hh"
#include "sim/check/shrink.hh"

namespace
{

using namespace hsipc;
using namespace hsipc::sim;
using namespace hsipc::sim::check;

/**
 * An Experiment with every field moved off its default.  Only
 * serialized, never run: the combination is not a valid run.
 */
Experiment
everyFieldChanged()
{
    Experiment e;
    e.arch = models::Arch::IV;
    e.local = false;
    e.conversations = 7;
    e.mixedLocal = 2;
    e.mixedRemote = 3;
    e.computeUs = 0.1 + 0.2; // 0.30000000000000004: %.17g territory
    e.hostsPerNode = 3;
    e.extraCopy = true;
    e.mpSpeedFactor = 1.0 / 3.0;
    e.kernelBuffers = 5;
    e.warmupUs = 777.25;
    e.measureUs = 31415.9;
    e.seed = 0xfedcba9876543210ull; // needs all 64 bits
    e.lossRate = 0.017;
    e.corruptRate = 0.003;
    e.duplicateRate = 0.25;
    e.reorderRate = 1e-9;
    e.reorderDelayUs = 450.5;
    e.retransmitTimeoutUs = 6250.125;
    e.retransmitWindow = 3;
    e.reliableProtocol = true;
    e.crashSchedule = {{0, 100.5, 200.25}, {1, 5000, 6000.75}};
    e.traceFile = "trace \"quoted\"\n.json";
    e.reportFile = "report\\path\tfile.json";
    e.decomposeLatency = true;
    e.arrivalMode = 2;
    e.arrivalRatePerSec = 12345.6789;
    e.deadlineUs = 15000.125;
    e.retryBudget = 4;
    e.retryBackoffUs = 333.375;
    e.retryBackoffMaxUs = 44444.5;
    e.svcQueueCap = 17;
    e.shedPolicy = 2;
    e.timelineIntervalUs = 2500.0625;
    e.traceSampleRate = 0.7;
    e.engineProfile = true;
    e.topo.nodes = 6;
    e.topo.kind = 2;
    e.topo.linkLatencyUs = 55.5;
    e.topo.switchLatencyUs = 7.25;
    e.topo.segMbps = 4.444444444444445;
    e.topo.placement = 3;
    return e;
}

/** 64-bit FNV-1a: a stable digest of a long document. */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(ExperimentJson, EveryFieldRoundTripsExactly)
{
    const Experiment original = everyFieldChanged();
    const Experiment back =
        experimentFromJsonText(experimentToJson(original));
    // Field-wise exact equality, doubles bitwise (operator== is
    // defaulted); any lossy rendering fails here.
    EXPECT_TRUE(back == original);

    // Spot-check the trickiest fields anyway, so a failure names the
    // culprit instead of just "not equal".
    EXPECT_EQ(back.seed, original.seed);
    EXPECT_EQ(back.computeUs, original.computeUs);
    EXPECT_EQ(back.traceFile, original.traceFile);
    ASSERT_EQ(back.crashSchedule.size(), 2u);
    EXPECT_EQ(back.crashSchedule[1].endUs, 6000.75);
}

TEST(ExperimentJson, EveryFieldChangedMovesEveryKnob)
{
    // A row added to the knob table without a value in the fixture
    // above fails here, so no knob's round trip goes untested.
    const std::vector<std::string> moved = knobDiff(everyFieldChanged());
    const std::set<std::string> named(moved.begin(), moved.end());
    std::size_t rows = 0;
    for (const Knob<Experiment> &k : knobs<Experiment>) {
        if (!std::holds_alternative<topo::Topology Experiment::*>(
                k.field)) {
            EXPECT_TRUE(named.count(k.name)) << k.name;
            ++rows;
            continue;
        }
        for (const Knob<topo::Topology> &t : knobs<topo::Topology>) {
            EXPECT_TRUE(named.count(std::string("topo.") + t.name))
                << t.name;
            ++rows;
        }
    }
    EXPECT_EQ(moved.size(), rows);
    EXPECT_EQ(named.size(), rows);
}

TEST(ExperimentJson, DefaultsRoundTripAndEqualDefaults)
{
    const Experiment defaults;
    const Experiment back =
        experimentFromJsonText(experimentToJson(defaults));
    EXPECT_TRUE(back == defaults);
}

TEST(ExperimentJson, GeneratedExperimentsRoundTrip)
{
    const ExperimentGenerator gen(99);
    for (std::uint64_t i = 0; i < 50; ++i) {
        const Experiment e = gen.generate(i);
        EXPECT_TRUE(experimentFromJsonText(experimentToJson(e)) == e)
            << "generator index " << i;
    }
}

TEST(ExperimentJson, DocumentBytesArePinned)
{
    // Repro files are artifacts: the bytes a given Experiment renders
    // to must not move, whatever the serializer's internals.
    EXPECT_EQ(fnv1a(experimentToJson(Experiment{})),
              0xcd809b34e7cd8a0eull);
    EXPECT_EQ(fnv1a(experimentToJson(everyFieldChanged())),
              0xb530ad213ad0d78cull);
    const ExperimentGenerator gen(1987);
    std::uint64_t corpus = fnv1a("");
    for (std::uint64_t i = 0; i < 200; ++i)
        corpus = fnv1a(experimentToJson(gen.generate(i)), corpus);
    EXPECT_EQ(corpus, 0x6d6683259d2613b7ull);
}

TEST(Shrink, CandidateSequenceIsPinned)
{
    // Every knob moved (the file knobs left empty), shrunk under a
    // synthetic predicate that runs no simulation: the order in which
    // the shrinker proposes candidates, and where it ends, is pinned.
    Experiment noisy = everyFieldChanged();
    noisy.traceFile.clear();
    noisy.reportFile.clear();
    std::uint64_t sequence = fnv1a("");
    const ShrinkResult res = shrinkExperiment(
        noisy, [&sequence](const Experiment &cand) {
            sequence = fnv1a(experimentToJson(cand), sequence);
            return cand.lossRate > 0.005 && cand.conversations >= 3 &&
                   cand.topo.nodes >= 4 &&
                   cand.topo.linkLatencyUs > 10 &&
                   !cand.crashSchedule.empty() &&
                   cand.reliableProtocol && cand.retryBudget >= 2;
        });
    EXPECT_EQ(sequence, 0xece445a878531d36ull);
    EXPECT_EQ(res.runsUsed, 163);
    EXPECT_EQ(fnv1a(experimentToJson(res.minimal)), 0x6012ab57d76f78beull);
}

TEST(ExperimentJson, MissingFieldsKeepDefaults)
{
    const Experiment e =
        experimentFromJsonText("{\"conversations\": 4}");
    EXPECT_EQ(e.conversations, 4);
    Experiment expect;
    expect.conversations = 4;
    EXPECT_TRUE(e == expect);
}

TEST(ExperimentJson, RejectsUnknownAndIllTyped)
{
    // A typo must not silently run the default configuration.
    EXPECT_THROW(experimentFromJsonText("{\"lossRat\": 0.5}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText("{\"lossRate\": \"0.5\"}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText("{\"local\": 1}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText("{\"conversations\": 1.5}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText("{\"conversations\": 1e10}"),
                 std::runtime_error);
    // Seeds travel as decimal strings, not numbers.
    EXPECT_THROW(experimentFromJsonText("{\"seed\": 12}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText("{\"seed\": \"12monkeys\"}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText("{\"arch\": 5}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText("[1, 2]"),
                 std::runtime_error);
    // Crash windows get the same unknown-key check as every other
    // record, and all three of their fields are required.
    const auto message = [](const std::string &doc) {
        try {
            experimentFromJsonText(doc);
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(message("{\"crashSchedule\": [{\"node\": 1, "
                      "\"startUs\": 10, \"endUs\": 20, "
                      "\"endUS\": 30}]}"),
              "unknown crash window field 'endUS'");
    EXPECT_EQ(message("{\"crashSchedule\": [{\"node\": 1, "
                      "\"startUs\": 10}]}"),
              "crash window entries need 'node', 'startUs' and "
              "'endUs'");
    // A literal past the double range is an error, not infinity
    // (which would print back as "inf", a document the parser
    // rejects).  Finite but unrunnable times (1e300 overflows the
    // tick clock, 1e-300 is a zero-tick window) parse, and
    // runExperiment rejects them (IpcSimValidation.
    // RejectsUnrepresentableTimes).
    EXPECT_EQ(message("{\"measureUs\": 1e400}"),
              "number '1e400' overflows a double at byte 14");
    EXPECT_EQ(message("{\"warmupUs\": -1e400}"),
              "number '-1e400' overflows a double at byte 13");
    EXPECT_EQ(message("{\"crashSchedule\": [{\"node\": 1, "
                      "\"startUs\": 10, \"endUs\": 1e400}]}"),
              "number '1e400' overflows a double at byte 55");
    // Removed knobs are unknown fields: an old repro naming them
    // fails loudly instead of running without them (the network
    // knobs' spellings are topology fields now).
    for (const std::string key :
         {"queueKind", "expectedPendingEvents", "wireUs",
          "useTokenRing", "ringMbps", "packetBytes", "paretoAlpha",
          "paretoBound", "rtoMaxUs"}) {
        try {
            experimentFromJsonText("{\"" + key + "\": 0}");
            ADD_FAILURE() << key << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "unknown experiment field '" + key + "'");
        }
    }
    for (const std::string key :
         {"linkMbps", "segments", "zipfSkew", "links"}) {
        try {
            experimentFromJsonText("{\"topology\": {\"" + key +
                                   "\": 0}}");
            ADD_FAILURE() << key << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "unknown topology field '" + key + "'");
        }
    }
}

TEST(ExperimentJson, TopologyRoundTripsAndOmitsItselfByDefault)
{
    // Defaults carry no topology object at all: pre-topology golden
    // documents stay byte-identical.
    EXPECT_EQ(experimentToJson(Experiment{}).find("topology"),
              std::string::npos);

    Experiment e;
    e.topo.nodes = 4;
    e.topo.kind = 1;
    e.topo.switchLatencyUs = 12.5;
    e.topo.placement = 2;
    const std::string text = experimentToJson(e);
    EXPECT_NE(text.find("\"topology\""), std::string::npos);
    const Experiment back = experimentFromJsonText(text);
    EXPECT_TRUE(back == e);
    EXPECT_EQ(back.topo.switchLatencyUs, 12.5);
}

TEST(ExperimentJson, RejectsBadTopologyDocuments)
{
    // The nested object gets the same unknown-key treatment as the
    // top level: a typo must not silently run a different topology.
    EXPECT_THROW(
        experimentFromJsonText("{\"topology\": {\"nodez\": 2}}"),
        std::runtime_error);
    EXPECT_THROW(experimentFromJsonText("{\"topology\": 3}"),
                 std::runtime_error);
    EXPECT_THROW(
        experimentFromJsonText("{\"topology\": {\"nodes\": 2.5}}"),
        std::runtime_error);
}

TEST(JsonValue, ParsesTheBasics)
{
    const JsonValue v = parseJson(
        "{\"a\": [1, -2.5e3, true, false, null], "
        "\"b\": \"u\\u00e9\\t\\\"\", \"c\": {}}");
    ASSERT_TRUE(v.isObject());
    const auto &arr = v.at("a").asArray();
    ASSERT_EQ(arr.size(), 5u);
    EXPECT_EQ(arr[0].asNumber(), 1.0);
    EXPECT_EQ(arr[1].asNumber(), -2500.0);
    EXPECT_TRUE(arr[2].asBool());
    EXPECT_FALSE(arr[3].asBool());
    EXPECT_TRUE(arr[4].isNull());
    EXPECT_EQ(v.at("b").asString(), "u\xc3\xa9\t\"");
    EXPECT_TRUE(v.at("c").isObject());
    EXPECT_FALSE(v.has("missing"));
    EXPECT_THROW(v.at("missing"), std::out_of_range);
}

TEST(JsonValue, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\" 1}", "{\"a\": 1,}", "nul",
          "\"unterminated", "1 2", "{\"a\": --1}", "\"\\x\"", "1e999",
          "[-2e308]"}) {
        EXPECT_THROW(parseJson(bad), JsonParseError) << bad;
    }
}

TEST(JsonValue, ReportsTheFailureOffset)
{
    try {
        parseJson("{\"ok\": 1, \"bad\": nope}");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &e) {
        EXPECT_GE(e.offset, 17u);
        EXPECT_NE(std::string(e.what()).find("byte"),
                  std::string::npos);
    }
}

} // namespace
