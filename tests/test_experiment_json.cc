/**
 * @file
 * Tests of the Experiment ⇄ JSON round trip (sim/check) and the
 * underlying JSON parser (common/json_value): every field survives a
 * round trip bit-exactly — including awkward doubles and a full
 * 64-bit seed — and malformed or mistyped documents fail loudly.
 */

#include <cstdint>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "common/json_value.hh"
#include "sim/check/experiment_json.hh"
#include "sim/check/generator.hh"

namespace
{

using namespace hsipc;
using namespace hsipc::sim;
using namespace hsipc::sim::check;

/** An Experiment with every field moved off its default. */
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
    e.packetBytes = 129;
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
    e.metricsFile = "metrics\\path.json";
    e.decomposeLatency = true;
    e.arrivalMode = 2;
    e.arrivalRatePerSec = 12345.6789;
    e.paretoAlpha = 1.0 / 0.7; // 1.4285714285714286: %.17g territory
    e.paretoBound = 987.654321;
    e.deadlineUs = 15000.125;
    e.retryBudget = 4;
    e.retryBackoffUs = 333.375;
    e.retryBackoffMaxUs = 44444.5;
    e.svcQueueCap = 17;
    e.shedPolicy = 2;
    e.rtoMaxUs = 123456.789;
    e.topo.nodes = 6;
    e.topo.kind = 2;
    e.topo.linkLatencyUs = 55.5;
    e.topo.linkMbps = 12.000000000000002;
    e.topo.switchLatencyUs = 7.25;
    e.topo.segments = 3;
    e.topo.segMbps = 4.444444444444445;
    e.topo.placement = 3;
    e.topo.zipfSkew = 1.0 / 3.0;
    e.topo.links = {{0, 1, 250.125, 2.5}, {4, 2, 1000, 0}};
    return e;
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
    // Seeds travel as decimal strings, not numbers.
    EXPECT_THROW(experimentFromJsonText("{\"seed\": 12}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText("{\"seed\": \"12monkeys\"}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText("{\"arch\": 5}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText("[1, 2]"),
                 std::runtime_error);
    // Removed knobs are unknown fields: an old repro naming them
    // fails loudly instead of running without them (the network
    // knobs' spellings are topology fields now).
    for (const std::string key :
         {"queueKind", "expectedPendingEvents", "wireUs",
          "useTokenRing", "ringMbps"}) {
        try {
            experimentFromJsonText("{\"" + key + "\": 0}");
            ADD_FAILURE() << key << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "unknown experiment field '" + key + "'");
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
    e.topo.links = {{1, 3, 99.5, 7.5}};
    const std::string text = experimentToJson(e);
    EXPECT_NE(text.find("\"topology\""), std::string::npos);
    const Experiment back = experimentFromJsonText(text);
    EXPECT_TRUE(back == e);
    ASSERT_EQ(back.topo.links.size(), 1u);
    EXPECT_EQ(back.topo.links[0].a, 1);
    EXPECT_EQ(back.topo.links[0].b, 3);
    EXPECT_EQ(back.topo.links[0].latencyUs, 99.5);
    EXPECT_EQ(back.topo.links[0].mbps, 7.5);
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
    // Link entries are checked too: unknown keys, wrong types, and
    // missing endpoints all fail loudly.
    EXPECT_THROW(experimentFromJsonText(
                     "{\"topology\": {\"links\": "
                     "[{\"a\": 0, \"b\": 1, \"lat\": 5}]}}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText(
                     "{\"topology\": {\"links\": [7]}}"),
                 std::runtime_error);
    EXPECT_THROW(experimentFromJsonText(
                     "{\"topology\": {\"links\": [{\"a\": 0}]}}"),
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
          "\"unterminated", "1 2", "{\"a\": --1}", "\"\\x\""}) {
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
