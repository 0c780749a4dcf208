/**
 * @file
 * Unit tests for the common utilities.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/time.hh"

namespace
{

using namespace hsipc;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformRange)
{
    Rng r(8);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(3.0, 5.0);
        ASSERT_GE(u, 3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, GeometricMeanMatches)
{
    Rng r(9);
    const double mean = 37.0;
    double total = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        total += static_cast<double>(r.geometric(mean));
    EXPECT_NEAR(total / n, mean, 0.5);
}

TEST(Rng, GeometricDegenerateMean)
{
    Rng r(10);
    EXPECT_EQ(r.geometric(1.0), 1u);
    EXPECT_EQ(r.geometric(0.5), 1u);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(RunningStat, MeanAndVariance)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStat, SingleSampleHasZeroVariance)
{
    RunningStat s;
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.ci95(), 0.0);
}

TEST(TimeWeightedStat, PiecewiseConstantAverage)
{
    TimeWeightedStat s;
    s.update(0, 2.0);   // value 2 on [0, 10)
    s.update(10, 4.0);  // value 4 on [10, 30)
    EXPECT_DOUBLE_EQ(s.average(30), (2.0 * 10 + 4.0 * 20) / 30.0);
}

TEST(TimeWeightedStat, ResetRestartsWindow)
{
    TimeWeightedStat s;
    s.update(0, 100.0);
    s.reset(50);
    s.update(60, 0.0);
    // value 100 on [50, 60), 0 on [60, 70).
    EXPECT_DOUBLE_EQ(s.average(70), 50.0);
}

TEST(TimeConversions, RoundTrips)
{
    EXPECT_EQ(usToTicks(1.0), tickUs);
    EXPECT_EQ(usToTicks(0.5), tickUs / 2);
    EXPECT_DOUBLE_EQ(ticksToUs(usToTicks(123.25)), 123.25);
    EXPECT_DOUBLE_EQ(ticksToMs(tickSec), 1000.0);
}

TEST(TextTable, RendersAlignedRows)
{
    TextTable t("Demo");
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"b", "22.5"});
    const std::string out = t.render();
    EXPECT_NE(out.find("== Demo =="), std::string::npos);
    // The "value" column is padded to its header width (5).
    EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(out.find("| b     | 22.5  |"), std::string::npos);
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}


TEST(TextTable, CsvRendering)
{
    TextTable t("csv");
    t.header({"name", "value"});
    t.row({"plain", "1"});
    t.row({"needs,quote", "say \"hi\""});
    const std::string csv = t.renderCsv();
    EXPECT_EQ(csv,
              "name,value\n"
              "plain,1\n"
              "\"needs,quote\",\"say \"\"hi\"\"\"\n");
}

TEST(TextTable, JsonRendering)
{
    TextTable t("Demo");
    t.header({"name", "value"});
    t.row({"a \"quoted\"", "1"});
    const std::string json = t.renderJson();
    EXPECT_EQ(json,
              "{\"title\": \"Demo\", "
              "\"columns\": [\"name\", \"value\"], \"rows\": [\n"
              "    [\"a \\\"quoted\\\"\", \"1\"]\n  ]}");
}

TEST(Json, EscapeAndNumber)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonString("x"), "\"x\"");
    EXPECT_EQ(jsonNumber(2.0), "2");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(INFINITY), "null");
}

TEST(Json, SectionsEmbedDocumentsVerbatim)
{
    EXPECT_EQ(jsonSections({}), "{\n}\n");
    EXPECT_EQ(jsonSections({{"a", "{\n  \"x\": 1\n}\n"}, {"b", "[2]"}}),
              "{\n\"a\": {\n  \"x\": 1\n},\n\"b\": [2]\n}\n");
}

// --- The checked file writer -----------------------------------------

TEST(File, WriteFileOrDieRoundTrips)
{
    const std::string path = testing::TempDir() + "hsipc_file_test.txt";
    writeFileOrDie(path, "hello\n");
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[16] = {};
    EXPECT_EQ(std::fread(buf, 1, sizeof(buf), f), 6u);
    std::fclose(f);
    EXPECT_STREQ(buf, "hello\n");
    std::remove(path.c_str());
}

TEST(File, WriteFileOrDieFailsLoudlyOnAFullDevice)
{
    // /dev/full accepts the open and fails the write (ENOSPC), which
    // stdio reports only when the buffer is flushed at fclose.
    if (std::FILE *probe = std::fopen("/dev/full", "w"))
        std::fclose(probe);
    else
        GTEST_SKIP() << "no /dev/full on this system";
    EXPECT_EXIT(writeFileOrDie("/dev/full", "{}\n"),
                testing::ExitedWithCode(1),
                "cannot write /dev/full: No space left on device");
    EXPECT_EXIT(writeFileOrDie("/nonexistent-dir/x.json", "{}\n"),
                testing::ExitedWithCode(1),
                "cannot open /nonexistent-dir/x.json");
}

// --- Warning hook and rate-limited warnings --------------------------

/** Install a capturing warn hook for the test's scope. */
struct WarnCapture
{
    std::vector<std::string> seen;

    WarnCapture()
    {
        warnHook() = [this](const std::string &m) {
            seen.push_back(m);
        };
    }

    ~WarnCapture() { warnHook() = nullptr; }
};

TEST(Logging, WarnRoutesThroughHook)
{
    WarnCapture cap;
    hsipc_warn("something odd");
    ASSERT_EQ(cap.seen.size(), 1u);
    EXPECT_EQ(cap.seen[0], "something odd");
}

TEST(Logging, WarnOnceFiresOncePerCallSite)
{
    WarnCapture cap;
    for (int i = 0; i < 5; ++i)
        hsipc_warn_once("only once");
    ASSERT_EQ(cap.seen.size(), 1u);
    EXPECT_EQ(cap.seen[0], "only once");

    // A different call site is an independent once-latch.
    hsipc_warn_once("another site");
    EXPECT_EQ(cap.seen.size(), 2u);
}

TEST(Logging, WarnEveryRateLimits)
{
    WarnCapture cap;
    for (int i = 0; i < 7; ++i)
        hsipc_warn_every(3, "hot loop");
    // Occurrences 1, 4, and 7 are reported with the running count.
    ASSERT_EQ(cap.seen.size(), 3u);
    EXPECT_EQ(cap.seen[0], "hot loop (occurrence 1)");
    EXPECT_EQ(cap.seen[1], "hot loop (occurrence 4)");
    EXPECT_EQ(cap.seen[2], "hot loop (occurrence 7)");
}

} // namespace
