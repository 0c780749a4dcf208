/**
 * @file
 * Tests for the observability layer: the tracer's span merging,
 * window folds, and Chrome trace_event emission (against a golden
 * document and a JSON syntax checker); the metrics registry's
 * log2-bucket histograms; and — the load-bearing property — that
 * attaching a tracer or registry to the simulators changes no
 * measured result.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics/metrics.hh"
#include "common/obs/trace_sample.hh"
#include "common/trace/tracer.hh"
#include "core/gtpn/net.hh"
#include "core/gtpn/simulator.hh"
#include "sim/check/experiment_json.hh"
#include "sim/kernel/ipc_sim.hh"
#include "sim/runner/sweep_runner.hh"

namespace
{

using namespace hsipc;

// --- A minimal JSON syntax checker (no external deps) ---------------

struct JsonChecker
{
    const char *p;
    const char *end;

    explicit JsonChecker(const std::string &s)
        : p(s.data()), end(s.data() + s.size())
    {}

    void
    ws()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    lit(const char *s)
    {
        const std::size_t n = std::string(s).size();
        if (static_cast<std::size_t>(end - p) < n ||
            std::string(p, n) != s)
            return false;
        p += n;
        return true;
    }

    bool
    string()
    {
        if (p >= end || *p != '"')
            return false;
        ++p;
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return false;
                if (*p == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++p;
                        if (p >= end || !std::isxdigit(
                                            static_cast<unsigned char>(
                                                *p)))
                            return false;
                    }
                }
            } else if (static_cast<unsigned char>(*p) < 0x20) {
                return false; // raw control char: invalid JSON
            }
            ++p;
        }
        if (p >= end)
            return false;
        ++p; // closing quote
        return true;
    }

    bool
    number()
    {
        const char *q = p;
        if (p < end && *p == '-')
            ++p;
        while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                           *p == '.' || *p == 'e' || *p == 'E' ||
                           *p == '+' || *p == '-'))
            ++p;
        return p > q;
    }

    bool
    value()
    {
        ws();
        if (p >= end)
            return false;
        if (*p == '{') {
            ++p;
            ws();
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            while (true) {
                ws();
                if (!string())
                    return false;
                ws();
                if (p >= end || *p != ':')
                    return false;
                ++p;
                if (!value())
                    return false;
                ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                break;
            }
            if (p >= end || *p != '}')
                return false;
            ++p;
            return true;
        }
        if (*p == '[') {
            ++p;
            ws();
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            while (true) {
                if (!value())
                    return false;
                ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                break;
            }
            if (p >= end || *p != ']')
                return false;
            ++p;
            return true;
        }
        if (*p == '"')
            return string();
        if (lit("true") || lit("false") || lit("null"))
            return true;
        return number();
    }

    bool
    document()
    {
        if (!value())
            return false;
        ws();
        return p == end;
    }
};

bool
validJson(const std::string &s)
{
    return JsonChecker(s).document();
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

/** @p doc without its trailing newlines. */
std::string
trimmed(std::string doc)
{
    while (!doc.empty() && doc.back() == '\n')
        doc.pop_back();
    return doc;
}

/**
 * The text of member @p key of a run report ("" when absent).
 * jsonSections() starts every member on a line of its own, so
 * "\n\"key\": " is unique; the value ends at its matching brace.
 */
std::string
reportSection(const std::string &report, const std::string &key)
{
    const std::string head = "\n\"" + key + "\": ";
    const std::size_t at = report.find(head);
    if (at == std::string::npos)
        return "";
    const std::size_t from = at + head.size();
    int depth = 0;
    bool inString = false;
    for (std::size_t i = from; i < report.size(); ++i) {
        const char c = report[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
        } else if (c == '"') {
            inString = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if ((c == '}' || c == ']') && --depth == 0) {
            return report.substr(from, i + 1 - from);
        }
    }
    return "";
}

// --- Tracer ----------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing)
{
    trace::Tracer tr;
    const int t = tr.track("cpu");
    tr.complete(t, "work", 0, 100);
    tr.instant(t, "tick", 50);
    tr.counter(t, "depth", 50, 3);
    EXPECT_TRUE(tr.events().empty());
    EXPECT_FALSE(tr.enabled());
    // Tracks register even while disabled, so layout stays stable.
    EXPECT_EQ(tr.trackNames().size(), 1u);
}

TEST(Tracer, MergesAbuttingSameNameSpans)
{
    trace::Tracer tr;
    tr.setEnabled(true);
    const int t = tr.track("cpu");
    tr.complete(t, "act", 0, 10);
    tr.complete(t, "act", 10, 5); // abuts, same name: merges
    ASSERT_EQ(tr.events().size(), 1u);
    EXPECT_EQ(tr.events()[0].duration, 15);
}

TEST(Tracer, GapOrDifferentNameSplitsSpans)
{
    trace::Tracer tr;
    tr.setEnabled(true);
    const int t = tr.track("cpu");
    tr.complete(t, "act", 0, 10);
    tr.complete(t, "act", 12, 5);   // gap: new span
    tr.complete(t, "other", 17, 5); // different name: new span
    EXPECT_EQ(tr.events().size(), 3u);

    // Merging is per track: an abutting same-name span on another
    // track must not fuse.
    const int u = tr.track("cpu2");
    tr.complete(u, "other", 22, 5);
    EXPECT_EQ(tr.events().size(), 4u);
}

TEST(Tracer, NeverMergesAcrossMessageIds)
{
    trace::Tracer tr;
    tr.setEnabled(true);
    const int t = tr.track("cpu");
    tr.complete(t, "act", 0, 10, "activity", 1);
    tr.complete(t, "act", 10, 5, "activity", 2); // abuts, other msg
    ASSERT_EQ(tr.events().size(), 2u);
    tr.complete(t, "act", 15, 5, "activity", 2); // same msg: merges
    ASSERT_EQ(tr.events().size(), 2u);
    EXPECT_EQ(tr.events()[1].duration, 10);
}

TEST(Tracer, FlowAndAsyncGoldenChromeJson)
{
    trace::Tracer tr;
    tr.setEnabled(true);
    const int cpu = tr.track("cpu0");
    tr.complete(cpu, "work", 0, usToTicks(1), "activity", 7);
    tr.flowStep(cpu, "msg", 0, 7);            // first step: "s"
    tr.flowStep(cpu, "msg", usToTicks(2), 7); // subsequent: "t"
    tr.flowEnd(cpu, "msg", usToTicks(3), 7);  // terminator: "f"
    tr.asyncBegin(cpu, "roundTrip", 0, 7);
    tr.asyncEnd(cpu, "roundTrip", usToTicks(3), 7);
    // Ending a flow that never started records nothing.
    tr.flowEnd(cpu, "msg", usToTicks(4), 99);
    ASSERT_EQ(tr.events().size(), 6u);

    const std::string expected =
        "{\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"cpu0\"}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,"
        "\"dur\":1.000,\"name\":\"work\",\"cat\":\"activity\","
        "\"args\":{\"msg\":7}},\n"
        "{\"ph\":\"s\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"id\":7,"
        "\"name\":\"msg\",\"cat\":\"flow\"},\n"
        "{\"ph\":\"t\",\"pid\":1,\"tid\":0,\"ts\":2.000,\"id\":7,"
        "\"name\":\"msg\",\"cat\":\"flow\"},\n"
        "{\"ph\":\"f\",\"pid\":1,\"tid\":0,\"ts\":3.000,\"id\":7,"
        "\"name\":\"msg\",\"cat\":\"flow\",\"bp\":\"e\"},\n"
        "{\"ph\":\"b\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"id\":7,"
        "\"name\":\"roundTrip\",\"cat\":\"msg\"},\n"
        "{\"ph\":\"e\",\"pid\":1,\"tid\":0,\"ts\":3.000,\"id\":7,"
        "\"name\":\"roundTrip\",\"cat\":\"msg\"}\n"
        "],\"displayTimeUnit\":\"ms\"}\n";
    EXPECT_EQ(tr.chromeJson(), expected);
    EXPECT_TRUE(validJson(tr.chromeJson()));
}

TEST(Tracer, GoldenChromeJson)
{
    trace::Tracer tr;
    tr.setEnabled(true);
    const int cpu = tr.track("cpu0");
    const int bus = tr.track("bus");
    tr.complete(cpu, "boot", 0, usToTicks(2));
    tr.instant(bus, "drop", usToTicks(3));
    tr.counter(bus, "queued", usToTicks(3), 2);

    const std::string expected =
        "{\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"cpu0\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"bus\"}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,"
        "\"dur\":2.000,\"name\":\"boot\",\"cat\":\"activity\"},\n"
        "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":3.000,"
        "\"name\":\"drop\",\"cat\":\"event\",\"s\":\"t\"},\n"
        "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":3.000,"
        "\"name\":\"queued\",\"args\":{\"value\":2}}\n"
        "],\"displayTimeUnit\":\"ms\"}\n";
    EXPECT_EQ(tr.chromeJson(), expected);
    EXPECT_TRUE(validJson(tr.chromeJson()));
}

TEST(Tracer, ChromeJsonEscapesAwkwardNames)
{
    trace::Tracer tr;
    tr.setEnabled(true);
    const int t = tr.track("weird \"track\"\\name");
    tr.instant(t, "line\nbreak\ttab", 0);
    const std::string doc = tr.chromeJson();
    EXPECT_TRUE(validJson(doc)) << doc;
    EXPECT_NE(doc.find("\\\"track\\\""), std::string::npos);
    EXPECT_NE(doc.find("\\n"), std::string::npos);
}

TEST(Tracer, BusyFoldsClipToWindow)
{
    trace::Tracer tr;
    tr.setEnabled(true);
    const int a = tr.track("cpu0");
    const int b = tr.track("cpu1");
    tr.complete(a, "act", 0, 10);   // [0, 10)
    tr.complete(a, "act", 20, 10);  // [20, 30)
    tr.complete(b, "act", 5, 10);   // [5, 15)
    tr.instant(a, "noise", 7);      // instants never count as busy

    const auto byTrack = tr.busyByTrack(5, 25);
    EXPECT_EQ(byTrack.at("cpu0"), 10); // 5 from each span
    EXPECT_EQ(byTrack.at("cpu1"), 10);

    const auto byName = tr.busyByName(5, 25);
    EXPECT_EQ(byName.at("act"), 20);

    // A window touching nothing yields an empty fold.
    EXPECT_TRUE(tr.busyByTrack(100, 200).empty());
}

// --- Metrics ---------------------------------------------------------

TEST(Histogram, BucketEdges)
{
    using metrics::Histogram;
    // Bucket 0: everything below 1, including zero and negatives.
    EXPECT_EQ(Histogram::bucketIndex(0.0), 0);
    EXPECT_EQ(Histogram::bucketIndex(-5.0), 0);
    EXPECT_EQ(Histogram::bucketIndex(0.999), 0);
    // Bucket i >= 1 holds [2^(i-1), 2^i): exact powers of two open
    // their bucket.
    EXPECT_EQ(Histogram::bucketIndex(1.0), 1);
    EXPECT_EQ(Histogram::bucketIndex(1.999), 1);
    EXPECT_EQ(Histogram::bucketIndex(2.0), 2);
    EXPECT_EQ(Histogram::bucketIndex(3.999), 2);
    EXPECT_EQ(Histogram::bucketIndex(4.0), 3);
    EXPECT_EQ(Histogram::bucketIndex(1024.0), 11);
    EXPECT_EQ(Histogram::bucketIndex(1023.999), 10);
    // Values at or beyond 2^62 clamp into the last bucket.
    EXPECT_EQ(Histogram::bucketIndex(std::ldexp(1.0, 62)), 63);
    EXPECT_EQ(Histogram::bucketIndex(1e300), 63);

    EXPECT_EQ(Histogram::bucketLowerBound(0), 0.0);
    EXPECT_EQ(Histogram::bucketLowerBound(1), 1.0);
    EXPECT_EQ(Histogram::bucketLowerBound(2), 2.0);
    EXPECT_EQ(Histogram::bucketLowerBound(11), 1024.0);
}

TEST(Histogram, SummaryStats)
{
    metrics::Histogram h;
    EXPECT_EQ(h.count(), 0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);

    for (double v : {4.0, 1.0, 7.0})
        h.observe(v);
    EXPECT_EQ(h.count(), 3);
    EXPECT_EQ(h.sum(), 12.0);
    EXPECT_EQ(h.mean(), 4.0);
    EXPECT_EQ(h.min(), 1.0);
    EXPECT_EQ(h.max(), 7.0);
    EXPECT_EQ(h.bucketCount(1), 1); // the 1.0
    EXPECT_EQ(h.bucketCount(3), 2); // 4.0 and 7.0 share [4, 8)
}

TEST(Histogram, QuantileUpperBound)
{
    metrics::Histogram h;
    EXPECT_EQ(h.quantileUpperBound(0.5), 0.0); // empty
    for (int i = 0; i < 90; ++i)
        h.observe(3.0); // bucket 2, upper edge 4
    for (int i = 0; i < 10; ++i)
        h.observe(1000.0); // bucket 10, upper edge 1024
    EXPECT_EQ(h.quantileUpperBound(0.5), 4.0);
    EXPECT_EQ(h.quantileUpperBound(0.9), 4.0);
    EXPECT_EQ(h.quantileUpperBound(0.95), 1024.0);
    EXPECT_EQ(h.quantileUpperBound(1.0), 1024.0);
}

TEST(Registry, JsonAndTableRender)
{
    metrics::Registry reg;
    EXPECT_TRUE(reg.empty());
    EXPECT_TRUE(validJson(reg.toJson())) << reg.toJson();

    reg.counter("net.drops").inc(3);
    reg.histogram("ipc.roundTripUs").observe(2400);
    EXPECT_FALSE(reg.empty());

    const std::string json = reg.toJson();
    EXPECT_TRUE(validJson(json)) << json;
    EXPECT_NE(json.find("\"net.drops\": 3"), std::string::npos);
    EXPECT_NE(json.find("ipc.roundTripUs"), std::string::npos);

    // One sample: every quantile is that sample, not its bucket's
    // upper edge (4096).
    EXPECT_NE(json.find("\"max\": 2400, \"p50\": 2400, \"p95\": 2400, "
                        "\"p99\": 2400"),
              std::string::npos)
        << json;

    const std::string table = reg.toTable();
    EXPECT_NE(table.find("net.drops"), std::string::npos);
    EXPECT_NE(table.find("ipc.roundTripUs"), std::string::npos);
    EXPECT_NE(table.find("| 2400.00 | 2400.00 | 2400.00 | 2400.00 |"),
              std::string::npos)
        << table;
}

TEST(Registry, BucketQuantileIsClampedToMax)
{
    // With no sketch the registry reports the bucket's upper edge,
    // but never above the largest sample; the histogram's own bound
    // stays the raw edge.
    metrics::Registry reg;
    metrics::Histogram &h = reg.histogram("x");
    for (int i = 0; i < 90; ++i)
        h.observe(3.0); // bucket 2, upper edge 4
    for (int i = 0; i < 10; ++i)
        h.observe(1000.0); // bucket 10, upper edge 1024
    EXPECT_EQ(reg.histogramQuantile("x", h, 0.5), 4.0);
    EXPECT_EQ(reg.histogramQuantile("x", h, 0.95), 1000.0);
    EXPECT_EQ(h.quantileUpperBound(0.95), 1024.0);
}

// --- Observability wired into the simulators -------------------------

/** A short lossy two-node run exercising the reliability stack. */
sim::Experiment
lossyExperiment()
{
    sim::Experiment e;
    e.arch = models::Arch::II;
    e.local = false;
    e.conversations = 3;
    e.computeUs = 1000;
    e.lossRate = 0.05;
    e.corruptRate = 0.01;
    e.duplicateRate = 0.02;
    e.crashSchedule.push_back({1, 60000, 80000});
    e.warmupUs = 20000;
    e.measureUs = 200000;
    e.seed = 11;
    return e;
}

void
expectSameOutcome(const sim::Outcome &a, const sim::Outcome &b,
                  bool includeDecomposition = true)
{
    // Skipped when the two runs differ in decomposeLatency itself
    // (one side deliberately has an empty decomposition).
    if (includeDecomposition) {
        EXPECT_EQ(a.decomposition, b.decomposition);
    }
    EXPECT_EQ(a.throughputPerSec, b.throughputPerSec);
    EXPECT_EQ(a.meanRoundTripUs, b.meanRoundTripUs);
    EXPECT_EQ(a.rtCi95Us, b.rtCi95Us);
    EXPECT_EQ(a.rtP50Us, b.rtP50Us);
    EXPECT_EQ(a.rtP95Us, b.rtP95Us);
    EXPECT_EQ(a.roundTrips, b.roundTrips);
    EXPECT_EQ(a.hostUtil, b.hostUtil);
    EXPECT_EQ(a.mpUtil, b.mpUtil);
    EXPECT_EQ(a.busUtil, b.busUtil);
    EXPECT_EQ(a.resourceUtilization, b.resourceUtilization);
    EXPECT_EQ(a.bufferStalls, b.bufferStalls);
    EXPECT_EQ(a.ringUtil, b.ringUtil);
    EXPECT_EQ(a.ringTokenWaitUs, b.ringTokenWaitUs);
    EXPECT_EQ(a.activityUsPerRoundTrip, b.activityUsPerRoundTrip);
    EXPECT_EQ(a.localThroughputPerSec, b.localThroughputPerSec);
    EXPECT_EQ(a.remoteThroughputPerSec, b.remoteThroughputPerSec);
    EXPECT_EQ(a.localMeanRtUs, b.localMeanRtUs);
    EXPECT_EQ(a.remoteMeanRtUs, b.remoteMeanRtUs);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.timeoutsFired, b.timeoutsFired);
    EXPECT_EQ(a.duplicatesDropped, b.duplicatesDropped);
    EXPECT_EQ(a.corruptDiscarded, b.corruptDiscarded);
    EXPECT_EQ(a.faultDrops, b.faultDrops);
    EXPECT_EQ(a.crashDrops, b.crashDrops);
    EXPECT_EQ(a.netThroughputPktsPerSec, b.netThroughputPktsPerSec);
    EXPECT_EQ(a.netGoodputPktsPerSec, b.netGoodputPktsPerSec);
    EXPECT_EQ(a.protoHostUsPerRt, b.protoHostUsPerRt);
    EXPECT_EQ(a.protoMpUsPerRt, b.protoMpUsPerRt);
    EXPECT_EQ(a.crashWindowsRecovered, b.crashWindowsRecovered);
    EXPECT_EQ(a.meanRecoveryUs, b.meanRecoveryUs);
}

TEST(Observability, TracingDoesNotPerturbOutcome)
{
    const sim::Experiment e = lossyExperiment();
    const sim::Outcome plain = sim::runExperiment(e);

    trace::Tracer tr;
    tr.setEnabled(true);
    metrics::Registry reg;
    const sim::Outcome traced = sim::runExperiment(e, &tr, &reg);

    EXPECT_FALSE(tr.events().empty());
    EXPECT_GT(reg.histogram("ipc.roundTripUs").count(), 0);
    expectSameOutcome(plain, traced);
}

TEST(Observability, TracingDoesNotPerturbLocalRun)
{
    sim::Experiment e;
    e.arch = models::Arch::I;
    e.local = true;
    e.conversations = 2;
    e.computeUs = 1140;
    e.warmupUs = 20000;
    e.measureUs = 150000;
    const sim::Outcome plain = sim::runExperiment(e);

    trace::Tracer tr;
    tr.setEnabled(true);
    const sim::Outcome traced = sim::runExperiment(e, &tr, nullptr);
    expectSameOutcome(plain, traced);
}

TEST(Observability, DecompositionDoesNotPerturbOutcome)
{
    // The causal log is pay-for-use: turning it on changes no other
    // measured field, lossy reliability stack included.
    sim::Experiment e = lossyExperiment();
    const sim::Outcome plain = sim::runExperiment(e);
    EXPECT_EQ(plain.decomposition.messages, 0);

    e.decomposeLatency = true;
    const sim::Outcome decomposed = sim::runExperiment(e);
    EXPECT_GT(decomposed.decomposition.messages, 0);
    expectSameOutcome(plain, decomposed,
                      /*includeDecomposition=*/false);

    // And with the tracer also attached, everything — the
    // decomposition included — is reproduced bit for bit.
    trace::Tracer tr;
    tr.setEnabled(true);
    metrics::Registry reg;
    const sim::Outcome traced = sim::runExperiment(e, &tr, &reg);
    expectSameOutcome(decomposed, traced);
    // The component latency histograms landed in the registry.
    EXPECT_GT(reg.histogram("lat.roundTripUs").count(), 0);
    EXPECT_GT(reg.histogram("lat.queueUs").count(), 0);
    EXPECT_EQ(reg.histogram("lat.serviceUs").count(),
              decomposed.decomposition.messages);
}

TEST(Observability, SimEmitsFlowAndAsyncEvents)
{
    sim::Experiment e = lossyExperiment();
    trace::Tracer tr;
    tr.setEnabled(true);
    const sim::Outcome o = sim::runExperiment(e, &tr, nullptr);
    ASSERT_GT(o.roundTrips, 0);

    long flowStarts = 0, flowSteps = 0, flowEnds = 0;
    long asyncBegins = 0, asyncEnds = 0, taggedSpans = 0;
    for (const trace::Event &ev : tr.events()) {
        switch (ev.phase) {
          case trace::Phase::FlowStart: ++flowStarts; break;
          case trace::Phase::FlowStep: ++flowSteps; break;
          case trace::Phase::FlowEnd: ++flowEnds; break;
          case trace::Phase::AsyncBegin: ++asyncBegins; break;
          case trace::Phase::AsyncEnd: ++asyncEnds; break;
          case trace::Phase::Complete:
            if (ev.id != 0)
                ++taggedSpans;
            break;
          default:
            break;
        }
    }
    // Every round trip opens a flow chain and an async span; both end
    // exactly once (in-flight messages at simulation end stay open).
    EXPECT_GT(flowStarts, 0);
    EXPECT_GT(flowSteps, flowStarts); // several hops per message
    EXPECT_GT(flowEnds, 0);
    EXPECT_LE(flowEnds, flowStarts);
    EXPECT_GE(asyncBegins, o.roundTrips);
    EXPECT_LE(asyncEnds, asyncBegins);
    EXPECT_GT(asyncEnds, 0);
    EXPECT_GT(taggedSpans, 0);
    EXPECT_TRUE(validJson(tr.chromeJson()));
}

TEST(Observability, ResourceUtilizationMatchesTrace)
{
    const sim::Experiment e = lossyExperiment();
    trace::Tracer tr;
    tr.setEnabled(true);
    const sim::Outcome o = sim::runExperiment(e, &tr, nullptr);

    const Tick warm = usToTicks(e.warmupUs);
    const Tick end = warm + usToTicks(e.measureUs);
    const auto busy = tr.busyByTrack(warm, end);
    const double window = static_cast<double>(end - warm);

    ASSERT_FALSE(o.resourceUtilization.empty());
    EXPECT_GT(o.resourceUtilization.count("n0.host0"), 0u);
    EXPECT_GT(o.resourceUtilization.count("n1.mp"), 0u);
    for (const auto &[name, util] : o.resourceUtilization) {
        Tick traced = 0;
        auto it = busy.find(name);
        if (it != busy.end())
            traced = it->second;
        // Near, not equal: a span straddling the warmup boundary is
        // charged to the snapshot at issue time but clipped by the
        // trace fold.
        EXPECT_NEAR(static_cast<double>(traced) / window, util, 1e-3)
            << name;
    }
}

TEST(Observability, TraceAndMetricsFilesWritten)
{
    sim::Experiment e = lossyExperiment();
    const std::string tracePath =
        testing::TempDir() + "hsipc_trace_test.json";
    const std::string reportPath =
        testing::TempDir() + "hsipc_report_test.json";
    e.traceFile = tracePath;
    e.reportFile = reportPath;
    const sim::Outcome o = sim::runExperiment(e);
    EXPECT_GT(o.roundTrips, 0);

    const std::string trace = readFile(tracePath);
    EXPECT_TRUE(validJson(trace));
    // One named track per resource, plus the service queues, medium,
    // protocol channels, and run phases.
    for (const char *track :
         {"n0.host0", "n0.mp", "n0.busTcb", "n0.nicIn", "n0.nicOut",
          "n0.svc", "n1.host0", "medium", "net.n0->n1", "sim"})
        EXPECT_NE(trace.find(std::string("\"name\":\"") + track +
                             "\""),
                  std::string::npos)
            << track;
    EXPECT_NE(trace.find("measureStart"), std::string::npos);
    EXPECT_NE(trace.find("n1 crash"), std::string::npos);

    // The report: the experiment, its outcome, and the registry's
    // histograms plus the one counter Outcome does not carry.  No
    // timeline or profile was recorded, so those sections are absent.
    const std::string report = readFile(reportPath);
    EXPECT_TRUE(validJson(report));
    EXPECT_EQ(reportSection(report, "experiment"),
              trimmed(sim::check::experimentToJson(e)));
    EXPECT_EQ(reportSection(report, "outcome"),
              trimmed(sim::outcomeJson(o)));
    const std::string metrics = reportSection(report, "metrics");
    for (const char *key :
         {"des.eventsRun", "ipc.roundTripUs", "svc.pendingMsgsDepth"})
        EXPECT_NE(metrics.find(key), std::string::npos) << key;
    // Outcome's counters are not copied into the registry.
    EXPECT_EQ(metrics.find("ipc.roundTrips"), std::string::npos);
    EXPECT_EQ(reportSection(report, "timeline"), "");
    EXPECT_EQ(reportSection(report, "engineProfile"), "");

    std::remove(tracePath.c_str());
    std::remove(reportPath.c_str());
}

// --- A full run's observation, pinned --------------------------------
//
// Every recorder at once (tracer, causal log, engine profiler,
// timeline) on runs that register every kind of track: the four
// architectures over a lossy medium (the medium and per-channel
// tracks; busKb on Arch IV) and a 4-node switch (the topo track and
// twelve channels in row-major order).  Track and origin ids follow
// registration order, so the wiring order is part of what is pinned:
// the track names, the trace bytes, the decomposition and the
// deterministic engine profile must all stay exactly as recorded.

/** 64-bit FNV-1a: a stable digest of a long document. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The "decomposition" object of an outcomeJson() document. */
std::string
decompositionBlock(const std::string &doc)
{
    const std::size_t from = doc.find("\"decomposition\"");
    const std::size_t to =
        doc.find('}', doc.find("\"bottleneckShare\"", from));
    return doc.substr(from, to + 1 - from);
}

TEST(Observability, FullRunObservationIsPinned)
{
    struct Pin
    {
        models::Arch arch;
        bool fleet; //!< a 4-node switch instead of two nodes
        const char *tracks; //!< trackNames(), comma-joined
        std::uint64_t chromeHash;
        const char *decomposition;
        std::uint64_t profileHash; //!< of deterministicJson()
    };
    const Pin pins[] = {
        {models::Arch::I, false,
         "n0.host0,n0.busTcb,n0.nicIn,n0.nicOut,n0.svc,n1.host0,n1.busTcb,"
         "n1.nicIn,n1.nicOut,n1.svc,medium,net.n0->n1,net.n1->n0,sim,timeline",
         0xdc54c50cce81710full,
         "\"decomposition\": {\"messages\": 4,\n"
         "  \"roundTrip\": {\"meanUs\": 21354.45475, \"p50Us\": 21674.695, "
         "\"p95Us\": 22564.929, \"p99Us\": 22564.929},\n"
         "  \"service\": {\"meanUs\": 7497.1985, \"p50Us\": 7524.106, "
         "\"p95Us\": 7652.922, \"p99Us\": 7652.922},\n"
         "  \"queue\": {\"meanUs\": 8717.462, \"p50Us\": 8887.951, "
         "\"p95Us\": 11279.638, \"p99Us\": 11279.638},\n"
         "  \"network\": {\"meanUs\": 5139.79425, \"p50Us\": 5954.336, "
         "\"p95Us\": 5954.336, \"p99Us\": 5954.336},\n"
         "  \"blocked\": {\"meanUs\": 0, \"p50Us\": 0, \"p95Us\": 0, "
         "\"p99Us\": 0},\n"
         "  \"serviceUsByResource\": {\"n0.busTcb\": 340, \"n0.host0\": 1970, "
         "\"n0.nicIn\": 200, \"n0.nicOut\": 200, \"n1.busTcb\": 490, "
         "\"n1.host0\": 3897.1985, \"n1.nicIn\": 200, \"n1.nicOut\": 200, "
         "\"net\": 5139.79425},\n"
         "  \"queueUsByResource\": {\"n0.busTcb\": 3.50775, "
         "\"n0.host0\": 1544.90325, \"n1.busTcb\": 7.6415, "
         "\"n1.host0\": 7116.62875, \"n1.nicIn\": 44.78075},\n"
         "  \"bottleneck\": \"n1.host0\",\n"
         "  \"bottleneckShare\": 0.515762513206}",
         0x9e2acc1349e27047ull},
        {models::Arch::II, false,
         "n0.host0,n0.mp,n0.busTcb,n0.nicIn,n0.nicOut,n0.svc,n1.host0,n1.mp,"
         "n1.busTcb,n1.nicIn,n1.nicOut,n1.svc,medium,net.n0->n1,net.n1->n0,"
         "sim,timeline",
         0xaf0be9f68303a52cull,
         "\"decomposition\": {\"messages\": 6,\n"
         "  \"roundTrip\": {\"meanUs\": 15381.4801667, \"p50Us\": 15732.046, "
         "\"p95Us\": 16338.845, \"p99Us\": 16338.845},\n"
         "  \"service\": {\"meanUs\": 7670.924, \"p50Us\": 7740.106, "
         "\"p95Us\": 7868.922, \"p99Us\": 7868.922},\n"
         "  \"queue\": {\"meanUs\": 4506.35816667, \"p50Us\": 4419.148, "
         "\"p95Us\": 6338.368, \"p99Us\": 6338.368},\n"
         "  \"network\": {\"meanUs\": 3204.198, \"p50Us\": 3316.735, "
         "\"p95Us\": 4362.368, \"p99Us\": 4362.368},\n"
         "  \"blocked\": {\"meanUs\": 0, \"p50Us\": 0, \"p95Us\": 0, "
         "\"p99Us\": 0},\n"
         "  \"serviceUsByResource\": {\"n0.busTcb\": 366, \"n0.host0\": 380, "
         "\"n0.mp\": 1750, \"n0.nicIn\": 200, \"n0.nicOut\": 200, "
         "\"n1.busTcb\": 420, \"n1.host0\": 1384.924, \"n1.mp\": 2570, "
         "\"n1.nicIn\": 200, \"n1.nicOut\": 200, \"net\": 3204.198},\n"
         "  \"queueUsByResource\": {\"n0.busTcb\": 18.4895, "
         "\"n0.host0\": 201.096666667, \"n0.mp\": 1117.84933333, "
         "\"n1.busTcb\": 33.3265, \"n1.host0\": 21.8793333333, "
         "\"n1.mp\": 3054.22416667, \"n1.nicIn\": 59.4926666667},\n"
         "  \"bottleneck\": \"n1.mp\",\n"
         "  \"bottleneckShare\": 0.365649086156}",
         0x32434de98180fdbaull},
        {models::Arch::III, false,
         "n0.host0,n0.mp,n0.busTcb,n0.nicIn,n0.nicOut,n0.svc,n1.host0,n1.mp,"
         "n1.busTcb,n1.nicIn,n1.nicOut,n1.svc,medium,net.n0->n1,net.n1->n0,"
         "sim,timeline",
         0x006865cecb05b593ull,
         "\"decomposition\": {\"messages\": 9,\n"
         "  \"roundTrip\": {\"meanUs\": 10873.4948889, \"p50Us\": 10622.315, "
         "\"p95Us\": 12157.627, \"p99Us\": 12157.627},\n"
         "  \"service\": {\"meanUs\": 5981.21388889, \"p50Us\": 6018.437, "
         "\"p95Us\": 6365.152, \"p99Us\": 6365.152},\n"
         "  \"queue\": {\"meanUs\": 2978.00133333, \"p50Us\": 3338.214, "
         "\"p95Us\": 4527.988, \"p99Us\": 4527.988},\n"
         "  \"network\": {\"meanUs\": 1914.27966667, \"p50Us\": 2031.877, "
         "\"p95Us\": 2703.415, \"p99Us\": 2703.415},\n"
         "  \"blocked\": {\"meanUs\": 0, \"p50Us\": 0, \"p95Us\": 0, "
         "\"p99Us\": 0},\n"
         "  \"serviceUsByResource\": {\"n0.busTcb\": 244, \"n0.host0\": 280, "
         "\"n0.mp\": 1174, \"n0.nicIn\": 200, \"n0.nicOut\": 200, "
         "\"n1.busTcb\": 285, \"n1.host0\": 1263.21388889, \"n1.mp\": 1935, "
         "\"n1.nicIn\": 200, \"n1.nicOut\": 200, \"net\": 1914.27966667},\n"
         "  \"queueUsByResource\": {\"n0.busTcb\": 12.7116666667, "
         "\"n0.host0\": 91.8823333333, \"n0.mp\": 797.691777778, "
         "\"n1.busTcb\": 17.1307777778, \"n1.host0\": 82.0288888889, "
         "\"n1.mp\": 1951.044, \"n1.nicIn\": 25.5118888889},\n"
         "  \"bottleneck\": \"n1.mp\",\n"
         "  \"bottleneckShare\": 0.357386842014}",
         0x3c8f454a6e4b67e4ull},
        {models::Arch::IV, false,
         "n0.host0,n0.mp,n0.busTcb,n0.busKb,n0.nicIn,n0.nicOut,n0.svc,"
         "n1.host0,n1.mp,n1.busTcb,n1.busKb,n1.nicIn,n1.nicOut,n1.svc,medium,"
         "net.n0->n1,net.n1->n0,sim,timeline",
         0x62fe82e7799191b3ull,
         "\"decomposition\": {\"messages\": 10,\n"
         "  \"roundTrip\": {\"meanUs\": 10787.2954, \"p50Us\": 10588.443, "
         "\"p95Us\": 12122.883, \"p99Us\": 12122.883},\n"
         "  \"service\": {\"meanUs\": 5988.0635, \"p50Us\": 6049.71, "
         "\"p95Us\": 6365.152, \"p99Us\": 6365.152},\n"
         "  \"queue\": {\"meanUs\": 2866.2575, \"p50Us\": 3305.14, "
         "\"p95Us\": 4556.781, \"p99Us\": 4556.781},\n"
         "  \"network\": {\"meanUs\": 1932.9744, \"p50Us\": 2214.809, "
         "\"p95Us\": 2696.329, \"p99Us\": 2696.329},\n"
         "  \"blocked\": {\"meanUs\": 0, \"p50Us\": 0, \"p95Us\": 0, "
         "\"p99Us\": 0},\n"
         "  \"serviceUsByResource\": {\"n0.busKb\": 120, \"n0.busTcb\": 124, "
         "\"n0.host0\": 280, \"n0.mp\": 1174, \"n0.nicIn\": 200, "
         "\"n0.nicOut\": 200, \"n1.busKb\": 120, \"n1.busTcb\": 165, "
         "\"n1.host0\": 1270.0635, \"n1.mp\": 1935, \"n1.nicIn\": 200, "
         "\"n1.nicOut\": 200, \"net\": 1932.9744},\n"
         "  \"queueUsByResource\": {\"n0.busKb\": 1.1171, "
         "\"n0.busTcb\": 0.886, \"n0.host0\": 81.5979, \"n0.mp\": 750.0562, "
         "\"n0.nicIn\": 0.0574, \"n1.busKb\": 1.8389, \"n1.busTcb\": 2.098, "
         "\"n1.host0\": 73.4482, \"n1.mp\": 1932.1971, "
         "\"n1.nicIn\": 22.9607},\n"
         "  \"bottleneck\": \"n1.mp\",\n"
         "  \"bottleneckShare\": 0.358495522427}",
         0x735a6dc8ce6f82acull},
        {models::Arch::II, true,
         "topo,n0.host0,n0.mp,n0.busTcb,n0.nicIn,n0.nicOut,n0.svc,n1.host0,"
         "n1.mp,n1.busTcb,n1.nicIn,n1.nicOut,n1.svc,n2.host0,n2.mp,n2.busTcb,"
         "n2.nicIn,n2.nicOut,n2.svc,n3.host0,n3.mp,n3.busTcb,n3.nicIn,"
         "n3.nicOut,n3.svc,medium,net.n0->n1,net.n0->n2,net.n0->n3,net.n1->n0,"
         "net.n1->n2,net.n1->n3,net.n2->n0,net.n2->n1,net.n2->n3,net.n3->n0,"
         "net.n3->n1,net.n3->n2,sim,timeline",
         0x05a609df17a7ea81ull,
         "\"decomposition\": {\"messages\": 11,\n"
         "  \"roundTrip\": {\"meanUs\": 10267.9591818, \"p50Us\": 9948.65, "
         "\"p95Us\": 14029.269, \"p99Us\": 14029.269},\n"
         "  \"service\": {\"meanUs\": 7696.29154545, \"p50Us\": 7717.71, "
         "\"p95Us\": 8098.572, \"p99Us\": 8098.572},\n"
         "  \"queue\": {\"meanUs\": 1034.20063636, \"p50Us\": 1000.302, "
         "\"p95Us\": 3426.054, \"p99Us\": 3426.054},\n"
         "  \"network\": {\"meanUs\": 1537.467, \"p50Us\": 1468.547, "
         "\"p95Us\": 2989.556, \"p99Us\": 2989.556},\n"
         "  \"blocked\": {\"meanUs\": 0, \"p50Us\": 0, \"p95Us\": 0, "
         "\"p99Us\": 0},\n"
         "  \"serviceUsByResource\": {\"n0.busTcb\": 133.090909091, "
         "\"n0.host0\": 138.181818182, \"n0.mp\": 636.363636364, "
         "\"n0.nicIn\": 72.7272727273, \"n0.nicOut\": 72.7272727273, "
         "\"n1.busTcb\": 252.545454545, \"n1.host0\": 579.727818182, "
         "\"n1.mp\": 1411.81818182, \"n1.nicIn\": 127.272727273, "
         "\"n1.nicOut\": 127.272727273, \"n2.busTcb\": 247.636363636, "
         "\"n2.host0\": 522.257272727, \"n2.mp\": 1337.27272727, "
         "\"n2.nicIn\": 127.272727273, \"n2.nicOut\": 127.272727273, "
         "\"n3.busTcb\": 152.727272727, \"n3.host0\": 550.124636364, "
         "\"n3.mp\": 934.545454545, \"n3.nicIn\": 72.7272727273, "
         "\"n3.nicOut\": 72.7272727273, \"net\": 1537.467},\n"
         "  \"queueUsByResource\": {\"n1.busTcb\": 15.9159090909, "
         "\"n1.host0\": 56.0118181818, \"n1.mp\": 472.866090909, "
         "\"n2.busTcb\": 12.5053636364, \"n2.host0\": 110.159636364, "
         "\"n2.mp\": 356.506818182, \"n2.nicIn\": 9.45718181818, "
         "\"n3.busTcb\": 0.777818181818},\n"
         "  \"bottleneck\": \"n1.mp\",\n"
         "  \"bottleneckShare\": 0.183550035538}",
         0x5d9f26f5e14e0dc2ull},
    };
    for (const Pin &p : pins) {
        sim::Experiment e;
        e.arch = p.arch;
        e.local = false;
        e.conversations = 3;
        e.computeUs = 1000;
        e.lossRate = 0.01;
        e.warmupUs = 2000;
        e.measureUs = 40000;
        e.decomposeLatency = true;
        e.engineProfile = true;
        e.timelineIntervalUs = 5000;
        if (p.fleet) {
            e.topo.nodes = 4;
            e.topo.kind = 1;
            e.topo.placement = 1;
            e.topo.linkLatencyUs = 20;
            e.topo.switchLatencyUs = 5;
        }
        trace::Tracer tr;
        tr.setEnabled(true);
        const sim::Outcome o = sim::runExperiment(e, &tr, nullptr);
        SCOPED_TRACE(std::string("arch ") + models::archName(p.arch) +
                     (p.fleet ? ", 4-node switch" : ""));

        std::string tracks;
        for (const std::string &name : tr.trackNames())
            tracks += (tracks.empty() ? "" : ",") + name;
        EXPECT_EQ(tracks, p.tracks);
        EXPECT_EQ(fnv1a(tr.chromeJson()), p.chromeHash);
        EXPECT_EQ(decompositionBlock(sim::outcomeJson(o)),
                  p.decomposition);
        EXPECT_EQ(fnv1a(o.engineProfile.deterministicJson()),
                  p.profileHash);
    }
}

// --- One run's observation documents, pinned -------------------------
//
// The crash run of bench/beyond_overload (Architecture I, open
// Poisson arrivals, deadlines, retries, deadline-aware shedding and a
// 30 ms server outage, 10 ms timeline), with the engine profiler on
// and a run report, once as is and once with the latency
// decomposition (which adds the lat.* histograms and sketches and the
// timeline's "decomposition" member).  Each report section is pinned
// by digest: the timeline, the engine profile's deterministic subset,
// and the registry's histograms and sketches.

/** beyond_overload's Architecture I crash-under-load run. */
sim::Experiment
overloadCrashRun()
{
    sim::Experiment e;
    e.arch = models::Arch::I;
    e.local = false;
    e.conversations = 2;
    e.computeUs = 6000;
    e.kernelBuffers = 64;
    e.warmupUs = 20000;
    e.measureUs = 400000;
    e.seed = 42;
    e.arrivalMode = 1;
    e.arrivalRatePerSec = 60;
    e.deadlineUs = 60000;
    e.retryBudget = 2;
    e.retryBackoffUs = 15000;
    e.retryBackoffMaxUs = 60000;
    e.svcQueueCap = 4;
    e.shedPolicy = 2;
    e.crashSchedule.push_back({1, 100000, 130000});
    e.timelineIntervalUs = 10000;
    return e;
}

/**
 * The deterministic subset of an engine-profile document: without
 * the wall-clock sketches and the pool-miss count.
 */
std::string
deterministicProfile(const std::string &doc)
{
    static const std::regex wall(", \"(wallNs\": \\{[^}]*\\}|"
                                 "freshPoolBlocks\": [0-9]+)");
    return std::regex_replace(doc, wall, "");
}

/** @p doc from the first occurrence of @p key on, trimmed. */
std::string
tailFrom(const std::string &doc, const std::string &key)
{
    const std::size_t at = doc.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    return at == std::string::npos ? "" : trimmed(doc.substr(at));
}

TEST(Observability, ReportSectionsArePinned)
{
    struct Pin
    {
        bool decompose;
        std::uint64_t timeline;
        std::uint64_t profile; //!< of deterministicJson()
        std::uint64_t metrics; //!< histograms and sketches
    };
    // The first timeline digest is that of the committed
    // bench/baselines/beyond_overload_timeline.json.
    const Pin pins[] = {
        {false, 0xcb88bc8a43b1b04full, 0xafef00cc60e3db1aull,
         0x0b6a4b5141b196c5ull},
        {true, 0xb2efaf2179604270ull, 0x89777c35ebf7d9d1ull,
         0xa7fde2d61c43f618ull},
    };
    for (const Pin &p : pins) {
        SCOPED_TRACE(p.decompose ? "decomposed" : "plain");
        sim::Experiment e = overloadCrashRun();
        e.decomposeLatency = p.decompose;
        e.engineProfile = true;
        e.reportFile = testing::TempDir() + "hsipc_pinned_report.json";
        const sim::Outcome o = sim::runExperiment(e);
        const std::string report = readFile(e.reportFile);
        const std::string profile = reportSection(report, "engineProfile");
        EXPECT_EQ(fnv1a(reportSection(report, "timeline")), p.timeline);
        EXPECT_EQ(fnv1a(deterministicProfile(profile)), p.profile);
        EXPECT_EQ(deterministicProfile(profile),
                  trimmed(o.engineProfile.deterministicJson()));
        EXPECT_EQ(fnv1a(tailFrom(reportSection(report, "metrics"),
                                 "\"histograms\"")),
                  p.metrics);
        std::remove(e.reportFile.c_str());
    }
}

TEST(Observability, ReusedTracerDoesNotKeepAPreviousRunsSampler)
{
    // A caller's tracer may serve several runs.  A thinned run must
    // not leave its message sampler behind: a full-rate run on the
    // reused tracer records every message's flow and lifetime events,
    // exactly as on a fresh tracer.
    sim::Experiment e;
    e.warmupUs = 2000;
    e.measureUs = 20000;
    // Per-message event counts by phase, over the events a run added.
    const auto perMessage = [](const trace::Tracer &tr,
                               std::size_t from) {
        std::map<trace::Phase, long> n;
        for (std::size_t i = from; i < tr.events().size(); ++i) {
            const trace::Phase ph = tr.events()[i].phase;
            if (ph != trace::Phase::Complete &&
                ph != trace::Phase::Instant &&
                ph != trace::Phase::Counter)
                ++n[ph];
        }
        return n;
    };

    trace::Tracer fresh;
    fresh.setEnabled(true);
    sim::runExperiment(e, &fresh, nullptr);
    const std::map<trace::Phase, long> full = perMessage(fresh, 0);
    EXPECT_GT(full.count(trace::Phase::FlowStart), 0u);
    EXPECT_GT(full.count(trace::Phase::AsyncEnd), 0u);

    trace::Tracer reused;
    reused.setEnabled(true);
    sim::Experiment thinned = e;
    thinned.traceSampleRate = 0.25;
    sim::runExperiment(thinned, &reused, nullptr);
    EXPECT_NE(perMessage(reused, 0), full);
    const std::size_t before = reused.events().size();
    sim::runExperiment(e, &reused, nullptr);
    EXPECT_EQ(perMessage(reused, before), full);
}

TEST(Observability, GtpnSimulatorTraces)
{
    gtpn::PetriNet net;
    const gtpn::PlaceId p = net.addPlace("P", 1);
    const gtpn::TransId t =
        net.addTransition("T", 2.0, 1.0, "server");
    net.inputArc(p, t);
    net.outputArc(t, p);

    gtpn::SimOptions opts;
    opts.warmup = 100;
    opts.horizon = 10000;
    const gtpn::SimResult plain = gtpn::simulate(net, opts);

    trace::Tracer tr;
    tr.setEnabled(true);
    gtpn::SimOptions traced = opts;
    traced.tracer = &tr;
    const gtpn::SimResult withTrace = gtpn::simulate(net, traced);

    // Tracing is observational: same seed, same measures.
    EXPECT_EQ(plain.resourceUsage, withTrace.resourceUsage);
    EXPECT_EQ(plain.firingRate, withTrace.firingRate);
    EXPECT_EQ(plain.placeOccupancy, withTrace.placeOccupancy);

    // The single always-firing transition fills its track.
    const auto busy = tr.busyByTrack(0, usToTicks(10100));
    ASSERT_GT(busy.count("server.T"), 0u);
    EXPECT_GT(busy.at("server.T"), usToTicks(10000));
    bool sawFire = false;
    for (const trace::Event &ev : tr.events())
        sawFire |= ev.phase == trace::Phase::Instant &&
                   ev.name == "fire";
    EXPECT_TRUE(sawFire);
    EXPECT_TRUE(validJson(tr.chromeJson()));
}

// --- Time-resolved timelines -----------------------------------------

/** The expected timeline document for GoldenTimelineJson's pinned run. */
std::string
goldenTimelineDoc()
{
    return "{\n"
           "  \"intervalUs\": 5000,\n"
           "  \"horizonUs\": 20000,\n"
           "  \"warmupUs\": 5000,\n"
           "  \"stats\": {\"enabled\": true, "
           "\"insufficientData\": true, "
           "\"transientPolluted\": false, \"truncationUs\": 20000, "
           "\"batches\": 0, \"throughputPerSec\": 0, "
           "\"throughputCi95PerSec\": 0, \"meanRtUs\": 0, "
           "\"rtCi95Us\": 0},\n"
           "  \"counters\": {\n"
           "   \"ipc.allTrips\": [0, 1, 1, 1],\n"
           "   \"ipc.bufferStalls\": [0, 0, 0, 0],\n"
           "   \"ipc.completedTrips\": [0, 1, 1, 1],\n"
           "   \"ipc.rtSumUs\": [0, 6041.574, 5996.523, 5616.436]\n"
           "  },\n"
           "  \"gauges\": {\n"
           "   \"n0.freeBuffers\": [63, 63, 63, 63],\n"
           "   \"n0.svc.pendingMsgs\": [0, 0, 0, 0],\n"
           "   \"n0.svc.waitingServers\": [0, 0, 0, 0],\n"
           "   \"util.n0.busTcb\": [0.1020384, 0.1279616, 0.1404, "
           "0.1354],\n"
           "   \"util.n0.host0\": [1, 1, 1, 1],\n"
           "   \"util.n0.nicIn\": [0, 0, 0, 0],\n"
           "   \"util.n0.nicOut\": [0, 0, 0, 0]\n"
           "  }\n"
           "}\n";
}

/** lossyExperiment() plus the robustness layer under open arrivals. */
sim::Experiment
robustLossyExperiment()
{
    sim::Experiment e = lossyExperiment();
    e.arrivalMode = 1;
    e.arrivalRatePerSec = 150;
    e.deadlineUs = 80000;
    e.retryBudget = 1;
    e.retryBackoffUs = 5000;
    e.svcQueueCap = 2;
    e.shedPolicy = 2;
    return e;
}

TEST(Timeline, EnablingDoesNotPerturbOutcome)
{
    sim::Experiment e = lossyExperiment();
    const sim::Outcome plain = sim::runExperiment(e);
    EXPECT_FALSE(plain.timeline.enabled());
    EXPECT_FALSE(plain.stats.enabled);

    e.timelineIntervalUs = 5000;
    const sim::Outcome timed = sim::runExperiment(e);
    EXPECT_TRUE(timed.timeline.enabled());
    EXPECT_TRUE(timed.stats.enabled);
    expectSameOutcome(plain, timed);

    // At the byte level: the timeline and its stats are rendered by
    // the report's timeline section, so outcomeJson is unchanged.
    EXPECT_EQ(sim::outcomeJson(timed), sim::outcomeJson(plain));
}

TEST(Timeline, IntegralsReproduceOutcomeCounters)
{
    sim::Experiment e = robustLossyExperiment();
    e.timelineIntervalUs = 5000;
    const sim::Outcome o = sim::runExperiment(e);
    const obs::Timeline &t = o.timeline;
    ASSERT_TRUE(t.enabled());

    // Exact, to the counter's unit — the windowed series are bumped
    // at the very sites that bump the whole-run ledgers.
    EXPECT_EQ(std::llround(t.total("ipc.completedTrips")),
              o.roundTrips);
    EXPECT_EQ(std::llround(t.total("ipc.bufferStalls")),
              o.bufferStalls);
    EXPECT_EQ(std::llround(t.total("rpc.offered")), o.rpc.offered);
    EXPECT_EQ(std::llround(t.total("rpc.completed")),
              o.rpc.completed);
    EXPECT_EQ(std::llround(t.total("rpc.shed")), o.rpc.shed);
    EXPECT_EQ(std::llround(t.total("rpc.expired")), o.rpc.expired);
    EXPECT_EQ(std::llround(t.total("rpc.retries")), o.rpc.retries);
    EXPECT_EQ(std::llround(t.total("net.dataTransmissions")),
              o.netTotals.dataTransmissions);
    EXPECT_EQ(std::llround(t.total("net.retransmissions")),
              o.netTotals.retransmissions);
    EXPECT_EQ(std::llround(t.total("net.delivered")),
              o.netTotals.msgsDelivered);
    EXPECT_EQ(std::llround(t.total("net.acksSent")),
              o.netTotals.acksSent);

    // Every series spans the same bin count, and the knee/crash
    // dynamics are genuinely time-resolved: the crash window (60-80
    // ms) must show fewer completions than the steady bins before it.
    const std::size_t bins = t.bins();
    for (const auto &[name, s] : t.counters)
        EXPECT_EQ(s.size(), bins) << name;
    for (const auto &[name, g] : t.gauges)
        EXPECT_EQ(g.size(), bins) << name;
    const std::vector<double> &done =
        t.counters.at("ipc.completedTrips");
    double during = 0;
    for (std::size_t b = 12; b < 16; ++b)
        during += done[b]; // the 60-80 ms outage
    const double total = t.total("ipc.completedTrips");
    ASSERT_GT(total, 0);
    EXPECT_LT(during / 4,
              (total - during) / static_cast<double>(bins - 4));
}

TEST(Timeline, SingleBinAndNonMultipleHorizonRuns)
{
    // Interval at least the whole horizon: the run is one bin, the
    // integrals still hold, and the end-of-run partial-bin sampling
    // neither crashes nor double-samples.
    sim::Experiment e = lossyExperiment();
    e.timelineIntervalUs = e.warmupUs + e.measureUs; // == horizon
    const sim::Outcome exact = sim::runExperiment(e);
    ASSERT_TRUE(exact.timeline.enabled());
    EXPECT_EQ(exact.timeline.bins(), 1u);
    EXPECT_EQ(std::llround(exact.timeline.total("ipc.bufferStalls")),
              exact.bufferStalls);

    e.timelineIntervalUs = 2 * (e.warmupUs + e.measureUs); // > horizon
    const sim::Outcome over = sim::runExperiment(e);
    EXPECT_EQ(over.timeline.bins(), 1u);
    EXPECT_EQ(std::llround(over.timeline.total("ipc.bufferStalls")),
              over.bufferStalls);

    // A bin width that does not divide the horizon: 220 ms / 17 ms
    // -> 13 bins with a partial last one; integrals stay exact.
    e.timelineIntervalUs = 17000;
    const sim::Outcome ragged = sim::runExperiment(e);
    EXPECT_EQ(ragged.timeline.bins(), 13u);
    EXPECT_EQ(
        std::llround(ragged.timeline.total("ipc.completedTrips")),
        ragged.roundTrips);
    for (const auto &[name, g] : ragged.timeline.gauges)
        EXPECT_EQ(g.size(), 13u) << name;

    // None of the shapes perturbs the simulation itself.
    sim::Experiment plain = lossyExperiment();
    expectSameOutcome(sim::runExperiment(plain), exact);
    expectSameOutcome(exact, over);
    expectSameOutcome(over, ragged);
}

TEST(Timeline, GoldenTimelineJson)
{
    // A tiny pinned run: architecture I, one local conversation with
    // a fixed compute phase, four 5-ms bins.  The document below is
    // the complete expected timeline section of the run report, so
    // any change to the timeline format or to the simulation itself
    // shows up as a diff here.
    sim::Experiment e;
    e.arch = models::Arch::I;
    e.local = true;
    e.conversations = 1;
    e.computeUs = 900;
    e.warmupUs = 5000;
    e.measureUs = 15000;
    e.seed = 3;
    e.timelineIntervalUs = 5000;
    e.reportFile = testing::TempDir() + "hsipc_golden_report.json";
    const sim::Outcome o = sim::runExperiment(e);
    const std::string doc =
        reportSection(readFile(e.reportFile), "timeline");
    EXPECT_TRUE(validJson(doc));
    EXPECT_EQ(std::llround(o.timeline.total("ipc.completedTrips")),
              o.roundTrips);
    EXPECT_EQ(doc, trimmed(goldenTimelineDoc()));
    std::remove(e.reportFile.c_str());
}

TEST(Timeline, CounterTrackInChromeTrace)
{
    sim::Experiment e = lossyExperiment();
    e.timelineIntervalUs = 10000;
    trace::Tracer tr;
    tr.setEnabled(true);
    const sim::Outcome o = sim::runExperiment(e, &tr, nullptr);
    ASSERT_TRUE(o.timeline.enabled());

    // The timeline mirrors each bin onto one Perfetto counter track
    // named "timeline", so windowed rates render beside the existing
    // span tracks.
    const auto &names = tr.trackNames();
    const auto it =
        std::find(names.begin(), names.end(), "timeline");
    ASSERT_NE(it, names.end());
    const int track = static_cast<int>(it - names.begin());
    std::set<std::string> counterNames;
    std::size_t counterEvents = 0;
    for (const trace::Event &ev : tr.events()) {
        if (ev.track != track)
            continue;
        EXPECT_EQ(ev.phase, trace::Phase::Counter);
        ++counterEvents;
        counterNames.insert(ev.name);
    }
    EXPECT_GT(counterNames.count("ipc.completedTrips"), 0u);
    EXPECT_GT(counterNames.count("net.retransmissions"), 0u);
    // One event per series per boundary, at least.
    EXPECT_GE(counterEvents,
              counterNames.size() * (o.timeline.bins() - 1));
    const std::string json = tr.chromeJson();
    EXPECT_TRUE(validJson(json));
    EXPECT_NE(json.find("\"timeline\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

// --- Deterministic trace sampling ------------------------------------

TEST(TraceSampling, SampledChainsStayComplete)
{
    sim::Experiment e = lossyExperiment();
    e.decomposeLatency = true;
    const sim::Outcome full = sim::runExperiment(e);

    e.traceSampleRate = 0.4;
    const sim::Outcome sampled = sim::runExperiment(e);

    // Sampling thins the analyzed population but never the simulated
    // one...
    expectSameOutcome(full, sampled,
                      /*includeDecomposition=*/false);
    ASSERT_GT(sampled.decomposition.messages, 0);
    EXPECT_LT(sampled.decomposition.messages,
              full.decomposition.messages);

    // ...and each surviving chain is still a gapless partition:
    // component means sum to the sampled round-trip mean exactly.
    const trace::Decomposition &d = sampled.decomposition;
    EXPECT_NEAR(d.service.meanUs + d.queue.meanUs + d.network.meanUs +
                    d.blocked.meanUs,
                d.roundTrip.meanUs, 1e-6 * d.roundTrip.meanUs);
}

TEST(TraceSampling, FlowAndAsyncEventsSampledAtomically)
{
    sim::Experiment e = lossyExperiment();
    e.traceSampleRate = 0.35;
    trace::Tracer tr;
    tr.setEnabled(true);
    sim::runExperiment(e, &tr, nullptr);

    // Per message id the whole arrow chain survives or none of it:
    // any flow trail starts with a FlowStart, and async lifetimes
    // stay begin/end balanced.
    std::map<long, std::vector<trace::Phase>> flows;
    std::map<long, long> asyncBalance;
    for (const trace::Event &ev : tr.events()) {
        switch (ev.phase) {
          case trace::Phase::FlowStart:
          case trace::Phase::FlowStep:
          case trace::Phase::FlowEnd:
            flows[ev.id].push_back(ev.phase);
            break;
          case trace::Phase::AsyncBegin:
            ++asyncBalance[ev.id];
            break;
          case trace::Phase::AsyncEnd:
            --asyncBalance[ev.id];
            break;
          default:
            break;
        }
    }
    ASSERT_FALSE(flows.empty());
    const obs::TraceSampler sampler(e.traceSampleRate, e.seed);
    for (const auto &[id, phases] : flows) {
        EXPECT_TRUE(sampler.sampled(id)) << "unsampled id " << id;
        EXPECT_EQ(phases.front(), trace::Phase::FlowStart)
            << "flow " << id << " missing its start";
    }
    // A lifetime still open at the horizon legitimately lacks its
    // end; an end without a begin would mean the sampler split a
    // pair, which must never happen.
    for (const auto &[id, balance] : asyncBalance)
        EXPECT_GE(balance, 0) << "async end without begin, id " << id;

    // And a full-rate run keeps strictly more chains.
    trace::Tracer trFull;
    trFull.setEnabled(true);
    sim::Experiment f = lossyExperiment();
    sim::runExperiment(f, &trFull, nullptr);
    std::set<long> fullIds, sampledIds;
    for (const trace::Event &ev : trFull.events())
        if (ev.phase == trace::Phase::FlowStart)
            fullIds.insert(ev.id);
    for (const auto &[id, phases] : flows)
        sampledIds.insert(id);
    EXPECT_LT(sampledIds.size(), fullIds.size());
    for (long id : sampledIds)
        EXPECT_GT(fullIds.count(id), 0u);
}

} // namespace
