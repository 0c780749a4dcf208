/**
 * @file
 * Beyond the thesis: open-arrival overload and graceful degradation.
 *
 * The thesis measures closed conversation loops: each client waits
 * for its reply, so offered load can never exceed capacity (§6.5).
 * This bench opens the arrival process — requests materialize at a
 * Poisson rate with a client-imposed deadline — and sweeps the rate
 * straight past each architecture's saturation knee.  Two variants
 * run at every rate: "no layer" (a deadline but no admission
 * control: the service queue grows without bound, served requests
 * have long expired, their replies return to nobody, and goodput
 * collapses) and "guarded" (a two-entry bounded service queue with
 * deadline-aware shedding: doomed attempts are dropped for 10 us
 * instead of being served for milliseconds, and goodput plateaus
 * near capacity).  A final section crashes the server node mid-run
 * under open load and lets deadlines, retries, and the at-most-once
 * reply cache recover the conversations.
 *
 * The whole-run goodput numbers hide *when* the collapse happens, so
 * the Architecture I past-knee pair and the crash runs additionally
 * record 10 ms timelines (`Experiment.timelineIntervalUs`): a closing
 * table shows windowed goodput — the unguarded run decaying as its
 * backlog builds, the guarded plateau holding flat, and the crash
 * run's outage dip and recovery ramp.  When `--json` is given, the
 * Architecture I crash run also writes its run report (experiment,
 * outcome, timeline, metrics, and the engine profile under
 * `--profile`) next to the bench document (`<name>_report.json`) for
 * tools/report.py.
 *
 * All simulations are one sweep through the runner (`--jobs N`);
 * outcomes land by input index and the tables render afterwards,
 * byte-identical at any jobs level.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_main.hh"
#include "common/table.hh"
#include "sim/runner/bench_profile.hh"
#include "sim/runner/sweep_runner.hh"

namespace
{

using namespace hsipc;
using namespace hsipc::models;

/**
 * Open arrivals at a two-server node.  computeUs dominates so the
 * service host — not the client's send path — is the bottleneck,
 * and the buffer pool is large so admission control, not client-side
 * buffer exhaustion, decides the outcome.
 */
sim::Experiment
base(Arch a, double ratePerSec)
{
    sim::Experiment e;
    e.arch = a;
    e.local = false;
    e.conversations = 2; // server pool
    e.computeUs = 6000;
    e.kernelBuffers = 64;
    e.warmupUs = 20000;
    e.measureUs = 400000;
    e.seed = 42;
    e.arrivalMode = 1;
    e.arrivalRatePerSec = ratePerSec;
    e.deadlineUs = 40000;
    return e;
}

const char *
archLabel(Arch a)
{
    switch (a) {
    case Arch::I: return "I";
    case Arch::II: return "II";
    case Arch::III: return "III";
    case Arch::IV: return "IV";
    }
    return "?";
}

/**
 * Architecture I does every kernel step on its single host, so its
 * service time per trip (~10 ms) and therefore its knee sit far
 * below the coprocessor architectures' (~7 ms): sweep it on a lower
 * rate grid so both straddle their knees the same way.
 */
std::vector<double>
rateGrid(Arch a)
{
    if (a == Arch::I)
        return {30, 60, 90, 150, 250};
    return {50, 100, 150, 250, 400};
}

/**
 * The grid point used for the headline past-the-knee scalars: the
 * fourth of five rates, ~1.7-2x each architecture's capacity.  The
 * fifth rate is reported too, but there the client node itself
 * saturates and requests expire before any admission decision —
 * beyond what server-side shedding can save.
 */
constexpr std::size_t kAcceptIdx = 3;

/** Timeline bin width for the time-resolved section. */
constexpr double kTimelineBinUs = 10000;

/** Bins per row of the windowed-goodput table (5 x 10 ms = 50 ms). */
constexpr std::size_t kWindowBins = 5;

/**
 * Sibling path for the crash run's report: the `--json` path with a
 * `_report` stem suffix ("" when --json was absent).
 */
std::string
reportPath()
{
    const std::string &jp = hsipc::bench::jsonPath();
    if (jp.empty())
        return "";
    const std::size_t dot = jp.rfind(".json");
    const std::string stem =
        dot == std::string::npos ? jp : jp.substr(0, dot);
    return stem + "_report.json";
}

/** Events/sec of counter @p name over timeline bins [b0, b1). */
double
windowRate(const sim::Outcome &o, const std::string &name,
           std::size_t b0, std::size_t b1)
{
    const auto it = o.timeline.counters.find(name);
    if (it == o.timeline.counters.end())
        return 0;
    b1 = std::min(b1, it->second.size());
    if (b0 >= b1)
        return 0;
    double sum = 0;
    for (std::size_t b = b0; b < b1; ++b)
        sum += it->second[b];
    return sum / (double(b1 - b0) * o.timeline.intervalUs * 1e-6);
}

} // namespace

int
main(int argc, char **argv)
{
    hsipc::bench::init(argc, argv, "beyond_overload");
    using sim::Outcome;

    constexpr Arch archs[] = {Arch::I, Arch::II, Arch::III, Arch::IV};

    // One flat experiment list in rendering order: per architecture
    // the rate sweep as (no-layer, guarded) pairs, then the two
    // crash-under-load runs.
    std::vector<sim::Experiment> exps;
    std::size_t tlNakedIdx = 0; // Arch I at the past-knee rate
    for (Arch a : archs) {
        const std::vector<double> rates = rateGrid(a);
        for (std::size_t i = 0; i < rates.size(); ++i) {
            sim::Experiment naked = base(a, rates[i]);
            sim::Experiment g = base(a, rates[i]);
            g.svcQueueCap = 2;
            g.shedPolicy = 2; // deadline-aware
            if (a == Arch::I && i == kAcceptIdx) {
                // The pair the time-resolved table dissects.
                tlNakedIdx = exps.size();
                naked.timelineIntervalUs = kTimelineBinUs;
                g.timelineIntervalUs = kTimelineBinUs;
            }
            exps.push_back(naked);
            exps.push_back(g);
        }
    }
    const std::size_t tlCrashIdx = exps.size(); // Arch I crash run
    for (auto [a, rate] : {std::pair{Arch::I, 60.0}, {Arch::III, 100.0}}) {
        sim::Experiment e = base(a, rate);
        e.deadlineUs = 60000;
        e.retryBudget = 2;
        e.retryBackoffUs = 15000;
        e.retryBackoffMaxUs = 60000;
        e.svcQueueCap = 4;
        e.shedPolicy = 2;
        e.crashSchedule.push_back({1, 100000, 130000});
        e.timelineIntervalUs = kTimelineBinUs;
        if (a == Arch::I)
            e.reportFile = reportPath(); // "" = don't write
        exps.push_back(e);
    }

    sim::SweepOptions opts;
    opts.jobs = hsipc::bench::jobs();
    sim::applyBenchProfile(exps);
    const std::vector<Outcome> outs =
        sim::SweepRunner(opts).run(exps);
    sim::writeBenchProfile(outs);

    std::size_t at = 0;
    for (Arch a : archs) {
        TextTable t(std::string("Open-arrival overload, Architecture ") +
                    archLabel(a) +
                    " (2 servers, X = 6 ms, deadline 40 ms): "
                    "goodput/sec without vs with deadline-aware "
                    "admission control (cap 2)");
        t.header({"Rate/s", "Offered/s", "No layer", "Guarded",
                  "Shed att.", "Expired", "Orphaned"});
        double peakNaked = 0, peakGuarded = 0;
        double kneeNaked = 0, kneeGuarded = 0;
        const std::vector<double> rates = rateGrid(a);
        for (std::size_t i = 0; i < rates.size(); ++i) {
            const Outcome &naked = outs[at++];
            const Outcome &guarded = outs[at++];
            t.row({TextTable::num(rates[i], 0),
                   TextTable::num(guarded.rpc.offeredPerSec, 1),
                   TextTable::num(naked.rpc.goodputPerSec, 1),
                   TextTable::num(guarded.rpc.goodputPerSec, 1),
                   TextTable::num(double(guarded.rpc.shedAttempts), 0),
                   TextTable::num(double(guarded.rpc.expired), 0),
                   TextTable::num(double(naked.rpc.orphanedReplies), 0)});
            peakNaked = std::max(peakNaked, naked.rpc.goodputPerSec);
            peakGuarded =
                std::max(peakGuarded, guarded.rpc.goodputPerSec);
            if (i == kAcceptIdx) {
                kneeNaked = naked.rpc.goodputPerSec;
                kneeGuarded = guarded.rpc.goodputPerSec;
            }
        }
        hsipc::bench::emit(t);
        // Past-the-knee headline: the guarded goodput holds near its
        // peak while the unguarded one collapses.
        hsipc::bench::note(
            std::string("plateau_") + archLabel(a),
            peakGuarded > 0 ? kneeGuarded / peakGuarded : 0);
        hsipc::bench::note(
            std::string("collapse_") + archLabel(a),
            peakNaked > 0 ? kneeNaked / peakNaked : 0);
        std::printf("  Arch %-3s past the knee: guarded %.1f/s "
                    "(%.0f%% of peak %.1f), unguarded %.1f/s "
                    "(%.0f%% of peak %.1f)\n\n",
                    archLabel(a), kneeGuarded,
                    100 * kneeGuarded / peakGuarded, peakGuarded,
                    kneeNaked, 100 * kneeNaked / peakNaked, peakNaked);
    }

    TextTable c("Server-node crash under open load "
                "(30 ms outage at t = 100 ms; deadline 60 ms, "
                "2 retries, backoff 15 ms): recovery via retry and "
                "the at-most-once reply cache");
    c.header({"Arch", "Offered", "Completed", "Retries", "Dedup",
              "Replays", "Windows recovered", "Goodput/s"});
    for (auto [a, rate] : {std::pair{Arch::I, 60.0}, {Arch::III, 100.0}}) {
        (void)rate;
        const Outcome &o = outs[at++];
        c.row({archLabel(a),
               TextTable::num(double(o.rpc.offered), 0),
               TextTable::num(double(o.rpc.completed), 0),
               TextTable::num(double(o.rpc.retries), 0),
               TextTable::num(double(o.rpc.duplicatesSuppressed), 0),
               TextTable::num(double(o.rpc.replyReplays), 0),
               TextTable::num(double(o.crashWindowsRecovered), 0),
               TextTable::num(o.rpc.goodputPerSec, 1)});
        hsipc::bench::note(
            std::string("crash_recovered_") + archLabel(a),
            static_cast<double>(o.crashWindowsRecovered));
    }
    hsipc::bench::emit(c);

    // Time-resolved goodput: the shapes the whole-run numbers above
    // average away.  Columns come from the three 10 ms timelines:
    // Arch I at 150/s without and with admission control, and the
    // Arch I crash run (60/s, 30 ms outage at t = 100 ms).
    const Outcome &tlNaked = outs[tlNakedIdx];
    const Outcome &tlGuarded = outs[tlNakedIdx + 1];
    const Outcome &tlCrash = outs[tlCrashIdx];
    TextTable w("Windowed goodput, Architecture I (50 ms windows "
                "from 10 ms timelines): backlog decay without the "
                "layer, guarded plateau, crash dip and recovery");
    w.header({"Window ms", "No layer/s", "Guarded/s", "Crash run/s",
              "Crash retries/s"});
    const std::size_t bins = tlCrash.timeline.bins();
    for (std::size_t b0 = 0; b0 < bins; b0 += kWindowBins) {
        const std::size_t b1 = std::min(b0 + kWindowBins, bins);
        const double msPerBin = kTimelineBinUs / 1000.0;
        w.row({TextTable::num(double(b0) * msPerBin, 0) + "-" +
                   TextTable::num(double(b1) * msPerBin, 0),
               TextTable::num(
                   windowRate(tlNaked, "rpc.completed", b0, b1), 1),
               TextTable::num(
                   windowRate(tlGuarded, "rpc.completed", b0, b1), 1),
               TextTable::num(
                   windowRate(tlCrash, "rpc.completed", b0, b1), 1),
               TextTable::num(
                   windowRate(tlCrash, "rpc.retries", b0, b1), 1)});
    }
    hsipc::bench::emit(w);

    // Headline shape scalars: the unguarded run's endgame goodput as
    // a fraction of its opening window (decay toward zero as every
    // admitted request expires in queue), and the crash run's outage
    // goodput vs its recovered tail (dip, then ramp back).
    const std::size_t lastW = (bins / kWindowBins) * kWindowBins;
    const double nakedOpen = windowRate(tlNaked, "rpc.completed",
                                        kWindowBins, 2 * kWindowBins);
    const double nakedEnd =
        windowRate(tlNaked, "rpc.completed", lastW - kWindowBins, bins);
    hsipc::bench::note("tl_naked_decay",
                       nakedOpen > 0 ? nakedEnd / nakedOpen : 0);
    // Outage spans bins 10-12 (100-130 ms); recovery is the tail.
    const double crashOutage =
        windowRate(tlCrash, "rpc.completed", 10, 13);
    const double crashTail =
        windowRate(tlCrash, "rpc.completed", 20, bins);
    hsipc::bench::note("tl_crash_outage_goodput", crashOutage);
    hsipc::bench::note("tl_crash_recovered_goodput", crashTail);
    if (!tlCrash.timeline.enabled()) {
        std::fprintf(stderr,
                     "timeline missing from the crash run\n");
        return 1;
    }
    const std::string report = reportPath();
    if (!report.empty())
        std::printf("\n  run report: %s (render with tools/report.py)\n",
                    report.c_str());

    return hsipc::bench::finish();
}
