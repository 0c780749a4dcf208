/**
 * @file
 * Host-cost benchmark program: one workload per invocation, one thread.
 *
 *   perfbench --workload <validation|fleet|overload|model_solve>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             --reference perfbench/reference.json
 *   perfbench --write-reference perfbench/reference.json
 *
 * --trace 0 repeats untraced passes within --seconds (at least three)
 * and reports the end-to-end metrics: a pass's wall time and the
 * median set-up time, both rescaled by host probes timed between them
 * (see runEndToEnd), and the process's peak RSS.  --trace 1 runs one
 * untraced pass through the public entry point, then re-runs each cell
 * untraced and traced to fill the per-layer ledger; it does a fixed
 * amount of work and ignores --seconds.  Every cell of every run is
 * checked; the last stdout line is the JSON result.
 * See perfbench/NOTES.md for the workloads and the metric definitions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "calibrate.hh"
#include "common/json.hh"
#include "common/json_value.hh"
#include "des_ledger.hh"
#include "model_trace.hh"
#include "sim/check/invariants.hh"
#include "sim/runner/sweep_runner.hh"
#include "workloads.hh"

namespace
{

using namespace hsipc;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetupsPerPass = 5;
//! Shortest time one set-up sample repeats set-ups for.
constexpr double kSetupSampleS = 0.005;
constexpr std::size_t kMinPasses = 3;
//! Host-probe time after each cell, as a share of the cell's time.
constexpr double kProbeShare = 0.15;
//! Timeline bin width of the obs.timeline_overhead_pct row.
constexpr double kTimelineBinUs = 10000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --reference <file>\n"
                 "       perfbench --write-reference <file>\n",
                 why.c_str());
    std::exit(2);
}

// --- Outcome digests and the committed reference -------------------

/** FNV-1a 64 of the deterministic outcome documents, as hex. */
std::string
digest(const sim::Outcome &o)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::string &doc : {sim::outcomeJson(o), sim::topoJson(o)}) {
        for (unsigned char c : doc) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        h ^= 0xff; // document separator
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** The committed reference: default-seed digests, model throughputs. */
struct Reference
{
    std::map<std::string, std::vector<std::string>> desDigests;
    std::vector<double> modelSolve;       //!< per modelCells() cell
    std::vector<double> validationModel;  //!< per validation DES cell
};

Reference
loadReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usage("cannot read reference " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    const JsonValue doc = parseJson(ss.str());
    if (doc.at("default_seed").asNumber() != double(kDefaultSeed))
        usage("reference was written for another default seed");
    Reference ref;
    for (const auto &[name, arr] : doc.at("des_digest").asObject()) {
        for (const JsonValue &d : arr.asArray())
            ref.desDigests[name].push_back(d.asString());
    }
    for (const JsonValue &v : doc.at("model_solve").asArray())
        ref.modelSolve.push_back(v.asNumber());
    for (const JsonValue &v : doc.at("validation_model_column").asArray())
        ref.validationModel.push_back(v.asNumber());
    return ref;
}

std::string
exactNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
numberArray(const std::vector<ModelCell> &cells)
{
    std::string out = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ModelResult r = solveCell(cells[i]);
        if (!r.converged)
            usage("reference solve did not converge: " + cells[i].label);
        out += (i ? ", " : "") + exactNumber(r.throughputPerUs);
    }
    return out + "]";
}

/** Regenerate the reference from the current code on kDefaultSeed. */
int
writeReference(const std::string &path)
{
    std::string doc = "{\n  \"default_seed\": " +
                      std::to_string(kDefaultSeed) +
                      ",\n  \"des_digest\": {";
    bool first = true;
    for (Workload w :
         {Workload::Validation, Workload::Fleet, Workload::Overload}) {
        const std::vector<sim::Experiment> exps =
            desCells(w, kDefaultSeed);
        const std::vector<sim::Outcome> outs = sim::runSweep(exps, 1);
        doc += std::string(first ? "" : ",") + "\n    " +
               jsonString(workloadName(w)) + ": [";
        first = false;
        for (std::size_t i = 0; i < outs.size(); ++i) {
            const auto bad = sim::check::checkOutcome(exps[i], outs[i]);
            if (!bad.empty())
                usage("reference run violates the oracle:\n" +
                      sim::check::formatViolations(bad));
            doc += (i ? ", " : "") + jsonString(digest(outs[i]));
        }
        doc += "]";
    }
    doc += "\n  },\n  \"model_solve\": " + numberArray(modelCells()) +
           ",\n  \"validation_model_column\": " +
           numberArray(validationModelColumn()) + "\n}\n";
    std::ofstream out(path);
    out << doc;
    if (!out)
        usage("cannot write " + path);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

// --- Checks ---------------------------------------------------------

/** Cells checked and failed in this run, with the first reasons. */
struct Checks
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> reasons;

    void
    record(bool ok, const std::string &why)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (reasons.size() < 10)
            reasons.push_back(why);
    }
};

/**
 * Check one DES outcome against the invariant oracle and, when
 * @p expect is nonempty, against an expected digest.  Returns the
 * outcome's digest.
 */
std::string
checkDes(const sim::Experiment &e, const sim::Outcome &o,
         const std::string &expect, const std::string &label, Checks &ck)
{
    const std::vector<sim::check::Violation> bad =
        sim::check::checkOutcome(e, o);
    const std::string d = digest(o);
    if (!bad.empty())
        ck.record(false, label + ": " + sim::check::formatViolations(bad));
    else
        ck.record(expect.empty() || d == expect,
                  label + ": outcome digest " + d + " != " + expect);
    return d;
}

void
checkModel(const ModelCell &c, const ModelResult &r, double expect,
           Checks &ck)
{
    const double tol = modelTolerance(c);
    ck.record(r.converged &&
                  std::abs(r.throughputPerUs - expect) <=
                      tol * std::abs(expect),
              c.label + ": throughput " + exactNumber(r.throughputPerUs) +
                  "/us, expected " + exactNumber(expect) +
                  (r.converged ? "" : " (not converged)"));
}

// --- Metric output --------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const std::vector<Metric> &metrics, const Checks &ck)
{
    for (const Metric &m : metrics)
        std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &r : ck.reasons)
        std::fprintf(stderr, "perfbench: FAILED %s\n", r.c_str());
    bool finite = true;
    std::string body;
    for (const Metric &m : metrics) {
        finite = finite && std::isfinite(m.value);
        body += std::string(body.empty() ? "" : ", ") +
                jsonString(m.name) + ": {\"value\": " +
                (std::isfinite(m.value) ? jsonNumber(m.value) : "0") +
                ", \"unit\": " + jsonString(m.unit) + "}";
    }
    const bool correct = ck.failed == 0 && finite && ck.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", ck.attempted, ck.failed,
                body.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

// --- The workload run -----------------------------------------------

struct Args
{
    Workload workload = Workload::Validation;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string reference;
};

/** Digests a pass must reproduce: the reference's on the default seed. */
std::vector<std::string>
expectedDigests(const Args &a, const Reference &ref, std::size_t cells)
{
    std::vector<std::string> want(cells);
    const auto it = ref.desDigests.find(workloadName(a.workload));
    if (a.seed == kDefaultSeed) {
        if (it == ref.desDigests.end() || it->second.size() != cells)
            usage("reference lacks digests for this workload");
        want = it->second;
    }
    return want;
}

/**
 * One set-up sample: generate the seed's inputs and construct every
 * cell without running it (a DES cell runs a 1-us window: system
 * construction, kickoff and teardown; a model cell builds the first
 * GTPN net its solve analyzes), repeated until kSetupSampleS has
 * passed.  Returns the mean seconds of one set-up.  A single model
 * set-up takes well under a millisecond, too short to time steadily.
 */
double
timedSetup(const Args &a)
{
    const Clock::time_point t0 = Clock::now();
    int count = 0;
    do {
        ++count;
        if (isDes(a.workload)) {
            for (sim::Experiment e : desCells(a.workload, a.seed)) {
                e.warmupUs = 0;
                e.measureUs = 1;
                sim::runExperiment(e);
            }
        } else {
            for (const ModelCell &c : modelCells())
                buildFirstNet(c);
        }
    } while (secondsSince(t0) < kSetupSampleS);
    return secondsSince(t0) / count;
}

/**
 * Repeat passes within the run's seconds (at least kMinPasses), each
 * preceded by kSetupsPerPass set-up samples so they spread over the
 * run.  A pass runs every cell once, timed per cell.
 *
 * Other tenants' load changes the host's speed by up to 2x, over
 * minutes and in bursts, so a raw time says more about the host than
 * about the code.  After each cell the run times host probes (see
 * calibrate.hh) for kProbeShare of the cell's time, and one probe
 * after each set-up.  wall_s is the mean pass time rescaled by the
 * mean probe time, and setup_s the median set-up rescaled by its own
 * probe's time: seconds at the quiet reference host's speed.
 */
std::vector<Metric>
runEndToEnd(const Args &a, Checks &ck)
{
    const Reference ref = loadReference(a.reference);
    const bool des = isDes(a.workload);
    const std::vector<sim::Experiment> exps = desCells(a.workload, a.seed);
    const std::vector<ModelCell> models = des ? std::vector<ModelCell>()
                                              : modelCells();
    const std::size_t n = des ? exps.size() : models.size();
    std::vector<std::string> want;
    if (des)
        want = expectedDigests(a, ref, n);
    else if (ref.modelSolve.size() != n)
        usage("reference lacks the model_solve throughputs");

    const sim::SweepRunner runner; // jobs = 1
    // Run and check cell i; returns its seconds.
    auto runCell = [&](std::size_t i) {
        const Clock::time_point t0 = Clock::now();
        if (des) {
            const sim::Outcome out = runner.run({exps[i]}).front();
            const double s = secondsSince(t0);
            // Later passes must reproduce the first bit for bit.
            want[i] = checkDes(exps[i], out, want[i],
                               "cell " + std::to_string(i), ck);
            return s;
        }
        const ModelResult r = solveCell(models[i]);
        const double s = secondsSince(t0);
        checkModel(models[i], r, ref.modelSolve[i], ck);
        return s;
    };

    runProbe(); // builds the probe's matrix outside the timed loop
    std::vector<double> setups, passes;
    double probeS = 0;
    long probes = 0;
    const Clock::time_point start = Clock::now();
    double lastPassS = 0;
    // Stop before a pass that would overrun the run's seconds.
    while (passes.size() < kMinPasses ||
           secondsSince(start) + lastPassS <= a.seconds) {
        const Clock::time_point passStart = Clock::now();
        for (int i = 0; i < kSetupsPerPass; ++i) {
            const double s = timedSetup(a);
            setups.push_back(atReferenceSpeed(s, runProbe()));
        }
        double pass = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const double s = runCell(i);
            pass += s;
            // Probe for a fixed share of the cell's time, at least once.
            const double until = probeS + kProbeShare * s;
            do {
                probeS += runProbe();
                ++probes;
            } while (probeS < until);
        }
        passes.push_back(pass);
        lastPassS = secondsSince(passStart);
    }
    double passMean = 0;
    for (double p : passes)
        passMean += p / double(passes.size());
    const double probeMean = probeS / double(probes);
    std::printf("perfbench %s seed %llu: %zu passes (s):",
                workloadName(a.workload),
                static_cast<unsigned long long>(a.seed), passes.size());
    for (double p : passes)
        std::printf(" %.4f", p);
    std::printf("; mean probe %.2f ms over %ld\n", probeMean * 1e3, probes);
    return {{"wall_s", atReferenceSpeed(passMean, probeMean), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"setup_s", median(setups), "s"}};
}

/** Every per-layer metric, zero where the workload has no such layer. */
struct LayerMetrics
{
    std::vector<Metric> list;

    LayerMetrics()
    {
        for (const auto &[name, unit] :
             std::vector<std::pair<std::string, std::string>>{
                 {"host_ns_per_sim_rt", "ns"},
                 {"solves_per_host_s", "1/s"},
                 {"model_sim_gap_pct", "%"},
                 {"des.events", "count"},
                 {"des.events_per_rt", "events/rt"},
                 {"des.spills_per_event", "ratio"},
                 {"des.max_pending", "count"},
                 {"des.heap_cmp_per_event", "ratio"},
                 {"des.ns_per_event", "ns"},
                 {"node.bus_events_per_rt", "events/rt"},
                 {"node.proc_events_per_rt", "events/rt"},
                 {"node.nic_events_per_rt", "events/rt"},
                 {"node.bus_wall_share", "frac"},
                 {"node.proc_wall_share", "frac"},
                 {"node.nic_wall_share", "frac"},
                 {"topo.events_per_rt", "events/rt"},
                 {"topo.wall_share", "frac"},
                 {"topo.link_msgs_per_rt", "msgs/rt"},
                 {"topo.router_queue_peak", "count"},
                 {"net.retransmissions_per_rt", "pkts/rt"},
                 {"net.acks_per_rt", "pkts/rt"},
                 {"net.timeouts_per_rt", "1/rt"},
                 {"net.timer_events_per_rt", "events/rt"},
                 {"net.wall_share", "frac"},
                 {"gtpn.analyze_calls", "count"},
                 {"gtpn.states", "count"},
                 {"gtpn.edges", "count"},
                 {"gtpn.reach_ms", "ms"},
                 {"gtpn.solve_ms", "ms"},
                 {"gtpn.sweeps", "count"},
                 {"gtpn.ns_per_edge_sweep", "ns"},
                 {"models.fixed_point_iters", "count"},
                 {"models.build_ms", "ms"},
                 {"models.analyze_ms_per_cell", "ms"},
                 {"runner.dispatch_overhead_ms", "ms"},
                 {"obs.profile_overhead_pct", "%"},
                 {"obs.decompose_overhead_pct", "%"},
                 {"obs.timeline_overhead_pct", "%"},
             })
            list.push_back({name, 0, unit});
    }

    void
    set(const std::string &name, double v)
    {
        for (Metric &m : list) {
            if (m.name == name) {
                m.value = v;
                return;
            }
        }
        usage("unknown metric " + name);
    }
};

double
perRt(double count, long rts)
{
    return rts > 0 ? count / double(rts) : 0;
}

void
traceDes(const Args &a, const Reference &ref, LayerMetrics &lm,
         Checks &ck)
{
    const bool validation = a.workload == Workload::Validation;
    const std::vector<sim::Experiment> exps = desCells(a.workload, a.seed);
    std::vector<std::string> want = expectedDigests(a, ref, exps.size());

    // The end-to-end path, one sweep through the public runner; it
    // also warms the process up for the timed runs below.
    const sim::SweepRunner runner;
    const std::vector<sim::Outcome> outs = runner.run(exps);
    long rts = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        want[i] = checkDes(exps[i], outs[i], want[i],
                           "cell " + std::to_string(i), ck);
        rts += outs[i].roundTrips;
    }

    // Per cell, interleaved so drift hits every variant alike: the
    // cell through the runner and directly (the difference is the
    // runner's dispatch cost), profiled, and on validation with the
    // other observability knobs.  Profiling is observational, so the
    // profiled outcome must reproduce the untraced digest.
    double sweepS = 0, offS = 0, profS = 0, decompS = 0, timelineS = 0;
    DesLedger led;
    for (std::size_t i = 0; i < exps.size(); ++i) {
        const std::string label = "cell " + std::to_string(i);
        Clock::time_point t = Clock::now();
        const sim::Outcome swept = runner.run({exps[i]}).front();
        sweepS += secondsSince(t);
        checkDes(exps[i], swept, want[i], label + " swept", ck);

        t = Clock::now();
        const sim::Outcome off = sim::runExperiment(exps[i]);
        offS += secondsSince(t);
        checkDes(exps[i], off, want[i], label + " direct", ck);

        sim::Experiment e = exps[i];
        e.engineProfile = true;
        t = Clock::now();
        const sim::Outcome prof = sim::runExperiment(e);
        profS += secondsSince(t);
        checkDes(e, prof, want[i], label + " profiled", ck);
        led.add(prof);

        if (!validation)
            continue;
        e = exps[i];
        e.decomposeLatency = true;
        t = Clock::now();
        const sim::Outcome dec = sim::runExperiment(e);
        decompS += secondsSince(t);
        checkDes(e, dec, "", label + " decomposed", ck);

        e = exps[i];
        e.timelineIntervalUs = kTimelineBinUs;
        t = Clock::now();
        const sim::Outcome tl = sim::runExperiment(e);
        timelineS += secondsSince(t);
        checkDes(e, tl, "", label + " timeline", ck);
    }
    for (const std::string &err : led.errors)
        ck.record(false, err);
    if (led.roundTrips != rts)
        ck.record(false, "profiled runs completed other trip counts");

    const double ev = double(led.events);
    auto layerEv = [&](Layer l) {
        return double(led.layerEvents[static_cast<std::size_t>(l)]);
    };
    lm.set("host_ns_per_sim_rt", perRt(sweepS * 1e9, rts));
    lm.set("des.events", ev);
    lm.set("des.events_per_rt", perRt(ev, rts));
    lm.set("des.spills_per_event", ev > 0 ? led.spills / ev : 0);
    lm.set("des.max_pending", double(led.maxPending));
    lm.set("des.heap_cmp_per_event", ev > 0 ? led.comparisons / ev : 0);
    lm.set("des.ns_per_event", ev > 0 ? offS * 1e9 / ev : 0);
    lm.set("node.bus_events_per_rt", perRt(layerEv(Layer::Bus), rts));
    lm.set("node.proc_events_per_rt", perRt(layerEv(Layer::Proc), rts));
    lm.set("node.nic_events_per_rt", perRt(layerEv(Layer::Nic), rts));
    lm.set("node.bus_wall_share", led.wallShare(Layer::Bus));
    lm.set("node.proc_wall_share", led.wallShare(Layer::Proc));
    lm.set("node.nic_wall_share", led.wallShare(Layer::Nic));
    lm.set("topo.events_per_rt", perRt(layerEv(Layer::Topo), rts));
    lm.set("topo.wall_share", led.wallShare(Layer::Topo));
    lm.set("topo.link_msgs_per_rt", perRt(double(led.linkMsgs), rts));
    lm.set("topo.router_queue_peak", double(led.routerQueuePeak));
    lm.set("net.retransmissions_per_rt",
           perRt(double(led.retransmissions), rts));
    lm.set("net.acks_per_rt", perRt(double(led.acks), rts));
    lm.set("net.timeouts_per_rt", perRt(double(led.timeouts), rts));
    lm.set("net.timer_events_per_rt", perRt(layerEv(Layer::Net), rts));
    lm.set("net.wall_share", led.wallShare(Layer::Net));
    lm.set("runner.dispatch_overhead_ms", (sweepS - offS) * 1e3);

    if (!validation)
        return;
    lm.set("obs.profile_overhead_pct", (profS / offS - 1) * 100);
    lm.set("obs.decompose_overhead_pct", (decompS / offS - 1) * 100);
    lm.set("obs.timeline_overhead_pct", (timelineS / offS - 1) * 100);
    if (ref.validationModel.size() != outs.size())
        usage("reference lacks the validation model column");
    double gap = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        gap += std::abs(ref.validationModel[i] * 1e6 /
                            outs[i].throughputPerSec -
                        1);
    }
    lm.set("model_sim_gap_pct", gap / double(outs.size()) * 100);
}

void
traceModels(const Reference &ref, LayerMetrics &lm, Checks &ck)
{
    const std::vector<ModelCell> cells = modelCells();
    if (ref.modelSolve.size() != cells.size())
        usage("reference lacks the model_solve throughputs");

    std::vector<ModelResult> lib;
    const Clock::time_point t0 = Clock::now();
    for (const ModelCell &c : cells)
        lib.push_back(solveCell(c));
    const double wallS = secondsSince(t0);

    ModelLedger led;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        checkModel(cells[i], lib[i], ref.modelSolve[i], ck);
        // The re-drive must land where the library did.
        checkModel(cells[i], traceCell(cells[i], led),
                   lib[i].throughputPerUs, ck);
    }
    for (const std::string &m : led.mismatches)
        ck.record(false, m);

    const double n = double(cells.size());
    lm.set("solves_per_host_s", n / wallS);
    lm.set("gtpn.analyze_calls", double(led.analyzeCalls));
    lm.set("gtpn.states", double(led.states));
    lm.set("gtpn.edges", double(led.edges));
    lm.set("gtpn.reach_ms", led.reachNs / 1e6);
    lm.set("gtpn.solve_ms", led.solveNs / 1e6);
    lm.set("gtpn.sweeps", double(led.sweeps));
    lm.set("gtpn.ns_per_edge_sweep",
           led.edgeSweeps > 0 ? led.solveNs / led.edgeSweeps : 0);
    lm.set("models.fixed_point_iters", double(led.fixedPointIters));
    lm.set("models.build_ms", led.buildNs / 1e6);
    lm.set("models.analyze_ms_per_cell", led.analyzeNs / 1e6 / n);
}

Args
parseArgs(int argc, char **argv, std::string &writeRef)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") {
            const auto w = parseWorkload(v);
            if (!w)
                usage("unknown workload '" + v + "'");
            a.workload = *w;
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::atof(v.c_str());
        } else if (flag == "--trace") {
            a.trace = v != "0";
        } else if (flag == "--reference") {
            a.reference = v;
        } else if (flag == "--write-reference") {
            writeRef = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (writeRef.empty() && (!haveWorkload || a.reference.empty()))
        usage("--workload and --reference are required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string writeRef;
    const Args a = parseArgs(argc, argv, writeRef);
    if (!writeRef.empty())
        return writeReference(writeRef);

    Checks ck;
    if (!a.trace) {
        printResult(runEndToEnd(a, ck), ck);
        return 0;
    }
    const Reference ref = loadReference(a.reference);
    LayerMetrics lm;
    if (isDes(a.workload))
        traceDes(a, ref, lm, ck);
    else
        traceModels(ref, lm, ck);
    printResult(lm.list, ck);
    return 0;
}
