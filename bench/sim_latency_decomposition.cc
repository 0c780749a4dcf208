/**
 * @file
 * Critical-path latency decomposition across the four architectures
 * under rising offered load — the observability layer answering the
 * thesis' core question ("which resource caps throughput, and what
 * does the client's latency consist of?") from the simulator's own
 * causal traces.
 *
 * For each architecture I-IV, a non-local client/server workload is
 * swept over 1..8 conversations and every round trip's latency is
 * decomposed into service, queueing, network, and blocked-on-
 * rendezvous time.  Below the throughput knee the round trip is
 * almost all service + network; past it, the added latency is pure
 * queueing on the saturated resource — visible here as the queueing
 * column exploding while service stays flat.  A second table
 * cross-checks the trace-derived bottleneck against the exact GTPN
 * model's saturating processor at maximum communication load.
 */

#include <cstdio>
#include <string>

#include "common/bench_main.hh"
#include "common/table.hh"
#include "sim/analysis/bottleneck.hh"
#include "sim/kernel/ipc_sim.hh"
#include "sim/runner/bench_profile.hh"

namespace
{

using namespace hsipc;

const models::Arch kArchs[] = {models::Arch::I, models::Arch::II,
                               models::Arch::III, models::Arch::IV};

} // namespace

int
main(int argc, char **argv)
{
    hsipc::bench::init(argc, argv, "sim_latency_decomposition");

    // Engine profile across every run of the bench (with --profile).
    obs::EngineProfile engMerged;

    // --- Latency decomposition vs offered load ----------------------
    {
        TextTable t("Critical-path latency decomposition, non-local, "
                    "X = 2000 us (all columns us/round trip)");
        t.header({"Arch", "conv", "thr/s", "roundTrip", "service",
                  "queue", "network", "blocked", "queue p95",
                  "bottleneck"});
        for (models::Arch arch : kArchs) {
            for (int conv : {1, 2, 4, 8}) {
                sim::Experiment e;
                e.arch = arch;
                e.conversations = conv;
                e.computeUs = 2000;
                e.topo.nodes = 2;
                e.topo.linkLatencyUs = 50;
                e.warmupUs = 20000;
                e.measureUs = 300000;
                e.decomposeLatency = true;
                e.engineProfile = hsipc::bench::profile();
                const sim::Outcome o = sim::runExperiment(e);
                engMerged.merge(o.engineProfile);
                const trace::Decomposition &d = o.decomposition;
                t.row({archName(arch), std::to_string(conv),
                       TextTable::num(o.throughputPerSec, 0),
                       TextTable::num(d.roundTrip.meanUs, 0),
                       TextTable::num(d.service.meanUs, 0),
                       TextTable::num(d.queue.meanUs, 0),
                       TextTable::num(d.network.meanUs, 0),
                       TextTable::num(d.blocked.meanUs, 0),
                       TextTable::num(d.queue.p95Us, 0),
                       d.bottleneck});
                // Headline scalars for the regression baseline: the
                // unloaded and saturated ends of each sweep.
                if (conv == 1 || conv == 8) {
                    const std::string k = std::string("arch") +
                                          archName(arch) + ".conv" +
                                          std::to_string(conv);
                    hsipc::bench::note(k + ".queueUs",
                                       d.queue.meanUs);
                    hsipc::bench::note(k + ".serviceUs",
                                       d.service.meanUs);
                    hsipc::bench::note(k + ".throughputPerSec",
                                       o.throughputPerSec);
                }
            }
        }
        std::printf("%s  service stays flat as load rises; the added "
                    "latency past the\n  knee is queueing on the "
                    "bottleneck resource.\n\n",
                    t.render().c_str());
        hsipc::bench::record(t);
    }

    // --- Bottleneck: trace vs exact GTPN analysis -------------------
    {
        TextTable t("Bottleneck at maximum communication load (local, "
                    "X = 0, 4 conversations): trace vs GTPN");
        t.header({"Arch", "trace bottleneck", "trace class",
                  "GTPN class", "GTPN host util", "GTPN mp util",
                  "agree"});
        int agreements = 0;
        for (models::Arch arch : kArchs) {
            sim::Experiment e;
            e.arch = arch;
            e.local = true;
            e.conversations = 4;
            e.computeUs = 0;
            e.warmupUs = 20000;
            e.measureUs = 200000;
            e.decomposeLatency = true;
            e.engineProfile = hsipc::bench::profile();
            const sim::Outcome o = sim::runExperiment(e);
            engMerged.merge(o.engineProfile);
            const auto traced =
                sim::analysis::traceBottleneck(o.decomposition);
            const auto model =
                sim::analysis::gtpnSaturation(arch, 4, 0);
            const bool agree = traced == model.bottleneck;
            agreements += agree;
            t.row({archName(arch), o.decomposition.bottleneck,
                   sim::analysis::resourceClassName(traced),
                   sim::analysis::resourceClassName(model.bottleneck),
                   TextTable::num(model.hostUtil, 3),
                   TextTable::num(model.mpUtil, 3),
                   agree ? "yes" : "NO"});
        }
        std::printf("%s  the measured critical path and the analytic "
                    "model blame the\n  same component on every "
                    "architecture.\n\n",
                    t.render().c_str());
        hsipc::bench::record(t);
        hsipc::bench::note("bottleneckAgreements",
                           static_cast<double>(agreements));
    }

    if (hsipc::bench::profile()) {
        engMerged.writeFile(hsipc::bench::profilePath());
        std::printf("engine profile: %s\n",
                    hsipc::bench::profilePath().c_str());
    }
    return hsipc::bench::finish();
}
