/**
 * @file
 * The Figure 1.1 distributed system, end to end: two nodes on a
 * 4 Mb/s token ring, each running clients *and* servers (the mixed
 * workload the thesis' models could not express), on the smart-bus
 * architecture — with the simulator's per-activity measurement
 * showing where each round trip's time goes.
 */

#include <cstdio>

#include "common/table.hh"
#include "sim/kernel/ipc_sim.hh"

int
main()
{
    using namespace hsipc;
    using namespace hsipc::models;

    sim::Experiment e;
    e.arch = Arch::III;   // message coprocessor + smart bus
    e.mixedLocal = 2;     // an editor/file-server pair on each node
    e.mixedRemote = 2;    // plus cross-node print/mail traffic
    e.computeUs = 1477;   // one 1K file-page read per request
    e.topo.nodes = 2;     // both nodes on one 4 Mb/s token ring
    e.topo.kind = 2;
    e.topo.segMbps = 4.0;
    const sim::Outcome o = sim::runExperiment(e);

    std::printf("Two smart-bus nodes, 4 conversations (2 local + 2 "
                "crossing the ring):\n\n");
    TextTable t("Steady state");
    t.header({"Metric", "Value"});
    t.row({"Total throughput", TextTable::num(o.throughputPerSec, 1) +
                                   " msgs/s"});
    t.row({"  local conversations",
           TextTable::num(o.localThroughputPerSec, 1) + " msgs/s @ " +
               TextTable::num(o.localMeanRtUs / 1000.0, 2) + " ms"});
    t.row({"  remote conversations",
           TextTable::num(o.remoteThroughputPerSec, 1) + " msgs/s @ " +
               TextTable::num(o.remoteMeanRtUs / 1000.0, 2) + " ms"});
    t.row({"Round trip p50 / p95",
           TextTable::num(o.rtP50Us / 1000.0, 2) + " / " +
               TextTable::num(o.rtP95Us / 1000.0, 2) + " ms"});
    t.row({"Host utilization", TextTable::num(o.hostUtil, 2)});
    t.row({"MP utilization", TextTable::num(o.mpUtil, 2)});
    t.row({"Ring utilization", TextTable::num(o.ringUtil, 3)});
    t.row({"Mean token wait",
           TextTable::num(o.ringTokenWaitUs, 1) + " us"});
    std::printf("%s\n", t.render().c_str());

    std::printf("where a round trip's kernel time goes (us per "
                "completed round trip):\n");
    for (const auto &[name, us] : o.activityUsPerRoundTrip) {
        if (name != "compute")
            std::printf("  %-16s %8.1f\n", name.c_str(), us);
    }
    return 0;
}
