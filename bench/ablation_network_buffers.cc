/**
 * @file
 * Ablations of two modeling assumptions, on the kernel simulator:
 *
 * 1. "The network is not a bottleneck" (§6.6.4): the models fold only
 *    the DMA times into the round trip.  Sweeping the wire time of
 *    the 4 Mb/s token ring shows when that assumption breaks.
 * 2. Kernel buffering (§3.2.2): the thesis' kernels block senders
 *    when buffers run out; sweeping the pool size shows the cliff.
 *
 * All 14 simulations run through the sweep runner (`--jobs N`);
 * outcomes land by input index and the tables render afterwards,
 * byte-identical at any jobs level.
 */

#include <cstdio>
#include <vector>

#include "common/bench_main.hh"
#include "common/table.hh"
#include "sim/runner/bench_profile.hh"
#include "sim/runner/sweep_runner.hh"

int
main(int argc, char **argv)
{
    hsipc::bench::init(argc, argv, "ablation_network_buffers");
    using namespace hsipc;
    using namespace hsipc::models;

    const std::vector<double> wires = {0.0, 88.0, 176.0, 704.0, 2816.0};
    const std::vector<double> rates = {16.0, 4.0, 1.0, 0.25};
    const std::vector<int> pools = {1, 2, 3, 6, 64};

    std::vector<sim::Experiment> exps;
    // Two nodes joined by a fixed-delay link, then by one token-ring
    // segment (topology kind 2).
    for (double wire : wires) {
        sim::Experiment e;
        e.arch = Arch::II;
        e.conversations = 4;
        e.computeUs = 1710;
        e.topo.nodes = 2;
        e.topo.linkLatencyUs = wire;
        exps.push_back(e);
    }
    for (double mbps : rates) {
        sim::Experiment e;
        e.arch = Arch::II;
        e.conversations = 4;
        e.computeUs = 1710;
        e.topo.nodes = 2;
        e.topo.kind = 2;
        e.topo.segMbps = mbps;
        exps.push_back(e);
    }
    for (int buffers : pools) {
        sim::Experiment e;
        e.arch = Arch::II;
        e.local = true;
        e.conversations = 6;
        e.computeUs = 0;
        e.kernelBuffers = buffers;
        exps.push_back(e);
    }
    sim::applyBenchProfile(exps);
    const std::vector<sim::Outcome> outcomes =
        sim::runSweep(exps, bench::jobs());
    sim::writeBenchProfile(outcomes);
    std::size_t cell = 0;

    {
        // An 88-byte packet (40-byte message + headers) on a 4 Mb/s
        // token ring takes ~176 us of wire time; faster and slower
        // rings bracket it.
        TextTable t("Network-speed ablation (Arch II non-local, 4 "
                    "conversations, X = 1.71 ms)");
        t.header({"Wire time/packet (us)", "msgs/s",
                  "round trip (ms)"});
        for (double wire : wires) {
            const sim::Outcome &o = outcomes[cell++];
            t.row({TextTable::num(wire, 0),
                   TextTable::num(o.throughputPerSec, 1),
                   TextTable::num(o.meanRoundTripUs / 1000.0, 2)});
        }
        std::printf("%s  (the thesis models wire time as zero; the "
                    "4 Mb/s ring costs ~4%% here)\n\n",
                    t.render().c_str());
        hsipc::bench::record(t);
    }

    {
        // The same question on the explicit token-ring model: token
        // rotation + serialization at the ring rate.
        TextTable t("Token-ring ablation (Arch II non-local, 4 "
                    "conversations, X = 1.71 ms, 48-byte packets)");
        t.header({"Ring rate (Mb/s)", "msgs/s", "ring util",
                  "token wait (us)"});
        for (double mbps : rates) {
            const sim::Outcome &o = outcomes[cell++];
            t.row({TextTable::num(mbps, 2),
                   TextTable::num(o.throughputPerSec, 1),
                   TextTable::num(o.ringUtil, 3),
                   TextTable::num(o.ringTokenWaitUs, 1)});
        }
        std::printf("%s\n", t.render().c_str());
        hsipc::bench::record(t);
    }

    {
        TextTable t("Kernel-buffer-pool ablation (Arch II local, 6 "
                    "conversations, X = 0)");
        t.header({"Buffers", "msgs/s", "sender stalls"});
        for (int buffers : pools) {
            const sim::Outcome &o = outcomes[cell++];
            t.row({std::to_string(buffers),
                   TextTable::num(o.throughputPerSec, 1),
                   std::to_string(o.bufferStalls)});
        }
        std::printf("%s", t.render().c_str());
        hsipc::bench::record(t);
    }
    return hsipc::bench::finish();
}
