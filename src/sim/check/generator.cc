#include "sim/check/generator.hh"

#include <cmath>

#include "common/rng.hh"

namespace hsipc::sim::check
{

Experiment
baseExperiment()
{
    Experiment exp;
    exp.warmupUs = 2000;
    exp.measureUs = 40000;
    return exp;
}

namespace
{

/** Round to one decimal so repros read well; validity is unaffected. */
double
coarse(double v)
{
    return std::round(v * 10.0) / 10.0;
}

} // namespace

Experiment
ExperimentGenerator::generate(std::uint64_t index) const
{
    // Mix the generator seed with the stream index so neighbouring
    // indices produce statistically unrelated draws (a bare xoshiro
    // seeded with base+index would correlate the low bits).
    Rng rng(parallel::deriveSeed(baseSeed, index));
    Experiment exp = baseExperiment();

    exp.arch = static_cast<models::Arch>(1 + rng.below(4));

    // Workload: classic local, classic remote, or mixed (two-node).
    const double workload = rng.uniform();
    if (workload < 0.4) {
        exp.local = true;
        exp.conversations = 1 + static_cast<int>(rng.below(6));
    } else if (workload < 0.8) {
        exp.local = false;
        exp.conversations = 1 + static_cast<int>(rng.below(6));
    } else {
        exp.mixedLocal = static_cast<int>(rng.below(4));
        exp.mixedRemote = static_cast<int>(rng.below(4));
        if (exp.mixedLocal + exp.mixedRemote == 0)
            exp.mixedRemote = 1;
    }
    const bool twoNodes =
        !exp.local || exp.mixedLocal + exp.mixedRemote > 0;

    if (rng.chance(0.5))
        exp.computeUs = coarse(rng.uniform(0, 4000));
    if (rng.chance(0.25))
        exp.hostsPerNode = 2 + static_cast<int>(rng.below(2));
    exp.extraCopy = rng.chance(0.1);
    if (rng.chance(0.25))
        exp.mpSpeedFactor = coarse(rng.uniform(0.5, 4.0));
    if (rng.chance(0.2)) // small pools exercise buffer stalls
        exp.kernelBuffers = 1 + static_cast<int>(rng.below(8));
    // Two-node media: a fixed wire delay or the thesis' token ring.
    // A two-node run that drew one gets the equivalent topology after
    // the topology draw below.
    double wireUs = 0;
    if (rng.chance(0.5))
        wireUs = coarse(rng.uniform(0, 500));
    double ringMbps = 0; // 0 = no ring
    if (twoNodes && rng.chance(0.25))
        ringMbps = coarse(rng.uniform(1.0, 10.0));
    exp.warmupUs = coarse(rng.uniform(500, 4000));
    exp.measureUs = coarse(rng.uniform(10000, 80000));
    exp.seed = rng.next();

    // Fault and protocol knobs only matter on two-node runs (the
    // stack is per-channel), but generating them for local runs too
    // checks that they are genuinely inert there.
    if (rng.chance(twoNodes ? 0.5 : 0.1)) {
        auto rate = [&]() {
            return rng.chance(0.5) ? coarse(rng.uniform(0, 0.3)) : 0.0;
        };
        exp.lossRate = rate();
        exp.corruptRate = rate();
        exp.duplicateRate = rate();
        exp.reorderRate = rate();
        exp.reorderDelayUs = coarse(rng.uniform(10, 1000));
        exp.retransmitTimeoutUs = coarse(rng.uniform(500, 20000));
        exp.retransmitWindow = 1 + static_cast<int>(rng.below(16));
    }
    if (rng.chance(0.15))
        exp.reliableProtocol = true;
    if (twoNodes && rng.chance(0.15)) {
        const int windows = 1 + static_cast<int>(rng.below(2));
        const double horizon = exp.warmupUs + exp.measureUs;
        for (int i = 0; i < windows; ++i) {
            CrashWindow w;
            w.node = static_cast<int>(rng.below(2));
            w.startUs = coarse(rng.uniform(0, horizon * 0.8));
            w.endUs = w.startUs +
                      coarse(rng.uniform(500, horizon * 0.2));
            exp.crashSchedule.push_back(w);
        }
    }

    // Robustness layer (ISSUE 6).  Every sampled value must remain
    // valid when any other robustness knob is independently reset to
    // its default — the greedy shrinker does exactly that — so the
    // backoff ranges are chosen to stay ordered against both the
    // defaults and each other.
    const bool mixed = exp.mixedLocal + exp.mixedRemote > 0;
    if (!mixed && rng.chance(0.35)) {
        exp.arrivalMode = 1;
        exp.arrivalRatePerSec = coarse(rng.uniform(200, 20000));
    }
    if (rng.chance(0.35))
        exp.deadlineUs = coarse(rng.uniform(minDrawnIntervalUs, 30000));
    if (rng.chance(0.35)) {
        exp.retryBudget = 1 + static_cast<int>(rng.below(4));
        exp.retryBackoffUs = coarse(rng.uniform(100, 8000));
        exp.retryBackoffMaxUs = coarse(rng.uniform(8000, 64000));
    }
    if (rng.chance(0.35)) {
        exp.svcQueueCap = 1 + static_cast<int>(rng.below(32));
        exp.shedPolicy = static_cast<int>(rng.below(3));
    }

    exp.decomposeLatency = rng.chance(0.3);

    // Time-resolved observability (ISSUE 7).  Coarse intervals keep
    // bin counts small; the oracle checks every counter series
    // integrates exactly to its whole-run ledger counterpart.
    if (rng.chance(0.35))
        exp.timelineIntervalUs =
            coarse(rng.uniform(minDrawnIntervalUs, 10000));
    if (rng.chance(0.25))
        exp.traceSampleRate = coarse(rng.uniform(0.1, 1.0));

    // Engine self-profiling (ISSUE 8): the engprof.* family checks
    // the profile's internal ledgers, and checkedRun pins that
    // flipping the knob never changes outcomeJson.  The file knob
    // stays unset — fuzz runs must not write artifacts.
    exp.engineProfile = rng.chance(0.25);

    // N-node topology.  Mixed workloads stay on two nodes, and a
    // two-node ring run keeps its ring.
    if (!mixed && ringMbps == 0 && rng.chance(0.3)) {
        static const int kNodeCounts[] = {2, 2, 3,  3,  4,  4, 5,
                                          6, 8, 12, 16, 24, 32};
        exp.topo.nodes = kNodeCounts[rng.below(13)];
        exp.topo.kind = static_cast<int>(rng.below(3));
        if (rng.chance(0.5))
            exp.topo.linkLatencyUs = coarse(rng.uniform(0, 500));
        if (exp.topo.kind == 1 && rng.chance(0.5))
            exp.topo.switchLatencyUs = coarse(rng.uniform(0, 200));
        if (exp.topo.kind == 2)
            exp.topo.segMbps = coarse(rng.uniform(1.0, 10.0));
        exp.topo.placement = static_cast<int>(rng.below(3));
    } else if (twoNodes && ringMbps > 0) {
        exp.topo.nodes = 2;
        exp.topo.kind = 2;
        exp.topo.segMbps = ringMbps;
    } else if (twoNodes && wireUs > 0) {
        exp.topo.nodes = 2;
        exp.topo.linkLatencyUs = wireUs;
    }
    return exp;
}

} // namespace hsipc::sim::check
