#include "sim/check/shrink.hh"

#include <cmath>

#include "sim/check/generator.hh"

namespace hsipc::sim::check
{

namespace
{

struct DoubleKnob
{
    const char *name;
    double Experiment::*field;
};

struct IntKnob
{
    const char *name;
    int Experiment::*field;
};

struct BoolKnob
{
    const char *name;
    bool Experiment::*field;
};

// Fixed shrink order: workload shape first (resetting `local` or the
// mixed counts usually removes the most machinery), then timing,
// then the fault stack.
constexpr BoolKnob boolKnobs[] = {
    {"local", &Experiment::local},
    {"extraCopy", &Experiment::extraCopy},
    {"reliableProtocol", &Experiment::reliableProtocol},
    {"decomposeLatency", &Experiment::decomposeLatency},
    {"engineProfile", &Experiment::engineProfile},
};

constexpr IntKnob intKnobs[] = {
    {"conversations", &Experiment::conversations},
    {"mixedLocal", &Experiment::mixedLocal},
    {"mixedRemote", &Experiment::mixedRemote},
    {"hostsPerNode", &Experiment::hostsPerNode},
    {"kernelBuffers", &Experiment::kernelBuffers},
    {"packetBytes", &Experiment::packetBytes},
    {"retransmitWindow", &Experiment::retransmitWindow},
    // Robustness layer: resetting arrivalMode first collapses an open
    // workload back to the closed loop; the rest then usually reset.
    {"arrivalMode", &Experiment::arrivalMode},
    {"retryBudget", &Experiment::retryBudget},
    {"svcQueueCap", &Experiment::svcQueueCap},
    {"shedPolicy", &Experiment::shedPolicy},
};

constexpr DoubleKnob doubleKnobs[] = {
    {"computeUs", &Experiment::computeUs},
    {"mpSpeedFactor", &Experiment::mpSpeedFactor},
    {"warmupUs", &Experiment::warmupUs},
    {"measureUs", &Experiment::measureUs},
    {"lossRate", &Experiment::lossRate},
    {"corruptRate", &Experiment::corruptRate},
    {"duplicateRate", &Experiment::duplicateRate},
    {"reorderRate", &Experiment::reorderRate},
    {"reorderDelayUs", &Experiment::reorderDelayUs},
    {"retransmitTimeoutUs", &Experiment::retransmitTimeoutUs},
    {"arrivalRatePerSec", &Experiment::arrivalRatePerSec},
    {"paretoAlpha", &Experiment::paretoAlpha},
    {"paretoBound", &Experiment::paretoBound},
    {"deadlineUs", &Experiment::deadlineUs},
    {"retryBackoffUs", &Experiment::retryBackoffUs},
    {"retryBackoffMaxUs", &Experiment::retryBackoffMaxUs},
    {"rtoMaxUs", &Experiment::rtoMaxUs},
    // Time-resolved observability: resetting either knob turns the
    // timeline or trace sampling off entirely.
    {"timelineIntervalUs", &Experiment::timelineIntervalUs},
    {"traceSampleRate", &Experiment::traceSampleRate},
};

// Topology knobs are nested under Experiment::topo, so they get their
// own member-pointer tables.  `nodes` is handled separately in the
// shrink loop: its bisection floors at 2 (a 1-node topology is
// invalid) while the reset target is 0 (topology off).
struct TopoIntKnob
{
    const char *name;
    int topo::Topology::*field;
};

struct TopoDoubleKnob
{
    const char *name;
    double topo::Topology::*field;
};

constexpr TopoIntKnob topoIntKnobs[] = {
    {"topo.kind", &topo::Topology::kind},
    {"topo.segments", &topo::Topology::segments},
    {"topo.placement", &topo::Topology::placement},
};

constexpr TopoDoubleKnob topoDoubleKnobs[] = {
    {"topo.linkLatencyUs", &topo::Topology::linkLatencyUs},
    {"topo.linkMbps", &topo::Topology::linkMbps},
    {"topo.switchLatencyUs", &topo::Topology::switchLatencyUs},
    {"topo.segMbps", &topo::Topology::segMbps},
    {"topo.zipfSkew", &topo::Topology::zipfSkew},
};

} // namespace

std::vector<std::string>
knobDiff(const Experiment &exp)
{
    const Experiment base = baseExperiment();
    std::vector<std::string> diff;
    if (exp.arch != base.arch)
        diff.push_back("arch");
    for (const BoolKnob &k : boolKnobs)
        if (exp.*k.field != base.*k.field)
            diff.push_back(k.name);
    for (const IntKnob &k : intKnobs)
        if (exp.*k.field != base.*k.field)
            diff.push_back(k.name);
    for (const DoubleKnob &k : doubleKnobs)
        if (exp.*k.field != base.*k.field)
            diff.push_back(k.name);
    if (exp.topo.nodes != base.topo.nodes)
        diff.push_back("topo.nodes");
    for (const TopoIntKnob &k : topoIntKnobs)
        if (exp.topo.*k.field != base.topo.*k.field)
            diff.push_back(k.name);
    for (const TopoDoubleKnob &k : topoDoubleKnobs)
        if (exp.topo.*k.field != base.topo.*k.field)
            diff.push_back(k.name);
    if (exp.topo.links != base.topo.links)
        diff.push_back("topo.links");
    if (exp.seed != base.seed)
        diff.push_back("seed");
    if (exp.crashSchedule != base.crashSchedule)
        diff.push_back("crashSchedule");
    if (exp.traceFile != base.traceFile)
        diff.push_back("traceFile");
    if (exp.metricsFile != base.metricsFile)
        diff.push_back("metricsFile");
    if (exp.timelineFile != base.timelineFile)
        diff.push_back("timelineFile");
    if (exp.engineProfileFile != base.engineProfileFile)
        diff.push_back("engineProfileFile");
    return diff;
}

int
knobDelta(const Experiment &exp)
{
    return static_cast<int>(knobDiff(exp).size());
}

ShrinkResult
shrinkExperiment(const Experiment &failing,
                 const FailurePredicate &stillFails, int maxRuns)
{
    const Experiment base = baseExperiment();
    Experiment cur = failing;
    int runs = 0;

    // Accept candidate iff it still fails; never exceed the budget.
    auto accept = [&](const Experiment &cand) {
        if (runs >= maxRuns || cand == cur)
            return false;
        ++runs;
        if (!stillFails(cand))
            return false;
        cur = cand;
        return true;
    };

    bool progress = true;
    while (progress && runs < maxRuns) {
        progress = false;

        // Crash windows: try dropping the whole schedule, then each
        // window individually.
        if (!cur.crashSchedule.empty()) {
            Experiment cand = cur;
            cand.crashSchedule.clear();
            if (accept(cand)) {
                progress = true;
            } else {
                for (std::size_t i = 0;
                     i < cur.crashSchedule.size();) {
                    Experiment drop = cur;
                    drop.crashSchedule.erase(
                        drop.crashSchedule.begin() +
                        static_cast<long>(i));
                    if (accept(drop))
                        progress = true; // cur shrank; retry index i
                    else
                        ++i;
                }
            }
        }

        // Topology: a whole-layer reset removes the most machinery.
        // Failing that, drop the link overrides, shrink the node
        // count toward the 2-node floor (1 is invalid; 0 is the
        // separate "off" reset), then reset/bisect each shape knob.
        if (!(cur.topo == base.topo)) {
            Experiment cand = cur;
            cand.topo = base.topo;
            progress |= accept(cand);
        }
        if (!cur.topo.links.empty()) {
            Experiment cand = cur;
            cand.topo.links.clear();
            if (accept(cand)) {
                progress = true;
            } else {
                for (std::size_t i = 0; i < cur.topo.links.size();) {
                    Experiment drop = cur;
                    drop.topo.links.erase(drop.topo.links.begin() +
                                          static_cast<long>(i));
                    if (accept(drop))
                        progress = true; // cur shrank; retry index i
                    else
                        ++i;
                }
            }
        }
        if (cur.topo.nodes != base.topo.nodes) {
            Experiment cand = cur;
            cand.topo.nodes = base.topo.nodes;
            if (accept(cand)) {
                progress = true;
            } else {
                Experiment two = cur;
                two.topo.nodes = 2;
                if (accept(two)) {
                    progress = true;
                } else {
                    long lo = 2;
                    long hi = cur.topo.nodes;
                    while (runs < maxRuns) {
                        const long mid = lo + (hi - lo) / 2;
                        if (mid == lo || mid == hi)
                            break;
                        Experiment bis = cur;
                        bis.topo.nodes = static_cast<int>(mid);
                        if (accept(bis)) {
                            hi = mid;
                            progress = true;
                        } else {
                            lo = mid;
                        }
                    }
                }
            }
        }
        for (const TopoIntKnob &k : topoIntKnobs) {
            if (cur.topo.*k.field == base.topo.*k.field)
                continue;
            Experiment cand = cur;
            cand.topo.*k.field = base.topo.*k.field;
            if (accept(cand)) {
                progress = true;
                continue;
            }
            long lo = base.topo.*k.field;
            long hi = cur.topo.*k.field;
            while (runs < maxRuns) {
                const long mid = lo + (hi - lo) / 2;
                if (mid == lo || mid == hi)
                    break;
                Experiment bis = cur;
                bis.topo.*k.field = static_cast<int>(mid);
                if (accept(bis)) {
                    hi = mid;
                    progress = true;
                } else {
                    lo = mid;
                }
            }
        }
        for (const TopoDoubleKnob &k : topoDoubleKnobs) {
            if (cur.topo.*k.field == base.topo.*k.field)
                continue;
            Experiment cand = cur;
            cand.topo.*k.field = base.topo.*k.field;
            if (accept(cand)) {
                progress = true;
                continue;
            }
            double lo = base.topo.*k.field;
            double hi = cur.topo.*k.field;
            int steps = 0;
            while (runs < maxRuns && steps++ < 16) {
                double mid = (lo + hi) / 2;
                mid = std::round(mid * 1e6) / 1e6;
                if (mid == lo || mid == hi)
                    break;
                Experiment bis = cur;
                bis.topo.*k.field = mid;
                if (accept(bis)) {
                    hi = mid;
                    progress = true;
                } else {
                    lo = mid;
                }
            }
        }

        if (cur.arch != base.arch) {
            Experiment cand = cur;
            cand.arch = base.arch;
            progress |= accept(cand);
        }
        for (const BoolKnob &k : boolKnobs) {
            if (cur.*k.field == base.*k.field)
                continue;
            Experiment cand = cur;
            cand.*k.field = base.*k.field;
            progress |= accept(cand);
        }
        if (cur.seed != base.seed) {
            Experiment cand = cur;
            cand.seed = base.seed;
            progress |= accept(cand);
        }
        if (cur.traceFile != base.traceFile) {
            Experiment cand = cur;
            cand.traceFile = base.traceFile;
            progress |= accept(cand);
        }
        if (cur.metricsFile != base.metricsFile) {
            Experiment cand = cur;
            cand.metricsFile = base.metricsFile;
            progress |= accept(cand);
        }

        for (const IntKnob &k : intKnobs) {
            if (cur.*k.field == base.*k.field)
                continue;
            Experiment cand = cur;
            cand.*k.field = base.*k.field;
            if (accept(cand)) {
                progress = true;
                continue;
            }
            // Bisect for the failing value closest to the base.
            long lo = base.*k.field; // passes (reset just failed to fail)
            long hi = cur.*k.field;  // fails
            while (runs < maxRuns) {
                const long mid = lo + (hi - lo) / 2;
                if (mid == lo || mid == hi)
                    break;
                Experiment bis = cur;
                bis.*k.field = static_cast<int>(mid);
                if (accept(bis)) {
                    hi = mid;
                    progress = true;
                } else {
                    lo = mid;
                }
            }
        }

        for (const DoubleKnob &k : doubleKnobs) {
            if (cur.*k.field == base.*k.field)
                continue;
            Experiment cand = cur;
            cand.*k.field = base.*k.field;
            if (accept(cand)) {
                progress = true;
                continue;
            }
            double lo = base.*k.field;
            double hi = cur.*k.field;
            int steps = 0;
            while (runs < maxRuns && steps++ < 16) {
                // Round the midpoint so shrunk repros stay readable.
                double mid = (lo + hi) / 2;
                mid = std::round(mid * 1e6) / 1e6;
                if (mid == lo || mid == hi)
                    break;
                Experiment bis = cur;
                bis.*k.field = mid;
                if (accept(bis)) {
                    hi = mid;
                    progress = true;
                } else {
                    lo = mid;
                }
            }
        }
    }

    ShrinkResult res;
    res.minimal = cur;
    res.knobsChanged = knobDelta(cur);
    res.runsUsed = runs;
    return res;
}

} // namespace hsipc::sim::check
