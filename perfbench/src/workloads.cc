#include "workloads.hh"

#include "common/parallel/parallel.hh"
#include "core/models/solution.hh"

namespace perfbench
{

using namespace hsipc;
using models::Arch;

namespace
{

// Fig 6.15's server computation times X, microseconds.
const std::vector<double> kValidationX = {0, 1140, 2850, 5700, 11400};

/**
 * The Fig 6.15 grid: Arch II non-local, two hosts per node, the extra
 * network-buffer copy, 1-4 conversations x five server times — the
 * experiments of bench/fig6_15_validation.cc.
 */
std::vector<sim::Experiment>
validation()
{
    std::vector<sim::Experiment> exps;
    for (int n = 1; n <= 4; ++n) {
        for (double x : kValidationX) {
            sim::Experiment e;
            e.arch = Arch::II;
            e.local = false;
            e.conversations = n;
            e.computeUs = x;
            e.hostsPerNode = 2;
            e.extraCopy = true;
            e.measureUs = 3000000;
            exps.push_back(e);
        }
    }
    return exps;
}

/**
 * bench/beyond_fleet.cc's two largest sizes: Arch III, one
 * conversation per node, round-robin neighbours, mesh and switch.
 * Half the bench's window keeps a pass near the validation pass.
 */
std::vector<sim::Experiment>
fleet()
{
    std::vector<sim::Experiment> exps;
    for (int n : {16, 32}) {
        for (int kind : {0, 1}) {
            sim::Experiment e;
            e.arch = Arch::III;
            e.local = false;
            e.conversations = n;
            e.computeUs = 1710;
            e.topo.nodes = n;
            e.topo.kind = kind;
            e.topo.linkLatencyUs = 50;
            e.topo.switchLatencyUs = 20;
            e.topo.placement = 1;
            e.measureUs = 750000;
            exps.push_back(e);
        }
    }
    return exps;
}

/**
 * bench/beyond_overload.cc's past-the-knee rate (about twice each
 * architecture's capacity), unguarded and guarded, over a lossy
 * medium so the reliable channel's acks, timers and retransmissions
 * run.  A longer window than the bench's gives the pass enough work
 * to time.
 */
std::vector<sim::Experiment>
overload()
{
    std::vector<sim::Experiment> exps;
    for (Arch a : {Arch::I, Arch::II, Arch::III, Arch::IV}) {
        for (bool guarded : {false, true}) {
            sim::Experiment e;
            e.arch = a;
            e.local = false;
            e.conversations = 2;
            e.computeUs = 6000;
            e.kernelBuffers = 64;
            e.warmupUs = 20000;
            e.measureUs = 4000000;
            e.arrivalMode = 1;
            e.arrivalRatePerSec = a == Arch::I ? 150 : 250;
            e.deadlineUs = 40000;
            e.lossRate = 0.01;
            if (guarded) {
                e.svcQueueCap = 2;
                e.shedPolicy = 2; // deadline-aware
            }
            exps.push_back(e);
        }
    }
    return exps;
}

ModelCell
nonlocalCell(std::string label, models::NonlocalClientParams cp,
             models::NonlocalServerParams sp, int n, double x, int hosts)
{
    ModelCell c;
    c.label = std::move(label);
    c.cp = cp;
    c.sp = sp;
    c.conversations = n;
    c.computeUs = x;
    c.hostTokens = hosts;
    return c;
}

ModelCell
validationCell(int n, double x)
{
    return nonlocalCell("fig6.15 n=" + std::to_string(n) +
                            " X=" + std::to_string(int(x)),
                        models::validationClientParams(),
                        models::validationServerParams(), n, x, 2);
}

} // namespace

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload w : {Workload::Validation, Workload::Fleet,
                       Workload::Overload, Workload::ModelSolve}) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::Validation: return "validation";
    case Workload::Fleet: return "fleet";
    case Workload::Overload: return "overload";
    case Workload::ModelSolve: return "model_solve";
    }
    return "?";
}

std::vector<sim::Experiment>
desCells(Workload w, std::uint64_t seed)
{
    std::vector<sim::Experiment> exps;
    switch (w) {
    case Workload::Validation: exps = validation(); break;
    case Workload::Fleet: exps = fleet(); break;
    case Workload::Overload: exps = overload(); break;
    case Workload::ModelSolve: break;
    }
    for (std::size_t i = 0; i < exps.size(); ++i)
        exps[i].seed = parallel::deriveSeed(seed, i);
    return exps;
}

/**
 * The validation fixed points at n = 3 and 4 (mid-grid X), then the
 * Fig 6.18 local and Fig 6.19 non-local n = 4 cells of Arch I/II/III
 * at X = 1.71 ms.  The n = 4 cells hold the largest chains: 835/1291
 * states per validation iteration, 6336 states for the local Arch
 * II/III nets.
 */
std::vector<ModelCell>
modelCells()
{
    constexpr double kFigX = 1710;
    std::vector<ModelCell> cells;
    cells.push_back(validationCell(3, 2850));
    cells.push_back(validationCell(4, 2850));
    for (Arch a : {Arch::I, Arch::II, Arch::III}) {
        ModelCell c;
        c.label = "fig6.18 local " + models::archName(a) + " n=4";
        c.local = true;
        c.lp = models::localParams(a);
        c.conversations = 4;
        c.computeUs = kFigX;
        cells.push_back(c);
    }
    for (Arch a : {Arch::I, Arch::II, Arch::III}) {
        cells.push_back(nonlocalCell(
            "fig6.19 non-local " + models::archName(a) + " n=4",
            models::nonlocalClientParams(a),
            models::nonlocalServerParams(a), 4, kFigX, 1));
    }
    return cells;
}

std::vector<ModelCell>
validationModelColumn()
{
    std::vector<ModelCell> cells;
    for (int n = 1; n <= 4; ++n) {
        for (double x : kValidationX)
            cells.push_back(validationCell(n, x));
    }
    return cells;
}

} // namespace perfbench
