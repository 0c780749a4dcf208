/**
 * @file
 * The benchmark's four workloads: what each pass runs, built
 * deterministically from the workload seed.
 *
 * A pass is one fixed batch of cells.  A DES cell is one
 * sim::Experiment; a model cell is one chapter-6 model solve (a local
 * GTPN analysis or a non-local fixed point).  Cell seeds derive from
 * (workload seed, cell index), so the same seed gives the same inputs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/models/processing_times.hh"
#include "sim/kernel/ipc_sim.hh"

namespace perfbench
{

enum class Workload { Validation, Fleet, Overload, ModelSolve };

/** Parse a workload name; nullopt when unknown. */
std::optional<Workload> parseWorkload(const std::string &name);

const char *workloadName(Workload w);

/** True for the workloads that run the simulator. */
inline bool
isDes(Workload w)
{
    return w != Workload::ModelSolve;
}

/** One chapter-6 model solve, in the solve*Custom parameter form. */
struct ModelCell
{
    std::string label;
    bool local = false;
    hsipc::models::LocalParams lp{};
    hsipc::models::NonlocalClientParams cp{};
    hsipc::models::NonlocalServerParams sp{};
    int conversations = 1;
    double computeUs = 0;
    int hostTokens = 1;
};

/** The default seed: the one the committed reference pins. */
constexpr std::uint64_t kDefaultSeed = 1;

/** The experiments of one DES pass (empty for model_solve). */
std::vector<hsipc::sim::Experiment> desCells(Workload w,
                                             std::uint64_t seed);

/** The solves of one model_solve pass. */
std::vector<ModelCell> modelCells();

/**
 * The Fig 6.15 model column, one cell per validation DES cell in the
 * same order: the reference's source for model_sim_gap_pct.
 */
std::vector<ModelCell> validationModelColumn();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
