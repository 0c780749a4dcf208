/**
 * @file
 * Solutions of the chapter-6 performance models.
 *
 * solveLocal() analyzes the single-node local-conversation net.
 * solveNonlocal() runs the iterative two-node procedure of §6.6.3:
 * the client-node model is solved with the current estimate of the
 * server delay S_d; Little's law converts its throughput into the
 * client busy time C_d; the server-node model solved with C_d yields
 * (via the customers-in-system Queue place and Little's law again) a
 * new S_d; iteration continues until S_d is stationary.  Each node's
 * net is built and explored once per time scale; later iterations move
 * its surrogate stage and re-solve it (gtpn::StateSpace), with the
 * same bits as a fresh build.
 */

#ifndef HSIPC_MODELS_SOLUTION_HH
#define HSIPC_MODELS_SOLUTION_HH

#include <cstddef>

#include "core/gtpn/analyzer.hh"
#include "core/models/nonlocal_model.hh"
#include "core/models/processing_times.hh"

namespace hsipc::models
{

/** Options shared by the model solutions. */
struct SolveConfig
{
    /**
     * Microseconds per model time unit; 0 selects automatically so
     * the smallest stage keeps at least ~20 time units of resolution.
     */
    double timeScale = 0.0;

    /** Exact-analysis options. */
    gtpn::AnalyzerOptions analyzer;

    /** Fixed-point iteration limit (non-local only). */
    int maxIterations = 60;

    /** Relative S_d change declaring convergence (non-local only). */
    double tolerance = 1e-3;
};

/**
 * The automatic time scale of the local model of @p p with compute
 * time @p computeTime: microseconds per model time unit, keeping at
 * least 20 units in the smallest stage mean.
 */
double localTimeScale(const LocalParams &p, double computeTime);

/** Result of a local-conversation solve. */
struct LocalSolution
{
    double throughputPerUs = 0.0; //!< round trips per microsecond
    std::size_t states = 0;
    bool converged = false;
};

/** Result of the non-local fixed point. */
struct NonlocalSolution
{
    double throughputPerUs = 0.0; //!< round trips per microsecond
    double serverDelay = 0.0;     //!< converged S_d, microseconds
    double clientBusy = 0.0;      //!< converged C_d', microseconds
    int iterations = 0;
    bool converged = false;
    std::size_t clientStates = 0;
    std::size_t serverStates = 0;
};

/** Solve the local model of @p arch. */
LocalSolution solveLocal(Arch arch, int conversations, double computeTime,
                         const SolveConfig &cfg = SolveConfig());

/**
 * Local model with explicit parameters and host count — used for the
 * chapter-7 shared-memory-multiprocessor extension (several hosts per
 * node served by one MP) and for MP-speed ablations.
 */
LocalSolution solveLocalCustom(const LocalParams &params,
                               int conversations, double computeTime,
                               int hostTokens,
                               const SolveConfig &cfg = SolveConfig());

/** Solve the non-local two-node fixed point for @p arch. */
NonlocalSolution solveNonlocal(Arch arch, int conversations,
                               double computeTime,
                               const SolveConfig &cfg = SolveConfig());

/**
 * Non-local fixed point with explicit parameters, used for the
 * validation configuration of §6.8 (two host processors per node and
 * the extra network-buffer copy folded into the MP stage means).
 */
NonlocalSolution solveNonlocalCustom(const NonlocalClientParams &cp,
                                     const NonlocalServerParams &sp,
                                     int conversations, double computeTime,
                                     int hostTokens,
                                     const SolveConfig &cfg = SolveConfig());

/**
 * The validation-configuration parameters (§6.8): architecture II with
 * an additional 40-byte copy (220 us of M68000 processing) on every
 * network-buffer crossing.
 */
NonlocalClientParams validationClientParams();
NonlocalServerParams validationServerParams();

} // namespace hsipc::models

#endif // HSIPC_MODELS_SOLUTION_HH
