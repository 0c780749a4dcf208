/**
 * @file
 * The model layers timed from outside: the chapter-6 solves through
 * their public entry points, and a traced re-drive that splits the
 * same work into net construction, reachability and stationary solve.
 *
 * The traced re-drive mirrors models::solveLocalCustom /
 * solveNonlocalCustom step for step using only public API
 * (build*Model, gtpn::analyze), and re-runs every analysis through
 * the public token-game and Markov-chain API (enumerateFirings,
 * advanceTime, MarkovChain) to time reachability and solve apart.
 * Both re-drives are checked against the library's own results, so
 * the split describes exactly the work the untraced pass does.
 */

#ifndef PERFBENCH_MODEL_TRACE_HH
#define PERFBENCH_MODEL_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench
{

/** What one model solve produced. */
struct ModelResult
{
    double throughputPerUs = 0;
    bool converged = false;
};

/** Solve @p c through models::solve{Local,Nonlocal}Custom. */
ModelResult solveCell(const ModelCell &c);

/** Per-layer ledger of traced model solves (sums over cells). */
struct ModelLedger
{
    std::uint64_t analyzeCalls = 0;
    std::uint64_t states = 0;
    std::uint64_t edges = 0;
    std::uint64_t sweeps = 0;
    double edgeSweeps = 0; //!< sum over analyses of edges x sweeps
    double reachNs = 0;    //!< re-driven reachability enumeration
    double solveNs = 0;    //!< re-driven MarkovChain::solve
    double analyzeNs = 0;  //!< gtpn::analyze itself
    double buildNs = 0;    //!< build*Model net construction
    std::uint64_t fixedPointIters = 0;
    //! Disagreements between a re-drive and the library (empty = none).
    std::vector<std::string> mismatches;
};

/**
 * Relative tolerance on a model throughput, from the solvers' own
 * stopping rules: a local cell is one GTPN stationary solve, a
 * non-local cell a fixed point stopped on a relative S_d change.
 */
double modelTolerance(const ModelCell &c);

/** Re-drive @p c with every layer timed; fills @p led. */
ModelResult traceCell(const ModelCell &c, ModelLedger &led);

/**
 * Build the first GTPN net @p c's solve analyzes (the local net, or
 * the client-node net at the initial server-delay estimate) — the
 * per-cell set-up cost of a model solve.
 */
void buildFirstNet(const ModelCell &c);

} // namespace perfbench

#endif // PERFBENCH_MODEL_TRACE_HH
