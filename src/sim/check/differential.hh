/**
 * @file
 * Differential validation: three independent engines, one workload.
 *
 * For fault-free local-conversation configurations the repository has
 * three ways to predict steady-state throughput that share no code
 * beyond the per-architecture stage means: the discrete-event
 * simulator (sim/kernel), the exact GTPN solution (reachability graph
 * + embedded Markov chain, core/models/solution.hh), and exact Mean
 * Value Analysis of the product-form network (core/models/mva.hh).
 * Where all three are applicable they must agree within stated
 * tolerances; a fuzz draw that lands in the eligible subset is
 * cross-checked automatically.
 *
 * The tolerances are asymmetric by construction.  The GTPN and the
 * simulator model the same rendezvous semantics, but the GTPN assumes
 * processor sharing where the simulator binds tasks to hosts and
 * runs geometric stage times against the model's deterministic-ish
 * mix — the §6.5/§6.8 validation precedent accepts ~12% there.  MVA
 * additionally assumes independent product-form stations, so it gets
 * a wider band.  The bottleneck cross-check only fires when both
 * sides are decisive (shares clearly separated); near crossover the
 * engines may legitimately disagree on which processor saturates
 * first.
 */

#ifndef HSIPC_SIM_CHECK_DIFFERENTIAL_HH
#define HSIPC_SIM_CHECK_DIFFERENTIAL_HH

#include <vector>

#include "sim/check/invariants.hh"

namespace hsipc::sim::check
{

/** Eligibility bounds and agreement tolerances. */
struct DifferentialOptions
{
    /**
     * Relative DES-vs-exact-GTPN throughput tolerance.  Empirically
     * the ratio ranges over ~[0.84, 1.17] on a grid spanning the
     * eligible space (worst at N=3 with large compute, where the
     * GTPN's processor sharing beats the simulator's static task
     * binding — the §6.8 effect); 0.25 leaves headroom over that
     * structural gap while still catching anything resembling a 2x
     * accounting error.
     */
    double gtpnRelTolerance = 0.25;

    /**
     * Relative DES-vs-MVA throughput tolerance — slightly wider: MVA
     * additionally assumes independent product-form stations
     * (observed ratio range ~[0.85, 1.20]).
     */
    double mvaRelTolerance = 0.30;

    /**
     * Horizon override for the comparison run: the fuzzing horizons
     * (tens of simulated ms) are too short for steady state, so the
     * differential re-runs the config with these windows.
     */
    double warmupUs = 20000;
    double measureUs = 400000;

    /**
     * Eligible-subset bounds; beyond them the exact solvers' state
     * spaces grow or the workload leaves the models' assumptions.
     */
    int maxConversations = 3;
    double maxComputeUs = 4000;

    /**
     * The bottleneck cross-check fires only when both engines are
     * decisive: the larger share exceeds the smaller by this factor
     * on both the model and the trace side.
     */
    double decisiveRatio = 1.3;
};

/**
 * True when @p exp is in the subset all three engines can model:
 * one node (effectiveTopology), one host at unit MP speed, no
 * extra copy, fault-free with the protocol off, and small enough for
 * the exact solvers.
 */
bool differentialEligible(const Experiment &exp,
                          const DifferentialOptions &opts =
                              DifferentialOptions());

/**
 * Run the three engines on @p exp (must be eligible) and return the
 * disagreements as violations ("differential.gtpn",
 * "differential.mva", "differential.bottleneck"), empty when all
 * agree.
 */
std::vector<Violation>
differentialCheck(const Experiment &exp,
                  const DifferentialOptions &opts =
                      DifferentialOptions());

} // namespace hsipc::sim::check

#endif // HSIPC_SIM_CHECK_DIFFERENTIAL_HH
