/**
 * @file
 * Failing-configuration minimization (QuickCheck-style shrinking).
 *
 * A fuzz failure usually arrives wearing a dozen knobs it does not
 * need.  shrinkExperiment() greedily simplifies a failing Experiment
 * toward baseExperiment(): every pass walks the knob table
 * (sim/check/knobs.hh) and tries to reset each knob to its base
 * value outright, and for numeric knobs that refuse, bisects between
 * the base value and the current one for the closest-to-base value
 * that still fails.  Crash schedules and topology links shrink by
 * dropping entries.  The order is fixed: crash windows, the topology
 * (whole, links, then its ints and doubles), then the rest kind by
 * kind — arch, bools, seed, strings, ints, doubles — each kind in
 * table order.  A candidate is accepted only
 * when the caller's predicate confirms it still fails, so the result
 * — while not globally minimal (greedy, single-knob moves) — is a
 * locally minimal repro: resetting any single knob further makes the
 * failure vanish.
 *
 * The predicate decides what "still fails" means; passing "same
 * invariant id as the original failure" keeps the shrink anchored to
 * one bug instead of hill-climbing onto a different one.
 */

#ifndef HSIPC_SIM_CHECK_SHRINK_HH
#define HSIPC_SIM_CHECK_SHRINK_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/kernel/ipc_sim.hh"

namespace hsipc::sim::check
{

/** True when the candidate still exhibits the failure of interest. */
using FailurePredicate = std::function<bool(const Experiment &)>;

/** Names of the knobs on which @p exp differs from baseExperiment(). */
std::vector<std::string> knobDiff(const Experiment &exp);

/** How many knobs differ from baseExperiment(). */
int knobDelta(const Experiment &exp);

/** Outcome of a shrink. */
struct ShrinkResult
{
    Experiment minimal;
    int knobsChanged = 0; //!< knobDelta(minimal)
    int runsUsed = 0;     //!< predicate evaluations spent
};

/**
 * Minimize @p failing (for which @p stillFails must hold) using at
 * most @p maxRuns predicate evaluations.
 */
ShrinkResult shrinkExperiment(const Experiment &failing,
                              const FailurePredicate &stillFails,
                              int maxRuns = 400);

} // namespace hsipc::sim::check

#endif // HSIPC_SIM_CHECK_SHRINK_HH
