/**
 * @file
 * Exact GTPN analyzer: builds the reachability graph of tangible
 * states, solves the embedded Markov chain, and reports time-averaged
 * resource usages and transition firing rates.
 *
 * This mirrors the analyzer the thesis used ("takes a description of
 * the petri net, builds the reachable states for the net, solves the
 * embedded Markov process, and gives exact estimates for resource
 * usage", §6.5).
 *
 * The analysis has two steps.  Exploring finds the tangible states in
 * discovery order, with each state's sojourn and its successors;
 * weighing puts each successor's probability on a chain edge and
 * solves.  analyze() does both once and keeps nothing.  A StateSpace
 * keeps the exploration, so a net whose frequencies move between
 * solves (the surrogate stages of the §6.6.3 fixed point) is explored
 * once and re-weighed in part.
 */

#ifndef HSIPC_GTPN_ANALYZER_HH
#define HSIPC_GTPN_ANALYZER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/gtpn/markov.hh"
#include "core/gtpn/net.hh"
#include "core/gtpn/tokengame.hh"

namespace hsipc::gtpn
{

/** Options for the analyzer. */
struct AnalyzerOptions
{
    std::size_t maxStates = 2000000; //!< reachability-graph size cap
    SolveOptions solve;              //!< Markov solve parameters
};

/** Results of an exact GTPN analysis. */
struct AnalyzerResult
{
    std::size_t numStates = 0;
    bool converged = false;
    bool deadlock = false; //!< some reachable state had no successor
    int sweeps = 0;

    /** Time-averaged number of simultaneous firings per resource. */
    std::map<std::string, double> resourceUsage;

    /**
     * Completions of each timed transition per unit model time.  A
     * completion is counted as a tangible state is left, so a
     * transition of delay 0, which fires within the selection phase,
     * reads 0 however often it fires.
     */
    std::vector<double> firingRate;

    /**
     * Time-averaged token count per place (residual marking only;
     * tokens held by in-flight firings are not counted, so use
     * dedicated bookkeeping places — as the thesis does with its
     * "Queue" place — when measuring customers in a subsystem).
     */
    std::vector<double> placeOccupancy;

    /** Usage of a named resource (0 when the name never appears). */
    double
    usage(const std::string &name) const
    {
        auto it = resourceUsage.find(name);
        return it == resourceUsage.end() ? 0.0 : it->second;
    }
};

/** Exact steady-state analysis of @p net. */
AnalyzerResult analyze(const PetriNet &net,
                       const AnalyzerOptions &opts = AnalyzerOptions());

class Exploration;

/**
 * The explored state space of one net, solved again after its
 * frequencies change.
 *
 * Exploring records, for each post-advance state, the transitions its
 * expansion evaluated (FiringExpander::recordEvaluated(): every
 * transition whose inputs some selection step satisfied, including
 * those whose frequency came out 0).  solve() then asks the net which
 * transitions' frequencies were replaced since the last solve and
 * re-expands only the post-advance states that evaluated one of them,
 * plus the initial marking's expansion if it did.  Each re-expansion
 * must yield its recorded successor states, in order; its
 * probabilities then overwrite the old ones on the chain edges the
 * original addEdge() calls made, in place, and the chain is solved.
 *
 * That is bit-identical to analyze() of the edited net.  A skipped
 * expansion reads the same marking, the same counts and the same Expr
 * objects as when it was recorded, so it would yield the same
 * outcomes with the same probability bits.  With every expansion's
 * outcomes unchanged, a fresh exploration would discover the same
 * states in the same order and make the same addEdge() calls, so the
 * chain's edge lists, and the self-loop sums and pi the solve takes
 * from them, come out the same.
 *
 * solve() explores afresh when a re-expansion yields other states (a
 * frequency reached or left 0, say) and after any edit other than a
 * frequency (PetriNet::shapeRevision()).  The net must outlive the
 * state space at the same address.
 */
class StateSpace
{
  public:
    /** Explore @p net. */
    explicit StateSpace(const PetriNet &net,
                        const AnalyzerOptions &opts = AnalyzerOptions());
    ~StateSpace();

    StateSpace(const StateSpace &) = delete;
    StateSpace &operator=(const StateSpace &) = delete;

    /** Weigh the net as it is now and solve; see the class comment. */
    AnalyzerResult solve();

    /** Explorations so far: 1 after construction, +1 per fallback. */
    int explorations() const { return explored; }

    /** Post-advance states the last solve() re-expanded. */
    std::size_t reexpanded() const { return lastReexpanded; }

    /** The chain as the last solve() weighed it. */
    const MarkovChain &chain() const;

  private:
    void explore();
    bool reweigh();

    const PetriNet &net;
    AnalyzerOptions opts;
    std::unique_ptr<Exploration> graph;
    std::uint64_t seen = 0; //!< net.revision() the graph is weighed at
    int explored = 0;
    std::size_t lastReexpanded = 0;
};

} // namespace hsipc::gtpn

#endif // HSIPC_GTPN_ANALYZER_HH
