/**
 * @file
 * Steady-state solver for finite discrete Markov chains with
 * deterministic sojourn times (the chain embedded at GTPN state-change
 * instants).
 *
 * The solver runs Gauss-Seidel sweeps on pi (I - P) = 0 over a sparse
 * incoming-edge representation, visiting states in reverse discovery
 * order: self-loops are held apart, and each state takes its
 * off-diagonal inflow divided by 1 - p_jj.  Absorbing states
 * (p_jj = 1) take the power step instead, so a transient chain still
 * drains into them.  Each sweep's output is normalised.
 *
 * The sweeps are Anderson-accelerated (Walker & Ni, SIAM J. Numer.
 * Anal. 2011).  The solver keeps the outputs and residuals (output
 * minus input) of the last 6 sweeps; every 4 sweeps the next sweep
 * starts from the combination of those outputs, with weights summing
 * to 1, whose combined residual is least.  The weights come from the
 * regularised normal equations of the residuals.  Negative entries of
 * a combination are clipped to 0 and the rest renormalised, and the
 * history is dropped when the small system is singular or its answer
 * not finite.  A combination only moves where the next sweep starts:
 * convergence is declared on the relative change of pi over one plain
 * sweep, and the returned pi is that sweep's output.  The history
 * holds 2 * 6 * n doubles for the length of one solve.
 *
 * Damping (off by default) mixes the previous iterate into each
 * update inside the sweep.  The chains analyze() builds converge
 * without it; it is there for chains on which the plain sweep cycles,
 * such as a ring whose states hold unequal self-loops.
 */

#ifndef HSIPC_GTPN_MARKOV_HH
#define HSIPC_GTPN_MARKOV_HH

#include <cstddef>
#include <vector>

namespace hsipc::gtpn
{

/** Options controlling the stationary solve. */
struct SolveOptions
{
    double tolerance = 1e-10;   //!< max relative change of pi per sweep
    int maxSweeps = 200000;     //!< hard cap on sweeps
    double damping = 0.0;       //!< weight of the previous iterate, in [0, 1)
    int checkInterval = 16;     //!< sweeps between convergence checks
};

/** Result of a stationary solve. */
struct SolveResult
{
    std::vector<double> piEmbedded; //!< stationary of the embedded chain
    std::vector<double> piTime;     //!< sojourn-weighted (time) stationary
    bool converged = false;
    int sweeps = 0;
};

/**
 * A sparse Markov chain under construction.  States are dense indices
 * 0..n-1; edges carry transition probabilities; every state has a
 * deterministic sojourn time.
 */
class MarkovChain
{
  public:
    /** Ensure the chain has at least @p n states. */
    void resize(std::size_t n);

    std::size_t numStates() const { return sojourns.size(); }

    /** Add probability mass @p prob to the edge from -> to. */
    void addEdge(std::size_t from, std::size_t to, double prob);

    /**
     * Replace the probability of edge @p pos into @p to: the one the
     * (pos + 1)-th addEdge() naming @p to added.  It keeps its place
     * among @p to's edges, so solve() sums them in the same order.
     */
    void setEdgeProb(std::size_t to, std::size_t pos, double prob);

    /** Set the deterministic sojourn time of @p state. */
    void setSojourn(std::size_t state, double t);

    /** An edge into a state: its source and probability. */
    struct Edge
    {
        std::size_t src;
        double prob;
    };

    /** The edges into @p to, in addEdge() order. */
    const std::vector<Edge> &
    edgesInto(std::size_t to) const
    {
        return incoming[to];
    }

    double sojourn(std::size_t state) const { return sojourns[state]; }

    /**
     * Solve for the stationary distribution.  Rows must each sum to 1
     * (within numerical tolerance); the chain should have a single
     * recurrent class reachable from every state.
     */
    SolveResult solve(const SolveOptions &opts = SolveOptions()) const;

  private:
    /** Incoming edges per destination state. */
    std::vector<std::vector<Edge>> incoming;
    std::vector<double> sojourns;
};

} // namespace hsipc::gtpn

#endif // HSIPC_GTPN_MARKOV_HH
