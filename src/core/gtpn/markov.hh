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
 * drains into them.  Convergence is declared on the relative change
 * of the stationary vector over one sweep.
 *
 * Damping (off by default) mixes the previous iterate into each
 * update.  The chains analyze() builds converge without it; it is
 * there for chains on which the plain sweep cycles, such as a ring
 * whose states hold unequal self-loops.
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
    int maxSweeps = 200000;     //!< hard iteration cap
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
