#include "core/gtpn/markov.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.hh"

namespace hsipc::gtpn
{

void
MarkovChain::resize(std::size_t n)
{
    if (n > sojourns.size()) {
        incoming.resize(n);
        sojourns.resize(n, 1.0);
    }
}

void
MarkovChain::addEdge(std::size_t from, std::size_t to, double prob)
{
    hsipc_assert(prob >= 0.0 && prob <= 1.0 + 1e-12);
    resize(std::max(from, to) + 1);
    incoming[to].push_back(Edge{from, prob});
}

void
MarkovChain::setEdgeProb(std::size_t to, std::size_t pos, double prob)
{
    hsipc_assert(prob >= 0.0 && prob <= 1.0 + 1e-12);
    hsipc_assert(to < incoming.size() && pos < incoming[to].size());
    incoming[to][pos].prob = prob;
}

void
MarkovChain::setSojourn(std::size_t state, double t)
{
    hsipc_assert(t > 0.0);
    resize(state + 1);
    sojourns[state] = t;
}

namespace
{

/** S: sweeps between combinations of the history. */
constexpr int combinePeriod = 4;

/**
 * Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011) of
 * the map x -> g(x), one sweep and its normalisation.  The history
 * holds the outputs g_a and residuals f_a = g_a - x_a of the last M
 * sweeps; their combination is sum_a w_a g_a, with the weights
 * (summing to 1) that make |sum_a w_a f_a| least.  Both are kept per
 * state, M to a row, so recording a sweep and combining the history
 * each stream one row of each per state.
 */
class SweepHistory
{
  public:
    /** M: the sweep outputs a combination draws on. */
    static constexpr int depth = 6;

    /** A history for @p n states, whose first sweep starts at @p pi. */
    SweepHistory(std::size_t n, const std::vector<double> &pi)
        : n(n), resid(n * depth, 0.0), outs(n * depth, 0.0)
    {
        // The first sweep's input waits in the slot it will fill.
        for (std::size_t j = 0; j < n; ++j)
            outs[j * depth + slot] = pi[j];
    }

    /**
     * Normalise the swept @p pi by @p inv and record it.  Returns the
     * largest relative change of a pi(j) over the sweep when @p check
     * is set, 0 otherwise.
     */
    double
    record(std::vector<double> &pi, double inv, bool check)
    {
        double dot[depth] = {};
        const double worst = check ? pass<true>(pi.data(), inv, dot)
                                   : pass<false>(pi.data(), inv, dot);
        for (int a = 0; a < depth; ++a)
            gram[slot][a] = gram[a][slot] = dot[a];
        inputSlot = slot;
        inputScale = 1.0;
        slot = (slot + 1) % depth;
        filled = std::min(filled + 1, depth);
        return worst;
    }

    /**
     * Overwrite @p pi with the least-residual combination of the
     * history, its negative entries clipped to 0.  The next sweep
     * starts from it, renormalised.  When the small system is
     * singular or its answer is not finite, drop the history and
     * leave @p pi alone.
     */
    void
    combine(std::vector<double> &pi)
    {
        double w[depth] = {};
        if (filled < 2)
            return;
        if (!weights(w)) {
            filled = 0;
            return;
        }
        // Slots not filled weigh 0.  The combination waits in the
        // slot the next sweep fills, whose output (the oldest) has
        // just been read for the last time.  The sweep is linear, so
        // it may start from the combination unnormalised; the
        // residual it records takes the combination times inputScale.
        double sum = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            double *g = &outs[j * depth];
            double x = 0.0;
#pragma GCC unroll 8
            for (int a = 0; a < depth; ++a)
                x += w[a] * g[a];
            x = std::max(x, 0.0);
            g[slot] = x;
            pi[j] = x;
            sum += x;
        }
        // Before clipping the entries sum to sum_a w_a = 1.
        hsipc_assert(sum > 0.0);
        inputSlot = slot;
        inputScale = 1.0 / sum;
    }

  private:
    /** record()'s pass over the states; see there. */
    template <bool Check>
    double
    pass(double *pi, double inv, double (&dot)[depth])
    {
        // The products run over every slot, filled or not, so the
        // inner loop has a fixed length and unrolls into vector
        // operations; only filled slots are read.  The new residual's
        // own slot still holds the old one, so its square is summed
        // apart.
        const int s = slot;
        const int in = inputSlot;
        const double scale = inputScale;
        double acc[depth] = {};
        double ff = 0.0;
        double worst = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            double *g = &outs[j * depth];
            double *r = &resid[j * depth];
            const double v = pi[j] * inv;
            const double f = v - g[in] * scale;
            pi[j] = v;
            g[s] = v;
#pragma GCC unroll 8
            for (int a = 0; a < depth; ++a)
                acc[a] += f * r[a];
            ff += f * f;
            r[s] = f;
            if constexpr (Check)
                worst = std::max(worst, std::abs(f) / std::max(v, 1e-300));
        }
        for (int a = 0; a < depth; ++a)
            dot[a] = acc[a];
        dot[s] = ff;
        return worst;
    }

    /**
     * The weights of the filled slots (0 elsewhere): y from the
     * regularised normal equations (F^T F + lambda I) y = 1 by
     * Cholesky, w = y / sum(y).  False when a pivot is not positive
     * (all residuals 0, say) or the answer is not finite.
     */
    bool
    weights(double (&w)[depth]) const
    {
        int slots[depth];
        double scale = 0.0;
        for (int k = 0; k < filled; ++k) {
            slots[k] = (slot - 1 - k + 2 * depth) % depth;
            scale = std::max(scale, gram[slots[k]][slots[k]]);
        }
        const double lambda = 1e-12 * scale;
        double l[depth][depth] = {};
        for (int r = 0; r < filled; ++r) {
            for (int c = 0; c <= r; ++c) {
                double v = gram[slots[r]][slots[c]] + (r == c ? lambda : 0.0);
                for (int k = 0; k < c; ++k)
                    v -= l[r][k] * l[c][k];
                if (r != c)
                    l[r][c] = v / l[c][c];
                else if (v > 0.0)
                    l[r][r] = std::sqrt(v);
                else
                    return false;
            }
        }
        double y[depth];
        for (int r = 0; r < filled; ++r) {
            double v = 1.0;
            for (int k = 0; k < r; ++k)
                v -= l[r][k] * y[k];
            y[r] = v / l[r][r];
        }
        double total = 0.0;
        for (int r = filled; r-- > 0;) {
            for (int k = r + 1; k < filled; ++k)
                y[r] -= l[k][r] * y[k];
            y[r] /= l[r][r];
            total += y[r];
        }
        if (!(total > 0.0) || !std::isfinite(total))
            return false;
        for (int k = 0; k < filled; ++k)
            w[slots[k]] = y[k] / total;
        return true;
    }

    const std::size_t n;
    std::vector<double> resid; //!< f_a(j) at [j * depth + a]
    std::vector<double> outs;  //!< g_a(j) at [j * depth + a]
    double gram[depth][depth] = {}; //!< f_a . f_b
    int slot = 0;           //!< the slot the next sweep fills
    int filled = 0;         //!< slots recorded since the last reset
    int inputSlot = 0;      //!< where the next sweep's input waits
    double inputScale = 1.0; //!< what that input is scaled by
};

} // namespace

SolveResult
MarkovChain::solve(const SolveOptions &opts) const
{
    hsipc_assert(opts.maxSweeps >= 1);
    hsipc_assert(opts.checkInterval >= 1);
    hsipc_assert(opts.tolerance > 0.0);
    hsipc_assert(opts.damping >= 0.0 && opts.damping < 1.0);

    const std::size_t n = numStates();
    hsipc_assert(n > 0);
    // Summed here rather than as edges are added, since setEdgeProb()
    // may have replaced any edge since.
    std::vector<double> rowSums(n, 0.0);
    for (const std::vector<Edge> &in : incoming) {
        for (const Edge &e : in)
            rowSums[e.src] += e.prob;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (std::abs(rowSums[i] - 1.0) > 1e-6)
            hsipc_panic("Markov row " + std::to_string(i) +
                        " sums to " + std::to_string(rowSums[i]));
    }

    // Gauss-Seidel on pi (I - P) = 0 sets pi_j to its off-diagonal
    // inflow over 1 - p_jj, so each self-loop is split off once here.
    // An absorbing row (1 - p_jj ~ 0, the deadlock states analyze()
    // adds) has nothing to divide by: it takes the power step
    // pi_j + inflow instead and keeps collecting mass (leave[j] = 0).
    //
    // Sweeps visit states in reverse discovery order, j = n-1 ... 0,
    // which needs about a third of the sweeps of forward order on the
    // chains analyze() builds.  The off-diagonal edges are laid out
    // flat in that order so a sweep streams through them: state j's
    // end at edgesEnd[j], where state j+1's left off.  Each state's
    // list is padded to an even length with edges from a phantom
    // state n whose pi stays 0, so the sweep takes edges in pairs.
    // The inflow starts at +0.0 and every term is non-negative, so
    // adding the padding's +0.0 leaves its bits unchanged.
    constexpr double absorbing = 1e-12;
    hsipc_assert(n < std::numeric_limits<std::uint32_t>::max());
    const auto phantom = static_cast<std::uint32_t>(n);
    std::size_t total = 0;
    for (const std::vector<Edge> &in : incoming)
        total += in.size() + 1;
    std::vector<std::uint32_t> src;
    std::vector<double> prob;
    src.reserve(total);
    prob.reserve(total);
    std::vector<std::size_t> edgesEnd(n);
    std::vector<double> leave(n);
    for (std::size_t j = n; j-- > 0;) {
        double stay = 0.0;
        for (const Edge &e : incoming[j]) {
            if (e.src == j) {
                stay += e.prob;
            } else {
                src.push_back(static_cast<std::uint32_t>(e.src));
                prob.push_back(e.prob);
            }
        }
        if (src.size() % 2 != 0) {
            src.push_back(phantom);
            prob.push_back(0.0);
        }
        edgesEnd[j] = src.size();
        leave[j] = 1.0 - stay <= absorbing ? 0.0 : 1.0 / (1.0 - stay);
    }

    SolveResult res;
    std::vector<double> pi(n + 1, 1.0 / static_cast<double>(n));
    pi[n] = 0.0;

    // Every combinePeriod sweeps the next one starts from the
    // combination of the last SweepHistory::depth sweep outputs.  The
    // convergence test and the returned pi stay those of a plain
    // sweep: a combination only moves where the next sweep starts.
    SweepHistory history(n, pi);

    const double alpha = opts.damping;
    bool converged = false;
    int sweep = 0;
    while (sweep < opts.maxSweeps && !converged) {
        const bool check = (sweep % opts.checkInterval) == 0 && sweep > 0;

        // One Gauss-Seidel sweep, updating pi(j) in place so later
        // states see the freshest values.  The pairs are summed in
        // list order, as one edge at a time would sum them.
        double sum = 0.0;
        std::size_t q = 0;
        for (std::size_t j = n; j-- > 0;) {
            double acc = 0.0;
            for (; q < edgesEnd[j]; q += 2) {
                acc += pi[src[q]] * prob[q];
                acc += pi[src[q + 1]] * prob[q + 1];
            }
            const double next =
                leave[j] > 0.0 ? acc * leave[j] : pi[j] + acc;
            pi[j] = alpha * pi[j] + (1.0 - alpha) * next;
            sum += pi[j];
        }
        hsipc_assert(sum > 0.0);
        ++sweep;

        // The change is that of the one sweep just taken.
        const double worst = history.record(pi, 1.0 / sum, check);
        if (check && worst < opts.tolerance)
            converged = true;
        else if (sweep % combinePeriod == 0 && sweep < opts.maxSweeps)
            history.combine(pi);
    }

    pi.pop_back();
    res.piEmbedded = pi;
    res.converged = converged;
    res.sweeps = sweep;

    // Time-weight by deterministic sojourns.
    res.piTime.resize(n);
    double z = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        res.piTime[j] = pi[j] * sojourns[j];
        z += res.piTime[j];
    }
    hsipc_assert(z > 0.0);
    for (double &v : res.piTime)
        v /= z;
    return res;
}

} // namespace hsipc::gtpn
