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
    std::vector<double> prev(n);

    const double alpha = opts.damping;
    bool converged = false;
    int sweep = 0;
    while (sweep < opts.maxSweeps && !converged) {
        const bool check = (sweep % opts.checkInterval) == 0;
        if (check)
            std::copy(pi.begin(), pi.begin() + n, prev.begin());

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
        const double inv = 1.0 / sum;
        for (std::size_t j = 0; j < n; ++j)
            pi[j] *= inv;

        ++sweep;
        if (check && sweep > 1) {
            double worst = 0.0;
            for (std::size_t j = 0; j < n; ++j) {
                const double scale = std::max(pi[j], 1e-300);
                worst = std::max(worst, std::abs(pi[j] - prev[j]) / scale);
            }
            // The change is that of the one sweep just taken.
            if (worst < opts.tolerance)
                converged = true;
        }
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
