/**
 * @file
 * Unit tests for the sparse Markov steady-state solver.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "core/gtpn/markov.hh"

namespace
{

using namespace hsipc::gtpn;

TEST(Markov, TwoStateChain)
{
    // P = [[0.9, 0.1], [0.4, 0.6]]; stationary = (0.8, 0.2).
    MarkovChain c;
    c.addEdge(0, 0, 0.9);
    c.addEdge(0, 1, 0.1);
    c.addEdge(1, 0, 0.4);
    c.addEdge(1, 1, 0.6);
    c.setSojourn(0, 1.0);
    c.setSojourn(1, 1.0);

    const SolveResult r = c.solve();
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.piEmbedded[0], 0.8, 1e-8);
    EXPECT_NEAR(r.piEmbedded[1], 0.2, 1e-8);
    EXPECT_NEAR(r.piTime[0], 0.8, 1e-8);
}

TEST(Markov, PeriodicChainConverges)
{
    // 0 -> 1 -> 0 with period 2; the undamped sweep must still
    // converge to (0.5, 0.5).
    MarkovChain c;
    c.addEdge(0, 1, 1.0);
    c.addEdge(1, 0, 1.0);

    const SolveResult r = c.solve();
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.piEmbedded[0], 0.5, 1e-8);
    EXPECT_NEAR(r.piEmbedded[1], 0.5, 1e-8);
}

TEST(Markov, SojournWeighting)
{
    // Symmetric embedded chain, but state 1 is held 3x as long.
    MarkovChain c;
    c.addEdge(0, 1, 1.0);
    c.addEdge(1, 0, 1.0);
    c.setSojourn(0, 1.0);
    c.setSojourn(1, 3.0);

    const SolveResult r = c.solve();
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.piTime[0], 0.25, 1e-8);
    EXPECT_NEAR(r.piTime[1], 0.75, 1e-8);
}

TEST(Markov, RingChainUniform)
{
    const int n = 17;
    MarkovChain c;
    for (int i = 0; i < n; ++i)
        c.addEdge(static_cast<std::size_t>(i),
                  static_cast<std::size_t>((i + 1) % n), 1.0);
    const SolveResult r = c.solve();
    ASSERT_TRUE(r.converged);
    // Settled by the second convergence check.
    EXPECT_LE(r.sweeps, 2 * SolveOptions().checkInterval);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(r.piEmbedded[static_cast<std::size_t>(i)], 1.0 / n,
                    1e-7);
}

TEST(Markov, BirthDeathChain)
{
    // Random walk on 0..3 with up-prob 0.3, down-prob 0.7 (reflecting):
    // birth-death stationary pi(i) ~ (0.3/0.7)^i.
    MarkovChain c;
    const double up = 0.3, down = 0.7;
    c.addEdge(0, 1, up);
    c.addEdge(0, 0, down);
    c.addEdge(1, 2, up);
    c.addEdge(1, 0, down);
    c.addEdge(2, 3, up);
    c.addEdge(2, 1, down);
    c.addEdge(3, 3, up);
    c.addEdge(3, 2, down);

    const SolveResult r = c.solve();
    ASSERT_TRUE(r.converged);
    const double rho = up / down;
    const double z = 1 + rho + rho * rho + rho * rho * rho;
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(r.piEmbedded[static_cast<std::size_t>(i)],
                    std::pow(rho, i) / z, 1e-7);
}

TEST(Markov, HeavySelfLoopMatchesClosedForm)
{
    // Both states stay with probability >= 0.998, so x <- xP mixes over
    // hundreds of steps.  Balance across the cut: pi0 * 0.001 =
    // pi1 * 0.002, so pi = (2/3, 1/3).  With the self-loops split off,
    // one Gauss-Seidel sweep lands on it.
    MarkovChain c;
    c.addEdge(0, 0, 0.999);
    c.addEdge(0, 1, 0.001);
    c.addEdge(1, 1, 0.998);
    c.addEdge(1, 0, 0.002);
    c.setSojourn(1, 4.0);

    const SolveResult r = c.solve();
    ASSERT_TRUE(r.converged);
    EXPECT_LE(r.sweeps, 2 * SolveOptions().checkInterval);
    EXPECT_NEAR(r.piEmbedded[0], 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(r.piEmbedded[1], 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(r.piTime[1], 2.0 / 3.0, 1e-12);
}

TEST(Markov, TransientChainDrainsIntoAbsorbingState)
{
    // The deadlock path of analyze(): transient states 0..2 cycle
    // among themselves and leak into state 3, which loops on itself
    // with probability 1.  All the mass must end up there.
    MarkovChain c;
    c.addEdge(0, 1, 0.6);
    c.addEdge(0, 2, 0.4);
    c.addEdge(1, 0, 0.5);
    c.addEdge(1, 1, 0.3);
    c.addEdge(1, 3, 0.2);
    c.addEdge(2, 0, 0.9);
    c.addEdge(2, 3, 0.1);
    c.addEdge(3, 3, 1.0);

    const SolveResult r = c.solve();
    EXPECT_NEAR(r.piEmbedded[3], 1.0, 1e-9);
    for (std::size_t j = 0; j < 3; ++j)
        EXPECT_NEAR(r.piEmbedded[j], 0.0, 1e-9);
    EXPECT_NEAR(r.piTime[3], 1.0, 1e-9);
}

/** Stationary vector of the dense row-stochastic @p p by elimination. */
std::vector<double>
eliminationStationary(const std::vector<std::vector<double>> &p)
{
    // Rows 0..n-2 of (I - P)^T pi = 0, the last replaced by sum pi = 1.
    const std::size_t n = p.size();
    std::vector<std::vector<double>> a(n, std::vector<double>(n + 1, 0.0));
    for (std::size_t i = 0; i + 1 < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            a[i][j] = (i == j ? 1.0 : 0.0) - p[j][i];
    }
    for (std::size_t j = 0; j < n; ++j)
        a[n - 1][j] = 1.0;
    a[n - 1][n] = 1.0;

    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::abs(a[r][col]) > std::abs(a[pivot][col]))
                pivot = r;
        }
        std::swap(a[col], a[pivot]);
        for (std::size_t r = 0; r < n; ++r) {
            if (r == col)
                continue;
            const double f = a[r][col] / a[col][col];
            for (std::size_t k = col; k <= n; ++k)
                a[r][k] -= f * a[col][k];
        }
    }
    std::vector<double> pi(n);
    for (std::size_t i = 0; i < n; ++i)
        pi[i] = a[i][n] / a[i][i];
    return pi;
}

TEST(Markov, DenseRandomChainMatchesElimination)
{
    const std::size_t n = 8;
    std::mt19937 rng(1987);
    std::uniform_real_distribution<double> weight(0.0, 1.0);
    std::vector<std::vector<double>> p(n, std::vector<double>(n));
    for (auto &row : p) {
        double sum = 0.0;
        for (double &v : row)
            sum += (v = weight(rng));
        for (double &v : row)
            v /= sum;
    }

    MarkovChain c;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            c.addEdge(i, j, p[i][j]);
    }
    const SolveResult r = c.solve();
    ASSERT_TRUE(r.converged);
    const std::vector<double> ref = eliminationStationary(p);
    for (std::size_t j = 0; j < n; ++j)
        EXPECT_NEAR(r.piEmbedded[j], ref[j], 1e-9) << "state " << j;
}

TEST(Markov, DampingSettlesARingWithUnequalSelfLoops)
{
    // 0 -> 1 -> 2 -> 0 with p_00 = 0.5.  The plain sweep alternates
    // between two vectors on this ring; a damped one settles on the
    // balance pi0 * 0.5 = pi1 = pi2, i.e. (1/2, 1/4, 1/4).
    MarkovChain c;
    c.addEdge(0, 0, 0.5);
    c.addEdge(0, 1, 0.5);
    c.addEdge(1, 2, 1.0);
    c.addEdge(2, 0, 1.0);
    SolveOptions opts;
    opts.damping = 0.5;
    const SolveResult r = c.solve(opts);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.piEmbedded[0], 0.5, 1e-8);
    EXPECT_NEAR(r.piEmbedded[1], 0.25, 1e-8);
    EXPECT_NEAR(r.piEmbedded[2], 0.25, 1e-8);
}

TEST(Markov, AbsorbingStateCollectsAllMass)
{
    MarkovChain c;
    c.addEdge(0, 1, 1.0);
    c.addEdge(1, 1, 1.0);
    const SolveResult r = c.solve();
    EXPECT_NEAR(r.piEmbedded[1], 1.0, 1e-8);
}

TEST(Markov, StateEnteredOnlyByItsSelfLoopDrains)
{
    // State 0 re-enters itself and leaves for the 1 <-> 2 cycle, but
    // nothing else enters it: it has no off-diagonal inflow at all,
    // so it holds no mass once the sweep has run.
    MarkovChain c;
    c.addEdge(0, 0, 0.5);
    c.addEdge(0, 1, 0.5);
    c.addEdge(1, 2, 1.0);
    c.addEdge(2, 1, 1.0);
    c.setSojourn(2, 3.0);
    const SolveResult r = c.solve();
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.piEmbedded[0], 0.0);
    EXPECT_NEAR(r.piEmbedded[1], 0.5, 1e-9);
    EXPECT_NEAR(r.piEmbedded[2], 0.5, 1e-9);
    EXPECT_EQ(r.piTime[0], 0.0);
    EXPECT_NEAR(r.piTime[2], 0.75, 1e-9);
}

TEST(Markov, StationaryStartDropsTheHistory)
{
    // A doubly stochastic chain starts at its stationary vector, so
    // every sweep returns its input bit for bit.  The residuals the
    // accelerated solve combines are then all 0 and its small system
    // is singular: it must drop the history, not divide by 0.
    MarkovChain c;
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j)
            c.addEdge(i, j, i == j ? 0.5 : 0.25);
    }
    const SolveResult r = c.solve();
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.sweeps, SolveOptions().checkInterval + 1);
    for (std::size_t j = 0; j < 3; ++j)
        EXPECT_DOUBLE_EQ(r.piEmbedded[j], 1.0 / 3.0) << "state " << j;
}

TEST(Markov, SteepBirthDeathChainKeepsItsSmallestStates)
{
    // A walk on 0..39 that steps up with probability 0.1: pi(i) falls
    // as 9^-i, to 1e-38 of pi(0).  Combining sweeps overshoots the
    // smallest entries below 0, which the solve clips; every entry
    // must still come out within 1e-8 of the closed form, relative.
    const std::size_t n = 40;
    const double up = 0.1, down = 0.9;
    MarkovChain c;
    for (std::size_t i = 0; i < n; ++i) {
        c.addEdge(i, i + 1 < n ? i + 1 : i, up);
        c.addEdge(i, i > 0 ? i - 1 : i, down);
    }
    const SolveResult r = c.solve();
    ASSERT_TRUE(r.converged);
    const double rho = up / down;
    double z = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        z += std::pow(rho, static_cast<double>(i));
    for (std::size_t i = 0; i < n; ++i) {
        const double want = std::pow(rho, static_cast<double>(i)) / z;
        EXPECT_NEAR(r.piEmbedded[i], want, 1e-8 * want) << "state " << i;
    }
}

TEST(Markov, ResultVectorsHoldOneEntryPerState)
{
    // Rings of 1 ... 5 states with self-loops: each state has one
    // off-diagonal in-edge (none when n = 1), an odd count the solver
    // pads.
    for (std::size_t n = 1; n <= 5; ++n) {
        MarkovChain c;
        for (std::size_t i = 0; i < n; ++i) {
            c.addEdge(i, i, n == 1 ? 1.0 : 0.25);
            if (n > 1)
                c.addEdge(i, (i + 1) % n, 0.75);
        }
        const SolveResult r = c.solve();
        ASSERT_TRUE(r.converged) << n;
        ASSERT_EQ(r.piEmbedded.size(), n);
        ASSERT_EQ(r.piTime.size(), n);
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(r.piEmbedded[i], 1.0 / double(n), 1e-9);
            sum += r.piTime[i];
        }
        EXPECT_NEAR(sum, 1.0, 1e-12) << n;
    }
}

TEST(Markov, RejectsUnnormalizedRows)
{
    MarkovChain c;
    c.addEdge(0, 1, 0.5); // row 0 sums to 0.5
    c.addEdge(1, 0, 1.0);
    EXPECT_DEATH({ c.solve(); }, "sums");
}

TEST(Markov, RejectsInvalidSolveOptions)
{
    MarkovChain c;
    c.addEdge(0, 1, 1.0);
    c.addEdge(1, 0, 1.0);
    const auto solveWith = [&c](auto edit) {
        SolveOptions opts;
        edit(opts);
        c.solve(opts);
    };
    EXPECT_DEATH(solveWith([](SolveOptions &o) { o.checkInterval = 0; }),
                 "checkInterval");
    EXPECT_DEATH(solveWith([](SolveOptions &o) { o.maxSweeps = 0; }),
                 "maxSweeps");
    EXPECT_DEATH(solveWith([](SolveOptions &o) { o.tolerance = 0.0; }),
                 "tolerance");
    EXPECT_DEATH(solveWith([](SolveOptions &o) { o.damping = 1.0; }),
                 "damping");
    EXPECT_DEATH(solveWith([](SolveOptions &o) { o.damping = -0.1; }),
                 "damping");
}

} // namespace
