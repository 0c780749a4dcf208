/**
 * @file
 * Unit tests for the GTPN engine: token game, exact analyzer, Monte
 * Carlo simulator, and the thesis' Figure 6.6/6.7 examples.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>

#include "core/gtpn/analyzer.hh"
#include "core/gtpn/export.hh"
#include "core/gtpn/net.hh"
#include "core/gtpn/simulator.hh"
#include "core/gtpn/tokengame.hh"
#include "core/models/local_model.hh"
#include "core/models/nonlocal_model.hh"
#include "core/models/solution.hh"

namespace
{

using namespace hsipc;
using namespace hsipc::gtpn;

TEST(PetriNet, BuildAndLookup)
{
    PetriNet net;
    const PlaceId p = net.addPlace("P", 3);
    const TransId t = net.addTransition("T", 1.0, 1.0);
    net.inputArc(p, t);
    net.outputArc(t, p);

    EXPECT_EQ(net.numPlaces(), 1u);
    EXPECT_EQ(net.numTransitions(), 1u);
    EXPECT_EQ(net.findPlace("P"), p);
    EXPECT_EQ(net.findTransition("T"), t);
    EXPECT_EQ(net.initialMarking(), std::vector<int>{3});
}

TEST(TokenGame, EnablingRespectsMultiplicity)
{
    PetriNet net;
    const PlaceId p = net.addPlace("P", 1);
    const TransId t = net.addTransition("T", 1.0, 1.0);
    net.inputArc(p, t, 2);

    EXPECT_FALSE(inputsSatisfied(net, {1}, t));
    EXPECT_TRUE(inputsSatisfied(net, {2}, t));
}

TEST(TokenGame, ConflictProbabilitiesFollowFrequencies)
{
    // Two transitions compete for one token with weights 1 and 3.
    PetriNet net;
    const PlaceId p = net.addPlace("P", 1);
    const PlaceId a = net.addPlace("A");
    const PlaceId b = net.addPlace("B");
    const TransId ta = net.addTransition("Ta", 1.0, 1.0);
    const TransId tb = net.addTransition("Tb", 1.0, 3.0);
    net.inputArc(p, ta);
    net.outputArc(ta, a);
    net.inputArc(p, tb);
    net.outputArc(tb, b);

    const auto outs = enumerateFirings(net, {net.initialMarking(), {}});
    ASSERT_EQ(outs.size(), 2u);
    double pa = 0.0, pb = 0.0;
    for (const auto &o : outs) {
        ASSERT_EQ(o.state.firings.size(), 1u);
        if (o.state.firings[0].trans == ta)
            pa = o.prob;
        if (o.state.firings[0].trans == tb)
            pb = o.prob;
    }
    EXPECT_DOUBLE_EQ(pa, 0.25);
    EXPECT_DOUBLE_EQ(pb, 0.75);
}

TEST(TokenGame, IndependentTransitionsFireMaximally)
{
    PetriNet net;
    const PlaceId p1 = net.addPlace("P1", 1);
    const PlaceId p2 = net.addPlace("P2", 1);
    const TransId t1 = net.addTransition("T1", 2.0, 1.0);
    const TransId t2 = net.addTransition("T2", 3.0, 1.0);
    net.inputArc(p1, t1);
    net.outputArc(t1, p1);
    net.inputArc(p2, t2);
    net.outputArc(t2, p2);

    const auto outs = enumerateFirings(net, {net.initialMarking(), {}});
    ASSERT_EQ(outs.size(), 1u);
    ASSERT_EQ(outs[0].state.firings.size(), 2u);
    EXPECT_DOUBLE_EQ(outs[0].prob, 1.0);
    EXPECT_EQ(outs[0].state.firings[0].trans, t1);
    EXPECT_EQ(outs[0].state.firings[1].trans, t2);
}

TEST(TokenGame, ZeroDelayTransitionsCascade)
{
    // P1 -> (0) -> P2 -> (0) -> P3 resolves instantly.
    PetriNet net;
    const PlaceId p1 = net.addPlace("P1", 1);
    const PlaceId p2 = net.addPlace("P2");
    const PlaceId p3 = net.addPlace("P3");
    const TransId t1 = net.addTransition("T1", 0.0, 1.0);
    const TransId t2 = net.addTransition("T2", 0.0, 1.0);
    net.inputArc(p1, t1);
    net.outputArc(t1, p2);
    net.inputArc(p2, t2);
    net.outputArc(t2, p3);

    const auto outs = enumerateFirings(net, {net.initialMarking(), {}});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(outs[0].state.firings.empty());
    EXPECT_EQ(outs[0].state.marking[static_cast<std::size_t>(p3)], 1);
}

TEST(TokenGame, MultiTokenBinomialSplit)
{
    // Two tokens, each independently choosing exit (p) or loop (1-p).
    PetriNet net;
    const PlaceId p = net.addPlace("P", 2);
    const PlaceId q = net.addPlace("Q");
    const TransId exit = net.addTransition("exit", 1.0, 0.25);
    const TransId loop = net.addTransition("loop", 1.0, 0.75);
    net.inputArc(p, exit);
    net.outputArc(exit, q);
    net.inputArc(p, loop);
    net.outputArc(loop, p);

    const auto outs = enumerateFirings(net, {net.initialMarking(), {}});
    // Outcomes: {2 exits}, {1 exit + 1 loop}, {2 loops}.
    ASSERT_EQ(outs.size(), 3u);
    double p_by_exits[3] = {0, 0, 0};
    for (const auto &o : outs) {
        int exits = 0;
        for (const auto &f : o.state.firings)
            exits += f.trans == exit;
        p_by_exits[exits] += o.prob;
        (void)loop;
    }
    EXPECT_NEAR(p_by_exits[0], 0.75 * 0.75, 1e-12);
    EXPECT_NEAR(p_by_exits[1], 2 * 0.25 * 0.75, 1e-12);
    EXPECT_NEAR(p_by_exits[2], 0.25 * 0.25, 1e-12);
}

TEST(TokenGame, MergedOutcomesKeepFirstOccurrenceOrder)
{
    // Three tokens, each choosing exit or loop: eight selection paths
    // reach four multisets.  Depth-first the paths run eee, eel, ele,
    // ell, lee, lel, lle, lll, so each merged outcome sits where its
    // first path ended and sums its paths' probabilities in path order.
    PetriNet net;
    const PlaceId p = net.addPlace("P", 3);
    const PlaceId q = net.addPlace("Q");
    const double fe = 0.1, fl = 0.7;
    const TransId exit = net.addTransition("exit", 1.0, fe);
    const TransId loop = net.addTransition("loop", 1.0, fl);
    net.inputArc(p, exit);
    net.outputArc(exit, q);
    net.inputArc(p, loop);
    net.outputArc(loop, p);

    const double total = fe + fl;
    auto path = [total](std::initializer_list<double> fs) {
        double pr = 1.0;
        for (double f : fs)
            pr = pr * f / total;
        return pr;
    };

    const auto outs = enumerateFirings(net, {net.initialMarking(), {}});
    ASSERT_EQ(outs.size(), 4u);
    const int exits[4] = {3, 2, 1, 0};
    for (std::size_t i = 0; i < outs.size(); ++i) {
        ASSERT_EQ(outs[i].state.firings.size(), 3u);
        EXPECT_EQ(std::count_if(outs[i].state.firings.begin(),
                                outs[i].state.firings.end(),
                                [&](const Firing &f) {
                                    return f.trans == exit;
                                }),
                  exits[i]);
        EXPECT_TRUE(std::is_sorted(outs[i].state.firings.begin(),
                                   outs[i].state.firings.end()));
    }
    EXPECT_EQ(outs[0].prob, path({fe, fe, fe}));
    EXPECT_EQ(outs[1].prob, path({fe, fe, fl}) + path({fe, fl, fe}) +
                                path({fl, fe, fe}));
    EXPECT_EQ(outs[2].prob, path({fe, fl, fl}) + path({fl, fe, fl}) +
                                path({fl, fl, fe}));
    EXPECT_EQ(outs[3].prob, path({fl, fl, fl}));
}

TEST(TokenGame, AdvanceTimeCompletesShortestFiring)
{
    PetriNet net;
    const PlaceId p1 = net.addPlace("P1", 1);
    const PlaceId p2 = net.addPlace("P2", 1);
    const PlaceId q1 = net.addPlace("Q1");
    const PlaceId q2 = net.addPlace("Q2");
    const TransId t1 = net.addTransition("T1", 2.0, 1.0);
    const TransId t2 = net.addTransition("T2", 5.0, 1.0);
    net.inputArc(p1, t1);
    net.outputArc(t1, q1);
    net.inputArc(p2, t2);
    net.outputArc(t2, q2);

    auto outs = enumerateFirings(net, {net.initialMarking(), {}});
    ASSERT_EQ(outs.size(), 1u);
    NetState s = outs[0].state;
    EXPECT_EQ(advanceTime(net, s), 2);
    EXPECT_EQ(s.marking[static_cast<std::size_t>(q1)], 1);
    EXPECT_EQ(s.marking[static_cast<std::size_t>(q2)], 0);
    ASSERT_EQ(s.firings.size(), 1u);
    EXPECT_EQ(s.firings[0].remaining, 3);
}

TEST(TokenGame, StateDependentGateDisablesTransition)
{
    PetriNet net;
    const PlaceId p = net.addPlace("P", 1);
    const PlaceId blocker = net.addPlace("Blocker", 1);
    const PlaceId q = net.addPlace("Q");
    const TransId t = net.addTransition(
        "T", constant(1.0), gate(placeEmpty(blocker), 1.0));
    net.inputArc(p, t);
    net.outputArc(t, q);

    const auto outs = enumerateFirings(net, {net.initialMarking(), {}});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(outs[0].state.firings.empty());
}

// --- Figure 6.6: the thesis' introductory example ----------------------
//
// A token in P1 loops back to P1 a geometric number of times, then
// moves to P2; from P2 it returns to P1.  The throughput is the usage
// of the resource on the P1 -> P2 transition.

struct Fig66
{
    PetriNet net;
    double loop_mean;
    double back_delay;

    explicit Fig66(double mean, double back)
        : loop_mean(mean), back_delay(back)
    {
        const PlaceId p1 = net.addPlace("P1", 1);
        const PlaceId p2 = net.addPlace("P2");
        const TransId t0 = net.addTransition("T0", 1.0, 1.0 / mean,
                                             "Lambda");
        net.inputArc(p1, t0);
        net.outputArc(t0, p2);
        const TransId t1 = net.addTransition("T1", 1.0,
                                             1.0 - 1.0 / mean);
        net.inputArc(p1, t1);
        net.outputArc(t1, p1);
        const TransId t2 = net.addTransition("T2", back, 1.0);
        net.inputArc(p2, t2);
        net.outputArc(t2, p1);
    }

    /** Cycle = geometric(mean) units in P1 plus the return delay. */
    double expectedThroughput() const { return 1.0 / (loop_mean + back_delay); }
};

TEST(Analyzer, Fig66ExampleThroughput)
{
    Fig66 model(20.0, 5.0);
    const AnalyzerResult r = analyze(model.net);
    EXPECT_TRUE(r.converged);
    EXPECT_FALSE(r.deadlock);
    EXPECT_NEAR(r.usage("Lambda"), model.expectedThroughput(), 1e-6);
}

TEST(Analyzer, Fig66FiringRateMatchesUsage)
{
    Fig66 model(12.0, 3.0);
    const AnalyzerResult r = analyze(model.net);
    // The Lambda transition has delay 1, so usage equals firing rate.
    const TransId t0 = model.net.findTransition("T0");
    EXPECT_NEAR(r.firingRate[static_cast<std::size_t>(t0)],
                r.usage("Lambda"), 1e-9);
}

// --- Figure 6.7: constant delay vs geometric approximation -------------

double
throughputWithStage(bool geometric, int stage_delay)
{
    PetriNet net;
    const PlaceId p1 = net.addPlace("P1", 1);
    const PlaceId p2 = net.addPlace("P2");
    const TransId t0 = net.addTransition("T0", 1.0, 1.0, "Lambda");
    net.inputArc(p1, t0);
    net.outputArc(t0, p2);
    if (geometric) {
        const double mean = stage_delay;
        const TransId exit = net.addTransition("exit", 1.0, 1.0 / mean);
        net.inputArc(p2, exit);
        net.outputArc(exit, p1);
        const TransId loop = net.addTransition("loop", 1.0,
                                               1.0 - 1.0 / mean);
        net.inputArc(p2, loop);
        net.outputArc(loop, p2);
    } else {
        const TransId t2 = net.addTransition(
            "T2", static_cast<double>(stage_delay), 1.0);
        net.inputArc(p2, t2);
        net.outputArc(t2, p1);
    }
    return analyze(net).usage("Lambda");
}

TEST(Analyzer, Fig67GeometricApproximatesConstantDelay)
{
    for (int d : {2, 7, 40}) {
        const double exact = throughputWithStage(false, d);
        const double approx = throughputWithStage(true, d);
        EXPECT_NEAR(exact, 1.0 / (1.0 + d), 1e-9);
        EXPECT_NEAR(approx, exact, 1e-6) << "delay " << d;
    }
}

TEST(Analyzer, DetectsDeadlock)
{
    PetriNet net;
    const PlaceId p = net.addPlace("P", 1);
    const PlaceId q = net.addPlace("Q");
    const TransId t = net.addTransition("T", 1.0, 1.0);
    net.inputArc(p, t);
    net.outputArc(t, q); // token ends in Q with nothing enabled
    const AnalyzerResult r = analyze(net);
    EXPECT_TRUE(r.deadlock);
}

TEST(Analyzer, GeneralIntegerDelaysPipeline)
{
    // Three-stage cycle with delays 2, 3, 5: period 10.
    PetriNet net;
    const PlaceId a = net.addPlace("A", 1);
    const PlaceId b = net.addPlace("B");
    const PlaceId c = net.addPlace("C");
    const TransId t1 = net.addTransition("T1", 2.0, 1.0, "Lambda");
    const TransId t2 = net.addTransition("T2", 3.0, 1.0);
    const TransId t3 = net.addTransition("T3", 5.0, 1.0, "Busy5");
    net.inputArc(a, t1);
    net.outputArc(t1, b);
    net.inputArc(b, t2);
    net.outputArc(t2, c);
    net.inputArc(c, t3);
    net.outputArc(t3, a);

    const AnalyzerResult r = analyze(net);
    EXPECT_NEAR(r.usage("Lambda"), 2.0 / 10.0, 1e-9);
    EXPECT_NEAR(r.usage("Busy5"), 5.0 / 10.0, 1e-9);
    EXPECT_NEAR(r.firingRate[static_cast<std::size_t>(t1)], 0.1, 1e-9);
    EXPECT_NEAR(r.firingRate[static_cast<std::size_t>(t2)], 0.1, 1e-9);
    EXPECT_NEAR(r.firingRate[static_cast<std::size_t>(t3)], 0.1, 1e-9);
}

TEST(Analyzer, PlaceOccupancyOfPipeline)
{
    // Token spends 4 of each 5 units in place B (and is in flight
    // during the single unit of T1/T2 firings).
    PetriNet net;
    const PlaceId a = net.addPlace("A", 1);
    const PlaceId b = net.addPlace("B");
    const TransId t1 = net.addTransition("T1", 1.0, 1.0);
    net.inputArc(a, t1);
    net.outputArc(t1, b);
    // B drains via a gated transition that is open 1 time in 5 on
    // average, approximated by frequency 0.25 exit/loop pair.
    const TransId exit = net.addTransition("exit", 1.0, 0.25);
    net.inputArc(b, exit);
    net.outputArc(exit, a);
    const TransId loop = net.addTransition("loop", 1.0, 0.75);
    net.inputArc(b, loop);
    net.outputArc(loop, b);

    const AnalyzerResult r = analyze(net);
    // Cycle: 1 (T1) + geometric(4) in the exit/loop stage; but the
    // token only *rests* in B never (it is always in flight in
    // exit/loop firings), so occupancy of B is 0 and occupancy of A
    // is 0 as well.
    EXPECT_NEAR(r.placeOccupancy[static_cast<std::size_t>(b)], 0.0,
                1e-9);
    EXPECT_NEAR(r.placeOccupancy[static_cast<std::size_t>(a)], 0.0,
                1e-9);
    (void)t1;
}

TEST(Analyzer, PlaceOccupancyOfRestingTokens)
{
    // A bookkeeping place whose token rests while a clock ticks.
    PetriNet net;
    const PlaceId clock = net.addPlace("Clock", 1);
    const PlaceId book = net.addPlace("Book", 1);
    const PlaceId drain = net.addPlace("Drain");
    const TransId tick = net.addTransition("tick", 1.0, 1.0);
    net.inputArc(clock, tick);
    net.outputArc(tick, clock);
    // Consume the bookkeeping token with probability 0.5 per tick;
    // replenish instantly, keeping occupancy measurable.
    const TransId take = net.addTransition("take", 1.0, 0.5);
    net.inputArc(book, take);
    net.outputArc(take, drain);
    const TransId keep = net.addTransition("keep", 1.0, 0.5);
    net.inputArc(book, keep);
    net.outputArc(keep, book);
    const TransId refill = net.addTransition("refill", 0.0, 1.0);
    net.inputArc(drain, refill);
    net.outputArc(refill, book);

    const AnalyzerResult r = analyze(net);
    // The Book token is always inside take/keep firings, never
    // resting: occupancy 0.  Clock likewise.
    EXPECT_NEAR(r.placeOccupancy[static_cast<std::size_t>(book)], 0.0,
                1e-9);
}

TEST(Simulator, MatchesAnalyzerOnFig66)
{
    Fig66 model(15.0, 4.0);
    const AnalyzerResult exact = analyze(model.net);
    SimOptions opts;
    opts.horizon = 400000;
    opts.seed = 3;
    const SimResult sim = simulate(model.net, opts);
    EXPECT_FALSE(sim.deadlock);
    EXPECT_NEAR(sim.usage("Lambda"), exact.usage("Lambda"),
                0.05 * exact.usage("Lambda"));
}

TEST(Simulator, DetectsDeadlock)
{
    PetriNet net;
    const PlaceId p = net.addPlace("P", 1);
    const PlaceId q = net.addPlace("Q");
    const TransId t = net.addTransition("T", 1.0, 1.0);
    net.inputArc(p, t);
    net.outputArc(t, q);
    const SimResult sim = simulate(net);
    EXPECT_TRUE(sim.deadlock);
}

// Property sweep: analyzer vs Monte Carlo on a family of random-ish
// two-stage queueing nets parameterized by (tokens, mean1, mean2).
class GtpnAgreement
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GtpnAgreement, AnalyzerMatchesSimulation)
{
    const auto [tokens, m1, m2] = GetParam();

    PetriNet net;
    const PlaceId a = net.addPlace("A", tokens);
    const PlaceId b = net.addPlace("B");
    const PlaceId server = net.addPlace("Server", 1);

    // Stage 1: infinite-server geometric delay.
    const TransId e1 = net.addTransition("e1", 1.0, 1.0 / m1);
    net.inputArc(a, e1);
    net.outputArc(e1, b);
    const TransId l1 = net.addTransition("l1", 1.0, 1.0 - 1.0 / m1);
    net.inputArc(a, l1);
    net.outputArc(l1, a);

    // Stage 2: single-server geometric delay, measured.
    const TransId e2 = net.addTransition("e2", 1.0, 1.0 / m2, "Lambda");
    net.inputArc(b, e2);
    net.inputArc(server, e2);
    net.outputArc(e2, a);
    net.outputArc(e2, server);
    const TransId l2 = net.addTransition("l2", 1.0, 1.0 - 1.0 / m2);
    net.inputArc(b, l2);
    net.inputArc(server, l2);
    net.outputArc(l2, b);
    net.outputArc(l2, server);

    const AnalyzerResult exact = analyze(net);
    ASSERT_TRUE(exact.converged);
    SimOptions opts;
    opts.horizon = 300000;
    opts.seed = 1234 + static_cast<std::uint64_t>(tokens);
    const SimResult sim = simulate(net, opts);
    EXPECT_NEAR(sim.usage("Lambda"), exact.usage("Lambda"),
                0.06 * exact.usage("Lambda"))
        << "tokens=" << tokens << " m1=" << m1 << " m2=" << m2;
    (void)e1; (void)l1; (void)e2; (void)l2;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GtpnAgreement,
    ::testing::Values(std::make_tuple(1, 5, 3),
                      std::make_tuple(2, 8, 4),
                      std::make_tuple(3, 10, 2),
                      std::make_tuple(4, 6, 6),
                      std::make_tuple(2, 20, 10),
                      std::make_tuple(3, 3, 12)));


// --- Export and validation ----------------------------------------------

TEST(Export, DotContainsPlacesAndTransitions)
{
    Fig66 model(10.0, 2.0);
    const std::string dot = toDot(model.net);
    EXPECT_NE(dot.find("digraph gtpn"), std::string::npos);
    EXPECT_NE(dot.find("P1"), std::string::npos);
    EXPECT_NE(dot.find("T0"), std::string::npos);
    EXPECT_NE(dot.find("[Lambda]"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Export, CleanNetValidates)
{
    Fig66 model(10.0, 2.0);
    EXPECT_TRUE(validateNet(model.net).empty());
}

TEST(Export, DetectsTokenSourceAndSink)
{
    PetriNet net;
    const PlaceId p = net.addPlace("P", 1);
    const TransId src = net.addTransition("source", 1.0, 1.0);
    net.outputArc(src, p);
    const TransId sink = net.addTransition("sink", 1.0, 1.0);
    net.inputArc(p, sink);
    const auto issues = validateNet(net);
    ASSERT_EQ(issues.size(), 2u);
    EXPECT_NE(issues[0].find("source"), std::string::npos);
    EXPECT_NE(issues[1].find("sink"), std::string::npos);
}

TEST(Export, DetectsVanishingLoop)
{
    PetriNet net;
    const PlaceId p = net.addPlace("P", 1);
    const TransId t = net.addTransition("spin", 0.0, 1.0);
    net.inputArc(p, t);
    net.outputArc(t, p);
    const auto issues = validateNet(net);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].find("vanishing loop"), std::string::npos);
}

TEST(Export, DetectsDisconnectedAndAccumulatingPlaces)
{
    PetriNet net;
    net.addPlace("Orphan");
    const PlaceId a = net.addPlace("A", 1);
    const PlaceId hoard = net.addPlace("Hoard");
    const TransId t = net.addTransition("t", 1.0, 1.0);
    net.inputArc(a, t);
    net.outputArc(t, a);
    net.outputArc(t, hoard);
    const auto issues = validateNet(net);
    bool orphan = false, accum = false;
    for (const auto &i : issues) {
        orphan = orphan || i.find("Orphan") != std::string::npos;
        accum = accum || i.find("Hoard") != std::string::npos;
    }
    EXPECT_TRUE(orphan);
    EXPECT_TRUE(accum);
}


// --- Engine robustness ----------------------------------------------------

TEST(TokenGame, ArcMultiplicityConsumesAndProduces)
{
    PetriNet net;
    const PlaceId p = net.addPlace("P", 4);
    const PlaceId q = net.addPlace("Q");
    const TransId t = net.addTransition("pair", 1.0, 1.0);
    net.inputArc(p, t, 2);
    net.outputArc(t, q, 3);

    // Two firings start (4 tokens / multiplicity 2).
    auto outs = enumerateFirings(net, {net.initialMarking(), {}});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].state.firings.size(), 2u);
    NetState st = outs[0].state;
    advanceTime(net, st);
    EXPECT_EQ(st.marking[static_cast<std::size_t>(q)], 6);
}

TEST(TokenGame, StateDependentDelay)
{
    // The transition's delay depends on the marking of a mode place.
    PetriNet net;
    const PlaceId p = net.addPlace("P", 1);
    const PlaceId mode = net.addPlace("Mode", 1);
    const PlaceId q = net.addPlace("Q");
    const TransId t = net.addTransition(
        "T",
        [mode](const EvalContext &ctx) {
            return ctx.marking(mode) > 0 ? 7.0 : 2.0;
        },
        constant(1.0));
    net.inputArc(p, t);
    net.outputArc(t, q);

    auto outs = enumerateFirings(net, {net.initialMarking(), {}});
    ASSERT_EQ(outs.size(), 1u);
    ASSERT_EQ(outs[0].state.firings.size(), 1u);
    EXPECT_EQ(outs[0].state.firings[0].remaining, 7);
}

TEST(TokenGame, VanishingLoopPanics)
{
    PetriNet net;
    const PlaceId p = net.addPlace("P", 1);
    const TransId t = net.addTransition("spin", 0.0, 1.0);
    net.inputArc(p, t);
    net.outputArc(t, p);
    EXPECT_DEATH(enumerateFirings(net, {net.initialMarking(), {}}),
                 "vanishing");
}

TEST(Analyzer, StateCapPanics)
{
    // A counter net with unbounded-ish growth vs a tiny cap.
    PetriNet net;
    const PlaceId clock = net.addPlace("Clock", 1);
    const PlaceId acc = net.addPlace("Acc");
    const TransId t = net.addTransition("tick", 1.0, 1.0);
    net.inputArc(clock, t);
    net.outputArc(t, clock);
    net.outputArc(t, acc);
    AnalyzerOptions opts;
    opts.maxStates = 16;
    EXPECT_DEATH(analyze(net, opts), "maxStates");
}

TEST(Analyzer, ZeroFrequencyTransitionNeverFires)
{
    PetriNet net;
    const PlaceId p = net.addPlace("P", 1);
    const PlaceId q = net.addPlace("Q");
    const TransId dead = net.addTransition("dead", 1.0, 0.0);
    net.inputArc(p, dead);
    net.outputArc(dead, q);
    const TransId live = net.addTransition("live", 1.0, 1.0, "L");
    net.inputArc(p, live);
    net.outputArc(live, p);

    const AnalyzerResult r = analyze(net);
    EXPECT_NEAR(r.usage("L"), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(
        r.firingRate[static_cast<std::size_t>(dead)], 0.0);
    EXPECT_DOUBLE_EQ(
        r.placeOccupancy[static_cast<std::size_t>(q)], 0.0);
}

TEST(Analyzer, CombinatorsTokensAndNoneFiring)
{
    // A gate built from tokens() arithmetic: the drain only runs
    // while the level is above 2.
    PetriNet net;
    const PlaceId level = net.addPlace("Level", 5);
    const TransId drain = net.addTransition(
        "drain", constant(1.0),
        [level](const EvalContext &ctx) {
            return ctx.marking(level) > 2 ? 1.0 : 0.0;
        });
    net.inputArc(level, drain);

    // Deadlocks once the level reaches 2 (drain disabled).
    const AnalyzerResult r = analyze(net);
    EXPECT_TRUE(r.deadlock);
    EXPECT_NEAR(r.placeOccupancy[static_cast<std::size_t>(level)],
                2.0, 1e-6);
}

TEST(Simulator, DeterministicForFixedSeed)
{
    Fig66 model(9.0, 4.0);
    SimOptions opts;
    opts.horizon = 50000;
    opts.seed = 77;
    const SimResult a = simulate(model.net, opts);
    const SimResult b = simulate(model.net, opts);
    EXPECT_DOUBLE_EQ(a.usage("Lambda"), b.usage("Lambda"));
}

TEST(Markov, SolveOptionsRespectSweepCap)
{
    MarkovChain c;
    c.addEdge(0, 1, 1.0);
    c.addEdge(1, 0, 1.0);
    SolveOptions opts;
    opts.maxSweeps = 3;
    opts.tolerance = 1e-30; // unreachable: must stop at the cap
    const SolveResult r = c.solve(opts);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.sweeps, 3);
}

TEST(Markov, SweepCapStopsAnUnsettledSolve)
{
    // The flip chain above starts at its stationary vector, so only
    // the first check's place (after sweep 17) keeps it from passing.
    // This birth-death walk starts far from its stationary vector and
    // is checked after every sweep: the cap, not a check, must stop it.
    MarkovChain c;
    const double up = 0.3, down = 0.7;
    for (std::size_t i = 0; i < 4; ++i) {
        c.addEdge(i, i < 3 ? i + 1 : i, up);
        c.addEdge(i, i > 0 ? i - 1 : i, down);
    }
    SolveOptions opts;
    opts.maxSweeps = 3;
    opts.checkInterval = 1;
    const SolveResult r = c.solve(opts);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.sweeps, 3);
}

/**
 * The Fig 6.18 local Arch II net at n = 4, X = 1.71 ms, on the time
 * scale solveLocal() picks: the smallest stage mean over 20 time
 * units.
 */
models::LocalModel
fig618LocalArchII()
{
    const models::LocalParams p = models::localParams(models::Arch::II);
    const double x = 1710.0;
    const double scale = std::max(
        1.0, std::floor(std::min({p.sendSyscall, p.recvSyscall, p.mpSend,
                                  p.mpRecv, p.mpMatch,
                                  p.hostReplyBase + x, p.mpReply}) /
                        20.0));
    return models::buildLocalModel(p, 4, x, scale, 1);
}

TEST(Analyzer, Fig618LocalArchIISolvesInFewSweeps)
{
    const models::LocalModel m = fig618LocalArchII();
    const AnalyzerResult r = analyze(m.net);
    ASSERT_TRUE(r.converged);
    ASSERT_EQ(r.numStates, 6336u);
    // Gauss-Seidel on pi (I - P) = 0 takes ~1150 sweeps here; a
    // damped power-style update x <- xP needs ~7200.
    EXPECT_LE(r.sweeps, 2000);
    const double thr = m.throughputPerUs(r.usage(models::lambdaResource));
    EXPECT_NEAR(thr, 0.000216416229756, 0.000216416229756 * 1e-6);
}

TEST(Markov, AcceleratedSolveOfFig618LocalArchII)
{
    // The largest chain the chapter-6 models solve cold (6336 states).
    // Plain Gauss-Seidel took 1153 sweeps here; the accelerated solve
    // must take under 450 and still land within 1e-8 of a solve run
    // to a tolerance of 1e-14, at every state.
    const models::LocalParams p = models::localParams(models::Arch::II);
    const double x = 1710.0;
    const models::LocalModel m = models::buildLocalModel(
        p, 4, x, models::localTimeScale(p, x), 1);
    StateSpace space(m.net);
    space.solve();
    const MarkovChain &chain = space.chain();
    ASSERT_EQ(chain.numStates(), 6336u);

    const SolveResult r = chain.solve();
    ASSERT_TRUE(r.converged);
    EXPECT_LE(r.sweeps, 450);
    SolveOptions tight;
    tight.tolerance = 1e-14;
    const SolveResult ref = chain.solve(tight);
    ASSERT_TRUE(ref.converged);
    std::size_t off = 0;
    for (std::size_t j = 0; j < chain.numStates(); ++j) {
        const double want = ref.piEmbedded[j];
        off += !(std::abs(r.piEmbedded[j] - want) <= 1e-8 * want);
    }
    EXPECT_EQ(off, 0u);
}

TEST(Analyzer, LongDelaysDoNotAliasStates)
{
    // A slow self-loop of delay 65537 beside a unit one: the slow
    // firing's remaining time takes every value 65537 ... 1, one state
    // each, and it completes once per 65537 time units.  A state key
    // that keeps 16 bits of the remaining time folds 65537 onto 1.
    PetriNet net;
    const PlaceId ps = net.addPlace("Ps", 1);
    const PlaceId pf = net.addPlace("Pf", 1);
    const TransId slow = net.addTransition("slow", 65537.0, 1.0);
    net.inputArc(ps, slow);
    net.outputArc(slow, ps);
    const TransId fast = net.addTransition("fast", 1.0, 1.0);
    net.inputArc(pf, fast);
    net.outputArc(fast, pf);

    const AnalyzerResult r = analyze(net);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.numStates, 65537u);
    const double exact = 1.0 / 65537.0;
    EXPECT_NEAR(r.firingRate[static_cast<std::size_t>(slow)], exact,
                exact * 1e-12);
    EXPECT_NEAR(r.firingRate[static_cast<std::size_t>(fast)], 1.0, 1e-12);
}

/**
 * analyze() re-driven through the public token-game API: the BFS over
 * enumerateFirings() and advanceTime(), states interned by key(), the
 * chain solved by MarkovChain, and the measures summed over the
 * states in discovery order.
 */
AnalyzerResult
redriveAnalyze(const PetriNet &net)
{
    std::unordered_map<std::string, std::size_t> index;
    std::vector<NetState> states;
    std::vector<std::size_t> frontier;
    auto intern = [&](NetState st) {
        auto [it, fresh] = index.emplace(st.key(), states.size());
        if (fresh) {
            states.push_back(std::move(st));
            frontier.push_back(it->second);
        }
        return it->second;
    };
    for (Outcome &o : enumerateFirings(net, {net.initialMarking(), {}}))
        intern(std::move(o.state));

    AnalyzerResult res;
    MarkovChain chain;
    std::vector<int> sojourn;
    while (!frontier.empty()) {
        const std::size_t s = frontier.back();
        frontier.pop_back();
        sojourn.resize(states.size(), 1);
        if (states[s].firings.empty()) {
            res.deadlock = true;
            chain.addEdge(s, s, 1.0);
            chain.setSojourn(s, 1.0);
            continue;
        }
        NetState advanced = states[s];
        sojourn[s] = advanceTime(net, advanced);
        chain.setSojourn(s, sojourn[s]);
        for (Outcome &o : enumerateFirings(net, advanced))
            chain.addEdge(s, intern(std::move(o.state)), o.prob);
    }
    sojourn.resize(states.size(), 1);

    const SolveResult sol = chain.solve();
    res.numStates = states.size();
    res.converged = sol.converged;
    res.sweeps = sol.sweeps;
    res.placeOccupancy.assign(net.numPlaces(), 0.0);
    res.firingRate.assign(net.numTransitions(), 0.0);
    double mean_cycle = 0.0;
    for (std::size_t s = 0; s < states.size(); ++s) {
        for (const Firing &f : states[s].firings) {
            const std::string &r = net.transition(f.trans).resource;
            if (!r.empty())
                res.resourceUsage[r] += sol.piTime[s];
        }
        for (std::size_t p = 0; p < net.numPlaces(); ++p) {
            res.placeOccupancy[p] +=
                sol.piTime[s] * static_cast<double>(states[s].marking[p]);
        }
        mean_cycle += sol.piEmbedded[s] * static_cast<double>(sojourn[s]);
    }
    for (std::size_t s = 0; s < states.size(); ++s) {
        for (const Firing &f : states[s].firings) {
            if (f.remaining == sojourn[s])
                res.firingRate[static_cast<std::size_t>(f.trans)] +=
                    sol.piEmbedded[s];
        }
    }
    for (double &r : res.firingRate)
        r /= mean_cycle;
    return res;
}

TEST(Analyzer, MatchesPublicApiRedriveBitForBit)
{
    // The Fig 6.15 validation nets (Arch II, 2 hosts/node, extra copy)
    // at n = 3, X = 2.85 ms, on the time scales solveNonlocalCustom()
    // picks: the client with its initial surrogate server delay S_d,
    // the server with a client wait C_d of 3 ms.
    const models::NonlocalClientParams cp = models::validationClientParams();
    const models::NonlocalServerParams sp = models::validationServerParams();
    const double x = 2850.0;
    const double sd = sp.receivePath() + sp.match + sp.replyBase + x +
                      sp.mpReply + sp.dmaIn + sp.dmaOut;
    const double cscale = std::max(
        1.0, std::floor(std::min({cp.sendSyscall, cp.dmaOut, cp.dmaIn,
                                  cp.intrService, sd,
                                  cp.mpSend + cp.dispatch}) /
                        20.0));
    const double cd = 3000.0;
    const double sscale = std::max(
        1.0, std::floor(std::min({sp.recvSyscall, sp.match,
                                  sp.replyBase + x, cd, sp.mpRecv,
                                  sp.mpReply}) /
                        20.0));

    const models::LocalModel local = fig618LocalArchII();
    const models::ClientModel client =
        models::buildClientModel(cp, 3, sd, 2, cscale);
    const models::ServerModel server =
        models::buildServerModel(sp, 3, cd, x, 2, sscale);

    // Three small nets for the corners of the state space: firings
    // that outlive a time advance (delays 3, 5 and 2 over a shared
    // server), a reachable deadlock whose absorbing row sits among the
    // transient ones, and frequencies read off the marking while the
    // selection phase is consuming it.
    PetriNet multiTick;
    {
        const PlaceId a = multiTick.addPlace("A", 2);
        const PlaceId b = multiTick.addPlace("B");
        const PlaceId srv = multiTick.addPlace("Server", 1);
        const TransId think = multiTick.addTransition("think", 3.0, 1.0);
        multiTick.inputArc(a, think);
        multiTick.outputArc(think, b);
        for (auto [name, delay, freq] :
             {std::tuple{"long", 5.0, 0.3}, std::tuple{"short", 2.0, 0.7}}) {
            const TransId t =
                multiTick.addTransition(name, delay, freq, "Busy");
            multiTick.inputArc(b, t);
            multiTick.inputArc(srv, t);
            multiTick.outputArc(t, a);
            multiTick.outputArc(t, srv);
        }
    }
    PetriNet drains;
    {
        const PlaceId p = drains.addPlace("P", 4);
        const PlaceId q = drains.addPlace("Q");
        for (auto [name, delay, freq] :
             {std::tuple{"a", 2.0, 0.5}, std::tuple{"b", 3.0, 0.5}}) {
            const TransId t = drains.addTransition(name, delay, freq, name);
            drains.inputArc(p, t);
            drains.outputArc(t, q);
        }
    }
    PetriNet weighted;
    {
        const PlaceId a = weighted.addPlace("A", 3);
        const PlaceId b = weighted.addPlace("B");
        const TransId move = weighted.addTransition(
            "move", constant(1.0), tokens(a), "Move");
        weighted.inputArc(a, move);
        weighted.outputArc(move, b);
        const TransId stay = weighted.addTransition(
            "stay", constant(2.0),
            [b](const EvalContext &ctx) { return 1.0 + ctx.marking(b); });
        weighted.inputArc(a, stay);
        weighted.outputArc(stay, a);
        const TransId back = weighted.addTransition("back", 3.0, 1.0);
        weighted.inputArc(b, back);
        weighted.outputArc(back, a);
    }

    const PetriNet *nets[] = {&local.net, &client.net, &server.net,
                              &multiTick, &drains, &weighted};
    for (const PetriNet *net : nets) {
        const AnalyzerResult lib = analyze(*net);
        const AnalyzerResult ref = redriveAnalyze(*net);
        ASSERT_TRUE(lib.converged);
        EXPECT_EQ(lib.deadlock, net == &drains);
        EXPECT_EQ(ref.deadlock, lib.deadlock);
        EXPECT_EQ(lib.numStates, ref.numStates);
        EXPECT_EQ(lib.sweeps, ref.sweeps);
        EXPECT_EQ(lib.resourceUsage, ref.resourceUsage);
        EXPECT_EQ(lib.firingRate, ref.firingRate);
        EXPECT_EQ(lib.placeOccupancy, ref.placeOccupancy);
    }
}

/** FNV-1a over the %.17g text of each number fed to it. */
struct ResultDigest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const std::string &s)
    {
        for (unsigned char c : s)
            h = (h ^ c) * 0x100000001b3ULL;
        h = (h ^ '\n') * 0x100000001b3ULL;
    }

    void
    num(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        bytes(buf);
    }

    void
    result(const AnalyzerResult &r)
    {
        num(static_cast<double>(r.numStates));
        num(r.converged);
        num(r.deadlock);
        num(r.sweeps);
        for (const auto &[name, u] : r.resourceUsage) {
            bytes(name);
            num(u);
        }
        for (double v : r.firingRate)
            num(v);
        for (double v : r.placeOccupancy)
            num(v);
    }
};

/** solution.cc's time scale: >= 20 model units in the smallest mean. */
double
pinScale(double min_mean)
{
    return std::max(1.0, std::floor(min_mean / 20.0));
}

TEST(Analyzer, ResultsArePinned)
{
    // The first fixed-point iteration of every model_solve perfbench
    // cell, analyzed field by field, then the solutions of those cells
    // and of the 20 Fig 6.15 validation cells.  The redrive test above
    // solves both of its sides with the same MarkovChain; this one
    // catches any change to the bits the solver produces.
    using models::Arch;
    constexpr double figX = 1710.0;
    ResultDigest nets;
    for (Arch a : {Arch::I, Arch::II, Arch::III}) {
        const models::LocalParams p = models::localParams(a);
        const double min_mean =
            a == Arch::I
                ? std::min({p.uniSend, p.uniRecv, p.uniMatchReply + figX})
                : std::min({p.sendSyscall, p.recvSyscall, p.mpSend,
                            p.mpRecv, p.mpMatch, p.hostReplyBase + figX,
                            p.mpReply});
        nets.result(analyze(
            models::buildLocalModel(p, 4, figX, pinScale(min_mean), 1).net));
    }

    struct NonlocalCell
    {
        models::NonlocalClientParams cp;
        models::NonlocalServerParams sp;
        int n;
        double x;
        int hosts;
    };
    std::vector<NonlocalCell> cells = {
        {models::validationClientParams(), models::validationServerParams(),
         3, 2850.0, 2},
        {models::validationClientParams(), models::validationServerParams(),
         4, 2850.0, 2}};
    for (Arch a : {Arch::I, Arch::II, Arch::III}) {
        cells.push_back({models::nonlocalClientParams(a),
                         models::nonlocalServerParams(a), 4, figX, 1});
    }
    for (const NonlocalCell &c : cells) {
        const auto &cp = c.cp;
        const auto &sp = c.sp;
        const double sd = sp.receivePath() + sp.match + sp.replyBase + c.x +
                          sp.mpReply + sp.dmaIn + sp.dmaOut;
        double cmin = std::min({cp.sendSyscall, cp.dmaOut, cp.dmaIn,
                                cp.intrService, sd});
        if (cp.arch != Arch::I)
            cmin = std::min(cmin, cp.mpSend + cp.dispatch);
        const models::ClientModel cm = models::buildClientModel(
            cp, c.n, sd, c.hosts, pinScale(cmin));
        const AnalyzerResult cr = analyze(cm.net);
        nets.result(cr);

        const double lambda =
            cm.throughputPerUs(cr.usage(models::lambdaResource));
        double cd = c.n / lambda - sd - sp.receivePath();
        double smin = std::min({sp.recvSyscall, sp.match,
                                sp.replyBase + c.x, std::max(cd, 1.0)});
        if (sp.arch != Arch::I)
            smin = std::min({smin, sp.mpRecv, sp.mpReply});
        const double floor = pinScale(smin);
        cd = std::max(cd, floor);
        nets.result(analyze(
            models::buildServerModel(sp, c.n, cd, c.x, c.hosts, floor).net));
    }

    ResultDigest solutions;
    for (Arch a : {Arch::I, Arch::II, Arch::III}) {
        solutions.num(models::solveLocalCustom(models::localParams(a), 4,
                                               figX, 1)
                          .throughputPerUs);
    }
    for (const NonlocalCell &c : cells) {
        const models::NonlocalSolution s =
            models::solveNonlocalCustom(c.cp, c.sp, c.n, c.x, c.hosts);
        solutions.num(s.throughputPerUs);
        solutions.num(s.serverDelay);
        solutions.num(s.iterations);
    }
    for (int n = 1; n <= 4; ++n) {
        for (double x : {0.0, 1140.0, 2850.0, 5700.0, 11400.0}) {
            const models::NonlocalSolution s = models::solveNonlocalCustom(
                models::validationClientParams(),
                models::validationServerParams(), n, x, 2);
            solutions.num(s.throughputPerUs);
            solutions.num(s.serverDelay);
            solutions.num(s.iterations);
        }
    }

    EXPECT_EQ(nets.h, 0xab095835183f540fULL);
    EXPECT_EQ(solutions.h, 0x3f39c3b992944d39ULL);
}

TEST(Analyzer, ZeroDelayTransitionsReadNoFiringRate)
{
    // firingRate counts completions out of tangible states, so a
    // transition of delay 0, which fires within the selection phase,
    // reads exactly 0.  mpGrab hands each request of the Arch II
    // client net to the MP, once per round trip, as does the mpSend
    // stage it feeds.
    const models::NonlocalClientParams cp =
        models::nonlocalClientParams(models::Arch::II);
    const double scale =
        pinScale(std::min({cp.sendSyscall, cp.dmaOut, cp.dmaIn,
                           cp.intrService, cp.mpSend + cp.dispatch}));
    const models::ClientModel cm =
        models::buildClientModel(cp, 2, 40.0 * scale, 1, scale);
    const AnalyzerResult r = analyze(cm.net);
    ASSERT_TRUE(r.converged);
    const auto rate = [&](const char *name) {
        return r.firingRate[static_cast<std::size_t>(
            cm.net.findTransition(name))];
    };
    EXPECT_EQ(rate("mpGrab"), 0.0);
    EXPECT_GT(rate("mpSend.exit"), 0.0);
}

TEST(Markov, HigherDampingStillConverges)
{
    MarkovChain c;
    c.addEdge(0, 0, 0.5);
    c.addEdge(0, 1, 0.5);
    c.addEdge(1, 0, 1.0);
    SolveOptions opts;
    opts.damping = 0.9;
    const SolveResult r = c.solve(opts);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.piEmbedded[0], 2.0 / 3.0, 1e-7);
}

/**
 * Compare two chains edge by edge: the state count, every sojourn, and
 * every edge's source and probability in each state's addEdge() order.
 * Returns the number of differences and describes the first.
 */
std::size_t
chainDifferences(const MarkovChain &a, const MarkovChain &b,
                 std::string &first)
{
    std::size_t diffs = 0;
    auto note = [&](std::size_t s, const std::string &what) {
        if (diffs++ == 0)
            first = "state " + std::to_string(s) + ": " + what;
    };
    if (a.numStates() != b.numStates()) {
        first = "state counts differ";
        return 1;
    }
    for (std::size_t s = 0; s < a.numStates(); ++s) {
        if (a.sojourn(s) != b.sojourn(s))
            note(s, "sojourn");
        const auto &ea = a.edgesInto(s);
        const auto &eb = b.edgesInto(s);
        if (ea.size() != eb.size()) {
            note(s, "edge count");
            continue;
        }
        for (std::size_t k = 0; k < ea.size(); ++k) {
            if (ea[k].src != eb[k].src || ea[k].prob != eb[k].prob)
                note(s, "edge " + std::to_string(k));
        }
    }
    return diffs;
}

/** Every chain edge and AnalyzerResult field, exactly equal. */
void
expectSameAnalysis(const StateSpace &space, const AnalyzerResult &got,
                   const PetriNet &fresh)
{
    const StateSpace ref(fresh);
    std::string first;
    EXPECT_EQ(chainDifferences(space.chain(), ref.chain(), first), 0u)
        << first;
    const AnalyzerResult want = analyze(fresh);
    EXPECT_EQ(got.numStates, want.numStates);
    EXPECT_EQ(got.converged, want.converged);
    EXPECT_EQ(got.deadlock, want.deadlock);
    EXPECT_EQ(got.sweeps, want.sweeps);
    EXPECT_EQ(got.resourceUsage, want.resourceUsage);
    EXPECT_EQ(got.firingRate, want.firingRate);
    EXPECT_EQ(got.placeOccupancy, want.placeOccupancy);
}

/** What a re-solved fixed point did besides matching fresh builds. */
struct ReSolved
{
    int iterations = 0;
    double serverDelay = 0.0;
    int explorations = 0;       //!< both nets, fallbacks included
    std::size_t reexpanded = 0; //!< post-advance states, both nets
};

/**
 * solveNonlocalCustom()'s fixed point with its default configuration,
 * its two nets held in StateSpaces and moved with setStageMean(); at
 * every iterate each side's re-solve is compared with a fresh build
 * at the same S_d or C_d.
 */
ReSolved
reSolveFixedPoint(const models::NonlocalClientParams &cp,
                  const models::NonlocalServerParams &sp, int n, double x,
                  int hosts)
{
    double sd = sp.receivePath() + sp.match + sp.replyBase + x +
                sp.mpReply + sp.dmaIn + sp.dmaOut;
    std::optional<models::ClientModel> cm;
    std::optional<StateSpace> cspace;
    std::optional<models::ServerModel> sm;
    std::optional<StateSpace> sspace;
    ReSolved out;
    for (int iter = 1; iter <= 60; ++iter) {
        out.iterations = iter;
        double cmin = std::min({cp.sendSyscall, cp.dmaOut, cp.dmaIn,
                                cp.intrService, sd});
        if (cp.arch != models::Arch::I)
            cmin = std::min(cmin, cp.mpSend + cp.dispatch);
        const double cscale = pinScale(cmin);
        if (cm && cm->timeScale == cscale) {
            models::setStageMean(cm->net, cm->serverDelay, sd / cscale);
        } else {
            cspace.reset();
            cm.emplace(models::buildClientModel(cp, n, sd, hosts, cscale));
            cspace.emplace(cm->net);
        }
        const AnalyzerResult cr = cspace->solve();
        out.reexpanded += cspace->reexpanded();
        expectSameAnalysis(
            *cspace, cr,
            models::buildClientModel(cp, n, sd, hosts, cscale).net);

        const double lambda =
            cm->throughputPerUs(cr.usage(models::lambdaResource));
        double cd = n / lambda - sd - sp.receivePath();
        double smin = std::min({sp.recvSyscall, sp.match,
                                sp.replyBase + x, std::max(cd, 1.0)});
        if (sp.arch != models::Arch::I)
            smin = std::min({smin, sp.mpRecv, sp.mpReply});
        const double sscale = pinScale(smin);
        cd = std::max(cd, sscale);
        if (sm && sm->timeScale == sscale) {
            models::setStageMean(sm->net, sm->clientWait, cd / sscale);
        } else {
            sspace.reset();
            sm.emplace(
                models::buildServerModel(sp, n, cd, x, hosts, sscale));
            sspace.emplace(sm->net);
        }
        const AnalyzerResult sr = sspace->solve();
        out.reexpanded += sspace->reexpanded();
        expectSameAnalysis(
            *sspace, sr,
            models::buildServerModel(sp, n, cd, x, hosts, sscale).net);

        const double arrivals =
            sr.firingRate[static_cast<std::size_t>(sm->arrival)] /
            sm->timeScale;
        const double sd_new =
            sr.placeOccupancy[static_cast<std::size_t>(sm->queue)] /
                arrivals +
            sp.dmaIn + sp.dmaOut;
        const double rel = std::abs(sd_new - sd) / std::max(sd, 1.0);
        sd = 0.5 * (sd + sd_new);
        if (rel < 1e-3)
            break;
    }
    out.serverDelay = sd;
    out.explorations = cspace->explorations() + sspace->explorations();
    return out;
}

TEST(StateSpace, ReSolvedFixedPointsMatchFreshBuilds)
{
    // Fig 6.15 at n = 4, X = 2.85 ms, and Fig 6.19 Arch II at n = 4,
    // X = 1.71 ms.  Every iterate's chain and result must equal a
    // fresh build's, and the loop must be the library's: same
    // iterations, same S_d bits.
    struct Cell
    {
        models::NonlocalClientParams cp;
        models::NonlocalServerParams sp;
        double x;
        int hosts;
    };
    const Cell cells[] = {
        {models::validationClientParams(), models::validationServerParams(),
         2850.0, 2},
        {models::nonlocalClientParams(models::Arch::II),
         models::nonlocalServerParams(models::Arch::II), 1710.0, 1}};
    for (const Cell &c : cells) {
        const ReSolved r = reSolveFixedPoint(c.cp, c.sp, 4, c.x, c.hosts);
        const models::NonlocalSolution lib =
            models::solveNonlocalCustom(c.cp, c.sp, 4, c.x, c.hosts);
        EXPECT_EQ(r.iterations, lib.iterations);
        EXPECT_EQ(r.serverDelay, lib.serverDelay);
        // The time scales hold, so each net is explored once and every
        // later iterate is a re-solve.
        EXPECT_GT(r.iterations, 2);
        EXPECT_EQ(r.explorations, 2);
        EXPECT_GT(r.reexpanded, 0u);
    }
}

TEST(StateSpace, StageMeanOfOneUnitReExplores)
{
    // At a mean of exactly 1 the loop member's frequency is 0, so the
    // surrogate stage's expansions lose their loop outcomes.
    const models::NonlocalClientParams cp =
        models::nonlocalClientParams(models::Arch::I);
    const double scale = pinScale(std::min(
        {cp.sendSyscall, cp.dmaOut, cp.dmaIn, cp.intrService}));
    models::ClientModel cm =
        models::buildClientModel(cp, 2, 40.0 * scale, 1, scale);
    StateSpace space(cm.net);
    space.solve();
    models::setStageMean(cm.net, cm.serverDelay, 1.0);
    const AnalyzerResult r = space.solve();
    EXPECT_EQ(space.explorations(), 2);
    expectSameAnalysis(space, r,
                       models::buildClientModel(cp, 2, scale, 1, scale).net);
}

TEST(StateSpace, DelayChangeReExplores)
{
    Fig66 f(4.0, 2.0);
    StateSpace space(f.net);
    space.solve();
    f.net.setDelay(f.net.findTransition("T2"), constant(3.0));
    const AnalyzerResult r = space.solve();
    EXPECT_EQ(space.explorations(), 2);
    expectSameAnalysis(space, r, Fig66(4.0, 3.0).net);
}

/**
 * A token in P fires "fast" (1 unit) or "slow" (2 units) and returns.
 * slow's frequency is the marking of M, so it is evaluated at 0
 * whenever M's token is over in N; that token leaves M after a
 * geometric time ("leave"/"stay") and comes back after one unit.
 * States with slow in flight have P empty and evaluate neither.
 */
PetriNet
partlyEvaluatedNet(double fastFreq)
{
    PetriNet net;
    const PlaceId p = net.addPlace("P", 1);
    const PlaceId m = net.addPlace("M", 1);
    const PlaceId n = net.addPlace("N");
    const TransId fast = net.addTransition("fast", 1.0, fastFreq, "Fast");
    net.inputArc(p, fast);
    net.outputArc(fast, p);
    const TransId slow =
        net.addTransition("slow", constant(2.0), tokens(m), "Slow");
    net.inputArc(p, slow);
    net.outputArc(slow, p);
    const TransId leave = net.addTransition("leave", 1.0, 0.5);
    net.inputArc(m, leave);
    net.outputArc(leave, n);
    const TransId stay = net.addTransition("stay", 1.0, 0.5);
    net.inputArc(m, stay);
    net.outputArc(stay, m);
    const TransId back = net.addTransition("back", 1.0, 1.0);
    net.inputArc(n, back);
    net.outputArc(back, m);
    return net;
}

TEST(StateSpace, PartlyEvaluatedTransitionMatchesFresh)
{
    // fast is evaluated only where P holds a token; moving its
    // frequency re-expands those states and keeps the graph.
    PetriNet net = partlyEvaluatedNet(1.0);
    StateSpace space(net);
    space.solve();
    net.setFrequency(net.findTransition("fast"), constant(2.5));
    AnalyzerResult r = space.solve();
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(space.explorations(), 1);
    EXPECT_GT(space.reexpanded(), 0u);
    expectSameAnalysis(space, r, partlyEvaluatedNet(2.5));

    // slow, evaluated at 0 while M is empty, turns positive there:
    // those expansions gain outcomes, so the net is explored afresh.
    // Where M is marked its frequency stays 1 and its outcomes hold.
    net.setFrequency(net.findTransition("slow"), constant(1.0));
    r = space.solve();
    EXPECT_EQ(space.explorations(), 2);
    PetriNet fresh = partlyEvaluatedNet(2.5);
    fresh.setFrequency(fresh.findTransition("slow"), constant(1.0));
    expectSameAnalysis(space, r, fresh);

    // An unchanged net re-solves without re-expanding.
    const AnalyzerResult again = space.solve();
    EXPECT_EQ(space.reexpanded(), 0u);
    expectSameAnalysis(space, again, fresh);
}

} // namespace
