#include "core/gtpn/analyzer.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/logging.hh"

namespace hsipc::gtpn
{

namespace
{

/**
 * A set of states: their words (FiringExpander's encoding) back to
 * back in one arena, one start offset per state, and an
 * open-addressing table of state ids keyed by the words' hash.  Ids
 * are dense and assigned in insertion order.
 */
class StateStore
{
  public:
    StateStore() : slots(1024, 0) {}

    std::size_t size() const { return hashes.size(); }

    const std::uint32_t *
    words(std::size_t s) const
    {
        return arena.data() + start[s];
    }

    std::size_t
    length(std::size_t s) const
    {
        return start[s + 1] - start[s];
    }

    /**
     * The id of the @p len words at @p w (with hash @p h), appending
     * them as a new state when absent.  @p fresh reports which.
     */
    std::size_t
    intern(const std::uint32_t *w, std::size_t len, std::uint64_t h,
           bool &fresh)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = static_cast<std::size_t>(h) & mask;
        for (; slots[i] != 0; i = (i + 1) & mask) {
            const std::size_t s = slots[i] - 1;
            if (hashes[s] == h && length(s) == len &&
                std::equal(w, w + len, words(s))) {
                fresh = false;
                return s;
            }
        }

        if (arena.size() + len > std::numeric_limits<std::uint32_t>::max())
            hsipc_panic("GTPN state arena exceeds 32-bit offsets; "
                        "lower maxStates");
        const std::size_t id = size();
        arena.insert(arena.end(), w, w + len);
        start.push_back(static_cast<std::uint32_t>(arena.size()));
        hashes.push_back(h);
        slots[i] = static_cast<std::uint32_t>(id + 1);
        if (2 * size() > slots.size())
            grow();
        fresh = true;
        return id;
    }

  private:
    /** Double the table and re-place every id by its stored hash. */
    void
    grow()
    {
        slots.assign(slots.size() * 2, 0);
        const std::size_t mask = slots.size() - 1;
        for (std::size_t s = 0; s < size(); ++s) {
            std::size_t i = static_cast<std::size_t>(hashes[s]) & mask;
            while (slots[i] != 0)
                i = (i + 1) & mask;
            slots[i] = static_cast<std::uint32_t>(s + 1);
        }
    }

    std::vector<std::uint32_t> arena;
    std::vector<std::uint32_t> start{0}; //!< size() + 1 offsets
    std::vector<std::uint64_t> hashes;   //!< per state id
    std::vector<std::uint32_t> slots;    //!< id + 1; 0 is empty
};

/** advOf's mark for a deadlock state, which has no time advance. */
constexpr std::uint32_t noAdvance = std::numeric_limits<std::uint32_t>::max();

/**
 * True when the transition sets @p a and @p b, @p words words each in
 * FiringExpander::evaluated()'s layout, share a transition.
 */
bool
anyShared(const std::uint64_t *a, const std::uint64_t *b, std::size_t words)
{
    for (std::size_t i = 0; i < words; ++i) {
        if ((a[i] & b[i]) != 0)
            return true;
    }
    return false;
}

/** True when outcome @p i of @p ex is state @p s of @p states. */
bool
sameState(const FiringExpander &ex, std::size_t i, const StateStore &states,
          std::size_t s)
{
    return ex.length(i) == states.length(s) &&
           std::equal(ex.words(i), ex.words(i) + ex.length(i),
                      states.words(s));
}

} // namespace

/**
 * One exploration of a net: the tangible states in discovery order
 * with their sojourns, each post-advance state's outcomes, and the
 * chain their edges make.  When recording, it also keeps what a
 * StateSpace needs to re-weigh that chain: the order the states were
 * expanded in, each state's post-advance state and each expansion's
 * evaluated transitions.
 */
class Exploration
{
  public:
    Exploration(const PetriNet &net, std::size_t maxStates, bool record);

    StateStore states;
    std::vector<int> sojourn;
    MarkovChain chain;
    bool deadlock = false;

    // The selection phase is a function of the post-advance state
    // alone, and many tangible states advance into the same one, so
    // each post-advance state is expanded once.  Entry a of `advanced`
    // keeps its outcomes' state ids and probabilities at
    // [succEnd[a], succEnd[a + 1]) of succ/succProb.
    StateStore advanced;
    std::vector<std::uint32_t> succ;
    std::vector<double> succProb;
    std::vector<std::size_t> succEnd{0};

    FiringExpander ex;

    // Kept only when recording.  The seed expansion's outcomes are
    // states 0 .. seeds - 1.  `evaluated` holds `words` words per
    // expansion: the seed's first, then advanced state a's at a + 1.
    std::size_t seeds = 0;
    std::size_t words = 0;
    std::vector<std::uint64_t> evaluated;
    std::vector<std::uint32_t> expandOrder;
    std::vector<std::uint32_t> advOf; //!< per state; noAdvance if deadlock
};

Exploration::Exploration(const PetriNet &net, std::size_t maxStates,
                         bool record)
    : ex(net)
{
    std::vector<std::size_t> frontier;
    ex.recordEvaluated(record);
    words = ex.evaluated().size();
    auto keepEvaluated = [&] {
        evaluated.insert(evaluated.end(), ex.evaluated().begin(),
                         ex.evaluated().end());
    };

    // Intern outcome i of the last expansion, queueing it if new.
    auto intern = [&](std::size_t i) {
        bool fresh = false;
        const std::size_t t =
            states.intern(ex.words(i), ex.length(i), ex.hash(i), fresh);
        if (fresh) {
            frontier.push_back(t);
            sojourn.push_back(1);
        }
        return t;
    };

    // Seed: run the selection phase on the initial marking.  The
    // stationary distribution does not depend on how the initial
    // probability splits, so each outcome simply seeds the BFS.
    ex.load(NetState{net.initialMarking(), {}});
    ex.expand();
    for (std::size_t i = 0; i < ex.numOutcomes(); ++i)
        intern(i);
    seeds = states.size();
    keepEvaluated();

    const std::size_t places = net.numPlaces();

    while (!frontier.empty()) {
        const std::size_t s = frontier.back();
        frontier.pop_back();

        if (states.size() > maxStates)
            hsipc_panic("GTPN reachability graph exceeds maxStates");

        if (record) {
            expandOrder.push_back(static_cast<std::uint32_t>(s));
            advOf.resize(states.size(), noAdvance);
        }

        if (states.length(s) == places) {
            // Deadlock (no firing in flight): treat as absorbing with
            // unit sojourn so the solver still runs; flag it for the
            // caller.
            deadlock = true;
            chain.addEdge(s, s, 1.0);
            chain.setSojourn(s, 1.0);
            continue;
        }

        const int step = ex.advance(states.words(s), states.length(s));
        sojourn[s] = step;
        chain.setSojourn(s, static_cast<double>(step));

        // A repeat gets the recorded outcomes.  Each was interned
        // when first recorded, so interning it again would change
        // nothing: ids, discovery order and edges match a re-expansion.
        bool fresh = false;
        const std::size_t a =
            advanced.intern(ex.advancedWords(), ex.advancedLength(),
                            ex.advancedHash(), fresh);
        if (fresh) {
            ex.expand();
            for (std::size_t i = 0; i < ex.numOutcomes(); ++i) {
                succ.push_back(static_cast<std::uint32_t>(intern(i)));
                succProb.push_back(ex.prob(i));
            }
            succEnd.push_back(succ.size());
            keepEvaluated();
        }
        if (record)
            advOf[s] = static_cast<std::uint32_t>(a);
        for (std::size_t k = succEnd[a]; k < succEnd[a + 1]; ++k)
            chain.addEdge(s, succ[k], succProb[k]);
    }
}

namespace
{

/** Solve @p g's chain and read the measures off its states. */
AnalyzerResult
weigh(const PetriNet &net, const Exploration &g, const SolveOptions &opts)
{
    AnalyzerResult res;
    res.deadlock = g.deadlock;
    const StateStore &states = g.states;
    const std::vector<int> &sojourn = g.sojourn;
    const std::size_t places = net.numPlaces();

    const std::size_t n = states.size();
    res.numStates = n;
    const SolveResult sol = g.chain.solve(opts);
    res.converged = sol.converged;
    res.sweeps = sol.sweeps;

    // Time-averaged resource usage: every in-flight firing of a
    // tangible state is active throughout that state's sojourn.
    // Firings are (trans, remaining) word pairs after the marking.
    for (std::size_t s = 0; s < n; ++s) {
        const std::uint32_t *w = states.words(s);
        for (std::size_t k = places; k < states.length(s); k += 2) {
            const std::string &r =
                net.transition(static_cast<TransId>(w[k])).resource;
            if (!r.empty())
                res.resourceUsage[r] += sol.piTime[s];
        }
    }

    // Time-averaged marking per place.
    res.placeOccupancy.assign(places, 0.0);
    for (std::size_t s = 0; s < n; ++s) {
        const std::uint32_t *w = states.words(s);
        for (std::size_t p = 0; p < places; ++p)
            res.placeOccupancy[p] += sol.piTime[s] * static_cast<double>(w[p]);
    }

    // Firing rates: completions when leaving state s are the in-flight
    // firings whose remaining time equals the sojourn; the long-run
    // rate is the embedded-visit-weighted count over mean cycle time.
    res.firingRate.assign(net.numTransitions(), 0.0);
    double mean_cycle = 0.0;
    for (std::size_t s = 0; s < n; ++s)
        mean_cycle += sol.piEmbedded[s] * static_cast<double>(sojourn[s]);
    if (mean_cycle > 0.0) {
        for (std::size_t s = 0; s < n; ++s) {
            const std::uint32_t *w = states.words(s);
            const auto due = static_cast<std::uint32_t>(sojourn[s]);
            for (std::size_t k = places; k < states.length(s); k += 2) {
                if (w[k + 1] == due)
                    res.firingRate[w[k]] += sol.piEmbedded[s];
            }
        }
        for (double &r : res.firingRate)
            r /= mean_cycle;
    }
    return res;
}

} // namespace

AnalyzerResult
analyze(const PetriNet &net, const AnalyzerOptions &opts)
{
    const Exploration g(net, opts.maxStates, false);
    return weigh(net, g, opts.solve);
}

StateSpace::StateSpace(const PetriNet &n, const AnalyzerOptions &o)
    : net(n), opts(o)
{
    explore();
}

StateSpace::~StateSpace() = default;

const MarkovChain &
StateSpace::chain() const
{
    return graph->chain;
}

void
StateSpace::explore()
{
    graph.reset();
    graph = std::make_unique<Exploration>(net, opts.maxStates, true);
    seen = net.revision();
    ++explored;
}

AnalyzerResult
StateSpace::solve()
{
    lastReexpanded = 0;
    if (net.shapeRevision() > seen || !reweigh())
        explore();
    seen = net.revision();
    return weigh(net, *graph, opts.solve);
}

bool
StateSpace::reweigh()
{
    Exploration &g = *graph;
    const std::size_t words = g.words;
    std::vector<std::uint64_t> changed(words, 0);
    bool any = false;
    for (std::size_t t = 0; t < net.numTransitions(); ++t) {
        if (net.frequencyRevision(static_cast<TransId>(t)) > seen) {
            changed[t / 64] |= std::uint64_t{1} << (t % 64);
            any = true;
        }
    }
    if (!any)
        return true;

    FiringExpander &ex = g.ex;
    auto touched = [&](std::size_t slot) {
        return anyShared(g.evaluated.data() + slot * words, changed.data(),
                         words);
    };
    auto keepEvaluated = [&](std::size_t slot) {
        std::copy(ex.evaluated().begin(), ex.evaluated().end(),
                  g.evaluated.begin() +
                      static_cast<std::ptrdiff_t>(slot * words));
    };

    // The seed's probabilities feed no edge; only its states must hold.
    if (touched(0)) {
        ex.load(NetState{net.initialMarking(), {}});
        ex.expand();
        if (ex.numOutcomes() != g.seeds)
            return false;
        for (std::size_t i = 0; i < g.seeds; ++i) {
            if (!sameState(ex, i, g.states, i))
                return false;
        }
        keepEvaluated(0);
    }

    std::vector<char> redone(g.advanced.size(), 0);
    for (std::size_t a = 0; a < g.advanced.size(); ++a) {
        if (!touched(a + 1))
            continue;
        ex.loadAdvanced(g.advanced.words(a), g.advanced.length(a));
        ex.expand();
        const std::size_t first = g.succEnd[a];
        if (ex.numOutcomes() != g.succEnd[a + 1] - first)
            return false;
        for (std::size_t i = 0; i < ex.numOutcomes(); ++i) {
            if (!sameState(ex, i, g.states, g.succ[first + i]))
                return false;
            g.succProb[first + i] = ex.prob(i);
        }
        keepEvaluated(a + 1);
        redone[a] = 1;
        ++lastReexpanded;
    }
    if (lastReexpanded == 0)
        return true;

    // Replay the exploration's addEdge() calls to find where each
    // landed among its destination's edges, and overwrite the
    // re-expanded ones there.
    std::vector<std::uint32_t> filled(g.states.size(), 0);
    for (const std::uint32_t s : g.expandOrder) {
        const std::uint32_t a = g.advOf[s];
        if (a == noAdvance) {
            ++filled[s];
            continue;
        }
        for (std::size_t k = g.succEnd[a]; k < g.succEnd[a + 1]; ++k) {
            const std::uint32_t pos = filled[g.succ[k]]++;
            if (redone[a])
                g.chain.setEdgeProb(g.succ[k], pos, g.succProb[k]);
        }
    }
    return true;
}

} // namespace hsipc::gtpn
