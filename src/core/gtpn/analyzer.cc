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

} // namespace

AnalyzerResult
analyze(const PetriNet &net, const AnalyzerOptions &opts)
{
    AnalyzerResult res;

    StateStore states;
    std::vector<std::size_t> frontier;
    std::vector<int> sojourn;
    FiringExpander ex(net);

    // The selection phase is a function of the post-advance state
    // alone, and many tangible states advance into the same one, so
    // each post-advance state is expanded once.  Entry a of `advanced`
    // keeps its outcomes' state ids and probabilities at
    // [succEnd[a], succEnd[a + 1]) of succ/succProb.
    StateStore advanced;
    std::vector<std::uint32_t> succ;
    std::vector<double> succProb;
    std::vector<std::size_t> succEnd{0};

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

    MarkovChain chain;
    const std::size_t places = net.numPlaces();

    while (!frontier.empty()) {
        const std::size_t s = frontier.back();
        frontier.pop_back();

        if (states.size() > opts.maxStates)
            hsipc_panic("GTPN reachability graph exceeds maxStates");

        if (states.length(s) == places) {
            // Deadlock (no firing in flight): treat as absorbing with
            // unit sojourn so the solver still runs; flag it for the
            // caller.
            res.deadlock = true;
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
        }
        for (std::size_t k = succEnd[a]; k < succEnd[a + 1]; ++k)
            chain.addEdge(s, succ[k], succProb[k]);
    }

    const std::size_t n = states.size();
    res.numStates = n;
    const SolveResult sol = chain.solve(opts.solve);
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

} // namespace hsipc::gtpn
