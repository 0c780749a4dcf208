/**
 * @file
 * GTPN firing semantics (the "token game").
 *
 * A state of the game is a residual marking plus a multiset of
 * in-flight firings (transition, remaining time).  From a tangible
 * state the game proceeds in two phases:
 *
 *  1. time advance: the minimum remaining time elapses, completed
 *     firings deposit their output tokens;
 *  2. firing selection: while any transition is enabled (inputs
 *     satisfied and frequency nonzero), the conflict set of the
 *     lowest-numbered enabled transition is resolved by choosing one
 *     member with probability proportional to its frequency.  The
 *     chosen transition removes its input tokens; zero-delay firings
 *     deposit their outputs immediately (vanishing firings), timed
 *     firings join the in-flight multiset.  Selection repeats until
 *     no transition is enabled, so firing is maximal.
 *
 * FiringExpander expands phase 2 into the complete probability
 * distribution over successor tangible states (used by the exact
 * analyzer, and by enumerateFirings(), which decodes its outcomes);
 * sampleFirings() draws one path (used by the Monte Carlo simulator).
 */

#ifndef HSIPC_GTPN_TOKENGAME_HH
#define HSIPC_GTPN_TOKENGAME_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/gtpn/net.hh"

namespace hsipc::gtpn
{

/** One in-flight firing of a transition. */
struct Firing
{
    TransId trans;
    int remaining;

    bool
    operator<(const Firing &other) const
    {
        return trans != other.trans ? trans < other.trans
                                    : remaining < other.remaining;
    }

    bool
    operator==(const Firing &other) const
    {
        return trans == other.trans && remaining == other.remaining;
    }
};

/** A tangible (or intermediate) state of the token game. */
struct NetState
{
    std::vector<int> marking;    //!< residual tokens per place
    std::vector<Firing> firings; //!< sorted in-flight multiset

    /**
     * Canonical byte-string key for hashing/deduplication: four
     * little-endian bytes per marking entry, a separator, then four
     * per firing field, so no two states of one net share a key.
     */
    std::string key() const;
};

/** A successor state with the probability of reaching it. */
struct Outcome
{
    NetState state;
    double prob;
};

/** An enabled transition with its evaluated frequency. */
struct Candidate
{
    TransId trans;
    double freq;
};

/** True when the residual marking satisfies all input arcs of @p t. */
bool inputsSatisfied(const PetriNet &net, const std::vector<int> &marking,
                     TransId t);

/**
 * Advance time by the minimum remaining firing time; completed firings
 * deposit their outputs.  Returns the elapsed time.  @p state must
 * have at least one in-flight firing.
 */
int advanceTime(const PetriNet &net, NetState &state);

/**
 * Run the firing-selection phase exhaustively, returning the
 * distribution of resulting tangible states.  Outcomes with identical
 * states are merged into the first one's slot, in first-occurrence
 * order.  A decoding wrapper over FiringExpander.
 */
std::vector<Outcome> enumerateFirings(const PetriNet &net,
                                      const NetState &start);

/** Run the firing-selection phase once, choosing probabilistically. */
void sampleFirings(const PetriNet &net, NetState &state, Rng &rng);

/** Per-transition in-flight counts of a state (for EvalContext). */
std::vector<int> firingCounts(const PetriNet &net, const NetState &state);

/**
 * The exhaustive selection phase on working buffers.
 *
 * Outcomes come out as state words: numPlaces() marking words, then
 * one (trans, remaining) pair per in-flight firing in Firing order.
 * Every word is a non-negative int, and a state with no firings (a
 * deadlock) is exactly numPlaces() words long.
 *
 * expand() works on one marking, one count vector and one firing
 * stack: each choice is applied, recursed into and undone, and each
 * depth keeps its conflict set in one shared candidate stack.  A leaf
 * encodes its sorted firings after the previous outcomes' words and
 * merges into an equal earlier outcome by a linear scan (an expansion
 * has a handful of outcomes, fewer than a hash table pays for).  Once
 * its buffers have grown, an expander allocates nothing.
 */
class FiringExpander
{
  public:
    explicit FiringExpander(const PetriNet &net);

    /** Load @p state into the working buffers (firings in any order). */
    void load(const NetState &state);

    /**
     * Load the @p len state words at @p words (at least one firing)
     * and advance time on them as advanceTime() would, ready for
     * expand().  The post-advance state is also kept as words (the
     * marking after deposits, then the still-running firings in
     * Firing order), which with the net alone decide what expand()
     * yields.  Returns the elapsed time.
     */
    int advance(const std::uint32_t *words, std::size_t len);

    const std::uint32_t *advancedWords() const { return advWords.data(); }
    std::size_t advancedLength() const { return advWords.size(); }

    /** The hash of advancedWords(), as hash() hashes an outcome. */
    std::uint64_t advancedHash() const { return advHash; }

    /**
     * Load a post-advance state from its words, as advancedWords()
     * gives them, ready for expand().
     */
    void loadAdvanced(const std::uint32_t *words, std::size_t len);

    /**
     * Switch recording on or off.  While on, each expand() sets bit t
     * of evaluated() (bit t % 64 of word t / 64) for every transition
     * t whose inputs some selection step satisfied: those are the
     * transitions whose frequency expand() evaluated, a superset of
     * those whose delay it evaluated.
     */
    void recordEvaluated(bool on);

    /** Expand the loaded state, replacing the previous outcomes. */
    void expand();

    /** The last expand()'s evaluated transitions; empty when off. */
    const std::vector<std::uint64_t> &evaluated() const { return evalBits; }

    std::size_t numOutcomes() const { return outProb.size(); }

    const std::uint32_t *
    words(std::size_t i) const
    {
        return outWords.data() + outStart[i];
    }

    std::size_t
    length(std::size_t i) const
    {
        return outStart[i + 1] - outStart[i];
    }

    /** A 64-bit hash of outcome @p i's words. */
    std::uint64_t hash(std::size_t i) const { return outHash[i]; }

    /** Probability of outcome @p i, summed over its raw paths in order. */
    double prob(std::size_t i) const { return outProb[i]; }

    /** Outcome @p i as a NetState. */
    NetState decode(std::size_t i) const;

  private:
    void recurse(double prob, int depth);
    void leaf(double prob);

    const PetriNet &net;
    std::vector<int> marking;
    std::vector<int> counts;
    std::vector<Firing> firings;  //!< in-flight stack, unsorted
    std::vector<Firing> sorted;   //!< leaf scratch
    std::vector<Candidate> cands; //!< per-depth conflict sets, stacked

    std::vector<std::uint32_t> advWords;
    std::uint64_t advHash = 0;
    std::vector<std::uint64_t> evalBits; //!< empty unless recording

    std::vector<std::uint32_t> outWords;
    std::vector<std::size_t> outStart; //!< numOutcomes() + 1 offsets
    std::vector<std::uint64_t> outHash;
    std::vector<double> outProb;
};

} // namespace hsipc::gtpn

#endif // HSIPC_GTPN_TOKENGAME_HH
