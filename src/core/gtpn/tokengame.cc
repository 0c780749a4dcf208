#include "core/gtpn/tokengame.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hsipc::gtpn
{

namespace
{

/**
 * Maximum depth of the selection recursion (vanishing-loop guard).
 * Must be low enough that the guard panics before the recursion in
 * FiringExpander::recurse exhausts the native stack — sanitizer
 * builds inflate each frame to several KB.  A real selection phase
 * is bounded by the zero-delay transitions firable in one instant,
 * far below this.
 */
constexpr int maxSelectionDepth = 512;

/** Evaluate the delay of @p t in context and validate it. */
int
evalDelay(const PetriNet &net, TransId t, const EvalContext &ctx)
{
    const double d = net.transition(t).delay(ctx);
    hsipc_assert(d >= 0.0);
    const int di = static_cast<int>(std::lround(d));
    hsipc_assert(std::abs(d - di) < 1e-9);
    return di;
}

/** True when transitions @p a and @p b share an input place. */
bool
sharesInput(const PetriNet &net, TransId a, TransId b)
{
    for (const Arc &ia : net.transition(a).inputs) {
        for (const Arc &ib : net.transition(b).inputs) {
            if (ia.id == ib.id)
                return true;
        }
    }
    return false;
}

/**
 * Append to @p out the conflict set of the lowest-numbered enabled
 * transition with a positive frequency: it and every other such
 * transition sharing an input place with it (the thesis' nets only
 * conflict over identical input sets, so direct sharing is
 * sufficient).  Every transition whose inputs are satisfied has its
 * frequency evaluated and checked, and, when @p evaluated is not
 * null, its bit set there.  Returns the set's total frequency, summed
 * in transition order; nothing is appended when no transition is
 * enabled.
 */
double
appendConflictSet(const PetriNet &net, const std::vector<int> &marking,
                  const std::vector<int> &counts, std::vector<Candidate> &out,
                  std::uint64_t *evaluated = nullptr)
{
    const EvalContext ctx(marking, counts);
    TransId head = -1;
    double total = 0.0;
    const auto n = static_cast<TransId>(net.numTransitions());
    for (TransId t = 0; t < n; ++t) {
        if (!inputsSatisfied(net, marking, t))
            continue;
        if (evaluated)
            evaluated[t / 64] |= std::uint64_t{1} << (t % 64);
        const double f = net.transition(t).frequency(ctx);
        hsipc_assert(f >= 0.0);
        if (!(f > 0.0))
            continue;
        if (head < 0)
            head = t;
        else if (!sharesInput(net, head, t))
            continue;
        out.push_back(Candidate{t, f});
        total += f;
    }
    return total;
}

/** Remove the input tokens of @p t from @p marking. */
void
consumeInputs(const PetriNet &net, std::vector<int> &marking, TransId t)
{
    for (const Arc &a : net.transition(t).inputs) {
        marking[static_cast<std::size_t>(a.id)] -= a.multiplicity;
        hsipc_assert(marking[static_cast<std::size_t>(a.id)] >= 0);
    }
}

/** Give the input tokens of @p t back to @p marking. */
void
restoreInputs(const PetriNet &net, std::vector<int> &marking, TransId t)
{
    for (const Arc &a : net.transition(t).inputs)
        marking[static_cast<std::size_t>(a.id)] += a.multiplicity;
}

/** Deposit the output tokens of @p t into @p marking. */
void
produceOutputs(const PetriNet &net, std::vector<int> &marking, TransId t)
{
    for (const Arc &a : net.transition(t).outputs)
        marking[static_cast<std::size_t>(a.id)] += a.multiplicity;
}

/** Take the output tokens of @p t back out of @p marking. */
void
withdrawOutputs(const PetriNet &net, std::vector<int> &marking, TransId t)
{
    for (const Arc &a : net.transition(t).outputs)
        marking[static_cast<std::size_t>(a.id)] -= a.multiplicity;
}

/** One state word; every stored word is a non-negative int. */
std::uint32_t
stateWord(int v)
{
    hsipc_assert(v >= 0);
    return static_cast<std::uint32_t>(v);
}

/** Start value of a state hash. */
constexpr std::uint64_t hashSeed = 0xcbf29ce484222325ULL;

/** Fold one word into a running state hash. */
std::uint64_t
mixWord(std::uint64_t h, std::uint32_t w)
{
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 32);
}

/**
 * Append the state words of @p marking and @p firings (already in
 * Firing order) to @p out, returning their hash.
 */
std::uint64_t
encodeState(const std::vector<int> &marking,
            const std::vector<Firing> &firings,
            std::vector<std::uint32_t> &out)
{
    std::uint64_t h = hashSeed;
    for (int m : marking) {
        out.push_back(stateWord(m));
        h = mixWord(h, out.back());
    }
    for (const Firing &f : firings) {
        out.push_back(stateWord(f.trans));
        h = mixWord(h, out.back());
        out.push_back(stateWord(f.remaining));
        h = mixWord(h, out.back());
    }
    return h;
}

/** Append the four little-endian bytes of @p v to @p k. */
void
appendBytes(std::string &k, int v)
{
    const auto u = static_cast<std::uint32_t>(v);
    for (int shift = 0; shift < 32; shift += 8)
        k.push_back(static_cast<char>((u >> shift) & 0xff));
}

} // namespace

std::string
NetState::key() const
{
    std::string k;
    k.reserve(marking.size() * 4 + firings.size() * 8 + 1);
    for (int m : marking) {
        hsipc_assert(m >= 0);
        appendBytes(k, m);
    }
    k.push_back('\x01');
    for (const Firing &f : firings) {
        appendBytes(k, f.trans);
        appendBytes(k, f.remaining);
    }
    return k;
}

bool
inputsSatisfied(const PetriNet &net, const std::vector<int> &marking,
                TransId t)
{
    for (const Arc &a : net.transition(t).inputs) {
        if (marking[static_cast<std::size_t>(a.id)] < a.multiplicity)
            return false;
    }
    return true;
}

int
advanceTime(const PetriNet &net, NetState &state)
{
    hsipc_assert(!state.firings.empty());
    int step = std::numeric_limits<int>::max();
    for (const Firing &f : state.firings)
        step = std::min(step, f.remaining);

    std::vector<Firing> still;
    still.reserve(state.firings.size());
    for (Firing &f : state.firings) {
        f.remaining -= step;
        if (f.remaining == 0)
            produceOutputs(net, state.marking, f.trans);
        else
            still.push_back(f);
    }
    state.firings = std::move(still);
    return step;
}

std::vector<Outcome>
enumerateFirings(const PetriNet &net, const NetState &start)
{
    FiringExpander ex(net);
    ex.load(start);
    ex.expand();
    std::vector<Outcome> out;
    out.reserve(ex.numOutcomes());
    for (std::size_t i = 0; i < ex.numOutcomes(); ++i)
        out.push_back(Outcome{ex.decode(i), ex.prob(i)});
    return out;
}

void
sampleFirings(const PetriNet &net, NetState &state, Rng &rng)
{
    std::vector<int> counts = firingCounts(net, state);
    std::vector<Candidate> set;
    for (int depth = 0; ; ++depth) {
        if (depth > maxSelectionDepth)
            hsipc_panic("GTPN selection did not terminate (vanishing loop?)");

        set.clear();
        const double total =
            appendConflictSet(net, state.marking, counts, set);
        if (set.empty())
            break;

        double pick = rng.uniform() * total;
        const Candidate *chosen = &set.back();
        for (const Candidate &c : set) {
            if (pick < c.freq) {
                chosen = &c;
                break;
            }
            pick -= c.freq;
        }

        const EvalContext ctx(state.marking, counts);
        const int delay = evalDelay(net, chosen->trans, ctx);
        consumeInputs(net, state.marking, chosen->trans);
        if (delay == 0) {
            produceOutputs(net, state.marking, chosen->trans);
        } else {
            state.firings.push_back(Firing{chosen->trans, delay});
            ++counts[static_cast<std::size_t>(chosen->trans)];
        }
    }
    std::sort(state.firings.begin(), state.firings.end());
}

std::vector<int>
firingCounts(const PetriNet &net, const NetState &state)
{
    std::vector<int> counts(net.numTransitions(), 0);
    for (const Firing &f : state.firings)
        ++counts[static_cast<std::size_t>(f.trans)];
    return counts;
}

FiringExpander::FiringExpander(const PetriNet &n)
    : net(n), counts(n.numTransitions(), 0), outStart{0}
{}

void
FiringExpander::recordEvaluated(bool on)
{
    evalBits.assign(on ? (net.numTransitions() + 63) / 64 : 0, 0);
}

void
FiringExpander::load(const NetState &state)
{
    hsipc_assert(state.marking.size() == net.numPlaces());
    marking = state.marking;
    firings = state.firings;
    std::fill(counts.begin(), counts.end(), 0);
    for (const Firing &f : firings)
        ++counts[static_cast<std::size_t>(f.trans)];
}

int
FiringExpander::advance(const std::uint32_t *words, std::size_t len)
{
    const std::size_t places = net.numPlaces();
    hsipc_assert(len > places && (len - places) % 2 == 0);
    marking.assign(words, words + places);

    std::uint32_t step = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t k = places + 1; k < len; k += 2)
        step = std::min(step, words[k]);

    firings.clear();
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t k = places; k < len; k += 2) {
        const auto t = static_cast<TransId>(words[k]);
        const auto rest = static_cast<int>(words[k + 1] - step);
        if (rest == 0) {
            produceOutputs(net, marking, t);
        } else {
            firings.push_back(Firing{t, rest});
            ++counts[static_cast<std::size_t>(t)];
        }
    }
    // Every firing's remaining time dropped by the same step, so the
    // survivors keep the sorted order of the words they came from.
    advWords.clear();
    advHash = encodeState(marking, firings, advWords);
    return static_cast<int>(step);
}

void
FiringExpander::loadAdvanced(const std::uint32_t *words, std::size_t len)
{
    const std::size_t places = net.numPlaces();
    hsipc_assert(len >= places && (len - places) % 2 == 0);
    marking.assign(words, words + places);
    firings.clear();
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t k = places; k < len; k += 2) {
        const auto t = static_cast<TransId>(words[k]);
        firings.push_back(Firing{t, static_cast<int>(words[k + 1])});
        ++counts[static_cast<std::size_t>(t)];
    }
}

void
FiringExpander::expand()
{
    outWords.clear();
    outStart.resize(1);
    outHash.clear();
    outProb.clear();
    std::fill(evalBits.begin(), evalBits.end(), 0);
    recurse(1.0, 0);
}

NetState
FiringExpander::decode(std::size_t i) const
{
    const std::uint32_t *w = words(i);
    const std::size_t len = length(i);
    const std::size_t places = net.numPlaces();
    NetState st;
    st.marking.assign(w, w + places);
    for (std::size_t k = places; k < len; k += 2) {
        st.firings.push_back(Firing{static_cast<TransId>(w[k]),
                                    static_cast<int>(w[k + 1])});
    }
    return st;
}

void
FiringExpander::recurse(double prob, int depth)
{
    if (depth > maxSelectionDepth)
        hsipc_panic("GTPN selection did not terminate (vanishing loop?)");

    const std::size_t base = cands.size();
    std::uint64_t *const eval = evalBits.empty() ? nullptr : evalBits.data();
    const double total =
        appendConflictSet(net, marking, counts, cands, eval);
    const std::size_t end = cands.size();
    if (end == base) {
        leaf(prob);
        return;
    }

    // Deeper levels push onto cands (and may reallocate it), so each
    // candidate is copied out before recursing.
    for (std::size_t i = base; i < end; ++i) {
        const Candidate c = cands[i];
        const double p = prob * c.freq / total;
        const EvalContext ctx(marking, counts);
        const int delay = evalDelay(net, c.trans, ctx);
        consumeInputs(net, marking, c.trans);
        if (delay == 0) {
            produceOutputs(net, marking, c.trans);
            recurse(p, depth + 1);
            withdrawOutputs(net, marking, c.trans);
        } else {
            firings.push_back(Firing{c.trans, delay});
            ++counts[static_cast<std::size_t>(c.trans)];
            recurse(p, depth + 1);
            --counts[static_cast<std::size_t>(c.trans)];
            firings.pop_back();
        }
        restoreInputs(net, marking, c.trans);
    }
    cands.resize(base);
}

void
FiringExpander::leaf(double prob)
{
    sorted.assign(firings.begin(), firings.end());
    std::sort(sorted.begin(), sorted.end());

    // Encode after the previous outcomes; drop the words again if an
    // earlier outcome holds the same state.
    const std::size_t at = outWords.size();
    const std::uint64_t h = encodeState(marking, sorted, outWords);
    const std::size_t len = outWords.size() - at;

    for (std::size_t i = 0; i < outProb.size(); ++i) {
        if (outHash[i] == h && length(i) == len &&
            std::equal(outWords.begin() + static_cast<std::ptrdiff_t>(at),
                       outWords.end(), words(i))) {
            outProb[i] += prob;
            outWords.resize(at);
            return;
        }
    }
    outStart.push_back(outWords.size());
    outHash.push_back(h);
    outProb.push_back(prob);
}

} // namespace hsipc::gtpn
