/**
 * @file
 * Generalized Timed Petri Net (GTPN) representation.
 *
 * This is a re-implementation of the modeling formalism of Holliday &
 * Vernon that the thesis uses to evaluate its four node architectures
 * (chapter 6).  A net consists of places, transitions and directed
 * arcs (a multigraph: an arc may carry a multiplicity).  Each
 * transition carries an attribute vector:
 *
 *  - delay:     a deterministic firing duration in model time units
 *               (the thesis uses microseconds); may be state dependent,
 *  - frequency: a relative weight used to resolve conflicts between
 *               transitions competing for the same tokens; may be state
 *               dependent (a frequency of zero disables a transition),
 *  - resource:  an optional name; the analyzer reports the
 *               time-averaged number of simultaneous firings of all
 *               transitions bearing each resource name.
 *
 * State-dependent expressions are composed from the combinators at the
 * bottom of this header; they may inspect the current residual marking
 * and the set of in-flight (currently firing) transitions, which is
 * exactly the power the thesis' models need (e.g. "fire only when no
 * network interrupt is pending and transitions T6/T7 are not firing").
 */

#ifndef HSIPC_GTPN_NET_HH
#define HSIPC_GTPN_NET_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace hsipc::gtpn
{

using PlaceId = int;
using TransId = int;

class PetriNet;

/**
 * Read-only view of a (possibly mid-selection) net state handed to
 * state-dependent expressions.
 */
class EvalContext
{
  public:
    EvalContext(const std::vector<int> &marking,
                const std::vector<int> &firing)
        : markingRef(marking), firingRef(firing)
    {}

    /** Number of tokens currently in place @p p (residual marking). */
    int
    marking(PlaceId p) const
    {
        return markingRef[static_cast<std::size_t>(p)];
    }

    /** Number of in-flight firings of transition @p t. */
    int
    firingCount(TransId t) const
    {
        return firingRef[static_cast<std::size_t>(t)];
    }

  private:
    const std::vector<int> &markingRef;
    const std::vector<int> &firingRef;
};

/** A state-dependent real-valued expression. */
using Expr = std::function<double(const EvalContext &)>;

/** An input or output arc with a multiplicity. */
struct Arc
{
    int id;
    int multiplicity;
};

/** A transition and its attribute vector. */
struct Transition
{
    std::string name;
    Expr delay;
    Expr frequency;
    std::string resource;
    std::vector<Arc> inputs;   //!< arcs from places
    std::vector<Arc> outputs;  //!< arcs to places
};

/** A place with its initial marking. */
struct Place
{
    std::string name;
    int initialTokens;
};

/**
 * A GTPN.  Build with addPlace/addTransition/arc; analyze with
 * Analyzer (exact) or Simulator (Monte Carlo).
 */
class PetriNet
{
  public:
    /** Add a place holding @p tokens initially; returns its id. */
    PlaceId addPlace(std::string name, int tokens = 0);

    /**
     * Add a transition.  @p delay and @p frequency may be built with
     * the expression combinators below or with constant();
     * @p resource optionally names an output measure.
     */
    TransId addTransition(std::string name, Expr delay, Expr frequency,
                          std::string resource = "");

    /** Convenience overload taking constant delay and frequency. */
    TransId addTransition(std::string name, double delay, double frequency,
                          std::string resource = "");

    /** Add an input arc place -> transition. */
    void inputArc(PlaceId p, TransId t, int multiplicity = 1);

    /** Add an output arc transition -> place. */
    void outputArc(TransId t, PlaceId p, int multiplicity = 1);

    /** Replace the frequency expression of an existing transition. */
    void setFrequency(TransId t, Expr freq);

    /** Replace the delay expression of an existing transition. */
    void setDelay(TransId t, Expr delay);

    /**
     * Edit counters.  Every edit advances revision().  Replacing a
     * transition's frequency stamps its frequencyRevision(); every
     * other edit (a place, a transition, an arc or a delay) stamps
     * shapeRevision().  A StateSpace compares them with the revision
     * it last solved to find what changed.
     */
    std::uint64_t revision() const { return rev; }
    std::uint64_t shapeRevision() const { return shapeRev; }

    std::uint64_t
    frequencyRevision(TransId t) const
    {
        return freqRevs[static_cast<std::size_t>(t)];
    }

    std::size_t numPlaces() const { return places.size(); }
    std::size_t numTransitions() const { return transitions.size(); }

    const Place &place(PlaceId p) const
    {
        return places[static_cast<std::size_t>(p)];
    }

    const Transition &transition(TransId t) const
    {
        return transitions[static_cast<std::size_t>(t)];
    }

    /** The initial marking vector. */
    std::vector<int> initialMarking() const;

    /** Find a place id by name; panics if absent. */
    PlaceId findPlace(const std::string &name) const;

    /** Find a transition id by name; panics if absent. */
    TransId findTransition(const std::string &name) const;

  private:
    void reshaped() { shapeRev = ++rev; }

    std::vector<Place> places;
    std::vector<Transition> transitions;
    std::vector<std::uint64_t> freqRevs; //!< per transition
    std::uint64_t rev = 0;
    std::uint64_t shapeRev = 0;
};

// --- Expression combinators -------------------------------------------

/** A constant expression. */
inline Expr
constant(double v)
{
    return [v](const EvalContext &) { return v; };
}

/** The token count of a place. */
inline Expr
tokens(PlaceId p)
{
    return [p](const EvalContext &ctx) {
        return static_cast<double>(ctx.marking(p));
    };
}

/** 1 when the place is empty, 0 otherwise. */
inline Expr
placeEmpty(PlaceId p)
{
    return [p](const EvalContext &ctx) {
        return ctx.marking(p) == 0 ? 1.0 : 0.0;
    };
}

/** 1 when none of the listed transitions is currently firing. */
inline Expr
noneFiring(std::vector<TransId> ts)
{
    return [ts = std::move(ts)](const EvalContext &ctx) {
        for (TransId t : ts) {
            if (ctx.firingCount(t) > 0)
                return 0.0;
        }
        return 1.0;
    };
}

/** Product of sub-expressions (logical AND for 0/1 predicates). */
inline Expr
allOf(std::vector<Expr> exprs)
{
    return [exprs = std::move(exprs)](const EvalContext &ctx) {
        double v = 1.0;
        for (const auto &e : exprs)
            v *= e(ctx);
        return v;
    };
}

/**
 * Conditional: value @p then when @p cond evaluates nonzero, @p els
 * otherwise.  Mirrors the thesis' "<expr> -> a, b" notation.
 */
inline Expr
gate(Expr cond, double then, double els = 0.0)
{
    return [cond = std::move(cond), then, els](const EvalContext &ctx) {
        return cond(ctx) != 0.0 ? then : els;
    };
}

} // namespace hsipc::gtpn

#endif // HSIPC_GTPN_NET_HH
