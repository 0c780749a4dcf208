#include "sim/check/shrink.hh"

#include <cmath>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/check/generator.hh"
#include "sim/check/knobs.hh"

namespace hsipc::sim::check
{

namespace
{

/**
 * Append prefix + name for each row of knobs<R> of the kinds T...
 * (kind by kind, each in table order) on which @p a and @p b differ.
 */
template <class... T, class R>
void
diffKinds(const R &a, const R &b, const std::string &prefix,
          std::vector<std::string> &diff)
{
    (forEachKnob<T, R>([&](const char *name, auto m) {
         if (a.*m != b.*m)
             diff.push_back(prefix + name);
     }),
     ...);
}

template <class T>
constexpr bool isList = false;
template <class T>
constexpr bool isList<std::vector<T>> = true;

// Record accessors: the Experiment itself, or its topology.
constexpr auto whole = [](auto &e) -> auto & { return e; };
constexpr auto topoOf = [](auto &e) -> auto & { return e.topo; };

/** The state of one greedy shrink; see shrinkExperiment(). */
struct Shrinker
{
    const FailurePredicate &stillFails;
    const int maxRuns;
    const Experiment base;
    Experiment cur;
    int runs = 0;
    bool progress = true;

    /** Take @p cand iff it still fails; never exceed the budget. */
    bool
    accept(const Experiment &cand)
    {
        if (runs >= maxRuns || cand == cur)
            return false;
        ++runs;
        if (!stillFails(cand))
            return false;
        cur = cand;
        progress = true;
        return true;
    }

    /** Try the current experiment with field @p m set to @p v. */
    template <class Rec, class R, class T>
    bool
    tryValue(Rec rec, T R::*m, T v)
    {
        Experiment cand = cur;
        rec(cand).*m = std::move(v);
        return accept(cand);
    }

    /**
     * Reset field @p m of record @p rec to its base value.  When the
     * failure needs the field, bisect a number between the base
     * value (or @p floor, unless the current value is below it) and
     * the current value for the failing value closest to the base, or
     * drop a list's entries one by one.
     */
    template <class Rec, class R, class T>
    void
    shrinkField(Rec rec, T R::*m, std::optional<T> floor = {})
    {
        const T target = rec(base).*m;
        if (rec(cur).*m == target || tryValue(rec, m, target))
            return;
        if constexpr (std::is_arithmetic_v<T>) {
            if (floor && rec(cur).*m < *floor)
                floor.reset();
            if (floor && tryValue(rec, m, *floor))
                return;
        }
        if constexpr (std::is_same_v<T, int>) {
            // Passes: the reset, or the floor, just failed to fail.
            long lo = floor ? *floor : target;
            long hi = rec(cur).*m; // fails
            while (runs < maxRuns) {
                const long mid = lo + (hi - lo) / 2;
                if (mid == lo || mid == hi)
                    break;
                if (tryValue(rec, m, static_cast<int>(mid)))
                    hi = mid;
                else
                    lo = mid;
            }
        } else if constexpr (std::is_same_v<T, double>) {
            double lo = floor ? *floor : target;
            double hi = rec(cur).*m;
            int steps = 0;
            while (runs < maxRuns && steps++ < 16) {
                // Round the midpoint so shrunk repros stay readable.
                double mid = (lo + hi) / 2;
                mid = std::round(mid * 1e6) / 1e6;
                if (mid == lo || mid == hi)
                    break;
                if (tryValue(rec, m, mid))
                    hi = mid;
                else
                    lo = mid;
            }
        } else if constexpr (isList<T>) {
            for (std::size_t i = 0; i < (rec(cur).*m).size();) {
                Experiment drop = cur;
                T &list = rec(drop).*m;
                list.erase(list.begin() + static_cast<long>(i));
                if (!accept(drop))
                    ++i; // else cur shrank: retry index i
            }
        }
    }
};

} // namespace

std::vector<std::string>
knobDiff(const Experiment &exp)
{
    // Kind by kind, with the topology's rows in the middle: the order
    // of a repro document's "knobsChanged" list.
    const Experiment base = baseExperiment();
    std::vector<std::string> diff;
    diffKinds<models::Arch, bool, int, double>(exp, base, "", diff);
    diffKinds<int, double>(exp.topo, base.topo, "topo.", diff);
    diffKinds<std::uint64_t, std::vector<CrashWindow>, std::string>(
        exp, base, "", diff);
    return diff;
}

int
knobDelta(const Experiment &exp)
{
    return static_cast<int>(knobDiff(exp).size());
}

ShrinkResult
shrinkExperiment(const Experiment &failing,
                 const FailurePredicate &stillFails, int maxRuns)
{
    Shrinker s{stillFails, maxRuns, baseExperiment(), failing};
    const auto shrink = [&s](const char *, auto m) {
        s.shrinkField(whole, m);
    };

    while (s.progress && s.runs < maxRuns) {
        s.progress = false;

        // Crash windows, then the whole topology layer (the reset
        // that removes the most machinery) and its shape.  A 1-node
        // topology is invalid, so `nodes` resets to 0 (no topology)
        // or else bisects down to a 2-node floor.
        s.shrinkField(whole, &Experiment::crashSchedule);
        s.shrinkField(whole, &Experiment::topo);
        forEachKnob<int, topo::Topology>(
            [&s](const char *, int topo::Topology::*m) {
                s.shrinkField(topoOf, m,
                              m == &topo::Topology::nodes
                                  ? std::optional(2)
                                  : std::nullopt);
            });
        forEachKnob<double, topo::Topology>(
            [&s](const char *, auto m) { s.shrinkField(topoOf, m); });

        // Then every other knob, kind by kind in table order.
        forEachKnob<models::Arch, Experiment>(shrink);
        forEachKnob<bool, Experiment>(shrink);
        forEachKnob<std::uint64_t, Experiment>(shrink);
        forEachKnob<std::string, Experiment>(shrink);
        forEachKnob<int, Experiment>(shrink);
        forEachKnob<double, Experiment>(
            [&s](const char *, double Experiment::*m) {
                s.shrinkField(whole, m,
                              m == &Experiment::deadlineUs ||
                                      m == &Experiment::timelineIntervalUs
                                  ? std::optional(minDrawnIntervalUs)
                                  : std::nullopt);
            });
    }

    ShrinkResult res;
    res.minimal = s.cur;
    res.knobsChanged = knobDelta(s.cur);
    res.runsUsed = s.runs;
    return res;
}

} // namespace hsipc::sim::check
