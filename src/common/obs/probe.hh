/**
 * @file
 * One observation entry point per simulated component.
 *
 * A run has up to three observational sinks: the Tracer (Chrome
 * trace spans and counters), the CausalLog (per-message critical-path
 * intervals) and the EngineProfiler (host cost per event, attributed
 * to the component that claims it).  The simulator decides once, when
 * it builds the run, which of them record, and hands the answer to
 * every component as one Sinks value.  A component keeps a Probe: the sinks plus the ids
 * it registered in them, so its event path tests a pointer it already
 * holds and never asks a sink whether it is enabled.
 */

#ifndef HSIPC_COMMON_OBS_PROBE_HH
#define HSIPC_COMMON_OBS_PROBE_HH

#include <string>

#include "common/obs/engine_prof.hh"
#include "common/trace/critical_path.hh"
#include "common/trace/tracer.hh"

namespace hsipc::obs
{

/** A run's observational sinks; each pointer is null unless it records. */
struct Sinks
{
    trace::Tracer *tracer = nullptr;
    trace::CausalLog *causal = nullptr;
    EngineProfiler *prof = nullptr;

    /** Does a sink record bus accesses one by one? */
    bool perAccess() const { return tracer || causal; }
};

/** One component's view of the sinks, with its ids registered. */
struct Probe
{
    Probe() = default;

    /**
     * Register @p name as a trace track and a profiler origin in the
     * sinks that record.  Ids follow registration order, so a fixed
     * wiring order yields a fixed trace layout and profile.
     */
    Probe(const Sinks &s, const std::string &name)
        : tracer(s.tracer), causal(s.causal), prof(s.prof),
          track(s.tracer ? s.tracer->track(name) : -1),
          origin(s.prof ? s.prof->origin(name) : 0)
    {}

    /** Does anything record this component access by access? */
    bool perAccess() const { return tracer || causal; }

    /** Attribute the running event to this component's origin. */
    void
    claim() const
    {
        if (prof)
            prof->claim(origin);
    }

    trace::Tracer *tracer = nullptr;
    trace::CausalLog *causal = nullptr;
    EngineProfiler *prof = nullptr;
    int track = -1; //!< trace track id, -1 without a tracer
    int origin = 0; //!< profiler origin, 0 ("sim") without one
};

} // namespace hsipc::obs

#endif // HSIPC_COMMON_OBS_PROBE_HH
