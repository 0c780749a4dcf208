/**
 * @file
 * The Experiment knob table: every configurable field, by JSON name.
 *
 * knobs<R> lists the fields of record R (Experiment, topo::Topology,
 * CrashWindow) as {name, member pointer} rows in the
 * order a repro document renders them.  The repro writer, the parser
 * and the shrinker all walk these rows, so a knob added to Experiment
 * needs exactly one row here to round-trip through JSON, to be named
 * by knobDiff() and to be reset by the shrinker.
 */

#ifndef HSIPC_SIM_CHECK_KNOBS_HH
#define HSIPC_SIM_CHECK_KNOBS_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sim/kernel/ipc_sim.hh"

namespace hsipc::sim::check
{

/** A pointer to one field of record R, over every field type. */
template <class R>
using Field = std::variant<bool R::*, int R::*, double R::*,
                           std::string R::*, models::Arch R::*,
                           std::uint64_t R::*,
                           std::vector<CrashWindow> R::*,
                           topo::Topology R::*>;

/** One row: the field's JSON key and where it lives. */
template <class R>
struct Knob
{
    const char *name;
    Field<R> field;
};

/** The rows of record R, in document order. */
template <class R>
extern const Knob<R> knobs[];

template <>
inline constexpr Knob<Experiment> knobs<Experiment>[] = {
    {"arch", &Experiment::arch},
    {"local", &Experiment::local},
    {"conversations", &Experiment::conversations},
    {"mixedLocal", &Experiment::mixedLocal},
    {"mixedRemote", &Experiment::mixedRemote},
    {"computeUs", &Experiment::computeUs},
    {"hostsPerNode", &Experiment::hostsPerNode},
    {"extraCopy", &Experiment::extraCopy},
    {"mpSpeedFactor", &Experiment::mpSpeedFactor},
    {"kernelBuffers", &Experiment::kernelBuffers},
    {"warmupUs", &Experiment::warmupUs},
    {"measureUs", &Experiment::measureUs},
    {"seed", &Experiment::seed},
    {"lossRate", &Experiment::lossRate},
    {"corruptRate", &Experiment::corruptRate},
    {"duplicateRate", &Experiment::duplicateRate},
    {"reorderRate", &Experiment::reorderRate},
    {"reorderDelayUs", &Experiment::reorderDelayUs},
    {"retransmitTimeoutUs", &Experiment::retransmitTimeoutUs},
    {"retransmitWindow", &Experiment::retransmitWindow},
    {"reliableProtocol", &Experiment::reliableProtocol},
    {"crashSchedule", &Experiment::crashSchedule},
    {"traceFile", &Experiment::traceFile},
    {"reportFile", &Experiment::reportFile},
    {"decomposeLatency", &Experiment::decomposeLatency},
    {"arrivalMode", &Experiment::arrivalMode},
    {"arrivalRatePerSec", &Experiment::arrivalRatePerSec},
    {"deadlineUs", &Experiment::deadlineUs},
    {"retryBudget", &Experiment::retryBudget},
    {"retryBackoffUs", &Experiment::retryBackoffUs},
    {"retryBackoffMaxUs", &Experiment::retryBackoffMaxUs},
    {"svcQueueCap", &Experiment::svcQueueCap},
    {"shedPolicy", &Experiment::shedPolicy},
    {"timelineIntervalUs", &Experiment::timelineIntervalUs},
    {"traceSampleRate", &Experiment::traceSampleRate},
    {"engineProfile", &Experiment::engineProfile},
    // Rendered only when configured, so pre-topology documents keep
    // their bytes.
    {"topology", &Experiment::topo},
};

template <>
inline constexpr Knob<topo::Topology> knobs<topo::Topology>[] = {
    {"nodes", &topo::Topology::nodes},
    {"kind", &topo::Topology::kind},
    {"linkLatencyUs", &topo::Topology::linkLatencyUs},
    {"switchLatencyUs", &topo::Topology::switchLatencyUs},
    {"segMbps", &topo::Topology::segMbps},
    {"placement", &topo::Topology::placement},
};

template <>
inline constexpr Knob<CrashWindow> knobs<CrashWindow>[] = {
    {"node", &CrashWindow::node},
    {"startUs", &CrashWindow::startUs},
    {"endUs", &CrashWindow::endUs},
};

/**
 * Call @p fn(name, member) for each row of knobs<R> whose field has
 * type T, in table order.
 */
template <class T, class R, class Fn>
void
forEachKnob(Fn &&fn)
{
    for (const Knob<R> &k : knobs<R>)
        if (const auto *m = std::get_if<T R::*>(&k.field))
            fn(k.name, *m);
}

} // namespace hsipc::sim::check

#endif // HSIPC_SIM_CHECK_KNOBS_HH
