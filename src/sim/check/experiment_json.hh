/**
 * @file
 * Experiment ⇄ JSON round-trip serialization.
 *
 * The fuzzer's minimized failing configurations must be replayable
 * artifacts: a `fuzz_repro.json` checked into a bug report has to
 * reconstruct the Experiment *exactly* (bit-exact doubles, exact
 * 64-bit seed), or the repro would chase a different random sequence
 * than the failure it documents.  Doubles are therefore rendered
 * with %.17g (shortest-round-trippable precision, unlike the %.12g
 * used for human-facing measurement output) and the seed travels as
 * a decimal string.
 *
 * Both directions walk the knob table (sim/check/knobs.hh).  Parsing
 * is strict about unknown keys at every level — a typo in a
 * hand-edited repro fails loudly instead of silently running the
 * default knob.
 * Missing keys keep their Experiment defaults, so old repro files
 * stay loadable as the Experiment struct grows.
 */

#ifndef HSIPC_SIM_CHECK_EXPERIMENT_JSON_HH
#define HSIPC_SIM_CHECK_EXPERIMENT_JSON_HH

#include <string>

#include "common/json_value.hh"
#include "sim/kernel/ipc_sim.hh"

namespace hsipc::sim::check
{

/** Serialize every field of @p exp as a JSON object. */
std::string experimentToJson(const Experiment &exp);

/**
 * Rebuild an Experiment from a parsed JSON object.  Throws
 * std::runtime_error on unknown keys or ill-typed values.
 */
Experiment experimentFromJson(const JsonValue &v);

/** Parse @p text and rebuild the Experiment it describes. */
Experiment experimentFromJsonText(const std::string &text);

} // namespace hsipc::sim::check

#endif // HSIPC_SIM_CHECK_EXPERIMENT_JSON_HH
