/**
 * @file
 * Shared output harness for the bench binaries.
 *
 * Every bench regenerates one of the thesis' tables or figures as
 * human-readable text; this helper additionally captures each emitted
 * table (and any named scalars) and, when the binary was invoked with
 * `--json <path>`, writes them as one machine-readable JSON document —
 * the feed for the BENCH_*.json trajectory files.
 *
 * Usage pattern:
 *
 *     int main(int argc, char **argv) {
 *         bench::init(argc, argv, "table5_bus");
 *         ...
 *         bench::emit(t);            // printf + record a TextTable
 *         bench::note("ratio", 1.7); // record a headline scalar
 *         return bench::finish();    // write --json file if requested
 *     }
 *
 * The JSON schema is
 * {"bench": name, "wall_ms": elapsed, "tables":
 *  [TextTable::renderJson()...], "scalars": {name: value}}.
 * wall_ms is the bench's own wall-clock time from init() to finish(),
 * measured on the host — informational only (tools/bench_compare.py
 * reports it but never fails on it, since it varies with the machine
 * and the --jobs level while the simulated metrics must not).
 *
 * Benches that sweep independent configurations honor `--jobs <n>`
 * (default 1 = serial): init() parses it and jobs() exposes it, and
 * the sweep-style benches feed it to sim::SweepRunner /
 * parallel::runAll.  Results are bit-identical at every jobs level —
 * only wall_ms changes.  emit()/record()/note() stay main-thread-only;
 * worker tasks return values, the main thread renders them in input
 * order.
 */

#ifndef HSIPC_COMMON_BENCH_MAIN_HH
#define HSIPC_COMMON_BENCH_MAIN_HH

#include <string>

#include "common/table.hh"

namespace hsipc::bench
{

/**
 * Parse the command line (recognizing `--json <path>` and
 * `--jobs <n>`) and name the run.  Unknown arguments are fatal, so a
 * typo cannot silently yield a half-configured run.
 */
void init(int argc, char **argv, const std::string &benchName);

/**
 * Worker threads requested with `--jobs <n>` (1 when absent).
 * `--jobs 0` resolves to the hardware concurrency.
 */
int jobs();

/**
 * The `--json` output path ("" when absent).  Benches that emit
 * sibling artifacts (e.g. a run report for tools/report.py)
 * derive their paths from it so everything lands in the same results
 * directory.
 */
const std::string &jsonPath();

/**
 * True when the binary was invoked with `--profile`: the bench should
 * run its sweep with the engine self-profiler on and write the merged
 * profile next to its other outputs (see profilePath()).  Defaults to
 * false — the pay-for-use contract keeps unprofiled runs
 * byte-identical.
 */
bool profile();

/**
 * Where a `--profile` run should write its merged profile, a run
 * report whose only section is "engineProfile" (tools/report.py
 * renders it like any other report): the --json path with its
 * ".json" suffix replaced by "_engine_profile.json" (or with that
 * suffix appended when the path does not end in ".json").  Without --json, falls back to
 * "<bench>_engine_profile.json" in the working directory.
 * tools/bench_compare.py skips *engine_profile* files, so committing
 * one next to a baseline never gates a regression run.
 */
std::string profilePath();

/** Print @p t to stdout and record it for the JSON document. */
void emit(const TextTable &t);

/**
 * Record @p t for the JSON document without printing — for benches
 * that interleave a table's render() with surrounding commentary.
 */
void record(const TextTable &t);

/** Record a named scalar result for the JSON document. */
void note(const std::string &name, double value);

/**
 * Write the JSON file when `--json` was given; returns the process
 * exit status (0).
 */
int finish();

} // namespace hsipc::bench

#endif // HSIPC_COMMON_BENCH_MAIN_HH
