#!/usr/bin/env python3
"""Compare bench --json outputs against committed baselines.

Each bench binary, invoked with `--json <path>`, writes a document of
the form

    {"bench": name,
     "tables": [{"title": ..., "columns": [...], "rows": [[...]]}],
     "scalars": {name: value}}

This tool compares a current document (or a directory of them) against
a baseline and fails when any scalar or numeric table cell drifted by
more than the tolerance.  The simulator is deterministic (same seed,
same results to the last bit), so on identical code the comparison is
exact and the tolerance only has to absorb intentional-but-small
behavior changes; a real regression (e.g. a 20% slowdown) trips it
immediately.

Documents may carry a top-level "wall_ms" field: the bench's own
wall-clock self-timing.  Wall time depends on the machine, its load
and --jobs, so it is reported for information only and never gates
the comparison.

Timeline and engine-profile documents (sections of a run report,
written via `Experiment.reportFile` or a bench's --profile flag and
rendered with tools/report.py) are not bench summaries: a timeline
holds dense per-bin series, so cell-by-cell gating would make every
intentional change a baseline churn, and an engine profile carries
machine-dependent wall-clock sketches.  Directory mode therefore skips
any *.json whose name contains "timeline" or "engine_profile" on
either side — they are committed for reference and rendering only,
never compared.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--tolerance 0.10]
    bench_compare.py --baseline-dir bench/baselines --current-dir DIR

In directory mode every *.json in the baseline directory must have a
counterpart with the same file name in the current directory.

Exit status: 0 when everything is within tolerance, 1 otherwise.
"""

import argparse
import json
import os
import sys


def is_timeline_name(name):
    """Timeline and engine-profile artifacts ride along in bench
    directories but are rendered (tools/report.py), never gated: the
    profile's wall-clock sketches are machine-dependent by
    construction.  Matching "engine_profile", not
    "profile", keeps the table3_profiling bench gated."""
    base = os.path.basename(name).lower()
    return "timeline" in base or "engine_profile" in base


def is_number(cell):
    try:
        float(cell)
        return True
    except (TypeError, ValueError):
        return False


def within(base, cur, tolerance):
    """Relative comparison with an absolute floor for near-zero values."""
    base = float(base)
    cur = float(cur)
    if base == cur:
        return True
    denom = max(abs(base), 1e-9)
    if abs(base) < 1.0:
        # Tiny quantities (utilizations near 0, empty counters) get an
        # absolute window instead of an explosive relative one.
        return abs(cur - base) <= max(tolerance, tolerance * denom)
    return abs(cur - base) / denom <= tolerance


def compare_docs(name, base, cur, tolerance):
    """Yield human-readable difference strings."""
    if base.get("bench") != cur.get("bench"):
        yield (f"{name}: bench name changed "
               f"{base.get('bench')!r} -> {cur.get('bench')!r}")

    base_scalars = base.get("scalars", {})
    cur_scalars = cur.get("scalars", {})
    for key in sorted(base_scalars):
        if key not in cur_scalars:
            yield f"{name}: scalar {key!r} disappeared"
            continue
        if not within(base_scalars[key], cur_scalars[key], tolerance):
            yield (f"{name}: scalar {key!r} drifted "
                   f"{base_scalars[key]:g} -> {cur_scalars[key]:g} "
                   f"(tolerance {tolerance:.0%})")
    for key in sorted(set(cur_scalars) - set(base_scalars)):
        yield f"{name}: new scalar {key!r} missing from baseline"

    base_tables = {t["title"]: t for t in base.get("tables", [])}
    cur_tables = {t["title"]: t for t in cur.get("tables", [])}
    for title in sorted(base_tables):
        if title not in cur_tables:
            yield f"{name}: table {title!r} disappeared"
            continue
        bt, ct = base_tables[title], cur_tables[title]
        if len(bt["rows"]) != len(ct["rows"]):
            yield (f"{name}: table {title!r} row count "
                   f"{len(bt['rows'])} -> {len(ct['rows'])}")
            continue
        cols = bt.get("columns", [])
        for r, (brow, crow) in enumerate(zip(bt["rows"], ct["rows"])):
            if len(brow) != len(crow):
                yield (f"{name}: table {title!r} row {r} cell count "
                       f"{len(brow)} -> {len(crow)}")
                continue
            for c, (bcell, ccell) in enumerate(zip(brow, crow)):
                col = cols[c] if c < len(cols) else f"col{c}"
                if is_number(bcell) and is_number(ccell):
                    if not within(bcell, ccell, tolerance):
                        yield (f"{name}: {title!r} row {r} "
                               f"[{col}] drifted {bcell} -> {ccell} "
                               f"(tolerance {tolerance:.0%})")
                elif bcell != ccell:
                    yield (f"{name}: {title!r} row {r} [{col}] "
                           f"changed {bcell!r} -> {ccell!r}")
    for title in sorted(set(cur_tables) - set(base_tables)):
        yield f"{name}: new table {title!r} missing from baseline"


def wall_note(base, cur):
    """Informational wall-clock note; never influences pass/fail."""
    cur_wall = cur.get("wall_ms")
    if not is_number(cur_wall):
        return ""
    base_wall = base.get("wall_ms")
    if is_number(base_wall) and float(base_wall) > 0:
        ratio = float(cur_wall) / float(base_wall)
        return (f"  [wall {float(cur_wall):.0f} ms, "
                f"{ratio:.2f}x baseline]")
    return f"  [wall {float(cur_wall):.0f} ms]"


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", nargs="?",
                    help="baseline JSON file (file mode)")
    ap.add_argument("current", nargs="?",
                    help="current JSON file (file mode)")
    ap.add_argument("--baseline-dir",
                    help="directory of baseline *.json files")
    ap.add_argument("--current-dir",
                    help="directory of freshly generated *.json files")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="max relative drift (default 0.10 = 10%%)")
    args = ap.parse_args()

    pairs = []
    if args.baseline_dir or args.current_dir:
        if not (args.baseline_dir and args.current_dir):
            ap.error("--baseline-dir and --current-dir go together")
        listed = sorted(n for n in os.listdir(args.baseline_dir)
                        if n.endswith(".json"))
        names = [n for n in listed if not is_timeline_name(n)]
        for n in listed:
            if is_timeline_name(n):
                print(f"SKIP {n}: timeline document (never gated)")
        if not names:
            ap.error(f"no *.json baselines in {args.baseline_dir}")
        for n in names:
            cur = os.path.join(args.current_dir, n)
            if not os.path.exists(cur):
                print(f"FAIL {n}: no current result at {cur}")
                return 1
            pairs.append((n, os.path.join(args.baseline_dir, n), cur))
    elif args.baseline and args.current:
        pairs.append((os.path.basename(args.baseline), args.baseline,
                      args.current))
    else:
        ap.error("give BASELINE CURRENT files or both --*-dir options")

    failures = 0
    for name, base_path, cur_path in pairs:
        base_doc, cur_doc = load(base_path), load(cur_path)
        diffs = list(compare_docs(name, base_doc, cur_doc,
                                  args.tolerance))
        wall = wall_note(base_doc, cur_doc)
        if diffs:
            failures += 1
            for d in diffs:
                print(f"FAIL {d}")
        else:
            print(f"OK   {name}{wall}")
    if failures:
        print(f"\n{failures} of {len(pairs)} bench document(s) "
              f"regressed beyond {args.tolerance:.0%}")
        return 1
    print(f"\nall {len(pairs)} bench document(s) within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
