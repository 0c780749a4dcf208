#!/usr/bin/env python3
"""Render simulation run reports as a dashboard.

A run that names `Experiment.reportFile` writes one JSON document, its
run report (see docs/observability.md).  Each section is present only
when the run recorded it:

    {"experiment": {...},        # the knob values (a repro document)
     "outcome": {...},           # outcomeJson(): the measurements
     "timeline": {               # when timelineIntervalUs > 0
         "intervalUs": ..., "horizonUs": ..., "warmupUs": ...,
         "stats": {... MSER-5 steady-state analysis ...},
         "decomposition": {...}, # when decomposeLatency was on
         "counters": {name: [per-bin deltas]},
         "gauges":   {name: [per-bin samples]}},
     "engineProfile": {...},     # when the engine profiler ran
     "metrics": {"counters": ..., "histograms": ..., "sketches": ...}}

A bench's `--profile` flag writes a report whose only section is
"engineProfile" (the profile merged over the bench's sweep).

This tool renders every section it finds, so one document answers
where simulated time went (outcome, timeline, latency histograms)
and where host time went (the engine profile):

  *terminal* (default): the outcome's headline numbers; one unicode
  sparkline per timeline series with min/mean/max and, for counters,
  the integral (which equals the whole-run Outcome counter exactly),
  plus the steady-state verdict; the engine profile's event-queue
  telemetry, access-loop counts and per-track event and wall-clock
  cost table; and the registry's histograms.

  *HTML* (`--html out.html`): a self-contained dashboard (inline SVG,
  no external assets) with one chart per timeline series, the warmup
  boundary and detected truncation point marked, and the other
  sections as preformatted text.

Usage:
    report.py REPORT.json [REPORT2.json ...] [--html out.html]
              [--only PREFIX] [--width N]

Exit status: 0 on success, 1 on a malformed document.
"""

import argparse
import html
import io
import json
import sys

SPARK_CHARS = " .:-=+*#%@"
BLOCK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values, chars=BLOCK_CHARS):
    """Map a series onto a fixed character ramp (empty-safe)."""
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    if hi <= lo:
        return chars[0] * len(values)
    span = hi - lo
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(chars) - 1))
        out.append(chars[idx])
    return "".join(out)


def resample(values, width):
    """Average adjacent bins down to at most `width` points."""
    if width <= 0 or len(values) <= width:
        return list(values)
    out = []
    n = len(values)
    for i in range(width):
        a = i * n // width
        b = max(a + 1, (i + 1) * n // width)
        chunk = values[a:b]
        out.append(sum(chunk) / len(chunk))
    return out


def fmt(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.4g}"


SECTIONS = ("experiment", "outcome", "timeline", "engineProfile",
            "metrics")


def _require(doc, where, keys, kind):
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: not an object — truncated or "
                         f"corrupt {kind} section")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{where}: missing '{key}' — truncated "
                             f"or corrupt {kind} section")


def _number_list(values, where, name):
    if not isinstance(values, list) or any(
            not isinstance(v, (int, float)) or isinstance(v, bool)
            for v in values):
        raise ValueError(f"{where}: series '{name}' is not a list of "
                         "numbers — truncated or corrupt document")


def _check_timeline(doc, where):
    _require(doc, where,
             ("intervalUs", "horizonUs", "counters", "gauges"),
             "timeline")
    for kind in ("counters", "gauges"):
        if not isinstance(doc[kind], dict):
            raise ValueError(f"{where}: '{kind}' is not an object — "
                             "truncated or corrupt document")
        for name, values in doc[kind].items():
            _number_list(values, where, f"{kind}.{name}")


def _check_profile(doc, where):
    _require(doc, where, ("engineProfile", "queue", "tracks"),
             "engine-profile")
    if doc["engineProfile"] != 1:
        raise ValueError(f"{where}: unsupported engine-profile schema "
                         f"version {doc['engineProfile']!r}")
    if not isinstance(doc["queue"], dict):
        raise ValueError(f"{where}: 'queue' is not an object — "
                         "truncated or corrupt document")
    for key in ("pushes", "pops", "comparisons", "maxHeapSize",
                "remainingAtEnd"):
        if not isinstance(doc["queue"].get(key), (int, float)):
            raise ValueError(f"{where}: queue.{key} missing or not a "
                             "number — truncated or corrupt document")
    # The access loop's block is there only when a loop started.
    if "coStep" in doc:
        co = doc["coStep"]
        if (not isinstance(co, dict)
                or not isinstance(co.get("stops"), dict)
                or any(not isinstance(co.get(k), (int, float)) for k in
                       ("loops", "steps"))
                or any(not isinstance(co["stops"].get(k), (int, float))
                       for k in ("nonAccess", "bound", "drained"))):
            raise ValueError(f"{where}: malformed coStep block — "
                             "truncated or corrupt document")
    if not isinstance(doc["tracks"], list):
        raise ValueError(f"{where}: 'tracks' is not an array — "
                         "truncated or corrupt document")
    for item in doc["tracks"]:
        if not isinstance(item, dict) or any(
                k not in item for k in ("name", "events", "sampled")):
            raise ValueError(f"{where}: malformed tracks entry {item!r}")


def load(path):
    """Read a run report and check every section it carries."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not any(k in doc for k in SECTIONS):
        raise ValueError(f"{path}: none of the sections "
                         f"{', '.join(SECTIONS)} — not a run report")
    for name in ("experiment", "outcome", "metrics"):
        if name in doc:
            _require(doc[name], f"{path}: {name}", (), name)
    if "timeline" in doc:
        _check_timeline(doc["timeline"], f"{path}: timeline")
    if "engineProfile" in doc:
        _check_profile(doc["engineProfile"], f"{path}: engineProfile")
    return doc


def series_items(doc, only):
    for kind in ("counters", "gauges"):
        for name in sorted(doc[kind]):
            if only and not name.startswith(only):
                continue
            yield kind, name, doc[kind][name]


# --- terminal rendering ---------------------------------------------


def render_stats_text(doc, out):
    stats = doc.get("stats")
    if not stats or not stats.get("enabled"):
        return
    if stats.get("insufficientData"):
        verdict = "run too short for a steady-state verdict"
    elif stats.get("transientPolluted"):
        verdict = ("TRANSIENT POLLUTED: warmup %s us < detected "
                   "truncation %s us" %
                   (fmt(doc["warmupUs"]), fmt(stats["truncationUs"])))
    else:
        verdict = ("steady after %s us (warmup %s us covers it)" %
                   (fmt(stats["truncationUs"]), fmt(doc["warmupUs"])))
    out.write("  steady state: %s\n" % verdict)
    if stats.get("batches"):
        out.write(
            "  batch means: throughput %s /s (+/- %s), "
            "round trip %s us (+/- %s), %d batches\n" %
            (fmt(stats["throughputPerSec"]),
             fmt(stats["throughputCi95PerSec"]),
             fmt(stats["meanRtUs"]), fmt(stats["rtCi95Us"]),
             int(stats["batches"])))


def render_decomposition_text(doc, out):
    d = doc.get("decomposition")
    if not d:
        return
    out.write("  decomposition: %s messages, mean round trip %s us, "
              "bottleneck %s\n" %
              (fmt(d.get("messages", 0)),
               fmt(d.get("meanRoundTripUs", 0)),
               d.get("bottleneck", "?")))


def render_outcome_text(o, out):
    """The headline measurements: where simulated time went."""
    out.write("  outcome: %s round trips/s over %s round trips, mean "
              "%s us (p50 %s, p95 %s)\n" %
              (fmt(o.get("throughputPerSec", 0)),
               fmt(o.get("roundTrips", 0)),
               fmt(o.get("meanRoundTripUs", 0)),
               fmt(o.get("rtP50Us", 0)), fmt(o.get("rtP95Us", 0))))
    util = o.get("resourceUtilization") or {}
    if util:
        busiest = max(util, key=lambda k: util[k])
        out.write("  busiest resource: %s at %s utilization\n" %
                  (busiest, fmt(util[busiest])))
    d = o.get("decomposition") or {}
    if d.get("messages"):
        out.write("  critical path: %s messages, bottleneck %s "
                  "(%s of the round trip)\n" %
                  (fmt(d["messages"]), d.get("bottleneck", "?"),
                   fmt(d.get("bottleneckShare", 0))))


def render_timeline_text(doc, only, width, out):
    bins = 0
    for _, _, values in series_items(doc, None):
        bins = max(bins, len(values))
    out.write("  timeline: %s bins x %s us (warmup %s us)\n" %
              (bins, fmt(doc["intervalUs"]), fmt(doc["warmupUs"])))
    render_stats_text(doc, out)
    render_decomposition_text(doc, out)
    name_w = max((len(n) for _, n, _ in series_items(doc, only)),
                 default=0)
    for kind, name, values in series_items(doc, only):
        line = sparkline(resample(values, width))
        if kind == "counters":
            tail = "integral %s" % fmt(sum(values))
        else:
            tail = "last %s" % fmt(values[-1] if values else 0)
        out.write("  %-*s |%s| min %s max %s %s\n" %
                  (name_w, name, line, fmt(min(values, default=0)),
                   fmt(max(values, default=0)), tail))


def render_metrics_text(doc, out):
    """The registry's counters and histograms (whose quantiles come
    from the same-named sketch when the run kept one)."""
    counters = doc.get("counters") or {}
    out.write("  metrics: %s\n" % ", ".join(
        "%s %s" % (name, fmt(counters[name])) for name in sorted(counters)))
    hists = doc.get("histograms") or {}
    name_w = max((len(n) for n in hists), default=0)
    for name in sorted(hists):
        out.write("    %-*s %s\n" % (name_w, name,
                                     _sketch_line(hists[name])))


# --- engine-profile rendering ----------------------------------------


def _sketch_line(s):
    if not isinstance(s, dict) or not s.get("count"):
        return "no samples"
    return ("n %s  min %s  p50 %s  p95 %s  p99 %s  max %s" %
            tuple(fmt(s.get(k, 0)) for k in
                  ("count", "min", "p50", "p95", "p99", "max")))


def render_profile_text(doc, out):
    """The engine's self-profile: where host time went."""
    q = doc["queue"]
    out.write("  engine profile: 1-in-%s wall sampling, %s sampled "
              "events\n" %
              (fmt(doc.get("sampleEvery", 1)),
               fmt(doc.get("sampledEvents", 0))))
    per_pop = (q["comparisons"] / q["pops"]) if q["pops"] else 0.0
    out.write("  queue: %s pushes, %s pops, %s remaining, "
              "max depth %s, %.2f comparisons/pop\n" %
              (fmt(q["pushes"]), fmt(q["pops"]),
               fmt(q["remainingAtEnd"]), fmt(q["maxHeapSize"]),
               per_pop))
    co = doc.get("coStep")
    if co:
        stops = co["stops"]
        out.write("  access loops: %s started, %s steps (%.1f per loop); "
                  "stopped by a non-access event %s, the bound %s, "
                  "drained %s\n" %
                  (fmt(co["loops"]), fmt(co["steps"]),
                   co["steps"] / co["loops"] if co["loops"] else 0.0,
                   fmt(stops["nonAccess"]), fmt(stops["bound"]),
                   fmt(stops["drained"])))
    cb = doc.get("callbacks", {})
    if isinstance(cb, dict) and cb:
        out.write("  callbacks: %s pooled spills, %s oversize"
                  "%s\n" %
                  (fmt(cb.get("spillConstructs", 0)),
                   fmt(cb.get("oversizeConstructs", 0)),
                   ", %s fresh pool blocks" %
                   fmt(cb["freshPoolBlocks"])
                   if "freshPoolBlocks" in cb else ""))
    out.write("  dwell (us):  %s\n" %
              _sketch_line(doc.get("dwellUs")))
    out.write("  heap depth:  %s\n" %
              _sketch_line(doc.get("heapDepth")))

    out.write("  tracks (events by origin):\n")
    name_w = max((len(str(t["name"])) for t in doc["tracks"]),
                 default=4)
    for t in sorted(doc["tracks"], key=lambda t: -t["events"]):
        wall = t.get("wallNs")
        out.write("    %-*s %10s events  %8s sampled%s\n" %
                  (name_w, t["name"], fmt(t["events"]),
                   fmt(t["sampled"]),
                   "  wall(ns) " + _sketch_line(wall)
                   if isinstance(wall, dict) and wall.get("count")
                   else ""))



def render_text(paths, docs, only, width, out=None):
    out = out if out is not None else sys.stdout
    for path, doc in zip(paths, docs):
        out.write("%s:\n" % path)
        if "outcome" in doc:
            render_outcome_text(doc["outcome"], out)
        if "timeline" in doc:
            render_timeline_text(doc["timeline"], only, width, out)
        if "engineProfile" in doc:
            render_profile_text(doc["engineProfile"], out)
        if "metrics" in doc:
            render_metrics_text(doc["metrics"], out)
        out.write("\n")


# --- HTML rendering --------------------------------------------------

HTML_HEAD = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>run report</title>
<style>
 body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
        max-width: 72em; color: #1a1a1a; }
 h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
 .verdict { padding: .5em .8em; border-radius: 4px;
            background: #eef6ee; display: inline-block; }
 .verdict.bad { background: #fbecec; }
 .chart { margin: .6em 0; }
 .chart .name { font-family: ui-monospace, monospace;
                font-size: 12px; color: #444; }
 .meta { color: #666; font-size: 12px; }
 pre { font: 12px/1.4 ui-monospace, monospace; }
 svg { background: #fafafa; border: 1px solid #e0e0e0; }
 svg polyline { fill: none; stroke: #2a6fb0; stroke-width: 1.2; }
 svg .warmup { stroke: #bbb; stroke-dasharray: 3 2; }
 svg .trunc { stroke: #c06030; stroke-dasharray: 5 3; }
</style></head><body>
"""


def svg_chart(values, interval_us, warmup_us, trunc_us, w=640, h=80):
    """One series as an inline SVG polyline with marker rules."""
    pts = resample(values, w)
    lo = min(pts, default=0.0)
    hi = max(pts, default=0.0)
    lo = min(lo, 0.0)
    span = (hi - lo) or 1.0
    step = w / max(1, len(pts))
    coords = []
    for i, v in enumerate(pts):
        x = i * step + step / 2
        y = h - 4 - (v - lo) / span * (h - 8)
        coords.append("%.1f,%.1f" % (x, y))
    horizon_us = interval_us * max(1, len(values))
    rules = []
    for cls, at_us in (("warmup", warmup_us), ("trunc", trunc_us)):
        if at_us and 0 < at_us < horizon_us:
            x = at_us / horizon_us * w
            rules.append('<line class="%s" x1="%.1f" y1="0" '
                         'x2="%.1f" y2="%d"/>' % (cls, x, x, h))
    return ('<svg width="%d" height="%d">%s<polyline points="%s"/>'
            '</svg>' % (w, h, "".join(rules), " ".join(coords)))


def timeline_html(doc, only):
    """The timeline section as a verdict plus one chart per series."""
    parts = ['<p class="meta">timeline: interval %s us, horizon %s us, '
             'warmup %s us</p>' %
             (fmt(doc["intervalUs"]), fmt(doc["horizonUs"]),
              fmt(doc["warmupUs"]))]
    stats = doc.get("stats") or {}
    trunc = stats.get("truncationUs", 0)
    if stats.get("enabled"):
        if stats.get("insufficientData"):
            parts.append('<p class="verdict">run too short for a '
                         'steady-state verdict</p>')
        elif stats.get("transientPolluted"):
            parts.append('<p class="verdict bad">transient '
                         'polluted: warmup %s us &lt; truncation '
                         '%s us</p>' %
                         (fmt(doc["warmupUs"]), fmt(trunc)))
        else:
            parts.append('<p class="verdict">steady after %s us; '
                         'throughput %s /s &plusmn; %s</p>' %
                         (fmt(trunc),
                          fmt(stats.get("throughputPerSec", 0)),
                          fmt(stats.get("throughputCi95PerSec", 0))))
    d = doc.get("decomposition")
    if d:
        parts.append('<p class="meta">decomposition: %s messages, '
                     'mean round trip %s us, bottleneck %s</p>' %
                     (fmt(d.get("messages", 0)),
                      fmt(d.get("meanRoundTripUs", 0)),
                      html.escape(str(d.get("bottleneck", "?")))))
    for kind, name, values in series_items(doc, only):
        tail = ("integral %s" % fmt(sum(values))
                if kind == "counters" else
                "last %s" % fmt(values[-1] if values else 0))
        parts.append('<div class="chart"><div class="name">%s '
                     '<span class="meta">(%s, min %s, max %s, '
                     '%s)</span></div>%s</div>' %
                     (html.escape(name), kind[:-1],
                      fmt(min(values, default=0)),
                      fmt(max(values, default=0)), tail,
                      svg_chart(values, doc["intervalUs"],
                                doc["warmupUs"], trunc)))
    return parts


def text_html(render, section):
    """A section's terminal rendering as preformatted HTML."""
    buf = io.StringIO()
    render(section, buf)
    return "<pre>%s</pre>" % html.escape(buf.getvalue())


def render_html(paths, docs, only, path_out):
    parts = [HTML_HEAD, "<h1>Run report</h1>"]
    for path, doc in zip(paths, docs):
        parts.append("<h2>%s</h2>" % html.escape(path))
        if "outcome" in doc:
            parts.append(text_html(render_outcome_text, doc["outcome"]))
        if "timeline" in doc:
            parts.extend(timeline_html(doc["timeline"], only))
        if "engineProfile" in doc:
            parts.append(text_html(render_profile_text,
                                   doc["engineProfile"]))
        if "metrics" in doc:
            parts.append(text_html(render_metrics_text, doc["metrics"]))
    parts.append("</body></html>\n")
    with open(path_out, "w") as f:
        f.write("\n".join(parts))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Render simulation run reports as a dashboard")
    ap.add_argument("reports", nargs="+",
                    help="run report JSON files from the simulator")
    ap.add_argument("--html", metavar="OUT",
                    help="write a self-contained HTML dashboard")
    ap.add_argument("--only", metavar="PREFIX",
                    help="render only timeline series with this name "
                         "prefix")
    ap.add_argument("--width", type=int, default=72,
                    help="terminal sparkline width (default 72)")
    args = ap.parse_args(argv)

    try:
        docs = [load(p) for p in args.reports]
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print("report: %s" % e, file=sys.stderr)
        return 1

    if args.html:
        render_html(args.reports, docs, args.only, args.html)
        print("report: wrote %s" % args.html)
    else:
        render_text(args.reports, docs, args.only, args.width)
    return 0


if __name__ == "__main__":
    sys.exit(main())
