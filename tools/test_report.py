#!/usr/bin/env python3
"""Unit tests for report.py (registered as ctest `report_unit`).

Covers the resampling/sparkline primitives at their edges, run-report
validation section by section, the steady-state verdict wording for
each of the three outcomes, the per-section renderers, and end-to-end
rendering of both the terminal and the self-contained HTML dashboard
(via main(), exercising exit codes).
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report  # noqa: E402


def make_report(**sections):
    """A run report carrying exactly @p sections."""
    return sections


def doc(**overrides):
    """A timeline section."""
    d = {
        "intervalUs": 5000.0,
        "horizonUs": 20000.0,
        "warmupUs": 5000.0,
        "stats": {"enabled": True, "transientPolluted": False,
                  "insufficientData": False, "truncationUs": 5000.0,
                  "batches": 12, "throughputPerSec": 950.0,
                  "throughputCi95PerSec": 12.5, "meanRtUs": 2670.0,
                  "rtCi95Us": 40.0},
        "counters": {"ipc.allTrips": [0.0, 3.0, 4.0, 4.0],
                     "net.retransmissions": [0.0, 0.0, 1.0, 0.0]},
        "gauges": {"util.n0.busTcb": [0.10, 0.13, 0.14, 0.13]},
    }
    d.update(overrides)
    return d


class PrimitivesTest(unittest.TestCase):
    def test_sparkline_handles_empty_and_flat_series(self):
        self.assertEqual(report.sparkline([]), "")
        flat = report.sparkline([2.0, 2.0, 2.0])
        self.assertEqual(flat, report.BLOCK_CHARS[0] * 3)

    def test_sparkline_maps_extremes_to_extreme_glyphs(self):
        line = report.sparkline([0.0, 1.0])
        self.assertEqual(line[0], report.BLOCK_CHARS[0])
        self.assertEqual(line[-1], report.BLOCK_CHARS[-1])

    def test_resample_preserves_short_series_verbatim(self):
        self.assertEqual(report.resample([1.0, 2.0], 72), [1.0, 2.0])

    def test_resample_averages_down_to_width(self):
        out = report.resample([0.0, 2.0, 4.0, 6.0], 2)
        self.assertEqual(out, [1.0, 5.0])

    def test_fmt_integers_and_reals(self):
        self.assertEqual(report.fmt(14.0), "14")
        self.assertEqual(report.fmt(0.1020384), "0.102")


def outcome_doc():
    return {"throughputPerSec": 950.0, "meanRoundTripUs": 2670.0,
            "rtP50Us": 2600.0, "rtP95Us": 3100.0, "roundTrips": 1425,
            "resourceUtilization": {"n0.host0": 0.4, "n1.mp": 0.9},
            "decomposition": {"messages": 12, "bottleneck": "n1.mp",
                              "bottleneckShare": 0.41}}


def metrics_doc():
    return {"counters": {"des.eventsRun": 13473}, "gauges": {},
            "histograms": {"ipc.roundTripUs": {
                "count": 13, "sum": 207246.0, "min": 5374.0,
                "max": 24676.0, "p50": 16384.0, "p95": 32768.0,
                "p99": 32768.0, "buckets": {"4096": 2}}}}


def profile_doc(**overrides):
    d = {
        "engineProfile": 1,
        "enabled": True,
        "sampleEvery": 256,
        "sampledEvents": 40,
        "queue": {"pushes": 10240, "pops": 10200, "comparisons": 81000,
                  "maxHeapSize": 96, "remainingAtEnd": 40},
        "callbacks": {"spillConstructs": 12, "oversizeConstructs": 0},
        "dwellUs": {"count": 40, "sum": 4000.0, "min": 10.0,
                    "max": 500.0, "p50": 90.0, "p95": 400.0,
                    "p99": 480.0},
        "heapDepth": {"count": 40, "sum": 3000.0, "min": 1.0,
                      "max": 96.0, "p50": 70.0, "p95": 95.0,
                      "p99": 96.0},
        "tracks": [
            {"name": "sim", "events": 200, "sampled": 1},
            {"name": "n0.cpu0", "events": 10000, "sampled": 39,
             "wallNs": {"count": 39, "sum": 9000.0, "min": 80.0,
                        "max": 900.0, "p50": 200.0, "p95": 700.0,
                        "p99": 880.0}},
        ],
    }
    d.update(overrides)
    return d


def write_json(d, path, payload):
    full = os.path.join(d, path)
    with open(full, "w") as f:
        if isinstance(payload, str):
            f.write(payload)
        else:
            json.dump(payload, f)
    return full


class LoadTest(unittest.TestCase):
    def check_raises(self, payload, pattern):
        with tempfile.TemporaryDirectory() as d:
            path = write_json(d, "r.json", payload)
            with self.assertRaisesRegex(ValueError, pattern):
                report.load(path)

    def test_accepts_each_section_alone_and_all_together(self):
        full = make_report(experiment={"arch": 1}, outcome=outcome_doc(),
                      timeline=doc(), engineProfile=profile_doc(),
                      metrics=metrics_doc())
        with tempfile.TemporaryDirectory() as d:
            for name, section in full.items():
                path = write_json(d, name + ".json", {name: section})
                self.assertEqual(report.load(path), {name: section})
            path = write_json(d, "full.json", full)
            self.assertEqual(report.load(path)["engineProfile"]
                             ["sampleEvery"], 256)

    def test_rejects_documents_without_a_report_section(self):
        self.check_raises({"bench": "b", "scalars": {}},
                          "not a run report")
        self.check_raises([1, 2, 3], "not a run report")
        # A bare timeline or profile document is not a report either
        # (the latter's schema marker is not a profile section).
        self.check_raises(doc(), "not a run report")
        self.check_raises(profile_doc(), "engineProfile: not an object")

    def test_rejects_truncated_timeline_series(self):
        bad = doc()
        bad["counters"]["ipc.allTrips"] = [0.0, None, 4.0]
        self.check_raises(make_report(timeline=bad), "ipc.allTrips")
        bad["counters"] = "oops"
        self.check_raises(make_report(timeline=bad), "counters")
        self.check_raises(make_report(timeline=[1]), "timeline: not an object")
        self.check_raises(make_report(outcome="oops"), "outcome: not an object")

    def test_rejects_wrong_profile_schema(self):
        self.check_raises(make_report(engineProfile=doc()), "engineProfile")
        self.check_raises(make_report(engineProfile=profile_doc(
            engineProfile=2)), "schema version")

    def test_rejects_truncated_profile_sections(self):
        for bad, pattern in (
                (profile_doc(queue={"pushes": 1}), "queue.pops"),
                (profile_doc(tracks=[{"name": "sim"}]), "tracks"),
                (profile_doc(tracks="oops"), "tracks"),
                (profile_doc(coStep={"loops": 1}), "coStep"),
                (profile_doc(coStep={
                    "loops": 1, "steps": 1, "stops": {"bound": 1}}),
                 "coStep")):
            self.check_raises(make_report(engineProfile=bad), pattern)


class VerdictTest(unittest.TestCase):
    def render(self, d):
        out = io.StringIO()
        report.render_stats_text(d, out)
        return out.getvalue()

    def test_steady_verdict_reports_truncation_and_cis(self):
        text = self.render(doc())
        self.assertIn("steady after 5000 us", text)
        self.assertIn("950 /s", text)
        self.assertIn("12 batches", text)

    def test_polluted_verdict_is_loud(self):
        d = doc()
        d["stats"]["transientPolluted"] = True
        d["stats"]["truncationUs"] = 15000.0
        self.assertIn("TRANSIENT POLLUTED", self.render(d))

    def test_insufficient_data_verdict(self):
        d = doc()
        d["stats"]["insufficientData"] = True
        self.assertIn("too short", self.render(d))

    def test_disabled_stats_render_nothing(self):
        d = doc()
        d["stats"]["enabled"] = False
        self.assertEqual(self.render(d), "")
        del d["stats"]
        self.assertEqual(self.render(d), "")


class RenderTest(unittest.TestCase):
    def test_terminal_render_lists_every_series_with_integral(self):
        out = io.StringIO()
        report.render_text(["t.json"], [make_report(timeline=doc())], None,
                           72, out)
        text = out.getvalue()
        self.assertIn("ipc.allTrips", text)
        self.assertIn("util.n0.busTcb", text)
        self.assertIn("integral 11", text)  # 0+3+4+4
        self.assertIn("4 bins x 5000 us", text)

    def test_only_prefix_filters_series(self):
        out = io.StringIO()
        report.render_text(["t.json"], [make_report(timeline=doc())], "net.",
                           72, out)
        text = out.getvalue()
        self.assertIn("net.retransmissions", text)
        self.assertNotIn("ipc.allTrips", text)

    def test_svg_chart_marks_warmup_and_truncation(self):
        svg = report.svg_chart([1.0, 2.0, 3.0, 4.0], 5000.0,
                               5000.0, 10000.0)
        self.assertIn('class="warmup"', svg)
        self.assertIn('class="trunc"', svg)
        self.assertIn("<polyline", svg)
        # Markers at or past the horizon are dropped, not drawn.
        bare = report.svg_chart([1.0], 5000.0, 5000.0, 0.0)
        self.assertNotIn("<line", bare)


class SectionRenderTest(unittest.TestCase):
    def render(self, fn, section):
        out = io.StringIO()
        fn(section, out)
        return out.getvalue()

    def test_outcome_headline_and_bottleneck(self):
        text = self.render(report.render_outcome_text, outcome_doc())
        self.assertIn("950 round trips/s over 1425 round trips", text)
        self.assertIn("busiest resource: n1.mp at 0.9", text)
        self.assertIn("bottleneck n1.mp", text)

    def test_metrics_counters_and_histograms(self):
        text = self.render(report.render_metrics_text, metrics_doc())
        self.assertIn("des.eventsRun 13473", text)
        self.assertIn("ipc.roundTripUs", text)
        self.assertIn("p95 32768", text)


class ProfileRenderTest(unittest.TestCase):
    def render(self, d):
        out = io.StringIO()
        report.render_profile_text(d, out)
        return out.getvalue()

    def test_renders_queue_and_tracks(self):
        text = self.render(profile_doc())
        self.assertIn("1-in-256 wall sampling", text)
        self.assertIn("10240 pushes", text)
        self.assertIn("n0.cpu0      10000 events", text)
        self.assertIn("wall(ns)", text)

    def test_renders_the_access_loop_block_only_when_present(self):
        self.assertNotIn("access loops", self.render(profile_doc()))
        text = self.render(profile_doc(coStep={
            "loops": 4, "steps": 90,
            "stops": {"nonAccess": 3, "bound": 1, "drained": 0}}))
        self.assertIn("access loops: 4 started, 90 steps (22.5 per loop)",
                      text)
        self.assertIn("non-access event 3, the bound 1, drained 0", text)


class MainTest(unittest.TestCase):
    def run_main(self, argv):
        old_out, old_err = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        try:
            status = report.main(argv)
            return status, sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            sys.stdout, sys.stderr = old_out, old_err

    def test_end_to_end_terminal_and_html(self):
        full = make_report(experiment={"arch": 1}, outcome=outcome_doc(),
                      timeline=doc(), engineProfile=profile_doc(),
                      metrics=metrics_doc())
        with tempfile.TemporaryDirectory() as d:
            src = write_json(d, "report.json", full)
            prof = write_json(d, "prof.json",
                              make_report(engineProfile=profile_doc()))
            status, text, _ = self.run_main([src, prof])
            self.assertEqual(status, 0)
            # Both halves of one report, then the profile-only one.
            self.assertIn("950 round trips/s", text)
            self.assertIn("steady after 5000 us", text)
            self.assertIn("10240 pushes", text)
            self.assertIn("des.eventsRun 13473", text)
            self.assertEqual(text.count("1-in-256 wall sampling"), 2)
            html_out = os.path.join(d, "dash.html")
            status, _, _ = self.run_main([src, prof, "--html", html_out])
            self.assertEqual(status, 0)
            with open(html_out) as f:
                page = f.read()
            self.assertIn("<svg", page)
            self.assertIn("ipc.allTrips", page)
            self.assertIn("steady after 5000 us", page)
            self.assertIn("n0.cpu0      10000 events", page)
            # Self-contained: no external scripts or stylesheets.
            self.assertNotIn("http://", page.replace("http://www.w3", ""))
            self.assertNotIn("<script", page)
            self.assertNotIn("<link", page)

    def test_malformed_input_exits_nonzero(self):
        with tempfile.TemporaryDirectory() as d:
            bad = write_json(d, "bad.json", "{not json")
            truncated = write_json(d, "trunc.json",
                                   json.dumps(make_report(timeline=doc()))[:80])
            bare = write_json(d, "bare.json", doc())
            for path in (bad, truncated, bare,
                         os.path.join(d, "absent.json")):
                status, _, err = self.run_main([path])
                self.assertEqual(status, 1, path)
                self.assertNotIn("Traceback", err)
                self.assertTrue(err.startswith("report: "), err)

    def test_there_is_no_profile_mode(self):
        with tempfile.TemporaryDirectory() as d:
            prof = write_json(d, "p.json",
                              make_report(engineProfile=profile_doc()))
            with self.assertRaises(SystemExit):
                self.run_main([prof, "--profile"])


if __name__ == "__main__":
    unittest.main()
