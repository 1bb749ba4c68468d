"""Tests for benchmark/run.py.

    python3 -m unittest discover benchmark

The smoke test builds xflow_bench and runs every workload for two timed
steps (about a minute on a 4-core machine); the rest are pure functions.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fake_bench_result(steps):
    """A result as xflow_bench prints it, for `steps` timed steps."""
    return {
        "train": True, "hash": "0", "setup_s": 1.5, "warmup_losses": [1.0],
        "tokens_per_step": 256, "step_ms": [100.0 + s for s in range(steps)],
        "losses": [1.0 - s / 100 for s in range(steps)], "failed_steps": 0,
        "peak_rss_kib": 2048, "autotune_measures": 9, "step_tunes": 0,
        "allocs": 0, "alloc_bytes": 0, "table_builds": 0, "class_builds": 0,
        "autotune_hits": 36 * steps, "steady_steps": steps, "launches": 67,
        "plan_peak_bytes": 1 << 20, "plan_naive_bytes": 2 << 20,
        "unbudgeted_peak_bytes": 1 << 20, "recompute_layers": 0,
        "recompute_flop": 0.0, "graph_flop": 2e10, "contraction_flop": 1.9e10,
        "movement_elems": 1 << 20,
        "fuse_ms": 0.2, "einsum_fwd_ms": 20.0, "einsum_bwd_ms": 40.0,
        "build_type": "Release", "compiler": "test",
    }


def fake_trace(steps):
    """Chrome-trace events shaped like xflow_bench's: set-up spans, the
    first warm-up step, then timed steps with their phase children."""
    events = []

    def span(name, dur_ms, step, parent=-1):
        events.append({"name": name, "ph": "X", "ts": 0.0,
                       "dur": dur_ms * 1e3,
                       "args": {"id": len(events), "parent": parent,
                                "step": step}})
        return len(events) - 1

    for name in ("transformer.init", "graph.build", "transformer.plan_options",
                 "graph.plan", "graph.verify", "transformer.make_arena",
                 "graph.executor.create", "config.autotune.pretune"):
        span(name, 1.0, -1)
    span("warmup.first_step", 150.0, 0)
    for s in range(1, steps + 1):
        parent = span("step", 100.0, s)
        span("graph.executor.forward", 30.0, s, parent)
        span("graph.executor.backward", 60.0, s, parent)
        span("transformer.training.adam", 9.0, s, parent)
    return events


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = [float(v) for v in range(10, 0, -1)]  # unsorted 1..10
        self.assertEqual(run.percentile(samples, 50), 5.0)
        self.assertEqual(run.percentile(samples, 75), 8.0)
        self.assertEqual(run.percentile(samples, 90), 9.0)
        self.assertEqual(run.percentile(samples, 100), 10.0)
        self.assertEqual(run.percentile([3.0], 50), 3.0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_gating_needs_ten_samples_beyond(self):
        self.assertEqual(run.reportable_percentiles(11), [])
        self.assertEqual(run.reportable_percentiles(39), [])
        self.assertEqual(run.reportable_percentiles(40), [75])
        self.assertEqual(run.reportable_percentiles(99), [75])
        self.assertEqual(run.reportable_percentiles(100), [75, 90])

    def test_extra_percentiles_follow_the_gate(self):
        self.assertEqual(run.extra_percentiles(fake_bench_result(39)), {})
        self.assertEqual(set(run.extra_percentiles(fake_bench_result(100))),
                         {"step_ms_p75", "step_ms_p90"})


class ArithmeticTest(unittest.TestCase):
    def test_tokens_per_s(self):
        self.assertAlmostEqual(run.tokens_per_s(256, 500.0), 512.0)
        metrics = run.end_to_end_metrics(fake_bench_result(11), [3.0, 1.0,
                                                                  2.0])
        p50, n = metrics["step_ms_p50"]
        self.assertEqual((p50, n), (105.0, 11))
        self.assertAlmostEqual(metrics["tokens_per_s"][0], 256 / 0.105)
        self.assertEqual(metrics["setup_s"], (2.0, 3))
        self.assertEqual(metrics["peak_rss_mib"], (2.0, 1))

    def test_fail_ratio(self):
        self.assertEqual(run.fail_ratio(0, 7), 0.0)
        self.assertEqual(run.fail_ratio(1, 4), 0.25)

    def test_loss_trend(self):
        self.assertTrue(run.loss_trend_ok([2.0 - s / 10 for s in range(20)]))
        self.assertFalse(run.loss_trend_ok([1.0 + s / 10 for s in range(20)]))
        self.assertIsNone(run.loss_trend_ok([2.0, 1.0]))
        self.assertFalse(run.loss_trend_ok([2.0] * 10 + [None] + [1.0] * 9))

    def test_span_phases_and_gap(self):
        metrics = run.per_layer_metrics(fake_bench_result(5),
                                        fake_bench_result(5), fake_trace(5))
        self.assertEqual(metrics["warmup.first_step_ms"], (150.0, 1))
        self.assertAlmostEqual(metrics["graph.executor.backward_pct"][0], 60.0)
        self.assertAlmostEqual(metrics["trace.span_gap_pct"][0], 1.0)
        self.assertAlmostEqual(metrics["ops.rest_bwd_pct"][0], 20.0)


class DeclarationTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertTrue(len(name) <= 64 and name[0].isalnum(), name)
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(metric["better"], ("higher", "lower"))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["benchmark"])

    def test_every_computed_metric_is_declared(self):
        declared_e2e = {m["name"] for m in SPEC["end_to_end"]}
        declared_layer = {m["name"] for m in SPEC["per_layer"]}
        result = fake_bench_result(12)
        self.assertEqual(set(run.end_to_end_metrics(result, [1.0])),
                         declared_e2e)
        self.assertEqual(set(run.per_layer_metrics(result, result,
                                                   fake_trace(12))),
                         declared_layer)


class SmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_declared_metric(self):
        proc = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--smoke", "--trace",
             "1"], capture_output=True, text=True, timeout=900, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        lines = [json.loads(line) for line in proc.stdout.splitlines()
                 if line.startswith("{")]
        self.assertEqual(len(lines), len(SPEC["workloads"]))
        declared_layer = {m["name"] for m in SPEC["per_layer"]}
        for line in lines:
            self.assertTrue(line["correct"])
            self.assertEqual(set(line["metrics"]), declared_layer)
        saved = json.loads((run.BUILD / "results.json").read_text())
        for workload in SPEC["workloads"]:
            record = saved["workloads"][workload["name"]]
            self.assertEqual(set(record["end_to_end"]),
                             {m["name"] for m in SPEC["end_to_end"]})
            self.assertEqual(set(record["per_layer"]), declared_layer)


if __name__ == "__main__":
    unittest.main()
