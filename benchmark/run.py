#!/usr/bin/env python3
"""End-to-end BERT step benchmark for xflow.

    python3 benchmark/run.py --seed 1                  # every workload
    python3 benchmark/run.py --workload train-base --seed 3 --seconds 10 \
        --trace 0

Builds the benchmark/ project (the xflow_bench program) into
build/benchmark, runs each workload in its own processes, checks its
outputs against a reference run, and prints every metric with its unit
and sample count. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: with --trace 0 the metrics
are the end_to_end ones of BENCHMARK.json, with --trace 1 the per_layer
ones. --trace 1 adds a traced run whose spans go to
build/benchmark/<workload>.trace.json (Chrome-trace JSON, opens in
Perfetto). Results and the run environment go to
build/benchmark/results.json. See benchmark/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build" / "benchmark"
BINARY = BUILD / "xflow_bench"
SPEC_PATH = ROOT / "BENCHMARK.json"
# Half the usable CPUs: on a shared host a fork/join across every CPU
# stalls whenever another tenant takes one, and the step time then
# measures the host rather than the program.
THREADS = max(1, len(os.sched_getaffinity(0)) // 2)

# Runtime knobs a stray environment could use to change what is measured.
KNOBS = ("XFLOW_THREADS", "XFLOW_TASK_SCHED", "XFLOW_VERIFY",
         "XFLOW_AUTOTUNE", "XFLOW_GRAPH_EXEC")
SETUP_SAMPLES = 3         # cold processes whose set-up time is the median
TREND_WINDOW = 10         # losses averaged at each end of the timed loop
MIN_TREND_WINDOW = 5      # fewer timed steps than 2x this: trend unchecked
SAMPLES_BEYOND = 10       # a percentile needs this many samples above it
RUN_BUDGET_S = 170        # every process of one workload run, build aside
BUILD_BUDGET_S = 700       # with the run budget, under 15 minutes


class BenchError(Exception):
    """A process of the benchmark failed; no result can be computed."""


# ---------------------------------------------------------------- statistics

def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def reportable_percentiles(count, candidates=(75, 90)):
    """The candidate percentiles with at least SAMPLES_BEYOND of `count`
    samples above them."""
    return [q for q in candidates
            if count - math.ceil(q / 100 * count) >= SAMPLES_BEYOND]


def tokens_per_s(tokens_per_step, step_ms):
    return tokens_per_step / (step_ms / 1e3)


def fail_ratio(failed, attempted):
    return failed / attempted


def loss_trend_ok(losses):
    """True when the mean of the last timed losses is below the mean of
    the first; None when there are too few losses to judge. A non-finite
    loss (null in xflow_bench's JSON) fails the check."""
    if None in losses:
        return False
    window = min(TREND_WINDOW, len(losses) // 2)
    if window < MIN_TREND_WINDOW:
        return None
    return statistics.fmean(losses[-window:]) < statistics.fmean(
        losses[:window])


# ------------------------------------------------------------------ metrics

def end_to_end_metrics(main, setup_samples):
    """{name: (value, samples)} for BENCHMARK.json's end_to_end list."""
    steps = main["step_ms"]
    p50 = percentile(steps, 50)
    out = {
        "tokens_per_s": (tokens_per_s(main["tokens_per_step"], p50),
                         len(steps)),
        "step_ms_p50": (p50, len(steps)),
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "peak_rss_mib": (main["peak_rss_kib"] / 1024, 1),
    }
    return out


def extra_percentiles(main):
    """Higher step-time percentiles, only where the sample count allows."""
    steps = main["step_ms"]
    return {f"step_ms_p{q}": (percentile(steps, q), len(steps))
            for q in reportable_percentiles(len(steps))}


def span_phases(events):
    """Set-up span totals and per-timed-step phase durations (ms) from the
    xflow_bench's Chrome trace."""
    by_id = {e["args"]["id"]: e for e in events}
    setup, steps = {}, {}
    for e in events:
        ms = e["dur"] / 1e3
        step = e["args"]["step"]
        parent = by_id.get(e["args"]["parent"])
        if step < 0:
            setup[e["name"]] = setup.get(e["name"], 0.0) + ms
        elif e["name"] == "warmup.first_step":
            setup["warmup.first_step"] = ms
        elif e["name"] == "step":
            steps.setdefault(step, {})["step"] = ms
        elif parent is not None and parent["name"] == "step":
            steps.setdefault(step, {})[e["name"]] = ms
    return setup, list(steps.values())


def per_layer_metrics(untraced, traced, events):
    """{name: (value, samples)} for BENCHMARK.json's per_layer list."""
    setup, steps = span_phases(events)
    n = len(steps)
    step_p50 = percentile([s["step"] for s in steps], 50)

    def phase_pct(name):
        return 100 * percentile([s.get(name, 0.0) for s in steps],
                                50) / step_p50

    phases = ("graph.executor.forward", "graph.executor.backward",
              "transformer.training.adam")
    gap_pct = percentile(
        [100 * (s["step"] - sum(s.get(p, 0.0) for p in phases)) / s["step"]
         for s in steps], 50)
    forward_pct = phase_pct("graph.executor.forward")
    backward_pct = phase_pct("graph.executor.backward")
    einsum_fwd_pct = 100 * traced["einsum_fwd_ms"] / step_p50
    einsum_bwd_pct = 100 * traced["einsum_bwd_ms"] / step_p50
    untraced_p50 = percentile(untraced["step_ms"], 50)
    traced_p50 = percentile(traced["step_ms"], 50)
    steady = traced["steady_steps"]
    mib = 1 << 20
    out = {f"{name}_ms": (setup.get(name, 0.0), 1) for name in (
        "transformer.init", "graph.build", "transformer.plan_options",
        "graph.plan", "graph.verify", "transformer.make_arena",
        "graph.executor.create", "config.autotune.pretune",
        "warmup.first_step")}
    out.update({
        "fusion.fuse_ms": (traced["fuse_ms"], 1),
        "config.autotune.measures": (traced["autotune_measures"], 1),
        "trace.step_ms_p50": (step_p50, n),
        "graph.executor.forward_pct": (forward_pct, n),
        "graph.executor.backward_pct": (backward_pct, n),
        "transformer.training.adam_pct": (
            phase_pct("transformer.training.adam"), n),
        "trace.span_gap_pct": (gap_pct, n),
        "tensor.einsum.fwd_pct": (einsum_fwd_pct, 1),
        "tensor.einsum.bwd_pct": (einsum_bwd_pct, 1),
        "ops.rest_fwd_pct": (forward_pct - einsum_fwd_pct, n),
        "ops.rest_bwd_pct": (backward_pct - einsum_bwd_pct, n),
        "graph.executor.launches": (traced["launches"], 1),
        "config.autotune.hits_per_step": (
            traced["autotune_hits"] / steady, steady),
        "graph.plan.peak_mib": (traced["plan_peak_bytes"] / mib, 1),
        "graph.plan.naive_mib": (traced["plan_naive_bytes"] / mib, 1),
        "graph.plan.unbudgeted_peak_mib": (
            traced["unbudgeted_peak_bytes"] / mib, 1),
        "graph.checkpoint.recompute_layers": (traced["recompute_layers"], 1),
        "graph.checkpoint.recompute_gflop": (
            traced["recompute_flop"] / 1e9, 1),
        "graph.analysis.gflop": (traced["graph_flop"] / 1e9, 1),
        "graph.analysis.contraction_flop_pct": (
            100 * traced["contraction_flop"] / traced["graph_flop"], 1),
        "graph.analysis.movement_mib": (
            traced["movement_elems"] * 2 / mib, 1),
        "graph.analysis.achieved_gflops": (
            traced["graph_flop"] / 1e9 / (untraced_p50 / 1e3),
            len(untraced["step_ms"])),
        "tensor.memstats.allocs_per_step": (traced["allocs"] / steady, steady),
        "tensor.memstats.alloc_bytes_per_step": (
            traced["alloc_bytes"] / steady, steady),
        "tensor.einsum.table_builds_per_step": (
            traced["table_builds"] / steady, steady),
        "tensor.einsum.class_builds_per_step": (
            traced["class_builds"] / steady, steady),
        "trace.overhead_pct": (
            100 * (traced_p50 - untraced_p50) / untraced_p50,
            len(traced["step_ms"])),
    })
    return out


# ---------------------------------------------------------------- processes

def build():
    """Configures (once) and builds xflow_bench; exits non-zero when that
    is impossible, before any result is printed."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: {ROOT} is not an xflow source tree "
                 "(no CMakeLists.txt or src/); nothing to build")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "xflow_bench",
                  "-j", str(THREADS)])
    deadline = time.monotonic() + BUILD_BUDGET_S
    for cmd in steps:
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()), check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.exit(f"run.py: build failed: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def run_bench(args, deadline):
    """Runs xflow_bench and returns its JSON result."""
    cmd = [str(BINARY)] + args
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{' '.join(cmd)} timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise BenchError(f"{' '.join(cmd)} printed no result") from e


def run_workload(workload, opts):
    """All processes of one workload run; returns the result record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = [f"--workload={workload}", f"--seed={opts.seed}"]
    timed = base + [f"--threads={THREADS}"] + (
        ["--steps=2"] if opts.smoke else [f"--seconds={opts.seconds}"])
    reference = run_bench(base + ["--reference"], deadline)
    runs = [reference]
    setups = []
    if not opts.trace and not opts.smoke:
        setups = [run_bench(base + [f"--threads={THREADS}", "--setup-only"],
                             deadline) for _ in range(SETUP_SAMPLES - 1)]
        runs += setups
    main = run_bench(timed, deadline)
    runs.append(main)
    record = {"main": main, "checks": {}}
    if opts.trace:
        trace_path = BUILD / f"{workload}.trace.json"
        traced = run_bench(timed + [f"--trace={trace_path}"], deadline)
        runs.append(traced)
        events = json.loads(trace_path.read_text())["traceEvents"]
        record["per_layer"] = per_layer_metrics(main, traced, events)
    record["end_to_end"] = end_to_end_metrics(
        main, [main["setup_s"]] + [s["setup_s"] for s in setups])
    record["extra"] = extra_percentiles(main)

    checks = record["checks"]
    checks["hash_matches_reference"] = all(
        r["hash"] == reference["hash"] for r in runs)
    losses = main["losses"]
    if main["train"]:
        trend = loss_trend_ok(losses)
        if trend is not None:
            checks["loss_decreases"] = trend
    checks["steady_state_counters_zero"] = all(
        r[key] == 0 for r in runs if "allocs" in r
        for key in ("allocs", "alloc_bytes", "table_builds", "class_builds"))
    checks["steps_tune_nothing"] = all(r["step_tunes"] == 0 for r in runs)
    checks["build_type_release"] = main["build_type"] == "Release"
    step_count = sum(len(r["warmup_losses"]) + len(r.get("step_ms", []))
                     for r in runs)
    failed_steps = sum(r.get("failed_steps", 0) for r in runs)
    record["attempted"] = step_count + len(checks)
    record["failed"] = failed_steps + sum(not ok for ok in checks.values())
    return record


# ------------------------------------------------------------------ output

def environment(opts, main):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(), "threads": main["threads"],
            "compiler": main.get("compiler", "unknown"),
            "build_type": main.get("build_type", "unknown"),
            "git_commit": commit, "seed": opts.seed}


def save_results(workload, opts, env, record):
    """Merges this workload's record into build/benchmark/results.json."""
    path = BUILD / "results.json"
    try:
        results = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        results = {}
    results["environment"] = env
    saved = {key: record[key] for key in
             ("attempted", "failed", "checks", "end_to_end", "extra",
              "per_layer") if key in record}
    saved["trace"] = opts.trace
    saved["seconds"] = opts.seconds
    results.setdefault("workloads", {})[workload] = saved
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def report(workload, record, spec):
    """Prints the human-readable table, then the result JSON line."""
    section = "per_layer" if "per_layer" in record else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    shown = dict(record.get(section, {}))
    if section == "end_to_end":
        shown.update(record.get("extra", {}))
    units = dict(declared, **{name: "ms" for name in record.get("extra", {})})
    print(f"== {workload}: {section} metrics")
    for name, (value, samples) in shown.items():
        print(f"  {name:40s} {value:14.4f} {units[name]:8s} (n={samples})")
    for name, ok in record["checks"].items():
        print(f"  check {name:34s} {'ok' if ok else 'FAILED'}")
    print(f"  {'fail_ratio':40s} "
          f"{fail_ratio(record['failed'], record['attempted']):14.4f} "
          f"{'1':8s} ({record['failed']}/{record['attempted']})")
    metrics = {name: {"value": shown[name][0], "unit": unit}
               for name, unit in declared.items() if name in shown}
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-loop length (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="2 timed steps per workload, one set-up sample")
    opts = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"run.py: cannot read {SPEC_PATH}: {e}")
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if opts.workload == "all" else [opts.workload]
    if not set(workloads) <= set(names):
        sys.exit(f"run.py: unknown workload '{opts.workload}' "
                 f"(one of {', '.join(names)} or all)")
    for knob in KNOBS:  # inherited by every process started below
        os.environ.pop(knob, None)

    build()
    all_correct = True
    for workload in workloads:
        try:
            record = run_workload(workload, opts)
        except (BenchError, KeyError, OSError, ValueError) as e:
            print(f"run.py: {workload}: {e}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            all_correct = False
            continue
        save_results(workload, opts, environment(opts, record["main"]),
                     record)
        all_correct = report(workload, record, spec) and all_correct
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
