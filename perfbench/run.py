#!/usr/bin/env python3
"""Benchmark of the matscan pipeline (simulate, estimate, segment, render,
evaluate) on one workload.

    python3 perfbench/run.py --workload cli-two-sphere --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. The run repeats the whole pipeline on the
inputs generated from --seed, closed loop with one client, for --seconds
(at least two iterations, so that determinism is always checked), and prints
one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. `attempted` and `failed` count
stage calls; a stage fails when it exits non-zero, raises, or its outputs fail
a check.

--trace 0 reports the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced iterations and reports the per-layer metrics
of the traced ones, plus the tracing overhead; spans are written to
.bench_out/<workload>/spans.jsonl when the run ends. See perfbench/README.md
for the workloads and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing
from metrics import END_TO_END, PER_LAYER, STAGES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# BLAS/OpenMP pools stay at one thread: one client, steady timings
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ITERATIONS = 2
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def build_parser(workload_names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time and exit")
    return ap


def _median(values):
    return statistics.median(values) if values else 0.0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end_metrics(iters, setup_samples):
    done = [it for it in iters if it.complete]
    reports = [it.report for it in iters if it.report is not None]
    return {
        "setup_s": _median(setup_samples),
        "pipeline_s": _median([it.pipeline_s for it in done]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{key: _median([r[key] for r in reports])
           for key in ("purity", "classified_fraction")},
    }


def layer_values(calls, total, self_time, counts, it) -> dict:
    """Per-layer metrics of one traced iteration."""
    obs_write = ("io.write_ir_observations", "io.write_rgb_observations")
    obs_read = ("io.read_ir_observations", "io.read_rgb_observations")
    named_io = {"io.read_records", "io.write_records", *obs_write, *obs_read}
    inverted = counts["estimation.ir_inverted"]
    values = {
        "io.read_records_s": total["io.read_records"],
        "io.read_records_calls": calls["io.read_records"],
        "io.write_observations_s": sum(total[n] for n in obs_write),
        "io.read_observations_s": sum(total[n] for n in obs_read),
        "io.write_records_s": total["io.write_records"],
        "io.other_s": sum((t for n, t in total.items()
                          if n.startswith("io.") and n not in named_io), 0.0),
        "io.observations_bytes": (it.artifact_bytes["ir_observations"]
                                  + it.artifact_bytes["rgb_observations"]),
        "io.records_bytes": it.artifact_bytes["records"],
        "io.artifact_mb": sum(it.artifact_bytes.values()) / 1e6,
        **{f"io.bytes.{g}": b for g, b in it.artifact_bytes.items()},
        "simulator.simulate_scan_s": total["simulator.simulate_scan"],
        "simulator.ir_observations": counts["simulator.ir_observations"],
        "simulator.rgb_observations": counts["simulator.rgb_observations"],
        "estimation.estimate_colors_s": total["estimation.estimate_colors"],
        "estimation.invert_observation_arrays_s":
            total["estimation.invert_observation_arrays"],
        "estimation.accumulate_self_s":
            self_time["estimation.accumulate_vertex_tables"],
        "estimation.accept_ratio":
            counts["estimation.accepted"] / inverted if inverted else 0.0,
        "estimation.records": counts["estimation.records"],
        "estimation.table_cells": counts["estimation.table_cells"],
        "segmentation.meanshift_s": total["segmentation.meanshift"],
        "segmentation.meanshift_calls": calls["segmentation.meanshift"],
        "segmentation.meanshift_points": counts["segmentation.meanshift_points"],
        "segmentation.meanshift_max_points":
            counts["segmentation.meanshift_max_points"],
        "segmentation.initial_clusters_self_s":
            self_time["segmentation.initial_clusters"],
        "segmentation.propagate_self_s":
            self_time["segmentation.two_material_segmentation"]
            + self_time["segmentation.multi_material_segmentation"],
        "segmentation.build_global_table_s":
            total["segmentation.build_global_table"],
        "segmentation.diffuse_labels_s": total["segmentation.diffuse_labels"],
        "segmentation.cells": counts["segmentation.cells"],
        "brdf_table.from_cells_s": total["brdf_table.from_cells"],
        "brdf_table.from_cells_calls": calls["brdf_table.from_cells"],
        "brdf_table.merge_s": total["brdf_table.merge"],
        "brdf_table.merge_calls": calls["brdf_table.merge"],
        "brdf_table.complete_s": total["brdf_table.complete"],
        "brdf_table.to_text_s": total["brdf_table.to_text"],
        "brdf_table.lookup_arrays_s": total["brdf_table.lookup_arrays"],
        "render_eval.render_material_sphere_s":
            total["render_eval.render_material_sphere"],
        "render_eval.rerender_ir_frame_s": total["render_eval.rerender_ir_frame"],
        "render_eval.write_ppm_s": total["render_eval.write_ppm"],
        "render_eval.evaluate_s": total["render_eval.evaluate"],
        "render_eval.brdf_rmse_mean": it.report["brdf_rmse_mean"],
        "geometry.helpers_s": sum((t for n, t in total.items()
                                  if n.startswith("geometry.")), 0.0),
    }
    for stage in STAGES:
        values[f"cli.{stage}.self_s"] = self_time[f"cli.{stage}"]
    return values


def per_layer_metrics(iters, traced, tracer):
    runs = [i for i in traced if iters[i].complete]
    per_run = []
    for i in runs:
        calls, total, self_time = tracing.run_totals(tracer.spans, i)
        per_run.append(layer_values(calls, total, self_time, tracer.counts[i],
                                    iters[i]))
    values = {name: _median([v[name] for v in per_run])
              for name in (per_run[0] if per_run else {})}
    untraced = [it for i, it in enumerate(iters)
                if i not in traced and it.complete]
    for stage in STAGES:
        values[f"{stage}_s"] = _median([it.stage_s[stage] for it in untraced])
    values["trace.pipeline_s"] = _median([iters[i].pipeline_s for i in runs])
    values["trace.overhead_s"] = (values["trace.pipeline_s"]
                                  - _median([it.pipeline_s for it in untraced]))
    return values


def _finite(x):
    return x if isinstance(x, int) or math.isfinite(x) else None


def measure(wl, seconds: float, trace: bool):
    """Closed loop with one client: iterate until the next iteration would
    end more than half an iteration after `seconds` (so the run lasts about
    `seconds`), and at least MIN_ITERATIONS times. With `trace`,
    every second iteration is traced. Every iteration after the first is
    checked against the first for determinism."""
    tracer = tracing.Tracer() if trace else None
    iters, traced = [], []
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        trace_this = tracer is not None and len(iters) % 2 == 1
        if trace_this:
            traced.append(len(iters))
            tracer.run = len(iters)
            tracer.install()
        try:
            it = wl.iterate(tracer if trace_this else None)
        finally:
            if trace_this:
                tracer.uninstall()
        if iters:
            wl.check_determinism(it, iters[0])
        iters.append(it)
        now = time.perf_counter()
        if (len(iters) >= MIN_ITERATIONS
                and now - start + (now - t_iter) / 2 > seconds):
            return iters, traced, tracer


def summarize(iters, traced, tracer, setup_samples) -> dict:
    """The result object; per-layer metrics when traced, else end to end."""
    from workloads import CHECKS
    if tracer is None:
        values = end_to_end_metrics(iters, setup_samples)
        specs = END_TO_END
    else:
        values = per_layer_metrics(iters, traced, tracer)
        specs = PER_LAYER
    checks_run = set().union(*(it.checks for it in iters))
    failed = sum(len(it.failed) for it in iters)
    return {
        "correct": failed == 0 and checks_run == set(CHECKS),
        "attempted": sum(it.attempted for it in iters),
        "failed": failed,
        "metrics": {name: {"value": _finite(values.get(name, 0.0)), "unit": unit}
                    for name, unit, _ in specs},
    }


def main(argv=None) -> int:
    t_start = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(ROOT, "src", "matscan", "cli.py")):
        print(f"error: no matscan sources under {os.path.join(ROOT, 'src')}; "
              "run the benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    args = build_parser(sorted(workloads.WORKLOADS)).parse_args(argv)
    wl = workloads.Workload(args.workload, args.seed, ROOT)
    wl.prepare()
    setup_s = time.perf_counter() - t_start
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.perf_counter()
    iters, traced, tracer = measure(wl, args.seconds, bool(args.trace))
    setup = [setup_s]
    if tracer is None:
        setup += [probe_setup(args.workload, args.seed)
                  for _ in range(SETUP_PROBES)]
    else:
        tracer.write(os.path.join(wl.dir, "spans.jsonl"))
    result = summarize(iters, traced, tracer, setup)
    print(f"{args.workload} seed {args.seed}: {len(iters)} iterations "
          f"({len(traced)} traced) in {time.perf_counter() - start:.1f} s, "
          "pipeline_s " + " ".join(f"{it.pipeline_s:.3f}" for it in iters),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
