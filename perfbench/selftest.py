#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload path (CLI stages on disk, library stages in memory),
untraced and traced, at 200 vertices and 20 IR frames. It checks that
BENCHMARK.json and metrics.py name the same metrics and workloads, that each
run emits every metric with its unit, that every output check runs, that the
traced run records the layers it should, and that tracing leaves the program's
functions as it found them. The tiny scans are too small for the acceptance
floors, so a failed check is expected here; a check that did not run is not.
Exits 1 and lists the problems if any.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = dict(n_vertices=200, n_ir_frames=20)


def _bindings():
    """Every function bound in a matscan module, plus BrdfTable.from_cells."""
    from matscan import brdf_table
    out = {}
    for name, mod in sys.modules.items():
        if name.startswith("matscan.") and mod is not None:
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    out[("BrdfTable", "from_cells")] = brdf_table.BrdfTable.__dict__["from_cells"]
    return out


def main() -> int:
    import run
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import metrics
    import workloads

    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for key, listed in (("end_to_end", metrics.END_TO_END),
                        ("per_layer", metrics.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        expect(declared == list(listed),
               f"BENCHMARK.json {key} differs from metrics.py")
    expect(sorted(w["name"] for w in bench["workloads"])
           == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")

    setup = [run.probe_setup("cli-two-sphere", 1)]
    expect(setup[0] > 0, "setup probe reported no time")
    before = _bindings()
    for name, spec in workloads.WORKLOADS.items():
        for trace in (False, True):
            tag = f"{name} trace={int(trace)}"
            wl = workloads.Workload(name, 1, ROOT, spec=dict(spec, **TINY))
            wl.prepare()
            iters, traced, tracer = run.measure(wl, 0.0, trace)
            result = run.summarize(iters, traced, tracer, setup)
            print(f"{tag}: attempted {result['attempted']} failed "
                  f"{result['failed']} correct {result['correct']}")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect(result["attempted"] == 5 * len(iters),
                   f"{tag}: {result['attempted']} stage calls attempted")
            specs = metrics.PER_LAYER if trace else metrics.END_TO_END
            expect(list(result["metrics"]) == [n for n, _, _ in specs],
                   f"{tag}: metric names differ from metrics.py")
            for metric, unit, _ in specs:
                m = result["metrics"][metric]
                expect(m["unit"] == unit and isinstance(m["value"], (int, float))
                       and math.isfinite(m["value"]),
                       f"{tag}: metric {metric} = {m}")
            ran = set().union(*(it.checks for it in iters))
            expect(ran == set(workloads.CHECKS),
                   f"{tag}: checks run {sorted(ran)}")
            if not trace:
                continue
            values = {k: v["value"] for k, v in result["metrics"].items()}
            expect(traced and all(s["end"] is not None for s in tracer.spans),
                   f"{tag}: no traced iteration or an open span")
            io_spans = [s for s in tracer.spans if s["name"].startswith("io.")]
            if spec["kind"] == "lib":
                expect(not io_spans, f"{tag}: io spans in the library workload")
            else:
                expect(values["io.read_records_calls"] == 3,
                       f"{tag}: read_records called "
                       f"{values['io.read_records_calls']} times")
            for layer in ("simulator.simulate_scan_s", "segmentation.meanshift_s",
                          "brdf_table.from_cells_s", "brdf_table.merge_s",
                          "render_eval.evaluate_s", "geometry.helpers_s"):
                expect(values[layer] > 0, f"{tag}: no time in {layer}")
    expect(_bindings() == before, "tracing left matscan functions rebound")

    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
