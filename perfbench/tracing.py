"""Per-layer spans for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.install` rebinds the
layer entry points of `matscan` (module attributes, every `from ... import`
alias of them in other `matscan` modules, and the `BrdfTable.from_cells`
classmethod) to wrappers that open a span around each call. Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# module -> attributes of every wrapped layer entry point. The geometry
# helpers are the ones simulator, estimation and render_eval import by name.
LAYER_FUNCTIONS = {
    "simulator": ["simulate_scan"],
    "io": ["write_scene", "read_scene", "write_materials", "read_materials",
           "write_trajectory", "read_trajectory", "write_ir_observations",
           "read_ir_observations", "write_rgb_observations",
           "read_rgb_observations", "write_colors", "read_colors",
           "write_records", "read_records", "write_labels", "read_labels"],
    "estimation": ["estimate_colors", "invert_observation_arrays",
                   "accumulate_vertex_tables"],
    "segmentation": ["build_global_table", "initial_clusters", "meanshift",
                     "two_material_segmentation", "multi_material_segmentation",
                     "diffuse_labels"],
    "brdf_table": ["merge", "complete", "to_text", "lookup_arrays"],
    "render_eval": ["render_material_sphere", "rerender_ir_frame", "write_ppm",
                    "evaluate"],
    "geometry": ["interpolate_trajectory", "project_points",
                 "half_diff_angle_arrays"],
}
FROM_CELLS = "brdf_table.from_cells"


def _count_simulate(counts, args, result):
    ir, rgb = result
    counts["simulator.ir_observations"] += len(ir)
    counts["simulator.rgb_observations"] += len(rgb)


def _count_invert(counts, args, result):
    counts["estimation.ir_inverted"] += len(result[0])
    counts["estimation.accepted"] += int(result[0].sum())


def _count_accumulate(counts, args, result):
    records = result[0]
    counts["estimation.records"] += len(records)
    counts["estimation.table_cells"] += sum(len(r.table) for r in records)


def _count_meanshift(counts, args, result):
    n = len(args[0])
    counts["segmentation.meanshift_points"] += n
    counts["segmentation.meanshift_max_points"] = max(
        counts["segmentation.meanshift_max_points"], n)


def _count_global_table(counts, args, result):
    counts["segmentation.cells"] += len(result)


COUNTERS = {
    "simulator.simulate_scan": _count_simulate,
    "estimation.invert_observation_arrays": _count_invert,
    "estimation.accumulate_vertex_tables": _count_accumulate,
    "segmentation.meanshift": _count_meanshift,
    "segmentation.build_global_table": _count_global_table,
}


class Tracer:
    """Collects spans (name, start, end, parent, run) and per-run counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # run id -> counter
        self.run = 0
        self._stack = []
        self._restore = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "run": self.run})
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()]["end"] = time.perf_counter()

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                count(self.counts[self.run], args, result)
            return result
        return traced

    def install(self):
        """Rebind every layer entry point in every loaded matscan module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("matscan.") and m is not None]
        for short, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"matscan.{short}"]
            for attr in names:
                original = getattr(home, attr)
                wrapped = self.wrap(f"{short}.{attr}", original)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, alias, original))
                            setattr(mod, alias, wrapped)
        cls = sys.modules["matscan.brdf_table"].BrdfTable
        original = cls.__dict__["from_cells"]
        self._restore.append((cls, "from_cells", original))
        cls.from_cells = classmethod(self.wrap(FROM_CELLS, original.__func__))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def run_totals(spans, run):
    """name -> (calls, total seconds, self seconds) for one run id. Self time
    is a span's duration minus that of its direct children; spans nest
    strictly because the pipeline is single-threaded."""
    child_time = defaultdict(float)
    for span in spans:
        if span["run"] == run and span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    for i, span in enumerate(spans):
        if span["run"] != run:
            continue
        dur = span["end"] - span["start"]
        calls[span["name"]] += 1
        total[span["name"]] += dur
        self_time[span["name"]] += dur - child_time[i]
    return calls, total, self_time
