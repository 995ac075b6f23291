"""The benchmark's workloads: one pipeline iteration per call, with stage
timings and output checks.

The CLI workload drives `matscan.cli.main` stage by stage against a
generated config, with artifacts on disk. The library workload runs the same
five stages in memory through the public library functions; its stage
boundaries match the CLI commands without their artifact I/O.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import io as textio
import os
import shutil
import sys
import time
import traceback

import numpy as np

from matscan import (brdf_table, cli, estimation, geometry, render_eval, scenes,
                     segmentation, simulator)
from matscan.config import PipelineConfig, serialize_config

from metrics import ARTIFACT_FILES, STAGES

# the demo noise mix of scripts/run_demo.py
DEMO_NOISE = dict(normal_jitter_deg=2.0, intensity_multiplicative_sigma=0.03,
                  outlier_fraction=0.01)

# acceptance floors of tests/test_acceptance.py
PURITY_FLOOR = 0.95
CLASSIFIED_FLOOR = 0.85

CHECKS = ("exit", "report", "groups", "floors", "determinism")

WORKLOADS = {
    # artifact-I/O bound: records.npz is read three times (segment, render,
    # evaluate), and each read_records decompresses every array per vertex
    "cli-two-sphere": dict(kind="cli", scene="two-sphere", n_vertices=250,
                           n_ir_frames=200, segmentation_mode="two"),
    # segmentation bound, in memory: no io at all, the largest scan and
    # inversion load, and the multi-material rounds over the global cells
    "lib-sphere-multi": dict(kind="lib", scene="two-sphere", n_vertices=2000,
                             n_ir_frames=200, segmentation_mode="multi"),
}


def make_config(spec: dict, seed: int, out_dir: str) -> PipelineConfig:
    return PipelineConfig(
        scene=spec["scene"], n_vertices=spec["n_vertices"],
        n_ir_frames=spec["n_ir_frames"],
        segmentation_mode=spec["segmentation_mode"], out_dir=out_dir,
        rng_seed=seed, **DEMO_NOISE).validate()


def parse_report(text: str) -> dict:
    """Fields of `EvalReport.to_text`; raises ValueError when malformed."""
    fields = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        fields[key] = rest.split()
    rmse = [float(x) for x in fields["brdf_rmse"]]
    finite = [r for r in rmse if np.isfinite(r)]
    return {
        "group_counts": [int(x) for x in fields["group_counts"]],
        "purity": float(fields["purity"][0]),
        "classified_fraction": float(fields["classified_fraction"][0]),
        "brdf_rmse_mean": float(np.mean(finite)) if finite else float("nan"),
    }


class Iteration:
    """Outcome of one pipeline iteration."""

    def __init__(self):
        self.stage_s = {}      # stage -> seconds, for stages that returned 0
        self.failed = set()    # stages that failed or failed an output check
        self.checks = {}       # check name -> passed
        self.report = None
        self.labels = None
        self.artifact_bytes = {group: 0 for group in ARTIFACT_FILES}

    @property
    def complete(self) -> bool:
        return len(self.stage_s) == len(STAGES)

    @property
    def attempted(self) -> int:
        return len(self.stage_s) + len(self.failed - set(self.stage_s))

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())


def _fail(it: Iteration, stage: str, check: str, why: str):
    it.checks[check] = False
    it.failed.add(stage)
    print(f"check {check} failed at {stage}: {why}", file=sys.stderr)


class Workload:
    """One workload at one seed. `prepare` is the set-up; `iterate` runs the
    five stages once, timing each and checking the outputs."""

    def __init__(self, name: str, seed: int, root: str, spec: dict | None = None):
        self.name = name
        self.spec = dict(spec or WORKLOADS[name])
        self.seed = seed
        self.dir = os.path.join(root, ".bench_out", name)

    def prepare(self):
        os.makedirs(self.dir, exist_ok=True)
        self.out_dir = os.path.join(self.dir, "artifacts")
        self.cfg = make_config(self.spec, self.seed, self.out_dir)
        if self.spec["kind"] == "cli":
            shutil.rmtree(self.out_dir, ignore_errors=True)
            os.makedirs(self.out_dir)
            self.cfg_path = os.path.join(self.dir, "bench.cfg")
            with open(self.cfg_path, "w") as fh:
                fh.write(serialize_config(self.cfg))

    def iterate(self, tracer=None) -> Iteration:
        it = Iteration()
        if self.spec["kind"] == "cli":
            shutil.rmtree(self.out_dir, ignore_errors=True)
            os.makedirs(self.out_dir)
            lib = None
            calls = {s: functools.partial(self._cli_stage, s) for s in STAGES}
        else:
            lib = _LibStages(self.cfg)
            calls = lib.stages()
        for stage in STAGES:
            if not self._timed(it, stage, calls[stage], tracer):
                _fail(it, stage, "exit", "stage did not complete")
                return it
        it.checks["exit"] = True
        self._check_outputs(it, lib)
        return it

    def _timed(self, it, stage, fn, tracer) -> bool:
        if tracer is not None:
            tracer.open(f"cli.{stage}")
        t0 = time.perf_counter()
        try:
            rc = fn()
        except Exception:
            traceback.print_exc()
            rc = None
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close()
        if rc == 0:
            it.stage_s[stage] = dt
            return True
        return False

    def _cli_stage(self, stage: str):
        with contextlib.redirect_stdout(textio.StringIO()):
            return cli.main([stage, "--config", self.cfg_path])

    def _check_outputs(self, it: Iteration, lib):
        if lib is None:
            for group, pattern in ARTIFACT_FILES.items():
                it.artifact_bytes[group] = sum(
                    os.path.getsize(p)
                    for p in glob.glob(os.path.join(self.out_dir, pattern)))
            with open(os.path.join(self.out_dir, "labels.txt"), "rb") as fh:
                it.labels = fh.read()
            with open(os.path.join(self.out_dir, "materials.txt")) as fh:
                n_materials = sum(1 for line in fh if not line.startswith("#"))
            path = os.path.join(self.out_dir, "report.txt")
            report_text = ""
            if os.path.exists(path):
                with open(path) as fh:
                    report_text = fh.read()
        else:
            it.labels = lib.labels.tobytes()
            n_materials = len(lib.scene.materials)
            report_text = lib.report.to_text()
        try:
            it.report = parse_report(report_text)
            it.checks["report"] = True
        except (KeyError, IndexError, ValueError) as exc:
            _fail(it, "evaluate", "report", f"report does not parse: {exc!r}")
            return
        n_groups = len(it.report["group_counts"])
        if n_groups == n_materials:
            it.checks["groups"] = True
        else:
            _fail(it, "evaluate", "groups",
                  f"{n_groups} groups for {n_materials} materials")
        if (it.report["purity"] >= PURITY_FLOOR
                and it.report["classified_fraction"] >= CLASSIFIED_FLOOR):
            it.checks["floors"] = True
        else:
            _fail(it, "evaluate", "floors",
                  f"purity {it.report['purity']}, classified "
                  f"{it.report['classified_fraction']}")

    def check_determinism(self, it: Iteration, first: Iteration):
        """Labels must be identical across iterations of one seed."""
        if it.labels is None or first.labels is None:
            return
        if it.labels == first.labels:
            it.checks["determinism"] = True
        else:
            _fail(it, "segment", "determinism", "labels differ from iteration 0")


class _LibStages:
    """The five stages in memory, with the boundaries of the CLI commands."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.labels = None
        self.report = None

    def stages(self):
        return {"simulate": self.simulate, "estimate": self.estimate,
                "segment": self.segment, "render": self.render,
                "evaluate": self.evaluate}

    def simulate(self):
        cfg = self.cfg
        self.scene = scenes.make_scene(cfg.scene, cfg.n_vertices, cfg.rng_seed)
        self.camera = geometry.PinholeCamera(cfg.fx, cfg.fy, cfg.cx, cfg.cy,
                                             cfg.width, cfg.height)
        self.trajectory = scenes.arc_trajectory(
            cfg.n_trajectory_poses, cfg.duration_s, radius=cfg.trajectory_radius_m,
            sweep_deg=cfg.trajectory_sweep_deg)
        noise = simulator.NoiseConfig(
            normal_jitter_deg=cfg.normal_jitter_deg,
            pose_translation_jitter_m=cfg.pose_translation_jitter_m,
            pose_rotation_jitter_deg=cfg.pose_rotation_jitter_deg,
            intensity_multiplicative_sigma=cfg.intensity_multiplicative_sigma,
            outlier_fraction=cfg.outlier_fraction,
            dropout_fraction=cfg.dropout_fraction, rng_seed=cfg.rng_seed)
        self.scan = simulator.ScanConfig(
            camera=self.camera, rig=simulator.make_default_rig(),
            trajectory=self.trajectory, noise=noise,
            saturation_level=cfg.saturation_level, n_ir_frames=cfg.n_ir_frames,
            rgb_frame_stride=cfg.rgb_frame_stride)
        self.ir, self.rgb = simulator.simulate_scan(self.scene, self.scan)
        return 0

    def estimate(self):
        sat = self.cfg.saturation_level
        colors = estimation.estimate_colors(self.rgb, sat)
        self.records, _ = estimation.accumulate_vertex_tables(
            self.ir, self.scene, self.trajectory, simulator.make_default_rig(),
            colors, self.camera, sat)
        return 0

    def segment(self):
        cfg = self.cfg
        table = segmentation.build_global_table(self.records, cfg.sample_budget,
                                                cfg.rng_seed)
        if cfg.segmentation_mode == "two":
            groups, _ = segmentation.two_material_segmentation(table)
        else:
            groups, _ = segmentation.multi_material_segmentation(table)
        self.labels = segmentation.diffuse_labels(
            groups, self.scene.positions, table.sampled_ids,
            cfg.diffusion_radius_m)
        return 0

    def _merged(self):
        by_group = {}
        for rec in self.records:
            lab = int(self.labels[rec.vertex_id])
            if lab >= 0:
                by_group.setdefault(lab, []).append(rec.table)
        n_groups = max(by_group) + 1 if by_group else 0
        return [brdf_table.merge(by_group[g]) if g in by_group else None
                for g in range(n_groups)]

    def render(self):
        completed = []
        light = np.array([0.3, 0.3, 1.0])
        for table in self._merged():
            if table is None or table.measured_count < 2:
                completed.append(None)
                continue
            full = brdf_table.complete(table)
            completed.append(full)
            brdf_table.to_text(full)
            render_eval.render_material_sphere(full, light)
        usable = [t for t in completed if t is not None]
        if usable:
            t0 = float(simulator.ir_frame_times(self.scan)[0])
            render_eval.rerender_ir_frame(
                self.scene, self.labels,
                [t if t is not None else usable[0] for t in completed],
                self.trajectory, t0, 0, simulator.make_default_rig(),
                self.camera, exposure=2.0)
        return 0

    def evaluate(self):
        labels = self.labels
        sampled = set(rec.vertex_id for rec in self.records)
        groups_list = [set(int(v) for v in np.nonzero(labels == g)[0]) & sampled
                       for g in sorted(set(int(x) for x in labels if x >= 0))]
        unclassified = (sampled - set().union(*groups_list) if groups_list
                        else sampled)
        groups = segmentation.MaterialGroups(groups_list, unclassified)
        merged = [t if t is not None else brdf_table.BrdfTable()
                  for t in self._merged()]
        self.report = render_eval.evaluate(groups, self.scene.material_ids,
                                           merged, self.scene.materials)
        return 0
