"""Command-line orchestration of the five pipeline stages.

Subcommands: simulate | estimate | segment | render | evaluate | pipeline.
`simulate` writes the IR and RGB observations as uncompressed npz
(`ir_observations.npz`, frame-major: rows of one frame contiguous, each
frame's time and LED stored once with its row offsets;
`rgb_observations.npz`) and the scene, materials, trajectory and config as
text; `estimate` writes `records.npz` and `colors.txt`, `segment`
`labels.txt`, `render` `material_*.brdf` and PPM images, `evaluate`
`report.txt`.
Exit codes: 0 success, 2 config error (also a camera, `saturation_level` or
`n_ir_frames` that `estimate` or `render` is given other than the scan's), 3
missing, corrupt or empty input (an artifact `io` cannot read, such as IR
frame offsets that do not rise from 0 to the row count or frame times that do
not strictly increase; observations or records of a vertex the scene lacks, a
frame LED the rig lacks or a frame time outside the trajectory; labels not
one per scene vertex; a `records.npz` with no records: every observation was
rejected or its vertex has no color), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import brdf_table, estimation, io, render_eval, scenes, segmentation
from .config import ConfigError, PipelineConfig, load_config, serialize_config
from .geometry import PinholeCamera
from .io import MissingInputError
from .simulator import (NoiseConfig, ScanConfig, frame_times, make_default_rig,
                        simulate_scan)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_NUMERIC = 4

CAMERA_FIELDS = ("fx", "fy", "cx", "cy", "width", "height")
# the scan's fields that stages after `simulate` read from the config again
SCAN_FIELDS = CAMERA_FIELDS + ("saturation_level", "n_ir_frames")


def _scan_config(cfg: PipelineConfig) -> ScanConfig:
    camera = PinholeCamera(cfg.fx, cfg.fy, cfg.cx, cfg.cy, cfg.width, cfg.height)
    try:
        trajectory = scenes.arc_trajectory(
            cfg.n_trajectory_poses, cfg.duration_s,
            radius=cfg.trajectory_radius_m, sweep_deg=cfg.trajectory_sweep_deg)
    except ValueError as exc:
        # a radius too small for the arc to leave its look-at target
        raise ConfigError(f"trajectory_radius_m = {cfg.trajectory_radius_m} "
                          f"gives no camera pose: {exc}") from exc
    noise = NoiseConfig(**{f.name: getattr(cfg, f.name)
                           for f in dataclasses.fields(NoiseConfig)})
    return ScanConfig(camera=camera, rig=make_default_rig(), trajectory=trajectory,
                      noise=noise, saturation_level=cfg.saturation_level,
                      n_ir_frames=cfg.n_ir_frames,
                      rgb_frame_stride=cfg.rgb_frame_stride)


def _make_scene(cfg: PipelineConfig):
    scene = scenes.make_scene(cfg.scene, cfg.n_vertices, cfg.rng_seed)
    if cfg.lambertian_materials:
        scene.materials = scenes.lambertian_materials(scene.materials)
    return scene


def _paths(out_dir):
    return {
        "config": os.path.join(out_dir, "config.txt"),
        "scene": os.path.join(out_dir, "scene.txt"),
        "materials": os.path.join(out_dir, "materials.txt"),
        "trajectory": os.path.join(out_dir, "trajectory.txt"),
        "ir": os.path.join(out_dir, "ir_observations.npz"),
        "rgb": os.path.join(out_dir, "rgb_observations.npz"),
        "colors": os.path.join(out_dir, "colors.txt"),
        "records": os.path.join(out_dir, "records.npz"),
        "labels": os.path.join(out_dir, "labels.txt"),
        "report": os.path.join(out_dir, "report.txt"),
    }


def _scanned_camera(cfg: PipelineConfig) -> PinholeCamera:
    """The camera of `cfg`, whose `SCAN_FIELDS` must be those `simulate`
    scanned with, as recorded in the config.txt it wrote."""
    path = _paths(cfg.out_dir)["config"]
    scanned = io.read_config(path)
    changed = [f for f in SCAN_FIELDS if getattr(cfg, f) != getattr(scanned, f)]
    camera = [f for f in changed if f in CAMERA_FIELDS]
    names = [f"camera ({', '.join(camera)})"] if camera else []
    names += changed[len(camera):]
    if names:
        raise ConfigError(f"{' and '.join(names)} "
                          f"{'differs' if len(names) == 1 else 'differ'} from "
                          f"the scan's {path}")
    return PinholeCamera(cfg.fx, cfg.fy, cfg.cx, cfg.cy, cfg.width, cfg.height)


def _read_records(path: str, scene) -> estimation.VertexRecords:
    """The records `estimate` wrote, of which segment, render and evaluate
    need at least one, each of a vertex of `scene`."""
    records = io.read_records(path)
    if not records:
        raise MissingInputError(f"no reflectance records in {path}: every "
                                "observation was rejected or has no color")
    _check_range(path, "vertex_id", records.vertex_id, 0, len(scene) - 1)
    return records


def _read_labels(path: str, scene) -> np.ndarray:
    """The labels `segment` wrote, one per vertex of `scene`."""
    labels = io.read_labels(path)
    if len(labels) != len(scene):
        raise io.CorruptInputError(f"corrupt input file {path}: {len(labels)} "
                                   f"labels for {len(scene)} scene vertices")
    return labels


def _check_range(path, name, values, lo, hi) -> None:
    if len(values) and (values.min() < lo or values.max() > hi):
        raise io.CorruptInputError(f"corrupt input file {path}: {name} outside "
                                   f"[{lo}, {hi}]")


def cmd_simulate(cfg: PipelineConfig) -> int:
    scene = _make_scene(cfg)
    scan = _scan_config(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = _paths(cfg.out_dir)
    ir, rgb = simulate_scan(scene, scan)
    io.write_scene(paths["scene"], scene)
    io.write_materials(paths["materials"], scene.materials)
    io.write_trajectory(paths["trajectory"], scan.trajectory)
    io.write_ir_observations(paths["ir"], ir)
    io.write_rgb_observations(paths["rgb"], rgb)
    with open(paths["config"], "w") as fh:
        fh.write(serialize_config(cfg))
    if len(ir) == 0:
        print("warning: no IR observations generated", file=sys.stderr)
    print(f"simulate: {len(ir)} IR and {len(rgb)} RGB observations "
          f"for {len(scene)} vertices")
    return EXIT_OK


def cmd_estimate(cfg: PipelineConfig) -> int:
    paths = _paths(cfg.out_dir)
    camera = _scanned_camera(cfg)
    materials = io.read_materials(paths["materials"])
    scene = io.read_scene(paths["scene"], materials)
    trajectory = io.read_trajectory(paths["trajectory"])
    ir = io.read_ir_observations(paths["ir"])
    rgb = io.read_rgb_observations(paths["rgb"])
    rig = make_default_rig()
    _check_range(paths["ir"], "vertex_id", ir.vertex_id, 0, len(scene) - 1)
    _check_range(paths["ir"], "frame_led", ir.frame_led, 0, len(rig) - 1)
    _check_range(paths["ir"], "frame_time", ir.frame_time,
                 trajectory.times[0], trajectory.times[-1])
    _check_range(paths["rgb"], "vertex_id", rgb.vertex_id, 0, len(scene) - 1)
    colors = estimation.estimate_colors(rgb, cfg.saturation_level)
    records, counts = estimation.accumulate_vertex_tables(
        ir, scene, trajectory, rig, colors, camera, cfg.saturation_level)
    io.write_colors(paths["colors"], colors)
    io.write_records(paths["records"], records)
    print("estimate: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print(f"estimate: {len(records)} vertex records, {len(colors[0])} colors")
    return EXIT_OK


def cmd_segment(cfg: PipelineConfig) -> int:
    paths = _paths(cfg.out_dir)
    scene = io.read_scene(paths["scene"], io.read_materials(paths["materials"]))
    records = _read_records(paths["records"], scene)
    table = segmentation.build_global_table(records, cfg.sample_budget, cfg.rng_seed)
    if cfg.segmentation_mode == "two":
        groups, diag = segmentation.two_material_segmentation(table)
    else:
        groups, diag = segmentation.multi_material_segmentation(table)
    labels = segmentation.diffuse_labels(groups, scene.positions,
                                         table.sampled_ids, cfg.diffusion_radius_m)
    io.write_labels(paths["labels"], labels)
    counts = " ".join(str(len(g)) for g in groups.groups)
    print(f"segment: {len(groups.groups)} groups with counts [{counts}], "
          f"{len(groups.unclassified)} unclassified; {diag}")
    return EXIT_OK


def cmd_render(cfg: PipelineConfig) -> int:
    paths = _paths(cfg.out_dir)
    camera = _scanned_camera(cfg)
    scene = io.read_scene(paths["scene"], io.read_materials(paths["materials"]))
    records = _read_records(paths["records"], scene)
    labels = _read_labels(paths["labels"], scene)
    trajectory = io.read_trajectory(paths["trajectory"])
    merged = brdf_table.merge_groups(labels[records.cell_vid], records.flat,
                                     records.means, records.counts, labels.max() + 1)
    completed = [brdf_table.complete(t) if t.measured_count >= 2 else None
                 for t in merged]
    light = np.array([0.3, 0.3, 1.0])
    for g, full in enumerate(completed):
        if full is None:
            continue
        with open(os.path.join(cfg.out_dir, f"material_{g}.brdf"), "w") as fh:
            fh.write(brdf_table.to_text(full))
        img = render_eval.render_material_sphere(full, light)
        render_eval.write_ppm(os.path.join(cfg.out_dir, f"sphere_{g}.ppm"), img)

    t0 = float(frame_times(trajectory, cfg.n_ir_frames)[0])
    usable = [t for t in completed if t is not None]
    written = f"render: {len(usable)} material spheres"
    if usable:
        # a group lacking a table renders with the first usable one
        render_tables = [t if t is not None else usable[0] for t in completed]
        frame = render_eval.rerender_ir_frame(
            scene, labels, render_tables, trajectory, t0, 0, make_default_rig(),
            camera, exposure=2.0)
        render_eval.write_ppm(os.path.join(cfg.out_dir, "rerender.ppm"), frame)
        written += " + scene re-render"
    print(written)
    return EXIT_OK


def cmd_evaluate(cfg: PipelineConfig) -> int:
    paths = _paths(cfg.out_dir)
    scene = io.read_scene(paths["scene"], io.read_materials(paths["materials"]))
    records = _read_records(paths["records"], scene)
    labels = _read_labels(paths["labels"], scene)
    vids = records.vertex_id
    groups = segmentation.MaterialGroups(
        [set(vids[labels[vids] == g].tolist()) for g in range(labels.max() + 1)],
        set(vids[labels[vids] < 0].tolist()))
    merged = brdf_table.merge_groups(labels[records.cell_vid], records.flat,
                                     records.means, records.counts, labels.max() + 1)
    report = render_eval.evaluate(groups, scene.material_ids, merged, scene.materials)
    with open(paths["report"], "w") as fh:
        fh.write(report.to_text())
    print("evaluate:\n" + report.to_text().rstrip())
    return EXIT_OK


def cmd_pipeline(cfg: PipelineConfig) -> int:
    for stage in (cmd_simulate, cmd_estimate, cmd_segment, cmd_render, cmd_evaluate):
        rc = stage(cfg)
        if rc != EXIT_OK:
            return rc
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "segment": cmd_segment,
    "render": cmd_render,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matscan",
        description="Synthetic appearance-capture pipeline: simulate, estimate, "
                    "segment, render, evaluate.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to key = value config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="rng seed (overrides config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else PipelineConfig()
        if args.out:
            cfg.out_dir = args.out
        if args.seed is not None:
            cfg.rng_seed = args.seed
        # a numpy overflow, invalid value or division by zero ends the
        # command in EXIT_NUMERIC, not in a silent inf or NaN
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return COMMANDS[args.command](cfg.validate())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
