"""Shared fixtures: one small noisy scan reused across test modules."""

import numpy as np
import oracles
import pytest

from matscan import estimation, scenes, segmentation
from matscan.simulator import (NoiseConfig, ScanConfig, default_camera,
                               make_default_rig, simulate_scan)


def make_scan_config(trajectory, noise, n_ir_frames):
    return ScanConfig(camera=default_camera(), rig=make_default_rig(),
                      trajectory=trajectory, noise=noise,
                      n_ir_frames=n_ir_frames)


@pytest.fixture(scope="session")
def noisy_two_sphere():
    """Two-sphere scan with the standard noise mix, small enough for unit
    tests but large enough to segment cleanly."""
    scene = scenes.make_scene("two-sphere", 1500, 11)
    traj = scenes.arc_trajectory(50, 10.0)
    noise = NoiseConfig(normal_jitter_deg=2.0,
                        intensity_multiplicative_sigma=0.03,
                        outlier_fraction=0.01, rng_seed=11)
    cfg = make_scan_config(traj, noise, 120)
    ir, rgb = simulate_scan(scene, cfg)
    colors = estimation.estimate_colors(rgb, cfg.saturation_level)
    records, counts = estimation.accumulate_vertex_tables(
        ir, scene, traj, cfg.rig, colors, cfg.camera, cfg.saturation_level)
    table = segmentation.build_global_table(records, 100000, 11)
    return {
        "scene": scene, "trajectory": traj, "config": cfg,
        "ir": ir, "rgb": rgb, "colors": colors, "records": records,
        "rejection_counts": counts, "table": table,
        # every measured cell of the table, small ones too, as a dict
        "cells": oracles.record_cells(records, table.sampled_ids),
    }


@pytest.fixture(scope="session")
def noiseless_two_sphere():
    """Noiseless variant for exactness checks."""
    scene = scenes.make_scene("two-sphere", 800, 5)
    traj = scenes.arc_trajectory(50, 10.0)
    cfg = make_scan_config(traj, NoiseConfig(rng_seed=5), 80)
    ir, rgb = simulate_scan(scene, cfg)
    return {"scene": scene, "trajectory": traj, "config": cfg,
            "ir": ir, "rgb": rgb}


@pytest.fixture(scope="session")
def large_demo_two_sphere():
    """Two-sphere scan of the in-memory benchmark's size, 2000 vertices x
    200 IR frames with the demo noise, for the traced-memory tests."""
    scene = scenes.make_scene("two-sphere", 2000, 7)
    traj = scenes.arc_trajectory(50, 10.0)
    noise = NoiseConfig(normal_jitter_deg=2.0,
                        intensity_multiplicative_sigma=0.03,
                        outlier_fraction=0.01, rng_seed=7)
    cfg = make_scan_config(traj, noise, 200)
    ir, rgb = simulate_scan(scene, cfg)
    return {"scene": scene, "trajectory": traj, "config": cfg,
            "ir": ir, "rgb": rgb}


@pytest.fixture(scope="session")
def large_demo_records(large_demo_two_sphere):
    """The records and global cell table of `large_demo_two_sphere`, at the
    default sample budget."""
    run = large_demo_two_sphere
    cfg = run["config"]
    colors = estimation.estimate_colors(run["rgb"], cfg.saturation_level)
    records, _ = estimation.accumulate_vertex_tables(
        run["ir"], run["scene"], run["trajectory"], cfg.rig, colors, cfg.camera,
        cfg.saturation_level)
    table = segmentation.build_global_table(records, 100000, 7)
    return {"records": records, "table": table}


def unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
