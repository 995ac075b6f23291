#!/usr/bin/env python3
"""Run the full pipeline on a built-in scene and print the evaluation report.

Examples:
    python3 scripts/run_demo.py                       # noisy two-sphere scan
    python3 scripts/run_demo.py --scene four-material-room --mode multi
    python3 scripts/run_demo.py --noiseless --lambertian
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from matscan import cli
from matscan.config import PipelineConfig, serialize_config


def demo_config(scene, vertices, frames, mode, seed, out_dir,
                noiseless=False, lambertian=False):
    """Write the demo's config for one scan to `out_dir`/demo.cfg and return
    its path: demo noise unless `noiseless`, flat materials if `lambertian`."""
    cfg = PipelineConfig(
        scene=scene, n_vertices=vertices, n_ir_frames=frames,
        segmentation_mode=mode, out_dir=out_dir, rng_seed=seed,
        lambertian_materials=int(lambertian))
    if not noiseless:
        cfg.normal_jitter_deg = 2.0
        cfg.intensity_multiplicative_sigma = 0.03
        cfg.outlier_fraction = 0.01
    cfg.validate()

    os.makedirs(out_dir, exist_ok=True)
    cfg_path = os.path.join(out_dir, "demo.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(serialize_config(cfg))
    return cfg_path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scene", default="two-sphere",
                    choices=["two-sphere", "four-material-room", "corner-board"])
    ap.add_argument("--mode", default="two", choices=["two", "multi"])
    ap.add_argument("--vertices", type=int, default=3000)
    ap.add_argument("--frames", type=int, default=150)
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--out", default="out/demo")
    ap.add_argument("--noiseless", action="store_true",
                    help="disable all corruption")
    ap.add_argument("--lambertian", action="store_true",
                    help="flat (lobe-free) material variants")
    args = ap.parse_args()

    cfg_path = demo_config(args.scene, args.vertices, args.frames, args.mode,
                           args.seed, args.out, args.noiseless, args.lambertian)
    rc = cli.main(["pipeline", "--config", cfg_path])
    if rc == 0:
        print(f"\nartifacts in {args.out}/ (report.txt, labels.txt, "
              "sphere_*.ppm, rerender.ppm)")
    return rc


if __name__ == "__main__":
    sys.exit(main())
