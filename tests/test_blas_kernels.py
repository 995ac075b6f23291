"""The scan and its estimate do not depend on the BLAS kernel numpy loads:
one seeded two-sphere scan, run in a process on OpenBLAS's Prescott kernel
and in another on the kernel OpenBLAS detects, gives the same scene,
trajectory, pixels, intensities, colors and record means, bit for bit."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import matscan

# the scan, with demo noise and pose jitter, and its estimate; prints the
# SHA-256 of each artifact's arrays
SCRIPT = """
import hashlib, json
import numpy as np
from matscan import estimation, scenes, simulator

def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

scene = scenes.make_scene("two-sphere", 300, 5)
trajectory = scenes.arc_trajectory(12, 4.0)
cfg = simulator.ScanConfig(
    simulator.default_camera(), simulator.make_default_rig(), trajectory,
    simulator.NoiseConfig(normal_jitter_deg=2.0, pose_translation_jitter_m=0.01,
                          pose_rotation_jitter_deg=1.0,
                          intensity_multiplicative_sigma=0.03,
                          outlier_fraction=0.01, rng_seed=5),
    n_ir_frames=60)
ir, rgb = simulator.simulate_scan(scene, cfg)
colors = estimation.estimate_colors(rgb, cfg.saturation_level)
records, _ = estimation.accumulate_vertex_tables(
    ir, scene, trajectory, cfg.rig, colors, cfg.camera, cfg.saturation_level)
print(json.dumps({
    "scene": digest(scene.positions, scene.normals),
    "trajectory": digest(trajectory.quaternions, trajectory.translations),
    "pixels": digest(ir.pixel), "intensities": digest(ir.intensity),
    "colors": digest(*colors), "record means": digest(records.means)}))
"""


def _links_openblas() -> bool:
    try:
        name = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return False
    return "openblas" in str(name).lower()


def digests(coretype):
    """The digests of SCRIPT in a new process on OpenBLAS core type
    `coretype`, or on the one it detects if None."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(matscan.__file__)))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not _links_openblas(),
                    reason="OPENBLAS_CORETYPE picks a kernel only in numpy's "
                           "OpenBLAS on x86-64")
def test_prescott_kernel_gives_the_detected_kernels_bits():
    assert digests("Prescott") == digests(None)
