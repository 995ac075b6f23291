"""Forward model of the scanner.

Per-vertex point-light shading: I = vig(x) * vis * f(theta_h, theta_d)
* (n.l) * L / d^2, with a cos^4 vignette, an LED rig cycled one LED per
frame, and configurable corruption (normal/pose jitter, multiplicative
intensity noise, outliers, dropout, saturation clipping).

`shading` is the one place the model is written, and `frame_geometry` the
one place its per-row geometry is: the simulator, the inversion in
`estimation` and the re-render in `render_eval` all call both, frame by
frame as `frames` groups the observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brdf_table import group_rows
from .geometry import (LedRig, PinholeCamera, Pose, Quaternion, TimedPose,
                       half_diff_angle_arrays, interpolate_trajectory,
                       project_points)


@dataclass(frozen=True)
class GroundTruthMaterial:
    """Analytic bivariate reflectance: gray diffuse floor plus a cos^e lobe
    in the half angle, tinted by a unit color vector."""

    diffuse_albedo: np.ndarray  # (3,) in [0,1]
    specular_strength: float
    lobe_exponent: float
    color: np.ndarray  # (3,) unit norm

    def __post_init__(self):
        alb = np.asarray(self.diffuse_albedo, dtype=float).reshape(3)
        col = np.asarray(self.color, dtype=float).reshape(3)
        if np.any(alb < 0) or np.any(alb > 1):
            raise ValueError("diffuse albedo components must lie in [0,1]")
        if self.specular_strength < 0 or self.lobe_exponent < 1:
            raise ValueError("need specular_strength >= 0 and lobe_exponent >= 1")
        object.__setattr__(self, "diffuse_albedo", alb)
        object.__setattr__(self, "color", col / np.linalg.norm(col))


def eval_ground_truth_brdf(mat: GroundTruthMaterial, theta_h_deg, theta_d_deg=None):
    """Scalar (IR-band) reflectance; strictly bivariate, theta_d unused by
    construction. Accepts scalars or arrays."""
    th = np.deg2rad(np.asarray(theta_h_deg, dtype=float))
    diffuse = float(np.mean(mat.diffuse_albedo))
    c = np.clip(np.cos(th), 0.0, 1.0)
    return diffuse + mat.specular_strength * c**mat.lobe_exponent


def vignette(pixel, camera: PinholeCamera):
    """cos^4 falloff of the angle between the pixel ray and the optical axis."""
    px, py = pixel
    dx = (np.asarray(px, dtype=float) - camera.cx) / camera.fx
    dy = (np.asarray(py, dtype=float) - camera.cy) / camera.fy
    cos2 = 1.0 / (1.0 + dx * dx + dy * dy)
    return cos2 * cos2


def frame_geometry(pose: Pose, led_world, positions, normals):
    """Per-row geometry of vertices seen from `pose` and lit from
    `led_world` ((3,) or (n, 3), world coordinates): LED distance d, unit
    light direction l, n.l, unit view direction wo and n.wo."""
    to_led = led_world - positions
    d = np.linalg.norm(to_led, axis=1)
    l = to_led / d[:, None]
    ndotl = np.einsum("ij,ij->i", normals, l)
    to_cam = pose.translation - positions
    wo = to_cam / np.linalg.norm(to_cam, axis=1, keepdims=True)
    ndotv = np.einsum("ij,ij->i", normals, wo)
    return d, l, ndotl, wo, ndotv


def shading(vig, f, ndotl, brightness, d):
    """The image formation model, vig * f * (n.l) * L / d^2. The inversion
    divides by it with f = 1."""
    return vig * f * ndotl * brightness / d**2


def frames(ir, trajectory):
    """(camera pose, row indices) of each distinct frame time of `ir`, in
    time order."""
    for rows in group_rows(ir.frame_time):
        t = float(ir.frame_time[rows[0]])
        yield interpolate_trajectory(trajectory, t), rows


@dataclass(frozen=True)
class NoiseConfig:
    normal_jitter_deg: float = 0.0
    pose_translation_jitter_m: float = 0.0
    pose_rotation_jitter_deg: float = 0.0
    intensity_multiplicative_sigma: float = 0.0
    outlier_fraction: float = 0.0
    dropout_fraction: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if (self.normal_jitter_deg < 0 or self.pose_translation_jitter_m < 0
                or self.pose_rotation_jitter_deg < 0
                or self.intensity_multiplicative_sigma < 0
                or not 0 <= self.outlier_fraction <= 1
                or not 0 <= self.dropout_fraction <= 1):
            raise ValueError("noise parameters out of range")


@dataclass
class ScanConfig:
    camera: PinholeCamera
    rig: LedRig
    trajectory: list[TimedPose]
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    saturation_level: float = 8.0
    n_ir_frames: int = 200
    rgb_frame_stride: int = 3

    def __post_init__(self):
        if len(self.trajectory) < 2:
            raise ValueError("trajectory must contain at least two poses")
        if self.saturation_level <= 0:
            raise ValueError("saturation level must be positive")
        times = [tp.timestamp for tp in self.trajectory]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("trajectory timestamps must be strictly increasing")


@dataclass
class IrObservations:
    """Columnar per-vertex IR samples; rows align across fields."""

    vertex_id: np.ndarray  # (n,) int
    frame_time: np.ndarray  # (n,) s
    led_index: np.ndarray  # (n,) int
    intensity: np.ndarray  # (n,)
    pixel: np.ndarray  # (n, 2)

    def __len__(self) -> int:
        return len(self.vertex_id)


@dataclass
class RgbObservations:
    vertex_id: np.ndarray  # (n,) int
    rgb: np.ndarray  # (n, 3)
    omega_out_angle: np.ndarray  # (n,) degrees from the surface normal

    def __len__(self) -> int:
        return len(self.vertex_id)


def ir_frame_times(config: ScanConfig) -> np.ndarray:
    """IR frame timestamps, strictly inside the trajectory's time span so the
    pose interpolation path is always exercised."""
    t0 = config.trajectory[0].timestamp
    t1 = config.trajectory[-1].timestamp
    n = config.n_ir_frames
    return t0 + (np.arange(n) + 0.5) / n * (t1 - t0)


def _jitter_directions(rng, dirs: np.ndarray, sigma_deg: float) -> np.ndarray:
    """Rotate each unit row by an angle ~ N(0, sigma) about a random tangent axis."""
    if sigma_deg == 0.0:
        return dirs
    n = len(dirs)
    raw = rng.normal(size=(n, 3))
    tang = raw - np.einsum("ij,ij->i", raw, dirs)[:, None] * dirs
    norms = np.linalg.norm(tang, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    tang /= norms
    ang = np.deg2rad(rng.normal(0.0, sigma_deg, n))[:, None]
    out = dirs * np.cos(ang) + tang * np.sin(ang)
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def _jitter_pose(rng, pose: Pose, noise: NoiseConfig) -> Pose:
    if noise.pose_translation_jitter_m == 0 and noise.pose_rotation_jitter_deg == 0:
        return pose
    t = pose.translation + rng.normal(0.0, noise.pose_translation_jitter_m, 3)
    rot = pose.rotation
    if noise.pose_rotation_jitter_deg > 0:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        ang = rng.normal(0.0, noise.pose_rotation_jitter_deg)
        rot = rot * Quaternion.from_axis_angle(axis, ang)
    return Pose(rot, t)


def simulate_scan(scene, config: ScanConfig):
    """Produce (IrObservations, RgbObservations) for a scene under the scan
    configuration. LEDs are cycled one per IR frame; RGB samples are taken
    every `rgb_frame_stride`-th frame. Deterministic given the noise seed."""
    if len(scene) == 0:
        raise ValueError("empty scene")
    noise = config.noise
    cam = config.camera
    times = ir_frame_times(config)
    n_led = len(config.rig)
    root = np.random.SeedSequence(noise.rng_seed)
    frame_seeds = root.spawn(len(times))

    ir_parts = []
    rgb_parts = []
    f_by_mat = {i: m for i, m in enumerate(scene.materials)}
    mat_ids = scene.material_ids
    for fi, (t, seed) in enumerate(zip(times, frame_seeds)):
        rng = np.random.default_rng(seed)
        led = fi % n_led
        true_pose = interpolate_trajectory(config.trajectory, t)
        pose = _jitter_pose(rng, true_pose, noise)
        pixels, in_view = project_points(cam, pose, scene.positions)
        normals = _jitter_directions(rng, scene.normals, noise.normal_jitter_deg)
        view = np.nonzero(in_view)[0]
        led_world = pose.transform(config.rig.positions[led])
        d, l, ndotl, wo, ndotv = frame_geometry(
            pose, led_world, scene.positions[view], normals[view])
        front = ndotv > 1e-6
        idx = view[front]
        if len(idx) == 0:
            continue
        d, l, ndotl, wo, ndotv = (a[front] for a in (d, l, ndotl, wo, ndotv))

        lit = ndotl > 1e-6
        th, td = half_diff_angle_arrays(normals[idx], l, wo)
        f = np.zeros(len(idx))
        for m, mat in f_by_mat.items():
            sel = mat_ids[idx] == m
            if sel.any():
                f[sel] = eval_ground_truth_brdf(mat, th[sel], td[sel])
        vig = vignette((pixels[idx, 0], pixels[idx, 1]), cam)
        inten = np.where(lit, shading(vig, f, ndotl, config.rig.brightness[led], d),
                         0.0)

        if noise.intensity_multiplicative_sigma > 0:
            inten = inten * np.exp(rng.normal(
                0.0, noise.intensity_multiplicative_sigma, len(idx)))
        if noise.outlier_fraction > 0:
            out_mask = rng.random(len(idx)) < noise.outlier_fraction
            inten = np.where(out_mask,
                             rng.uniform(0.0, config.saturation_level, len(idx)),
                             inten)
        keep = np.ones(len(idx), dtype=bool)
        if noise.dropout_fraction > 0:
            keep = rng.random(len(idx)) >= noise.dropout_fraction
        inten = np.minimum(inten, config.saturation_level)
        ir_parts.append((idx[keep], np.full(keep.sum(), t), led, inten[keep],
                         pixels[idx[keep]]))

        if fi % config.rgb_frame_stride == 0:
            rgbs = np.zeros((len(idx), 3))
            for m, mat in f_by_mat.items():
                sel = mat_ids[idx] == m
                if sel.any():
                    rgbs[sel] = mat.color[None, :] * ndotv[sel, None]
            if noise.intensity_multiplicative_sigma > 0:
                rgbs = rgbs * np.exp(rng.normal(
                    0.0, noise.intensity_multiplicative_sigma, (len(idx), 1)))
            if noise.outlier_fraction > 0:
                out_mask = rng.random(len(idx)) < noise.outlier_fraction
                rgbs[out_mask] = rng.uniform(0.0, config.saturation_level,
                                             (int(out_mask.sum()), 3))
            rgbs = np.minimum(rgbs, config.saturation_level)
            # view angle from the true (unjittered) geometry, as an estimator
            # downstream would compute it
            true_wo_cos = np.einsum("ij,ij->i", scene.normals[idx], wo)
            ang = np.rad2deg(np.arccos(np.clip(true_wo_cos, -1.0, 1.0)))
            keep_rgb = np.ones(len(idx), dtype=bool)
            if noise.dropout_fraction > 0:
                keep_rgb = rng.random(len(idx)) >= noise.dropout_fraction
            rgb_parts.append((idx[keep_rgb], rgbs[keep_rgb], ang[keep_rgb]))

    if ir_parts:
        ir = IrObservations(
            vertex_id=np.concatenate([p[0] for p in ir_parts]),
            frame_time=np.concatenate([p[1] for p in ir_parts]),
            led_index=np.concatenate([np.full(len(p[0]), p[2]) for p in ir_parts]),
            intensity=np.concatenate([p[3] for p in ir_parts]),
            pixel=np.vstack([p[4] for p in ir_parts]),
        )
    else:
        ir = IrObservations(np.zeros(0, int), np.zeros(0), np.zeros(0, int),
                            np.zeros(0), np.zeros((0, 2)))
    if rgb_parts:
        rgb = RgbObservations(
            vertex_id=np.concatenate([p[0] for p in rgb_parts]),
            rgb=np.vstack([p[1] for p in rgb_parts]),
            omega_out_angle=np.concatenate([p[2] for p in rgb_parts]),
        )
    else:
        rgb = RgbObservations(np.zeros(0, int), np.zeros((0, 3)), np.zeros(0))
    return ir, rgb


def make_default_rig() -> LedRig:
    """10 LEDs in the camera plane: 8 on a 16 cm circle, one at 8 cm and one
    at 28 cm, all unit brightness."""
    positions = []
    for k in range(8):
        a = np.deg2rad(45.0 * k)
        positions.append([0.16 * np.cos(a), 0.16 * np.sin(a), 0.0])
    positions.append([0.08, 0.0, 0.0])
    positions.append([-0.28, 0.0, 0.0])
    return LedRig(np.array(positions), np.ones(10))


def default_camera() -> PinholeCamera:
    return PinholeCamera(fx=570.0, fy=570.0, cx=347.0, cy=259.0,
                         width=694, height=518)
