"""Forward model of the scanner.

Per-vertex point-light shading: I = vig(x) * vis * f(theta_h, theta_d)
* (n.l) * L / d^2, with a cos^4 vignette, an LED rig cycled one LED per
frame, and configurable corruption (normal/pose jitter, multiplicative
intensity noise, outliers, dropout, saturation clipping).

`shading` is the one place the model is written, and `frame_geometry` the
one place its geometry is: the simulator, the inversion in `estimation` and
the re-render in `render_eval` all call both. None of them loops over
frames: they take whole frames in chunks of up to `_CHUNK_ROWS` rows
(frames x vertices in `simulate_scan`, observation rows as `frames` slices
them elsewhere) and broadcast each frame's camera and LED position over its
rows.

IR observations are frame-major (`IrObservations`): the rows of one frame
are contiguous, and each frame's time and LED are stored once, so `frames`
slices rows by the frame offsets instead of sorting them.

Every observation column is allocated once, at its bound, and written in
place, chunk by chunk (`write_rows`); at the end it is shrunk in place to
the rows written (`shrink_rows`). No per-chunk piece is kept or joined, so
the columns are the only full-length arrays a scan holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (LedRig, PinholeCamera, Pose, Quaternion, TimedPose,
                       half_diff_angle_arrays, norm_rows, project_points,
                       rotation_matrices, trajectory_poses,
                       trajectory_quaternions)

# rows processed at once: whole frames, up to this many frames x vertices in
# `simulate_scan` and observation rows in `frames`, or one larger frame
# alone. A (rows, 3) float64 temporary is then 96 KiB: small enough that the
# chunk temporaries do not raise the process's peak memory. Each chunk
# writes its rows in place into columns allocated at their bound, so
# nothing of a chunk outlives it.
_CHUNK_ROWS = 1 << 12


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


def frame_geometry(camera_position, led_world, positions, normals):
    """Geometry of vertices (`positions`, `normals`) seen from
    `camera_position` and lit from `led_world`, world coordinates that
    broadcast against each other as (..., 3): LED distance d, unit light
    direction l, n.l, unit view direction wo and n.wo."""
    to_led = led_world - positions
    d = norm_rows(to_led)
    l = to_led / d[..., None]
    ndotl = np.einsum("...j,...j->...", normals, l)
    to_cam = camera_position - positions
    wo = to_cam / norm_rows(to_cam)[..., None]
    ndotv = np.einsum("...j,...j->...", normals, wo)
    return d, l, ndotl, wo, ndotv


def shading(vig, f, ndotl, brightness, d):
    """The image formation model, vig * f * (n.l) * L / d^2. The inversion
    divides by it with f = 1."""
    return vig * f * ndotl * brightness / d**2


def _chunks(sizes):
    """(first, stop) indices of runs of consecutive frames, `sizes` rows
    each, that hold at most `_CHUNK_ROWS` rows, or one frame that has more."""
    first, rows = 0, 0
    for i, size in enumerate(sizes):
        if rows + size > _CHUNK_ROWS and i > first:
            yield first, i
            first, rows = i, 0
        rows += size
    if len(sizes) > first:
        yield first, len(sizes)


def frames(ir, trajectory, rig: LedRig):
    """Chunks of whole frames of `ir` that hold rows, in frame order: the
    chunk's rows (a slice), and per row its frame's camera position and the
    world position (n,3) and brightness of its LED. Each is computed once per
    frame, so a row's values do not depend on the other rows of its frame."""
    sizes = np.diff(ir.frame_offsets)
    nonempty = np.flatnonzero(sizes)
    rots, cams = trajectory_poses(trajectory, ir.frame_time[nonempty])
    for first, stop in _chunks(sizes[nonempty]):
        fis = nonempty[first:stop]
        rot, cam = rots[first:stop], cams[first:stop]
        # every LED of every frame (k, L, 3), by the matrix product that
        # `Pose.transform` of an (n,3) array uses, whatever the rows per frame
        led_world = np.matmul(rig.positions, rot.swapaxes(1, 2)) + cam[:, None]
        leds = ir.frame_led[fis]
        counts = sizes[fis]
        yield (slice(ir.frame_offsets[fis[0]], ir.frame_offsets[fis[-1] + 1]),
               np.repeat(cam, counts, axis=0),
               np.repeat(led_world[np.arange(len(fis)), leds], counts, axis=0),
               np.repeat(rig.brightness[leds], counts))


# upper bounds of the noise fields, whose lower bound is 0: a wider angle
# sigma is no more random, and at sigma 10 the gain exp(sigma z) overflows
# only for a draw z > 70
NOISE_BOUNDS = {"normal_jitter_deg": 180, "pose_translation_jitter_m": math.inf,
                "pose_rotation_jitter_deg": 180,
                "intensity_multiplicative_sigma": 10, "outlier_fraction": 1,
                "dropout_fraction": 1}


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
        for name, hi in NOISE_BOUNDS.items():
            if not 0 <= getattr(self, name) <= hi:
                raise ValueError(f"{name} must be in [0, {hi}]")


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


def _check_rows(obs, widths: dict) -> None:
    """Raise ValueError unless each field of `obs` that `widths` names holds
    one row per `vertex_id`, of the shape it gives beyond the row."""
    n = len(obs.vertex_id)
    for name, width in widths.items():
        shape = np.shape(getattr(obs, name))
        if shape != (n,) + width:
            raise ValueError(f"{name} of shape {shape} is not {(n,) + width}: "
                             f"one row per vertex_id")


@dataclass
class IrObservations:
    """Columnar per-vertex IR samples, frame-major. Per row (rows align
    across these fields): its vertex, intensity and pixel. Per frame, stored
    once: its time, strictly increasing, and its lit LED. Frame j holds the
    rows frame_offsets[j]:frame_offsets[j + 1]; a frame may hold none."""

    vertex_id: np.ndarray  # (n,) int32
    intensity: np.ndarray  # (n,)
    pixel: np.ndarray  # (n, 2)
    frame_time: np.ndarray  # (k,) s
    frame_led: np.ndarray  # (k,) int
    frame_offsets: np.ndarray  # (k + 1,) int

    def __post_init__(self):
        _check_rows(self, {"vertex_id": (), "intensity": (), "pixel": (2,)})
        off = self.frame_offsets
        if not len(off) == len(self.frame_time) + 1 == len(self.frame_led) + 1:
            raise ValueError("need one frame_time and frame_led per frame and "
                             "one more frame_offsets")
        if (off[0] != 0 or off[-1] != len(self.vertex_id)
                or np.any(off[1:] < off[:-1])):
            raise ValueError(f"frame_offsets do not rise from 0 to the "
                             f"{len(self.vertex_id)} rows")
        if np.any(np.diff(self.frame_time) <= 0):
            raise ValueError("frame_time is not strictly increasing")

    def __len__(self) -> int:
        return len(self.vertex_id)


@dataclass
class RgbObservations:
    """Columnar per-vertex RGB samples; rows align across the fields."""

    vertex_id: np.ndarray  # (n,) int
    rgb: np.ndarray  # (n, 3)
    omega_out_angle: np.ndarray  # (n,) degrees from the surface normal

    def __post_init__(self):
        _check_rows(self, {"vertex_id": (), "rgb": (3,), "omega_out_angle": ()})

    def __len__(self) -> int:
        return len(self.vertex_id)


def frame_times(trajectory: list[TimedPose], n_frames: int) -> np.ndarray:
    """`n_frames` IR frame timestamps, strictly inside the trajectory's time
    span so the pose interpolation path is always exercised."""
    t0 = trajectory[0].timestamp
    t1 = trajectory[-1].timestamp
    return t0 + (np.arange(n_frames) + 0.5) / n_frames * (t1 - t0)


def ir_frame_times(config: ScanConfig) -> np.ndarray:
    """The IR frame timestamps of a scan."""
    return frame_times(config.trajectory, config.n_ir_frames)


def _jitter_directions(dirs, raw, ang_deg):
    """Rotate each unit row of `dirs` (..., 3) by `ang_deg` about the tangent
    axis that `raw`, a standard normal draw of the same shape, projects to."""
    tang = raw - np.einsum("...j,...j->...", raw, dirs)[..., None] * dirs
    norms = norm_rows(tang)[..., None]
    norms[norms < 1e-12] = 1.0
    tang /= norms
    ang = np.deg2rad(ang_deg)[..., None]
    out = dirs * np.cos(ang) + tang * np.sin(ang)
    return out / norm_rows(out)[..., None]


def _jitter_pose(rng, pose: Pose, noise: NoiseConfig) -> Pose:
    t = pose.translation + rng.normal(0.0, noise.pose_translation_jitter_m, 3)
    rot = pose.rotation
    if noise.pose_rotation_jitter_deg > 0:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        ang = rng.normal(0.0, noise.pose_rotation_jitter_deg)
        rot = rot * Quaternion.from_axis_angle(axis, ang)
    return Pose(rot, t)


def _corrupt(rng, values, noise: NoiseConfig, saturation_level: float):
    """One frame's visible samples, `values` (n,) IR or (n,3) RGB, corrupted
    in place by its draws (gain noise, outlier mask and values, dropout) and
    clipped at saturation; returns the dropout keep mask."""
    n = len(values)
    rgb = values.ndim == 2
    if noise.intensity_multiplicative_sigma > 0:
        values *= np.exp(rng.normal(0.0, noise.intensity_multiplicative_sigma,
                                    (n, 1) if rgb else n))
    if noise.outlier_fraction > 0:
        outlier = rng.random(n) < noise.outlier_fraction
        drawn = rng.uniform(0.0, saturation_level,
                            (int(outlier.sum()), 3) if rgb else n)
        values[outlier] = drawn if rgb else drawn[outlier]
    np.minimum(values, saturation_level, out=values)
    if noise.dropout_fraction > 0:
        return rng.random(n) >= noise.dropout_fraction
    return np.ones(n, dtype=bool)


def write_rows(columns, at, *values):
    """Write each of `values` into its column of `columns` from row `at`;
    returns the row after the last one written."""
    stop = at + len(values[0])
    for col, v in zip(columns, values):
        col[at:stop] = v
    return stop


def shrink_rows(columns, rows):
    """`columns`, arrays that own their data, shrunk in place to their first
    `rows` rows: a realloc that copies nothing, after which each owns
    exactly those rows."""
    for col in columns:
        col.resize((rows,) + col.shape[1:], refcheck=False)
    return columns


def simulate_scan(scene, config: ScanConfig):
    """Produce (IrObservations, RgbObservations) for a scene under the scan
    configuration. LEDs are cycled one per IR frame; RGB samples are taken
    every `rgb_frame_stride`-th frame. Deterministic given the noise seed.

    Frames run in chunks of up to `_CHUNK_ROWS` frames x vertices. Each
    frame draws from its own generator, in the order one frame at a time
    would: its pose and normal jitter first, then, after the chunk's
    projection, visibility and shading, its IR noise, outliers and dropout
    and its RGB ones, sized by its count of visible vertices."""
    if len(scene) == 0:
        raise ValueError("empty scene")
    noise = config.noise
    rig = config.rig
    sat = config.saturation_level
    n = len(scene)
    times = ir_frame_times(config)
    frame_seeds = np.random.SeedSequence(noise.rng_seed).spawn(len(times))
    colors = np.array([m.color for m in scene.materials]).reshape(-1, 3)

    # each column allocated once at its bound, every vertex of every frame,
    # and written in place chunk by chunk
    rows = len(times) * n
    rgb_rows = len(range(0, len(times), config.rgb_frame_stride)) * n
    ir_cols = (np.empty(rows, np.int32), np.empty(rows), np.empty((rows, 2)))
    rgb_cols = (np.empty(rgb_rows, int), np.empty((rgb_rows, 3)),
                np.empty(rgb_rows))
    per_frame = np.zeros(len(times), np.int64)
    at = rgb_at = 0
    # every frame's pose; a jittered one replaces its rows, frame by frame
    q, cams = trajectory_quaternions(config.trajectory, times)
    rots = rotation_matrices(q)
    jitter = noise.pose_translation_jitter_m > 0 or noise.pose_rotation_jitter_deg > 0
    for first, stop in _chunks(np.full(len(times), n)):
        fis = np.arange(first, stop)
        rngs = [np.random.default_rng(frame_seeds[fi]) for fi in fis]
        raw, ang = [], []
        for fi, rng in zip(fis.tolist(), rngs):
            if jitter:
                pose = _jitter_pose(rng, Pose(Quaternion(*q[fi]), cams[fi]), noise)
                rots[fi], cams[fi] = pose.rotation.to_matrix(), pose.translation
            if noise.normal_jitter_deg > 0:
                raw.append(rng.normal(size=(n, 3)))
                ang.append(rng.normal(0.0, noise.normal_jitter_deg, n))
        normals = scene.normals
        if raw:
            normals = _jitter_directions(normals, np.stack(raw), np.stack(ang))
        rot, cam = rots[first:stop], cams[first:stop]
        pixels, in_view = project_points(config.camera, rot, cam, scene.positions)
        leds = fis % len(rig)
        # each frame's LED by the matrix-vector product that `Pose.transform`
        # of one point uses; the matrix product of `frames` may round the
        # last bit differently
        led_world = np.matmul(rot, rig.positions[leds, :, None])[..., 0] + cam
        d, l, ndotl, wo, ndotv = frame_geometry(
            cam[:, None], led_world[:, None], scene.positions, normals)
        # visible rows, frame by frame, vertex ids ascending within a frame
        vis = np.flatnonzero(in_view & (ndotv > 1e-6))
        fr, idx = np.divmod(vis, n)
        d, l, ndotl, wo, ndotv, pix, nrm = (
            a.reshape(-1, *a.shape[2:]).take(vis, axis=0) for a in
            (d, l, ndotl, wo, ndotv, pixels,
             np.broadcast_to(normals, (len(fis), n, 3))))

        th, td = half_diff_angle_arrays(nrm, l, wo)
        mat_ids = scene.material_ids[idx]
        f = np.zeros(len(idx))
        for m, mat in enumerate(scene.materials):
            sel = mat_ids == m
            if sel.any():
                f[sel] = eval_ground_truth_brdf(mat, th[sel], td[sel])
        vig = vignette((pix[:, 0], pix[:, 1]), config.camera)
        inten = np.where(ndotl > 1e-6,
                         shading(vig, f, ndotl, rig.brightness[leds][fr], d), 0.0)

        visible = np.bincount(fr, minlength=len(fis))
        is_rgb = fis % config.rgb_frame_stride == 0
        r = is_rgb[fr]
        rgbs = colors[mat_ids[r]] * ndotv[r, None]
        # each frame's rows are contiguous, in `inten` and in `rgbs`
        rgb_frames = iter(np.split(rgbs, np.cumsum(visible[is_rgb])[:-1]))
        ir_keep, rgb_keep = [], []
        for rng, frame, rgb_frame in zip(
                rngs, np.split(inten, np.cumsum(visible)[:-1]), is_rgb):
            ir_keep.append(_corrupt(rng, frame, noise, sat))
            if rgb_frame:
                rgb_keep.append(_corrupt(rng, next(rgb_frames), noise, sat))

        keep = np.concatenate(ir_keep)
        at = write_rows(ir_cols, at, idx[keep], inten[keep], pix[keep])
        per_frame[first:stop] = np.bincount(fr[keep], minlength=len(fis))

        if rgb_keep:
            keep = np.concatenate(rgb_keep)
            # view angle from the true (unjittered) geometry, as an estimator
            # downstream would compute it
            true_wo_cos = np.einsum("ij,ij->i", scene.normals[idx[r]], wo[r])
            ang = np.rad2deg(np.arccos(np.clip(true_wo_cos, -1.0, 1.0)))
            rgb_at = write_rows(rgb_cols, rgb_at, idx[r][keep], rgbs[keep],
                                ang[keep])

    ir = IrObservations(*shrink_rows(ir_cols, at), times,
                        np.arange(len(times)) % len(rig),
                        np.concatenate(([0], np.cumsum(per_frame))))
    return ir, RgbObservations(*shrink_rows(rgb_cols, rgb_at))


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
