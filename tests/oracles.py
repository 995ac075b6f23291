"""Reference twins of vectorized pipeline code, written out in full:

- the image formation model, one observation at a time, which tests check
  `simulator.simulate_scan` and `estimation.invert_observation_arrays`
  against;
- the scan and its inversion one frame at a time, the inversion with a
  full-length value per observation row, and color estimation one vertex
  at a time, which tests check the chunked `simulate_scan` and
  `invert_observation_arrays` and the grouped `estimate_colors` against bit
  for bit;
- the records accumulated from those per-row arrays, which tests check
  `estimation.accumulate_vertex_tables` against bit for bit;
- the material merge one row at a time, which tests check
  `brdf_table.merge` and `brdf_table.merge_groups` against bit for bit;
- the per-vertex record path, one `BrdfTable.from_cells` per vertex and a
  global cell table over a list of records, grouped into a dict of cells,
  which tests check `estimation.VertexRecords` and
  `segmentation.build_global_table` against;
- the Mahalanobis distance of one point in Python floats, which tests check
  `segmentation.mahalanobis_many` and `segmentation.separability_score`
  against bit for bit, and the batched one through numpy's Cholesky factor
  and scipy's triangular solve, a value reference;
- label diffusion one target vertex at a time, which tests check
  `segmentation.diffuse_labels` against;
- table lookup of all angle pairs at once and a PPM converted as one whole
  image, which tests check the blocked `brdf_table.lookup_arrays` and
  `render_eval.write_ppm` against bit for bit;
- the scene, materials and colors artifacts written one row at a time,
  which tests check the `np.savetxt` writers of `io` against byte for
  byte;
- greedy matching one (group, label) pair at a time and purity one group
  at a time, which tests check `render_eval.greedy_match` and
  `render_eval.evaluate`'s overlap matrix against;
- poses one at a time as `Pose` and `TimedPose` objects: slerp and
  timestamp interpolation, `look_at`, the arc trajectory and its file, pose
  jitter, and projection through `Pose.inverse`, which tests check
  `geometry.trajectory_poses`, `geometry.look_at_poses`,
  `scenes.arc_trajectory`, `io.write_trajectory`, the jittered scan and
  `geometry.project_points` against bit for bit;
- the bandwidth of one cell, which tests check `segmentation._bandwidths`
  against.

It also holds the scalar and inverse helpers only tests use: the
half/difference angles of one direction pair and the cell of one angle
pair, one-angle table lookup, single-point projection and unprojection, pose
composition, the angle between two attitudes, the matrices of a list of
poses, the `TimedPose`s of a `geometry.Trajectory`, a PPM reader, the rows
of each distinct key, the rows of a dict of cells, the frame of each IR
observation row and a subset of the rows as a frame-major set.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial import cKDTree

from matscan import brdf_table
from matscan.brdf_table import (D_WIDTH, H_WIDTH, N_CELLS, N_D, N_H, BrdfTable,
                                bin_arrays, dense_values)
from matscan.estimation import (ACCEPTED, COS_GRAZING, GRAZING_DEG,
                                MIN_COLOR_SAMPLES, VIGNETTE_FLOOR, Rejection,
                                VertexRecords, VertexReflectanceRecord)
from matscan.geometry import PinholeCamera, Quaternion, Trajectory
from matscan.segmentation import GlobalCellTable
from matscan.simulator import (GroundTruthMaterial, IrObservations,
                               RgbObservations, eval_ground_truth_brdf,
                               ir_frame_times, shading, vignette)


@dataclass(frozen=True)
class Pose:
    """Rigid transform, local frame -> world frame."""

    rotation: Quaternion
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float).reshape(3))

    def transform(self, p: np.ndarray) -> np.ndarray:
        """Apply to points, shape (3,) or (n, 3)."""
        p = np.asarray(p, dtype=float)
        r = self.rotation.to_matrix()
        if p.ndim == 1:
            return r @ p + self.translation
        return p @ r.T + self.translation

    def rotate(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        r = self.rotation.to_matrix()
        return r @ v if v.ndim == 1 else v @ r.T

    def inverse(self) -> "Pose":
        r = self.rotation
        rinv = Quaternion(r.w, -r.x, -r.y, -r.z)
        return Pose(rinv, -rinv.rotate(self.translation))


@dataclass(frozen=True)
class TimedPose:
    pose: Pose
    timestamp: float


def timed_poses(trajectory: Trajectory) -> list:
    """The poses of a `geometry.Trajectory`, one `TimedPose` per row."""
    return [TimedPose(Pose(Quaternion(*q), p), float(t)) for t, q, p in
            zip(trajectory.times, trajectory.quaternions, trajectory.translations)]


def write_trajectory(path, poses: list) -> None:
    """`io.write_trajectory` of a list of `TimedPose`s, one line per pose."""
    with open(path, "w") as fh:
        fh.write("# t qw qx qy qz tx ty tz\n")
        for tp in poses:
            q = tp.pose.rotation
            t = tp.pose.translation
            fh.write(f"{tp.timestamp:.17g} {q.w:.17g} {q.x:.17g} {q.y:.17g} "
                     f"{q.z:.17g} {t[0]:.17g} {t[1]:.17g} {t[2]:.17g}\n")


def write_scene(path, scene) -> None:
    """`io.write_scene` one vertex at a time."""
    with open(path, "w") as fh:
        fh.write("# vertex_id x y z nx ny nz material_id\n")
        for i in range(len(scene)):
            p = scene.positions[i]
            n = scene.normals[i]
            fh.write(f"{i} {p[0]:.17g} {p[1]:.17g} {p[2]:.17g} "
                     f"{n[0]:.17g} {n[1]:.17g} {n[2]:.17g} {scene.material_ids[i]}\n")


def write_materials(path, materials) -> None:
    """`io.write_materials` one material at a time."""
    with open(path, "w") as fh:
        fh.write("# material_id albedo_r albedo_g albedo_b strength exponent "
                 "color_r color_g color_b\n")
        for i, m in enumerate(materials):
            a, c = m.diffuse_albedo, m.color
            fh.write(f"{i} {a[0]:.17g} {a[1]:.17g} {a[2]:.17g} "
                     f"{m.specular_strength:.17g} {m.lobe_exponent:.17g} "
                     f"{c[0]:.17g} {c[1]:.17g} {c[2]:.17g}\n")


def write_colors(path, colors: dict) -> None:
    """`io.write_colors` of a dict vertex id -> unit color, one vertex at a
    time in ascending id order."""
    with open(path, "w") as fh:
        fh.write("# vertex_id r g b (unit euclidean norm)\n")
        for v in sorted(colors):
            c = colors[v]
            fh.write(f"{v} {c[0]:.17g} {c[1]:.17g} {c[2]:.17g}\n")


def jitter_pose(rng, pose: Pose, noise) -> Pose:
    """`simulator._jitter_pose` of one `Pose`: the frame's draws in order."""
    t = pose.translation + rng.normal(0.0, noise.pose_translation_jitter_m, 3)
    rot = pose.rotation
    if noise.pose_rotation_jitter_deg > 0:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        ang = rng.normal(0.0, noise.pose_rotation_jitter_deg)
        rot = rot * Quaternion.from_axis_angle(axis, ang)
    return Pose(rot, t)


def default_bandwidth(samples) -> float:
    """The meanshift bandwidth of one cell's samples (n, 3), n >= 2: half the
    root of the summed per-channel population variances."""
    samples = np.asarray(samples, dtype=float).reshape(-1, 3)
    if len(samples) < 2:
        raise ValueError("bandwidth needs at least 2 samples")
    return 0.5 * float(np.sqrt(np.var(samples, axis=0).sum()))


@dataclass(frozen=True)
class HalfDiffAngles:
    """Isotropic half/difference angle pair, degrees in [0, 90]."""

    theta_h: float
    theta_d: float

    def __post_init__(self):
        if not (0.0 <= self.theta_h <= 90.0 and 0.0 <= self.theta_d <= 90.0):
            raise ValueError("angles out of [0, 90] range")


def half_diff_angles(normal, omega_in, omega_out) -> HalfDiffAngles:
    """Rusinkiewicz-style reduction of one direction pair: theta_h between
    normal and half vector, theta_d between half vector and omega_in.
    Azimuths are discarded."""
    n = np.asarray(normal, dtype=float)
    wi = np.asarray(omega_in, dtype=float)
    wo = np.asarray(omega_out, dtype=float)
    if wi @ n <= 0 or wo @ n <= 0:
        raise ValueError("back-facing direction")
    s = wi + wo
    if np.linalg.norm(s) < 1e-9:
        raise ValueError("half vector undefined for opposite directions")
    h = s / np.linalg.norm(s)
    th = np.rad2deg(np.arccos(np.clip(n @ h, -1.0, 1.0)))
    td = np.rad2deg(np.arccos(np.clip(h @ wi, -1.0, 1.0)))
    return HalfDiffAngles(float(np.clip(th, 0.0, 90.0)), float(np.clip(td, 0.0, 90.0)))


def bin_angles(angles: HalfDiffAngles) -> tuple[int, int]:
    """Map one angle pair to its (h_bin, d_bin) cell index."""
    h = min(int(angles.theta_h / H_WIDTH), N_H - 1)
    d = min(int(angles.theta_d / D_WIDTH), N_D - 1)
    return h, d


def group_rows(keys) -> list:
    """Row indices of each distinct key, groups in ascending key order and
    rows ascending within a group (a stable sort)."""
    keys = np.asarray(keys)
    if len(keys) == 0:
        return []
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.nonzero(np.diff(keys[order]))[0] + 1)


def render_ir_intensity(vertex_pos, vertex_normal, material: GroundTruthMaterial,
                        led_position, led_brightness: float, camera_pose: Pose,
                        vignette_value: float, visible: bool = True) -> float:
    """Scalar reference implementation of the image formation model.
    `led_position` is in world coordinates."""
    if not visible:
        return 0.0
    p = np.asarray(vertex_pos, dtype=float)
    n = np.asarray(vertex_normal, dtype=float)
    to_led = np.asarray(led_position, dtype=float) - p
    d = np.linalg.norm(to_led)
    if d < 1e-9:
        return 0.0
    l = to_led / d
    ndotl = float(n @ l)
    to_cam = camera_pose.translation - p
    dc = np.linalg.norm(to_cam)
    if ndotl <= 0 or dc < 1e-9 or float(n @ to_cam) <= 0:
        return 0.0
    wo = to_cam / dc
    s = l + wo
    sn = np.linalg.norm(s)
    if sn < 1e-9:
        return 0.0
    h = s / sn
    th = np.rad2deg(np.arccos(np.clip(n @ h, -1.0, 1.0)))
    td = np.rad2deg(np.arccos(np.clip(h @ l, -1.0, 1.0)))
    f = float(eval_ground_truth_brdf(material, th, td))
    return vignette_value * f * ndotl * led_brightness / d**2


def invert_image_formation(intensity: float, pixel, vertex_pos, vertex_normal,
                           camera_pose: Pose, led_position, led_brightness: float,
                           camera: PinholeCamera, saturation_level: float):
    """Invert one observation to (HalfDiffAngles, scalar reflectance) or a
    Rejection. `led_position` is in world coordinates."""
    if intensity >= saturation_level:
        return Rejection.SATURATED
    if intensity <= 0.0:
        return Rejection.SHADOWED
    p = np.asarray(vertex_pos, dtype=float)
    n = np.asarray(vertex_normal, dtype=float)
    to_led = np.asarray(led_position, dtype=float) - p
    d = np.linalg.norm(to_led)
    l = to_led / d
    ndotl = float(n @ l)
    if ndotl < COS_GRAZING:
        return Rejection.GRAZING_IN
    to_cam = camera_pose.translation - p
    wo = to_cam / np.linalg.norm(to_cam)
    if float(n @ wo) < COS_GRAZING:
        return Rejection.GRAZING_OUT
    vig = float(vignette(pixel, camera))
    if vig < VIGNETTE_FLOOR:
        return Rejection.VIGNETTE_FLOOR
    angles = half_diff_angles(n, l, wo)
    f = intensity / (vig * ndotl * led_brightness / d**2)
    return angles, f


def _frame_geometry(pose: Pose, led_world, positions, normals):
    """Per-row geometry of (n,3) vertices seen from `pose` and lit from
    `led_world` ((3,) or (n,3)): d, l, n.l, wo, n.wo."""
    to_led = led_world - positions
    d = np.linalg.norm(to_led, axis=1)
    l = to_led / d[:, None]
    ndotl = np.einsum("ij,ij->i", normals, l)
    to_cam = pose.translation - positions
    wo = to_cam / np.linalg.norm(to_cam, axis=1, keepdims=True)
    ndotv = np.einsum("ij,ij->i", normals, wo)
    return d, l, ndotl, wo, ndotv


def _half_diff_angle_arrays(normals, omega_in, omega_out):
    s = omega_in + omega_out
    h = s / np.linalg.norm(s, axis=1, keepdims=True)
    ch = np.clip(np.einsum("ij,ij->i", normals, h), -1.0, 1.0)
    cd = np.clip(np.einsum("ij,ij->i", h, omega_in), -1.0, 1.0)
    return np.rad2deg(np.arccos(ch)), np.rad2deg(np.arccos(cd))


def _project_points(camera: PinholeCamera, pose: Pose, points):
    pc = pose.inverse().transform(points)
    z = pc[:, 2]
    in_front = z > 1e-6
    zsafe = np.where(in_front, z, 1.0)
    px = camera.fx * pc[:, 0] / zsafe + camera.cx
    py = camera.fy * pc[:, 1] / zsafe + camera.cy
    valid = in_front & (px >= 0) & (px < camera.width) & (py >= 0) & (py < camera.height)
    return np.stack([px, py], axis=1), valid


def _jitter_directions(rng, dirs, sigma_deg: float):
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


def simulate_scan(scene, config):
    """The scan one frame at a time, each frame with its own generator."""
    noise = config.noise
    cam = config.camera
    times = ir_frame_times(config)
    n_led = len(config.rig)
    frame_seeds = np.random.SeedSequence(noise.rng_seed).spawn(len(times))
    ir_parts, rgb_parts = [], []
    frame_rows = np.zeros(len(times), dtype=np.int64)
    mat_ids = scene.material_ids
    poses = timed_poses(config.trajectory)
    for fi, (t, seed) in enumerate(zip(times, frame_seeds)):
        rng = np.random.default_rng(seed)
        led = fi % n_led
        pose = interpolate_trajectory(poses, t)
        if noise.pose_translation_jitter_m > 0 or noise.pose_rotation_jitter_deg > 0:
            pose = jitter_pose(rng, pose, noise)
        pixels, in_view = _project_points(cam, pose, scene.positions)
        normals = _jitter_directions(rng, scene.normals, noise.normal_jitter_deg)
        view = np.nonzero(in_view)[0]
        led_world = pose.transform(config.rig.positions[led])
        d, l, ndotl, wo, ndotv = _frame_geometry(
            pose, led_world, scene.positions[view], normals[view])
        front = ndotv > 1e-6
        idx = view[front]
        if len(idx) == 0:
            continue
        d, l, ndotl, wo, ndotv = (a[front] for a in (d, l, ndotl, wo, ndotv))
        th, td = _half_diff_angle_arrays(normals[idx], l, wo)
        f = np.zeros(len(idx))
        for m, mat in enumerate(scene.materials):
            sel = mat_ids[idx] == m
            if sel.any():
                f[sel] = eval_ground_truth_brdf(mat, th[sel], td[sel])
        vig = vignette((pixels[idx, 0], pixels[idx, 1]), cam)
        inten = np.where(ndotl > 1e-6,
                         shading(vig, f, ndotl, config.rig.brightness[led], d), 0.0)
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
        ir_parts.append((idx[keep], inten[keep], pixels[idx[keep]]))
        frame_rows[fi] = keep.sum()

        if fi % config.rgb_frame_stride == 0:
            rgbs = np.zeros((len(idx), 3))
            for m, mat in enumerate(scene.materials):
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
            true_wo_cos = np.einsum("ij,ij->i", scene.normals[idx], wo)
            ang = np.rad2deg(np.arccos(np.clip(true_wo_cos, -1.0, 1.0)))
            keep_rgb = np.ones(len(idx), dtype=bool)
            if noise.dropout_fraction > 0:
                keep_rgb = rng.random(len(idx)) >= noise.dropout_fraction
            rgb_parts.append((idx[keep_rgb], rgbs[keep_rgb], ang[keep_rgb]))

    ir = IrObservations(
        vertex_id=np.concatenate([p[0] for p in ir_parts]
                                 + [np.zeros(0, int)]).astype(np.int32),
        intensity=np.concatenate([p[1] for p in ir_parts] + [np.zeros(0)]),
        pixel=np.vstack([p[2] for p in ir_parts] + [np.zeros((0, 2))]),
        frame_time=times, frame_led=np.arange(len(times)) % n_led,
        frame_offsets=np.concatenate(([0], np.cumsum(frame_rows))))
    if rgb_parts:
        rgb = RgbObservations(
            vertex_id=np.concatenate([p[0] for p in rgb_parts]),
            rgb=np.vstack([p[1] for p in rgb_parts]),
            omega_out_angle=np.concatenate([p[2] for p in rgb_parts]))
    else:
        rgb = RgbObservations(np.zeros(0, int), np.zeros((0, 3)), np.zeros(0))
    return ir, rgb


def row_frames(ir) -> np.ndarray:
    """The frame index of each row of frame-major IR observations."""
    return np.repeat(np.arange(len(ir.frame_time)), np.diff(ir.frame_offsets))


def ir_subset(ir, rows):
    """The IR observations of `rows` (ascending row indices), every frame
    kept, as a frame-major set."""
    rows = np.asarray(rows, dtype=np.int64)
    return IrObservations(ir.vertex_id[rows], ir.intensity[rows], ir.pixel[rows],
                          ir.frame_time, ir.frame_led,
                          np.searchsorted(rows, ir.frame_offsets))


def invert_observation_arrays(ir, scene, trajectory, rig, camera,
                              saturation_level: float):
    """The inversion one frame at a time, a value per observation row:
    (accepted mask, theta_h, theta_d, f, rejection counts dict). Angle and
    f entries are only meaningful where accepted."""
    n = len(ir)
    th, td, f = np.zeros(n), np.zeros(n), np.zeros(n)
    reason = np.full(n, ACCEPTED, dtype=np.int8)
    poses = timed_poses(trajectory)
    for j, t in enumerate(ir.frame_time):
        rows = np.arange(ir.frame_offsets[j], ir.frame_offsets[j + 1])
        if len(rows) == 0:
            continue
        pose = interpolate_trajectory(poses, float(t))
        vids = ir.vertex_id[rows]
        nrm = scene.normals[vids]
        leds = np.full(len(rows), ir.frame_led[j])
        d, l, ndotl, wo, ndotv = _frame_geometry(
            pose, pose.transform(rig.positions[ir.frame_led[j]]),
            scene.positions[vids], nrm)
        vig = vignette((ir.pixel[rows, 0], ir.pixel[rows, 1]), camera)
        inten = ir.intensity[rows]
        rej = np.select([inten >= saturation_level, inten <= 0.0,
                         ndotl < COS_GRAZING, ndotv < COS_GRAZING,
                         vig < VIGNETTE_FLOOR], list(range(ACCEPTED)), ACCEPTED)
        ok = rej == ACCEPTED
        if ok.any():
            a, b = _half_diff_angle_arrays(nrm[ok], l[ok], wo[ok])
            th[rows[ok]] = a
            td[rows[ok]] = b
            f[rows[ok]] = inten[ok] / shading(vig[ok], 1.0, ndotl[ok],
                                              rig.brightness[leds[ok]], d[ok])
        reason[rows] = rej
    tally = np.bincount(reason, minlength=ACCEPTED + 1)
    counts = {r.value: int(tally[code]) for code, r in enumerate(Rejection)}
    counts["accepted"] = int(tally[ACCEPTED])
    return reason == ACCEPTED, th, td, f, counts


def accepted_samples(ir, scene, trajectory, rig, camera, saturation_level: float,
                     colored):
    """What `estimation.invert_observation_arrays` returns, from the per-row
    arrays: the cell key and f of each accepted row of a `colored` vertex,
    in row order, and the counts."""
    accepted, th, td, f, counts = invert_observation_arrays(
        ir, scene, trajectory, rig, camera, saturation_level)
    use = accepted & colored[ir.vertex_id]
    counts["skipped_no_color"] = int(accepted.sum() - use.sum())
    hb, db = bin_arrays(th[use], td[use])
    return (ir.vertex_id[use].astype(np.int64) * N_CELLS + hb * N_D + db, f[use],
            counts)


def accumulate_vertex_tables(ir, scene, trajectory, rig, colors, camera,
                             saturation_level: float):
    """The records of `estimation.accumulate_vertex_tables` from the per-row
    inversion: masked copies of the full-length arrays, then one grouping
    of every kept row."""
    accepted, th, td, f, counts = invert_observation_arrays(
        ir, scene, trajectory, rig, camera, saturation_level)
    vids = ir.vertex_id[accepted]
    color_known = np.zeros(len(scene), dtype=bool)
    color_known[colors[0]] = True
    has_color = color_known[vids]
    counts["skipped_no_color"] = int(len(vids) - has_color.sum())
    vids = vids[has_color]
    hb, db = bin_arrays(th[accepted][has_color], td[accepted][has_color])
    fs = f[accepted][has_color]
    color_arr = np.zeros((len(scene), 3))
    color_arr[colors[0]] = colors[1]
    samples = color_arr[vids] * fs[:, None]
    key = vids.astype(np.int64) * N_CELLS + hb * N_D + db
    uniq, inverse = np.unique(key, return_inverse=True)
    sums = np.stack([np.bincount(inverse, weights=samples[:, c],
                                 minlength=len(uniq)) for c in range(3)], axis=1)
    cnt = np.bincount(inverse, minlength=len(uniq))
    cell_vid, flat = np.divmod(uniq, N_CELLS)
    vertex_id = np.unique(cell_vid)
    return VertexRecords(vertex_id, color_arr[vertex_id], cell_vid, flat,
                         sums / cnt[:, None], cnt), counts


def estimate_vertex_color(rgb_samples, omega_out_deg, saturation_level: float):
    """Per-channel median of unsaturated, non-grazing samples, normalized to
    unit Euclidean norm. Returns None with fewer than 3 usable samples."""
    rgb = np.asarray(rgb_samples, dtype=float).reshape(-1, 3)
    ang = np.asarray(omega_out_deg, dtype=float).reshape(-1)
    keep = (ang <= GRAZING_DEG) & np.all(rgb < saturation_level, axis=1)
    if keep.sum() < MIN_COLOR_SAMPLES:
        return None
    med = np.median(rgb[keep], axis=0)
    norm = np.linalg.norm(med)
    if norm < 1e-12:
        return None
    return med / norm


def estimate_colors(rgb_obs, saturation_level: float):
    """The (vertex_id, color) pair of `estimation.estimate_colors`, one
    vertex at a time."""
    ids, colors = [], []
    for rows in group_rows(rgb_obs.vertex_id):
        c = estimate_vertex_color(rgb_obs.rgb[rows], rgb_obs.omega_out_angle[rows],
                                  saturation_level)
        if c is not None:
            ids.append(rgb_obs.vertex_id[rows[0]])
            colors.append(c)
    return np.array(ids, dtype=np.intp), np.reshape(colors, (-1, 3))


def vertex_records(cell_vid, cells, means, counts, colors) -> list:
    """One record per vertex from parallel per-cell rows in any order: vertex
    id (m,), (h_bin, d_bin) (m,2), mean rgb (m,3) and count (m,). `colors[v]`
    is the unit color of vertex v. Records come in vertex id order."""
    records = []
    for rows in group_rows(cell_vid):
        v = int(cell_vid[rows[0]])
        table = BrdfTable.from_cells(cells[rows], means[rows], counts[rows])
        records.append(VertexReflectanceRecord(v, colors[v], table))
    return records


def merged_groups(group, flat, means, counts, n_groups: int) -> list:
    """Per group 0..n_groups-1, the count-weighted union of its measured
    rows, one row at a time: each cell sums count * mean and count in
    Python floats, in row order."""
    sums = [{} for _ in range(n_groups)]
    for g, cell, mean, n in zip(group.tolist(), flat.tolist(), means.tolist(),
                                counts.tolist()):
        if 0 <= g < n_groups and n > 0:
            acc = sums[g].setdefault(cell, [0.0, 0.0, 0.0, 0.0])
            for c in range(3):
                acc[c] += n * mean[c]
            acc[3] += n
    return [BrdfTable(np.array(sorted(cells), dtype=np.int64),
                      [[acc[c] / acc[3] for c in range(3)]
                       for _, acc in sorted(cells.items())],
                      np.array([acc[3] for _, acc in sorted(cells.items())],
                               dtype=np.int64))
            for cells in sums]


def record_cells(records, sampled_ids) -> dict:
    """{flat cell: (vertex ids (m,), samples (m, 3))} of the measured cells
    of the records of the vertices `sampled_ids`, table after table: cells
    in ascending flat order, each with its rows in `sampled_ids` order."""
    by_vertex = {r.vertex_id: r.table for r in records}
    tables = [BrdfTable(), *(by_vertex[int(v)] for v in sampled_ids)]
    flat = np.concatenate([t.flat for t in tables])
    vals = np.concatenate([t.means for t in tables])
    counts = np.concatenate([t.counts for t in tables])
    vids = np.repeat(np.asarray(sampled_ids, dtype=int),
                     [len(t) for t in tables[1:]])
    measured = counts > 0
    flat, vals, vids = flat[measured], vals[measured], vids[measured]
    return {int(flat[rows[0]]): (vids[rows], vals[rows])
            for rows in group_rows(flat)}


def cell_rows(cells: dict):
    """(flat, vertex ids, samples): the parallel rows of a {flat cell:
    (vertex ids, samples)} dict, cell after cell in the dict's order."""
    vids = [v for v, _ in cells.values()]
    samples = [s for _, s in cells.values()]
    return (np.repeat(np.array(list(cells), dtype=int), [len(v) for v in vids]),
            np.concatenate([np.zeros(0, dtype=int), *vids]),
            np.concatenate([np.zeros((0, 3)), *samples]))


def build_global_table(records: list, sample_budget: int,
                       rng_seed: int) -> GlobalCellTable:
    """Subsample up to `sample_budget` of a list of per-vertex records
    (seeded, without replacement) and build the table from the dict of their
    measured cells."""
    rng = np.random.default_rng(rng_seed)
    n = len(records)
    chosen = np.sort(rng.choice(n, size=min(sample_budget, n), replace=False))
    sampled = np.array([records[i].vertex_id for i in chosen])
    return GlobalCellTable(*cell_rows(record_cells(records, sampled)), sampled)


def assert_same_cell_table(got: GlobalCellTable, expected: GlobalCellTable):
    """The two global cell tables count the same measured cells and hold the
    same columns, bit for bit."""
    assert len(got) == len(expected)
    for name in ("sampled_ids", "flats", "vids", "samples", "offsets",
                 "mask_size"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))


def mahalanobis(x, mean, covariance) -> float:
    """Mahalanobis distance of one point in Python floats: the Cholesky
    factor L of the covariance's lower triangle row by row, L z = x - mu by
    forward substitution, and |z| by `math.sqrt`. np.linalg.LinAlgError at
    a pivot that is not positive."""
    a = np.asarray(covariance, dtype=float).tolist()
    d = (np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)).tolist()
    chol = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i + 1):
            s = a[i][j]
            for k in range(j):
                s -= chol[i][k] * chol[j][k]
            if i > j:
                chol[i][j] = s / chol[j][j]
            elif s > 0:
                chol[i][i] = math.sqrt(s)
            else:
                raise np.linalg.LinAlgError("covariance is not positive definite")
    z = []
    for i in range(3):
        s = d[i]
        for k in range(i):
            s -= chol[i][k] * z[k]
        z.append(s / chol[i][i])
    return math.sqrt(z[0] * z[0] + z[1] * z[1] + z[2] * z[2])


def mahalanobis_many(xs, mean, covariance) -> np.ndarray:
    """Mahalanobis distance of each row of xs: |L^-1 (x-mu)| for the factor L
    of `np.linalg.cholesky`, solved by `scipy.linalg.solve_triangular`."""
    diff = np.asarray(xs, dtype=float).reshape(-1, 3) - np.asarray(mean, dtype=float)
    chol = np.linalg.cholesky(np.asarray(covariance, dtype=float))
    y = solve_triangular(chol, diff.T, lower=True)
    return np.sqrt((y * y).sum(axis=0))


def diffuse_labels(groups, positions, sampled_ids, radius: float) -> np.ndarray:
    """Label diffusion one target vertex at a time: each vertex neither
    sampled nor classified takes the label of its nearest classified vertex
    within `radius`, the lower vertex id of two at one distance."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    n = len(positions)
    labels = np.full(n, -1, dtype=int)
    for gi, g in enumerate(groups.groups):
        labels[np.fromiter(g, dtype=int, count=len(g))] = gi
    classified_ids = np.nonzero(labels >= 0)[0]
    if len(classified_ids) == 0:
        return labels
    sampled_set = set(int(v) for v in sampled_ids)
    targets = np.array([i for i in range(n)
                        if labels[i] < 0 and i not in sampled_set], dtype=int)
    if len(targets) == 0:
        return labels
    tree = cKDTree(positions[classified_ids])
    k = min(2, len(classified_ids))
    dist, idx = tree.query(positions[targets], k=k)
    if k == 1:
        dist = dist[:, None]
        idx = idx[:, None]
    for row, t in enumerate(targets):
        if dist[row, 0] > radius:
            continue
        pick = classified_ids[idx[row, 0]]
        if k > 1 and abs(dist[row, 1] - dist[row, 0]) < 1e-12:
            pick = min(pick, classified_ids[idx[row, 1]])
        labels[t] = labels[pick]
    return labels


def greedy_match(groups: list, gt_labels: np.ndarray) -> dict:
    """`render_eval.greedy_match` one (group, label) pair at a time: the
    overlap of each pair, pairs sorted by falling overlap, then group, then
    label, each taken unless its group or label is or its overlap is 0."""
    overlaps = {}
    gt_ids = np.flatnonzero(np.bincount(gt_labels)).tolist()
    for gi, g in enumerate(groups):
        ids = np.fromiter(g, dtype=int, count=len(g))
        for m in gt_ids:
            overlaps[(gi, m)] = int(np.sum(gt_labels[ids] == m))
    matched = {}
    used_gt = set()
    order = sorted(overlaps.items(), key=lambda kv: (-kv[1], kv[0]))
    for (gi, m), ov in order:
        if gi in matched or m in used_gt or ov == 0:
            continue
        matched[gi] = m
        used_gt.add(m)
    return matched


def purity(groups: list, gt_labels: np.ndarray, matched: dict) -> float:
    """The share of the grouped vertices whose ground-truth label is their
    group's match, one group at a time; 1.0 with no grouped vertex."""
    classified = sum(len(g) for g in groups)
    if classified == 0:
        return 1.0
    correct = 0
    for gi, g in enumerate(groups):
        if gi in matched:
            ids = np.fromiter(g, dtype=int, count=len(g))
            correct += int(np.sum(gt_labels[ids] == matched[gi]))
    return correct / classified


def lookup(table: BrdfTable, angles: HalfDiffAngles) -> np.ndarray:
    """Bilinear interpolation at cell centers, clamped at the table edges."""
    return brdf_table.lookup_arrays(table, np.array([angles.theta_h]),
                                    np.array([angles.theta_d]))[0]


def lookup_arrays(table: BrdfTable, theta_h: np.ndarray, theta_d: np.ndarray):
    """Bilinear interpolation at cell centers, clamped at the table edges,
    of all angle pairs at once."""
    arr = dense_values(table)
    gh = np.clip(np.asarray(theta_h, dtype=float) / H_WIDTH - 0.5, 0.0, N_H - 1.0)
    gd = np.clip(np.asarray(theta_d, dtype=float) / D_WIDTH - 0.5, 0.0, N_D - 1.0)
    h0 = np.minimum(gh.astype(int), N_H - 2)
    d0 = np.minimum(gd.astype(int), N_D - 2)
    fh = (gh - h0)[:, None]
    fd = (gd - d0)[:, None]
    v00 = arr[h0, d0]
    v10 = arr[h0 + 1, d0]
    v01 = arr[h0, d0 + 1]
    v11 = arr[h0 + 1, d0 + 1]
    return (v00 * (1 - fh) * (1 - fd) + v10 * fh * (1 - fd)
            + v01 * (1 - fh) * fd + v11 * fh * fd)


def project(camera: PinholeCamera, pose: Pose, point: np.ndarray):
    """Project a world point; returns (px, py) or None if behind the camera
    or outside the image. `pose` is camera-to-world."""
    pc = pose.inverse().transform(point)
    if pc[2] <= 1e-6:
        return None
    px = camera.fx * pc[0] / pc[2] + camera.cx
    py = camera.fy * pc[1] / pc[2] + camera.cy
    if not (0.0 <= px < camera.width and 0.0 <= py < camera.height):
        return None
    return (float(px), float(py))


def unproject(camera: PinholeCamera, pixel, depth: float) -> np.ndarray:
    """Camera-frame point at a given z-depth for a pixel."""
    px, py = pixel
    return np.array([(px - camera.cx) / camera.fx * depth,
                     (py - camera.cy) / camera.fy * depth,
                     depth])


def compose(a: Pose, b: Pose) -> Pose:
    """a ∘ b: apply `b` first, then `a`."""
    return Pose(a.rotation * b.rotation,
                a.rotation.rotate(b.translation) + a.translation)


def angle_to(a: Quaternion, b: Quaternion) -> float:
    """Rotation angle in degrees between the two attitudes."""
    d = min(1.0, abs(float(a.as_array() @ b.as_array())))
    return np.rad2deg(2.0 * np.arccos(d))


def write_ppm(path, image: np.ndarray, gamma: float = 1.0 / 2.2) -> None:
    """Binary PPM (P6, maxval 255), the whole image converted at once:
    values clipped to [0, 1] and raised to `gamma`, 0 at or below 0."""
    img = np.asarray(image, dtype=float)
    data = np.zeros(img.shape, dtype=np.uint8)
    lit = img > 0
    data[lit] = (np.minimum(img[lit], 1.0) ** gamma * 255.0 + 0.5).astype(np.uint8)
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P6":
            raise ValueError("not a P6 PPM file")
        dims = fh.readline().split()
        w, h = int(dims[0]), int(dims[1])
        fh.readline()  # maxval
        data = np.frombuffer(fh.read(w * h * 3), dtype=np.uint8)
    return data.reshape(h, w, 3).astype(float) / 255.0


def slerp(q0: Quaternion, q1: Quaternion, u: float) -> Quaternion:
    """Shortest-path spherical interpolation between unit quaternions."""
    a = q0.as_array()
    b = q1.as_array()
    d = float(a @ b)
    if d < 0.0:
        b = -b
        d = -d
    if d > 1.0 - 1e-6:
        # nearly parallel: normalized lerp is numerically safer
        out = (1.0 - u) * a + u * b
        return Quaternion(*(out / np.linalg.norm(out)))
    theta = np.arccos(min(1.0, d))
    s = np.sin(theta)
    out = np.sin((1.0 - u) * theta) / s * a + np.sin(u * theta) / s * b
    return Quaternion(*(out / np.linalg.norm(out)))


def interpolate_pose(p0: TimedPose, p1: TimedPose, t: float) -> Pose:
    """Pose at time t: slerp rotation, linear translation."""
    if p1.timestamp <= p0.timestamp:
        raise ValueError("zero or negative length time interval")
    if not (p0.timestamp <= t <= p1.timestamp):
        raise ValueError(f"t={t} outside [{p0.timestamp}, {p1.timestamp}]")
    u = (t - p0.timestamp) / (p1.timestamp - p0.timestamp)
    rot = slerp(p0.pose.rotation, p1.pose.rotation, u)
    trans = (1.0 - u) * p0.pose.translation + u * p1.pose.translation
    return Pose(rot, trans)


def interpolate_trajectory(trajectory: list, t: float) -> Pose:
    """Pose at time t from the two bracketing trajectory entries."""
    times = [tp.timestamp for tp in trajectory]
    if len(trajectory) < 2:
        raise ValueError("trajectory needs at least two poses")
    if not (times[0] <= t <= times[-1]):
        raise ValueError(f"t={t} outside trajectory time range")
    hi = int(np.searchsorted(times, t, side="right"))
    hi = min(max(hi, 1), len(times) - 1)
    return interpolate_pose(trajectory[hi - 1], trajectory[hi], t)


def pose_arrays(poses):
    """Rotation matrices (k,3,3) and translations (k,3) of k poses."""
    return (np.stack([p.rotation.to_matrix() for p in poses]),
            np.stack([p.translation for p in poses]))


def trajectory_poses(trajectory: list, times):
    """Rotation matrices and translations of `interpolate_trajectory` at
    each time, one pose at a time."""
    return pose_arrays([interpolate_trajectory(trajectory, float(t))
                        for t in times])


def _unit(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ValueError("cannot normalize near-zero vector")
    return v / n


def quaternion_from_matrix(m) -> Quaternion:
    """The unit quaternion of a rotation matrix, by its own eigh."""
    m = np.asarray(m, dtype=float)
    k = np.array(
        [
            [m[0, 0] - m[1, 1] - m[2, 2], 0, 0, 0],
            [m[0, 1] + m[1, 0], m[1, 1] - m[0, 0] - m[2, 2], 0, 0],
            [m[0, 2] + m[2, 0], m[1, 2] + m[2, 1], m[2, 2] - m[0, 0] - m[1, 1], 0],
            [m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1],
             m[0, 0] + m[1, 1] + m[2, 2]],
        ]
    ) / 3.0
    vals, vecs = np.linalg.eigh(k)
    q = vecs[[3, 0, 1, 2], np.argmax(vals)]
    if q[0] < 0:
        q = -q
    return Quaternion(*q)


def look_at(position, target, up=(0.0, 1.0, 0.0)) -> Pose:
    """Camera-to-world pose with +z looking from position toward target."""
    position = np.asarray(position, dtype=float)
    fwd = _unit(np.asarray(target, dtype=float) - position)
    right = np.cross(fwd, _unit(up))
    if np.linalg.norm(right) < 1e-9:
        raise ValueError("up direction parallel to viewing direction")
    right = _unit(right)
    down = np.cross(fwd, right)
    r = np.stack([right, down, fwd], axis=1)
    return Pose(quaternion_from_matrix(r), position)


def arc_trajectory(n_poses: int, duration: float, radius: float = 0.95,
                   sweep_deg: float = 50.0, target=(0.0, 0.0, 0.15),
                   bob: float = 0.12) -> list:
    """`scenes.arc_trajectory` one pose at a time."""
    out = []
    for i in range(n_poses):
        u = i / (n_poses - 1)
        phi = np.deg2rad((u - 0.5) * sweep_deg)
        pos = np.array([radius * np.sin(phi),
                        bob * np.sin(2.0 * np.pi * u),
                        target[2] - radius * np.cos(phi)])
        out.append(TimedPose(look_at(pos, target), u * duration))
    return out


def project_points(camera: PinholeCamera, poses, points):
    """`geometry.project_points` from a list of k `Pose`s, each inverted by
    `Pose.inverse`."""
    rot, trans = pose_arrays([p.inverse() for p in poses])
    pc = np.matmul(points, rot.swapaxes(1, 2)) + trans[:, None]
    z = pc[..., 2]
    in_front = z > 1e-6
    zsafe = np.where(in_front, z, 1.0)
    px = camera.fx * pc[..., 0] / zsafe + camera.cx
    py = camera.fy * pc[..., 1] / zsafe + camera.cy
    valid = in_front & (px >= 0) & (px < camera.width) & (py >= 0) & (py < camera.height)
    return np.stack([px, py], axis=-1), valid
