"""Reference twins of vectorized pipeline code, written out in full:

- the image formation model, one observation at a time, which tests check
  `simulator.simulate_scan` and `estimation.invert_observation_arrays`
  against;
- the scan and its inversion one frame at a time, and color estimation one
  vertex at a time, which tests check the chunked `simulate_scan` and
  `invert_observation_arrays` and the grouped `estimate_colors` against bit
  for bit;
- the per-vertex record path, one `BrdfTable.from_cells` per vertex and a
  global cell table over a list of records, which tests check
  `estimation.VertexRecords` and `segmentation.build_global_table` against;
- the Mahalanobis distance of one point in Python floats, which tests check
  `segmentation.mahalanobis_many` and `segmentation.separability_score`
  against bit for bit, and the batched one through numpy's Cholesky factor
  and scipy's triangular solve, a value reference;
- label diffusion one target vertex at a time, which tests check
  `segmentation.diffuse_labels` against.

It also holds the scalar and inverse helpers only tests use: one-angle
table lookup, single-point projection and unprojection, pose composition,
the angle between two attitudes and a PPM reader.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial import cKDTree

from matscan.brdf_table import BrdfTable, group_rows, lookup_arrays
from matscan.estimation import (ACCEPTED, COS_GRAZING, GRAZING_DEG,
                                MIN_COLOR_SAMPLES, VIGNETTE_FLOOR, Rejection,
                                VertexReflectanceRecord)
from matscan.geometry import (HalfDiffAngles, PinholeCamera, Pose, Quaternion,
                              half_diff_angles, interpolate_trajectory)
from matscan.segmentation import GlobalCellTable
from matscan.simulator import (GroundTruthMaterial, IrObservations,
                               RgbObservations, _jitter_pose,
                               eval_ground_truth_brdf, ir_frame_times, shading,
                               vignette)


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
    mat_ids = scene.material_ids
    for fi, (t, seed) in enumerate(zip(times, frame_seeds)):
        rng = np.random.default_rng(seed)
        led = fi % n_led
        pose = _jitter_pose(rng, interpolate_trajectory(config.trajectory, t),
                            noise)
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
        ir_parts.append((idx[keep], np.full(keep.sum(), t), led, inten[keep],
                         pixels[idx[keep]]))

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

    if ir_parts:
        ir = IrObservations(
            vertex_id=np.concatenate([p[0] for p in ir_parts]),
            frame_time=np.concatenate([p[1] for p in ir_parts]),
            led_index=np.concatenate([np.full(len(p[0]), p[2]) for p in ir_parts]),
            intensity=np.concatenate([p[3] for p in ir_parts]),
            pixel=np.vstack([p[4] for p in ir_parts]))
    else:
        ir = IrObservations(np.zeros(0, int), np.zeros(0), np.zeros(0, int),
                            np.zeros(0), np.zeros((0, 2)))
    if rgb_parts:
        rgb = RgbObservations(
            vertex_id=np.concatenate([p[0] for p in rgb_parts]),
            rgb=np.vstack([p[1] for p in rgb_parts]),
            omega_out_angle=np.concatenate([p[2] for p in rgb_parts]))
    else:
        rgb = RgbObservations(np.zeros(0, int), np.zeros((0, 3)), np.zeros(0))
    return ir, rgb


def invert_observation_arrays(ir, scene, trajectory, rig, camera,
                              saturation_level: float):
    """The inversion one frame at a time; returns what
    `estimation.invert_observation_arrays` returns."""
    n = len(ir)
    th, td, f = np.zeros(n), np.zeros(n), np.zeros(n)
    reason = np.full(n, ACCEPTED, dtype=np.int8)
    for rows in group_rows(ir.frame_time):
        pose = interpolate_trajectory(trajectory, float(ir.frame_time[rows[0]]))
        vids = ir.vertex_id[rows]
        nrm = scene.normals[vids]
        leds = ir.led_index[rows]
        d, l, ndotl, wo, ndotv = _frame_geometry(
            pose, pose.transform(rig.positions[leds]), scene.positions[vids], nrm)
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


def estimate_colors(rgb_obs, saturation_level: float) -> dict:
    """Vertex id -> unit color, one vertex at a time."""
    colors = {}
    for rows in group_rows(rgb_obs.vertex_id):
        c = estimate_vertex_color(rgb_obs.rgb[rows], rgb_obs.omega_out_angle[rows],
                                  saturation_level)
        if c is not None:
            colors[int(rgb_obs.vertex_id[rows[0]])] = c
    return colors


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


def build_global_table(records: list, sample_budget: int,
                       rng_seed: int) -> GlobalCellTable:
    """Subsample up to `sample_budget` of a list of per-vertex records
    (seeded, without replacement) and scatter their measured cell means into
    the table, table after table."""
    rng = np.random.default_rng(rng_seed)
    n = len(records)
    chosen = np.sort(rng.choice(n, size=min(sample_budget, n), replace=False))
    sampled = np.array([records[i].vertex_id for i in chosen])
    tables = [BrdfTable(), *(records[i].table for i in chosen)]
    flat = np.concatenate([t.flat for t in tables])
    vals = np.concatenate([t.means for t in tables])
    counts = np.concatenate([t.counts for t in tables])
    vids = np.repeat(sampled, [len(t) for t in tables[1:]])
    measured = counts > 0
    flat, vals, vids = flat[measured], vals[measured], vids[measured]
    cells = {int(flat[rows[0]]): (vids[rows], vals[rows])
             for rows in group_rows(flat)}
    return GlobalCellTable(cells, sampled)


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


def lookup(table: BrdfTable, angles: HalfDiffAngles) -> np.ndarray:
    """Bilinear interpolation at cell centers, clamped at the table edges."""
    return lookup_arrays(table, np.array([angles.theta_h]),
                         np.array([angles.theta_d]))[0]


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
