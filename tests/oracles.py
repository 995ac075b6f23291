"""Reference twins of vectorized pipeline code, written out in full:

- the image formation model, one observation at a time, which tests check
  `simulator.simulate_scan` and `estimation.invert_observation_arrays`
  against;
- the per-vertex record path, one `BrdfTable.from_cells` per vertex and a
  global cell table over a list of records, which tests check
  `estimation.VertexRecords` and `segmentation.build_global_table` against;
- batched Mahalanobis distances through numpy's Cholesky factor and scipy's
  triangular solve, and label diffusion one target vertex at a time, which
  tests check `segmentation.mahalanobis_many` and
  `segmentation.diffuse_labels` against.

It also holds the scalar and inverse helpers only tests use: one-angle
table lookup, single-point projection and unprojection, pose composition,
the angle between two attitudes and a PPM reader.
"""

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial import cKDTree

from matscan.brdf_table import BrdfTable, group_rows, lookup_arrays
from matscan.estimation import (COS_GRAZING, VIGNETTE_FLOOR, Rejection,
                                VertexReflectanceRecord)
from matscan.geometry import (HalfDiffAngles, PinholeCamera, Pose, Quaternion,
                              half_diff_angles)
from matscan.segmentation import GlobalCellTable
from matscan.simulator import (GroundTruthMaterial, eval_ground_truth_brdf,
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
