"""Re-rendering from estimated reflectance tables and quantitative
evaluation against ground truth."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .brdf_table import BrdfTable, cell_center, cell_indices, lookup_arrays
from .geometry import (LedRig, PinholeCamera, half_diff_angle_arrays,
                       project_points, trajectory_poses)
from .simulator import (IrObservations, eval_ground_truth_brdf, frame_geometry,
                        frames, led_world_positions, shading, vignette)

LAMBERTIAN_FALLBACK = 0.3  # scalar reflectance for unclassified vertices
# values per row block of `write_ppm`: its lit mask, gamma values and bytes
PPM_BLOCK = 2**15


def scalar_reflectance(rgb: np.ndarray) -> np.ndarray:
    """IR-band reflectance from an rgb table value; colors are unit vectors,
    so the Euclidean norm recovers the scalar factor."""
    return np.linalg.norm(np.asarray(rgb, dtype=float), axis=-1)


def render_material_sphere(table: BrdfTable, light_direction, resolution: int = 128):
    """Orthographic sphere under a directional light, viewer along +z.
    Returns an (res, res, 3) image in [0, 1], background black."""
    l = np.asarray(light_direction, dtype=float)
    l = l / np.linalg.norm(l)
    xs = (np.arange(resolution) + 0.5) / resolution * 2.0 - 1.0
    x, y = np.meshgrid(xs, xs, indexing="xy")
    r2 = x * x + y * y
    inside = r2 <= 1.0
    img = np.zeros((resolution, resolution, 3))
    nz = np.sqrt(np.clip(1.0 - r2[inside], 0.0, 1.0))
    n = np.stack([x[inside], y[inside], nz], axis=1)
    ndotl = n @ l
    lit = ndotl > 1e-6
    rows = (int(lit.sum()), 3)  # light and view directions as read-only views
    th, td = half_diff_angle_arrays(n[lit], np.broadcast_to(l, rows),
                                    np.broadcast_to([0.0, 0.0, 1.0], rows))
    vals = lookup_arrays(table, th, td) * ndotl[lit, None]
    shaded = np.zeros((len(n), 3))
    shaded[lit] = vals
    img[inside] = np.clip(shaded, 0.0, 1.0)
    return img


def _rerender_rows(cam, led_world, brightness, vids, pixel, scene, labels,
                   material_tables, camera: PinholeCamera) -> np.ndarray:
    """Model intensity of observation rows: camera and LED world positions
    (3,) or (n,3), LED brightness, vertex ids and pixels (n,2); 0 where unlit
    or back-facing."""
    nrm = scene.normals[vids]
    d, l, ndotl, wo, ndotv = frame_geometry(cam, led_world, scene.positions[vids],
                                            nrm)
    front = (ndotl > 1e-6) & (ndotv > 1e-6)
    out = np.zeros(len(vids))
    if not front.any():
        return out
    th, td = half_diff_angle_arrays(nrm[front], l[front], wo[front])
    f = np.full(int(front.sum()), LAMBERTIAN_FALLBACK)
    lab = labels[vids[front]]
    for gi, table in enumerate(material_tables):
        sel = lab == gi
        if sel.any():
            f[sel] = scalar_reflectance(lookup_arrays(table, th[sel], td[sel]))
    vig = vignette((pixel[front, 0], pixel[front, 1]), camera)
    out[front] = shading(vig, f, ndotl[front], brightness[front], d[front])
    return out


def rerender_intensities(ir: IrObservations, scene, labels: np.ndarray,
                         material_tables: list, trajectory, rig: LedRig,
                         camera: PinholeCamera) -> np.ndarray:
    """Model intensity for every observation row, using the estimated
    per-material completed tables (Lambertian fallback for label -1)."""
    out = np.zeros(len(ir))
    for rows, cam, led_world, brightness in frames(ir, trajectory, rig):
        out[rows] = _rerender_rows(cam, led_world, brightness, ir.vertex_id[rows],
                                   ir.pixel[rows], scene, labels,
                                   material_tables, camera)
    return out


def rerender_ir_frame(scene, labels, material_tables, trajectory, frame_time: float,
                      led_index: int, rig: LedRig, camera: PinholeCamera,
                      exposure: float = 1.0) -> np.ndarray:
    """Point-splat IR frame: per visible vertex the image formation model with
    the estimated reflectance, written to the nearest pixel (max blend).
    Returns (height, width, 3) grayscale in [0, 1]: a read-only view that
    repeats one gray channel three times, the one (height, width) frame this
    allocates, clipped in place."""
    rot, cam = trajectory_poses(trajectory, [frame_time])
    pixels, valid = project_points(camera, rot, cam, scene.positions)
    led_world = led_world_positions(rot, cam, rig.positions[[led_index]])[0]
    pixels, valid, cam = pixels[0], valid[0], cam[0]
    idx = np.nonzero(valid)[0]
    gray = np.zeros((camera.height, camera.width))
    if len(idx):
        vals = _rerender_rows(cam, led_world,
                              np.full(len(idx), rig.brightness[led_index]), idx,
                              pixels[idx], scene, labels, material_tables,
                              camera) * exposure
        px = np.clip(pixels[idx, 0].astype(int), 0, camera.width - 1)
        py = np.clip(pixels[idx, 1].astype(int), 0, camera.height - 1)
        np.maximum.at(gray, (py, px), vals)
    np.clip(gray, 0.0, 1.0, out=gray)
    return np.broadcast_to(gray[:, :, None], (*gray.shape, 3))


@dataclass
class EvalReport:
    group_counts: list
    purity: float
    classified_fraction: float
    brdf_rmse_per_material: list
    matched_labels: dict  # estimated group index -> ground truth material id
    purity_vacuous: bool = False

    def to_text(self) -> str:
        lines = [
            "group_counts " + " ".join(str(c) for c in self.group_counts),
            f"purity {self.purity:.6f}",
            f"purity_vacuous {int(self.purity_vacuous)}",
            f"classified_fraction {self.classified_fraction:.6f}",
            "brdf_rmse " + " ".join(f"{r:.6g}" for r in self.brdf_rmse_per_material),
            "matched_labels " + " ".join(f"{k}:{v}" for k, v in
                                         sorted(self.matched_labels.items())),
        ]
        return "\n".join(lines) + "\n"


def _overlaps(groups: list, gt_labels: np.ndarray) -> np.ndarray:
    """(groups x labels) counts of each group's vertices of each
    ground-truth label, labels 0..max(gt_labels); a negative label raises
    ValueError (in `np.bincount`)."""
    sizes = [len(g) for g in groups]
    ids = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.intp,
                      count=sum(sizes))
    n_labels = len(np.bincount(gt_labels))
    key = np.repeat(np.arange(len(groups)), sizes) * n_labels + gt_labels[ids]
    return np.bincount(key, minlength=len(groups) * n_labels).reshape(
        len(groups), n_labels)


def _match(overlaps: np.ndarray) -> dict:
    """Group -> label by repeated maximum overlap: pairs by falling overlap,
    then group, then label, each taken unless its group or label is."""
    group, label = np.nonzero(overlaps)
    matched, used = {}, set()
    for i in np.lexsort((label, group, -overlaps[group, label])).tolist():
        g, m = int(group[i]), int(label[i])
        if g not in matched and m not in used:
            matched[g] = m
            used.add(m)
    return matched


def greedy_match(groups: list, gt_labels: np.ndarray) -> dict:
    """Estimated group index -> ground-truth label by repeated maximum
    overlap. Deterministic; ties resolve to the lowest pair."""
    return _match(_overlaps(groups, np.asarray(gt_labels, dtype=int)))


def evaluate(groups_obj, gt_labels: np.ndarray, estimated_tables: list,
             truth_materials: list) -> EvalReport:
    """Greedy-matched purity, classified fraction and per-material RMSE of
    measured table cells against the ground-truth reflectance."""
    groups = groups_obj.groups
    overlaps = _overlaps(groups, np.asarray(gt_labels, dtype=int))
    matched = _match(overlaps)
    group_counts = [len(g) for g in groups]
    classified_total = sum(group_counts)
    sampled_total = classified_total + len(groups_obj.unclassified)
    correct = sum(int(overlaps[g, m]) for g, m in matched.items())
    rmses = [table_rmse(table, truth_materials[matched[gi]]) if gi in matched
             else float("nan") for gi, table in enumerate(estimated_tables)]
    return EvalReport(
        group_counts=group_counts,
        purity=correct / classified_total if classified_total else 1.0,
        classified_fraction=classified_total / sampled_total if sampled_total else 0.0,
        brdf_rmse_per_material=rmses,
        matched_labels=matched,
        purity_vacuous=classified_total == 0,
    )


def table_rmse(table: BrdfTable, material) -> float:
    """RMSE of a table's measured cells against the analytic ground truth;
    synthetic cells are not measurements. NaN without measured cells."""
    measured = table.counts > 0
    if not measured.any():
        return float("nan")
    th, td = cell_center(*cell_indices(table.flat[measured]).T)
    truth = material.color * eval_ground_truth_brdf(material, th, td)[:, None]
    err2 = np.sum((table.means[measured] - truth) ** 2, axis=1)
    return float(np.sqrt(np.mean(err2)))


def _ppm_bytes(block: np.ndarray, gamma: float) -> np.ndarray:
    """uint8 PPM values of an image block: clipped to [0, 1], raised to
    `gamma`, 0 at or below 0. Its arrays are freed on return, before the
    next block's are made."""
    data = np.zeros(block.shape, dtype=np.uint8)
    lit = block > 0
    vals = block[lit]  # a copy, changed in place: one float per lit value
    np.minimum(vals, 1.0, out=vals)
    vals **= gamma
    vals *= 255.0
    vals += 0.5
    data[lit] = vals.astype(np.uint8)
    return data


def write_ppm(path, image: np.ndarray, gamma: float = 1.0 / 2.2) -> None:
    """Binary PPM (P6, maxval 255) of an (h, w, 3) image; values are clipped
    to [0, 1] and raised to `gamma` (> 0) at write time. A value at or below
    0 writes 0, so only the lit values of a mostly black frame pay for the
    power. Rows are converted and written in blocks of at most `PPM_BLOCK`
    values (one row if a row holds more), so the lit mask, the gamma values
    and the bytes are bounded by the block, not by the image."""
    img = np.asarray(image, dtype=float)
    h, w = img.shape[:2]
    rows = max(1, PPM_BLOCK // max(1, img[:1].size))
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        for r in range(0, h, rows):
            fh.write(_ppm_bytes(img[r:r + rows], gamma))
