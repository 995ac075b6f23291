"""Reference twins of vectorized pipeline code, written out in full:

- the image formation model, one observation at a time, which tests check
  `simulator.simulate_scan` and `estimation.invert_observation_arrays`
  against;
- the per-vertex record path, one `BrdfTable.from_cells` per vertex and a
  global cell table over a list of records, which tests check
  `estimation.VertexRecords` and `segmentation.build_global_table` against.
"""

import numpy as np

from matscan.brdf_table import BrdfTable, group_rows
from matscan.estimation import (COS_GRAZING, VIGNETTE_FLOOR, Rejection,
                                VertexReflectanceRecord)
from matscan.geometry import PinholeCamera, Pose, half_diff_angles
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
