"""Inverse pipeline: per-vertex normalized color, inversion of the image
formation model to scalar reflectance samples, and their accumulation into
per-vertex tables held as one column set (`VertexRecords`)."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import brdf_table
from .brdf_table import N_CELLS, N_D, BrdfTable, group_rows
from .geometry import LedRig, PinholeCamera, half_diff_angle_arrays
from .simulator import (IrObservations, RgbObservations, frame_geometry, frames,
                        shading, vignette)

GRAZING_DEG = 60.0
COS_GRAZING = np.cos(np.deg2rad(GRAZING_DEG))
VIGNETTE_FLOOR = 0.05
MIN_COLOR_SAMPLES = 3


class Rejection(enum.Enum):
    SATURATED = "saturated"
    SHADOWED = "shadowed"
    GRAZING_IN = "grazing-in"
    GRAZING_OUT = "grazing-out"
    VIGNETTE_FLOOR = "vignette-floor"


# per-row codes of `invert_observation_arrays`: a rejection's position in
# Rejection, or ACCEPTED
ACCEPTED = len(Rejection)


@dataclass
class VertexReflectanceRecord:
    vertex_id: int
    normalized_color: np.ndarray  # (3,) unit
    table: BrdfTable


@dataclass(eq=False)
class VertexRecords:
    """Reflectance records as columns: per vertex, ascending `vertex_id` and
    unit `color` (n,3); per table cell, sorted by (vertex, flat cell), its
    `cell_vid`, `flat`, `means` (m,3) and `counts`. Every vertex has a cell.
    Iterating yields a `VertexReflectanceRecord` per vertex whose table is a
    view of its cell rows."""
    vertex_id: np.ndarray
    color: np.ndarray
    cell_vid: np.ndarray
    flat: np.ndarray
    means: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.vertex_id)

    def __iter__(self):
        lo = np.searchsorted(self.cell_vid, self.vertex_id, "left").tolist()
        hi = np.searchsorted(self.cell_vid, self.vertex_id, "right").tolist()
        for v, color, a, b in zip(self.vertex_id.tolist(), self.color, lo, hi):
            yield VertexReflectanceRecord(v, color, BrdfTable(
                self.flat[a:b], self.means[a:b], self.counts[a:b]))


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


def estimate_colors(rgb_obs: RgbObservations, saturation_level: float) -> dict:
    """Vertex id -> unit color for every vertex with enough usable samples."""
    colors = {}
    for rows in group_rows(rgb_obs.vertex_id):
        c = estimate_vertex_color(rgb_obs.rgb[rows], rgb_obs.omega_out_angle[rows],
                                  saturation_level)
        if c is not None:
            colors[int(rgb_obs.vertex_id[rows[0]])] = c
    return colors


def invert_observation_arrays(ir: IrObservations, scene, trajectory, rig: LedRig,
                              camera: PinholeCamera, saturation_level: float):
    """Vectorized inversion of a whole observation set.

    Returns (accepted mask, theta_h, theta_d, f, rejection counts dict).
    Angle/f entries are only meaningful where accepted."""
    n = len(ir)
    th = np.zeros(n)
    td = np.zeros(n)
    f = np.zeros(n)
    reason = np.full(n, ACCEPTED, dtype=np.int8)

    for pose, rows in frames(ir, trajectory):
        vids = ir.vertex_id[rows]
        nrm = scene.normals[vids]
        leds = ir.led_index[rows]
        d, l, ndotl, wo, ndotv = frame_geometry(
            pose, pose.transform(rig.positions[leds]), scene.positions[vids], nrm)
        vig = vignette((ir.pixel[rows, 0], ir.pixel[rows, 1]), camera)
        inten = ir.intensity[rows]

        # a row's code is that of the first test it fails, in Rejection order
        rej = np.select([inten >= saturation_level, inten <= 0.0,
                         ndotl < COS_GRAZING, ndotv < COS_GRAZING,
                         vig < VIGNETTE_FLOOR], list(range(ACCEPTED)), ACCEPTED)
        ok = rej == ACCEPTED
        if ok.any():
            a, b = half_diff_angle_arrays(nrm[ok], l[ok], wo[ok])
            th[rows[ok]] = a
            td[rows[ok]] = b
            f[rows[ok]] = inten[ok] / shading(vig[ok], 1.0, ndotl[ok],
                                              rig.brightness[leds[ok]], d[ok])
        reason[rows] = rej

    accepted = reason == ACCEPTED
    tally = np.bincount(reason, minlength=ACCEPTED + 1)
    counts = {r.value: int(tally[code]) for code, r in enumerate(Rejection)}
    counts["accepted"] = int(tally[ACCEPTED])
    return accepted, th, td, f, counts


def accumulate_vertex_tables(ir: IrObservations, scene, trajectory, rig: LedRig,
                             colors: dict, camera: PinholeCamera,
                             saturation_level: float):
    """The reflectance records (unit color + sparse table) of every vertex
    that has a color estimate and at least one accepted inversion.

    Returns (VertexRecords, summary dict of acceptance/rejection counts)."""
    accepted, th, td, f, counts = invert_observation_arrays(
        ir, scene, trajectory, rig, camera, saturation_level)

    vids = ir.vertex_id[accepted]
    color_known = np.zeros(len(scene), dtype=bool)
    color_known[list(colors.keys())] = True
    has_color = color_known[vids]
    counts["skipped_no_color"] = int(len(vids) - has_color.sum())
    vids = vids[has_color]
    hb, db = brdf_table.bin_arrays(th[accepted][has_color], td[accepted][has_color])
    fs = f[accepted][has_color]

    color_arr = np.zeros((len(scene), 3))
    for v, c in colors.items():
        color_arr[v] = c
    samples = color_arr[vids] * fs[:, None]

    # sorted by (vertex, flat cell): the row order of VertexRecords
    key = vids.astype(np.int64) * N_CELLS + hb * N_D + db
    uniq, inverse = np.unique(key, return_inverse=True)
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inverse, samples)
    cnt = np.bincount(inverse, minlength=len(uniq))
    cell_vid, flat = np.divmod(uniq, N_CELLS)
    vertex_id = np.unique(cell_vid)
    return VertexRecords(vertex_id, color_arr[vertex_id], cell_vid, flat,
                         sums / cnt[:, None], cnt), counts
