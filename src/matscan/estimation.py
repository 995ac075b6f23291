"""Inverse pipeline: per-vertex normalized color, inversion of the image
formation model to scalar reflectance samples, and their accumulation into
per-vertex tables held as one column set (`VertexRecords`).

Colors are one grouped median over every vertex at once, one sort per
channel. The inversion runs on chunks of whole frames, as `simulator.frames`
slices the observation rows, with each row's camera and LED taken from its
frame, and keeps only each accepted row's cell key and reflectance sample,
written in place into two columns allocated once at a bound. The distinct
cell keys come from one sorted copy of the keys, and the cell sums are
added in row order a chunk of rows at a time, so no sorted copy of the rows
is made."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import brdf_table
from .brdf_table import N_CELLS, N_D, BrdfTable
from .geometry import LedRig, PinholeCamera, half_diff_angle_arrays
from .simulator import (IrObservations, RgbObservations, frame_geometry, frames,
                        shading, shrink_rows, vignette, write_rows)

GRAZING_DEG = 60.0
COS_GRAZING = np.cos(np.deg2rad(GRAZING_DEG))
VIGNETTE_FLOOR = 0.05
MIN_COLOR_SAMPLES = 3
# accepted rows per chunk of the cell sums
ROW_CHUNK = 4096


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


def estimate_colors(rgb_obs: RgbObservations, saturation_level: float):
    """(vertex_id, color): the ascending ids (k,) of the vertices with at
    least `MIN_COLOR_SAMPLES` usable samples (unsaturated, not grazing)
    whose per-channel median has a norm of at least 1e-12, and their unit
    colors (k,3): that median, normalized to unit Euclidean norm."""
    keep = ((rgb_obs.omega_out_angle <= GRAZING_DEG)
            & np.all(rgb_obs.rgb < saturation_level, axis=1))
    vids = rgb_obs.vertex_id[keep].astype(np.int64)
    rgb = rgb_obs.rgb[keep]
    n = len(vids)
    count = np.bincount(vids)
    start = np.cumsum(count) - count
    uniq = np.flatnonzero(count >= MIN_COLOR_SAMPLES)
    start, count = start[uniq], count[uniq]
    hi = start + count // 2
    lo = np.where(count % 2 == 1, hi, hi - 1)
    med = np.empty((len(uniq), 3))
    for c in range(3):
        # the rows by value, then sorted by vertex through the key
        # vid * n + position in value order, which keeps each vertex's
        # values ascending; ties in any order
        order = np.argsort(rgb[:, c])
        key = vids[order]
        key *= n
        key += np.arange(n)
        key.sort()
        key %= n
        v = rgb[order[key], c]
        # the middle value of an odd run, or the mean of the middle two
        med[:, c] = np.where(lo == hi, v[hi], (v[lo] + v[hi]) / 2)
    # the BLAS dot product `np.linalg.norm` of one vector computes, on rows
    # as aligned as a fresh (3,) array: some dot kernels sum in an order that
    # depends on the alignment of their input
    med = np.pad(med, ((0, 0), (0, 1)))[:, :3]
    norm = np.sqrt(np.matmul(med[:, None, :], med[:, :, None])[:, 0, 0])
    ok = norm >= 1e-12
    return uniq[ok], med[ok] / norm[ok, None]


def invert_observation_arrays(ir: IrObservations, scene, trajectory, rig: LedRig,
                              camera: PinholeCamera, saturation_level: float,
                              colored: np.ndarray):
    """Vectorized inversion of a whole observation set, in chunks of whole
    frames (`simulator.frames`), that keeps only the rows records use.

    Returns (key, f, counts). `key` and `f` hold, in row order, each
    accepted row of a vertex with a color (`colored`, a bool per scene
    vertex): its cell key vertex_id * N_CELLS + flat cell and its reflectance
    sample. `counts` holds the rows of each rejection reason, the accepted
    ones, and the accepted ones skipped for lack of a color."""
    tally = np.zeros(ACCEPTED + 1, dtype=np.int64)
    # allocated once, at the rows of a colored vertex that pass the first two
    # tests (negated as written below, so a NaN intensity passes both here
    # too): the later tests only reject, so no more rows are kept
    bound = np.count_nonzero(colored[ir.vertex_id]
                             & ~(ir.intensity >= saturation_level)
                             & ~(ir.intensity <= 0.0))
    key, f = np.empty(bound, np.int64), np.empty(bound)
    at = 0
    for rows, cam, led_world, brightness in frames(ir, trajectory, rig):
        vids = ir.vertex_id[rows]
        nrm = scene.normals[vids]
        d, l, ndotl, wo, ndotv = frame_geometry(cam, led_world,
                                                scene.positions[vids], nrm)
        vig = vignette((ir.pixel[rows, 0], ir.pixel[rows, 1]), camera)
        inten = ir.intensity[rows]

        # a row's code is that of the first test it fails, in Rejection order
        rej = np.select([inten >= saturation_level, inten <= 0.0,
                         ndotl < COS_GRAZING, ndotv < COS_GRAZING,
                         vig < VIGNETTE_FLOOR], list(range(ACCEPTED)), ACCEPTED)
        tally += np.bincount(rej, minlength=ACCEPTED + 1)
        use = (rej == ACCEPTED) & colored[vids]
        if use.any():
            th, td = half_diff_angle_arrays(nrm[use], l[use], wo[use])
            hb, db = brdf_table.bin_arrays(th, td)
            at = write_rows((key, f), at,
                            vids[use].astype(np.int64) * N_CELLS + hb * N_D + db,
                            inten[use] / shading(vig[use], 1.0, ndotl[use],
                                                 brightness[use], d[use]))

    key, f = shrink_rows((key, f), at)
    counts = {r.value: int(tally[code]) for code, r in enumerate(Rejection)}
    counts["accepted"] = int(tally[ACCEPTED])
    counts["skipped_no_color"] = counts["accepted"] - len(key)
    return key, f, counts


def accumulate_vertex_tables(ir: IrObservations, scene, trajectory, rig: LedRig,
                             colors, camera: PinholeCamera,
                             saturation_level: float):
    """The reflectance records (unit color + sparse table) of every vertex
    that has a color estimate and at least one accepted inversion; `colors`
    is the (vertex_id, color) pair `estimate_colors` returns. The working
    set beyond the observations scales with the accepted rows.

    Returns (VertexRecords, summary dict of acceptance/rejection counts)."""
    ids, unit = colors
    color_arr = np.zeros((len(scene), 3))
    color_arr[ids] = unit
    colored = np.zeros(len(scene), dtype=bool)
    colored[ids] = True
    key, f, counts = invert_observation_arrays(
        ir, scene, trajectory, rig, camera, saturation_level, colored)

    # the distinct cell keys, from a sorted copy of the keys freed at once,
    # give the row order of VertexRecords: (vertex, flat cell). Each cell's
    # samples (color times f) are then added in row order, a chunk of rows
    # at a time (`np.add.at` adds in index order): per cell the sums of one
    # bincount over the rows sorted stably by key, with no per-row array
    # beyond the keys and f but the chunk's
    cells = np.sort(key)
    first = np.ones(len(cells), dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=first[1:])
    cells = cells[first]
    cnt = np.diff(np.flatnonzero(first), append=len(first))
    del first
    means = np.zeros((len(cnt), 3))
    for lo in range(0, len(key), ROW_CHUNK):
        rows = slice(lo, lo + ROW_CHUNK)
        cell = np.searchsorted(cells, key[rows])
        vid = key[rows] // N_CELLS
        for c in range(3):
            np.add.at(means[:, c], cell, color_arr[vid, c] * f[rows])
    means /= cnt[:, None]
    del key, f
    cell_vid, flat = np.divmod(cells, N_CELLS)
    vertex_id = cell_vid[np.flatnonzero(np.diff(cell_vid, prepend=-1))]
    return VertexRecords(vertex_id, color_arr[vertex_id], cell_vid, flat, means,
                         cnt), counts
