"""Artifact I/O for the pipeline stages: the IR and RGB observations and the
reflectance record columns as uncompressed npz (one array per field, under
its name and with its dtype), everything else as text. The IR observations
keep their frame-major layout: per-row arrays plus per-frame time, LED and
row offsets."""

from __future__ import annotations

import dataclasses
import functools
import os
import warnings
import zipfile
import zlib

import numpy as np

from .brdf_table import cell_indices, integer_rows, sorted_cells
from .config import load_config
from .estimation import VertexRecords
from .geometry import UNIT_TOL, Trajectory
from .simulator import GroundTruthMaterial, IrObservations, RgbObservations


class MissingInputError(FileNotFoundError):
    pass


class CorruptInputError(MissingInputError):
    """An input artifact exists but its content cannot be used; the CLI
    treats it like a missing input."""


def _reader(read):
    """`read(path, ...)` that raises MissingInputError for a missing file and
    re-raises what bad content makes it raise as CorruptInputError naming
    the file: the failure contract of every `read_*`."""
    @functools.wraps(read)
    def checked(path, *args):
        if not os.path.exists(path):
            raise MissingInputError(f"missing input file: {path}")
        try:
            return read(path, *args)
        except (ValueError, KeyError, IndexError, EOFError, zipfile.BadZipFile,
                zlib.error) as exc:
            raise CorruptInputError(f"corrupt input file {path}: {exc}") from exc
    return checked


def write_scene(path, scene) -> None:
    """`vertex_id x y z nx ny nz material_id` per vertex, reals to 17
    significant digits."""
    np.savetxt(path, np.column_stack([np.arange(len(scene)), scene.positions,
                                      scene.normals, scene.material_ids]),
               fmt="%d" + " %.17g" * 6 + " %d",
               header="vertex_id x y z nx ny nz material_id")


def _rows(path, width):
    """The rows (n, width) of a text table, `#` starting a comment; a table
    without rows raises ValueError here, in place of numpy's warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, comments="#")
    if data.size == 0:
        raise ValueError("the table has no rows")
    return data.reshape(-1, width)


def _id_rows(path, width, name):
    """The rows of a text table whose first column, `name`, numbers them:
    it must read 0..n-1 in order."""
    data = _rows(path, width)
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError(f"{name} is not 0..n-1 in order")
    return data


@_reader
def read_scene(path, materials):
    """The scene `write_scene` wrote, normals as written: vertex ids 0..n-1
    in order, finite positions, each normal unit to within
    `geometry.UNIT_TOL`, and each material id an integer that indexes
    `materials`."""
    from .scenes import Scene
    data = _id_rows(path, 8, "vertex_id")
    if not np.isfinite(data[:, 1:4]).all():
        raise ValueError("a position is not finite")
    if not np.all(np.abs(np.linalg.norm(data[:, 4:7], axis=1) - 1.0) <= UNIT_TOL):
        raise ValueError("a normal is not of unit length")
    ids = data[:, 7]
    if not np.all((ids == np.floor(ids)) & (ids >= 0) & (ids < len(materials))):
        raise ValueError(f"a material id is not an integer in [0, {len(materials)})")
    return Scene(data[:, 1:4], data[:, 4:7], data[:, 7].astype(int), materials)


def write_materials(path, materials) -> None:
    """`material_id`, diffuse albedo, specular strength, lobe exponent and
    color per material, reals to 17 significant digits."""
    rows = [[i, *m.diffuse_albedo, m.specular_strength, m.lobe_exponent, *m.color]
            for i, m in enumerate(materials)]
    np.savetxt(path, np.reshape(rows, (-1, 9)), fmt="%d" + " %.17g" * 8,
               header="material_id albedo_r albedo_g albedo_b strength exponent "
                      "color_r color_g color_b")


@_reader
def read_materials(path):
    """The materials `write_materials` wrote: material ids 0..n-1 in order,
    every value finite."""
    data = _id_rows(path, 9, "material_id")
    if not np.isfinite(data).all():
        raise ValueError("a value is not finite")
    return [GroundTruthMaterial(diffuse_albedo=row[1:4], specular_strength=row[4],
                                lobe_exponent=row[5], color=row[6:9])
            for row in data]


def write_trajectory(path, trajectory: Trajectory) -> None:
    np.savetxt(path, np.column_stack([trajectory.times, trajectory.quaternions,
                                      trajectory.translations]),
               fmt="%.17g", header="t qw qx qy qz tx ty tz")


@_reader
def read_trajectory(path) -> Trajectory:
    """The trajectory `write_trajectory` wrote, checked by `Trajectory`."""
    data = _rows(path, 8)
    return Trajectory(data[:, 0], data[:, 1:5], data[:, 5:8])


# observation fields with more than one value per row, integer fields, and
# per-frame fields with their count beyond the frame count
_WIDTH = {"pixel": (2,), "rgb": (3,)}
_INTEGER = ("vertex_id", "frame_led", "frame_offsets")
_PER_FRAME = {"frame_time": 0, "frame_led": 0, "frame_offsets": 1}


def _read_fields(path, cls):
    """A `cls` of the npz arrays under its field names, checked for one row
    count and one frame count, the widths in `_WIDTH`, integer ids and
    finite values; `cls` checks the rest of its layout."""
    with open(path, "rb") as fh:
        data = np.load(fh)
        arrays = {f.name: data[f.name] for f in dataclasses.fields(cls)}

    def count(name):  # a 0-d array fits no shape
        return arrays[name].shape[0] if arrays[name].ndim else -1
    for name, a in arrays.items():
        n = (count("frame_time") + _PER_FRAME[name] if name in _PER_FRAME
             else count("vertex_id"))
        shape, ints = (n,) + _WIDTH.get(name, ()), name in _INTEGER
        if (a.shape != shape or a.dtype.kind not in ("iu" if ints else "iuf")
                or not np.isfinite(a).all()):
            raise ValueError(f"{name} of shape {a.shape} and dtype {a.dtype} is "
                             f"not {shape} finite {'integers' if ints else 'reals'}")
    return cls(**arrays)


def write_ir_observations(path, ir: IrObservations) -> None:
    # np.savez appends ".npz" to a str path that lacks it, not to a file
    with open(path, "wb") as fh:
        np.savez(fh, **vars(ir))


@_reader
def read_ir_observations(path) -> IrObservations:
    return _read_fields(path, IrObservations)


def write_rgb_observations(path, rgb: RgbObservations) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **vars(rgb))


@_reader
def read_rgb_observations(path) -> RgbObservations:
    return _read_fields(path, RgbObservations)


def write_colors(path, colors) -> None:
    """`vertex_id r g b` per row of the (vertex_id, color) pair
    `estimation.estimate_colors` returns, in its order (ids ascending),
    the unit colors to 17 significant digits. Ids pass through float64,
    exact below 2^53 as every array index is."""
    np.savetxt(path, np.column_stack(colors), fmt="%d %.17g %.17g %.17g",
               header="vertex_id r g b (unit euclidean norm)")


@_reader
def read_colors(path):
    """The (vertex_id, color) pair `write_colors` wrote."""
    data = np.loadtxt(path, comments="#").reshape(-1, 4)
    return data[:, 0].astype(np.int64), data[:, 1:4]


def write_records(path, records: VertexRecords) -> None:
    """Uncompressed npz of the record columns, one row per vertex and one
    per table cell."""
    cells = cell_indices(records.flat)
    with open(path, "wb") as fh:
        np.savez(fh, vertex_id=records.vertex_id, color=records.color,
                 cell_vid=records.cell_vid, cell_h=cells[:, 0],
                 cell_d=cells[:, 1], cell_count=records.counts,
                 cell_mean=records.means)


def _distinct_sorted(a: np.ndarray) -> np.ndarray:
    """The distinct values of the ascending array `a`: `np.unique(a)` without
    the `numpy.ma` import it makes."""
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


@_reader
def read_records(path) -> VertexRecords:
    """The records `write_records` wrote, cell rows checked and sorted by
    `sorted_cells`, every vertex with a color and a cell row."""
    with np.load(path) as data:
        vertex_id = integer_rows(data["vertex_id"], "vertex_id")
        color = np.asarray(data["color"], dtype=float)
        cell_vid, flat, means, counts = sorted_cells(
            data["cell_vid"], data["cell_h"], data["cell_d"], data["cell_mean"],
            data["cell_count"])
    if not np.array_equal(_distinct_sorted(cell_vid), vertex_id):
        raise ValueError("vertex_id is not the ascending distinct cell_vid")
    if color.shape != (len(vertex_id), 3):
        raise ValueError(f"color of shape {color.shape} for {len(vertex_id)} vertices")
    return VertexRecords(vertex_id, color, cell_vid, flat, means, counts)


@_reader
def read_config(path):
    return load_config(path)


def write_labels(path, labels: np.ndarray) -> None:
    """`vertex_id label` per line (-1 unclassified), with the count of each
    group present and of the unclassified in a trailing comment summary."""
    counts = np.bincount(np.asarray(labels, dtype=np.int64) + 1, minlength=1)
    with open(path, "w") as fh:
        fh.write("# vertex_id label\n")
        for i, lab in enumerate(labels):
            fh.write(f"{i} {int(lab)}\n")
        fh.write("# summary\n")
        for g in np.nonzero(counts[1:])[0]:
            fh.write(f"# group {g} count {counts[g + 1]}\n")
        fh.write(f"# unclassified {counts[0]}\n")


@_reader
def read_labels(path) -> np.ndarray:
    """Label per vertex id. The ids must be 0..n-1, each once; the labels -1
    (unclassified) or a group 0..k-1, every group used."""
    data = _rows(path, 2)
    ids, labs = data[:, 0], data[:, 1]
    if not np.array_equal(np.sort(ids), np.arange(len(ids))):
        raise ValueError("vertex ids are not 0..n-1, each once")
    groups = _distinct_sorted(np.sort(labs[labs != -1]))
    if not np.array_equal(groups, np.arange(len(groups))):
        raise ValueError("labels are not -1 or the groups 0..k-1, each used")
    labels = np.empty(len(ids), dtype=int)
    labels[ids.astype(int)] = labs.astype(int)
    return labels
