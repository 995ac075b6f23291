"""45x48 bivariate reflectance table over the Rusinkiewicz half/difference
angles (theta_h, theta_d): binning, merging, linear completion and
continuous lookup.

A `BrdfTable` is three parallel arrays sorted by flat cell index
`h_bin * N_D + d_bin`, one row per cell present:

- `flat` (k,) int: the flat cell index;
- `means` (k, 3) float: mean rgb of the cell's samples;
- `counts` (k,) int: number of samples behind the mean. Count 0 marks a
  synthetic cell filled by `complete`: it is for rendering only, not a
  measurement.

The same type holds a sparse per-vertex table (tens of cells) and a complete
table (all N_CELLS cells), whose `means` reshape to the dense (45, 48, 3) grid.
`BrdfTable.from_cells` checks and sorts cells in any order: a file's, a
caller's, and the cells `merge` sums up. `complete` fills a table it was
given, so it builds its own directly.
"""

from __future__ import annotations

import numpy as np

N_H = 45
N_D = 48
H_WIDTH = 90.0 / N_H  # 2.0 degrees
D_WIDTH = 90.0 / N_D  # 1.875 degrees
N_CELLS = N_H * N_D

SERIAL_HEADER = f"brdftable v1 {N_H} {N_D}"
# angle pairs per block of `lookup_arrays`
LOOKUP_BLOCK = 2**12


def bin_arrays(theta_h: np.ndarray, theta_d: np.ndarray):
    """Vectorized binning; returns (h_bin, d_bin) int arrays."""
    h = np.minimum((theta_h / H_WIDTH).astype(int), N_H - 1)
    d = np.minimum((theta_d / D_WIDTH).astype(int), N_D - 1)
    return h, d


def cell_center(h_bin, d_bin):
    """(theta_h, theta_d) at the center of a cell; accepts scalars or arrays."""
    return (h_bin + 0.5) * H_WIDTH, (d_bin + 0.5) * D_WIDTH


def cell_indices(flat) -> np.ndarray:
    """(k, 2) (h_bin, d_bin) pairs of flat cell indices."""
    return np.stack(np.divmod(np.asarray(flat), N_D), axis=1)


def integer_rows(a, name: str) -> np.ndarray:
    """`a` flat as int64; ValueError unless its dtype is an integer one, so
    that a float id is rejected rather than truncated. An empty list, which
    numpy makes float, holds no value to truncate and passes."""
    a = np.asarray(a).reshape(-1)
    if a.dtype.kind not in "iu" and a.size:
        raise ValueError(f"{name} of dtype {a.dtype} is not integer")
    return a.astype(np.int64, copy=False)


def sorted_cells(vid, h, d, means, counts):
    """(vid, flat, means, counts) of parallel cell rows vid, h_bin, d_bin,
    means (m,3), counts, sorted stably by (vid, flat cell). Raises ValueError
    on non-integer vid, h_bin, d_bin or counts, rows of unequal length, a
    cell outside the grid or twice in one vid, a non-finite or negative mean,
    or a negative count."""
    vid, h, d, counts = (integer_rows(a, name) for a, name in (
        (vid, "vertex id"), (h, "h_bin"), (d, "d_bin"), (counts, "count")))
    means = np.asarray(means, dtype=float).reshape(-1, 3)
    if not len(vid) == len(h) == len(d) == len(means) == len(counts):
        raise ValueError("cell rows differ in length")
    if np.any((h < 0) | (h >= N_H) | (d < 0) | (d >= N_D)):
        raise ValueError("cell index out of range")
    if not np.all(np.isfinite(means)) or np.any(means < 0):
        raise ValueError("cell means must be finite and nonnegative")
    if np.any(counts < 0):
        raise ValueError("cell counts must be nonnegative")
    flat = h * N_D + d
    # rows strictly increasing in (vid, flat), as `write_records` writes
    # them, are sorted already and hold no cell twice
    if not np.all((vid[1:] > vid[:-1])
                  | ((vid[1:] == vid[:-1]) & (flat[1:] > flat[:-1]))):
        order = np.lexsort((flat, vid))
        vid, flat = vid[order], flat[order]
        if np.any((vid[1:] == vid[:-1]) & (flat[1:] == flat[:-1])):
            raise ValueError("cell given more than once")
        means, counts = means[order], counts[order]
    return vid, flat, means, counts


class BrdfTable:
    """Cells of the 45x48 grid as parallel arrays sorted by flat index, given
    checked and sorted (see the module docstring); `BrdfTable()` is empty."""

    def __init__(self, flat=(), means=(), counts=()):
        self.flat = np.asarray(flat, dtype=np.int64)
        self.means = np.asarray(means, dtype=float).reshape(-1, 3)
        self.counts = np.asarray(counts, dtype=np.int64)

    @classmethod
    def from_cells(cls, indices, means, counts) -> "BrdfTable":
        """Build from parallel arrays: indices (k,2) (h_bin, d_bin) ints,
        means (k,3), counts (k,), in any cell order. Raises ValueError as
        `sorted_cells` does."""
        idx = np.asarray(indices).reshape(-1, 2)
        _, flat, means, counts = sorted_cells(np.zeros(len(idx), dtype=np.int64),
                                              idx[:, 0], idx[:, 1], means, counts)
        return cls(flat, means, counts)

    def __len__(self) -> int:
        return len(self.flat)

    @property
    def measured_count(self) -> int:
        return int(np.count_nonzero(self.counts))


def merge(tables: list[BrdfTable]) -> BrdfTable:
    """Count-weighted union of measured cells; synthetic cells contribute nothing."""
    if not tables:
        raise ValueError("merge needs at least one table")
    flat = np.concatenate([t.flat for t in tables])
    means = np.concatenate([t.means for t in tables])
    counts = np.concatenate([t.counts for t in tables])
    measured = counts > 0
    flat, means, counts = flat[measured], means[measured], counts[measured]
    cells, inverse = np.unique(flat, return_inverse=True)
    total = np.bincount(inverse, weights=counts, minlength=len(cells))
    sums = np.stack([np.bincount(inverse, weights=counts * means[:, c],
                                 minlength=len(cells)) for c in range(3)], axis=1)
    return BrdfTable.from_cells(cell_indices(cells), sums / total[:, None],
                                total.astype(np.int64))


def merge_groups(group, flat, means, counts, n_groups: int) -> list[BrdfTable]:
    """Per group 0..n_groups-1, the `merge` of the parallel cell rows `flat`,
    `means` (m,3), `counts` of that `group`, split by one stable sort so each
    group keeps its rows in the order given. Rows of a group < 0 belong to
    none, and a group without rows gets the empty table."""
    order = np.argsort(group, kind="stable")
    cut = np.searchsorted(group[order], np.arange(n_groups + 1)).tolist()
    return [merge([BrdfTable(flat[rows], means[rows], counts[rows])])
            for rows in (order[a:b] for a, b in zip(cut[:-1], cut[1:]))]


def complete(table: BrdfTable) -> BrdfTable:
    """Fill every absent cell by 1D linear interpolation, first along theta_h
    within each d_bin line (constant beyond the ends), then along theta_d for
    lines with no data at all. Filled cells get count 0."""
    if table.measured_count < 2:
        raise ValueError("completion needs at least 2 measured cells")
    values = np.zeros((N_CELLS, 3))
    present = np.zeros(N_CELLS, dtype=bool)
    counts = np.zeros(N_CELLS, dtype=np.int64)
    values[table.flat] = table.means
    present[table.flat] = True
    counts[table.flat] = table.counts
    values = values.reshape(N_H, N_D, 3)
    present = present.reshape(N_H, N_D)

    filled = values.copy()
    line_has_data = present.any(axis=0)
    hs = np.arange(N_H, dtype=float)
    for d in range(N_D):
        if not line_has_data[d]:
            continue
        xs = np.nonzero(present[:, d])[0]
        for c in range(3):
            filled[:, d, c] = np.interp(hs, xs.astype(float), values[xs, d, c])
    ds = np.arange(N_D, dtype=float)
    data_lines = np.nonzero(line_has_data)[0]
    for c in range(3):
        for h in range(N_H):
            empty = ~line_has_data
            filled[h, empty, c] = np.interp(ds[empty], data_lines.astype(float),
                                            filled[h, data_lines, c])
    return BrdfTable(np.arange(N_CELLS), filled.reshape(N_CELLS, 3), counts)


def dense_values(table: BrdfTable) -> np.ndarray:
    """(45, 48, 3) array of cell values; requires all cells present."""
    if len(table) != N_CELLS:
        raise ValueError("table is not complete")
    return table.means.reshape(N_H, N_D, 3)


def _bilinear(arr: np.ndarray, theta_h: np.ndarray, theta_d: np.ndarray):
    """(n, 3) bilinear interpolation in the dense grid `arr` at cell centers,
    clamped at the grid edges. Its temporaries are freed on return."""
    gh = np.clip(theta_h / H_WIDTH - 0.5, 0.0, N_H - 1.0)
    gd = np.clip(theta_d / D_WIDTH - 0.5, 0.0, N_D - 1.0)
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


def lookup_arrays(table: BrdfTable, theta_h: np.ndarray, theta_d: np.ndarray):
    """(n, 3) bilinear interpolation at cell centers, clamped at the table
    edges, of n angle pairs. Every step is elementwise, so the pairs are
    looked up in blocks of `LOOKUP_BLOCK`: the corner values, weights and
    products are bounded by the block; only the result is (n, 3)."""
    arr = dense_values(table)
    theta_h = np.asarray(theta_h, dtype=float)
    theta_d = np.asarray(theta_d, dtype=float)
    out = np.empty((len(theta_h), 3))
    for a in range(0, len(out), LOOKUP_BLOCK):
        b = a + LOOKUP_BLOCK
        out[a:b] = _bilinear(arr, theta_h[a:b], theta_d[a:b])
    return out


def to_text(table: BrdfTable) -> str:
    """One line per present cell: `h_bin d_bin count r g b`."""
    lines = [SERIAL_HEADER]
    for (h, d), (r, g, b), c in zip(cell_indices(table.flat).tolist(),
                                    table.means.tolist(), table.counts.tolist()):
        lines.append(f"{h} {d} {c} {r:.17g} {g:.17g} {b:.17g}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> BrdfTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != SERIAL_HEADER:
        raise ValueError(f"bad table header, expected '{SERIAL_HEADER}'")
    indices, means, counts = [], [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 6:
            raise ValueError(f"bad table line {ln!r}, expected 'h d count r g b'")
        indices.append((int(parts[0]), int(parts[1])))
        counts.append(int(parts[2]))
        means.append([float(x) for x in parts[3:]])
    return BrdfTable.from_cells(indices, means, counts)
