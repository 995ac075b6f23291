"""Material segmentation by propagation over the global cell table.

The global 45x48 table is one stable sort, by flat cell, of the record rows
of the (subsampled) vertices: per cell, their per-vertex mean rgb samples
in vertex order. Segmentation reads one column set of it: the cells with at
least MIN_CELL_SAMPLES samples, in flat order, their vertex ids and samples
concatenated. One flat-kernel meanshift call clusters each cell of it on
the cell's own integer lattice, where every sum and comparison is exact, in
one step loop per block of whole cells, small cell-steps together in ragged
passes. The most separable cell seeds two material groups which are then
grown cell by cell, ranked by a separability score of refitted Gaussians
and gated by a 3-sigma Mahalanobis rule. Each group keeps per-cell moments
of its samples, updated from the rows of the vertices the gate adds; they
score every cell at once, and only the cells within a certified bound of
the best are refitted to pick the winner. Vertices that never pass the gate
stay unclassified. The multi-material variant repeats the process one
material per round, seeding from the most separable cluster, with no
material count supplied by the user. Every Gaussian solve is one 3x3
Cholesky routine on Python floats or arrays. Labels then diffuse to the
other vertices within a radius, by a scipy KD tree. Every threshold is a
module constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .brdf_table import N_CELLS, N_D

COV_REG_EPS = 1e-6
MIN_CLUSTER_SIZE = 10
MIN_CELL_SAMPLES = 20
MIN_FIT_SAMPLES = 10
MAX_ITER = 100  # meanshift steps
DISCARD_FRACTION = 0.05
SIGMA_GATE = 3.0
# float64 entries of the meanshift distance buffer: 256 KiB, an L2-sized block
_BLOCK = 1 << 15
# samples of the block of whole cells one meanshift step loop runs over; a
# larger cell runs alone
_CELL_BLOCK = 1 << 14
# steps of a cell's lattice along its widest coordinate
_LATTICE = 1 << 12
# leader modes per round of a meanshift step whose modes share neighbour sets
_LEADERS = 8
# cell-steps of at most this many moving modes x samples run in ragged
# passes (~30 ns an entry; a BLAS step pays ~0.1 ms of calls)
_RAGGED = 1 << 12
# entries after which a new ragged pass starts, at ~60 B an entry
_PASS = 1 << 13


def _starts(x) -> np.ndarray:
    """Whether each element of x begins a run of equal neighbours."""
    first = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return first


@dataclass
class GaussianCluster:
    mean: np.ndarray  # (3,)
    covariance: np.ndarray  # (3,3) SPD after regularization
    members: np.ndarray  # vertex ids, (m,)


@dataclass
class MaterialGroups:
    groups: list  # list of sets of vertex ids
    unclassified: set

    @property
    def classified(self) -> set:
        return set().union(*self.groups)


class GlobalCellTable:
    """The column set segmentation reads, from parallel cell rows (flat
    cell, vertex id, per-vertex mean rgb sample) in any cell order: one
    stable sort by flat cell, so each cell keeps its rows in the order they
    were given, and only the cells with at least MIN_CELL_SAMPLES samples
    kept. Those cells come in ascending flat order (`flats`), their vertex
    ids and samples concatenated (`vids`, `samples`) with cell k at rows
    `offsets[k]:offsets[k + 1]`; `mask_size` is the length of a vertex mask
    that holds every sampled and candidate vertex id. Propagation also reads
    the rows of each vertex (`rows_of`), and per cell its mean sample
    (`centres`) and largest sample norm (`magnitudes`). `len` counts every
    measured cell, small ones included."""

    def __init__(self, flat, vids, samples, sampled_ids):
        flat = np.asarray(flat, dtype=int)
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        # each cell's run of sorted rows starts where the flat cell changes
        first = _starts(sorted_flat)
        cells = sorted_flat[first]
        counts = np.diff(np.flatnonzero(first), append=len(flat))
        del sorted_flat, first
        large = counts >= MIN_CELL_SAMPLES
        rows = order[np.repeat(large, counts)]
        del order
        self._n_cells = len(cells)
        self.sampled_ids = np.asarray(sampled_ids, dtype=int)
        self.flats = cells[large]
        self.vids = np.asarray(vids, dtype=int)[rows]
        self.samples = np.asarray(samples, dtype=float).reshape(-1, 3)[rows]
        sizes = counts[large]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.mask_size = int(max(self.sampled_ids.max(initial=0),
                                 self.vids.max(initial=0))) + 1
        # vertex v's rows are _by_vertex[_starts[v]:_starts[v + 1]]
        self._by_vertex = np.argsort(self.vids, kind="stable")
        self._starts = np.concatenate(
            [[0], np.cumsum(np.bincount(self.vids, minlength=self.mask_size))])
        self.centres = (np.add.reduceat(self.samples, self.offsets[:-1])
                        / sizes[:, None])
        self.magnitudes = np.maximum.reduceat(
            np.sqrt(np.einsum("ij,ij->i", self.samples, self.samples)),
            self.offsets[:-1])

    def __len__(self) -> int:
        return self._n_cells

    def cell(self, k: int):
        """(vertex ids, samples) of candidate cell k."""
        lo, hi = self.offsets[k], self.offsets[k + 1]
        return self.vids[lo:hi], self.samples[lo:hi]

    def rows_of(self, ids) -> np.ndarray:
        """The rows of the vertices `ids`, vertex by vertex."""
        lo, hi = self._starts[ids], self._starts[ids + 1]
        n = hi - lo
        # each vertex's run of positions, shifted from where it lands
        return self._by_vertex[np.repeat(lo - np.cumsum(n) + n, n)
                               + np.arange(n.sum())]


def build_global_table(records, sample_budget: int, rng_seed: int) -> GlobalCellTable:
    """Subsample up to `sample_budget` vertices of the records (seeded,
    without replacement) and put the rows of their measured cells into the
    table."""
    if not records:
        raise ValueError("no reflectance records")
    if sample_budget < 1:
        raise ValueError("sample budget must be >= 1")
    rng = np.random.default_rng(rng_seed)
    n = len(records)
    take = min(sample_budget, n)
    sampled = records.vertex_id[np.sort(rng.choice(n, size=take, replace=False))]
    picked = np.isin(records.cell_vid, sampled) & (records.counts > 0)
    # rows come in vertex order, so each cell keeps its samples in
    # chosen-vertex order, which the meanshift mode merge depends on. The
    # table gathers its own rows, so the columns are copied first only when
    # some row is left out
    columns = (records.flat, records.cell_vid, records.means)
    if not picked.all():
        columns = [c[picked] for c in columns]
    return GlobalCellTable(*columns, sampled)


def _sq_norms(v):
    """|v|^2 of each row of v (..., 3) by elementwise ufuncs: the bits of a
    row's value do not depend on where the row sits."""
    return v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2]


def _lattice(pts, offsets, cell, bws):
    """(q, bw2, half2): each row of `pts` on its cell's integer lattice (cell
    k holds rows `offsets[k]:offsets[k + 1]`, row r is in `cell[r]`),
    q = rint((s - lo) / h), lo the cell's per-coordinate minimum and h its
    largest coordinate span / `_LATTICE` (at least the smallest normal
    float); and per cell, in lattice units, T = floor(min(bw/h, 2^13)^2) and
    min(bw/2h, 2^13)^2. No squared lattice distance exceeds 3 * 2^24 <
    2^26, so the caps change no comparison."""
    sizes = np.diff(offsets)
    full = sizes > 0
    lo = np.zeros((len(sizes), 3))
    h = np.ones(len(sizes))
    lo[full] = np.minimum.reduceat(pts, offsets[:-1][full])
    span = (np.maximum.reduceat(pts, offsets[:-1][full]) - lo[full]).max(1)
    h[full] = np.maximum(span / _LATTICE, np.finfo(float).tiny)
    cap = 2.0 ** 13 * h
    bw, half = np.minimum(bws, cap) / h, np.minimum(bws / 2, cap) / h
    return np.rint((pts - lo[cell]) / h[cell, None]), np.floor(bw * bw), half * half


class _FlatKernel:
    """The lattice samples of one meanshift cell and its squared bandwidth
    T, with the samples' squared norms less T, the samples with a column of
    ones, and the distance buffer the kernels of one call share."""

    def __init__(self, pts, bw2, buf):
        self.pts, self.bw2, self.buf = pts, bw2, buf
        self.ones = np.column_stack([pts, np.ones(len(pts))])
        self.pts_sq = _sq_norms(pts) - bw2

    def sums(self, modes, gap=None):
        """Per mode, the sum and count (a row of four) of the samples q with
        |m - q|^2 <= T. Squared distances are built in place, a block of
        rows at a time, in one buffer of at most `_BLOCK` floats that stays
        in L2, which then takes the block's mask for its product with the
        samples. With `gap`, also write per mode min |d^2 - T|."""
        n = len(self.pts)
        rows = max(1, _BLOCK // n)
        out = np.empty((len(modes), 4))
        for lo in range(0, len(modes), rows):
            m = modes[lo:lo + rows]
            d2 = self.buf[:len(m) * n].reshape(len(m), n)
            np.matmul(-2.0 * m, self.pts.T, out=d2)
            d2 += _sq_norms(m)[:, None]
            d2 += self.pts_sq
            within = d2 <= 0
            if gap is not None:
                np.min(np.abs(d2, out=d2), axis=1, out=gap[lo:lo + rows])
            np.copyto(d2, within)
            np.matmul(d2, self.ones, out=out[lo:lo + rows])
        return out

    def step(self, modes):
        """Each mode's next lattice mode rint(S / c), from the sum S and
        count c of its neighbour set or of a leader's with the same mask.

        While the modes no leader covers yet times the samples exceed one
        `_BLOCK` buffer, a round sums the sets of a few leader modes spread
        over them, lets each leader stand for the modes it covers, and stops
        when it covers fewer modes besides its leaders than it has leaders.
        The modes left take their own sets. A leader's gap g puts every
        sample within sqrt(T - g) or beyond sqrt(T + g) of it, so by the
        triangle inequality a mode at squared distance e2 from it has its
        mask when (sqrt(T - g) + e)^2 <= T and (sqrt(T + g) - e)^2 > T: both
        hold when e2 < g and 4 e2 T < (g - e2)^2, a test exact in int64."""
        n = len(self.pts)
        sums = np.empty((len(modes), 4))
        source, free = np.arange(len(modes)), np.arange(len(modes))
        while len(free) * n > _BLOCK:
            lead = free[::max(1, len(free) // _LEADERS)][:_LEADERS]
            gap = np.empty(len(lead))
            sums[lead] = self.sums(modes[lead], gap)
            g = gap.astype(np.int64)
            e2 = _sq_norms(modes[free, None] - modes[lead]).astype(np.int64)
            covered = (e2 < g) & (4 * int(self.bw2) * e2 < (g - e2) ** 2)
            hit = covered.any(1)
            source[free[hit]] = lead[covered[hit].argmax(1)]
            source[lead] = lead
            hit[np.searchsorted(free, lead)] = True
            free = free[~hit]
            if np.count_nonzero(hit) < 2 * len(lead):
                break
        sums[free] = self.sums(modes[free])
        return np.rint(sums[source, :3] / sums[source, 3:])


def _merge_modes(modes, cell, half2):
    """Whether each row of `modes` is a center of the walk over the rows of
    its cell k (`cell`, contiguous): a row is one unless its squared
    distance to a center before it is below `half2[k]`. A round makes the
    first open row of every cell a center and closes the open rows near it."""
    head = np.zeros(len(modes), dtype=bool)
    unseen = np.ones(len(modes), dtype=bool)
    while unseen.any():
        rows = np.flatnonzero(unseen)
        first = _starts(cell[rows])
        head[rows[first]] = True
        # each later row against the center of its cell
        rest, c = rows[~first], rows[first][np.cumsum(first)[~first] - 1]
        close = _sq_norms(modes[rest] - modes[c]) < half2[cell[rest]]
        unseen[rows[first]] = False
        unseen[rest[close]] = False
    return head


def meanshift(samples, bandwidth, offsets):
    """Flat-kernel meanshift of each cell k, the rows
    `offsets[k]:offsets[k + 1]` of `samples` at `bandwidth[k]`, on the
    cell's integer lattice (`_lattice`). Each sample is iterated to its
    mode: a step takes a mode m to rint(S / c), S and c the sum and count of
    the samples q with |m - q|^2 <= T, until the mode stays or MAX_ITER
    steps have run. A walk merges each mode into an earlier center within
    half the bandwidth (`_merge_modes`), and each sample goes to its mode's
    nearest center. Returns per cell its cluster index arrays (into the
    cell's rows), largest first. Every value compared is an integer below
    2^53, so exact in any order of summation.

    Cell-steps of at most `_RAGGED` moving modes x samples run together in
    ragged passes (`_ragged_means`), a larger one alone
    (`_FlatKernel.step`). Rows that reach one lattice point of one cell are
    iterated once from then on: `owner` maps each sample to its row. The
    step loop runs over blocks of whole cells of at most `_CELL_BLOCK`
    samples (a larger cell alone), so its arrays span one block."""
    pts = np.asarray(samples, dtype=float).reshape(-1, 3)
    offsets = np.asarray(offsets, dtype=np.intp)
    bws = np.broadcast_to(np.asarray(bandwidth, dtype=float),
                          (len(offsets) - 1,))
    if not np.all(np.isfinite(bws) & (bws > 0)):
        raise ValueError("bandwidth must be finite and positive")
    buf = np.empty(max(_BLOCK, np.diff(offsets).max(initial=0)))
    out = []
    for k, stop in _cell_blocks(offsets):
        out += _meanshift_cells(pts[offsets[k]:offsets[stop]], bws[k:stop],
                                offsets[k:stop + 1] - offsets[k], buf)
    return out


def _cell_blocks(offsets):
    """(k, stop) of each run of consecutive cells k:stop, as many as fit in
    `_CELL_BLOCK` samples, and at least one."""
    k = 0
    while k < len(offsets) - 1:
        stop = max(k + 1, int(np.searchsorted(
            offsets, offsets[k] + _CELL_BLOCK, "right")) - 1)
        yield k, stop
        k = stop


def _ragged_means(pts, offsets, modes, cells, bw2):
    """The next lattice mode of each mode among its own cell's samples
    (`pts`, a row per coordinate; `cells` ascending), in one ragged pass:
    squared distances as sums of squared differences, each mode's set
    summed over its run of samples."""
    n = np.diff(offsets)[cells]
    ends = np.cumsum(n)
    starts = ends - n
    x = pts.take(np.arange(ends[-1]) + np.repeat(offsets[cells] - starts, n), axis=1)
    d2 = _sq_norms((x - np.repeat(modes.T, n, axis=1)).T)
    within = d2 <= np.repeat(bw2[cells], n)
    return np.rint(np.add.reduceat(x * within, starts, axis=1).T
                   / np.add.reduceat(within, starts, dtype=np.intp)[:, None])


def _meanshift_cells(pts, bws, offsets, buf):
    """`meanshift` of the cells of one block, in one step loop: large
    cell-steps one at a time, the others in ragged passes. The stop test,
    the merging of rows and the `owner` remap run once per step."""
    sizes = np.diff(offsets)
    if len(pts) == 0:
        return [[] for _ in bws]
    cell = np.repeat(np.arange(len(bws)), sizes)  # the cell of each row
    q, bw2, half2 = _lattice(pts, offsets, cell, bws)
    # a cell of at most sqrt(`_RAGGED`) samples never takes a step alone
    kernels = {k: _FlatKernel(q[offsets[k]:offsets[k + 1]], bw2[k], buf)
               for k in np.flatnonzero(sizes * sizes > _RAGGED).tolist()}
    modes = q.copy()
    columns = np.ascontiguousarray(q.T)
    owner = np.arange(len(q))
    active = np.ones(len(q), dtype=bool)
    for _ in range(MAX_ITER):
        idx = np.flatnonzero(active)
        if len(idx) == 0:
            break
        cells = cell[idx]
        moving = np.bincount(cells, minlength=len(bws))
        large = moving * sizes > _RAGGED
        new = np.empty((len(idx), 3))
        for k in np.flatnonzero(large).tolist():
            rows = slice(*np.searchsorted(cells, [k, k + 1]))
            new[rows] = kernels[k].step(modes[idx[rows]])
        # passes of whole small cells, a new one at the first cell that
        # starts `_PASS` entries or more after the pass
        small = np.flatnonzero(~large[cells])
        n = sizes[cells[small]]
        at = np.maximum.accumulate(np.where(_starts(cells[small]), np.cumsum(n) - n, 0))
        for rows in np.split(small, np.flatnonzero(_starts(at // _PASS))[1:]):
            if len(rows):
                new[rows] = _ragged_means(columns, offsets, modes[idx[rows]],
                                          cells[rows], bw2)
        active[idx] = (new != modes[idx]).any(1)
        modes[idx] = new
        # moving rows on one point of one cell share their path, also when
        # one stopped there; each keeps its first row (a stable sort), so
        # rows stay in the order of their first sample. A key is below 2^37
        key = (new[:, 0] * (_LATTICE + 1) + new[:, 1]) * (_LATTICE + 1) + new[:, 2]
        order = np.lexsort((key, cells))
        start = _starts(key[order]) | _starts(cells[order])
        head = order[start]
        group = np.empty(len(idx), dtype=np.intp)
        group[order] = np.cumsum(start) - 1
        row = np.arange(len(modes))
        row[idx] = idx[head][group]
        keep = np.flatnonzero(row == np.arange(len(modes)))
        owner = np.searchsorted(keep, row)[owner]
        modes, active, cell = modes[keep], active[keep], cell[keep]
    return _assign(modes, cell, owner, half2, offsets)


def _assign(modes, cell, owner, half2, offsets):
    """Per cell, its clusters largest first (ties to the first sample): each
    row goes to its cell's nearest center of the walk (the first of equal
    squared distance), each sample to its row's (`owner`)."""
    heads = np.flatnonzero(_merge_modes(modes, cell, half2))
    # row r against its cell's centers heads[lo[r]:lo[r] + n[r]]
    lo = np.searchsorted(cell[heads], cell)
    n = np.searchsorted(cell[heads], cell, "right") - lo
    ends = np.cumsum(n)
    rep = np.repeat(np.arange(len(modes)), n)
    centre = heads[np.arange(ends[-1]) + np.repeat(lo - (ends - n), n)]
    d2 = _sq_norms(modes[rep] - modes[centre])
    hit = np.flatnonzero(d2 == np.minimum.reduceat(d2, ends - n)[rep])
    label = centre[hit[_starts(rep[hit])]][owner]
    # samples grouped by center, in sample order within each
    order = np.argsort(label, kind="stable")
    start = np.flatnonzero(_starts(label[order]))
    size = np.diff(start, append=len(order))
    sample_cell = np.repeat(np.arange(len(half2)), np.diff(offsets))
    first_sample = order[start]
    gcell = sample_cell[first_sample]
    clusters = np.split(order - offsets[sample_cell[order]], start[1:])
    rank = np.lexsort((first_sample, -size, gcell)).tolist()
    at = np.cumsum(np.bincount(gcell, minlength=len(half2))).tolist()
    return [[clusters[i] for i in rank[a:b]] for a, b in zip([0] + at, at)]


def fit_gaussian(samples, members=None) -> GaussianCluster:
    """Mean + regularized population covariance of the samples."""
    samples = np.asarray(samples, dtype=float).reshape(-1, 3)
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / len(samples)
    tr = np.trace(cov)
    if tr <= 0:
        cov = cov + 1e-12 * np.eye(3)
    else:
        cov = cov + COV_REG_EPS * (tr / 3.0) * np.eye(3)
    if members is None:
        members = np.zeros(0, dtype=int)
    return GaussianCluster(mean, cov, np.asarray(members, dtype=int))


# the entries of a symmetric 3x3 matrix kept as a row: xx, xy, xz, yy, yz, zz
_ROW, _COL = [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]
_DIAG = [0, 3, 5]


def _cholesky_solve3(a, d, sqrt=np.sqrt):
    """(l, z): the entries of the lower Cholesky factor L of the symmetric
    3x3 matrix A given by its six `_ROW`, `_COL` entries `a`, in that order,
    and z = L^-1 d, so that d^T A^-1 d = |z|^2. Entries are Python floats or
    arrays of any shape; each step is one IEEE-rounded operation, so every
    form gives the same bits. `sqrt` takes the pivots: np.sqrt gives NaN
    where A is not SPD, `_pivot_sqrt` raises."""
    a11, a21, a31, a22, a32, a33 = a
    l11 = sqrt(a11)
    l21, l31 = a21 / l11, a31 / l11
    l22 = sqrt(a22 - l21 * l21)
    l32 = (a32 - l31 * l21) / l22
    l33 = sqrt(a33 - l31 * l31 - l32 * l32)
    z1 = d[0] / l11
    z2 = (d[1] - l21 * z1) / l22
    z3 = (d[2] - l31 * z1 - l32 * z2) / l33
    return (l11, l21, l31, l22, l32, l33), (z1, z2, z3)


def _pivot_sqrt(x: float) -> float:
    if not x > 0:
        raise np.linalg.LinAlgError("covariance is not positive definite")
    return math.sqrt(x)


def _whiten(covariance, d):
    """z = L^-1 d by `_cholesky_solve3`, L factored in Python floats from the
    lower triangle of `covariance`; np.linalg.LinAlgError unless it is SPD."""
    (a11, _, _), (a21, a22, _), (a31, a32, a33) = np.asarray(
        covariance, dtype=float).tolist()
    return _cholesky_solve3((a11, a21, a31, a22, a32, a33), d, _pivot_sqrt)[1]


def mahalanobis_many(xs, mean, covariance) -> np.ndarray:
    """sqrt((x-mu)^T S^-1 (x-mu)) per row of xs, as |L^-1 (x-mu)|;
    np.linalg.LinAlgError unless the covariance is SPD."""
    diff = np.asarray(xs, dtype=float).reshape(-1, 3) - np.asarray(mean, dtype=float)
    z1, z2, z3 = _whiten(covariance, diff.T)
    return np.sqrt(z1 * z1 + z2 * z2 + z3 * z3)


def separability_score(g1: GaussianCluster, g2: GaussianCluster) -> float:
    """Sum of cross Mahalanobis distances between the two Gaussians' means,
    in Python floats: bit for bit the two one-row `mahalanobis_many`
    distances summed (negating the difference of the means negates z)."""
    d = (g2.mean - g1.mean).tolist()
    total = 0.0
    for g in (g1, g2):
        z1, z2, z3 = _whiten(g.covariance, d)
        total += math.sqrt(z1 * z1 + z2 * z2 + z3 * z3)
    return total


def assign_3sigma_many(samples, g1: GaussianCluster, g2: GaussianCluster):
    """3-sigma gate per sample: 1 (2) when it is inside g1's (g2's) 3-sigma
    ellipsoid and outside the other's (strict), else 0, ambiguous."""
    md1 = mahalanobis_many(samples, g1.mean, g1.covariance)
    md2 = mahalanobis_many(samples, g2.mean, g2.covariance)
    out = np.zeros(len(md1), dtype=int)
    out[(md1 < SIGMA_GATE) & (md2 > SIGMA_GATE)] = 1
    out[(md1 > SIGMA_GATE) & (md2 < SIGMA_GATE)] = 2
    return out


def _bandwidths(table: GlobalCellTable) -> np.ndarray:
    """Per candidate cell, the largest of its bandwidth (half the root of its
    summed per-channel population variances; `default_bandwidth` in
    tests/oracles.py is the one-cell reference), 1e-6 times its mean sample
    norm and 1e-12, a block of cells at a time. A `bincount` sums in sample
    order, as `np.var` does; `np.mean` does not, so it runs only for a cell
    whose floor may win."""
    out = []
    for k, stop in _cell_blocks(table.offsets):
        pts = table.samples[table.offsets[k]:table.offsets[stop]]
        sizes = np.diff(table.offsets[k:stop + 1])
        cell = np.repeat(np.arange(len(sizes)), sizes)

        def cell_means(values):
            return np.bincount(cell, values, minlength=len(sizes)) / sizes

        x = pts.T - np.stack([cell_means(c) for c in pts.T])[:, cell]
        var = np.stack([cell_means(c * c) for c in x], axis=1)
        bw = 0.5 * np.sqrt(var.sum(axis=1))
        floor = 1e-6 * cell_means(np.sqrt(_sq_norms(pts)))
        for j in np.flatnonzero(floor * (1 + 1e-9) >= bw).tolist():
            floor[j] = 1e-6 * float(np.linalg.norm(table.cell(k + j)[1], axis=1).mean())
        out.append(np.maximum(np.maximum(bw, floor), 1e-12))
    return np.concatenate(out) if out else np.zeros(0)


def initial_clusters(table: GlobalCellTable) -> dict:
    """Candidate cell index k (into `table.flats`) -> surviving Gaussian
    clusters, largest first; clusters below 5% of the cell or below
    MIN_CLUSTER_SIZE are discarded. One `meanshift` call clusters every
    candidate cell, each at its own bandwidth."""
    out = {}
    per_cell = meanshift(table.samples, _bandwidths(table), table.offsets)
    for k, clusters in enumerate(per_cell):
        vids, vals = table.cell(k)
        keep = [fit_gaussian(vals[c], vids[c]) for c in clusters
                if len(c) >= MIN_CLUSTER_SIZE
                and len(c) >= DISCARD_FRACTION * len(vids)]
        if keep:
            out[k] = keep
    return out


def _ids(mask) -> set:
    return set(np.flatnonzero(mask).tolist())


def _seed(table: GlobalCellTable, k: int, g1, g2, assignable):
    """Masks of the two groups seeded in candidate cell k: the samples the
    3-sigma gate of (g1, g2) gives to each, the first group's only where
    `assignable`."""
    vids, vals = table.cell(k)
    codes = assign_3sigma_many(vals, g1, g2)
    mat1_mask = np.zeros(table.mask_size, dtype=bool)
    mat2_mask = np.zeros(table.mask_size, dtype=bool)
    mat1_mask[vids[(codes == 1) & assignable[vids]]] = True
    mat2_mask[vids[codes == 2]] = True
    return mat1_mask, mat2_mask


class _Group:
    """A growing group: its vertex mask and, per candidate cell, the count
    and the moments of its members' samples taken about the cell's mean
    sample: their sum (columns 0-2) and the sum of their outer products
    (columns 3-8, in `_ROW`, `_COL` order). `add` updates them from the
    table rows of the added vertices alone."""

    def __init__(self, table: GlobalCellTable, mask):
        self.table, self.mask = table, mask
        self.count = np.zeros(len(table.flats), dtype=np.intp)
        self.moments = np.zeros((len(table.flats), 9))
        self._add_rows(np.flatnonzero(mask[table.vids]))

    def add(self, ids):
        """Add the vertices `ids`, none of which the group holds yet."""
        self.mask[ids] = True
        self._add_rows(self.table.rows_of(ids))

    def _add_rows(self, rows):
        cell = np.searchsorted(self.table.offsets, rows, side="right") - 1
        x = (self.table.samples[rows] - self.table.centres[cell]).T
        k = len(self.count)
        self.count += np.bincount(cell, minlength=k)
        # one bincount per moment column, over the rows in order
        for j, term in enumerate(chain(x, (x[a] * x[b] for a, b in zip(_ROW, _COL)))):
            self.moments[:, j] += np.bincount(cell, term, minlength=k)


def _moment_scores(grp1: _Group, grp2: _Group, ks):
    """Per candidate cell of `ks`: the separability score of the two groups'
    regularized Gaussians as their moments give them, and a bound on its
    distance from `separability_score` of the `fit_gaussian`s of the same
    samples; score 0 and bound inf where the moments certify none.

    Both compute s = sqrt(q_A) + sqrt(q_B), q_A = d^T A^-1 d (d the
    difference of the means, A and B the regularized covariances), with
    rounding. Errors dd in d and dA in A move q_A by 2 dd.y - y^T dA y
    (y = A^-1 d) to first order, and sqrt(q_A) by at most that over
    sqrt(q_A), or by its square root. With N members, T the trace of their
    mean outer product about the cell's mean sample and M the cell's largest
    sample norm (u = 2^-53), the errors of the two paths add up to at most:
    - (4N + 20) u T + 3 (N u M)^2 in the covariance, in 2-norm: the rounding
      of each sum of outer products, by Cauchy-Schwarz; T carries the
      moments' cancellation;
    - that, 2u times the regularization and 24u trace(A) in A: each
      Cholesky solve is exact for an A off by ~10u trace(A);
    - (2N + 6) u (sqrt(3) M + sqrt(T)) in each mean.
    A cell is certified only where four times the error in A is below the
    regularization eps trace/3, a floor under A's eigenvalues: then the
    second-order terms stay within a third of the first-order ones, and both
    paths take the regularized branch, not the tr <= 0 one. The bound is
    twice the first-order one, with |y| widened by the second-order terms.
    Both groups are computed at once, along a first axis of two."""
    u = 2.0 ** -53
    mag = grp1.table.magnitudes[ks]
    n = np.stack([grp1.count[ks], grp2.count[ks]]).astype(float)
    moments = np.stack([grp1.moments[ks], grp2.moments[ks]]) / n[..., None]
    mean, second = moments[..., :3], moments[..., 3:]  # about the cell's mean
    cov = second - mean[..., _ROW] * mean[..., _COL]
    rho = COV_REG_EPS * (cov[..., _DIAG].sum(-1) / 3.0)
    cov[..., _DIAG] += rho[..., None]
    spread = second[..., _DIAG].sum(-1)
    err_reg = ((1 + COV_REG_EPS) * (u * (4 * n + 20) * spread
                                    + 3 * (n * u * mag) ** 2)
               + 2 * u * rho + 24 * u * cov[..., _DIAG].sum(-1))
    err_mean = u * (2 * n + 6) * (np.sqrt(3) * mag + np.sqrt(spread))
    d = mean[1] - mean[0]
    d_norm = np.sqrt((d * d).sum(-1))
    err_d = err_mean.sum(0) + 2 * u * d_norm
    with np.errstate(invalid="ignore", divide="ignore"):
        (l11, l21, l31, l22, l32, l33), (z1, z2, z3) = _cholesky_solve3(
            np.moveaxis(cov, -1, 0), np.moveaxis(d, -1, 0))
        q = z1 * z1 + z2 * z2 + z3 * z3
        # y = A^-1 d = L^-T z
        y3 = z3 / l33
        y2 = (z2 - l32 * y3) / l22
        y1 = (z1 - l21 * y2 - l31 * y3) / l11
        reach = 4 / 3 * np.sqrt(y1 * y1 + y2 * y2 + y3 * y3) + 2 * err_d / rho
        dq = 2 * (2 * err_d * reach + 4 / 3 * err_reg * reach ** 2
                  + 2 * err_d ** 2 / rho + 8 * u * d_norm * reach + 3 * u * q)
        root = np.sqrt(q)
        score = root.sum(0)
        bound = ((np.minimum(dq / root, np.sqrt(dq)) + 4 * u * root).sum(0)
                 + 2 * u * score)
    sure = ((4 * err_reg < rho).all(0) & np.isfinite(score)
            & np.isfinite(bound))
    return np.where(sure, score, 0.0), np.where(sure, bound, np.inf)


def _propagate_two(table, consumed, grp1: _Group, grp2: _Group, assignable,
                   require_half2):
    """Grow two groups cell by cell: repeatedly pick the unconsumed cell with
    the highest propagation score and gate its still-unassigned, assignable
    vertices by the 3-sigma rule. A cell scores only when it holds at least
    half of the first group and MIN_FIT_SAMPLES of each (and, with
    require_half2, half of the second); its score is the separability of
    Gaussians refitted to the in-cell members of each group, and the first
    cell of the highest score wins.

    Every qualifying cell is scored at once from the groups' per-cell
    moments (`_moment_scores`). Only a cell whose moment score is within its
    bound of the best certified lower bound can win, so only those are
    refitted by `fit_gaussian` and scored by `separability_score`, in
    ascending order, to pick the winner and give the gate its Gaussians.
    Groups, their moments and `consumed` (one flag per candidate cell) are
    updated in place; returns cells consumed."""
    grown = 0
    for _ in range(N_CELLS):
        n1 = int(grp1.mask.sum())
        n2 = int(grp2.mask.sum())
        if n1 == 0 or n2 == 0:
            break
        c1, c2 = grp1.count, grp2.count
        ok = (~consumed & (2 * c1 >= n1) & (c1 >= MIN_FIT_SAMPLES)
              & (c2 >= MIN_FIT_SAMPLES))
        if require_half2:
            ok &= 2 * c2 >= n2
        ks = np.flatnonzero(ok)
        score, bound = _moment_scores(grp1, grp2, ks)
        floor = np.max(score - bound, initial=-np.inf)
        best, best_score = None, 0.0
        for k in ks[score + bound >= floor].tolist():
            cv, cs = table.cell(k)
            in1, in2 = grp1.mask[cv], grp2.mask[cv]
            g1 = fit_gaussian(cs[in1], cv[in1])
            g2 = fit_gaussian(cs[in2], cv[in2])
            exact = separability_score(g1, g2)
            if exact > best_score:
                best, best_score, pair = k, exact, (g1, g2)
        if best is None:
            break
        cv, cs = table.cell(best)
        fresh = ~(grp1.mask[cv] | grp2.mask[cv]) & assignable[cv]
        if fresh.any():
            codes = assign_3sigma_many(cs[fresh], *pair)
            grp1.add(cv[fresh][codes == 1])
            grp2.add(cv[fresh][codes == 2])
        consumed[best] = True
        grown += 1
    return grown


def two_material_segmentation(table: GlobalCellTable):
    """Seed two material groups in the most separable cell and grow them cell
    by cell. Returns (MaterialGroups, diagnostics dict)."""
    clusters = initial_clusters(table)
    diagnostics = {"seed_cell": None, "cells_consumed": 0,
                   "initial_cells": len(clusters)}

    # a seed cluster must be a population-significant chunk of the scan, not
    # just of its own cell, so that a tiny tight contaminant cluster cannot
    # win the seed by its arbitrarily small covariance
    seed_floor = max(MIN_CLUSTER_SIZE,
                     int(DISCARD_FRACTION * len(table.sampled_ids)))
    best_cell, best_score, best_pair = None, 0.0, None
    for k in sorted(clusters):
        cl = clusters[k]
        if len(cl) < 2:
            continue
        g1, g2 = cl[:2]
        if len(g1.members) < seed_floor or len(g2.members) < seed_floor:
            continue
        score = separability_score(g1, g2)
        if score > best_score:
            best_cell, best_score, best_pair = k, score, (g1, g2)
    sampled = set(table.sampled_ids.tolist())
    if best_cell is None:
        diagnostics["reason"] = "no separable initial cell"
        return MaterialGroups([], sampled), diagnostics
    diagnostics["seed_cell"] = divmod(int(table.flats[best_cell]), N_D)

    everything = np.ones(table.mask_size, dtype=bool)
    grp1, grp2 = (_Group(table, m)
                  for m in _seed(table, best_cell, *best_pair, everything))
    diagnostics["cells_consumed"] = _propagate_two(
        table, np.arange(len(table.flats)) == best_cell, grp1, grp2,
        assignable=everything, require_half2=True)

    mat1, mat2 = _ids(grp1.mask), _ids(grp2.mask)
    groups = [g for g in (mat1, mat2) if g]
    return MaterialGroups(groups, sampled - mat1 - mat2), diagnostics


def _absorb_single(table, consumed, grp: _Group, blocked):
    """Grow a group through cells that have no reference population to fit a
    second Gaussian (cells dominated by one material). Any unconsumed cell
    holding at least half of the group gates its remaining unblocked vertices
    against the group's own in-cell Gaussian; samples beyond the 3-sigma
    distance stay out, so ambiguous vertices remain unclassified. The cell
    holding the most group members goes first; the counts are the group's
    per-cell moment counts."""
    while True:
        c1 = np.where(consumed | (grp.count < MIN_FIT_SAMPLES)
                      | (2 * grp.count < int(grp.mask.sum())), 0, grp.count)
        if not c1.any():
            return
        k = int(np.argmax(c1))
        cv, cs = table.cell(k)
        in1 = grp.mask[cv]
        g1 = fit_gaussian(cs[in1], cv[in1])
        fresh = ~in1 & ~blocked[cv]
        if fresh.any():
            md = mahalanobis_many(cs[fresh], g1.mean, g1.covariance)
            grp.add(cv[fresh][md < SIGMA_GATE])
        consumed[k] = True


def multi_material_segmentation(table: GlobalCellTable):
    """Segment one material per round without a user-supplied material count.

    Each round seeds from the globally most separable untried cluster that
    still holds enough unclassified vertices (its separability is the score
    against its nearest same-cell competitor), then runs the same two-group
    propagation as the two-material case with the competitor cluster as the
    reference group. Only the seeded group is committed; the reference side
    is rediscovered in its own round. Rounds continue until no untried
    cluster qualifies as a seed."""
    sampled = set(table.sampled_ids.tolist())
    if len(table) == 0:
        return MaterialGroups([], sampled), {"rounds": 0}
    clusters = initial_clusters(table)
    # every cluster of a cell with two or more, in (cell, cluster) order,
    # with its nearest competitor (the first of least separability) and that
    # separability, which no round changes
    seeds = []
    for k in sorted(clusters):
        cl = clusters[k]
        for ci, g in enumerate(cl):
            others = cl[:ci] + cl[ci + 1:]
            if others:
                scores = [separability_score(g, o) for o in others]
                j = min(range(len(others)), key=scores.__getitem__)
                seeds.append((scores[j], k, g, others[j]))
    classified = np.zeros(table.mask_size, dtype=bool)
    groups: list[set] = []
    diagnostics = {"rounds": 0, "seeds": []}

    while True:
        # as in the two-material seed, a cluster must hold a
        # population-significant share of the still-unclassified vertices
        # to start a round
        n_open = int((~classified[table.sampled_ids]).sum())
        seed_floor = max(MIN_CLUSTER_SIZE, int(DISCARD_FRACTION * n_open))
        best, best_score = None, 0.0
        for i, (score, _, g, _) in enumerate(seeds):
            un = int((~classified[g.members]).sum())
            if un >= seed_floor and 2 * un >= len(g.members) and score > best_score:
                best, best_score = i, score
        if best is None:
            break
        _, k, seed_cluster, competitor = seeds.pop(best)

        new_mask, ref_mask = _seed(table, k, seed_cluster, competitor, ~classified)
        if new_mask.sum() < MIN_CLUSTER_SIZE:
            continue

        consumed = np.arange(len(table.flats)) == k
        new, ref = _Group(table, new_mask), _Group(table, ref_mask)
        _propagate_two(table, consumed, new, ref, assignable=~classified,
                       require_half2=False)
        _absorb_single(table, consumed, new, classified | ref_mask)

        new_mask &= ~classified
        if new_mask.sum() < MIN_CLUSTER_SIZE:
            continue
        groups.append(_ids(new_mask))
        classified |= new_mask
        diagnostics["rounds"] += 1
        diagnostics["seeds"].append(divmod(int(table.flats[k]), N_D))

    groups.sort(key=len, reverse=True)
    return MaterialGroups(groups, sampled - _ids(classified)), diagnostics


def diffuse_labels(groups: MaterialGroups, positions: np.ndarray,
                   sampled_ids, radius: float = 0.01) -> np.ndarray:
    """Label every vertex: sampled classified vertices keep their group,
    other vertices take the label of the nearest classified sampled vertex
    within `radius` (ties broken toward the lower vertex id), else -1; all
    targets at once, as arrays."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    labels = np.full(len(positions), -1, dtype=int)
    for gi, g in enumerate(groups.groups):
        labels[np.fromiter(g, dtype=int, count=len(g))] = gi
    classified_ids = np.nonzero(labels >= 0)[0]
    target = labels < 0
    target[np.asarray(sampled_ids, dtype=int)] = False
    targets = np.nonzero(target)[0]
    if len(classified_ids) == 0 or len(targets) == 0:
        return labels
    # imported only when a vertex needs it: loading scipy.spatial adds
    # 0.4-0.5 s of import and ~38 MB of peak RSS to a process, and with a
    # sample budget of at least the vertex count no vertex does
    from scipy.spatial import cKDTree
    k = min(2, len(classified_ids))
    dist, idx = cKDTree(positions[classified_ids]).query(positions[targets], k=k)
    dist, pick = dist.reshape(-1, k), classified_ids[idx.reshape(-1, k)]
    # with k = 1 every row ties with itself and keeps its one neighbour
    tie = np.abs(dist[:, -1] - dist[:, 0]) < 1e-12
    pick = np.where(tie, pick.min(axis=1), pick[:, 0])
    near = dist[:, 0] <= radius
    labels[targets[near]] = labels[pick[near]]
    return labels
