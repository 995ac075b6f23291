"""Meanshift, Gaussian statistics, the 3-sigma gate, group propagation and
label diffusion."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from matscan import segmentation
from matscan.brdf_table import N_CELLS, N_D
from matscan.segmentation import (MIN_CELL_SAMPLES, MIN_FIT_SAMPLES, SIGMA_GATE,
                                  GlobalCellTable, MaterialGroups,
                                  assign_3sigma_many, build_global_table,
                                  diffuse_labels, fit_gaussian, initial_clusters,
                                  mahalanobis_many, meanshift,
                                  multi_material_segmentation, separability_score,
                                  two_material_segmentation)
from oracles import default_bandwidth


def reference_meanshift(samples, bandwidth: float, max_iter: int = 100):
    """Per-sample flat-kernel meanshift: every sample is iterated on its own
    row, and modes are merged in a walk over all samples. The oracle for
    `meanshift`, which iterates samples sharing a mode once."""
    pts = np.asarray(samples, dtype=float).reshape(-1, 3)
    n = len(pts)
    if n == 0:
        return []
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    modes = pts.copy()
    tol = 1e-4 * bandwidth
    bw2 = bandwidth * bandwidth
    active = np.ones(n, dtype=bool)
    chunk = max(1, int(4_000_000 // max(n, 1)))
    p0, p1, p2 = pts.T
    pts_sq = p0 * p0 + p1 * p1 + p2 * p2
    for _ in range(max_iter):
        idx = np.nonzero(active)[0]
        if len(idx) == 0:
            break
        for lo in range(0, len(idx), chunk):
            sel = idx[lo:lo + chunk]
            m = modes[sel]
            # every term elementwise, so a tie goes one way for a mode
            # wherever it sits (a gemm may sum m.p by the row's position)
            m0, m1, m2 = (c[:, None] for c in m.T)
            d2 = ((m0 * m0 + m1 * m1 + m2 * m2) + pts_sq[None, :]
                  - 2.0 * (m0 * p0 + m1 * p1 + m2 * p2))
            within = d2 <= bw2
            new = (within @ pts) / within.sum(1)[:, None]
            shift2 = ((new - m) ** 2).sum(-1)
            modes[sel] = new
            active[sel] = shift2 >= tol * tol

    centers = []
    for i in range(n):
        m = modes[i]
        if not any(np.linalg.norm(m - c) < bandwidth / 2 for c in centers):
            centers.append(m.copy())
    centers = np.array(centers)
    d2c = ((modes[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    assign = np.argmin(d2c, axis=1)
    clusters = [np.nonzero(assign == k)[0] for k in range(len(centers))]
    clusters = [c for c in clusters if len(c) > 0]
    clusters.sort(key=lambda c: (-len(c), int(c[0])))
    return clusters


def one_cell(pts, bandwidth):
    """`meanshift` of one cell of all of `pts`."""
    return meanshift(pts, [bandwidth], [0, len(pts)])[0]


def reference_meanshift_cells(samples, bandwidths, offsets):
    """`reference_meanshift` of each cell of a column set on its own."""
    return [reference_meanshift(samples[lo:hi], bw)
            for lo, hi, bw in zip(offsets[:-1], offsets[1:], bandwidths)]


def reference_propagate_two(table, consumed, grp1, grp2, assignable,
                            require_half2):
    """`_propagate_two` that counts and refits every unconsumed candidate
    cell at every step, one cell at a time, from the table's cells and the
    groups' masks alone."""
    mat1_mask, mat2_mask = grp1.mask, grp2.mask
    grown = 0
    for _ in range(N_CELLS):
        n1 = int(mat1_mask.sum())
        n2 = int(mat2_mask.sum())
        if n1 == 0 or n2 == 0:
            break
        best = (0.0, None, None, None)
        for k in range(len(table.flats)):
            if consumed[k]:
                continue
            cv, cs = table.cell(k)
            in1, in2 = mat1_mask[cv], mat2_mask[cv]
            c1, c2 = int(in1.sum()), int(in2.sum())
            if 2 * c1 < n1 or c1 < MIN_FIT_SAMPLES or c2 < MIN_FIT_SAMPLES:
                continue
            if require_half2 and 2 * c2 < n2:
                continue
            g1 = fit_gaussian(cs[in1], cv[in1])
            g2 = fit_gaussian(cs[in2], cv[in2])
            score = separability_score(g1, g2)
            if score > best[0]:
                best = (score, k, g1, g2)
        if best[1] is None:
            break
        _, k, g1, g2 = best
        cv, cs = table.cell(k)
        fresh = ~(mat1_mask[cv] | mat2_mask[cv]) & assignable[cv]
        if fresh.any():
            codes = assign_3sigma_many(cs[fresh], g1, g2)
            mat1_mask[cv[fresh][codes == 1]] = True
            mat2_mask[cv[fresh][codes == 2]] = True
        consumed[k] = True
        grown += 1
    return grown


def reference_absorb_single(table, consumed, grp, blocked,
                            min_fit=MIN_FIT_SAMPLES):
    """`_absorb_single` that counts every unconsumed candidate cell at every
    step, one cell at a time, from the table's cells and the group's mask
    alone."""
    new_mask = grp.mask
    while True:
        n1 = int(new_mask.sum())
        best = (0, None)
        for k in range(len(table.flats)):
            if consumed[k]:
                continue
            c1 = int(new_mask[table.cell(k)[0]].sum())
            if c1 < min_fit or 2 * c1 < n1:
                continue
            if c1 > best[0]:
                best = (c1, k)
        if best[1] is None:
            return
        k = best[1]
        cv, cs = table.cell(k)
        in1 = new_mask[cv]
        g1 = fit_gaussian(cs[in1], cv[in1])
        fresh = ~in1 & ~blocked[cv]
        if fresh.any():
            md = mahalanobis_many(cs[fresh], g1.mean, g1.covariance)
            new_mask[cv[fresh][md < SIGMA_GATE]] = True
        consumed[k] = True


def reference_groups(segment, table):
    """`segment(table)` run on the reference twins."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segmentation, "meanshift", reference_meanshift_cells)
        mp.setattr(segmentation, "_propagate_two", reference_propagate_two)
        mp.setattr(segmentation, "_absorb_single", reference_absorb_single)
        return segment(table)


def assert_same_clusters(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


def two_blobs(rng, n=200, spread=0.01, gap=1.0):
    a = rng.normal([0, 0, 0], spread, (n, 3))
    b = rng.normal([gap, 0, 0], spread, (n, 3))
    return np.vstack([a, b])


class TestBandwidth:
    def test_matches_population_variance_formula(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(500, 3))
        expected = 0.5 * np.sqrt(np.var(s, axis=0, ddof=0).sum())
        assert default_bandwidth(s) == pytest.approx(expected, rel=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            default_bandwidth(np.zeros((1, 3)))


class TestMeanshift:
    def test_two_well_separated_blobs(self):
        rng = np.random.default_rng(1)
        pts = two_blobs(rng)
        clusters = one_cell(pts, 0.3)
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [200, 200]
        # each cluster is one blob
        first = clusters[0]
        assert len(set(first < 200)) == 1 or np.all(first < 200) or np.all(first >= 200)

    def test_single_blob_single_cluster(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(0, 0.01, (300, 3))
        clusters = one_cell(pts, 0.5)
        assert len(clusters) == 1
        assert len(clusters[0]) == 300

    def test_every_sample_assigned_once(self):
        rng = np.random.default_rng(3)
        pts = two_blobs(rng, n=120)
        clusters = one_cell(pts, 0.3)
        all_idx = np.sort(np.concatenate(clusters))
        np.testing.assert_array_equal(all_idx, np.arange(len(pts)))

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            meanshift(np.zeros((5, 3)), [0.0], [0, 5])

    @pytest.mark.parametrize("pts, bw", [
        ([[0.2, 0.3, 0.4]], 0.1),
        ([[0.0, 0, 0], [0.5, 0, 0]], 0.5),        # bandwidth == their distance
        ([[0.0, 0, 0], [0.5, 0, 0]], 0.49),
        ([[0.0, 0, 0], [0.0, 0, 0]], 0.1),         # exact duplicates
        ([[0.0, 0, 0], [0.25, 0, 0], [0.5, 0, 0]], 0.25),
        ([[0.0, 0, 0], [0.3, 0, 0], [1.0, 0, 0]], 0.3),
        ([[0.1, 0.1, 0.1]] * 3, 1.0),
    ])
    def test_small_inputs_match_reference(self, pts, bw):
        assert_same_clusters(one_cell(pts, bw), reference_meanshift(pts, bw))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(1, 4),
           st.sampled_from([0.0, 0.01, 0.1]), st.booleans(), st.booleans(),
           st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_sample_reference(self, seed, n, k, spread, duplicate,
                                          pairwise_bw, bw):
        """Blobs, optionally resampled with repeats (exact duplicates), with
        either a free bandwidth or one equal to a pairwise sample distance."""
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0, 1, (k, 3))
        pts = centers[rng.integers(0, k, n)] + rng.normal(0, spread, (n, 3))
        if duplicate:
            pts = pts[rng.integers(0, n, n)]
        if pairwise_bw and n >= 2:
            i, j = rng.choice(n, 2, replace=False)
            bw = float(np.linalg.norm(pts[i] - pts[j])) or bw
        assert_same_clusters(one_cell(pts, bw), reference_meanshift(pts, bw))

    def test_stopped_and_moving_samples_on_one_mode(self):
        # samples 0 and 1 share every neighbour, so both move to the same
        # mode x, ~5e-5 right of sample 0: sample 0 stops there, sample 1
        # (0.05 away) keeps moving. The points at -1 drop out of x's window,
        # so sample 1 runs on to the positive points and a cluster apart
        xs = [0.0, -0.05] + [-1.0] * 10 + [0.94] * 10 + [0.65115]
        pts = np.zeros((len(xs), 3))
        pts[:, 0] = xs
        clusters = one_cell(pts, 1.0)
        assert_same_clusters(clusters, reference_meanshift(pts, 1.0))
        assert [0] in [c.tolist() for c in clusters]

    def test_scan_cells_match_reference(self, noisy_two_sphere):
        for vids, vals in noisy_two_sphere["cells"].values():
            if len(vids) < 2:
                continue
            bw = default_bandwidth(vals)
            assert_same_clusters(one_cell(vals, bw),
                                 reference_meanshift(vals, bw))

    def test_largest_cluster_first(self):
        rng = np.random.default_rng(4)
        a = rng.normal([0, 0, 0], 0.01, (50, 3))
        b = rng.normal([2, 0, 0], 0.01, (150, 3))
        clusters = one_cell(np.vstack([a, b]), 0.3)
        assert len(clusters[0]) >= len(clusters[-1])


class _Fallback(Exception):
    pass


def _no_fallback(*args):
    raise _Fallback


def _band(modes, pts):
    """The rounding band of squared distances between modes and samples."""
    return 64 * 2.0**-53 * (np.einsum("ij,ij->i", modes, modes).max()
                            + np.einsum("ij,ij->i", pts, pts).max())


class _RowCount:
    """Counts, over meanshift steps, the moving modes and the neighbour rows
    built for them."""

    def __init__(self, monkeypatch):
        self.modes = self.built = 0
        kernel = segmentation._FlatKernel
        rows, mask = kernel.rows, kernel.mask

        def counted_rows(kernel_self, modes):
            self.modes += len(modes)
            return rows(kernel_self, modes)

        def counted_mask(kernel_self, modes, *args):
            self.built += len(modes)
            return mask(kernel_self, modes, *args)

        monkeypatch.setattr(kernel, "rows", counted_rows)
        monkeypatch.setattr(kernel, "mask", counted_mask)


def _fallback_spy():
    """Patches `_exact_neighbours` with a mock that records its calls and
    returns what it returns."""
    return mock.patch.object(segmentation, "_exact_neighbours",
                             wraps=segmentation._exact_neighbours)


class TestBlockedNeighbours:
    """`_FlatKernel.mask` builds masks in L2-sized blocks, and a step falls
    back to the full distance expression when a value is in the rounding
    band of bw^2."""

    def test_constructed_tie_takes_fallback(self, monkeypatch):
        # coordinates on a 0.25 grid make every squared distance exact, so
        # the bandwidth 0.25 ties with the distance of neighbouring points
        rng = np.random.default_rng(20)
        pts = rng.integers(0, 8, (150, 3)) * 0.25
        calls = []
        exact = segmentation._exact_neighbours
        monkeypatch.setattr(segmentation, "_exact_neighbours",
                            lambda *a: calls.append(1) or exact(*a))
        assert_same_clusters(one_cell(pts, 0.25), reference_meanshift(pts, 0.25))
        assert calls

    def test_scan_cells_on_blocked_path_alone(self, noisy_two_sphere,
                                              monkeypatch):
        monkeypatch.setattr(segmentation, "_exact_neighbours", _no_fallback)
        count = _RowCount(monkeypatch)
        sizes = []
        for vids, vals in noisy_two_sphere["cells"].values():
            if len(vids) < 2:
                continue
            bw = default_bandwidth(vals)
            assert_same_clusters(one_cell(vals, bw),
                                 reference_meanshift(vals, bw))
            sizes.append(len(vids))
        # cells large enough to take several blocks per step, whose steps
        # build rows for fewer modes than move
        assert max(sizes) > 2 * segmentation._BLOCK ** 0.5
        assert 0 < count.built < count.modes

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 300),
           st.sampled_from([1e-3, 1.0, 1e3]), st.floats(0.0, 1.0),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_blocked_mask_equals_full_mask_outside_band(
            self, seed, n_modes, n_pts, scale, q, pairwise):
        """Several blocks per call when n_modes * n_pts > `_BLOCK`; with
        `pairwise` the bandwidth is a sample distance, which mostly ties."""
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, scale, (n_pts, 3))
        # the samples themselves, as at the first step, then other points
        modes = np.vstack([pts, rng.normal(0, scale, (n_modes, 3))])[:n_modes]
        diff2 = ((modes[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        bw2 = float(diff2.flat[rng.integers(diff2.size)] if pairwise
                    else np.quantile(diff2, q)) or scale
        within = np.empty((n_modes, n_pts), dtype=bool)
        kernel = segmentation._FlatKernel(pts, bw2, segmentation._buffers(len(pts)))
        if not kernel.mask(modes, within):
            # only a value near bw2 may send the step to the fallback
            assert np.abs(diff2 - bw2).min() <= 2 * _band(modes, pts)
            return
        np.testing.assert_array_equal(
            within, segmentation._exact_neighbours(modes, pts, bw2))
        np.testing.assert_array_equal(within, diff2 <= bw2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("duplicate", [False, True])
    @pytest.mark.parametrize("bw", [0.05, 2.0])
    def test_tiny_and_duplicate_inputs_match_reference(self, n, duplicate, bw):
        pts = np.random.default_rng(n).uniform(0, 1, (n, 3))
        if duplicate:
            pts = pts[[0] * n]
        assert_same_clusters(one_cell(pts, bw), reference_meanshift(pts, bw))


class TestSharedRows:
    """Steps with more than one buffer of entries build rows for leader modes
    and for the modes no leader's certified margin covers; the others take
    their leader's neighbour set."""

    @given(st.integers(0, 2**32 - 1), st.integers(182, 400), st.integers(1, 4),
           st.sampled_from([1e-3, 1.0, 1e3]), st.sampled_from([0.0, 0.01, 0.1]),
           st.booleans(), st.booleans(), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    # 129 identical rows whose products with the samples, by OpenBLAS's
    # SkylakeX dgemm, came in 3 distinct bit patterns: a tie the full
    # expression took by the row's position gave clusters 250/127/3, not
    # the reference's 248/127/5
    @example(seed=4294967295, n=380, k=3, scale=1e-3, spread=0.0,
             duplicate=True, pairwise_bw=True, bw=1.0)
    def test_shared_sets_equal_full_mask(self, seed, n, k, scale, spread,
                                         duplicate, pairwise_bw, bw):
        """Blobs at three scales, optionally resampled with repeats (exact
        duplicates), with a free bandwidth or one equal to a pairwise sample
        distance; the modes are the samples, as at the first step, and then
        the modes after one step."""
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0, 1, (k, 3))
        pts = centers[rng.integers(0, k, n)] + rng.normal(0, spread, (n, 3))
        if duplicate:
            pts = pts[rng.integers(0, n, n)]
        pts = scale * (pts + 1.0)
        bw *= scale
        if pairwise_bw:
            i, j = rng.choice(n, 2, replace=False)
            bw = float(np.linalg.norm(pts[i] - pts[j])) or bw
        bw2 = bw * bw
        kernel = segmentation._FlatKernel(pts, bw2, segmentation._buffers(len(pts)))
        modes = pts
        for _ in range(2):
            full = segmentation._exact_neighbours(modes, pts, bw2)
            with _fallback_spy() as fallback:
                rows, row_of = kernel.rows(modes)
            np.testing.assert_array_equal(rows[row_of], full)
            if fallback.called:
                # only a value near bw2 may send the step to the fallback
                diff2 = ((modes[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
                assert np.abs(diff2 - bw2).min() <= 2 * _band(modes, pts)
                break
            modes = (full @ pts) / full.sum(1)[:, None]
        assert_same_clusters(one_cell(pts, bw), reference_meanshift(pts, bw))

    @pytest.mark.parametrize("exact", [True, False])
    def test_mode_at_a_tie_is_never_covered(self, exact):
        """A mode m on the segment from a leader L to a sample p, with the
        bandwidth |mp|: L's margin is |Lm| up to rounding, so only the
        rounding slack keeps m from taking L's mask, which puts p outside.
        On a 1/16 grid every squared distance is exact, so only the rounding
        of the square roots is in play; at an offset of 1e3 off the grid the
        blocked distances round by ~1e-10 too. Either way m's own row holds a
        tie and sends the step to the full expression."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            if exact:
                h = 2.0 ** -4
                v = rng.integers(-4, 5, 3) * h
                a, b = int(rng.integers(3, 12)), 1 + int(rng.integers(2))
                leader = rng.integers(-64, 65, 3) * 1.0
            else:
                v = rng.normal(size=3)
                a, b = rng.uniform(1.0, 3.0), rng.uniform(0.05, 0.3)
                leader = 1e3 + rng.normal(0, 1, 3)
            if not v.any():
                continue
            m, p = leader + b * v, leader + a * v
            bw = float(np.linalg.norm(p - m))
            # far from the three and off the grid: no ties of their own
            others = leader + 60 + rng.uniform(0, 3, (220, 3))
            pts = np.vstack([p, others])
            modes = np.vstack([leader, m, others])
            assert len(modes) * len(pts) > segmentation._BLOCK
            kernel = segmentation._FlatKernel(pts, bw * bw,
                                              segmentation._buffers(len(pts)))
            with _fallback_spy() as fallback:
                kernel.rows(modes)
            assert fallback.called

    def test_grid_without_cover_matches(self, monkeypatch):
        # distinct points of a 0.25 grid lie at least 0.25 apart, and every
        # leader has a sample at 0.25 or 0.354 from it, so its margin is
        # below 0.05 with bandwidth 0.3: each leader covers itself alone
        axis = np.arange(6) * 0.25
        pts = np.stack(np.meshgrid(axis, axis, axis), -1).reshape(-1, 3)
        pts = pts[np.random.default_rng(5).permutation(len(pts))]
        assert len(pts) ** 2 > segmentation._BLOCK
        kernel = segmentation._FlatKernel(pts, 0.3 * 0.3,
                                          segmentation._buffers(len(pts)))
        with _fallback_spy() as fallback:
            rows, row_of = kernel.rows(pts)
        assert not fallback.called
        # one row per mode
        np.testing.assert_array_equal(np.sort(row_of), np.arange(len(pts)))
        count = _RowCount(monkeypatch)
        assert_same_clusters(one_cell(pts, 0.3), reference_meanshift(pts, 0.3))
        assert count.built == count.modes


class TestBatchedMeanshift:
    """One `meanshift` call clusters every cell of a column set, each as the
    per-sample reference clusters that cell alone."""

    def test_one_call_equals_reference_per_cell(self):
        rng = np.random.default_rng(31)
        cells = []
        for n in (20, 37, 181, 182, 400, 1400):
            k = int(rng.integers(1, 4))
            centers = rng.uniform(0, 1, (k, 3))
            cells.append(centers[rng.integers(0, k, n)]
                         + rng.normal(0, 0.05, (n, 3)))
        bandwidths = [default_bandwidth(c) for c in cells]
        # on a 0.25 grid the bandwidth 0.25 ties with neighbouring points
        cells.append(rng.integers(0, 8, (150, 3)) * 0.25)
        bandwidths.append(0.25)
        cells.append(np.tile([0.3, 0.6, 0.2], (60, 1)))  # all identical
        bandwidths.append(0.1)
        cells.insert(3, np.zeros((0, 3)))  # a cell of no samples
        bandwidths.insert(3, 0.5)
        offsets = np.cumsum([0] + [len(c) for c in cells])
        with _fallback_spy() as fallback:
            got = meanshift(np.vstack(cells), bandwidths, offsets)
        assert fallback.called  # the tie cell took the full expression
        assert len(got) == len(cells)
        for clusters, pts, bw in zip(got, cells, bandwidths):
            assert_same_clusters(clusters, reference_meanshift(pts, bw))
            assert_same_clusters(clusters, one_cell(pts, bw))

    def test_initial_clusters_make_one_call(self, noisy_two_sphere):
        table = noisy_two_sphere["table"]
        with mock.patch.object(segmentation, "meanshift",
                               wraps=segmentation.meanshift) as spy:
            clusters = initial_clusters(table)
        assert spy.call_count == 1
        samples, bandwidths, offsets = spy.call_args.args
        assert samples is table.samples and offsets is table.offsets
        assert len(bandwidths) == len(table.flats) and clusters


def _blob_cells(rng, sizes, ties):
    """Cells of blobs of `sizes` samples (resampled with repeats, so with
    exact duplicates), each at its own bandwidth; with `ties` a cell on a
    0.25 grid at bandwidth 0.25, where squared distances tie exactly."""
    cells, bws = [], []
    for n in sizes:
        centers = rng.uniform(0, 1, (int(rng.integers(1, 4)), 3))
        pts = centers[rng.integers(0, len(centers), n)] + rng.normal(0, 0.05, (n, 3))
        cells.append(pts[rng.integers(0, n, n)] if n and rng.random() < 0.3 else pts)
        bws.append(float(rng.uniform(0.05, 0.5)))
    if ties:
        cells.insert(len(cells) // 2, rng.integers(0, 6, (60, 3)) * 0.25)
        bws.insert(len(bws) // 2, 0.25)
    return cells, bws


class _PathCount:
    """Counts the cell-steps `_FlatKernel.step` takes, and keeps per ragged
    pass the entries of each of its cells."""

    def __init__(self, monkeypatch):
        self.kernel, self.passes = 0, []
        step, ragged = segmentation._FlatKernel.step, segmentation._ragged_means

        def counted_step(kernel_self, modes):
            self.kernel += 1
            return step(kernel_self, modes)

        def counted_ragged(pts, offsets, modes, cells, *args):
            self.passes.append(np.bincount(cells)[np.unique(cells)]
                               * np.diff(offsets)[np.unique(cells)])
            return ragged(pts, offsets, modes, cells, *args)

        monkeypatch.setattr(segmentation._FlatKernel, "step", counted_step)
        monkeypatch.setattr(segmentation, "_ragged_means", counted_ragged)


class TestRaggedSteps:
    """Cell-steps of at most `_RAGGED` moving modes x samples run together in
    ragged passes, the others alone on the BLAS path; no threshold changes a
    cluster."""

    # 0: every step alone; 3000: in one step, cells of up to 54 samples go
    # ragged and larger ones alone; inf: every step ragged
    @pytest.mark.parametrize("threshold", [0, 3000, math.inf])
    def test_clusters_equal_reference(self, monkeypatch, threshold):
        rng = np.random.default_rng(47)
        cells, bws = _blob_cells(rng, (0, 1, 2, 25, 0, 54, 181, 400, 3), ties=True)
        offsets = np.cumsum([0] + [len(c) for c in cells])
        monkeypatch.setattr(segmentation, "_RAGGED", threshold)
        count = _PathCount(monkeypatch)
        with _fallback_spy() as fallback:
            got = meanshift(np.vstack(cells), bws, offsets)
        assert fallback.called  # the tie cell took the full expression
        assert (count.kernel > 0) == (threshold < math.inf)
        assert (len(count.passes) > 0) == (threshold > 0)
        for clusters, pts, bw in zip(got, cells, bws):
            assert_same_clusters(clusters, reference_meanshift(pts, bw))

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 70), max_size=12),
           st.booleans(), st.sampled_from([0, 500, 4096, math.inf]))
    @settings(max_examples=40, deadline=None)
    def test_random_cells_equal_reference(self, seed, sizes, ties, threshold):
        rng = np.random.default_rng(seed)
        cells, bws = _blob_cells(rng, sizes, ties)
        offsets = np.cumsum([0] + [len(c) for c in cells])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(segmentation, "_RAGGED", threshold)
            got = meanshift(np.vstack(cells + [np.zeros((0, 3))]), bws, offsets)
        for clusters, pts, bw in zip(got, cells, bws):
            assert_same_clusters(clusters, reference_meanshift(pts, bw))

    def test_scan_cells_take_several_passes(self, noisy_two_sphere, monkeypatch):
        """At the largest threshold every step of the scan's cells is ragged,
        in passes of whole cells that start within `_PASS` entries of the
        pass's start."""
        table = noisy_two_sphere["table"]
        bandwidths = _cell_bandwidths(table)
        monkeypatch.setattr(segmentation, "_RAGGED", math.inf)
        count = _PathCount(monkeypatch)
        got = meanshift(table.samples, bandwidths, table.offsets)
        assert count.kernel == 0
        assert max(len(p) for p in count.passes) > 1
        assert all(p.sum() - p[-1] < segmentation._PASS for p in count.passes)
        assert max(p.sum() for p in count.passes) > segmentation._PASS
        for k, (clusters, bw) in enumerate(zip(got, bandwidths)):
            assert_same_clusters(clusters,
                                 reference_meanshift(table.cell(k)[1], bw))


def reference_assign(modes, cell, owner, bws, offsets):
    """The clusters of `_assign`, one cell at a time: the walk's centers
    over the cell's rows, each row's nearest center and each sample's."""
    out = []
    for k, bw in enumerate(bws):
        rows = np.flatnonzero(cell == k)
        if len(rows) == 0:
            out.append([])
            continue
        centers = reference_merge_walk(modes[rows], bw)
        d2c = ((modes[rows, None, :] - centers[None, :, :]) ** 2).sum(-1)
        assign = np.argmin(d2c, axis=1)[owner[offsets[k]:offsets[k + 1]] - rows[0]]
        clusters = [np.nonzero(assign == j)[0] for j in range(len(centers))]
        clusters = [c for c in clusters if len(c) > 0]
        clusters.sort(key=lambda c: (-len(c), int(c[0])))
        out.append(clusters)
    return out


class TestTail:
    """The merge walk and the assignment of every cell at once, and the
    bandwidths of every cell at once, equal the per-cell loop bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 30), max_size=8),
           st.sampled_from([1e-3, 0.37, 1e3]))
    @settings(max_examples=60, deadline=None)
    def test_assign_equals_per_cell(self, seed, sizes, bw):
        """Per cell, rows of near ties or of blobs (some repeated) and
        samples mapped onto them, rows in the order of their first sample."""
        rng = np.random.default_rng(seed)
        bws = bw * rng.uniform(0.5, 2.0, len(sizes))
        modes, owner, cell, offsets = [], [], [], [0]
        for k, (n, b) in enumerate(zip(sizes, bws)):
            rows = (_near_ties(rng, n, b) if n and rng.random() < 0.5 else
                    rng.uniform(0, 3 * b, (n, 3))[rng.integers(0, max(n, 1), n)])
            # each row owns its first sample and maybe later ones
            own = np.concatenate([np.arange(n), rng.integers(0, max(n, 1),
                                                             int(rng.integers(0, 20)) * (n > 0))])
            own.sort()
            owner.append(len(cell) + own)
            modes.append(rows)
            cell += [k] * n
            offsets.append(offsets[-1] + len(own))
        modes = np.vstack(modes) if modes else np.zeros((0, 3))
        owner = np.concatenate(owner) if owner else np.zeros(0, dtype=int)
        cell = np.array(cell, dtype=int)
        offsets = np.array(offsets)
        if len(owner) == 0:
            return
        got = segmentation._assign(modes, cell, owner, bws, offsets)
        expected = reference_assign(modes, cell, owner, bws, offsets)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert_same_clusters(a, b)

    def test_bandwidths_equal_per_cell(self, noisy_two_sphere):
        """The scan's cells, and cells where the floor of 1e-6 times the mean
        sample norm wins: identical samples, and spreads at the floor."""
        rng = np.random.default_rng(9)
        table = noisy_two_sphere["table"]
        cells = {k: table.cell(k) for k in range(len(table.flats))}
        base = rng.uniform(0.2, 1.0, 3)
        for j, spread in enumerate([0.0, 1e-9, 2e-7, 1e-6, 1e-3]):
            vals = base + rng.normal(0, spread, (30, 3))
            cells[N_CELLS - 1 - j] = (np.arange(30) + 100_000 + 30 * j, vals)
        table = GlobalCellTable(*oracles.cell_rows(cells), np.arange(100_200))
        expected = []
        for k in range(len(table.flats)):
            vals = table.cell(k)[1]
            floor = 1e-6 * float(np.linalg.norm(vals, axis=1).mean())
            expected.append(max(default_bandwidth(vals), floor, 1e-12))
        got = segmentation._bandwidths(table)
        np.testing.assert_array_equal(got, expected)
        assert np.sum(got[-5:] > [default_bandwidth(table.cell(k)[1])
                                  for k in range(len(got) - 5, len(got))]) >= 2


def traced_peak(fn) -> int:
    """Traced peak bytes of `fn()`, called once untraced first: numpy
    imports some modules on a function's first call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cell_bandwidths(table):
    return [default_bandwidth(table.cell(k)[1]) for k in range(len(table.flats))]


class TestCellBlocks:
    """`meanshift` runs its step loop over blocks of whole cells of at most
    `_CELL_BLOCK` samples, a larger cell alone; cells are independent, so no
    block size changes a cluster."""

    # cell sizes: empty cells after a block's last cell and at a block's
    # start, and a cell larger than the middle block size
    SIZES = (25, 0, 181, 400, 0, 60, 1400, 0, 33, 1)

    def _cells(self):
        rng = np.random.default_rng(43)
        cells = []
        for n in self.SIZES:
            k = int(rng.integers(1, 4))
            centers = rng.uniform(0, 1, (k, 3))
            cells.append(centers[rng.integers(0, k, n)]
                         + rng.normal(0, 0.05, (n, 3)))
        bandwidths = [default_bandwidth(c) if len(c) > 1 else 0.5 for c in cells]
        # on a 0.25 grid the bandwidth 0.25 ties with neighbouring points
        cells.insert(3, rng.integers(0, 8, (150, 3)) * 0.25)
        bandwidths.insert(3, 0.25)
        return cells, bandwidths

    @pytest.mark.parametrize("block, calls", [
        (1, 11),  # every cell alone
        # 25 + 0 + 181 + 150 + 400 + 0 = 756: the first block ends on an
        # empty cell; 60 runs alone, since 1400 does not fit beside it;
        # 1400 is larger than a block; the last block starts with an empty
        # cell
        (756, 4),
        (2250, 1),  # every sample in one block
        (10 ** 6, 1)])
    def test_blocks_equal_one_block_and_reference(self, monkeypatch, block,
                                                  calls):
        cells, bandwidths = self._cells()
        pts = np.vstack(cells)
        offsets = np.cumsum([0] + [len(c) for c in cells])
        assert offsets[-1] == 2250
        unblocked = meanshift(pts, bandwidths, offsets)
        monkeypatch.setattr(segmentation, "_CELL_BLOCK", block)
        with mock.patch.object(segmentation, "_meanshift_cells",
                               wraps=segmentation._meanshift_cells) as spy:
            got = meanshift(pts, bandwidths, offsets)
        assert spy.call_count == calls
        for call in spy.call_args_list:
            cell_offsets = call.args[2]
            assert cell_offsets[-1] <= block or len(cell_offsets) == 2
        assert len(got) == len(cells)
        for clusters, expected, c, bw in zip(got, unblocked, cells, bandwidths):
            assert_same_clusters(clusters, expected)
            assert_same_clusters(clusters, reference_meanshift(c, bw))

    def test_scan_cells_equal_reference(self, noisy_two_sphere, monkeypatch):
        table = noisy_two_sphere["table"]
        bandwidths = _cell_bandwidths(table)
        # several blocks of a few cells each
        monkeypatch.setattr(segmentation, "_CELL_BLOCK",
                            int(np.diff(table.offsets).max()))
        got = meanshift(table.samples, bandwidths, table.offsets)
        for k, (clusters, bw) in enumerate(zip(got, bandwidths)):
            assert_same_clusters(clusters,
                                 reference_meanshift(table.cell(k)[1], bw))

    def test_no_cells(self):
        assert meanshift(np.zeros((0, 3)), [], [0]) == []

    def test_traced_peak_on_a_scan_table(self, large_demo_records):
        """The iterates and set arrays span a block, and each set's sum
        takes a block of rows: 11.2 MB at the parent commit on this table,
        14.5 MB on one of the same size from seed 21."""
        table = large_demo_records["table"]
        assert len(table.samples) > 80_000
        bandwidths = _cell_bandwidths(table)
        peak = traced_peak(
            lambda: meanshift(table.samples, bandwidths, table.offsets))
        assert peak < 7_000_000


class TestSetMeans:
    """Each distinct neighbour set is summed a block of rows at a time
    through the distance buffer, not as one float copy of every set."""

    @staticmethod
    def one_product(kernel, rows, first):
        members = rows[first]
        return ((members @ kernel.pts)
                / np.count_nonzero(members, axis=1)[:, None])

    def test_clusters_of_one_product(self, noisy_two_sphere, monkeypatch):
        table = noisy_two_sphere["table"]
        bandwidths = _cell_bandwidths(table)
        sets = []
        means = segmentation._FlatKernel.set_means

        def spy(kernel, rows, first):
            sets.append(len(first) * len(kernel.pts))
            return means(kernel, rows, first)

        monkeypatch.setattr(segmentation._FlatKernel, "set_means", spy)
        got = meanshift(table.samples, bandwidths, table.offsets)
        # some steps sum more sets than one block holds
        assert max(sets) > 4 * segmentation._BLOCK
        monkeypatch.setattr(segmentation._FlatKernel, "set_means",
                            self.one_product)
        expected = meanshift(table.samples, bandwidths, table.offsets)
        for a, b in zip(got, expected):
            assert_same_clusters(a, b)

    # at 1000 samples a block holds 32 sets, so 65 sets end in a block of
    # one, which starts a row early; beyond `_BLOCK` samples a block holds 2
    @pytest.mark.parametrize("n", [1, 2, 5, 1000, segmentation._BLOCK + 3])
    @pytest.mark.parametrize("n_sets", [1, 2, 3, 65])
    def test_means_equal_one_product_within_rounding(self, n, n_sets):
        rng = np.random.default_rng(n * 1000 + n_sets)
        pts = rng.uniform(0.1, 1.0, (n, 3))
        kernel = segmentation._FlatKernel(pts, 0.1, segmentation._buffers(n))
        rows = rng.random((n_sets + 5, n)) < 0.5
        rows[:, 0] = True  # no empty set
        first = np.sort(rng.choice(len(rows), n_sets, replace=False))
        got = kernel.set_means(rows, first)
        expected = self.one_product(kernel, rows, first)
        # a block and one product may sum in two orders: n terms each
        np.testing.assert_allclose(got, expected, rtol=4 * n * 2.0 ** -53)
        if n_sets * n <= segmentation._BLOCK:
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 7, 8, 9])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_row_blocks(self, n_rows, size):
        blocks = list(segmentation._row_blocks(n_rows, size))
        covered = np.zeros(n_rows, dtype=int)
        for lo, hi in blocks:
            assert 0 < hi - lo <= size
            assert hi - lo > 1 or n_rows == 1
            covered[lo:hi] += 1
        assert np.all(covered >= 1)
        # in order, and only the last block may start early
        assert [hi for _, hi in blocks] == sorted({hi for _, hi in blocks})


class TestTracedPeaks:
    """The transient memory of the tie path, of the bandwidths and of the
    global table is bounded by a block or by the table, not by the scan."""

    def test_exact_neighbours(self, large_demo_records):
        """Chunks of at most `_BLOCK` entries besides the (n, n) mask: 34.6
        MB at the parent commit on a 1426-sample cell."""
        table = large_demo_records["table"]
        k = int(np.argmax(np.diff(table.offsets)))
        pts = table.cell(k)[1]
        n = len(pts)
        assert n > 1000
        bw2 = default_bandwidth(pts) ** 2
        peak = traced_peak(
            lambda: segmentation._exact_neighbours(pts, pts, bw2))
        assert peak < n * n + 2_000_000

    def test_bandwidths(self, large_demo_records):
        """A block of cells at a time: 5.3 MB over every cell at once on
        this table's 93,899 samples."""
        table = large_demo_records["table"]
        assert traced_peak(lambda: segmentation._bandwidths(table)) < 1_500_000

    def test_build_global_table(self, large_demo_records):
        """Cells grouped by the run starts of the sorted flats, and every
        record row picked, so the columns are gathered once: 10.7 MB at the
        parent commit."""
        records = large_demo_records["records"]
        peak = traced_peak(lambda: build_global_table(records, 100000, 7))
        assert peak < 7_500_000


def reference_merge_walk(modes, bandwidth):
    """The mode-merge walk of `reference_meanshift` on its own."""
    centers = []
    for m in modes:
        if not any(np.linalg.norm(m - c) < bandwidth / 2 for c in centers):
            centers.append(m.copy())
    return np.array(centers)


def _near_ties(rng, n, bandwidth):
    """Modes at bandwidth/2 +- a few ulps from the first, in random
    directions: each squared distance to it lies in the rounding band."""
    d = rng.normal(0, 1, (n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    ulps = 1 + rng.integers(-4, 5, (n, 1)) * 2.0**-52
    modes = rng.normal(0, bandwidth, 3) + d * (bandwidth / 2) * ulps
    modes[0] -= d[0] * (bandwidth / 2) * ulps[0]
    return modes


def merge_one_cell(modes, bandwidth):
    """The centers `_merge_modes` finds among modes of one cell."""
    return modes[segmentation._merge_modes(modes, np.zeros(len(modes), dtype=int),
                                           np.array([bandwidth]))]


class TestMergeModes:
    """`_merge_modes` decides by one squared distance per open row and
    round, and by the walk's scalar norm within a rounding band of
    (bandwidth/2)^2; every cell walks at once."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.integers(1, 5),
           st.sampled_from([1e-3, 0.37, 1.0, 1e3]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_walk(self, seed, n, k, bw, ties):
        rng = np.random.default_rng(seed)
        if ties:
            modes = _near_ties(rng, n, bw)
        else:
            blobs = rng.uniform(0, 3 * bw, (k, 3))
            modes = blobs[rng.integers(0, k, n)] + rng.normal(0, bw / 4, (n, 3))
        np.testing.assert_array_equal(merge_one_cell(modes, bw),
                                      reference_merge_walk(modes, bw))

    def test_norm_decides_only_near_ties(self, monkeypatch):
        rng = np.random.default_rng(3)
        ties = _near_ties(rng, 400, 0.37)
        blobs = rng.uniform(0, 3, (4, 3))[rng.integers(0, 4, 400)]
        blobs += rng.normal(0, 0.05, (400, 3))
        expected = [reference_merge_walk(m, 0.37) for m in (ties, blobs)]
        # squared distances alone would decide some of the ties otherwise
        half = 0.37 / 2
        d2 = ((ties[1:] - ties[0]) ** 2).sum(-1)
        norm = np.array([np.linalg.norm(m - ties[0]) for m in ties[1:]])
        assert np.any((d2 < half * half) != (norm < half))
        calls = []
        scalar_norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm",
                            lambda x: calls.append(1) or scalar_norm(x))
        for modes, want in zip((ties, blobs), expected):
            calls.clear()
            np.testing.assert_array_equal(merge_one_cell(modes, 0.37), want)
            assert (len(calls) > 0) == (modes is ties)


    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 40), max_size=8),
           st.sampled_from([1e-3, 0.37, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_cells_walk_at_once(self, seed, sizes, bw):
        """Cells of near ties and of blobs, each at its own bandwidth: one
        call gives each cell the centers of its own walk."""
        rng = np.random.default_rng(seed)
        bws = bw * rng.uniform(0.5, 2.0, len(sizes))
        cells = [_near_ties(rng, n, b) if rng.random() < 0.5 else
                 rng.uniform(0, 3 * b, (n, 3)) for n, b in zip(sizes, bws)]
        modes = np.vstack(cells) if cells else np.zeros((0, 3))
        head = segmentation._merge_modes(
            modes, np.repeat(np.arange(len(sizes)), sizes), bws)
        at = np.cumsum([0] + sizes)
        for c, b, lo, hi in zip(cells, bws, at[:-1], at[1:]):
            np.testing.assert_array_equal(modes[lo:hi][head[lo:hi]],
                                          reference_merge_walk(c, b))


class TestGaussian:
    def test_fit_recovers_moments(self):
        rng = np.random.default_rng(5)
        s = rng.normal([1, 2, 3], [0.1, 0.2, 0.3], (5000, 3))
        g = fit_gaussian(s)
        np.testing.assert_allclose(g.mean, [1, 2, 3], atol=0.02)
        np.testing.assert_allclose(np.diag(g.covariance),
                                   [0.01, 0.04, 0.09], rtol=0.15)

    def test_degenerate_samples_still_invertible(self):
        g = fit_gaussian(np.tile([0.5, 0.5, 0.5], (10, 1)))
        assert mahalanobis_many([[0.5, 0.5, 0.5]], g.mean, g.covariance)[0] < 1e-6

    def test_mahalanobis_matches_scipy(self):
        from scipy.spatial.distance import mahalanobis as scipy_md
        rng = np.random.default_rng(6)
        s = rng.normal(size=(500, 3))
        g = fit_gaussian(s)
        x = np.array([0.3, -0.7, 1.1])
        expected = scipy_md(x, g.mean, np.linalg.inv(g.covariance))
        assert mahalanobis_many(x[None], g.mean, g.covariance)[0] == pytest.approx(
            expected, rel=1e-9)

    def test_one_row_bitwise_equals_float_oracle(self):
        """Random SPD covariances over many scales and conditionings; scipy's
        `cho_solve` as a value reference."""
        from scipy.linalg import cho_factor, cho_solve
        rng = np.random.default_rng(21)
        for _ in range(500):
            a = rng.normal(size=(3, 3)) * rng.uniform(1e-3, 10)
            cov = a @ a.T + rng.uniform(1e-9, 1) * np.eye(3)
            x, mean = rng.normal(size=3), rng.normal(size=3)
            got = mahalanobis_many(x[None], mean, cov)[0]
            assert got == oracles.mahalanobis(x, mean, cov)
            diff = x - mean
            assert got == pytest.approx(
                np.sqrt(diff @ cho_solve(cho_factor(cov, lower=True), diff)),
                rel=1e-10)

    @pytest.mark.parametrize("cov", [np.diag([1.0, -1.0, 1.0]), np.zeros((3, 3)),
                                     np.diag([1.0, 1.0, 0.0]),
                                     np.array([[1.0, 2, 0], [2, 1, 0], [0, 0, 1]])])
    def test_mahalanobis_rejects_non_spd(self, cov):
        """Zero and indefinite covariances raise from both functions, before
        any arithmetic can warn."""
        bad = segmentation.GaussianCluster(np.zeros(3), cov, np.zeros(0, int))
        good = segmentation.GaussianCluster(np.ones(3), np.eye(3), np.zeros(0, int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                mahalanobis_many(np.ones((4, 3)), np.zeros(3), cov)
            for pair in ((bad, good), (good, bad)):
                with pytest.raises(np.linalg.LinAlgError):
                    separability_score(*pair)

    def test_many_bitwise_equals_float_oracle(self):
        """Random SPD covariances over many scales and conditionings, and
        fitted ones, with 1-40 rows each, against the one-row oracle; numpy's
        Cholesky factor and scipy's triangular solve as a value reference."""
        rng = np.random.default_rng(22)
        for i in range(5000):
            m = int(rng.integers(1, 41))
            if i % 5 == 0:
                cov = fit_gaussian(rng.normal(0, rng.uniform(1e-4, 1), (20, 3))
                                   * rng.uniform(0.1, 10, 3)).covariance
            else:
                a = rng.normal(size=(3, 3)) * rng.uniform(1e-3, 10)
                cov = a @ a.T + rng.uniform(1e-9, 1) * np.eye(3)
            xs, mean = rng.normal(size=(m, 3)), rng.normal(size=3)
            got = mahalanobis_many(xs, mean, cov)
            np.testing.assert_array_equal(
                got, [oracles.mahalanobis(x, mean, cov) for x in xs])
            np.testing.assert_allclose(
                got, oracles.mahalanobis_many(xs, mean, cov), rtol=1e-10)

    @pytest.mark.parametrize("cov", [np.diag([1.0, -1.0, 1.0]), np.zeros((3, 3))])
    def test_many_rejects_non_spd(self, cov):
        with pytest.raises(np.linalg.LinAlgError):
            mahalanobis_many(np.ones((4, 3)), np.zeros(3), cov)

    def test_many_matches_scalar(self):
        rng = np.random.default_rng(7)
        s = rng.normal(size=(300, 3))
        g = fit_gaussian(s)
        xs = rng.normal(size=(40, 3))
        many = mahalanobis_many(xs, g.mean, g.covariance)
        for i in range(40):
            assert many[i] == pytest.approx(
                mahalanobis_many(xs[i:i + 1], g.mean, g.covariance)[0], rel=1e-9)

    @given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_affine_invariance(self, scale, shift, seed):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(200, 3))
        x = rng.normal(size=3)
        g = fit_gaussian(s)
        g2 = fit_gaussian(s * scale + shift)
        assert mahalanobis_many([x * scale + shift], g2.mean, g2.covariance) == \
            pytest.approx(mahalanobis_many([x], g.mean, g.covariance), rel=1e-4)

    def test_chi2_three_sigma_mass(self):
        rng = np.random.default_rng(8)
        draws = rng.normal(size=(20000, 3))
        md = np.linalg.norm(draws, axis=1)  # identity covariance
        frac = np.mean(md < 3.0)
        assert frac == pytest.approx(chi2.cdf(9.0, 3), abs=0.01)


class TestSeparability:
    def test_identical_gaussians_zero(self):
        g = fit_gaussian(np.random.default_rng(9).normal(size=(100, 3)))
        assert separability_score(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_unit_covariance_means_six_apart(self):
        from matscan.segmentation import GaussianCluster
        g1 = GaussianCluster(np.zeros(3), np.eye(3), np.zeros(0, int))
        g2 = GaussianCluster(np.array([6.0, 0, 0]), np.eye(3), np.zeros(0, int))
        assert separability_score(g1, g2) == pytest.approx(12.0, rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(10)
        g1 = fit_gaussian(rng.normal(0, 1, (200, 3)))
        g2 = fit_gaussian(rng.normal(2, 0.5, (200, 3)))
        assert separability_score(g1, g2) == separability_score(g2, g1)

    def test_equals_sum_of_one_row_distances_bitwise(self):
        """Random and fitted Gaussians: the score is the two one-row
        `mahalanobis_many` distances summed, and their float oracles too."""
        rng = np.random.default_rng(23)
        for i in range(2000):
            pair = []
            for _ in range(2):
                if i % 2:
                    g = fit_gaussian(rng.normal(rng.normal(size=3),
                                                rng.uniform(1e-4, 1), (20, 3))
                                     * rng.uniform(0.1, 10, 3))
                else:
                    a = rng.normal(size=(3, 3)) * rng.uniform(1e-3, 10)
                    g = segmentation.GaussianCluster(
                        rng.normal(size=3),
                        a @ a.T + rng.uniform(1e-9, 1) * np.eye(3),
                        np.zeros(0, int))
                pair.append(g)
            g1, g2 = pair
            score = separability_score(g1, g2)
            assert score == (mahalanobis_many([g2.mean], g1.mean, g1.covariance)[0]
                             + mahalanobis_many([g1.mean], g2.mean, g2.covariance)[0])
            assert score == (oracles.mahalanobis(g2.mean, g1.mean, g1.covariance)
                             + oracles.mahalanobis(g1.mean, g2.mean, g2.covariance))


class TestAssign:
    def _gaussians(self):
        from matscan.segmentation import GaussianCluster
        g1 = GaussianCluster(np.zeros(3), 0.01 * np.eye(3), np.zeros(0, int))
        g2 = GaussianCluster(np.array([1.0, 0, 0]), 0.01 * np.eye(3),
                             np.zeros(0, int))
        return g1, g2

    def test_clear_membership(self):
        g1, g2 = self._gaussians()
        assert assign_3sigma_many([np.zeros(3)], g1, g2).tolist() == [1]
        assert assign_3sigma_many([np.array([1.0, 0, 0])], g1, g2).tolist() == [2]

    def test_far_from_both_is_ambiguous(self):
        g1, g2 = self._gaussians()
        assert assign_3sigma_many([np.array([10.0, 10.0, 10.0])], g1,
                                  g2).tolist() == [0]

    def test_inside_both_is_ambiguous(self):
        from matscan.segmentation import GaussianCluster
        g1 = GaussianCluster(np.zeros(3), np.eye(3), np.zeros(0, int))
        g2 = GaussianCluster(np.array([0.5, 0, 0]), np.eye(3), np.zeros(0, int))
        assert assign_3sigma_many([np.array([0.25, 0, 0])], g1,
                                  g2).tolist() == [0]


def synthetic_table(rng, material_colors, verts_per_mat=120, cells=12,
                    noise=0.01, coverage=0.8):
    """Global cell table whose samples are noisy copies of material colors."""
    n_mats = len(material_colors)
    n = n_mats * verts_per_mat
    gt = np.repeat(np.arange(n_mats), verts_per_mat)
    table_cells = {}
    for cell in range(cells):
        vids = []
        vals = []
        for v in range(n):
            if rng.random() < coverage:
                vids.append(v)
                vals.append(material_colors[gt[v]]
                            + rng.normal(0, noise, 3))
        table_cells[cell * N_D + cell] = (np.array(vids, dtype=int),
                                          np.array(vals))
    return GlobalCellTable(*oracles.cell_rows(table_cells), np.arange(n)), gt


class TestTwoMaterial:
    def test_recovers_two_clean_groups(self):
        rng = np.random.default_rng(11)
        colors = [np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.1, 0.9])]
        table, gt = synthetic_table(rng, colors)
        groups, diag = two_material_segmentation(table)
        assert len(groups.groups) == 2
        for g in groups.groups:
            ids = np.fromiter(g, int, len(g))
            labels = set(gt[ids])
            assert len(labels) == 1
        assert len(groups.classified) > 0.9 * len(gt)

    def test_empty_table(self):
        table = GlobalCellTable(*oracles.cell_rows({}), np.zeros(0, int))
        groups, _ = two_material_segmentation(table)
        assert groups.groups == [] or all(len(g) == 0 for g in groups.groups)

    def test_deterministic(self):
        colors = [np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.1, 0.9])]
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(12)
            table, _ = synthetic_table(rng, colors)
            groups, _ = two_material_segmentation(table)
            runs.append(sorted(sorted(g) for g in groups.groups))
        assert runs[0] == runs[1]


class TestMultiMaterial:
    def test_three_materials_no_count_input(self):
        rng = np.random.default_rng(13)
        colors = [np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.9, 0.1]),
                  np.array([0.1, 0.1, 0.9])]
        table, gt = synthetic_table(rng, colors)
        groups, diag = multi_material_segmentation(table)
        big = [g for g in groups.groups if len(g) > 20]
        assert len(big) == 3
        for g in big:
            ids = np.fromiter(g, int, len(g))
            assert len(set(gt[ids])) == 1

    def test_distant_outlier_vertices_stay_unclassified(self):
        rng = np.random.default_rng(14)
        colors = [np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.1, 0.9])]
        table, gt = synthetic_table(rng, colors)
        # inject vertices whose samples sit far from both material colors
        n = len(gt)
        extra = np.arange(n, n + 5)
        cells = {}
        for k, flat in enumerate(table.flats.tolist()):
            vids, vals = table.cell(k)
            out_vals = np.tile([5.0, 5.0, 5.0], (5, 1)) + rng.normal(0, 0.01, (5, 3))
            cells[flat] = (np.concatenate([vids, extra]),
                           np.vstack([vals, out_vals]))
        groups, _ = multi_material_segmentation(
            GlobalCellTable(*oracles.cell_rows(cells), np.arange(n + 5)))
        classified = groups.classified
        # the 5 outliers form a sub-minimum cluster: never assigned
        assert not (set(extra.tolist()) & classified)

    def test_single_material_groups_stay_pure(self):
        # With one material the bandwidth collapses to the noise scale and
        # the blob may fragment; the groups must still partition cleanly.
        rng = np.random.default_rng(15)
        colors = [np.array([0.5, 0.5, 0.5])]
        table, gt = synthetic_table(rng, colors)
        groups, _ = multi_material_segmentation(table)
        seen = set()
        for g in groups.groups:
            assert not (g & seen)
            seen |= g
        assert len(groups.classified) + len(groups.unclassified) == len(gt)


class TestPropagationOracle:
    """Meanshift and propagation give the groups of their reference twins."""

    @pytest.mark.parametrize("segment", [two_material_segmentation,
                                         multi_material_segmentation])
    def test_scan_groups_match_reference(self, noisy_two_sphere, segment):
        table = noisy_two_sphere["table"]
        groups, diag = segment(table)
        ref_groups, ref_diag = reference_groups(segment, table)
        assert groups.groups and groups.groups == ref_groups.groups
        assert groups.unclassified == ref_groups.unclassified
        assert diag == ref_diag

    @given(st.integers(0, 2**16))
    @example(14)  # a refit after only the second group grew picks another cell
    @example(45)
    @settings(max_examples=10, deadline=None)
    def test_synthetic_groups_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        colors = list(rng.uniform(0, 1, (2 + seed % 2, 3)))
        table, _ = synthetic_table(rng, colors, verts_per_mat=60,
                                   noise=rng.uniform(0.01, 0.2),
                                   coverage=rng.uniform(0.3, 0.9))
        for segment in (two_material_segmentation, multi_material_segmentation):
            groups, _ = segment(table)
            assert groups.groups == reference_groups(segment, table)[0].groups


def _moment_cells(rng, kinds, n1, n2, n_other, scale):
    """Cells that each hold every vertex: ids [0, n1) are the first group,
    [n1, n1 + n2) the second and the rest neither. Each group's samples in a
    cell are of the kind named for it there: isotropic noise, noise along
    the colour with a 1e-6 isotropic part (nearly rank 1, as colour
    covariances are), isotropic noise resampled with repeats, or one value
    repeated (zero variance)."""
    cells = {}
    for flat, (kind1, kind2) in enumerate(kinds):
        parts = []
        for kind, n in ((kind1, n1), (kind2, n2), ("iso", n_other)):
            colour = rng.uniform(0.05, 1.0, 3) * scale
            sigma = rng.choice([1e-4, 1e-2, 0.1]) * scale
            if kind == "rank1":
                x = (colour + rng.normal(0, sigma, (n, 1)) * colour
                     / np.linalg.norm(colour)
                     + rng.normal(0, 1e-6 * sigma, (n, 3)))
            elif kind == "zero":
                x = np.tile(colour, (n, 1))
            else:
                x = colour + rng.normal(0, sigma, (n, 3))
                if kind == "duplicates":
                    x = x[rng.integers(0, n, n)]
            parts.append(x)
        cells[flat * N_D] = (np.arange(n1 + n2 + n_other), np.vstack(parts))
    return cells


_KINDS = st.sampled_from(["iso", "rank1", "duplicates", "zero"])


class TestGroupMoments:
    """A group sums its nine moment columns one `bincount` each, over its
    rows in order: per bin the bits of one bincount over (cell, column)
    bins, without (rows x 9) float and key arrays."""

    def test_moments_equal_one_keyed_bincount(self, noisy_two_sphere):
        table = noisy_two_sphere["table"]
        mask = np.random.default_rng(12).random(table.mask_size) < 0.5
        grp = segmentation._Group(table, mask)
        rows = np.flatnonzero(mask[table.vids])
        cell = np.searchsorted(table.offsets, rows, side="right") - 1
        x = table.samples[rows] - table.centres[cell]
        terms = np.concatenate(
            [x, x[:, segmentation._ROW] * x[:, segmentation._COL]], axis=1)
        k = len(table.flats)
        expected = np.bincount((9 * cell[:, None] + np.arange(9)).ravel(),
                               terms.ravel(), minlength=9 * k).reshape(k, 9)
        np.testing.assert_array_equal(grp.moments, expected)
        np.testing.assert_array_equal(grp.count, np.bincount(cell, minlength=k))

    def test_traced_peak_of_adding_rows(self, large_demo_records):
        """56 B per row on every row of a scan table: 17.4 MB for its 93,899
        rows when the nine columns were summed as one (rows x 9) array."""
        table = large_demo_records["table"]
        rows = np.arange(len(table.vids))
        grp = segmentation._Group(table, np.zeros(table.mask_size, dtype=bool))
        assert traced_peak(lambda: grp._add_rows(rows)) < 64 * len(rows) + 100_000


class TestMomentScores:
    """The per-cell moment score of two groups stays within its certified
    bound of `separability_score` of their `fit_gaussian`s, and a cell it
    cannot certify gets an infinite bound."""

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(_KINDS, _KINDS), min_size=1, max_size=4),
           st.sampled_from([MIN_FIT_SAMPLES, 11, 57, 400]),
           st.sampled_from([MIN_FIT_SAMPLES, 23, 300]),
           st.integers(0, 40), st.sampled_from([1.0, 1e-3, 1e3]),
           st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_score_within_bound(self, seed, kinds, n1, n2, n_other, scale,
                                batches):
        rng = np.random.default_rng(seed)
        table = GlobalCellTable(
            *oracles.cell_rows(_moment_cells(rng, kinds, n1, n2, n_other, scale)),
            np.arange(n1 + n2 + n_other))
        groups = []
        for ids in (np.arange(n1), np.arange(n1, n1 + n2)):
            # the moments of a group built in several additions
            ids = rng.permutation(ids)
            parts = np.array_split(ids, batches + 1)
            mask = np.zeros(table.mask_size, dtype=bool)
            mask[parts[0]] = True
            grp = segmentation._Group(table, mask)
            for part in parts[1:]:
                grp.add(part)
            groups.append(grp)
        ks = np.arange(len(table.flats))
        score, bound = segmentation._moment_scores(*groups, ks)
        for k in ks:
            cv, cs = table.cell(k)
            fits = []
            for grp in groups:
                inside = grp.mask[cv]
                assert grp.count[k] == inside.sum()
                fits.append(fit_gaussian(cs[inside]))
            exact = separability_score(*fits)
            if "zero" in kinds[k]:
                assert bound[k] == np.inf
            if np.isfinite(bound[k]):
                assert abs(score[k] - exact) <= bound[k]
            else:
                assert score[k] == 0.0

    def test_scan_scores_within_bound(self, noisy_two_sphere, monkeypatch):
        """Every moment score a propagation of the scan makes, against a
        refit of the same cell."""
        checked = []
        moment_scores = segmentation._moment_scores

        def checked_scores(grp1, grp2, ks):
            score, bound = moment_scores(grp1, grp2, ks)
            table = grp1.table
            for k, s, b in zip(ks.tolist(), score, bound):
                cv, cs = table.cell(k)
                in1, in2 = grp1.mask[cv], grp2.mask[cv]
                exact = separability_score(fit_gaussian(cs[in1]),
                                           fit_gaussian(cs[in2]))
                assert abs(s - exact) <= b
                checked.append(np.isfinite(b))
            return score, bound

        monkeypatch.setattr(segmentation, "_moment_scores", checked_scores)
        for segment in (two_material_segmentation, multi_material_segmentation):
            segment(noisy_two_sphere["table"])
        assert len(checked) > 100 and all(checked)


def _pick_table(cell_extras):
    """Cells of two groups of 20 vertices (ids 0-19 near one colour, 20-39
    near another) with the same samples in every cell, and per cell its own
    extra vertices, none in either group."""
    rng = np.random.default_rng(41)
    members = np.vstack([rng.normal([0.8, 0.2, 0.2], 0.02, (20, 3)),
                         rng.normal([0.2, 0.2, 0.8], 0.02, (20, 3))])
    extra = rng.normal([0.8, 0.2, 0.2], 0.02, (10, 3))
    cells = {}
    for flat, ids in enumerate(cell_extras):
        ids = np.asarray(ids, dtype=int)
        cells[flat] = (np.concatenate([np.arange(40), 40 + ids]),
                       np.vstack([members, extra[ids]]))
    table = GlobalCellTable(*oracles.cell_rows(cells), np.arange(50))
    masks = [np.zeros(table.mask_size, dtype=bool) for _ in range(2)]
    masks[0][:20] = masks[1][20:40] = True
    return table, masks


class TestPropagationPick:
    """Of the cells of the highest refitted score the first wins, and a cell
    whose score is not above zero never does."""

    @pytest.mark.parametrize("propagate", [segmentation._propagate_two,
                                           reference_propagate_two])
    def test_first_of_equal_scores_wins(self, propagate, monkeypatch):
        # both cells score the same; the first has one fresh vertex, the
        # second two, so the first gate call tells which cell won
        table, masks = _pick_table([[0], [1, 2]])
        gated = []
        gate = segmentation.assign_3sigma_many

        def counted_gate(xs, g1, g2):
            gated.append(len(xs))
            return gate(xs, g1, g2)

        # the gate as both propagations look it up
        monkeypatch.setattr(segmentation, "assign_3sigma_many", counted_gate)
        monkeypatch.setitem(globals(), "assign_3sigma_many", counted_gate)
        groups = [segmentation._Group(table, m) for m in masks]
        everything = np.ones(table.mask_size, dtype=bool)
        consumed = np.zeros(2, dtype=bool)
        propagate(table, consumed, *groups, everything, require_half2=True)
        assert gated[0] == 1 and consumed.all()

    @pytest.mark.parametrize("propagate", [segmentation._propagate_two,
                                           reference_propagate_two])
    def test_zero_score_never_wins(self, propagate):
        # the second group's samples are the first's, in the same order, so
        # their means are equal bit for bit and the score is exactly 0
        table, masks = _pick_table([[0]])
        samples = table.samples.copy()
        samples[20:40] = samples[:20]
        table = GlobalCellTable(np.zeros(len(samples), dtype=int), table.vids,
                                samples, table.sampled_ids)
        groups = [segmentation._Group(table, m) for m in masks]
        consumed = np.zeros(1, dtype=bool)
        everything = np.ones(table.mask_size, dtype=bool)
        assert propagate(table, consumed, *groups, everything, True) == 0
        assert not consumed.any()
        assert groups[0].mask.sum() == groups[1].mask.sum() == 20


class TestInitialClusters:
    def test_small_cells_skipped(self):
        rng = np.random.default_rng(16)
        cells = {0: (np.arange(5), rng.normal(size=(5, 3)))}
        table = GlobalCellTable(*oracles.cell_rows(cells), np.arange(5))
        assert initial_clusters(table) == {}

    def test_small_clusters_discarded(self):
        rng = np.random.default_rng(17)
        main = rng.normal([0.5, 0.5, 0.5], 0.01, (100, 3))
        stray = rng.normal([5.0, 5.0, 5.0], 0.01, (3, 3))
        cells = {0: (np.arange(103), np.vstack([main, stray]))}
        table = GlobalCellTable(*oracles.cell_rows(cells), np.arange(103))
        clusters = initial_clusters(table)
        assert len(clusters[0]) == 1
        assert len(clusters[0][0].members) == 100


class TestGlobalCellTable:
    def test_columns_hold_the_large_cells_in_flat_order(self, noisy_two_sphere):
        table, cells = noisy_two_sphere["table"], noisy_two_sphere["cells"]
        large = [f for f, (vids, _) in cells.items()
                 if len(vids) >= MIN_CELL_SAMPLES]
        assert 0 < len(large) < len(table) == len(cells)
        np.testing.assert_array_equal(table.flats, sorted(large))
        for k, flat in enumerate(table.flats.tolist()):
            for got, expected in zip(table.cell(k), cells[flat]):
                np.testing.assert_array_equal(got, expected)

    def test_rows_of_lists_each_vertex_rows(self, noisy_two_sphere):
        table = noisy_two_sphere["table"]
        ids = np.random.default_rng(24).choice(table.mask_size, 50, replace=False)
        rows = table.rows_of(ids)
        np.testing.assert_array_equal(np.sort(rows),
                                      np.flatnonzero(np.isin(table.vids, ids)))
        per_vertex = np.bincount(table.vids, minlength=table.mask_size)[ids]
        np.testing.assert_array_equal(table.vids[rows], np.repeat(ids, per_vertex))

    def test_shuffled_cells_give_same_columns_and_groups(self, noisy_two_sphere):
        table, cells = noisy_two_sphere["table"], noisy_two_sphere["cells"]
        flats = list(cells)
        np.random.default_rng(23).shuffle(flats)
        flat, vids, samples = oracles.cell_rows({f: cells[f] for f in flats})
        assert np.any(np.diff(flat) < 0)
        shuffled = GlobalCellTable(flat, vids, samples, table.sampled_ids)
        oracles.assert_same_cell_table(shuffled, table)
        for segment in (two_material_segmentation, multi_material_segmentation):
            groups, diag = segment(shuffled)
            expected, expected_diag = segment(table)
            assert groups.groups == expected.groups
            assert groups.unclassified == expected.unclassified
            assert diag == expected_diag

    def test_small_cells_are_counted_but_hold_no_candidate(self):
        """Measured cells, none with MIN_CELL_SAMPLES samples: neither mode
        finds a cell to seed from."""
        rng = np.random.default_rng(25)
        n = MIN_CELL_SAMPLES - 1
        cells = {flat: (np.arange(n), rng.uniform(0, 1, (n, 3)))
                 for flat in (700, 3, 50)}
        table = GlobalCellTable(*oracles.cell_rows(cells), np.arange(n))
        assert len(table) == 3
        assert len(table.flats) == len(table.vids) == len(table.samples) == 0
        np.testing.assert_array_equal(table.offsets, [0])
        groups, diag = two_material_segmentation(table)
        assert groups.groups == [] and groups.unclassified == set(range(n))
        assert diag == {"seed_cell": None, "cells_consumed": 0,
                        "initial_cells": 0, "reason": "no separable initial cell"}
        groups, diag = multi_material_segmentation(table)
        assert groups.groups == [] and groups.unclassified == set(range(n))
        assert diag == {"rounds": 0, "seeds": []}

    def test_empty_table(self):
        table = GlobalCellTable(*oracles.cell_rows({}), np.zeros(0, int))
        assert len(table) == len(table.flats) == 0
        groups, diag = multi_material_segmentation(table)
        assert groups.groups == [] and groups.unclassified == set()
        assert diag == {"rounds": 0}


class TestBuildGlobalTable:
    def test_budget_limits_vertices(self, noisy_two_sphere):
        records = noisy_two_sphere["records"]
        # with a floor of one sample the columns hold every measured cell
        with mock.patch.object(segmentation, "MIN_CELL_SAMPLES", 1):
            small = build_global_table(records, 500, 3)
        assert len(small.sampled_ids) == 500
        assert len(small.flats) == len(small)
        assert set(small.vids.tolist()) <= set(small.sampled_ids.tolist())

    def test_deterministic(self, noisy_two_sphere):
        records = noisy_two_sphere["records"]
        a = build_global_table(records, 2000, 4)
        b = build_global_table(records, 2000, 4)
        oracles.assert_same_cell_table(a, b)


class TestDiffuseLabels:
    def test_nearby_unsampled_vertices_inherit(self):
        from matscan.segmentation import MaterialGroups
        groups = MaterialGroups([{0, 1}, {2, 3}], set())
        pos = np.array([[0.0, 0, 0], [0.001, 0, 0], [1.0, 0, 0], [1.001, 0, 0],
                        [0.0005, 0, 0], [1.0005, 0, 0], [5.0, 0, 0]])
        labels = diffuse_labels(groups, pos, sampled_ids=[0, 1, 2, 3],
                                radius=0.01)
        assert labels[4] == 0 and labels[5] == 1
        assert labels[6] == -1  # beyond the radius

    def test_sampled_unclassified_stays_unlabeled(self):
        from matscan.segmentation import MaterialGroups
        groups = MaterialGroups([{0}], {1})
        pos = np.array([[0.0, 0, 0], [0.0001, 0, 0]])
        labels = diffuse_labels(groups, pos, sampled_ids=[0, 1], radius=0.01)
        assert labels[1] == -1

    def test_radius_validation(self):
        from matscan.segmentation import MaterialGroups
        with pytest.raises(ValueError):
            diffuse_labels(MaterialGroups([], set()), np.zeros((1, 3)), [], 0.0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(0, 3),
           st.floats(0.0, 1.0), st.sampled_from([0.004, 0.01, 0.05]),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_target_loop(self, seed, n, n_groups, sampled_share,
                                     radius, one_classified):
        """Positions on a coarse grid, so many are exact duplicates and the
        two nearest classified vertices often tie; any mix of sampled and
        unsampled vertices, with no, one or many classified."""
        rng = np.random.default_rng(seed)
        pos = rng.integers(0, 6, (n, 3)) * 0.005
        sampled = np.nonzero(rng.random(n) < sampled_share)[0]
        if one_classified and len(sampled):
            labels = np.full(len(sampled), -1)
            labels[rng.integers(len(sampled))] = 0
        else:
            labels = rng.integers(-1, n_groups, len(sampled))
        groups = MaterialGroups(
            [set(sampled[labels == g].tolist()) for g in range(labels.max(initial=-1) + 1)],
            set(sampled[labels < 0].tolist()))
        np.testing.assert_array_equal(
            diffuse_labels(groups, pos, sampled, radius),
            oracles.diffuse_labels(groups, pos, sampled, radius))
