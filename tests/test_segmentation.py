"""Meanshift, Gaussian statistics, the 3-sigma gate, group propagation and
label diffusion."""

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
                                  assign_3sigma_many,
                                  build_global_table, default_bandwidth,
                                  diffuse_labels, fit_gaussian, initial_clusters,
                                  mahalanobis_many, meanshift,
                                  multi_material_segmentation, separability_score,
                                  two_material_segmentation)


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
    pts_sq = np.einsum("ij,ij->i", pts, pts)
    for _ in range(max_iter):
        idx = np.nonzero(active)[0]
        if len(idx) == 0:
            break
        for lo in range(0, len(idx), chunk):
            sel = idx[lo:lo + chunk]
            m = modes[sel]
            d2 = (np.einsum("ij,ij->i", m, m)[:, None] + pts_sq[None, :]
                  - 2.0 * (m @ pts.T))
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


def reference_meanshift_cells(samples, bandwidths, offsets):
    """`reference_meanshift` of each cell of a column set on its own."""
    return [reference_meanshift(samples[lo:hi], bw)
            for lo, hi, bw in zip(offsets[:-1], offsets[1:], bandwidths)]


def reference_propagate_two(table, consumed, grp1, grp2, assignable,
                            require_half2):
    """`_propagate_two` that counts and refits every unconsumed candidate
    cell at every step, one cell at a time, from the table's dict of cells
    and the groups' masks alone."""
    mat1_mask, mat2_mask = grp1.mask, grp2.mask
    grown = 0
    for _ in range(N_CELLS):
        n1 = int(mat1_mask.sum())
        n2 = int(mat2_mask.sum())
        if n1 == 0 or n2 == 0:
            break
        best = (0.0, None, None, None)
        for k, flat in enumerate(table.flats):
            if consumed[k]:
                continue
            cv, cs = table.cells[flat]
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
        cv, cs = table.cells[table.flats[k]]
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
    step, one cell at a time, from the table's dict of cells and the group's
    mask alone."""
    new_mask = grp.mask
    while True:
        n1 = int(new_mask.sum())
        best = (0, None)
        for k, flat in enumerate(table.flats):
            if consumed[k]:
                continue
            c1 = int(new_mask[table.cells[flat][0]].sum())
            if c1 < min_fit or 2 * c1 < n1:
                continue
            if c1 > best[0]:
                best = (c1, k)
        if best[1] is None:
            return
        k = best[1]
        cv, cs = table.cells[table.flats[k]]
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
        clusters = meanshift(pts, 0.3)
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [200, 200]
        # each cluster is one blob
        first = clusters[0]
        assert len(set(first < 200)) == 1 or np.all(first < 200) or np.all(first >= 200)

    def test_single_blob_single_cluster(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(0, 0.01, (300, 3))
        clusters = meanshift(pts, 0.5)
        assert len(clusters) == 1
        assert len(clusters[0]) == 300

    def test_every_sample_assigned_once(self):
        rng = np.random.default_rng(3)
        pts = two_blobs(rng, n=120)
        clusters = meanshift(pts, 0.3)
        all_idx = np.sort(np.concatenate(clusters))
        np.testing.assert_array_equal(all_idx, np.arange(len(pts)))

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            meanshift(np.zeros((5, 3)), 0.0)

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
        assert_same_clusters(meanshift(pts, bw), reference_meanshift(pts, bw))

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
        assert_same_clusters(meanshift(pts, bw), reference_meanshift(pts, bw))

    def test_stopped_and_moving_samples_on_one_mode(self):
        # samples 0 and 1 share every neighbour, so both move to the same
        # mode x, ~5e-5 right of sample 0: sample 0 stops there, sample 1
        # (0.05 away) keeps moving. The points at -1 drop out of x's window,
        # so sample 1 runs on to the positive points and a cluster apart
        xs = [0.0, -0.05] + [-1.0] * 10 + [0.94] * 10 + [0.65115]
        pts = np.zeros((len(xs), 3))
        pts[:, 0] = xs
        clusters = meanshift(pts, 1.0)
        assert_same_clusters(clusters, reference_meanshift(pts, 1.0))
        assert [0] in [c.tolist() for c in clusters]

    def test_scan_cells_match_reference(self, noisy_two_sphere):
        for vids, vals in noisy_two_sphere["table"].cells.values():
            if len(vids) < 2:
                continue
            bw = default_bandwidth(vals)
            assert_same_clusters(meanshift(vals, bw),
                                 reference_meanshift(vals, bw))

    def test_largest_cluster_first(self):
        rng = np.random.default_rng(4)
        a = rng.normal([0, 0, 0], 0.01, (50, 3))
        b = rng.normal([2, 0, 0], 0.01, (150, 3))
        clusters = meanshift(np.vstack([a, b]), 0.3)
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
        assert_same_clusters(meanshift(pts, 0.25), reference_meanshift(pts, 0.25))
        assert calls

    def test_scan_cells_on_blocked_path_alone(self, noisy_two_sphere,
                                              monkeypatch):
        monkeypatch.setattr(segmentation, "_exact_neighbours", _no_fallback)
        count = _RowCount(monkeypatch)
        sizes = []
        for vids, vals in noisy_two_sphere["table"].cells.values():
            if len(vids) < 2:
                continue
            bw = default_bandwidth(vals)
            assert_same_clusters(meanshift(vals, bw),
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
        pts_sq = np.einsum("ij,ij->i", pts, pts)
        within = np.empty((n_modes, n_pts), dtype=bool)
        if not segmentation._FlatKernel(pts, bw2).mask(modes, within):
            # only a value near bw2 may send the step to the fallback
            assert np.abs(diff2 - bw2).min() <= 2 * _band(modes, pts)
            return
        np.testing.assert_array_equal(
            within, segmentation._exact_neighbours(modes, pts, pts_sq, bw2))
        np.testing.assert_array_equal(within, diff2 <= bw2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("duplicate", [False, True])
    @pytest.mark.parametrize("bw", [0.05, 2.0])
    def test_tiny_and_duplicate_inputs_match_reference(self, n, duplicate, bw):
        pts = np.random.default_rng(n).uniform(0, 1, (n, 3))
        if duplicate:
            pts = pts[[0] * n]
        assert_same_clusters(meanshift(pts, bw), reference_meanshift(pts, bw))


class TestSharedRows:
    """Steps with more than one buffer of entries build rows for leader modes
    and for the modes no leader's certified margin covers; the others take
    their leader's neighbour set."""

    @given(st.integers(0, 2**32 - 1), st.integers(182, 400), st.integers(1, 4),
           st.sampled_from([1e-3, 1.0, 1e3]), st.sampled_from([0.0, 0.01, 0.1]),
           st.booleans(), st.booleans(), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
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
        kernel = segmentation._FlatKernel(pts, bw2)
        modes = pts
        for _ in range(2):
            full = segmentation._exact_neighbours(modes, pts, kernel.pts_sq, bw2)
            with _fallback_spy() as fallback:
                rows, row_of = kernel.rows(modes)
            np.testing.assert_array_equal(rows[row_of], full)
            if fallback.called:
                # only a value near bw2 may send the step to the fallback
                diff2 = ((modes[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
                assert np.abs(diff2 - bw2).min() <= 2 * _band(modes, pts)
                break
            modes = (full @ pts) / full.sum(1)[:, None]
        assert_same_clusters(meanshift(pts, bw), reference_meanshift(pts, bw))

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
            kernel = segmentation._FlatKernel(pts, bw * bw)
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
        kernel = segmentation._FlatKernel(pts, 0.3 * 0.3)
        with _fallback_spy() as fallback:
            rows, row_of = kernel.rows(pts)
        assert not fallback.called
        # one row per mode
        np.testing.assert_array_equal(np.sort(row_of), np.arange(len(pts)))
        count = _RowCount(monkeypatch)
        assert_same_clusters(meanshift(pts, 0.3), reference_meanshift(pts, 0.3))
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
            assert_same_clusters(clusters, meanshift(pts, bw))

    def test_initial_clusters_make_one_call(self, noisy_two_sphere):
        table = noisy_two_sphere["table"]
        with mock.patch.object(segmentation, "meanshift",
                               wraps=segmentation.meanshift) as spy:
            clusters = initial_clusters(table)
        assert spy.call_count == 1
        samples, bandwidths, offsets = spy.call_args.args
        assert samples is table.samples and offsets is table.offsets
        assert len(bandwidths) == len(table.flats) and clusters


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


class TestMergeModes:
    """`_merge_modes` decides by one row of squared distances per center,
    and by the walk's scalar norm within a rounding band of (bandwidth/2)^2."""

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
        np.testing.assert_array_equal(segmentation._merge_modes(modes, bw),
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
            np.testing.assert_array_equal(
                segmentation._merge_modes(modes, 0.37), want)
            assert (len(calls) > 0) == (modes is ties)


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
    return GlobalCellTable(table_cells, np.arange(n)), gt


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
        table = GlobalCellTable({}, np.zeros(0, int))
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
        for flat, (vids, vals) in table.cells.items():
            out_vals = np.tile([5.0, 5.0, 5.0], (5, 1)) + rng.normal(0, 0.01, (5, 3))
            cells[flat] = (np.concatenate([vids, extra]),
                           np.vstack([vals, out_vals]))
        groups, _ = multi_material_segmentation(
            GlobalCellTable(cells, np.arange(n + 5)))
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
        table = GlobalCellTable(_moment_cells(rng, kinds, n1, n2, n_other, scale),
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
    table = GlobalCellTable(cells, np.arange(50))
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
        samples = table.cells[0][1]
        samples[20:40] = samples[:20]
        table = GlobalCellTable(table.cells, table.sampled_ids)
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
        table = GlobalCellTable(cells, np.arange(5))
        assert initial_clusters(table) == {}

    def test_small_clusters_discarded(self):
        rng = np.random.default_rng(17)
        main = rng.normal([0.5, 0.5, 0.5], 0.01, (100, 3))
        stray = rng.normal([5.0, 5.0, 5.0], 0.01, (3, 3))
        cells = {0: (np.arange(103), np.vstack([main, stray]))}
        table = GlobalCellTable(cells, np.arange(103))
        clusters = initial_clusters(table)
        assert len(clusters[0]) == 1
        assert len(clusters[0][0].members) == 100


class TestGlobalCellTable:
    def test_columns_hold_the_large_cells_in_flat_order(self, noisy_two_sphere):
        table = noisy_two_sphere["table"]
        large = [f for f, (vids, _) in table.cells.items()
                 if len(vids) >= MIN_CELL_SAMPLES]
        assert 0 < len(large) < len(table)
        np.testing.assert_array_equal(table.flats, sorted(large))
        for k, flat in enumerate(table.flats):
            for got, expected in zip(table.cell(k), table.cells[flat]):
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
        table = noisy_two_sphere["table"]
        flats = list(table.cells)
        np.random.default_rng(23).shuffle(flats)
        shuffled = GlobalCellTable({f: table.cells[f] for f in flats},
                                   table.sampled_ids)
        assert list(shuffled.cells) != list(table.cells)
        for name in ("flats", "vids", "samples", "offsets", "mask_size"):
            np.testing.assert_array_equal(getattr(shuffled, name),
                                          getattr(table, name))
        for segment in (two_material_segmentation, multi_material_segmentation):
            groups, diag = segment(shuffled)
            expected, expected_diag = segment(table)
            assert groups.groups == expected.groups
            assert groups.unclassified == expected.unclassified
            assert diag == expected_diag


class TestBuildGlobalTable:
    def test_budget_limits_vertices(self, noisy_two_sphere):
        records = noisy_two_sphere["records"]
        small = build_global_table(records, 500, 3)
        assert len(small.sampled_ids) == 500
        in_cells = set()
        for vids, _ in small.cells.values():
            in_cells.update(int(v) for v in vids)
        assert in_cells <= set(int(v) for v in small.sampled_ids)

    def test_deterministic(self, noisy_two_sphere):
        records = noisy_two_sphere["records"]
        a = build_global_table(records, 2000, 4)
        b = build_global_table(records, 2000, 4)
        np.testing.assert_array_equal(a.sampled_ids, b.sampled_ids)
        assert sorted(a.cells) == sorted(b.cells)


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
