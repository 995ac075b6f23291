"""Binning, accumulation, merging, completion and lookup of the 45x48 table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matscan import brdf_table
from matscan.brdf_table import (D_WIDTH, H_WIDTH, LOOKUP_BLOCK, N_CELLS, N_D,
                                N_H, SERIAL_HEADER, BrdfTable, bin_arrays,
                                cell_center, complete, dense_values, from_text,
                                lookup_arrays, merge, to_text)
import oracles
from oracles import HalfDiffAngles, bin_angles, group_rows, lookup


class TestBinning:
    def test_grid_shape(self):
        assert N_H == 45 and N_D == 48 and N_CELLS == 2160
        assert H_WIDTH == pytest.approx(2.0)
        assert D_WIDTH == pytest.approx(1.875)

    def test_bin_of_center_is_identity_everywhere(self):
        for h in range(N_H):
            for d in range(N_D):
                th, td = cell_center(h, d)
                assert bin_angles(HalfDiffAngles(th, td)) == (h, d)

    def test_edge_angles_clamped_into_grid(self):
        assert bin_angles(HalfDiffAngles(90.0, 90.0)) == (N_H - 1, N_D - 1)
        assert bin_angles(HalfDiffAngles(0.0, 0.0)) == (0, 0)

    def test_bin_arrays_matches_scalar(self):
        rng = np.random.default_rng(1)
        th = rng.uniform(0, 90, 500)
        td = rng.uniform(0, 90, 500)
        hs, ds = bin_arrays(th, td)
        for i in range(500):
            assert (hs[i], ds[i]) == bin_angles(HalfDiffAngles(th[i], td[i]))


def table_of(cells: dict) -> BrdfTable:
    """Table from {(h, d): (mean, count)}."""
    return BrdfTable.from_cells(list(cells), [m for m, _ in cells.values()],
                                [c for _, c in cells.values()])


def cell(table: BrdfTable, h: int, d: int):
    """(mean, count) of one cell, or None when absent."""
    row = np.searchsorted(table.flat, h * N_D + d)
    if row == len(table) or table.flat[row] != h * N_D + d:
        return None
    return table.means[row], int(table.counts[row])


class TestGroupRows:
    # few distinct values, so most draws repeat keys; min_size 0 gives the
    # empty input
    @given(st.lists(st.integers(-3, 3), min_size=0, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_partition_in_key_order_stable(self, raw):
        keys = np.array(raw, dtype=np.int64)
        groups = group_rows(keys)
        rows = np.concatenate([np.zeros(0, dtype=int), *groups])
        assert sorted(rows.tolist()) == list(range(len(keys)))
        firsts = [keys[g[0]] for g in groups]
        assert firsts == sorted(set(raw))
        for g in groups:
            assert len(g) and np.all(keys[g] == keys[g[0]])
            assert np.all(np.diff(g) > 0)


class TestAccumulation:
    """Tables as `from_cells` builds them from accumulated cells."""

    def test_from_cells_sorts_by_flat_index(self):
        t = BrdfTable.from_cells([(4, 7), (0, 3), (4, 0)],
                                 [[1.0, 2.0, 3.0], [0.5, 0.5, 0.5], [0.0, 1.0, 0.0]],
                                 [3, 1, 0])
        np.testing.assert_array_equal(t.flat, [3, 4 * N_D, 4 * N_D + 7])
        np.testing.assert_array_equal(t.counts, [1, 0, 3])
        np.testing.assert_array_equal(
            t.means, [[0.5, 0.5, 0.5], [0.0, 1.0, 0.0], [1.0, 2.0, 3.0]])

    def test_empty_table(self):
        t = BrdfTable()
        assert len(t) == 0 and t.measured_count == 0
        assert len(BrdfTable.from_cells([], [], [])) == 0

    @pytest.mark.parametrize("indices, means, counts", [
        ([(N_H, 0)], [[1, 1, 1]], [1]),
        ([(0, N_D)], [[1, 1, 1]], [1]),
        ([(-1, 0)], [[1, 1, 1]], [1]),
        ([(0, -1)], [[1, 1, 1]], [1]),
        ([(2, 3), (2, 3)], [[1, 1, 1], [2, 2, 2]], [1, 1]),
        ([(0, 0)], [[np.nan, 1, 1]], [1]),
        ([(0, 0)], [[1, np.inf, 1]], [1]),
        ([(0, 0)], [[1, 1, -0.5]], [1]),
        ([(0, 0)], [[1, 1, 1]], [-1]),
        ([(0, 0), (1, 1)], [[1, 1, 1]], [1, 1]),
        ([(0.6, 0)], [[1, 1, 1]], [1]),
        ([(0, 0)], [[1, 1, 1]], [1.0]),
    ], ids=["h-high", "d-high", "h-negative", "d-negative", "duplicate",
            "nan-mean", "inf-mean", "negative-mean", "negative-count",
            "length-mismatch", "float-index", "float-count"])
    def test_from_cells_rejects_bad_input(self, indices, means, counts):
        with pytest.raises(ValueError):
            BrdfTable.from_cells(indices, means, counts)

    def test_measured_count_ignores_synthetic(self):
        t = BrdfTable.from_cells([(0, 0), (1, 1)], [[1, 1, 1], [2, 2, 2]], [5, 0])
        assert len(t) == 2
        assert t.measured_count == 1


# one raw rgb sample: (table it goes to, h_bin, d_bin, rgb)
raw_sample = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
                       st.lists(st.floats(0.0, 2.0, allow_subnormal=False),
                                min_size=3, max_size=3))


def tables_and_pool(samples):
    """Per-table cell means of the raw samples, and the pooled samples per cell."""
    per_table, pooled = {}, {}
    for k, h, d, s in samples:
        per_table.setdefault(k, {}).setdefault((h, d), []).append(s)
        pooled.setdefault((h, d), []).append(s)
    tables = [table_of({c: (np.mean(v, axis=0), len(v)) for c, v in cells.items()})
              for cells in per_table.values()]
    return tables, pooled


class TestMerge:
    def test_count_weighted_mean(self):
        a = BrdfTable.from_cells([(3, 3)], [[1.0, 0.0, 0.0]], [1])
        b = BrdfTable.from_cells([(3, 3)], [[4.0, 0.0, 0.0]], [3])
        mean, count = cell(merge([a, b]), 3, 3)
        assert count == 4
        assert mean[0] == pytest.approx((1.0 + 3 * 4.0) / 4)

    def test_union_of_cells(self):
        a = BrdfTable.from_cells([(0, 0)], [[1, 1, 1]], [2])
        b = BrdfTable.from_cells([(1, 0)], [[2, 2, 2]], [2])
        m = merge([a, b])
        np.testing.assert_array_equal(m.flat, [0, N_D])

    def test_synthetic_cells_not_merged(self):
        a = BrdfTable.from_cells([(0, 0)], [[1, 1, 1]], [0])
        b = BrdfTable.from_cells([(0, 0)], [[5, 5, 5]], [2])
        mean, count = cell(merge([a, b]), 0, 0)
        assert count == 2
        assert mean[0] == pytest.approx(5.0)

    @given(st.lists(raw_sample, min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_merge_equals_pooled_accumulation(self, samples):
        tables, pooled = tables_and_pool(samples)
        m = merge(tables)
        assert len(m) == len(pooled)
        for (h, d), values in pooled.items():
            mean, count = cell(m, h, d)
            assert count == len(values)
            np.testing.assert_allclose(mean, np.mean(values, axis=0),
                                       rtol=1e-12, atol=0)

    @given(st.lists(raw_sample, min_size=1, max_size=60), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_merge_order_independent(self, samples, seed):
        tables, _ = tables_and_pool(samples)
        shuffled = list(tables)
        np.random.default_rng(seed).shuffle(shuffled)
        a, b = merge(tables), merge(shuffled)
        np.testing.assert_array_equal(a.flat, b.flat)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_allclose(a.means, b.means, rtol=1e-12, atol=0)


def assert_same_table(a: BrdfTable, b: BrdfTable):
    for name in ("flat", "means", "counts"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y)


class TestMergeGroups:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_equals_row_order_oracle(self, seed, n_vertices, n_groups):
        """Bit for bit, dtypes included, with rows of group -1, synthetic
        rows, a group without rows (the last) and cells that many vertices
        share; `merge` of each group's tables gives the same tables."""
        rng = np.random.default_rng(seed)
        pool = rng.choice(N_CELLS, 6, replace=False)
        tables = []
        for _ in range(n_vertices):
            k = int(rng.integers(1, len(pool) + 1))
            tables.append(BrdfTable(np.sort(rng.choice(pool, k, replace=False)),
                                    rng.uniform(0, 2, (k, 3)),
                                    rng.integers(0, 4, k)))
        labels = rng.integers(-1, n_groups, n_vertices)
        rows = (np.repeat(labels, [len(t) for t in tables]),
                *(np.concatenate([getattr(t, name) for t in tables])
                  for name in ("flat", "means", "counts")), n_groups + 1)
        got = brdf_table.merge_groups(*rows)
        want = oracles.merged_groups(*rows)
        assert len(got) == len(want) == n_groups + 1
        for g, (table, expected) in enumerate(zip(got, want)):
            assert_same_table(table, expected)
            mine = [t for t, label in zip(tables, labels) if label == g]
            if mine:
                assert_same_table(merge(mine), expected)


class TestCompletion:
    def test_constant_rows_fill_exactly(self):
        val = np.array([0.4, 0.5, 0.6])
        measured = [(2, 1), (2, 40), (30, 1), (30, 40)]
        c = complete(table_of({hd: (val, 1) for hd in measured}))
        assert len(c) == N_CELLS
        np.testing.assert_array_equal(c.flat, np.arange(N_CELLS))
        np.testing.assert_allclose(c.means, np.tile(val, (N_CELLS, 1)), atol=1e-12)
        for h in range(N_H):
            for d in range(N_D):
                assert cell(c, h, d)[1] == (1 if (h, d) in measured else 0)

    def test_interpolates_along_h(self):
        t = table_of({(0, 0): ([0.0, 0.0, 0.0], 1), (4, 0): ([4.0, 4.0, 4.0], 1)})
        mean, count = cell(complete(t), 2, 0)
        assert count == 0
        np.testing.assert_allclose(mean, [2.0, 2.0, 2.0], atol=1e-12)

    def test_interpolates_along_d_for_empty_lines(self):
        t = table_of({(0, 0): ([0.0, 0.0, 0.0], 1), (0, 4): ([4.0, 8.0, 4.0], 1)})
        c = complete(t)
        for h in (0, 20, N_H - 1):
            mean, count = cell(c, h, 1)
            assert count == 0
            np.testing.assert_allclose(mean, [1.0, 2.0, 1.0], atol=1e-12)

    def test_needs_at_least_two_measured_cells(self):
        t = table_of({(0, 0): ([1.0, 1.0, 1.0], 1), (3, 3): ([1.0, 1.0, 1.0], 0)})
        with pytest.raises(ValueError):
            complete(t)

    def test_preserves_measured_cells(self):
        rng = np.random.default_rng(3)
        cells = {(int(rng.integers(0, N_H)), int(rng.integers(0, N_D))):
                 (rng.uniform(0, 1, 3), int(rng.integers(1, 5))) for _ in range(40)}
        c = complete(table_of(cells))
        for (h, d), (mean, count) in cells.items():
            np.testing.assert_allclose(cell(c, h, d)[0], mean, atol=1e-12)
            assert cell(c, h, d)[1] == count


    def test_output_is_what_the_checked_constructor_builds(self):
        rng = np.random.default_rng(8)
        cells = {(int(rng.integers(0, N_H)), int(rng.integers(0, N_D))):
                 (rng.uniform(0, 1, 3), int(rng.integers(0, 5))) for _ in range(40)}
        c = complete(table_of(cells))
        assert_same_table(c, BrdfTable.from_cells(
            brdf_table.cell_indices(np.arange(N_CELLS)), c.means, c.counts))


def full_table(rng):
    """Every cell measured once with a random mean."""
    return BrdfTable.from_cells(brdf_table.cell_indices(np.arange(N_CELLS)),
                                rng.uniform(0, 1, (N_CELLS, 3)),
                                np.ones(N_CELLS, dtype=int))


class TestLookup:
    def test_constant_table_lookup_constant(self):
        val = np.array([0.3, 0.6, 0.9])
        c = complete(table_of({(0, 0): (val, 1), (N_H - 1, N_D - 1): (val, 1)}))
        rng = np.random.default_rng(4)
        th = rng.uniform(0, 90, 200)
        td = rng.uniform(0, 90, 200)
        out = lookup_arrays(c, th, td)
        np.testing.assert_allclose(out, np.tile(val, (200, 1)), atol=1e-12)

    def test_lookup_at_center_returns_cell_value(self):
        rng = np.random.default_rng(5)
        t = full_table(rng)
        for _ in range(50):
            h = int(rng.integers(0, N_H))
            d = int(rng.integers(0, N_D))
            th, td = cell_center(h, d)
            np.testing.assert_allclose(lookup(t, HalfDiffAngles(th, td)),
                                       cell(t, h, d)[0], atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, LOOKUP_BLOCK - 1, LOOKUP_BLOCK,
                                   LOOKUP_BLOCK + 1, 3 * LOOKUP_BLOCK + 7])
    def test_blocks_equal_unblocked_oracle(self, n):
        """Angles inside the grid, on its edges and beyond them, at a number
        of pairs below, at and just past a block and over several blocks."""
        rng = np.random.default_rng(n)
        t = full_table(rng)
        th = rng.uniform(-5.0, 95.0, n)
        td = rng.uniform(-5.0, 95.0, n)
        edges = np.array([0.0, 90.0, H_WIDTH / 2, 90.0 - D_WIDTH / 2])
        k = min(n, len(edges))
        th[:k], td[:k] = edges[:k], edges[::-1][:k]
        got = lookup_arrays(t, th, td)
        expected = oracles.lookup_arrays(t, th, td)
        assert got.shape == expected.shape == (n, 3)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_lookup_requires_complete_table(self):
        t = table_of({(0, 0): ([1.0, 1.0, 1.0], 1)})
        with pytest.raises(ValueError):
            lookup(t, HalfDiffAngles(1.0, 1.0))

    def test_dense_values_shape(self):
        t = full_table(np.random.default_rng(6))
        dense = dense_values(t)
        assert dense.shape == (N_H, N_D, 3)
        np.testing.assert_array_equal(dense[7, 11], cell(t, 7, 11)[0])


class TestSerialization:
    def test_golden_text(self):
        t = BrdfTable.from_cells(
            [(2, 5), (0, 1), (44, 47)],
            [[0.1, 0.2, 1 / 3], [1.0, 0.0, 2.5], [1e-20, 123456.789, 0.7]],
            [3, 1, 0])
        assert to_text(t) == (
            "brdftable v1 45 48\n"
            "0 1 1 1 0 2.5\n"
            "2 5 3 0.10000000000000001 0.20000000000000001 0.33333333333333331\n"
            "44 47 0 9.9999999999999995e-21 123456.789 0.69999999999999996\n")
        assert to_text(BrdfTable()) == "brdftable v1 45 48\n"

    def test_text_round_trip(self):
        rng = np.random.default_rng(6)
        t = table_of({(int(rng.integers(0, N_H)), int(rng.integers(0, N_D))):
                      (rng.uniform(0, 2, 3), int(rng.integers(0, 4)))
                      for _ in range(30)})
        back = from_text(to_text(t))
        np.testing.assert_array_equal(back.flat, t.flat)
        np.testing.assert_array_equal(back.counts, t.counts)
        np.testing.assert_array_equal(back.means, t.means)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            from_text("bogus header\n")

    @pytest.mark.parametrize("line", ["0 1 1 0.5 0.5", "45 0 1 0.5 0.5 0.5",
                                      "0 1 1 0.5 nan 0.5", "0 1 -2 0.5 0.5 0.5"])
    def test_bad_cell_line_rejected(self, line):
        with pytest.raises(ValueError):
            from_text(f"{SERIAL_HEADER}\n{line}\n")
