"""Re-rendering, matching/purity evaluation and PPM output."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matscan import brdf_table, estimation, render_eval, scenes, segmentation
from matscan.brdf_table import (N_CELLS, N_D, BrdfTable, cell_center,
                                cell_indices, complete)
from matscan.render_eval import (PPM_BLOCK, evaluate, greedy_match,
                                 render_material_sphere, rerender_intensities,
                                 rerender_ir_frame, scalar_reflectance,
                                 table_rmse, write_ppm)
from matscan.segmentation import MaterialGroups
from matscan.simulator import (GroundTruthMaterial, NoiseConfig, default_camera,
                               eval_ground_truth_brdf, ir_frame_times,
                               make_default_rig, simulate_scan)

import oracles
from conftest import make_scan_config
from oracles import read_ppm

MB = 2**20


def constant_table(value):
    return complete(BrdfTable.from_cells([(0, 0), (44, 47)], [value, value], [1, 1]))


def analytic_table(mat, flat):
    """Table whose cells hold the material's ground truth at the cell centers."""
    cells = cell_indices(flat)
    th, td = cell_center(*cells.T)
    return BrdfTable.from_cells(
        cells, mat.color * eval_ground_truth_brdf(mat, th, td)[:, None],
        np.ones(len(cells), dtype=int))


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


class TestScalarReflectance:
    def test_norm_of_unit_color_times_f(self):
        color = np.array([0.6, 0.8, 0.0])
        assert scalar_reflectance(color * 0.37) == pytest.approx(0.37)

    def test_vectorized(self):
        vals = np.array([[0.3, 0.0, 0.4], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(scalar_reflectance(vals), [0.5, 1.0])


class TestGreedyMatch:
    def test_clean_overlap(self):
        gt = np.array([0, 0, 0, 1, 1, 1])
        matched = greedy_match([{0, 1, 2}, {3, 4, 5}], gt)
        assert matched == {0: 0, 1: 1}

    def test_each_gt_label_used_once(self):
        gt = np.array([0, 0, 0, 0])
        matched = greedy_match([{0, 1, 2}, {3}], gt)
        assert matched == {0: 0}

    def test_zero_overlap_not_matched(self):
        gt = np.array([0, 0, 1, 1])
        matched = greedy_match([{0, 1}], gt)
        assert matched == {0: 0}


@st.composite
def segmentations(draw):
    """(groups, unclassified, ground-truth labels) over up to 40 vertices of
    up to 5 labels: each vertex in one group, unclassified or unsampled, so
    groups may be empty, labels held by no group and overlaps tied."""
    n = draw(st.integers(0, 40))
    gt = np.array(draw(st.lists(st.integers(0, draw(st.integers(0, 4))),
                                min_size=n, max_size=n)), dtype=int)
    n_groups = draw(st.integers(0, 6))
    # -1 unclassified, -2 unsampled
    slot = np.array(draw(st.lists(st.integers(-2, n_groups - 1), min_size=n,
                                  max_size=n)), dtype=int)
    groups = [set(np.flatnonzero(slot == g).tolist()) for g in range(n_groups)]
    return groups, set(np.flatnonzero(slot == -1).tolist()), gt


class TestOverlapMatrix:
    """`greedy_match` and `evaluate` from one overlap matrix against the
    per-pair loop and per-group purity of `oracles`."""

    @given(segmentations())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_pair_loop(self, case):
        groups, unclassified, gt = case
        matched = oracles.greedy_match(groups, gt)
        assert greedy_match(groups, gt) == matched
        rep = evaluate(MaterialGroups(groups, unclassified), gt, [], [])
        assert rep.matched_labels == matched
        assert rep.purity == oracles.purity(groups, gt, matched)
        assert rep.group_counts == [len(g) for g in groups]
        classified = sum(len(g) for g in groups)
        assert rep.purity_vacuous == (classified == 0)
        sampled = classified + len(unclassified)
        assert rep.classified_fraction == (classified / sampled if sampled else 0.0)

    def test_tied_overlaps_take_the_lowest_pair(self):
        # every pair overlaps by 1: group 0 takes label 0, group 1 label 1
        gt = np.array([0, 1, 0, 1])
        assert greedy_match([{0, 1}, {2, 3}], gt) == {0: 0, 1: 1}
        # both groups overlap label 0 by 1: the lower group takes it
        assert greedy_match([{0}, {1}, set()], np.array([0, 0])) == {0: 0}

    def test_negative_label_raises(self):
        with pytest.raises(ValueError, match="negative"):
            greedy_match([{0}], np.array([-1, 0]))


class TestEvaluate:
    def test_perfect_segmentation(self):
        gt = np.array([0] * 5 + [1] * 5)
        groups = MaterialGroups([set(range(5)), set(range(5, 10))], set())
        rep = evaluate(groups, gt, [], [])
        assert rep.purity == 1.0
        assert rep.classified_fraction == 1.0
        assert not rep.purity_vacuous

    def test_impure_group(self):
        gt = np.array([0, 0, 0, 1])
        groups = MaterialGroups([{0, 1, 2, 3}], set())
        rep = evaluate(groups, gt, [], [])
        assert rep.purity == pytest.approx(0.75)

    def test_unclassified_lowers_fraction_not_purity(self):
        gt = np.array([0, 0, 0, 0])
        groups = MaterialGroups([{0, 1}], {2, 3})
        rep = evaluate(groups, gt, [], [])
        assert rep.purity == 1.0
        assert rep.classified_fraction == pytest.approx(0.5)

    def test_empty_groups_flagged_vacuous(self):
        rep = evaluate(MaterialGroups([], {0, 1}), np.array([0, 0]), [], [])
        assert rep.purity_vacuous

    def test_report_text_round_numbers(self):
        gt = np.array([0, 0])
        rep = evaluate(MaterialGroups([{0, 1}], set()), gt, [], [])
        text = rep.to_text()
        assert "purity 1.000000" in text
        assert "classified_fraction 1.000000" in text


class TestTableRmse:
    def test_exact_table_zero_rmse(self):
        mat = GroundTruthMaterial(np.array([0.4, 0.4, 0.4]), 0.0, 1.0,
                                  np.array([1.0, 2.0, 2.0]))
        flat = (np.arange(0, 45, 5)[:, None] * N_D + np.arange(0, 48, 6)).ravel()
        assert table_rmse(analytic_table(mat, flat), mat) == \
            pytest.approx(0.0, abs=1e-12)

    def test_matches_per_cell_loop(self):
        mat = GroundTruthMaterial(np.array([0.3, 0.5, 0.2]), 0.4, 30.0,
                                  np.array([0.6, 0.8, 0.0]))
        rng = np.random.default_rng(1)
        t = BrdfTable.from_cells(cell_indices(rng.choice(N_CELLS, 60, replace=False)),
                                 rng.uniform(0, 1, (60, 3)), rng.integers(0, 3, 60))
        errs = []
        for flat, mean, count in zip(t.flat, t.means, t.counts):
            if count > 0:
                truth = mat.color * eval_ground_truth_brdf(
                    mat, *cell_center(*divmod(int(flat), N_D)))
                errs.append(np.sum((mean - truth) ** 2))
        assert table_rmse(t, mat) == pytest.approx(np.sqrt(np.mean(errs)),
                                                   rel=1e-12)

    def test_empty_table_nan(self):
        mat = GroundTruthMaterial(np.array([0.4, 0.4, 0.4]), 0.0, 1.0,
                                  np.array([1.0, 1.0, 1.0]))
        assert np.isnan(table_rmse(BrdfTable(), mat))
        synthetic = BrdfTable.from_cells([(1, 1)], [[0.5, 0.5, 0.5]], [0])
        assert np.isnan(table_rmse(synthetic, mat))

    def test_evaluate_reports_table_rmse(self):
        mats = [GroundTruthMaterial(np.array([0.4, 0.4, 0.4]), 0.2, 10.0,
                                    np.array([1.0, 0.0, 0.0])),
                GroundTruthMaterial(np.array([0.2, 0.2, 0.2]), 0.0, 1.0,
                                    np.array([0.0, 1.0, 0.0]))]
        t = constant_table([0.5, 0.1, 0.1])
        groups = MaterialGroups([{0, 1}, {2}], set())
        rep = evaluate(groups, np.array([1, 1, 0]), [t, BrdfTable()], mats)
        assert rep.brdf_rmse_per_material[0] == table_rmse(t, mats[1])
        assert np.isnan(rep.brdf_rmse_per_material[1])


class TestSphereRender:
    def test_image_bounds_and_background(self):
        img = render_material_sphere(constant_table([0.5, 0.5, 0.5]),
                                     [0.3, 0.3, 1.0], resolution=64)
        assert img.shape == (64, 64, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert np.all(img[0, 0] == 0.0)  # corner is outside the sphere

    def test_lit_center_bright_rim_dark(self):
        img = render_material_sphere(constant_table([0.9, 0.9, 0.9]),
                                     [0.0, 0.0, 1.0], resolution=65)
        c = img[32, 32, 0]
        rim = img[32, 2, 0]
        assert c > rim

    def test_traced_peak(self):
        """The directions are read-only views and the lookup runs in blocks:
        the sphere of the render stage's size stays below 3 MB traced."""
        table = constant_table([0.5, 0.4, 0.3])
        assert traced_peak(lambda: render_material_sphere(
            table, [0.3, 0.3, 1.0], resolution=128)) < 3.0 * MB


class TestRerender:
    def test_noiseless_lambertian_reconstruction(self, noiseless_two_sphere):
        # tables that exactly reproduce a lambertian forward model give an
        # exact re-render; full-noise variants are covered by the acceptance
        # suite
        run = noiseless_two_sphere
        scene, cfg = run["scene"], run["config"]
        labels = scene.material_ids.copy()
        tables = []
        for mat in scene.materials:
            # exact analytic table for this material
            tables.append(analytic_table(mat, np.arange(N_CELLS)))
        model = rerender_intensities(run["ir"], scene, labels, tables,
                                     run["trajectory"], cfg.rig, cfg.camera)
        sel = (model > 0) & (run["ir"].intensity > 0)
        # glossy lobe varies inside a cell, so only require close agreement
        rel = np.abs(model[sel] - run["ir"].intensity[sel]) / run["ir"].intensity[sel]
        assert np.median(rel) < 0.05

    def test_unclassified_uses_fallback(self, noiseless_two_sphere):
        run = noiseless_two_sphere
        scene, cfg = run["scene"], run["config"]
        labels = np.full(len(scene), -1)
        model = rerender_intensities(run["ir"], scene, labels, [],
                                     run["trajectory"], cfg.rig, cfg.camera)
        assert np.all(model >= 0)
        assert model.max() > 0

    def test_frame_image_shape(self, noiseless_two_sphere):
        run = noiseless_two_sphere
        scene, cfg = run["scene"], run["config"]
        labels = np.full(len(scene), -1)
        t = float(run["ir"].frame_time[0])
        img = rerender_ir_frame(scene, labels, [], run["trajectory"], t, 0,
                                cfg.rig, cfg.camera, exposure=3.0)
        assert img.shape == (cfg.camera.height, cfg.camera.width, 3)
        assert img.max() <= 1.0 and img.min() >= 0.0
        assert img.sum() > 0

    def test_frame_is_splat_of_simulated_intensities(self):
        # noiseless lambertian scan, exact tables: the re-rendered frame is
        # the max-splat of the simulated intensities of that frame
        materials = scenes.lambertian_materials(
            scenes.default_materials(["red_glossy", "blue_matte"]))
        scene = scenes.make_scene("two-sphere", 800, 5, materials)
        traj = scenes.arc_trajectory(50, 10.0)
        cfg = make_scan_config(traj, NoiseConfig(rng_seed=5), 80)
        ir, _ = simulate_scan(scene, cfg)
        t0 = float(ir_frame_times(cfg)[0])
        assert ir.frame_time[0] == t0 and ir.frame_led[0] == 0
        rows = slice(ir.frame_offsets[0], ir.frame_offsets[1])
        tables = [analytic_table(m, np.arange(N_CELLS)) for m in materials]
        exposure = 2.0
        img = rerender_ir_frame(scene, scene.material_ids, tables, traj, t0, 0,
                                cfg.rig, cfg.camera, exposure=exposure)
        cam = cfg.camera
        px = np.clip(ir.pixel[rows, 0].astype(int), 0, cam.width - 1)
        py = np.clip(ir.pixel[rows, 1].astype(int), 0, cam.height - 1)
        expected = np.zeros((cam.height, cam.width))
        np.maximum.at(expected, (py, px), ir.intensity[rows] * exposure)
        expected = np.clip(expected, 0.0, 1.0)
        assert ((expected > 0) & (expected < 1)).sum() > 300
        for c in range(3):
            np.testing.assert_allclose(img[:, :, c], expected, rtol=0, atol=1e-12)

    def test_traced_peak_is_the_frame(self):
        """The frame of the CLI benchmark's scan (two-sphere, 250 vertices)
        is clipped in place: the traced peak is the one (518, 694) float64
        frame of 2.74 MB and a little more, below 3 MB."""
        scene = scenes.make_scene("two-sphere", 250, 5)
        tables = [analytic_table(m, np.arange(N_CELLS)) for m in scene.materials]
        traj = scenes.arc_trajectory(50, 10.0)
        camera, rig = default_camera(), make_default_rig()
        assert (camera.height, camera.width) == (518, 694)

        def frame():
            return rerender_ir_frame(scene, scene.material_ids, tables, traj,
                                     0.0, 0, rig, camera, exposure=2.0)

        assert frame().sum() > 0
        assert traced_peak(frame) < 3.0 * MB


def ppm_test_image(rng, height: int, width: int, gray: bool) -> np.ndarray:
    """Values at or below 0, in (0, 1], above 1, +inf and NaN; a read-only
    view of one gray channel repeated three times if `gray`, else a full
    rgb image."""
    shape = (height, width) if gray else (height, width, 3)
    img = rng.uniform(-0.5, 1.5, shape)
    img[rng.random(shape) < 0.5] = 0.0
    img[rng.random(shape) < 0.01] = np.inf
    img[rng.random(shape) < 0.01] = np.nan
    img[rng.random(shape) < 0.01] = -np.inf
    if gray:
        return np.broadcast_to(img[:, :, None], (height, width, 3))
    return img


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (8, 10, 3))
        path = tmp_path / "x.ppm"
        write_ppm(path, img, gamma=1.0)
        back = read_ppm(path)
        assert back.shape == (8, 10, 3)
        assert np.abs(back - img).max() < 1.0 / 255.0

    def test_gamma_applied(self, tmp_path):
        img = np.full((2, 2, 3), 0.25)
        path = tmp_path / "g.ppm"
        write_ppm(path, img)  # default gamma 1/2.2
        back = read_ppm(path)
        assert back[0, 0, 0] == pytest.approx(0.25 ** (1 / 2.2), abs=0.01)

    @pytest.mark.parametrize("gamma", [1.0 / 2.2, 1.0, 2.0])
    def test_bytes_equal_clip_then_power_of_every_value(self, tmp_path, gamma):
        """A mostly black frame with exact 0s and 1s, values in between, and
        values out of range on both sides."""
        rng = np.random.default_rng(3)
        img = np.zeros((52, 69, 3))
        lit = rng.random(img.shape) < 0.1
        img[lit] = rng.uniform(-0.5, 1.5, lit.sum())
        img[0, :6, 0] = [0.0, -0.0, 1.0, -1e300, np.inf, -np.inf]
        img[1, :4, 1] = [1.0 + 2**-52, 1.0 - 2**-53, 5e-324, 1e-300]
        path = tmp_path / "frame.ppm"
        write_ppm(path, img, gamma)
        old = (np.clip(img, 0.0, 1.0) ** gamma * 255.0 + 0.5).astype(np.uint8)
        assert path.read_bytes() == b"P6\n69 52\n255\n" + old.tobytes()

    # rows per block of a 694-pixel row: heights of one row, a block less a
    # row, one block, a block and a row, and the re-rendered frame's
    @pytest.mark.parametrize("height", [1, PPM_BLOCK // (3 * 694) - 1,
                                        PPM_BLOCK // (3 * 694),
                                        PPM_BLOCK // (3 * 694) + 1, 518])
    @pytest.mark.parametrize("gray", [True, False])
    @pytest.mark.parametrize("gamma", [1.0, 1.0 / 2.2])
    def test_blocks_equal_whole_image_oracle(self, tmp_path, height, gray, gamma):
        img = ppm_test_image(np.random.default_rng(height), height, 694, gray)
        before = img.copy()
        write_ppm(tmp_path / "blocked.ppm", img, gamma)
        np.testing.assert_array_equal(img, before)  # clipped in a copy only
        oracles.write_ppm(tmp_path / "whole.ppm", img, gamma)
        assert (tmp_path / "blocked.ppm").read_bytes() == \
            (tmp_path / "whole.ppm").read_bytes()

    def test_rows_wider_than_a_block(self, tmp_path):
        """A row of more than `PPM_BLOCK` values is written as one block."""
        img = ppm_test_image(np.random.default_rng(1), 3, PPM_BLOCK // 3 + 5, False)
        write_ppm(tmp_path / "blocked.ppm", img)
        oracles.write_ppm(tmp_path / "whole.ppm", img)
        assert (tmp_path / "blocked.ppm").read_bytes() == \
            (tmp_path / "whole.ppm").read_bytes()

    def test_traced_peak_of_a_frame(self, tmp_path):
        """A (518, 694) frame lit at every pixel, as the re-render's read-only
        gray view, is converted and written block by block: the traced peak
        stays below 0.5 MB, a sixth of the frame's 2.74 MB."""
        gray = np.random.default_rng(2).uniform(0.01, 1.0, (518, 694))
        frame = np.broadcast_to(gray[:, :, None], (518, 694, 3))
        assert traced_peak(lambda: write_ppm(tmp_path / "frame.ppm", frame)) \
            < 0.5 * MB
