"""Color estimation, image-formation inversion, per-vertex accumulation and
the columnar records."""

import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from matscan import brdf_table, estimation, segmentation
from matscan.brdf_table import N_CELLS, N_D, cell_indices, sorted_cells
from matscan.estimation import (GRAZING_DEG, MIN_COLOR_SAMPLES, Rejection,
                                VertexRecords, invert_observation_arrays)
from matscan.simulator import (GroundTruthMaterial, RgbObservations,
                               default_camera, vignette)

from oracles import invert_image_formation, look_at, render_ir_intensity


def estimate_vertex_color(samples, ang, saturation_level):
    """The color `estimate_colors` gives one vertex's samples, or None."""
    obs = RgbObservations(np.zeros(len(samples), dtype=int),
                          np.asarray(samples, dtype=float), np.asarray(ang))
    return estimation.estimate_colors(obs, saturation_level).get(0)


class TestVertexColor:
    def test_median_then_normalize(self):
        base = np.array([0.8, 0.4, 0.1])
        samples = np.array([base * s for s in (0.5, 0.7, 0.9, 1.1)])
        c = estimate_vertex_color(samples, np.zeros(4), 8.0)
        np.testing.assert_allclose(c, base / np.linalg.norm(base), atol=1e-12)

    def test_outlier_resistant_median(self):
        base = np.array([0.1, 0.2, 0.9])
        samples = np.array([base] * 9 + [np.array([7.0, 7.0, 7.0])])
        c = estimate_vertex_color(samples, np.zeros(10), 8.0)
        np.testing.assert_allclose(c, base / np.linalg.norm(base), atol=1e-12)

    def test_grazing_and_saturated_filtered(self):
        good = np.array([0.2, 0.4, 0.6])
        samples = np.array([good, good, good,
                            [9.0, 9.0, 9.0],   # saturated in every channel
                            [0.9, 0.9, 0.9]])  # grazing
        ang = np.array([10.0, 20.0, 30.0, 10.0, GRAZING_DEG + 5.0])
        c = estimate_vertex_color(samples, ang, 8.0)
        np.testing.assert_allclose(c, good / np.linalg.norm(good), atol=1e-12)

    def test_too_few_samples_gives_none(self):
        samples = np.array([[0.1, 0.2, 0.3]] * (MIN_COLOR_SAMPLES - 1))
        assert estimate_vertex_color(samples, np.zeros(len(samples)), 8.0) is None

    def test_traced_peak_per_kept_row(self, large_demo_two_sphere):
        """One sort key per channel, of vertex and position in value order,
        and no rank arrays: below 90 B per kept row (115 B at the parent
        commit)."""
        rgb = large_demo_two_sphere["rgb"]
        sat = large_demo_two_sphere["config"].saturation_level
        kept = np.count_nonzero((rgb.omega_out_angle <= GRAZING_DEG)
                                & np.all(rgb.rgb < sat, axis=1))
        assert kept > 100_000
        estimation.estimate_colors(rgb, sat)
        tracemalloc.start()
        try:
            estimation.estimate_colors(rgb, sat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 90 * kept

    def test_estimate_colors_unit_norm(self, noisy_two_sphere):
        colors = noisy_two_sphere["colors"]
        assert len(colors) > 1000
        for c in list(colors.values())[:100]:
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)


class TestInversion:
    def _setup(self):
        cam = default_camera()
        pose = look_at([0.0, 0.0, -0.9], [0.0, 0.0, 0.0])
        mat = GroundTruthMaterial(np.array([0.5, 0.4, 0.3]), 0.4, 20.0,
                                  np.array([1.0, 1.0, 1.0]))
        p = np.array([0.02, -0.01, 0.0])
        n = np.array([0.0, 0.0, -1.0])
        led_world = pose.transform(np.array([0.08, 0.0, 0.0]))
        pixel = (cam.cx + 40.0, cam.cy - 25.0)
        vig = float(vignette(pixel, cam))
        intensity = render_ir_intensity(p, n, mat, led_world, 1.0, pose, vig)
        return cam, pose, mat, p, n, led_world, pixel, intensity

    def test_round_trip_recovers_reflectance(self):
        cam, pose, mat, p, n, led_world, pixel, intensity = self._setup()
        out = invert_image_formation(intensity, pixel, p, n, pose, led_world,
                                     1.0, cam, 8.0)
        assert not isinstance(out, Rejection)
        angles, f = out
        expected = eval_f = float(
            render_ir_intensity(p, n, mat, led_world, 1.0, pose, 1.0))
        # compare through the analytic brdf instead of the render chain
        from matscan.simulator import eval_ground_truth_brdf
        assert f == pytest.approx(
            float(eval_ground_truth_brdf(mat, angles.theta_h)), rel=1e-12)

    def test_saturated_rejected(self):
        cam, pose, mat, p, n, led_world, pixel, intensity = self._setup()
        out = invert_image_formation(9.0, pixel, p, n, pose, led_world,
                                     1.0, cam, 8.0)
        assert out is Rejection.SATURATED

    def test_shadowed_rejected(self):
        cam, pose, mat, p, n, led_world, pixel, _ = self._setup()
        out = invert_image_formation(0.0, pixel, p, n, pose, led_world,
                                     1.0, cam, 8.0)
        assert out is Rejection.SHADOWED

    def test_grazing_incidence_rejected(self):
        cam, pose, mat, p, n, led_world, pixel, intensity = self._setup()
        tilted = np.array([np.sin(np.deg2rad(75)), 0.0, -np.cos(np.deg2rad(75))])
        out = invert_image_formation(intensity, pixel, p, tilted, pose,
                                     pose.transform(np.array([0.0, 0.0, 0.0])),
                                     1.0, cam, 8.0)
        assert out in (Rejection.GRAZING_IN, Rejection.GRAZING_OUT)

    def test_vignette_floor_rejected(self):
        cam, pose, mat, p, n, led_world, _, intensity = self._setup()
        far_pixel = (cam.cx + 5 * cam.fx, cam.cy)  # extreme off-axis ray
        out = invert_image_formation(intensity, far_pixel, p, n, pose,
                                     led_world, 1.0, cam, 8.0)
        assert out is Rejection.VIGNETTE_FLOOR

    def test_array_inversion_matches_scalar(self, noiseless_two_sphere):
        """One-row observation sets: the row's cell key and f, or its
        rejection, as the scalar inversion gives them; and the angles of the
        per-row oracle that the kernel tests hold the keys to."""
        run = noiseless_two_sphere
        ir, scene, cfg = run["ir"], run["scene"], run["config"]
        colored = np.ones(len(scene), dtype=bool)
        _, th, td, _, _ = oracles.invert_observation_arrays(
            ir, scene, run["trajectory"], cfg.rig, cfg.camera,
            cfg.saturation_level)
        poses = oracles.timed_poses(run["trajectory"])
        frame = oracles.row_frames(ir)
        rng = np.random.default_rng(1)
        rows = rng.choice(len(ir), size=64, replace=False)
        for r in rows:
            pose = oracles.interpolate_trajectory(poses, float(ir.frame_time[frame[r]]))
            vid = int(ir.vertex_id[r])
            led = int(ir.frame_led[frame[r]])
            out = invert_image_formation(
                float(ir.intensity[r]), (ir.pixel[r, 0], ir.pixel[r, 1]),
                scene.positions[vid], scene.normals[vid], pose,
                pose.transform(cfg.rig.positions[led]),
                float(cfg.rig.brightness[led]), cfg.camera,
                cfg.saturation_level)
            key, f, counts = invert_observation_arrays(
                oracles.ir_subset(ir, [r]), scene, run["trajectory"], cfg.rig,
                cfg.camera, cfg.saturation_level, colored)
            if isinstance(out, Rejection):
                assert len(key) == 0 and counts[out.value] == 1
            else:
                hb, db = brdf_table.bin_arrays(np.array([out[0].theta_h]),
                                               np.array([out[0].theta_d]))
                assert key.tolist() == [vid * N_CELLS + hb[0] * N_D + db[0]]
                assert f[0] == pytest.approx(out[1], rel=1e-12)
                assert counts["accepted"] == 1
                assert th[r] == pytest.approx(out[0].theta_h, abs=1e-9)
                assert td[r] == pytest.approx(out[0].theta_d, abs=1e-9)

    def test_array_rejection_reasons_match_scalar(self, noisy_two_sphere):
        """Every row gets the reason of the scalar inversion. A saturation
        level at the intensity median and far off-axis pixels on some rows
        make every reason occur."""
        run = noisy_two_sphere
        poses = oracles.timed_poses(run["trajectory"])
        ir, scene, cfg = run["ir"], run["scene"], run["config"]
        cam, rig = cfg.camera, cfg.rig
        colored = np.ones(len(scene), dtype=bool)
        sat = float(np.median(ir.intensity))
        pixel = ir.pixel.copy()
        pixel[::50] = (cam.cx + 5 * cam.fx, cam.cy)
        ir = dataclasses.replace(ir, pixel=pixel)
        frame = oracles.row_frames(ir)
        rng = np.random.default_rng(2)
        by_reason = {}
        for r in rng.permutation(len(ir))[:4000]:
            pose = oracles.interpolate_trajectory(poses, float(ir.frame_time[frame[r]]))
            vid, led = int(ir.vertex_id[r]), int(ir.frame_led[frame[r]])
            out = invert_image_formation(
                float(ir.intensity[r]), (pixel[r, 0], pixel[r, 1]),
                scene.positions[vid], scene.normals[vid], pose,
                pose.transform(rig.positions[led]), float(rig.brightness[led]),
                cam, sat)
            reason = out.value if isinstance(out, Rejection) else "accepted"
            by_reason.setdefault(reason, []).append(r)
        assert set(by_reason) == {r.value for r in Rejection} | {"accepted"}
        for reason, rows in by_reason.items():
            for r in rows[:15]:
                key, _, counts = invert_observation_arrays(
                    oracles.ir_subset(ir, [r]), scene, run["trajectory"], rig,
                    cam, sat, colored)
                assert counts[reason] == 1 and sum(counts.values()) == 1
                assert len(key) == (reason == "accepted")
        rows = np.sort(np.concatenate([np.array(v) for v in by_reason.values()]))
        counts = invert_observation_arrays(oracles.ir_subset(ir, rows), scene,
                                           run["trajectory"], rig, cam, sat,
                                           colored)[2]
        assert counts == {"skipped_no_color": 0,
                          **{k: len(v) for k, v in by_reason.items()}}


class TestAccumulation:
    def test_records_only_for_colored_vertices(self, noisy_two_sphere):
        run = noisy_two_sphere
        record_ids = {r.vertex_id for r in run["records"]}
        assert record_ids <= set(run["colors"].keys())

    def test_samples_are_color_times_reflectance(self, noiseless_two_sphere):
        run = noiseless_two_sphere
        ir, scene, cfg = run["ir"], run["scene"], run["config"]
        colors = estimation.estimate_colors(run["rgb"], cfg.saturation_level)
        records, _ = estimation.accumulate_vertex_tables(
            ir, scene, run["trajectory"], cfg.rig, colors, cfg.camera,
            cfg.saturation_level)
        assert len(records) > 0
        for rec in itertools.islice(records, 50):
            color = colors[rec.vertex_id]
            assert np.all(rec.table.counts > 0)
            # noiseless: every sample is the unit color scaled by f
            means = rec.table.means
            direction = means / np.linalg.norm(means, axis=1, keepdims=True)
            np.testing.assert_allclose(direction, np.tile(color, (len(means), 1)),
                                       atol=1e-9)

    def test_rejection_counts_cover_all_rows(self, noisy_two_sphere):
        counts = noisy_two_sphere["rejection_counts"]
        total = sum(v for v in counts.values())
        assert total == len(noisy_two_sphere["ir"])

    def test_traced_peak_scales_with_accepted_rows(self, noisy_two_sphere):
        """Beyond the observations, `accumulate_vertex_tables` holds what
        the accepted rows need and one chunk of rows, no full-length per-row
        array. A saturation level at the 30% quantile of the intensities
        leaves about one row in twelve accepted, so three floats per
        observation row would alone exceed the bound."""
        run = noisy_two_sphere
        ir, scene, cfg = run["ir"], run["scene"], run["config"]
        sat = float(np.quantile(ir.intensity, 0.3))
        tracemalloc.start()
        try:
            _, counts = estimation.accumulate_vertex_tables(
                ir, scene, run["trajectory"], cfg.rig, run["colors"],
                cfg.camera, sat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < counts["accepted"] < len(ir) / 10
        assert peak < 200 * counts["accepted"]

    def test_traced_peak_per_accepted_row(self, large_demo_two_sphere):
        """The kept rows are written in place into two columns allocated
        once, and summed per cell a chunk of rows at a time, with no sorted
        copy of the rows: the traced peak stays below 34 B per accepted row
        (44 B at the parent commit, which sorted the rows by cell key)."""
        run = large_demo_two_sphere
        ir, scene, cfg = run["ir"], run["scene"], run["config"]
        colors = estimation.estimate_colors(run["rgb"], cfg.saturation_level)
        args = (scene, run["trajectory"], cfg.rig, colors, cfg.camera,
                cfg.saturation_level)
        # untraced first: numpy imports some modules on a function's first call
        estimation.accumulate_vertex_tables(oracles.ir_subset(ir, range(1000)),
                                            *args)
        tracemalloc.start()
        try:
            _, counts = estimation.accumulate_vertex_tables(ir, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts["accepted"] > len(ir) / 2
        assert peak < 34 * counts["accepted"]


def _assert_tables_equal(a, b):
    for name in ("flat", "means", "counts"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y)


class TestVertexRecords:
    """The columns against the per-vertex path they replace (`oracles`)."""

    @given(st.integers(0, 2**16), st.integers(1, 12), st.integers(1, 14))
    @example(3, 12, 5)  # a budget below the vertex count
    @settings(max_examples=40, deadline=None)
    def test_columns_equal_per_vertex_oracle(self, seed, n, budget):
        rng = np.random.default_rng(seed)
        vids = np.sort(rng.choice(40, size=n, replace=False))
        pool = rng.choice(N_CELLS, size=6, replace=False)  # cells shared
        rows = []
        for i, v in enumerate(vids):  # the first vertex has one cell
            k = 1 if i == 0 else rng.integers(1, len(pool) + 1)
            rows += [(v, c) for c in rng.choice(pool, size=k, replace=False)]
        rows = np.array(rows)[rng.permutation(len(rows))]
        cells = cell_indices(rows[:, 1])
        means = rng.uniform(0, 1, (len(rows), 3))
        counts = rng.integers(0, 3, len(rows))  # count 0: a synthetic cell
        colors = rng.uniform(0, 1, (40, 3))
        colors /= np.linalg.norm(colors, axis=1, keepdims=True)

        records = VertexRecords(vids, colors[vids], *sorted_cells(
            rows[:, 0], cells[:, 0], cells[:, 1], means, counts))
        expected = oracles.vertex_records(rows[:, 0], cells, means, counts,
                                          colors)
        assert len(records) == len(expected) == n
        for rec, exp in zip(records, expected):
            assert rec.vertex_id == exp.vertex_id
            np.testing.assert_array_equal(rec.normalized_color,
                                          exp.normalized_color)
            _assert_tables_equal(rec.table, exp.table)

        # no cell here holds MIN_CELL_SAMPLES samples: with a floor of one
        # sample the columns hold every cell
        with mock.patch.object(segmentation, "MIN_CELL_SAMPLES", 1):
            table = segmentation.build_global_table(records, budget, seed)
            oracle = oracles.build_global_table(expected, budget, seed)
        assert len(table.flats) == len(table)
        oracles.assert_same_cell_table(table, oracle)

        labels = rng.integers(-1, 3, 40)
        merged = brdf_table.merge_groups(labels[records.cell_vid], records.flat,
                                         records.means, records.counts,
                                         labels.max() + 1)
        by_label = [[r.table for r in expected if labels[r.vertex_id] == g]
                    for g in range(len(merged))]
        assert len(merged) == labels.max() + 1
        for got, tables in zip(merged, by_label):
            _assert_tables_equal(got, brdf_table.merge(tables) if tables
                                 else brdf_table.BrdfTable())
