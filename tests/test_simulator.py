"""Forward model: vignette, shading, rig layout and scan corruption."""

import tracemalloc

import numpy as np
import pytest

from matscan import scenes, simulator
from matscan.simulator import (NOISE_BOUNDS, GroundTruthMaterial, IrObservations,
                               NoiseConfig, RgbObservations, ScanConfig,
                               default_camera, eval_ground_truth_brdf,
                               ir_frame_times, make_default_rig, simulate_scan,
                               vignette)

from conftest import make_scan_config
from oracles import (interpolate_trajectory, ir_subset, look_at,
                     render_ir_intensity, row_frames, timed_poses)


class TestMaterialModel:
    def test_color_normalized(self):
        m = GroundTruthMaterial(np.array([0.5, 0.5, 0.5]), 0.2, 10.0,
                                np.array([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(m.color, [1, 0, 0])

    def test_lambertian_is_constant(self):
        m = GroundTruthMaterial(np.array([0.3, 0.6, 0.9]), 0.0, 1.0,
                                np.array([1.0, 1.0, 1.0]))
        th = np.linspace(0, 90, 20)
        np.testing.assert_allclose(eval_ground_truth_brdf(m, th), 0.6, atol=1e-12)

    def test_lobe_peaks_at_zero_half_angle(self):
        m = GroundTruthMaterial(np.array([0.2, 0.2, 0.2]), 0.7, 40.0,
                                np.array([1.0, 1.0, 1.0]))
        vals = eval_ground_truth_brdf(m, np.array([0.0, 10.0, 45.0]))
        assert vals[0] > vals[1] > vals[2]
        assert vals[0] == pytest.approx(0.9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GroundTruthMaterial(np.array([1.5, 0, 0]), 0.0, 1.0,
                                np.array([1.0, 0, 0]))
        with pytest.raises(ValueError):
            GroundTruthMaterial(np.array([0.5, 0, 0]), -0.1, 1.0,
                                np.array([1.0, 0, 0]))


class TestNoiseConfig:
    @pytest.mark.parametrize("name, hi", sorted(NOISE_BOUNDS.items()))
    def test_bounds(self, name, hi):
        NoiseConfig(**{name: 0.0})
        NoiseConfig(**{name: hi})
        for bad in (-1e-9, hi * (1 + 1e-9) if hi < np.inf else np.nan):
            with pytest.raises(ValueError, match=name):
                NoiseConfig(**{name: bad})

    def test_gain_sigma_that_overflows_is_rejected(self):
        """The library call raises where the CLI exits 2, before a scan
        overflows in exp."""
        with pytest.raises(ValueError, match="intensity_multiplicative_sigma"):
            NoiseConfig(intensity_multiplicative_sigma=800)


class TestVignette:
    def test_unity_at_principal_point(self):
        cam = default_camera()
        assert vignette((cam.cx, cam.cy), cam) == pytest.approx(1.0)

    def test_matches_cos4_closed_form(self):
        cam = default_camera()
        px, py = 500.0, 100.0
        dx = (px - cam.cx) / cam.fx
        dy = (py - cam.cy) / cam.fy
        expected = (1.0 / np.sqrt(1.0 + dx * dx + dy * dy)) ** 4
        assert vignette((px, py), cam) == pytest.approx(expected, rel=1e-12)

    def test_monotone_falloff(self):
        cam = default_camera()
        xs = cam.cx + np.linspace(0, 300, 30)
        vals = vignette((xs, np.full(30, cam.cy)), cam)
        assert np.all(np.diff(vals) < 0)


class TestScalarShading:
    def test_inverse_square_falloff(self):
        m = GroundTruthMaterial(np.array([0.5, 0.5, 0.5]), 0.0, 1.0,
                                np.array([1.0, 1.0, 1.0]))
        pose = look_at([0.0, 0.0, -1.0], [0.0, 0.0, 0.0])
        p = np.zeros(3)
        n = np.array([0.0, 0.0, -1.0])
        i1 = render_ir_intensity(p, n, m, [0, 0, -0.5], 1.0, pose, 1.0)
        i2 = render_ir_intensity(p, n, m, [0, 0, -1.0], 1.0, pose, 1.0)
        assert i1 / i2 == pytest.approx(4.0, rel=1e-12)

    def test_back_facing_is_dark(self):
        m = GroundTruthMaterial(np.array([0.5, 0.5, 0.5]), 0.0, 1.0,
                                np.array([1.0, 1.0, 1.0]))
        pose = look_at([0.0, 0.0, -1.0], [0.0, 0.0, 0.0])
        out = render_ir_intensity(np.zeros(3), np.array([0.0, 0.0, 1.0]), m,
                                  [0, 0, -0.5], 1.0, pose, 1.0)
        assert out == 0.0

    def test_brightness_scales_linearly(self):
        m = GroundTruthMaterial(np.array([0.5, 0.5, 0.5]), 0.3, 12.0,
                                np.array([1.0, 1.0, 1.0]))
        pose = look_at([0.0, 0.1, -1.0], [0.0, 0.0, 0.0])
        n = np.array([0.0, 0.0, -1.0])
        a = render_ir_intensity(np.zeros(3), n, m, [0.1, 0, -0.6], 1.0, pose, 0.9)
        b = render_ir_intensity(np.zeros(3), n, m, [0.1, 0, -0.6], 2.5, pose, 0.9)
        assert b == pytest.approx(2.5 * a, rel=1e-12)


class TestRig:
    def test_layout(self):
        rig = make_default_rig()
        assert len(rig) == 10
        np.testing.assert_allclose(rig.brightness, 1.0)
        radii = np.linalg.norm(rig.positions[:8], axis=1)
        np.testing.assert_allclose(radii, 0.16, atol=1e-12)
        assert np.linalg.norm(rig.positions[8]) == pytest.approx(0.08)
        np.testing.assert_allclose(rig.positions[9], [-0.28, 0.0, 0.0])


class TestScan:
    def test_frame_times_inside_span(self):
        traj = scenes.arc_trajectory(10, 4.0)
        cfg = make_scan_config(traj, NoiseConfig(), 32)
        times = ir_frame_times(cfg)
        assert len(times) == 32
        assert times[0] > traj.times[0]
        assert times[-1] < traj.times[-1]

    def test_deterministic_per_seed(self):
        scene = scenes.make_scene("two-sphere", 300, 1)
        traj = scenes.arc_trajectory(10, 4.0)
        noise = NoiseConfig(normal_jitter_deg=1.0,
                            intensity_multiplicative_sigma=0.05,
                            outlier_fraction=0.02, dropout_fraction=0.05,
                            rng_seed=9)
        cfg = make_scan_config(traj, noise, 30)
        ir1, rgb1 = simulate_scan(scene, cfg)
        ir2, rgb2 = simulate_scan(scene, cfg)
        np.testing.assert_array_equal(ir1.vertex_id, ir2.vertex_id)
        np.testing.assert_array_equal(ir1.intensity, ir2.intensity)
        np.testing.assert_array_equal(rgb1.rgb, rgb2.rgb)

    def test_seed_changes_noise(self):
        scene = scenes.make_scene("two-sphere", 300, 1)
        traj = scenes.arc_trajectory(10, 4.0)
        cfg1 = make_scan_config(traj, NoiseConfig(
            intensity_multiplicative_sigma=0.05, rng_seed=1), 30)
        cfg2 = make_scan_config(traj, NoiseConfig(
            intensity_multiplicative_sigma=0.05, rng_seed=2), 30)
        ir1, _ = simulate_scan(scene, cfg1)
        ir2, _ = simulate_scan(scene, cfg2)
        assert not np.array_equal(ir1.intensity, ir2.intensity)

    def test_noiseless_matches_scalar_reference(self, noiseless_two_sphere):
        run = noiseless_two_sphere
        ir = run["ir"]
        scene = run["scene"]
        cfg = run["config"]
        frame = row_frames(ir)
        rng = np.random.default_rng(0)
        rows = rng.choice(len(ir), size=64, replace=False)
        poses = timed_poses(run["trajectory"])
        for r in rows:
            pose = interpolate_trajectory(poses, float(ir.frame_time[frame[r]]))
            vid = int(ir.vertex_id[r])
            led = int(ir.frame_led[frame[r]])
            vig = float(vignette((ir.pixel[r, 0], ir.pixel[r, 1]), cfg.camera))
            ref = render_ir_intensity(
                scene.positions[vid], scene.normals[vid],
                scene.materials[scene.material_ids[vid]],
                pose.transform(cfg.rig.positions[led]),
                float(cfg.rig.brightness[led]), pose, vig)
            assert ir.intensity[r] == pytest.approx(min(ref, cfg.saturation_level),
                                                    rel=1e-12)

    def test_saturation_clips(self):
        scene = scenes.make_scene("two-sphere", 300, 1)
        traj = scenes.arc_trajectory(10, 4.0)
        cfg = make_scan_config(traj, NoiseConfig(outlier_fraction=0.5,
                                                 rng_seed=3), 30)
        cfg.saturation_level = 0.01
        ir, _ = simulate_scan(scene, cfg)
        assert np.all(ir.intensity <= 0.01 + 1e-15)

    def test_dropout_reduces_sample_count(self):
        scene = scenes.make_scene("two-sphere", 500, 1)
        traj = scenes.arc_trajectory(10, 4.0)
        full, _ = simulate_scan(scene, make_scan_config(traj, NoiseConfig(), 30))
        dropped, _ = simulate_scan(scene, make_scan_config(
            traj, NoiseConfig(dropout_fraction=0.4, rng_seed=1), 30))
        assert len(dropped) < 0.75 * len(full)

    def test_leds_cycle(self, noiseless_two_sphere):
        ir = noiseless_two_sphere["ir"]
        assert ir.frame_led.tolist() == [i % 10 for i in range(80)]

    def test_frame_major_layout(self, noiseless_two_sphere):
        """Every IR frame time once, in order, and each frame's rows
        contiguous, vertex ids ascending within it, stored as int32."""
        run = noiseless_two_sphere
        ir = run["ir"]
        np.testing.assert_array_equal(ir.frame_time, ir_frame_times(run["config"]))
        assert ir.vertex_id.dtype == np.int32
        for j in range(len(ir.frame_time)):
            vids = ir.vertex_id[ir.frame_offsets[j]:ir.frame_offsets[j + 1]]
            assert np.all(np.diff(vids) > 0)

    def test_frames_slice_rows_by_frame(self, noiseless_two_sphere, monkeypatch):
        """`frames` yields the rows of the frames that hold any, in order and
        in chunks, with that frame's camera, LED position and brightness on
        each row. Two frames in three hold no row here."""
        monkeypatch.setattr(simulator, "_CHUNK_ROWS", 500)
        run = noiseless_two_sphere
        cfg, full = run["config"], run["ir"]
        ir = ir_subset(full, np.flatnonzero(row_frames(full) % 3 == 0))
        frame = row_frames(ir)
        poses = timed_poses(run["trajectory"])
        stop = 0
        for rows, cam, led_world, brightness in simulator.frames(
                ir, run["trajectory"], cfg.rig):
            assert rows.start == stop and rows.stop > stop
            stop = rows.stop
            for r, fi in zip(range(rows.start, rows.stop), frame[rows]):
                pose = interpolate_trajectory(poses, float(ir.frame_time[fi]))
                led = ir.frame_led[fi]
                i = r - rows.start
                np.testing.assert_array_equal(cam[:, i], pose.translation)
                np.testing.assert_array_equal(
                    led_world[:, i], pose.transform(cfg.rig.positions[led]))
                assert brightness[i] == cfg.rig.brightness[led]
        assert stop == len(ir)

    def test_empty_scene_rejected(self):
        traj = scenes.arc_trajectory(10, 4.0)
        cfg = make_scan_config(traj, NoiseConfig(), 10)
        empty = scenes.make_scene("two-sphere", 2, 1)
        import dataclasses
        bad = dataclasses.replace(empty, positions=np.zeros((0, 3)),
                                  normals=np.zeros((0, 3)),
                                  material_ids=np.zeros(0, int))
        with pytest.raises(ValueError):
            simulate_scan(bad, cfg)


class TestLedPositions:
    """`led_world_positions` is the one formula of a frame's LED position:
    the scan, the inversion's frames and the re-render light each frame from
    the same point, bit for bit."""

    @pytest.mark.parametrize("scan_rows, frame_rows", [(1, 1), (1000, 500),
                                                       (1 << 12, 1 << 12)])
    def test_frames_and_rerender_get_the_scans_led(self, monkeypatch, scan_rows,
                                                   frame_rows):
        """Whatever the chunks of either, and with frames that hold no row
        in between, `frames` gives each row and `rerender_ir_frame` each
        frame the LED position `simulate_scan` lit that frame from."""
        from matscan import render_eval
        scene = scenes.make_scene("two-sphere", 300, 4)
        cfg = make_scan_config(scenes.arc_trajectory(50, 10.0),
                               NoiseConfig(normal_jitter_deg=2.0, rng_seed=4), 200)
        geometry = simulator.frame_geometry
        lit = []

        def spy(cam, led_world, positions, normals):
            # one LED position per frame, component arrays (3, frames, 1)
            # in the scan and (3, 1) in the re-render
            lit.append(np.moveaxis(led_world, 0, -1).reshape(-1, 3))
            return geometry(cam, led_world, positions, normals)

        monkeypatch.setattr(simulator, "_CHUNK_ROWS", scan_rows)
        monkeypatch.setattr(simulator, "frame_geometry", spy)
        ir, _ = simulator.simulate_scan(scene, cfg)
        scan_led = np.concatenate(lit)
        assert len(scan_led) == len(ir.frame_time)
        monkeypatch.setattr(simulator, "frame_geometry", geometry)
        monkeypatch.setattr(simulator, "_CHUNK_ROWS", frame_rows)

        ir = ir_subset(ir, np.flatnonzero(row_frames(ir) % 3 != 1))
        frame = row_frames(ir)
        for rows, _, led_world, _ in simulator.frames(ir, cfg.trajectory, cfg.rig):
            np.testing.assert_array_equal(led_world.T, scan_led[frame[rows]])

        lit.clear()
        monkeypatch.setattr(render_eval, "frame_geometry", spy)
        labels = np.full(len(scene), -1)
        for j in (0, 1, 57, 199):
            render_eval.rerender_ir_frame(scene, labels, [], cfg.trajectory,
                                          ir.frame_time[j], ir.frame_led[j],
                                          cfg.rig, cfg.camera)
            np.testing.assert_array_equal(lit.pop().reshape(3), scan_led[j])


class TestObservationRows:
    """The observation containers hold one row per `vertex_id` in every
    per-row field."""

    N = 10

    def ir(self, **fields):
        n = self.N
        columns = dict(vertex_id=np.zeros(n, np.int32), intensity=np.zeros(n),
                       pixel=np.zeros((n, 2)), frame_time=np.array([0.5]),
                       frame_led=np.zeros(1, int), frame_offsets=np.array([0, n]))
        return IrObservations(**{**columns, **fields})

    def rgb(self, **fields):
        n = self.N
        columns = dict(vertex_id=np.zeros(n, int), rgb=np.zeros((n, 3)),
                       omega_out_angle=np.zeros(n))
        return RgbObservations(**{**columns, **fields})

    def test_aligned_rows_construct(self):
        assert len(self.ir()) == len(self.rgb()) == self.N

    @pytest.mark.parametrize("name, shape", [
        ("intensity", (9,)), ("pixel", (7, 2)), ("pixel", (10, 3)),
        ("pixel", (10,)), ("vertex_id", (10, 1))])
    def test_misaligned_ir_rows_rejected(self, name, shape):
        with pytest.raises(ValueError, match=name):
            self.ir(**{name: np.zeros(shape, np.int32 if name == "vertex_id"
                                      else float)})

    @pytest.mark.parametrize("name, shape", [
        ("rgb", (9, 3)), ("rgb", (10, 2)), ("omega_out_angle", (11,)),
        ("omega_out_angle", (10, 1)), ("vertex_id", (10, 1))])
    def test_misaligned_rgb_rows_rejected(self, name, shape):
        with pytest.raises(ValueError, match=name):
            self.rgb(**{name: np.zeros(shape)})


def test_traced_peak_beyond_the_columns(large_demo_two_sphere):
    """Each column is allocated once, at every vertex of every frame, and
    shrunk in place to its rows, so beyond the arrays it returns a scan
    holds only one chunk's temporaries. Two-sphere keeps nearly every row,
    so the bound itself costs little here: the traced peak stays below 3 MB
    over the returned arrays."""
    run = large_demo_two_sphere
    tracemalloc.start()
    try:
        ir, rgb = simulate_scan(run["scene"], run["config"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in [*vars(ir).values(), *vars(rgb).values()])
    assert len(ir) > 0.99 * 2000 * 200
    assert peak - returned < 3e6
