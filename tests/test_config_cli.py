"""Configuration parsing and the staged command-line pipeline."""

import contextlib
import dataclasses
import io as textio
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matscan import brdf_table, cli, estimation, io
from matscan.config import (ConfigError, PipelineConfig, load_config,
                            parse_config, serialize_config)
from matscan.scenes import BUILTIN_SCENES
from matscan.simulator import simulate_scan


class TestConfigParse:
    def test_defaults_valid(self):
        cfg = PipelineConfig().validate()
        assert cfg.scene == "two-sphere"

    def test_round_trip(self):
        cfg = PipelineConfig(scene="four-material-room", n_vertices=123,
                             normal_jitter_deg=1.5, rng_seed=42)
        back = parse_config(serialize_config(cfg))
        assert back == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nn_vertices = 77  # trailing\n")
        assert cfg.n_vertices == 77

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("n_vertices = 10\nbogus_key = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="n_vertices"):
            parse_config("n_vertices = banana\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("just some words\n")

    def test_validation_catches_bad_mode(self):
        with pytest.raises(ConfigError, match="segmentation_mode"):
            parse_config("segmentation_mode = auto\n")

    def test_validation_catches_negative_noise(self):
        with pytest.raises(ConfigError):
            parse_config("normal_jitter_deg = -1\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "none.cfg"))


FINITE = dict(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
POSITIVE = st.floats(min_value=math.ulp(0.0), **FINITE)
NON_NEGATIVE = st.floats(min_value=0.0, **FINITE)
NOT_POSITIVE = st.floats(max_value=0.0) | NON_FINITE
NEGATIVE = st.floats(max_value=-math.ulp(0.0)) | NON_FINITE
WORD = st.text("abcdefghijklmnopqrstuvwxyz-", max_size=12)
SIZE = st.integers(1, 10**9)
CAMERA_CENTER = {"cx": "width", "cy": "height"}
# the widest angle jitter and multiplicative intensity sigma that validate
MAX_JITTER_DEG, MAX_INTENSITY_SIGMA = 180.0, 10.0

# every field but cx and cy -> strategy of its in-range values
IN_RANGE = {
    "scene": st.sampled_from(sorted(BUILTIN_SCENES)),
    "n_vertices": SIZE,
    "n_trajectory_poses": st.integers(2, 10**9),
    "duration_s": POSITIVE,
    "trajectory_radius_m": POSITIVE,
    "trajectory_sweep_deg": st.floats(**FINITE),
    "n_ir_frames": SIZE,
    "rgb_frame_stride": SIZE,
    "fx": POSITIVE,
    "fy": POSITIVE,
    "width": st.integers(1, 10**5),
    "height": st.integers(1, 10**5),
    "saturation_level": POSITIVE,
    "normal_jitter_deg": st.floats(0.0, MAX_JITTER_DEG),
    "pose_translation_jitter_m": NON_NEGATIVE,
    "pose_rotation_jitter_deg": st.floats(0.0, MAX_JITTER_DEG),
    "intensity_multiplicative_sigma": st.floats(0.0, MAX_INTENSITY_SIGMA),
    "outlier_fraction": st.floats(0.0, 1.0),
    "dropout_fraction": st.floats(0.0, 1.0),
    "sample_budget": SIZE,
    "diffusion_radius_m": POSITIVE,
    "segmentation_mode": st.sampled_from(["two", "multi"]),
    "lambertian_materials": st.sampled_from([0, 1]),
    "out_dir": st.text(min_size=1),
    "rng_seed": st.integers(0, 2**64),
}


@st.composite
def in_range_configs(draw):
    """Configs with every field finite and in range, the principal point
    strictly inside the image."""
    values = {name: draw(strategy) for name, strategy in IN_RANGE.items()}
    for center, size in CAMERA_CENTER.items():
        values[center] = draw(st.floats(math.ulp(0.0), values[size],
                                        exclude_max=True))
    return PipelineConfig(**values)


def out_of_range(cfg):
    """Field -> strategy of the values that alone put `cfg` out of range,
    non-finite ones included for every float field."""
    def outside(lo, hi):
        return (st.floats(max_value=math.nextafter(lo, -math.inf))
                | st.floats(min_value=math.nextafter(hi, math.inf))
                | NON_FINITE)
    bad = {
        "scene": WORD.filter(lambda s: s not in BUILTIN_SCENES),
        "n_trajectory_poses": st.integers(max_value=1),
        "trajectory_sweep_deg": NON_FINITE,
        "segmentation_mode": WORD.filter(lambda s: s not in ("two", "multi")),
        "lambertian_materials": st.integers().filter(lambda v: v not in (0, 1)),
        "out_dir": st.just(""),
        "rng_seed": st.integers(max_value=-1),
        "outlier_fraction": outside(0.0, 1.0),
        "dropout_fraction": outside(0.0, 1.0),
    }
    for name in ("n_vertices", "n_ir_frames", "rgb_frame_stride", "sample_budget"):
        bad[name] = st.integers(max_value=0)
    for name in ("duration_s", "trajectory_radius_m", "fx", "fy",
                 "saturation_level", "diffusion_radius_m"):
        bad[name] = NOT_POSITIVE
    bad["pose_translation_jitter_m"] = NEGATIVE
    for name in ("normal_jitter_deg", "pose_rotation_jitter_deg"):
        bad[name] = outside(0.0, MAX_JITTER_DEG)
    bad["intensity_multiplicative_sigma"] = outside(0.0, MAX_INTENSITY_SIGMA)
    for center, size in CAMERA_CENTER.items():
        edge = float(getattr(cfg, size))
        bad[center] = (NOT_POSITIVE | st.just(edge)
                       | st.floats(min_value=edge, allow_nan=False))
        bad[size] = st.integers(max_value=math.floor(getattr(cfg, center)))
    return bad


def draw_out_of_range(data, cfg):
    """(field, value) that puts `cfg` out of range in that field alone."""
    bad = out_of_range(cfg)
    name = data.draw(st.sampled_from(sorted(bad)), label="field")
    return name, data.draw(bad[name], label="value")


class TestConfigRanges:
    def test_strategies_cover_every_field(self):
        names = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert set(IN_RANGE) | set(CAMERA_CENTER) == names
        assert set(out_of_range(PipelineConfig())) == names

    @settings(max_examples=200, deadline=None)
    @given(in_range_configs())
    def test_finite_in_range_config_validates(self, cfg):
        assert cfg.validate() is cfg

    @settings(max_examples=300, deadline=None)
    @given(in_range_configs(), st.data())
    def test_field_out_of_range_raises_config_error(self, cfg, data):
        name, value = draw_out_of_range(data, cfg)
        setattr(cfg, name, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_field_out_of_range_exits_2_without_traceback(self, tmp_path, data):
        # a small base run, in case a bad value got through to simulate
        cfg = PipelineConfig(n_vertices=50, n_ir_frames=5,
                             out_dir=str(tmp_path / "out"))
        name, value = draw_out_of_range(data, cfg)
        text = str(value)
        if isinstance(getattr(cfg, name), int):
            # an integer field cannot hold a non-finite value; its text can
            text = data.draw(st.just(text) | st.sampled_from(["nan", "inf"]))
        path = tmp_path / "bad.cfg"
        # the last line of a key wins
        path.write_text(serialize_config(cfg) + f"{name} = {text}\n")
        err = textio.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["simulate", "--config", str(path)])
        assert rc == cli.EXIT_CONFIG, (name, text)
        assert err.getvalue().startswith("config error:")
        assert "Traceback" not in err.getvalue()
        assert not os.path.exists(cfg.out_dir)


def small_config(tmp_path, **overrides):
    cfg = PipelineConfig(n_vertices=400, n_ir_frames=40, n_trajectory_poses=12,
                         normal_jitter_deg=2.0,
                         intensity_multiplicative_sigma=0.03,
                         outlier_fraction=0.01, segmentation_mode="two",
                         out_dir=str(tmp_path / "out"), rng_seed=5)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg))
    return cfg, str(path)


class TestCli:
    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 1\n")
        assert cli.main(["simulate", "--config", str(bad)]) == cli.EXIT_CONFIG

    def test_missing_input_exit_code(self, tmp_path):
        cfg, path = small_config(tmp_path)
        # estimate before simulate: inputs do not exist yet
        assert cli.main(["estimate", "--config", path]) == cli.EXIT_MISSING_INPUT

    def test_full_pipeline(self, tmp_path, capsys):
        cfg, path = small_config(tmp_path)
        assert cli.main(["pipeline", "--config", path]) == cli.EXIT_OK
        out = cfg.out_dir
        for name in ("scene.txt", "materials.txt", "trajectory.txt",
                     "ir_observations.npz", "rgb_observations.npz",
                     "colors.txt", "records.npz", "labels.txt", "report.txt"):
            assert os.path.exists(os.path.join(out, name)), name
        report = open(os.path.join(out, "report.txt")).read()
        assert "purity" in report
        labels = io.read_labels(os.path.join(out, "labels.txt"))
        assert (labels >= 0).any()
        # rendered artifacts for at least one material
        assert any(f.startswith("sphere_") and f.endswith(".ppm")
                   for f in os.listdir(out))

    def test_stages_resume_from_disk(self, tmp_path):
        cfg, path = small_config(tmp_path)
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_OK
        assert cli.main(["estimate", "--config", path]) == cli.EXIT_OK
        assert cli.main(["segment", "--config", path]) == cli.EXIT_OK
        assert cli.main(["evaluate", "--config", path]) == cli.EXIT_OK

    def test_seed_override_changes_observations(self, tmp_path):
        cfg, path = small_config(tmp_path)
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_OK
        first = io.read_ir_observations(
            os.path.join(cfg.out_dir, "ir_observations.npz"))
        assert cli.main(["simulate", "--config", path, "--seed", "99"]) == \
            cli.EXIT_OK
        second = io.read_ir_observations(
            os.path.join(cfg.out_dir, "ir_observations.npz"))
        assert not np.array_equal(first.intensity, second.intensity)

    @pytest.mark.parametrize("line", [
        "scene = nope",
        "saturation_level = nan",
        "normal_jitter_deg = inf",
        "duration_s = -inf",
        "rgb_frame_stride = 0",
        "sample_budget = -3",
        "fx = 0",
        "cx = 700",
        "height = 0",
        "duration_s = 0",
        "duration_s = -1",
        "trajectory_radius_m = 0",
        "trajectory_radius_m = -0.5",
        "rng_seed = -1",
        "lambertian_materials = 2",
    ])
    def test_bad_config_exits_2_without_traceback(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"n_vertices = 50\nout_dir = {tmp_path / 'out'}\n{line}\n")
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command, line", [
        # exp(sigma z) overflows, and 0 times it is NaN on unlit rows
        ("simulate", "intensity_multiplicative_sigma = 800"),
        # the angle draws overflow to +-inf, whose cos and sin are NaN
        ("pipeline", "normal_jitter_deg = 1e308"),
        ("pipeline", "pose_rotation_jitter_deg = 1e308"),
    ])
    def test_noise_that_overflows_exits_2(self, tmp_path, capsys, command, line):
        out = tmp_path / "out"
        path = tmp_path / "noise.cfg"
        path.write_text(f"n_vertices = 200\nn_ir_frames = 40\nout_dir = {out}\n"
                        f"{line}\n")
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("radius", [1e-12, 1e-10])
    def test_degenerate_trajectory_exits_2_without_traceback(
            self, tmp_path, capsys, command, radius):
        # positive, so it validates, but the arc's poses collapse onto their
        # look-at target: no viewing direction (1e-12), or one parallel to
        # the up vector (1e-10)
        cfg, path = small_config(tmp_path, trajectory_radius_m=radius)
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: trajectory_radius_m = ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not os.path.exists(cfg.out_dir)

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg, path = small_config(tmp_path)
        assert cli.main(["simulate", "--config", path, "--seed", "-1"]) == \
            cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: rng_seed must be >= 0\n"
        assert not os.path.exists(cfg.out_dir)

    def test_corrupt_records_exit_3_naming_the_file(self, tmp_path, capsys):
        cfg, path = small_config(tmp_path)
        for stage in ("simulate", "estimate", "segment"):
            assert cli.main([stage, "--config", path]) == cli.EXIT_OK
        records = os.path.join(cfg.out_dir, "records.npz")
        arrays = dict(np.load(records))
        arrays["cell_h"][0] = 99
        np.savez_compressed(records, **arrays)
        capsys.readouterr()
        for stage in ("segment", "render", "evaluate"):
            assert cli.main([stage, "--config", path]) == cli.EXIT_MISSING_INPUT
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and records in err, err
            assert "Traceback" not in err

    def test_all_saturated_scan_exits_3_without_traceback(self, tmp_path, capsys):
        # every observation saturates, so estimate writes no records
        cfg, path = small_config(tmp_path, n_vertices=200, scene="two-sphere",
                                 saturation_level=1e-9)
        for stage in ("simulate", "estimate"):
            assert cli.main([stage, "--config", path]) == cli.EXIT_OK
        assert "0 vertex records" in capsys.readouterr().out
        # labels of an earlier run must not let render or evaluate go on
        io.write_labels(os.path.join(cfg.out_dir, "labels.txt"),
                        np.zeros(200, dtype=int))
        records = os.path.join(cfg.out_dir, "records.npz")
        for stage in ("segment", "render", "evaluate", "pipeline"):
            assert cli.main([stage, "--config", path]) == cli.EXIT_MISSING_INPUT
            err = capsys.readouterr().err
            assert err.count("\n") == 1, err
            assert err.startswith("error: no reflectance records") and records in err

    def test_empty_scan_exits_3_without_traceback(self, tmp_path, capsys):
        # every observation drops out: simulate and estimate still succeed
        # on the empty scan, and the stages that need records stop cleanly
        cfg, path = small_config(tmp_path, dropout_fraction=1.0)
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert "warning: no IR observations generated" in captured.err
        assert "simulate: 0 IR and 0 RGB observations" in captured.out
        assert cli.main(["estimate", "--config", path]) == cli.EXIT_OK
        assert "0 vertex records" in capsys.readouterr().out
        assert list(io.read_records(os.path.join(cfg.out_dir, "records.npz"))) == []
        for stage in ("segment", "render", "evaluate"):
            assert cli.main([stage, "--config", path]) == cli.EXIT_MISSING_INPUT
            err = capsys.readouterr().err
            assert err.count("\n") == 1, err
            assert err.startswith("error:") and "Traceback" not in err

    def _one_material_scan(self, tmp_path, mode):
        """The library scan of a one-material scene written with `io`, and
        its config; returns (cfg, config path, artifact paths)."""
        cfg, path = small_config(tmp_path, segmentation_mode=mode)
        full = cli._make_scene(cfg)
        scene = dataclasses.replace(
            full, material_ids=np.zeros(len(full), dtype=int),
            materials=full.materials[:1])
        scan = cli._scan_config(cfg)
        ir, rgb = simulate_scan(scene, scan)
        paths = cli._paths(cfg.out_dir)
        os.makedirs(cfg.out_dir)
        io.write_scene(paths["scene"], scene)
        io.write_materials(paths["materials"], scene.materials)
        io.write_trajectory(paths["trajectory"], scan.trajectory)
        io.write_ir_observations(paths["ir"], ir)
        io.write_rgb_observations(paths["rgb"], rgb)
        with open(paths["config"], "w") as fh:
            fh.write(serialize_config(cfg))
        return cfg, path, paths

    @pytest.mark.parametrize("mode", ["two", "multi"])
    def test_one_material_scan_runs_every_stage(self, tmp_path, capsys, mode):
        cfg, path, paths = self._one_material_scan(tmp_path, mode)
        for stage in ("estimate", "segment", "render", "evaluate"):
            assert cli.main([stage, "--config", path]) == cli.EXIT_OK, stage
        assert capsys.readouterr().err == ""
        labels = io.read_labels(paths["labels"])
        with open(paths["report"]) as fh:
            group_counts = fh.readline().split()[1:]
        assert len(group_counts) == labels.max() + 1
        if mode == "two":
            # two mode seeds two clusters whatever the scan holds
            assert len(group_counts) == 2

    @pytest.mark.xfail(strict=True, reason="multi segmentation splits this "
                       "one-material scan into groups of 313 and 74 vertices")
    def test_one_material_scan_is_one_group_in_multi_mode(self, tmp_path):
        cfg, path, paths = self._one_material_scan(tmp_path, "multi")
        for stage in ("estimate", "segment"):
            assert cli.main([stage, "--config", path]) == cli.EXIT_OK, stage
        assert io.read_labels(paths["labels"]).max() == 0

    @pytest.mark.parametrize("mode", ["two", "multi"])
    def test_scan_without_candidate_cell_renders_nothing(self, tmp_path, capsys,
                                                         mode):
        """30 vertices and 20 frames: no cell of the global table holds
        enough samples to seed a group, so every vertex stays unclassified
        and render writes no sphere and no re-render, and says so."""
        cfg, path = small_config(tmp_path, n_vertices=30, n_ir_frames=20,
                                 segmentation_mode=mode)
        assert cli.main(["pipeline", "--config", path]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert [ln for ln in out if ln.startswith("segment:")][0].startswith(
            "segment: 0 groups with counts [], ")
        assert "render: 0 material spheres" in out
        assert not [f for f in os.listdir(cfg.out_dir) if f.endswith(".ppm")]
        assert (io.read_labels(os.path.join(cfg.out_dir, "labels.txt")) < 0).all()

    def test_camera_changed_after_simulate_exits_2(self, tmp_path, capsys):
        cfg, path = small_config(tmp_path)
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_OK
        with open(path, "a") as fh:
            fh.write("fx = 300\n")
        for stage in ("estimate", "render"):
            assert cli.main([stage, "--config", path]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: camera (fx) differs"), err
        assert not os.path.exists(os.path.join(cfg.out_dir, "records.npz"))

    @pytest.mark.parametrize("line, named", [
        ("fx = 300", "camera (fx) differs"), ("fy = 300", "camera (fy) differs"),
        ("cx = 300", "camera (cx) differs"), ("cy = 200", "camera (cy) differs"),
        ("width = 600", "camera (width) differs"),
        ("height = 500", "camera (height) differs"),
        # a scan clipped at 8 read as unsaturated up to 9
        ("saturation_level = 9", "saturation_level differs"),
        # a re-render at a frame time the scan never had
        ("n_ir_frames = 80", "n_ir_frames differs"),
        ("fx = 300\ncy = 200\nn_ir_frames = 80",
         "camera (fx, cy) and n_ir_frames differ")])
    def test_scan_field_changed_after_simulate_exits_2(self, tmp_path, capsys,
                                                       line, named):
        """Each field of the scan that a later stage reads from the config
        again must be the one `simulate` scanned with."""
        cfg, path = small_config(tmp_path, n_ir_frames=40)
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_OK
        capsys.readouterr()
        with open(path, "a") as fh:
            fh.write(line + "\n")
        for stage in ("estimate", "render"):
            assert cli.main([stage, "--config", path]) == cli.EXIT_CONFIG, stage
            err = capsys.readouterr().err
            config = os.path.join(cfg.out_dir, "config.txt")
            assert err == (f"config error: {named} from the scan's {config}\n")
        assert not os.path.exists(os.path.join(cfg.out_dir, "records.npz"))

    def _corrupt_exit_3(self, capsys, path, stages, target, why):
        for stage in stages:
            assert cli.main([stage, "--config", path]) == cli.EXIT_MISSING_INPUT
            err = capsys.readouterr().err
            assert err.startswith(f"error: corrupt input file {target}: {why}"), err
            assert err.count("\n") == 1

    def test_artifacts_of_a_larger_scene_exit_3(self, tmp_path, capsys):
        cfg, path = small_config(tmp_path)
        assert cli.main(["pipeline", "--config", path]) == cli.EXIT_OK
        # simulate again with fewer vertices: records and labels are stale
        small_config(tmp_path, n_vertices=300)
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_OK
        capsys.readouterr()
        paths = cli._paths(cfg.out_dir)
        self._corrupt_exit_3(capsys, path, ("segment", "render", "evaluate"),
                             paths["records"], "vertex_id outside [0, 299]")
        assert cli.main(["estimate", "--config", path]) == cli.EXIT_OK
        capsys.readouterr()
        self._corrupt_exit_3(capsys, path, ("render", "evaluate"),
                             paths["labels"], "400 labels for 300 scene vertices")
        for stage in ("segment", "render", "evaluate"):
            assert cli.main([stage, "--config", path]) == cli.EXIT_OK

    def test_label_gap_exits_3(self, tmp_path, capsys):
        cfg, path = small_config(tmp_path)
        assert cli.main(["pipeline", "--config", path]) == cli.EXIT_OK
        target = cli._paths(cfg.out_dir)["labels"]
        labels = io.read_labels(target)
        assert labels.max() == 1
        io.write_labels(target, np.where(labels == 1, 2, labels))
        capsys.readouterr()
        self._corrupt_exit_3(capsys, path, ("render", "evaluate"), target,
                             "labels are not -1 or the groups 0..k-1")

    def test_bad_material_id_in_scene_exits_3(self, tmp_path, capsys):
        cfg, path = small_config(tmp_path)
        assert cli.main(["pipeline", "--config", path]) == cli.EXIT_OK
        target = cli._paths(cfg.out_dir)["scene"]
        with open(target) as fh:
            header, first, *rest = fh.readlines()
        for bad in ("9", "0.5"):
            with open(target, "w") as fh:
                fh.writelines([header, first.rsplit(" ", 1)[0] + f" {bad}\n", *rest])
            capsys.readouterr()
            self._corrupt_exit_3(capsys, path,
                                 ("estimate", "segment", "render", "evaluate"),
                                 target, "a material id is not an integer in [0, 2)")

    @pytest.mark.parametrize("name, edit, why", [
        ("scene", lambda rows: [_set_field(rows[0], 1, "nan")] + rows[1:],
         "a position is not finite"),
        ("scene", lambda rows: [_set_field(rows[0], 1, "inf")] + rows[1:],
         "a position is not finite"),
        ("scene", lambda rows: [_set_field(rows[0], 0, "7"),
                                _set_field(rows[1], 0, "3")] + rows[2:],
         "vertex_id is not 0..n-1 in order"),
        ("materials", lambda rows: rows[::-1], "material_id is not 0..n-1 in order"),
        ("materials", lambda rows: [_set_field(rows[0], 5, "inf")] + rows[1:],
         "a value is not finite"),
    ])
    def test_bad_scene_or_materials_row_exits_3(self, tmp_path, capsys, simulated,
                                                name, edit, why):
        cfg, path = small_config(tmp_path, n_vertices=200)
        shutil.copytree(simulated, cfg.out_dir)
        target = cli._paths(cfg.out_dir)[name]
        _edit_rows(edit)(target)
        capsys.readouterr()
        # every stage that reads the scene rejects it before its other inputs
        self._corrupt_exit_3(capsys, path,
                             ("estimate", "segment", "render", "evaluate"),
                             target, why)

    def test_estimate_from_disk_equals_in_memory(self, tmp_path):
        cfg, path = small_config(tmp_path)
        for stage in ("simulate", "estimate"):
            assert cli.main([stage, "--config", path]) == cli.EXIT_OK
        paths = cli._paths(cfg.out_dir)
        scan = cli._scan_config(cfg)
        scene = cli._make_scene(cfg)
        ir, rgb = simulate_scan(scene, scan)
        for obs, back in ((ir, io.read_ir_observations(paths["ir"])),
                          (rgb, io.read_rgb_observations(paths["rgb"]))):
            for name, a in vars(obs).items():
                assert getattr(back, name).dtype == a.dtype, name
                np.testing.assert_array_equal(getattr(back, name), a)
        colors = estimation.estimate_colors(rgb, cfg.saturation_level)
        expected, _ = estimation.accumulate_vertex_tables(
            ir, scene, io.read_trajectory(paths["trajectory"]), scan.rig, colors,
            scan.camera, cfg.saturation_level)
        records = io.read_records(paths["records"])
        assert len(records) == len(expected) > 0
        for a, b in zip(records, expected):
            assert a.vertex_id == b.vertex_id
            np.testing.assert_array_equal(a.normalized_color, b.normalized_color)
            np.testing.assert_array_equal(a.table.flat, b.table.flat)
            np.testing.assert_array_equal(a.table.means, b.table.means)
            np.testing.assert_array_equal(a.table.counts, b.table.counts)

    def test_threads_flag_removed(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["simulate", "--threads", "2"])

    def test_out_override(self, tmp_path):
        cfg, path = small_config(tmp_path)
        other = str(tmp_path / "elsewhere")
        assert cli.main(["simulate", "--config", path, "--out", other]) == \
            cli.EXIT_OK
        assert os.path.exists(os.path.join(other, "scene.txt"))


# run in a fresh process: which scipy modules and whether numpy.ma are
# loaded by importing the CLI, by the four stages that should not need
# scipy, and by segment after them
FOOTPRINT = """
import json, sys
from matscan import cli

def loaded_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "numpy.ma")

loaded = {"import": loaded_modules()}
for stage in ("simulate", "estimate", "render", "evaluate"):
    assert cli.main([stage, "--config", sys.argv[1]]) == 0, stage
loaded["stages"] = loaded_modules()
assert cli.main(["segment", "--config", sys.argv[1]]) == 0
loaded["segment"] = loaded_modules()
print(json.dumps(loaded))
"""


def test_only_segment_loads_scipy(tmp_path):
    """scipy loads neither with the program nor in simulate, estimate, render
    or evaluate. segment loads none either on a scan where every vertex has a
    record in the sample budget; it loads scipy.spatial, for the KD tree of
    label diffusion, only when some vertex needs a diffused label. No stage
    loads numpy.ma (which a plain `np.unique` imports) but through that
    scipy.spatial import, which loads it itself."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for budget, diffused in ((300, False), (150, True)):
        (tmp_path / str(budget)).mkdir()
        cfg, path = small_config(tmp_path / str(budget), n_vertices=300,
                                 n_ir_frames=60, rng_seed=6, sample_budget=budget)
        # render and evaluate read the labels of a segment run
        assert cli.main(["pipeline", "--config", path]) == cli.EXIT_OK
        records = io.read_records(os.path.join(cfg.out_dir, "records.npz"))
        assert len(records) == 300
        proc = subprocess.run([sys.executable, "-c", FOOTPRINT, path],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded["import"] == []
        assert loaded["stages"] == []
        if diffused:
            assert "scipy.spatial" in loaded["segment"]
        else:
            assert loaded["segment"] == []


def test_merged_tables_equal_per_record_merges(noisy_two_sphere):
    """The group tables merged from record columns equal a merge of each
    group's per-vertex tables, bit for bit, with unclassified vertices and a
    group without records."""
    records = noisy_two_sphere["records"]
    n = int(records.vertex_id.max()) + 2
    labels = np.random.default_rng(3).integers(-1, 3, n)
    labels[-1] = 3  # a vertex without a record
    merged = brdf_table.merge_groups(labels[records.cell_vid], records.flat,
                                     records.means, records.counts, labels.max() + 1)
    for g in range(4):
        tables = [rec.table for rec in records if labels[rec.vertex_id] == g]
        want = brdf_table.merge(tables) if tables else brdf_table.BrdfTable()
        for name in ("flat", "means", "counts"):
            assert getattr(merged[g], name).dtype == getattr(want, name).dtype
            np.testing.assert_array_equal(getattr(merged[g], name),
                                          getattr(want, name))


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """The out dir of one `simulate` run, copied by each corruption case."""
    cfg, path = small_config(tmp_path_factory.mktemp("sim"), n_vertices=200)
    assert cli.main(["simulate", "--config", path]) == cli.EXIT_OK
    return cfg.out_dir


def _resave(key, change):
    """Rewrites the npz with `change` applied to its array `key`, or to the
    dict of all its arrays when `key` is None."""
    def corrupt(path):
        arrays = dict(np.load(path))
        if key is None:
            change(arrays)
        else:
            arrays[key] = change(arrays[key])
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    return corrupt


def _set_field(row, i, value):
    """`row` of a text artifact with its field i replaced by `value`."""
    fields = row.split()
    fields[i] = value
    return " ".join(fields) + "\n"


def _edit_rows(edit):
    """Rewrites a text artifact with `edit` applied to its rows after the
    header line."""
    def corrupt(path):
        with open(path) as fh:
            header, *rows = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines([header, *edit(rows)])
    return corrupt


def _swap_times(rows, i, j):
    """Trajectory rows with the timestamps of poses i and j swapped."""
    rows = list(rows)
    ti, tj = rows[i].split()[0], rows[j].split()[0]
    rows[i], rows[j] = _set_field(rows[i], 0, tj), _set_field(rows[j], 0, ti)
    return rows


def _truncate(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2])


class TestCorruptObservationsExit3:
    @pytest.mark.parametrize("name, corrupt", [
        ("ir_observations.npz", _truncate),                          # bad zip
        ("ir_observations.npz", _resave(None, lambda a: a.pop("pixel"))),
        ("rgb_observations.npz", _resave("rgb", lambda v: v[1:])),   # rows
        ("ir_observations.npz", _resave("pixel", lambda v: v[:, :1])),
        ("rgb_observations.npz", _resave("rgb", lambda v: v[:, :2])),
        ("ir_observations.npz", _resave("vertex_id", lambda v: v + 0.25)),
        ("ir_observations.npz", _resave("frame_led",
                                        lambda v: v.astype(float))),
        ("ir_observations.npz", _resave("vertex_id",
                                        lambda v: np.where(v == v[0], 99999, v))),
        ("ir_observations.npz", _resave("vertex_id",
                                        lambda v: np.where(v == v[0], -1, v))),
        ("rgb_observations.npz", _resave("vertex_id",
                                         lambda v: np.where(v == v[0], 200, v))),
        # a frame LED the rig lacks, frame times outside the trajectory
        ("ir_observations.npz", _resave("frame_led", lambda v: v + 100)),
        ("ir_observations.npz", _resave("frame_led", lambda v: v - 1)),
        ("ir_observations.npz", _resave("frame_time", lambda v: v + 1e3)),
        ("ir_observations.npz", _resave("frame_time", lambda v: v - 1e3)),
        # frame offsets that do not start at 0, that decrease or that do not
        # end at the row count; frame times that do not strictly increase
        ("ir_observations.npz", _resave("frame_offsets", lambda v: v + 1)),
        ("ir_observations.npz", _resave(
            "frame_offsets", lambda v: np.where(np.arange(len(v)) == 5, v[7], v))),
        ("ir_observations.npz", _resave("frame_offsets",
                                        lambda v: np.minimum(v, v[-1] - 1))),
        ("ir_observations.npz", _resave("frame_time", lambda v: v[::-1])),
        ("ir_observations.npz", _resave("intensity", lambda v: v * np.nan)),
        ("scene.txt", _truncate),
        ("materials.txt", _truncate),
        ("trajectory.txt", _truncate),
        # a non-finite pose value; timestamps that do not strictly increase
        ("trajectory.txt", _edit_rows(
            lambda rows: rows[:4] + [_set_field(rows[4], 6, "nan")] + rows[5:])),
        ("trajectory.txt", _edit_rows(lambda rows: _swap_times(rows, 10, 11))),
    ])
    def test_estimate_exits_3_naming_the_file(self, tmp_path, capsys, simulated,
                                              name, corrupt):
        cfg, path = small_config(tmp_path, n_vertices=200)
        shutil.copytree(simulated, cfg.out_dir)
        target = os.path.join(cfg.out_dir, name)
        corrupt(target)
        capsys.readouterr()
        assert cli.main(["estimate", "--config", path]) == cli.EXIT_MISSING_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt input file {target}"), err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not os.path.exists(os.path.join(cfg.out_dir, "records.npz"))

    def test_huge_translation_exits_4_without_traceback(self, tmp_path, capsys,
                                                        simulated):
        # finite, so the trajectory reads, but the squared distances of the
        # frames next to that pose overflow: a numeric failure, not inf
        cfg, path = small_config(tmp_path, n_vertices=200)
        shutil.copytree(simulated, cfg.out_dir)
        _edit_rows(lambda rows: rows[:4] + [_set_field(rows[4], 5, "1e300")]
                   + rows[5:])(os.path.join(cfg.out_dir, "trajectory.txt"))
        capsys.readouterr()
        assert cli.main(["estimate", "--config", path]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: overflow"), err
        assert err.count("\n") == 1 and "Traceback" not in err
        for name in ("colors.txt", "records.npz"):
            assert not os.path.exists(os.path.join(cfg.out_dir, name))

    def test_uncorrupted_copy_estimates(self, tmp_path, simulated):
        cfg, path = small_config(tmp_path, n_vertices=200)
        shutil.copytree(simulated, cfg.out_dir)
        assert cli.main(["estimate", "--config", path]) == cli.EXIT_OK
