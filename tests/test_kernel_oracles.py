"""The chunked scan and inversion kernels and the grouped color estimate
against their one-frame-at-a-time and one-vertex-at-a-time oracles, and the
records kept from accepted rows against the row-major oracle: equal bit for
bit, with equal dtypes, for every chunk size."""

import numpy as np
import pytest

import oracles
from matscan import estimation, scenes, simulator
from matscan.geometry import Trajectory
from matscan.simulator import (NoiseConfig, RgbObservations, ScanConfig,
                               default_camera, make_default_rig)

IR_FIELDS = ("vertex_id", "intensity", "pixel", "frame_time", "frame_led",
             "frame_offsets")
RGB_FIELDS = ("vertex_id", "rgb", "omega_out_angle")
DEMO = dict(normal_jitter_deg=2.0, intensity_multiplicative_sigma=0.03,
            outlier_fraction=0.01)
POSE = dict(DEMO, pose_translation_jitter_m=0.01, pose_rotation_jitter_deg=1.0)
N_VERTICES = 240
N_FRAMES = 42  # at 1000 rows, chunks of 4 frames and a last one of 2


@pytest.fixture(params=[1, 1000, simulator._CHUNK_ROWS],
                ids=["frame-per-chunk", "partial-last-chunk", "module-chunk"])
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK_ROWS", request.param)
    return request.param


def assert_fields_equal(got, expected, names):
    for name in names:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


def assert_colors_equal(got: dict, expected: dict):
    assert list(got) == list(expected)
    for v, c in expected.items():
        assert got[v].dtype == c.dtype
        assert np.array_equal(got[v], c), v


def scan_config(noise: dict, stride=3, trajectory=None, seed=3) -> ScanConfig:
    return ScanConfig(camera=default_camera(), rig=make_default_rig(),
                      trajectory=(scenes.arc_trajectory(12, 4.0) if trajectory is None
                                  else trajectory),
                      noise=NoiseConfig(rng_seed=seed, **noise),
                      n_ir_frames=N_FRAMES, rgb_frame_stride=stride)


def check_inversion(*args):
    """`invert_observation_arrays(*args)` equals the oracle's; returns it."""
    got = estimation.invert_observation_arrays(*args)
    expected = oracles.accepted_samples(*args)
    for a, b in zip(got[:2], expected[:2]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert got[2] == expected[2]
    return got


def check_against_oracles(scene, cfg):
    """Scan, inversion and colors of `scene` under `cfg` equal the oracles';
    returns the scan."""
    ir, rgb = simulator.simulate_scan(scene, cfg)
    ir_ref, rgb_ref = oracles.simulate_scan(scene, cfg)
    assert_fields_equal(ir, ir_ref, IR_FIELDS)
    assert_fields_equal(rgb, rgb_ref, RGB_FIELDS)

    # every other vertex has a color
    check_inversion(ir, scene, cfg.trajectory, cfg.rig, cfg.camera,
                    cfg.saturation_level, np.arange(len(scene)) % 2 == 0)

    assert_colors_equal(estimation.estimate_colors(rgb, cfg.saturation_level),
                        oracles.estimate_colors(rgb, cfg.saturation_level))
    return ir, rgb


def check_records(ir, scene, cfg, colors):
    """The records and counts of `ir` equal the row-major oracle's, every
    column's bits and dtype; returns them."""
    args = (ir, scene, cfg.trajectory, cfg.rig, colors, cfg.camera,
            cfg.saturation_level)
    records, counts = estimation.accumulate_vertex_tables(*args)
    expected, expected_counts = oracles.accumulate_vertex_tables(*args)
    for name, a in vars(expected).items():
        b = getattr(records, name)
        assert b.dtype == a.dtype and b.shape == a.shape, name
        assert b.tobytes() == a.tobytes(), name
    assert counts == expected_counts
    return records, counts


@pytest.mark.parametrize("noise", [{}, DEMO, POSE], ids=["noiseless", "demo", "pose"])
@pytest.mark.parametrize("scene_name", sorted(scenes.BUILTIN_SCENES))
def test_scenes_and_noise(scene_name, noise, chunk_rows):
    scene = scenes.make_scene(scene_name, N_VERTICES, 4)
    ir, rgb = check_against_oracles(scene, scan_config(noise))
    assert len(ir) > 0 and len(rgb) > 0


@pytest.mark.parametrize("dropout", [0.0, 0.5, 1.0])
def test_dropout(dropout, chunk_rows):
    """Every row dropped at 1.0: zero-row columns of the same dtypes and row
    shapes as those of a scan that keeps rows."""
    scene = scenes.make_scene("two-sphere", N_VERTICES, 6)
    ir, rgb = check_against_oracles(
        scene, scan_config(dict(DEMO, dropout_fraction=dropout)))
    assert (len(ir) == 0) == (dropout == 1.0)
    assert (len(rgb) == 0) == (dropout == 1.0)
    for obs, columns in ((ir, {"vertex_id": ((), np.int32),
                               "intensity": ((), np.float64),
                               "pixel": ((2,), np.float64),
                               "frame_offsets": ((), np.int64)}),
                         (rgb, {"vertex_id": ((), np.int64),
                                "rgb": ((3,), np.float64),
                                "omega_out_angle": ((), np.float64)})):
        for name, (width, dtype) in columns.items():
            a = getattr(obs, name)
            assert a.shape[1:] == width and a.dtype == dtype, name


@pytest.mark.parametrize("stride", [1, 4])
def test_rgb_frame_stride(stride, chunk_rows):
    scene = scenes.make_scene("corner-board", N_VERTICES, 8)
    check_against_oracles(scene, scan_config(DEMO, stride=stride))


def scan_looking_away(away):
    """The scan of `scan_config(POSE)` whose poses `away`, indices into its
    12-pose arc, look away from the scene; checked against the oracles."""
    arc = scenes.arc_trajectory(12, 4.0)
    q = arc.quaternions.copy()
    for i in away:
        p = arc.translations[i]
        q[i] = oracles.look_at(p, 2.0 * p).rotation.as_array()
    trajectory = Trajectory(arc.times, q, arc.translations)
    scene = scenes.make_scene("two-sphere", N_VERTICES, 9)
    ir, _ = check_against_oracles(scene, scan_config(POSE, trajectory=trajectory))
    return ir


def test_frames_that_see_no_vertex(chunk_rows):
    """The last poses look away from the scene, so the frames after them see
    no vertex and produce no rows."""
    ir = scan_looking_away(range(6, 12))
    assert 0 < np.count_nonzero(np.diff(ir.frame_offsets)) < N_FRAMES


def test_a_chunk_that_keeps_no_row(chunk_rows):
    """Poses 3 to 9 look away, so frames in the middle of the scan fill a
    whole chunk that keeps no row, at every chunk size; the chunks after it
    write their rows where the chunk before it stopped."""
    ir = scan_looking_away(range(3, 10))
    rows = [ir.frame_offsets[stop] - ir.frame_offsets[first] for first, stop in
            simulator._chunks(np.full(N_FRAMES, N_VERTICES))]
    assert rows[0] > 0 and rows[-1] > 0 and 0 in rows


def test_an_inversion_chunk_that_keeps_no_row(chunk_rows):
    """The frames of one chunk of `simulator.frames` all saturated: it keeps
    no row, and the rows of the chunks after it land where the rows before
    it stopped, as in the oracle."""
    scene = scenes.make_scene("two-sphere", N_VERTICES, 3)
    cfg = scan_config(DEMO)
    ir, _ = simulator.simulate_scan(scene, cfg)
    chunks = list(simulator._chunks(np.diff(ir.frame_offsets)))
    first, stop = chunks[len(chunks) // 2]
    intensity = ir.intensity.copy()
    intensity[ir.frame_offsets[first]:ir.frame_offsets[stop]] = cfg.saturation_level
    ir = simulator.IrObservations(ir.vertex_id, intensity, ir.pixel, ir.frame_time,
                                  ir.frame_led, ir.frame_offsets)
    key, _, counts = check_inversion(ir, scene, cfg.trajectory, cfg.rig,
                                     cfg.camera, cfg.saturation_level,
                                     np.ones(len(scene), dtype=bool))
    chunk = ir.frame_offsets[stop] - ir.frame_offsets[first]
    assert len(key) > 0 and counts["saturated"] >= chunk > 0


def test_a_row_inverts_alone_as_within_its_frame():
    """Each frame's LED positions come from one table of the whole rig, so a
    row's inversion does not depend on the other rows of its frame."""
    scene = scenes.make_scene("two-sphere", N_VERTICES, 2)
    cfg = scan_config(DEMO)
    ir, _ = simulator.simulate_scan(scene, cfg)
    args = (scene, cfg.trajectory, cfg.rig, cfg.camera, cfg.saturation_level,
            np.ones(len(scene), dtype=bool))
    key, f, counts = estimation.invert_observation_arrays(ir, *args)
    # the position of each accepted row among the accepted ones
    accepted = oracles.invert_observation_arrays(ir, *args[:-1])[0]
    position = np.cumsum(accepted) - 1
    for r in np.random.default_rng(0).choice(len(ir), 40, replace=False):
        alone = estimation.invert_observation_arrays(
            oracles.ir_subset(ir, [r]), *args)
        expected = slice(position[r], position[r] + 1) if accepted[r] else slice(0)
        assert np.array_equal(alone[0], key[expected])
        assert np.array_equal(alone[1], f[expected])
    assert counts["accepted"] == len(key) == accepted.sum()


@pytest.mark.parametrize("scene_name", ["two-sphere", "four-material-room"])
def test_records_equal_row_major_oracle(scene_name, chunk_rows):
    """Records kept from accepted rows chunk by chunk equal those grouped
    from full-length per-row arrays."""
    scene = scenes.make_scene(scene_name, N_VERTICES, 5)
    cfg = scan_config(DEMO)
    ir, rgb = simulator.simulate_scan(scene, cfg)
    colors = estimation.estimate_colors(rgb, cfg.saturation_level)
    del colors[min(colors)]  # a vertex with rows but no color
    check_records(ir, scene, cfg, colors)


@pytest.mark.parametrize("case", ["empty", "all-saturated"])
def test_records_of_a_scan_without_accepted_rows(case, chunk_rows):
    """No rows (every one dropped), or every lit row clipped at a saturation
    level below any intensity; every vertex is given a color. The inversion
    keeps no row: `key` and `f` are empty int64 and float64 columns."""
    scene = scenes.make_scene("two-sphere", N_VERTICES, 5)
    cfg = scan_config(dict(DEMO, dropout_fraction=1.0) if case == "empty" else {})
    if case == "all-saturated":
        cfg.saturation_level = 1e-9
    ir, _ = simulator.simulate_scan(scene, cfg)
    colors = {v: np.array([0.0, 0.6, 0.8]) for v in range(len(scene))}
    records, counts = check_records(ir, scene, cfg, colors)
    assert len(records) == 0 and counts["accepted"] == 0
    key, f, _ = estimation.invert_observation_arrays(
        ir, scene, cfg.trajectory, cfg.rig, cfg.camera, cfg.saturation_level,
        np.ones(len(scene), dtype=bool))
    assert key.shape == f.shape == (0,)
    assert key.dtype == np.int64 and f.dtype == np.float64
    assert (len(ir) == 0) == (case == "empty")
    lit = len(ir) - counts["shadowed"]
    assert counts["saturated"] == (0 if case == "empty" else lit)



@pytest.mark.parametrize("seed", range(6))
def test_colors_of_ties_saturation_and_grazing(seed):
    """Vertices with 0..9 samples (odd and even counts, below and above the
    minimum), tied values, saturated channels and grazing angles."""
    rng = np.random.default_rng(seed)
    vids = np.repeat(rng.permutation(30), rng.integers(0, 10, 30))
    vids = rng.permutation(vids)
    rgb = np.round(rng.uniform(0.0, 1.2, (len(vids), 3)), 1)  # ties
    rgb[rng.random(len(vids)) < 0.1] = 0.0  # a zero color now and then
    ang = rng.uniform(0.0, 80.0, len(vids))
    obs = RgbObservations(vids, rgb, ang)
    assert_colors_equal(estimation.estimate_colors(obs, 1.0),
                        oracles.estimate_colors(obs, 1.0))
