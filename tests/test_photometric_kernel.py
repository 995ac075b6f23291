"""The photometric kernel on component arrays (3, ...) against its per-row
oracles, bit for bit: a frame's geometry, the half/difference angles, the
normal jitter and the RGB view cosine, on one row, on part of a frame and
on several frames at once; and the one dot it sums, in its written order
whatever SIMD kernels numpy dispatches to."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from matscan import geometry, scenes, simulator
from matscan.geometry import Quaternion

SCENE = scenes.make_scene("two-sphere", 240, 3)
TRAJECTORY = scenes.arc_trajectory(12, 4.0)
RIG = simulator.make_default_rig()
POSITIONS, NORMALS = simulator.vertex_components(SCENE)
# frames and the vertex rows each frame holds
CASES = {"one-row": ([9], [17]), "partial-frame": ([30], range(40, 200, 3)),
         "several-frames": ([0, 7, 13, 44, 59], range(240))}


def assert_bits(got, want):
    """Equal shapes and bytes: -0.0 differs from 0.0 here."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture(params=list(CASES), ids=list(CASES))
def case(request):
    """The case's vertex rows (m,) and, per frame (k of them), its camera
    position and the world position of its LED, each (k, 3)."""
    fis, rows = CASES[request.param]
    times = simulator.frame_times(TRAJECTORY, 60)[fis]
    rots, cams = geometry.trajectory_poses(TRAJECTORY, times)
    leds = simulator.led_world_positions(rots, cams,
                                         RIG.positions[np.array(fis) % len(RIG)])
    return np.asarray(rows), cams, leds


def kernel_geometry(rows, cams, leds):
    """`frame_geometry` of every frame of the case at once, as the scan
    broadcasts it: per frame (3, k, 1) against per vertex (3, 1, m)."""
    return simulator.frame_geometry(cams.T[:, :, None], leds.T[:, :, None],
                                    POSITIONS[:, None, rows], NORMALS[:, None, rows])


def oracle_geometry(rows, cam, led):
    return oracles._frame_geometry(oracles.Pose(Quaternion(1, 0, 0, 0), cam), led,
                                   SCENE.positions[rows], SCENE.normals[rows])


def test_frame_geometry(case):
    rows, cams, leds = case
    got = kernel_geometry(rows, cams, leds)
    for j, (cam, led) in enumerate(zip(cams, leds)):
        d, l, ndotl, wo, ndotv = oracle_geometry(rows, cam, led)
        for a, b in zip(got, (d, l.T, ndotl, wo.T, ndotv)):
            assert_bits(a[..., j, :], b)


def test_half_diff_angles(case):
    rows, cams, leds = case
    _, l, _, wo, _ = kernel_geometry(rows, cams, leds)
    k = len(cams)
    normals = np.broadcast_to(NORMALS[:, None, rows], l.shape).reshape(3, -1)
    th, td = geometry.half_diff_angle_arrays(normals, l.reshape(3, -1),
                                             wo.reshape(3, -1))
    for j, (cam, led) in enumerate(zip(cams, leds)):
        _, l_rows, _, wo_rows, _ = oracle_geometry(rows, cam, led)
        want = oracles._half_diff_angle_arrays(SCENE.normals[rows], l_rows, wo_rows)
        for a, b in zip((th, td), want):
            assert_bits(a.reshape(k, -1)[j], b)


def test_view_cosine(case):
    """The RGB view cosine of the true normals: the scan's dot of the
    kernel's view directions against the oracle's row dots."""
    rows, cams, leds = case
    _, _, _, wo, _ = kernel_geometry(rows, cams, leds)
    for j, (cam, led) in enumerate(zip(cams, leds)):
        _, _, _, wo_rows, _ = oracle_geometry(rows, cam, led)
        assert_bits(geometry.dot3(NORMALS[:, rows], wo[:, j]),
                    oracles.row_dots(SCENE.normals[rows], wo_rows))


@pytest.mark.parametrize("sigma_deg", [2.0, 40.0])
def test_jitter_directions(case, sigma_deg):
    """Each frame's draws, its standard normals (m, 3) then its angles (m,),
    from its own generator, as the scan and the oracle draw them."""
    rows, cams, _ = case
    k, m = len(cams), len(rows)
    raw, ang = np.empty((3, k, m)), np.empty((k, m))
    for j in range(k):
        rng = np.random.default_rng(j)
        raw[:, j] = rng.normal(size=(m, 3)).T
        ang[j] = rng.normal(0.0, sigma_deg, m)
    got = simulator._jitter_directions(NORMALS[:, None, rows], raw, ang)
    for j in range(k):
        want = oracles._jitter_directions(np.random.default_rng(j),
                                          SCENE.normals[rows], sigma_deg)
        assert_bits(got[:, j], want.T)


finite = st.floats(-1e100, 1e100, allow_nan=False)


@given(st.lists(st.tuples(*[finite] * 6), min_size=1, max_size=9))
def test_dot3_sums_in_its_written_order(pairs):
    """Every column of component arrays (3, n): (a0 b0 + a2 b2) + a1 b1 in
    Python floats, and each one alone as a 3-vector."""
    a = np.array([p[:3] for p in pairs]).T
    b = np.array([p[3:] for p in pairs]).T
    want = np.array([(a0 * b0 + a2 * b2) + a1 * b1
                     for a0, a1, a2, b0, b1, b2 in pairs])
    assert_bits(geometry.dot3(a, b), want)
    for i in range(len(pairs)):
        assert_bits(geometry.dot3(a[:, i], b[:, i]), want[i])
