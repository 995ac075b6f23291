"""Quaternions, poses, cameras and the half/difference angle transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from matscan import geometry, io, scenes
from matscan.geometry import (UNIT_TOL, LedRig, PinholeCamera, Quaternion,
                              Trajectory, half_diff_angle_arrays,
                              interpolate_trajectory, look_at_poses,
                              project_points, rotation_matrices,
                              trajectory_poses)
from oracles import (HalfDiffAngles, Pose, angle_to, compose, half_diff_angles,
                     look_at, project, unproject)

finite = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3)
quats = st.builds(Quaternion, finite, finite, finite, finite)
units = st.floats(0.0, 1.0)


def rand_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestQuaternion:
    def test_constructor_normalizes(self):
        q = Quaternion(2.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(0.0, 0.0, 0.0, 0.0)

    def test_axis_angle_rotation(self):
        q = Quaternion.from_axis_angle([0, 0, 1], 90.0)
        np.testing.assert_allclose(q.rotate([1.0, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = Quaternion.from_axis_angle(rand_unit(rng), rng.uniform(-180, 180))
            q2 = Quaternion(*geometry._matrix_quaternions(q.to_matrix()[None])[0])
            # q and -q encode the same rotation; arccos limits precision
            assert angle_to(q, q2) < 1e-5

    @given(quats, quats)
    @settings(max_examples=50)
    def test_composition_matches_matrix_product(self, a, b):
        np.testing.assert_allclose((a * b).to_matrix(),
                                   a.to_matrix() @ b.to_matrix(), atol=1e-9)

    def test_conjugate_inverts(self):
        q = Quaternion.from_axis_angle([1, 2, 2], 40.0)
        assert angle_to(q, q) == pytest.approx(0.0, abs=1e-5)
        r = q * Quaternion(q.w, -q.x, -q.y, -q.z)
        np.testing.assert_allclose(r.to_matrix(), np.eye(3), atol=1e-12)


def slerp(a: Quaternion, b: Quaternion, u: float) -> Quaternion:
    """The attitude `trajectory_poses` interpolates at time u between a at
    time 0 and b at time 1."""
    traj = Trajectory([0.0, 1.0], [a.as_array(), b.as_array()], np.zeros((2, 3)))
    q, _ = geometry.trajectory_quaternions(traj, [u])
    np.testing.assert_array_equal(trajectory_poses(traj, [u])[0][0],
                                  Quaternion(*q[0]).to_matrix())
    return Quaternion(*q[0])


class TestSlerp:
    @given(quats, quats, units)
    @settings(max_examples=80)
    def test_unit_norm(self, a, b, u):
        q = slerp(a, b, u)
        assert np.linalg.norm(q.as_array()) == pytest.approx(1.0, abs=1e-9)

    def test_endpoints(self):
        a = Quaternion.from_axis_angle([0, 0, 1], 10.0)
        b = Quaternion.from_axis_angle([0, 1, 0], 70.0)
        assert angle_to(slerp(a, b, 0.0), a) < 1e-9
        assert angle_to(slerp(a, b, 1.0), b) < 1e-9

    def test_constant_angular_velocity(self):
        a = Quaternion.from_axis_angle([0, 0, 1], 5.0)
        b = Quaternion.from_axis_angle([0, 1, 0], 115.0)
        total = angle_to(a, b)
        us = np.linspace(0.0, 1.0, 9)
        qs = [slerp(a, b, float(u)) for u in us]
        steps = [angle_to(qs[i], qs[i + 1]) for i in range(len(qs) - 1)]
        np.testing.assert_allclose(steps, total / 8, rtol=1e-9)

    def test_matches_scipy(self):
        from scipy.spatial.transform import Rotation, Slerp
        a = Quaternion.from_axis_angle([0, 0, 1], 10.0)
        b = Quaternion.from_axis_angle([0, 1, 0], 70.0)
        r = Rotation.from_quat([[a.x, a.y, a.z, a.w], [b.x, b.y, b.z, b.w]])
        ref = Slerp([0, 1], r)
        for u in (0.25, 0.5, 0.9):
            np.testing.assert_allclose(slerp(a, b, u).to_matrix(),
                                       ref([u]).as_matrix()[0], atol=1e-12)

    def test_antipodal_takes_short_path(self):
        a = Quaternion.from_axis_angle([0, 0, 1], 20.0)
        b_arr = -slerp(a, a, 0.0).as_array()  # -a, same rotation
        b = Quaternion(*b_arr)
        assert angle_to(slerp(a, b, 0.5), a) < 1e-9


class TestPose:
    def test_transform_inverse(self):
        rng = np.random.default_rng(3)
        pose = Pose(Quaternion.from_axis_angle(rand_unit(rng), 33.0),
                    np.array([0.1, -0.2, 0.3]))
        pts = rng.normal(size=(20, 3))
        np.testing.assert_allclose(pose.inverse().transform(pose.transform(pts)),
                                   pts, atol=1e-12)

    def test_compose_associative_with_transform(self):
        rng = np.random.default_rng(4)
        p1 = Pose(Quaternion.from_axis_angle(rand_unit(rng), 21.0),
                  rng.normal(size=3))
        p2 = Pose(Quaternion.from_axis_angle(rand_unit(rng), -48.0),
                  rng.normal(size=3))
        x = rng.normal(size=3)
        np.testing.assert_allclose(compose(p1, p2).transform(x),
                                   p1.transform(p2.transform(x)), atol=1e-12)

    def test_interpolation_blends_translation(self):
        traj = Trajectory([0.0, 2.0], [[1.0, 0, 0, 0]] * 2, [[0.0, 0, 0], [2.0, 0, 0]])
        rot, trans = trajectory_poses(traj, [0.5, 2.0])
        np.testing.assert_allclose(trans, [[0.5, 0, 0], [2.0, 0, 0]])
        np.testing.assert_array_equal(rot, np.broadcast_to(np.eye(3), (2, 3, 3)))

    def test_trajectory_brackets_and_rejects_outside(self):
        t = np.arange(4.0)
        traj = Trajectory(t, [[1.0, 0, 0, 0]] * 4, np.outer(t, [1.0, 0, 0]))
        np.testing.assert_allclose(interpolate_trajectory(traj, 1.25)[1],
                                   [1.25, 0, 0])
        np.testing.assert_allclose(interpolate_trajectory(traj, 0.0)[1], [0, 0, 0])
        with pytest.raises(ValueError):
            interpolate_trajectory(traj, -1.0)
        with pytest.raises(ValueError):
            interpolate_trajectory(traj, 9.0)


class TestCamera:
    def test_validation(self):
        with pytest.raises(ValueError):
            PinholeCamera(0.0, 570.0, 347.0, 259.0, 694, 518)

    def test_project_unproject_round_trip(self):
        cam = PinholeCamera(570.0, 570.0, 347.0, 259.0, 694, 518)
        pose = Pose(Quaternion(1.0, 0.0, 0.0, 0.0), np.zeros(3))
        p = np.array([0.05, -0.02, 0.6])
        pix = project(cam, pose, p)
        assert pix is not None
        np.testing.assert_allclose(unproject(cam, pix, 0.6), p, atol=1e-12)

    def test_project_points_matches_scalar(self):
        cam = PinholeCamera(570.0, 570.0, 347.0, 259.0, 694, 518)
        pose = look_at([0.0, 0.1, -0.9], [0, 0, 0.1])
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.2, 0.2, size=(50, 3))
        pix, valid = project_points(cam, pose.rotation.to_matrix()[None],
                                    pose.translation[None], pts)
        pix, valid = pix[0], valid[0]
        for i in range(len(pts)):
            single = project(cam, pose, pts[i])
            if single is None:
                assert not valid[i]
            else:
                assert valid[i]
                np.testing.assert_allclose(pix[i], single, atol=1e-9)

    def test_look_at_faces_target(self):
        q, _ = look_at_poses([[0.0, 0.0, -1.0]], [0.0, 0.0, 0.5])
        # camera +z should point from position toward target
        fwd = rotation_matrices(q[0]) @ [0.0, 0.0, 1.0]
        np.testing.assert_allclose(fwd, [0, 0, 1], atol=1e-12)


def random_trajectory(rng, n, parallel=False):
    """n poses at rising random times; with `parallel` the attitudes are
    within ~1e-7 of one another (the normalized-lerp branch of slerp), and
    random signs make quaternion dots negative either way."""
    q = rng.normal(size=(n, 4))
    if parallel:
        q = q[:1] + rng.normal(0, 1e-7, (n, 4))
    q *= rng.choice([-1.0, 1.0], (n, 1))
    times = np.cumsum(rng.uniform(0.01, 2.0, n)) - 1.0
    return Trajectory(times, q, rng.normal(size=(n, 3)))


class TestTrajectory:
    """The contract of the one trajectory type: every check a trajectory
    gets, and `Quaternion`'s renormalization of each row."""

    def test_valid_trajectory_is_stored_read_only(self):
        times = np.array([0.0, 1.0])
        traj = Trajectory(times, [[1.0, 0, 0, 0], [0, 1.0, 0, 0]], np.zeros((2, 3)))
        assert len(traj.times) == 2
        times[0] = -1.0  # a copy was kept
        assert traj.times[0] == 0.0
        for a in (traj.times, traj.quaternions, traj.translations):
            assert not a.flags.writeable and a.flags.c_contiguous
            assert a.dtype == np.float64

    @pytest.mark.parametrize("k", [0, 1])
    def test_fewer_than_two_poses_raise(self, k):
        with pytest.raises(ValueError, match="at least two poses"):
            Trajectory(np.arange(k, dtype=float), np.tile([1.0, 0, 0, 0], (k, 1)),
                       np.zeros((k, 3)))

    @pytest.mark.parametrize("field", ["times", "quaternions", "translations"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises(self, field, bad):
        arrays = dict(times=[0.0, 1.0, 2.0], quaternions=np.tile([1.0, 0, 0, 0], (3, 1)),
                      translations=np.zeros((3, 3)))
        a = np.array(arrays[field], dtype=float)
        a.reshape(-1)[-1] = bad
        arrays[field] = a
        with pytest.raises(ValueError, match="not finite"):
            Trajectory(**arrays)

    @pytest.mark.parametrize("times", [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                                       [0.0, 2.0, 1.0], [1.0, 0.0, -1.0]])
    def test_equal_or_falling_times_raise(self, times):
        with pytest.raises(ValueError, match="strictly increase"):
            Trajectory(times, np.tile([1.0, 0, 0, 0], (3, 1)), np.zeros((3, 3)))

    @pytest.mark.parametrize("shapes", [((3, 1), (3, 4), (3, 3)), ((3,), (3, 3), (3, 3)),
                                        ((3,), (3, 4), (3, 4)), ((3,), (2, 4), (3, 3)),
                                        ((3,), (3, 4), (4, 3)), ((3,), (12,), (3, 3))])
    def test_wrong_shape_raises(self, shapes):
        t, q, p = shapes
        with pytest.raises(ValueError, match="are not"):
            Trajectory(np.arange(3.0).reshape(t), np.ones(q), np.zeros(p))

    @pytest.mark.parametrize("zero", [[0.0, 0, 0, 0], [1e-13, 0, 0, 0]])
    def test_zero_quaternion_raises(self, zero):
        with pytest.raises(ValueError, match="zero quaternion"):
            Trajectory([0.0, 1.0], [[1.0, 0, 0, 0], zero], np.zeros((2, 3)))
        with pytest.raises(ValueError, match="zero quaternion"):
            Quaternion(*zero)

    @pytest.mark.parametrize("off", [0.0, 1e-12, 0.6 * UNIT_TOL, UNIT_TOL,
                                     1.5 * UNIT_TOL, 1e-6, 1e-3, 0.5, 7.0])
    def test_rows_are_renormalized_as_quaternion_does(self, off):
        """Rows off unit norm by `off`, on both sides of UNIT_TOL: each row
        stored equals `Quaternion(*row)`, bit for bit, and rows within
        UNIT_TOL are kept as they are."""
        rng = np.random.default_rng(6)
        q = rng.normal(size=(300, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q *= 1 + off * rng.choice([-1.0, 1.0], (300, 1))
        traj = Trajectory(np.arange(300.0), q, np.zeros((300, 3)))
        np.testing.assert_array_equal(
            traj.quaternions, np.array([Quaternion(*r).as_array() for r in q]))
        off_unit = np.abs(np.linalg.norm(q, axis=1) - 1.0)
        kept = off_unit < 0.5 * UNIT_TOL
        np.testing.assert_array_equal(traj.quaternions[kept], q[kept])
        renormalized = np.linalg.norm(traj.quaternions[off_unit > 2 * UNIT_TOL], axis=1)
        assert np.all(np.abs(renormalized - 1.0) < 1e-12)

    def test_layout_of_the_input_does_not_change_the_poses(self):
        """A Fortran-ordered or strided quaternion array gives the poses of
        the C-ordered one, bit for bit."""
        rng = np.random.default_rng(7)
        traj = random_trajectory(rng, 9)
        times = rng.uniform(traj.times[0], traj.times[-1], 40)
        want = trajectory_poses(traj, times)
        wide = np.zeros((9, 8))
        wide[:, ::2] = traj.quaternions
        for q in (np.asfortranarray(traj.quaternions), wide[:, ::2]):
            got = trajectory_poses(Trajectory(traj.times, q, traj.translations), times)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


class TestTrajectoryArrays:
    """Poses at every frame time at once equal the per-pose `Pose` path of
    `oracles`, bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_interpolation_equals_per_pose(self, seed, n, parallel):
        rng = np.random.default_rng(seed)
        traj = random_trajectory(rng, n, parallel)
        stamps = traj.times
        # inside, at every timestamp, and at both ends
        times = np.concatenate([rng.uniform(stamps[0], stamps[-1], 30), stamps])
        rot, trans = trajectory_poses(traj, times)
        poses = oracles.timed_poses(traj)
        expected = oracles.trajectory_poses(poses, times)
        np.testing.assert_array_equal(rot, expected[0])
        np.testing.assert_array_equal(trans, expected[1])
        rot, trans = interpolate_trajectory(traj, float(times[0]))
        want = oracles.interpolate_trajectory(poses, float(times[0]))
        np.testing.assert_array_equal(rot, want.rotation.to_matrix())
        np.testing.assert_array_equal(trans, want.translation)

    def test_both_slerp_branches_and_signs_are_taken(self):
        rng = np.random.default_rng(3)
        for parallel in (False, True):
            q = random_trajectory(rng, 12, parallel).quaternions
            dots = np.einsum("ij,ij->i", q[:-1], q[1:])
            assert np.any(dots < 0) and np.any(dots > 0)
            assert np.all(np.abs(dots) > 1 - 1e-6) == parallel

    def test_times_outside_the_trajectory_raise(self):
        traj = random_trajectory(np.random.default_rng(4), 3)
        for t in (traj.times[0] - 1e-9, traj.times[-1] + 1e-9):
            with pytest.raises(ValueError):
                trajectory_poses(traj, [t])

    @pytest.mark.parametrize("off", [0.0, 1e-12, 0.6 * UNIT_TOL, UNIT_TOL,
                                     1.5 * UNIT_TOL, 1e-3, 0.5])
    def test_normalized_rows_need_no_renormalization(self, off):
        """Rows off unit norm by `off`, on both sides of UNIT_TOL, divided by
        their norm as the interpolation divides them: `Quaternion`, which
        divides a row off by more than UNIT_TOL, keeps each as it is."""
        rng = np.random.default_rng(5)
        q = rng.normal(size=(200, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q *= 1 + off * rng.choice([-1.0, 1.0], (200, 1))
        q /= geometry.norm_rows(q)[:, None]
        np.testing.assert_array_equal(
            np.array([Quaternion(*r).as_array() for r in q]), q)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_projection_equals_per_pose(self, seed, k):
        rng = np.random.default_rng(seed)
        cam = PinholeCamera(570.0, 570.0, 347.0, 259.0, 694, 518)
        traj = random_trajectory(rng, 4)
        times = rng.uniform(traj.times[0], traj.times[-1], k)
        rot, trans = trajectory_poses(traj, times)
        pts = rng.normal(0, 2, (40, 3))
        poses = [oracles.interpolate_trajectory(oracles.timed_poses(traj), float(t))
                 for t in times]
        for got, want in zip(project_points(cam, rot, trans, pts),
                             oracles.project_points(cam, poses, pts)):
            np.testing.assert_array_equal(got, want)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_look_at_poses_equal_per_pose(self, seed, k):
        rng = np.random.default_rng(seed)
        positions = rng.normal(0, 1, (k, 3))
        target = rng.normal(0, 0.2, 3)
        for q, got, p in zip(*look_at_poses(positions, target), positions):
            want = oracles.look_at(p, target)
            np.testing.assert_array_equal(q, want.rotation.as_array())
            np.testing.assert_array_equal(got, want.translation)
        with pytest.raises(ValueError):
            look_at_poses(np.vstack([positions, target]), target)
        with pytest.raises(ValueError):
            look_at_poses([[0.0, 0.0, 0.0]], [0.0, 2.0, 0.0])

    @pytest.mark.parametrize("n, duration", [(2, 1.0), (12, 4.0), (50, 10.0),
                                             (97, 7.5)])
    def test_arc_trajectory_file_equals_per_pose(self, tmp_path, n, duration):
        """`trajectory.txt` of the arc equals the file the per-pose arc and
        writer give, byte for byte."""
        io.write_trajectory(tmp_path / "a.txt", scenes.arc_trajectory(n, duration))
        oracles.write_trajectory(tmp_path / "b.txt", oracles.arc_trajectory(n, duration))
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestLedRig:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LedRig(np.zeros((3, 2)), np.ones(3))
        with pytest.raises(ValueError):
            LedRig(np.zeros((3, 3)), np.ones(2))


class TestHalfDiffAngles:
    def test_normal_incidence(self):
        n = np.array([0.0, 0.0, 1.0])
        a = half_diff_angles(n, n, n)
        assert a.theta_h == pytest.approx(0.0, abs=1e-9)
        assert a.theta_d == pytest.approx(0.0, abs=1e-9)

    def test_mirror_geometry(self):
        n = np.array([0.0, 0.0, 1.0])
        wi = np.array([np.sin(np.deg2rad(30)), 0.0, np.cos(np.deg2rad(30))])
        wo = np.array([-np.sin(np.deg2rad(30)), 0.0, np.cos(np.deg2rad(30))])
        a = half_diff_angles(n, wi, wo)
        assert a.theta_h == pytest.approx(0.0, abs=1e-9)
        assert a.theta_d == pytest.approx(30.0, abs=1e-9)

    def test_back_facing_rejected(self):
        n = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            half_diff_angles(n, -n, n)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            HalfDiffAngles(-1.0, 0.0)
        with pytest.raises(ValueError):
            HalfDiffAngles(0.0, 90.5)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(12)
        n = np.array([0.0, 0.0, 1.0])
        for _ in range(100):
            wi, wo = _front_pair(rng, n)
            a = half_diff_angles(n, wi, wo)
            b = half_diff_angles(n, wo, wi)
            assert a.theta_h == pytest.approx(b.theta_h, abs=1e-9)
            assert a.theta_d == pytest.approx(b.theta_d, abs=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        n = np.array([0.0, 0.0, 1.0])
        for _ in range(100):
            wi, wo = _front_pair(rng, n)
            q = Quaternion.from_axis_angle(rand_unit(rng), rng.uniform(-180, 180))
            a = half_diff_angles(n, wi, wo)
            b = half_diff_angles(q.rotate(n), q.rotate(wi), q.rotate(wo))
            assert a.theta_h == pytest.approx(b.theta_h, abs=1e-9)
            assert a.theta_d == pytest.approx(b.theta_d, abs=1e-9)

    def test_array_form_matches_scalar(self):
        rng = np.random.default_rng(14)
        n = np.array([0.0, 0.0, 1.0])
        pairs = [_front_pair(rng, n) for _ in range(64)]
        wi = np.array([p[0] for p in pairs])
        wo = np.array([p[1] for p in pairs])
        th, td = half_diff_angle_arrays(np.tile(n, (64, 1)).T, wi.T, wo.T)
        for i in range(64):
            a = half_diff_angles(n, wi[i], wo[i])
            assert th[i] == pytest.approx(a.theta_h, abs=1e-12)
            assert td[i] == pytest.approx(a.theta_d, abs=1e-12)


def _front_pair(rng, n):
    """Two unit directions in the upper hemisphere of n, half vector defined."""
    while True:
        wi = rand_unit(rng)
        wo = rand_unit(rng)
        if wi @ n > 1e-3 and wo @ n > 1e-3 and np.linalg.norm(wi + wo) > 1e-3:
            return wi, wo
