"""Quaternions, poses, cameras and the half/difference angle transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matscan.geometry import (LedRig, PinholeCamera, Pose, Quaternion,
                              TimedPose, half_diff_angle_arrays,
                              interpolate_pose, interpolate_trajectory, look_at,
                              project_points, slerp)
from oracles import (HalfDiffAngles, angle_to, compose, half_diff_angles,
                     project, unproject)

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
            q2 = Quaternion.from_matrix(q.to_matrix())
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
        r = q * q.conjugate()
        np.testing.assert_allclose(r.to_matrix(), np.eye(3), atol=1e-12)


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
        p0 = TimedPose(Pose(Quaternion.identity(), np.zeros(3)), 0.0)
        p1 = TimedPose(Pose(Quaternion.identity(), np.array([2.0, 0, 0])), 2.0)
        pose = interpolate_pose(p0, p1, 0.5)
        np.testing.assert_allclose(pose.translation, [0.5, 0, 0])

    def test_trajectory_brackets_and_rejects_outside(self):
        traj = [TimedPose(Pose(Quaternion.identity(),
                               np.array([float(t), 0, 0])), float(t))
                for t in range(4)]
        np.testing.assert_allclose(interpolate_trajectory(traj, 1.25).translation,
                                   [1.25, 0, 0])
        np.testing.assert_allclose(interpolate_trajectory(traj, 0.0).translation,
                                   [0, 0, 0])
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
        pose = Pose.identity()
        p = np.array([0.05, -0.02, 0.6])
        pix = project(cam, pose, p)
        assert pix is not None
        np.testing.assert_allclose(unproject(cam, pix, 0.6), p, atol=1e-12)

    def test_project_points_matches_scalar(self):
        cam = PinholeCamera(570.0, 570.0, 347.0, 259.0, 694, 518)
        pose = look_at([0.0, 0.1, -0.9], [0, 0, 0.1])
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.2, 0.2, size=(50, 3))
        pix, valid = project_points(cam, pose, pts)
        for i in range(len(pts)):
            single = project(cam, pose, pts[i])
            if single is None:
                assert not valid[i]
            else:
                assert valid[i]
                np.testing.assert_allclose(pix[i], single, atol=1e-9)

    def test_look_at_faces_target(self):
        pose = look_at([0.0, 0.0, -1.0], [0.0, 0.0, 0.5])
        # camera +z should point from position toward target
        fwd = pose.rotate([0.0, 0.0, 1.0])
        np.testing.assert_allclose(fwd, [0, 0, 1], atol=1e-12)


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
        th, td = half_diff_angle_arrays(np.tile(n, (64, 1)), wi, wo)
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
