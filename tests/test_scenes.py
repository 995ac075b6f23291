"""Built-in scenes and the arc trajectory."""

import numpy as np
import pytest

from matscan import scenes
from matscan.geometry import rotation_matrices
from matscan.scenes import BUILTIN_SCENES, arc_trajectory, make_scene


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENES))
class TestBuiltinScenes:
    def test_shapes_and_units(self, name):
        scene = make_scene(name, 600, 3)
        assert len(scene) == 600
        assert scene.positions.shape == (600, 3)
        np.testing.assert_allclose(np.linalg.norm(scene.normals, axis=1), 1.0,
                                   atol=1e-9)
        assert scene.material_ids.min() >= 0
        assert scene.material_ids.max() < len(scene.materials)

    def test_every_material_used(self, name):
        scene = make_scene(name, 600, 3)
        assert set(scene.material_ids) == set(range(len(scene.materials)))

    def test_deterministic_per_seed(self, name):
        a = make_scene(name, 200, 9)
        b = make_scene(name, 200, 9)
        np.testing.assert_array_equal(a.positions, b.positions)


class TestSceneRegistry:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_scene("no-such-scene", 10, 0)

    def test_lambertian_variant_keeps_colors(self):
        ref = scenes.default_materials(["red_glossy", "blue_matte"])
        flat = scenes.lambertian_materials(ref)
        for a, b in zip(ref, flat):
            np.testing.assert_array_equal(a.color, b.color)
            np.testing.assert_array_equal(a.diffuse_albedo, b.diffuse_albedo)
            assert b.specular_strength == 0.0 and b.lobe_exponent == 1.0


class TestArcTrajectory:
    def test_timestamps_and_count(self):
        traj = arc_trajectory(20, 8.0)
        assert len(traj.times) == 20
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(8.0)
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_fewer_than_two_poses_raise(self, n):
        with pytest.raises(ValueError, match="at least two poses"):
            arc_trajectory(n, 8.0)

    def test_poses_look_toward_scene(self):
        traj = arc_trajectory(10, 5.0, target=(0.0, 0.0, 0.15))
        for rot, pos in zip(rotation_matrices(traj.quaternions), traj.translations):
            fwd = rot @ [0.0, 0.0, 1.0]
            to_target = np.array([0.0, 0.0, 0.15]) - pos
            to_target /= np.linalg.norm(to_target)
            assert fwd @ to_target > 0.99
