"""Round trips for every pipeline artifact format."""

import numpy as np
import pytest

from matscan import io, scenes, segmentation
from matscan.brdf_table import N_CELLS, BrdfTable, cell_indices
from matscan.estimation import VertexReflectanceRecord
from matscan.io import CorruptInputError, MissingInputError


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        scene = scenes.make_scene("two-sphere", 50, 1)
        path = tmp_path / "scene.txt"
        io.write_scene(path, scene)
        back = io.read_scene(path, scene.materials)
        np.testing.assert_allclose(back.positions, scene.positions, rtol=1e-15)
        np.testing.assert_allclose(back.normals, scene.normals, rtol=1e-15)
        np.testing.assert_array_equal(back.material_ids, scene.material_ids)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            io.read_scene(tmp_path / "nope.txt", [])


class TestMaterialsIO:
    def test_round_trip(self, tmp_path):
        mats = scenes.default_materials(["red_glossy", "blue_matte", "gray_wall"])
        path = tmp_path / "materials.txt"
        io.write_materials(path, mats)
        back = io.read_materials(path)
        assert len(back) == 3
        for a, b in zip(mats, back):
            np.testing.assert_allclose(a.diffuse_albedo, b.diffuse_albedo,
                                       rtol=1e-15)
            np.testing.assert_allclose(a.color, b.color, rtol=1e-12)
            assert a.specular_strength == b.specular_strength
            assert a.lobe_exponent == b.lobe_exponent


class TestTrajectoryIO:
    def test_round_trip(self, tmp_path):
        traj = scenes.arc_trajectory(8, 3.0)
        path = tmp_path / "traj.txt"
        io.write_trajectory(path, traj)
        back = io.read_trajectory(path)
        assert len(back) == len(traj)
        for a, b in zip(traj, back):
            assert a.timestamp == b.timestamp
            assert a.pose.rotation.angle_to(b.pose.rotation) < 1e-5
            np.testing.assert_allclose(a.pose.translation, b.pose.translation,
                                       rtol=1e-15)


class TestObservationIO:
    def test_ir_round_trip(self, tmp_path, noiseless_two_sphere):
        ir = noiseless_two_sphere["ir"]
        path = tmp_path / "ir.txt"
        io.write_ir_observations(path, ir)
        back = io.read_ir_observations(path)
        np.testing.assert_array_equal(back.vertex_id, ir.vertex_id)
        np.testing.assert_array_equal(back.led_index, ir.led_index)
        np.testing.assert_allclose(back.intensity, ir.intensity, rtol=1e-15)
        np.testing.assert_allclose(back.pixel, ir.pixel, rtol=1e-15)

    def test_rgb_round_trip(self, tmp_path, noiseless_two_sphere):
        rgb = noiseless_two_sphere["rgb"]
        path = tmp_path / "rgb.txt"
        io.write_rgb_observations(path, rgb)
        back = io.read_rgb_observations(path)
        np.testing.assert_array_equal(back.vertex_id, rgb.vertex_id)
        np.testing.assert_allclose(back.rgb, rgb.rgb, rtol=1e-15)
        np.testing.assert_allclose(back.omega_out_angle, rgb.omega_out_angle,
                                   rtol=1e-15)


class TestColorsIO:
    def test_round_trip(self, tmp_path):
        colors = {3: np.array([0.6, 0.8, 0.0]), 9: np.array([1.0, 0.0, 0.0])}
        path = tmp_path / "colors.txt"
        io.write_colors(path, colors)
        back = io.read_colors(path)
        assert set(back) == {3, 9}
        np.testing.assert_allclose(back[3], colors[3], rtol=1e-15)


class TestRecordsIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        records = []
        for v in (2, 7, 11):
            flat = rng.choice(N_CELLS, size=5, replace=False)
            t = BrdfTable.from_cells(cell_indices(flat), rng.uniform(0, 1, (5, 3)),
                                     rng.integers(0, 4, 5))
            c = rng.uniform(0, 1, 3)
            records.append(VertexReflectanceRecord(v, c / np.linalg.norm(c), t))
        path = tmp_path / "records.npz"
        io.write_records(path, records)
        back = io.read_records(path)
        assert [r.vertex_id for r in back] == [2, 7, 11]
        for a, b in zip(records, back):
            np.testing.assert_array_equal(a.normalized_color, b.normalized_color)
            np.testing.assert_array_equal(a.table.flat, b.table.flat)
            np.testing.assert_array_equal(a.table.counts, b.table.counts)
            np.testing.assert_array_equal(a.table.means, b.table.means)

    def test_no_records(self, tmp_path):
        path = tmp_path / "records.npz"
        io.write_records(path, [])
        assert io.read_records(path) == []

    def _written(self, tmp_path):
        t = BrdfTable.from_cells(cell_indices(np.array([3, 9])),
                                 np.full((2, 3), 0.5), np.array([1, 2]))
        path = tmp_path / "records.npz"
        io.write_records(path, [VertexReflectanceRecord(4, np.ones(3) / 3 ** 0.5,
                                                        t)])
        return path, dict(np.load(path))

    @pytest.mark.parametrize("corrupt", [
        lambda a: a["cell_h"].__setitem__(0, 99),   # cell out of range
        lambda a: a["cell_count"].__setitem__(0, -1),
        lambda a: a["cell_mean"].__setitem__(0, np.nan),
        lambda a: a.pop("cell_d"),
        lambda a: a.__setitem__("cell_vid", np.array([5, 5])),  # no such vertex
    ])
    def test_bad_content_is_corrupt_input(self, tmp_path, corrupt):
        path, arrays = self._written(tmp_path)
        corrupt(arrays)
        np.savez_compressed(path, **arrays)
        with pytest.raises(CorruptInputError, match="records.npz"):
            io.read_records(path)

    @pytest.mark.parametrize("content", [b"", b"not an npz archive"])
    def test_unreadable_file_is_corrupt_input(self, tmp_path, content):
        path = tmp_path / "records.npz"
        path.write_bytes(content)
        with pytest.raises(CorruptInputError, match="records.npz"):
            io.read_records(path)

    def test_global_table_from_disk_equals_in_memory(self, tmp_path,
                                                     noisy_two_sphere):
        run = noisy_two_sphere
        path = tmp_path / "records.npz"
        io.write_records(path, run["records"])
        table = segmentation.build_global_table(io.read_records(path), 100000, 11)
        expected = run["table"]
        np.testing.assert_array_equal(table.sampled_ids, expected.sampled_ids)
        assert list(table.cells) == list(expected.cells)
        for flat, (vids, vals) in expected.cells.items():
            np.testing.assert_array_equal(table.cells[flat][0], vids)
            np.testing.assert_array_equal(table.cells[flat][1], vals)


class TestLabelsIO:
    def test_round_trip(self, tmp_path):
        labels = np.array([0, 0, 1, -1, 2, -1])
        path = tmp_path / "labels.txt"
        io.write_labels(path, labels)
        back = io.read_labels(path)
        np.testing.assert_array_equal(back, labels)

    def test_summary_comment_present(self, tmp_path):
        path = tmp_path / "labels.txt"
        io.write_labels(path, np.array([0, 1, -1]))
        text = path.read_text()
        assert "# group 0 count 1" in text
        assert "# unclassified 1" in text
