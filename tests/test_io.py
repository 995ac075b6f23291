"""Round trips for every pipeline artifact format."""

import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from matscan import io, scenes, segmentation
from matscan.brdf_table import N_CELLS, BrdfTable, cell_indices
from matscan.estimation import VertexReflectanceRecord, VertexRecords
from matscan.io import CorruptInputError, MissingInputError
from matscan.simulator import IrObservations


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        scene = scenes.make_scene("two-sphere", 50, 1)
        path = tmp_path / "scene.txt"
        io.write_scene(path, scene)
        back = io.read_scene(path, scene.materials)
        np.testing.assert_array_equal(back.positions, scene.positions)
        np.testing.assert_array_equal(back.normals, scene.normals)
        np.testing.assert_array_equal(back.material_ids, scene.material_ids)

    @pytest.mark.parametrize("normal", ["0 0 0.5", "0 0 0", "0 nan 1"])
    def test_non_unit_normal_is_corrupt_input(self, tmp_path, normal):
        path = tmp_path / "scene.txt"
        path.write_text(f"0 0 0 1 0 0 1 0\n1 0 0 1 {normal} 0\n")
        with pytest.raises(CorruptInputError, match="scene.txt"):
            io.read_scene(path, [])

    @pytest.mark.parametrize("material_id", ["9", "2", "-1", "0.5", "nan"])
    def test_bad_material_id_is_corrupt_input(self, tmp_path, material_id):
        path = tmp_path / "scene.txt"
        path.write_text(f"0 0 0 1 0 0 1 0\n1 0 0 1 0 0 1 {material_id}\n")
        materials = scenes.default_materials(["red_glossy", "blue_matte"])
        with pytest.raises(CorruptInputError,
                           match=r"scene.txt: a material id is not an integer "
                                 r"in \[0, 2\)"):
            io.read_scene(path, materials)

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_position_is_corrupt_input(self, tmp_path, x):
        path = tmp_path / "scene.txt"
        path.write_text(f"0 0 0 1 0 0 1 0\n1 {x} 0 1 0 0 1 0\n")
        with pytest.raises(CorruptInputError,
                           match="scene.txt: a position is not finite"):
            io.read_scene(path, [])

    @pytest.mark.parametrize("ids", [("7", "3"), ("1", "0"), ("0", "0"),
                                     ("0", "1.5"), ("0", "nan")])
    def test_vertex_ids_not_in_order_are_corrupt_input(self, tmp_path, ids):
        path = tmp_path / "scene.txt"
        path.write_text(f"{ids[0]} 0 0 1 0 0 1 0\n{ids[1]} 0 0 1 0 0 1 0\n")
        with pytest.raises(CorruptInputError,
                           match=r"scene.txt: vertex_id is not 0\.\.n-1 in order"):
            io.read_scene(path, [])

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

    def test_swapped_rows_are_corrupt_input(self, tmp_path):
        path = tmp_path / "materials.txt"
        io.write_materials(path, scenes.default_materials(["red_glossy",
                                                           "blue_matte"]))
        header, first, second = path.read_text().splitlines(keepends=True)
        path.write_text(header + second + first)
        with pytest.raises(CorruptInputError,
                           match=r"materials.txt: material_id is not 0\.\.n-1 "
                                 r"in order"):
            io.read_materials(path)

    @pytest.mark.parametrize("column", range(1, 9))
    def test_non_finite_value_is_corrupt_input(self, tmp_path, column):
        row = ["0", "0.5", "0.5", "0.5", "1", "10", "1", "0", "0"]
        row[column] = "nan" if column % 2 else "inf"
        path = tmp_path / "materials.txt"
        path.write_text(" ".join(row) + "\n")
        with pytest.raises(CorruptInputError,
                           match="materials.txt: a value is not finite"):
            io.read_materials(path)


class TestTrajectoryIO:
    def test_round_trip(self, tmp_path):
        traj = scenes.arc_trajectory(8, 3.0)
        path = tmp_path / "traj.txt"
        io.write_trajectory(path, traj)
        back = io.read_trajectory(path)
        # .17g digits round-trip every float64 exactly
        for name in ("times", "quaternions", "translations"):
            np.testing.assert_array_equal(getattr(back, name), getattr(traj, name))


def _decrease_at(arrays, j, dtype):
    """Frame j's offset set past frame j + 1's, as `dtype`."""
    off = arrays["frame_offsets"].astype(dtype)
    off[j] = off[j + 2]
    arrays["frame_offsets"] = off


def _observation_files(tmp_path, run):
    paths = {"ir": tmp_path / "ir.npz", "rgb": tmp_path / "rgb.npz"}
    io.write_ir_observations(paths["ir"], run["ir"])
    io.write_rgb_observations(paths["rgb"], run["rgb"])
    return paths


class TestObservationIO:
    @pytest.mark.parametrize("kind", ["ir", "rgb"])
    def test_round_trip_is_exact(self, tmp_path, noisy_two_sphere, kind):
        obs = noisy_two_sphere[kind]
        write, read = {"ir": (io.write_ir_observations, io.read_ir_observations),
                       "rgb": (io.write_rgb_observations,
                               io.read_rgb_observations)}[kind]
        path = tmp_path / f"{kind}.npz"
        write(path, obs)
        back = read(path)
        assert type(back) is type(obs) and len(back) == len(obs) > 0
        for name, a in vars(obs).items():
            b = getattr(back, name)
            assert b.dtype == a.dtype and b.shape == a.shape, name
            np.testing.assert_array_equal(b, a)

    def test_empty_round_trip(self, tmp_path):
        """No frames, and two frames that hold no row."""
        for n_frames in (0, 2):
            ir = IrObservations(np.zeros(0, np.int32), np.zeros(0),
                                np.zeros((0, 2)), np.arange(n_frames) + 0.5,
                                np.arange(n_frames),
                                np.zeros(n_frames + 1, dtype=np.int64))
            io.write_ir_observations(tmp_path / "ir.npz", ir)
            back = io.read_ir_observations(tmp_path / "ir.npz")
            assert len(back) == 0 and back.pixel.shape == (0, 2)
            np.testing.assert_array_equal(back.frame_offsets, ir.frame_offsets)

    @pytest.mark.parametrize("as_str", [False, True])
    def test_written_at_exactly_the_given_path(self, tmp_path,
                                                noiseless_two_sphere, as_str):
        # np.savez would append ".npz" to a str path without the suffix
        path = tmp_path / "ir.txt"
        io.write_ir_observations(str(path) if as_str else path,
                                 noiseless_two_sphere["ir"])
        assert sorted(os.listdir(tmp_path)) == ["ir.txt"]
        np.testing.assert_array_equal(io.read_ir_observations(path).intensity,
                                      noiseless_two_sphere["ir"].intensity)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError) as info:
            io.read_rgb_observations(tmp_path / "rgb.npz")
        assert not isinstance(info.value, CorruptInputError)

    @pytest.mark.parametrize("kind, corrupt", [
        ("ir", lambda a: a.pop("frame_led")),
        ("ir", lambda a: a.pop("frame_offsets")),
        ("rgb", lambda a: a.pop("omega_out_angle")),
        ("ir", lambda a: a.__setitem__("intensity", a["intensity"][1:])),
        ("rgb", lambda a: a.__setitem__("vertex_id", a["vertex_id"][:-1])),
        ("ir", lambda a: a.__setitem__("pixel", a["pixel"][:, :1])),
        ("ir", lambda a: a.__setitem__("pixel", a["pixel"].ravel())),
        ("rgb", lambda a: a.__setitem__("rgb", a["rgb"][:, :2])),
        ("ir", lambda a: a.__setitem__("vertex_id", a["vertex_id"] + 0.5)),
        ("ir", lambda a: a.__setitem__("frame_led",
                                       a["frame_led"].astype(float))),
        ("ir", lambda a: a.__setitem__("frame_offsets",
                                       a["frame_offsets"].astype(float))),
        ("ir", lambda a: a.__setitem__("frame_time", a["frame_time"][1:])),
        ("ir", lambda a: a.__setitem__("frame_offsets", a["frame_offsets"][1:])),
        ("ir", lambda a: a.__setitem__("frame_led", a["frame_led"][:, None])),
        # offsets that do not start at 0, that decrease, or that do not end
        # at the row count
        ("ir", lambda a: a["frame_offsets"].__setitem__(0, 1)),
        ("ir", lambda a: _decrease_at(a, 5, np.int64)),
        ("ir", lambda a: _decrease_at(a, 5, np.uint64)),  # no negative diff
        ("ir", lambda a: a["frame_offsets"].__setitem__(-1, len(a["pixel"]) - 1)),
        ("ir", lambda a: a["frame_offsets"].__setitem__(-1, len(a["pixel"]) + 1)),
        # frame times that repeat or decrease
        ("ir", lambda a: a["frame_time"].__setitem__(3, a["frame_time"][2])),
        ("ir", lambda a: a.__setitem__("frame_time", a["frame_time"][::-1])),
        ("ir", lambda a: a["frame_time"].__setitem__(0, np.nan)),
        ("rgb", lambda a: a.__setitem__("vertex_id",
                                        a["vertex_id"].astype(str))),
        ("ir", lambda a: a.__setitem__("intensity", a["intensity"].astype(str))),
        ("ir", lambda a: a.__setitem__("vertex_id", np.int64(3))),
        ("ir", lambda a: a["intensity"].__setitem__(0, np.nan)),
        ("rgb", lambda a: a["rgb"].__setitem__((0, 1), np.inf)),
    ])
    def test_bad_content_is_corrupt_input(self, tmp_path, noisy_two_sphere,
                                          kind, corrupt):
        path = _observation_files(tmp_path, noisy_two_sphere)[kind]
        arrays = dict(np.load(path))
        corrupt(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        read = {"ir": io.read_ir_observations, "rgb": io.read_rgb_observations}
        with pytest.raises(CorruptInputError, match=path.name):
            read[kind](path)

    @pytest.mark.parametrize("cut", [None, 0, 100, 0.5])
    def test_unreadable_file_is_corrupt_input(self, tmp_path, noisy_two_sphere,
                                              cut):
        path = _observation_files(tmp_path, noisy_two_sphere)["ir"]
        data = path.read_bytes()
        path.write_bytes(b"not an npz archive" if cut is None
                         else data[:int(cut * len(data)) if cut < 1 else cut])
        with pytest.raises(CorruptInputError, match="ir.npz"):
            io.read_ir_observations(path)


class TestTextReadersFailureContract:
    @pytest.mark.parametrize("name, read, text", [
        ("scene.txt", lambda p: io.read_scene(p, []),
         "0 1 2 3 0 0 1 0\n1 1 2\n"),
        ("scene.txt", lambda p: io.read_scene(p, []), "0 1 2 3 0 0 1 zero\n"),
        ("materials.txt", io.read_materials, "0 0.5 0.5 0.5 1 10 1 0\n"),
        ("materials.txt", io.read_materials, "0 1.5 0.5 0.5 1 10 1 0 0\n"),
        ("trajectory.txt", io.read_trajectory, "0 1 0 0 0 0 0\n"),
        ("trajectory.txt", io.read_trajectory, "0 1 0 0 0 0 0 0\n"),
        ("colors.txt", io.read_colors, "3 0.6 0.8\n"),
        ("labels.txt", io.read_labels, "0 1\n1\n"),
        ("labels.txt", io.read_labels, "nan 1\n"),
        ("labels.txt", io.read_labels, "0 0\n1 1\n-1 0\n"),
    ])
    def test_bad_content_is_corrupt_input(self, tmp_path, name, read, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(CorruptInputError, match=name):
            read(path)

    @pytest.mark.parametrize("read", [
        lambda p: io.read_scene(p, []), io.read_materials, io.read_trajectory,
        io.read_colors, io.read_labels, io.read_records, io.read_config,
        io.read_ir_observations, io.read_rgb_observations])
    def test_missing_file_is_missing_input(self, tmp_path, read):
        with pytest.raises(MissingInputError, match="missing input file"):
            read(tmp_path / "absent")


class TestColorsIO:
    def test_round_trip(self, tmp_path):
        colors = (np.array([3, 9]), np.array([[0.6, 0.8, 0.0], [1.0, 0.0, 0.0]]))
        path = tmp_path / "colors.txt"
        io.write_colors(path, colors)
        ids, back = io.read_colors(path)
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, [3, 9])
        np.testing.assert_array_equal(back, colors[1])


# reals whose text forms differ most: signed zeros, the smallest subnormal
# and a larger one, the largest finite value, huge and tiny normals, values
# without a short decimal form, and the non-finite ones
AWKWARD = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 1.7976931348623157e308,
                    1e300, -1e300, 1e-300, 0.1, 1 / 3, -2.5, 1e16, 2.0**53 + 2,
                    np.nan, np.inf, -np.inf])


def awkward_reals(rng, shape) -> np.ndarray:
    """Random reals of every magnitude, about a third from `AWKWARD`."""
    vals = rng.uniform(-1, 1, shape) * 10.0 ** rng.integers(-300, 300, shape)
    pick = rng.random(shape) < 0.3
    vals[pick] = rng.choice(AWKWARD, int(pick.sum()))
    return vals


@pytest.mark.parametrize("n", [0, 1, 2, 37])
@pytest.mark.parametrize("seed", range(4))
class TestWritersEqualRowOracles:
    """The `np.savetxt` writers write the bytes of the row-at-a-time ones
    (`oracles`), ids above 2^31 included."""

    def test_scene(self, tmp_path, seed, n):
        rng = np.random.default_rng(seed)
        scene = scenes.Scene(awkward_reals(rng, (n, 3)), awkward_reals(rng, (n, 3)),
                             rng.integers(0, 2**40, n), [])
        io.write_scene(tmp_path / "new", scene)
        oracles.write_scene(tmp_path / "old", scene)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()

    def test_materials(self, tmp_path, seed, n):
        rng = np.random.default_rng(seed)
        # a Python float strength (as the palette's) and a numpy exponent
        materials = [SimpleNamespace(diffuse_albedo=v[:3],
                                     specular_strength=float(v[3]),
                                     lobe_exponent=v[4], color=v[5:])
                     for v in awkward_reals(rng, (n, 8))]
        io.write_materials(tmp_path / "new", materials)
        oracles.write_materials(tmp_path / "old", materials)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()

    def test_colors(self, tmp_path, seed, n):
        rng = np.random.default_rng(seed)
        ids = np.unique(np.concatenate([[2**31, 2**32 + 1][:n],
                                        rng.integers(0, 2**40, n)]))[:n]
        colors = awkward_reals(rng, (n, 3))
        io.write_colors(tmp_path / "new", (ids, colors))
        oracles.write_colors(tmp_path / "old", dict(zip(ids.tolist(), colors)))
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


def _columns(records: list) -> VertexRecords:
    """The columns of per-vertex records given in vertex id order."""
    tables = [BrdfTable(), *(rec.table for rec in records)]
    vids = np.array([rec.vertex_id for rec in records], dtype=np.int64)
    return VertexRecords(
        vids, np.array([rec.normalized_color for rec in records]).reshape(-1, 3),
        np.repeat(vids, [len(t) for t in tables[1:]]),
        np.concatenate([t.flat for t in tables]),
        np.concatenate([t.means for t in tables]),
        np.concatenate([t.counts for t in tables]))


class TestRecordsIO:
    def _records(self):
        rng = np.random.default_rng(0)
        records = []
        for v in (2, 7, 11):
            flat = rng.choice(N_CELLS, size=5, replace=False)
            t = BrdfTable.from_cells(cell_indices(flat), rng.uniform(0, 1, (5, 3)),
                                     rng.integers(0, 4, 5))
            c = rng.uniform(0, 1, 3)
            records.append(VertexReflectanceRecord(v, c / np.linalg.norm(c), t))
        return records

    def test_round_trip(self, tmp_path):
        records = self._records()
        path = tmp_path / "records.npz"
        io.write_records(path, _columns(records))
        back = io.read_records(path)
        assert [r.vertex_id for r in back] == [2, 7, 11]
        for a, b in zip(records, back):
            np.testing.assert_array_equal(a.normalized_color, b.normalized_color)
            np.testing.assert_array_equal(a.table.flat, b.table.flat)
            np.testing.assert_array_equal(a.table.counts, b.table.counts)
            np.testing.assert_array_equal(a.table.means, b.table.means)

    def test_rows_out_of_order_read_back_sorted(self, tmp_path):
        path = tmp_path / "records.npz"
        io.write_records(path, _columns(self._records()))
        expected = io.read_records(path)
        arrays = dict(np.load(path))
        shuffle = np.random.default_rng(1).permutation(len(arrays["cell_vid"]))
        for key in ("cell_vid", "cell_h", "cell_d", "cell_count", "cell_mean"):
            arrays[key] = arrays[key][shuffle]
        np.savez(path, **arrays)
        back = io.read_records(path)
        for name in ("vertex_id", "color", "cell_vid", "flat", "means", "counts"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(expected, name))

    def test_no_records(self, tmp_path):
        path = tmp_path / "records.npz"
        io.write_records(path, _columns([]))
        assert list(io.read_records(path)) == []

    def test_traced_peak_of_written_rows(self, tmp_path, large_demo_records):
        """Rows as `write_records` writes them, strictly increasing in
        (vertex, cell), are checked and kept as read, not sorted and gathered
        again: the traced peak stays below 1.6 times the columns returned
        (2.16 times at the parent commit)."""
        path = tmp_path / "records.npz"
        io.write_records(path, large_demo_records["records"])
        back = io.read_records(path)
        kept = sum(getattr(back, name).nbytes for name in (
            "vertex_id", "color", "cell_vid", "flat", "means", "counts"))
        assert kept > 4_000_000
        tracemalloc.start()
        try:
            io.read_records(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * kept

    def _written(self, tmp_path):
        t = BrdfTable.from_cells(cell_indices(np.array([3, 9])),
                                 np.full((2, 3), 0.5), np.array([1, 2]))
        path = tmp_path / "records.npz"
        io.write_records(path, _columns([
            VertexReflectanceRecord(4, np.ones(3) / 3 ** 0.5, t)]))
        return path, dict(np.load(path))

    @pytest.mark.parametrize("corrupt", [
        lambda a: a["cell_h"].__setitem__(0, 99),   # cell out of range
        lambda a: a["cell_count"].__setitem__(0, -1),
        lambda a: a["cell_mean"].__setitem__(0, np.nan),
        lambda a: a.pop("cell_d"),
        lambda a: a.__setitem__("cell_vid", np.array([5, 5])),  # no such vertex
        lambda a: a["cell_d"].__setitem__(1, a["cell_d"][0]),  # a repeated row
        lambda a: a.update(vertex_id=np.array([4, 6]),  # 6 has no cell rows
                           color=np.ones((2, 3)) / 3 ** 0.5),
        lambda a: a.update(vertex_id=np.array([4, 4]),
                           color=np.ones((2, 3)) / 3 ** 0.5),
        lambda a: a.__setitem__("color", np.ones((2, 3)) / 3 ** 0.5),
        lambda a: a.__setitem__("cell_h", a["cell_h"] + 0.6),  # not truncated
        lambda a: a.__setitem__("vertex_id", a["vertex_id"] + 0.0),
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
        oracles.assert_same_cell_table(table, run["table"])


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

    @pytest.mark.parametrize("text", [
        "0 0\n1 -2\n",         # a label below -1
        "0 0\n1 1\n1 0\n",     # a vertex id given twice
        "0 0\n2 1\n",          # no label for vertex 1
        "0 0\n1 2\n2 -1\n",    # groups 0 and 2 without 1
        "0 1\n1 -1\n",         # group 1 without 0
    ])
    def test_bad_labels_are_corrupt_input(self, tmp_path, text):
        path = tmp_path / "labels.txt"
        path.write_text(text)
        with pytest.raises(CorruptInputError, match="labels.txt"):
            io.read_labels(path)

    def test_unclassified_only(self, tmp_path):
        path = tmp_path / "labels.txt"
        io.write_labels(path, np.array([-1, -1]))
        np.testing.assert_array_equal(io.read_labels(path), [-1, -1])
