"""Built-in synthetic scenes and trajectories.

Scenes are point-based: vertices with outward normals generated facing the
trajectory, so visibility reduces to front-facing + in-frustum tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TimedPose, look_at_poses
from .simulator import GroundTruthMaterial


@dataclass
class Scene:
    """Columnar vertex storage; vertex id is the row index. Normals are
    stored as given: the generators below make them unit."""

    positions: np.ndarray  # (n, 3)
    normals: np.ndarray  # (n, 3) unit
    material_ids: np.ndarray  # (n,) int
    materials: list[GroundTruthMaterial]

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        self.material_ids = np.asarray(self.material_ids, dtype=int).reshape(-1)

    def __len__(self) -> int:
        return len(self.material_ids)


def _unit_rows(v):
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _cap_directions(rng, axis, cap_deg, n):
    """n random unit vectors within cap_deg of `axis`."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    cos_cap = np.cos(np.deg2rad(cap_deg))
    z = rng.uniform(cos_cap, 1.0, n)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    s = np.sqrt(1.0 - z * z)
    local = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    # rotate local +z onto axis
    ref = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    x = np.cross(ref, axis)
    x /= np.linalg.norm(x)
    y = np.cross(axis, x)
    basis = np.stack([x, y, axis], axis=1)
    return local @ basis.T


def _sphere_patch(rng, center, radius, facing, cap_deg, n, material_id):
    dirs = _cap_directions(rng, facing, cap_deg, n)
    pos = np.asarray(center) + radius * dirs
    mids = np.full(n, material_id)
    return pos, dirs, mids


def _plane_patch(rng, center, normal, u_axis, half_u, half_v, n, material_id):
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    u = np.asarray(u_axis, dtype=float)
    u = u - (u @ normal) * normal
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    a = rng.uniform(-half_u, half_u, n)
    b = rng.uniform(-half_v, half_v, n)
    pos = np.asarray(center) + a[:, None] * u + b[:, None] * v
    return pos, np.tile(normal, (n, 1)), np.full(n, material_id)


def default_materials(names):
    """Material palette with distinct colors and lobes."""
    palette = {
        "red_glossy": GroundTruthMaterial(
            diffuse_albedo=np.array([0.55, 0.12, 0.10]), specular_strength=0.8,
            lobe_exponent=40.0, color=np.array([0.90, 0.31, 0.29])),
        "blue_matte": GroundTruthMaterial(
            diffuse_albedo=np.array([0.10, 0.18, 0.60]), specular_strength=0.15,
            lobe_exponent=8.0, color=np.array([0.23, 0.33, 0.92])),
        "gray_wall": GroundTruthMaterial(
            diffuse_albedo=np.array([0.60, 0.60, 0.58]), specular_strength=0.05,
            lobe_exponent=4.0, color=np.array([0.58, 0.58, 0.57])),
        "green_floor": GroundTruthMaterial(
            diffuse_albedo=np.array([0.12, 0.45, 0.15]), specular_strength=0.3,
            lobe_exponent=15.0, color=np.array([0.28, 0.90, 0.34])),
        "brown_board": GroundTruthMaterial(
            diffuse_albedo=np.array([0.40, 0.24, 0.10]), specular_strength=0.5,
            lobe_exponent=25.0, color=np.array([0.80, 0.52, 0.30])),
    }
    return [palette[n] for n in names]


def lambertian_materials(materials):
    """Lambertian variants (no lobe) of `materials`, same colors."""
    return [GroundTruthMaterial(diffuse_albedo=m.diffuse_albedo,
                                specular_strength=0.0, lobe_exponent=1.0,
                                color=m.color) for m in materials]


def two_sphere_scene(n_vertices: int, seed: int, materials=None) -> Scene:
    """Two spheres of different materials facing the -z viewing region."""
    rng = np.random.default_rng(seed)
    if materials is None:
        materials = default_materials(["red_glossy", "blue_matte"])
    n0 = n_vertices // 2
    n1 = n_vertices - n0
    facing = np.array([0.0, 0.0, -1.0])
    p0, nrm0, m0 = _sphere_patch(rng, (-0.22, 0.0, 0.10), 0.15, facing, 50.0, n0, 0)
    p1, nrm1, m1 = _sphere_patch(rng, (0.22, 0.0, 0.10), 0.15, facing, 50.0, n1, 1)
    return Scene(np.vstack([p0, p1]), _unit_rows(np.vstack([nrm0, nrm1])),
                 np.concatenate([m0, m1]), list(materials))


def four_material_room_scene(n_vertices: int, seed: int, materials=None) -> Scene:
    """Shallow room corner: back wall, tilted floor, board, glossy ball."""
    rng = np.random.default_rng(seed)
    if materials is None:
        materials = default_materials(
            ["gray_wall", "green_floor", "brown_board", "red_glossy"])
    n = n_vertices // 4
    last = n_vertices - 3 * n
    wall = _plane_patch(rng, (0.0, 0.08, 0.45), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                        0.35, 0.20, n, 0)
    floor = _plane_patch(rng, (0.0, -0.25, 0.22), (0.0, 0.85, -0.53), (1.0, 0.0, 0.0),
                         0.32, 0.14, n, 1)
    board = _plane_patch(rng, (0.18, -0.05, 0.30), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                         0.13, 0.10, n, 2)
    ball = _sphere_patch(rng, (-0.17, -0.02, 0.22), 0.12, (0.0, 0.0, -1.0),
                         50.0, last, 3)
    parts = [wall, floor, board, ball]
    return Scene(np.vstack([p[0] for p in parts]),
                 _unit_rows(np.vstack([p[1] for p in parts])),
                 np.concatenate([p[2] for p in parts]), list(materials))


def corner_board_scene(n_vertices: int, seed: int, materials=None) -> Scene:
    """Wall + board + ball corner, three materials."""
    rng = np.random.default_rng(seed)
    if materials is None:
        materials = default_materials(["gray_wall", "brown_board", "red_glossy"])
    n = n_vertices // 3
    last = n_vertices - 2 * n
    wall = _plane_patch(rng, (0.0, 0.05, 0.45), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                        0.35, 0.22, n, 0)
    board = _plane_patch(rng, (0.10, -0.22, 0.25), (0.0, 0.80, -0.60), (1.0, 0.0, 0.0),
                         0.25, 0.12, n, 1)
    ball = _sphere_patch(rng, (-0.12, -0.05, 0.20), 0.13, (0.0, 0.0, -1.0),
                         50.0, last, 2)
    parts = [wall, board, ball]
    return Scene(np.vstack([p[0] for p in parts]),
                 _unit_rows(np.vstack([p[1] for p in parts])),
                 np.concatenate([p[2] for p in parts]), list(materials))


BUILTIN_SCENES = {
    "two-sphere": two_sphere_scene,
    "four-material-room": four_material_room_scene,
    "corner-board": corner_board_scene,
}


def make_scene(name: str, n_vertices: int, seed: int, materials=None) -> Scene:
    if name not in BUILTIN_SCENES:
        raise ValueError(f"unknown scene '{name}', have {sorted(BUILTIN_SCENES)}")
    return BUILTIN_SCENES[name](n_vertices, seed, materials)


def arc_trajectory(n_poses: int, duration: float, radius: float = 0.95,
                   sweep_deg: float = 50.0, target=(0.0, 0.0, 0.15),
                   bob: float = 0.12) -> list[TimedPose]:
    """Hand-held style sweep: camera on an arc at -z looking at the scene,
    with a gentle vertical bob. Timestamps strictly increasing."""
    if n_poses < 2:
        raise ValueError("trajectory needs at least two poses")
    u = np.arange(n_poses) / (n_poses - 1)
    phi = np.deg2rad((u - 0.5) * sweep_deg)
    pos = np.stack([radius * np.sin(phi), bob * np.sin(2.0 * np.pi * u),
                    target[2] - radius * np.cos(phi)], axis=1)
    return [TimedPose(pose, float(t))
            for pose, t in zip(look_at_poses(pos, target), u * duration)]
