"""Built-in synthetic scenes and trajectories.

Scenes are point-based: vertices with outward normals generated facing the
trajectory, so visibility reduces to front-facing + in-frustum tests. Each
built-in scene is a row of `BUILTIN_SCENES`, its patches (spherical caps and
rectangles) with their materials, and `make_scene` draws any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Trajectory, look_at_poses
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


def _sphere_patch(rng, n, center, radius, facing, cap_deg):
    """n points of a spherical cap within cap_deg of `facing`, and their
    outward normals."""
    dirs = _cap_directions(rng, facing, cap_deg, n)
    return np.asarray(center) + radius * dirs, dirs


def _plane_patch(rng, n, center, normal, u_axis, half_u, half_v):
    """n points of a rectangle of half sides half_u (along `u_axis` made
    orthogonal to `normal`) and half_v, and its normal n times."""
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    u = np.asarray(u_axis, dtype=float)
    u = u - (u @ normal) * normal
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    a = rng.uniform(-half_u, half_u, n)
    b = rng.uniform(-half_v, half_v, n)
    pos = np.asarray(center) + a[:, None] * u + b[:, None] * v
    return pos, np.tile(normal, (n, 1))


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


_FACING = (0.0, 0.0, -1.0)
_X = (1.0, 0.0, 0.0)

# per scene, its patches in drawing order: (default material, patch
# function, the function's arguments after the rng and vertex count)
BUILTIN_SCENES = {
    # two spheres of different materials facing the -z viewing region
    "two-sphere": [
        ("red_glossy", _sphere_patch, ((-0.22, 0.0, 0.10), 0.15, _FACING, 50.0)),
        ("blue_matte", _sphere_patch, ((0.22, 0.0, 0.10), 0.15, _FACING, 50.0)),
    ],
    # shallow room corner: back wall, tilted floor, board, glossy ball
    "four-material-room": [
        ("gray_wall", _plane_patch, ((0.0, 0.08, 0.45), _FACING, _X, 0.35, 0.20)),
        ("green_floor", _plane_patch,
         ((0.0, -0.25, 0.22), (0.0, 0.85, -0.53), _X, 0.32, 0.14)),
        ("brown_board", _plane_patch, ((0.18, -0.05, 0.30), _FACING, _X, 0.13, 0.10)),
        ("red_glossy", _sphere_patch, ((-0.17, -0.02, 0.22), 0.12, _FACING, 50.0)),
    ],
    # wall + board + ball corner
    "corner-board": [
        ("gray_wall", _plane_patch, ((0.0, 0.05, 0.45), _FACING, _X, 0.35, 0.22)),
        ("brown_board", _plane_patch,
         ((0.10, -0.22, 0.25), (0.0, 0.80, -0.60), _X, 0.25, 0.12)),
        ("red_glossy", _sphere_patch, ((-0.12, -0.05, 0.20), 0.13, _FACING, 50.0)),
    ],
}


def make_scene(name: str, n_vertices: int, seed: int, materials=None) -> Scene:
    """The scene `name` of `BUILTIN_SCENES`: its k patches drawn in order
    from one rng of `seed`, n_vertices // k vertices each and the rest on
    the last, patch i of material i (of `materials`, or else the table's
    defaults)."""
    if name not in BUILTIN_SCENES:
        raise ValueError(f"unknown scene '{name}', have {sorted(BUILTIN_SCENES)}")
    patches = BUILTIN_SCENES[name]
    rng = np.random.default_rng(seed)
    k = len(patches)
    sizes = [n_vertices // k] * (k - 1) + [n_vertices - (k - 1) * (n_vertices // k)]
    pos, nrm = zip(*(draw(rng, n, *args)
                     for (_, draw, args), n in zip(patches, sizes)))
    if materials is None:
        materials = default_materials([m for m, _, _ in patches])
    return Scene(np.vstack(pos), _unit_rows(np.vstack(nrm)),
                 np.repeat(np.arange(k), sizes), list(materials))


def arc_trajectory(n_poses: int, duration: float, radius: float = 0.95,
                   sweep_deg: float = 50.0, target=(0.0, 0.0, 0.15),
                   bob: float = 0.12) -> Trajectory:
    """Hand-held style sweep: camera on an arc at -z looking at the scene,
    with a gentle vertical bob, over [0, duration]."""
    u = np.arange(n_poses) / max(n_poses - 1, 1)
    phi = np.deg2rad((u - 0.5) * sweep_deg)
    pos = np.stack([radius * np.sin(phi), bob * np.sin(2.0 * np.pi * u),
                    target[2] - radius * np.cos(phi)], axis=1)
    return Trajectory(u * duration, *look_at_poses(pos, target))
