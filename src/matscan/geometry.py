"""Rigid poses, timestamp interpolation, pinhole projection, LED rig geometry
and half/difference-angle computation.

Angles are stored in degrees throughout; trigonometry goes through radians
internally. All functions are pure. Poses of many frames are arrays, each
with the bits of the one-pose path: small dots and norms stay one BLAS call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

UNIT_TOL = 1e-9


def _norms(v) -> np.ndarray:
    """`np.linalg.norm` of each row of `v` (k, d): a BLAS `dot` of a fresh
    copy, as a ufunc or an unaligned row may sum in another order."""
    return np.sqrt([r.dot(r) for r in map(np.array, v)])


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = _norms(v.reshape(-1, v.shape[-1]))
    if np.any(n < 1e-12):
        raise ValueError("cannot normalize near-zero vector")
    return v / n.reshape(v.shape[:-1] + (1,))


def rotation_matrices(q) -> np.ndarray:
    """The rotation matrix (..., 3, 3) of each unit quaternion (..., 4)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack(
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
         2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
         2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        axis=-1).reshape(np.shape(w) + (3, 3))


def _matrix_quaternions(m) -> np.ndarray:
    """The unit quaternion (k, 4), w >= 0, of each rotation matrix (k, 3, 3):
    the top eigenvector of the 4x4 K of Bar-Itzhack (2000), every K in one
    stacked eigh, which gives each the bits of its own call."""
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(np.asarray(m, dtype=float), 0, -1)
    k = np.zeros((len(a), 4, 4))  # its lower triangle, which eigh reads
    k[:, [0, 1, 1, 2, 2, 2, 3, 3, 3, 3], [0, 0, 1, 0, 1, 2, 0, 1, 2, 3]] = np.stack(
        [a - e - i, b + d, e - a - i, c + g, f + h, i - a - e, h - f, c - g,
         d - b, a + e + i], axis=1) / 3.0
    vals, vecs = np.linalg.eigh(k)
    q = vecs[np.arange(len(a)), :, np.argmax(vals, axis=1)][:, [3, 0, 1, 2]]
    return np.where(q[:, :1] < 0, -q, q)


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion, scalar-first convention."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if n < 1e-12:
            raise ValueError("zero quaternion")
        if abs(n - 1.0) > UNIT_TOL:
            object.__setattr__(self, "w", self.w / n)
            object.__setattr__(self, "x", self.x / n)
            object.__setattr__(self, "y", self.y / n)
            object.__setattr__(self, "z", self.z / n)

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_axis_angle(axis, angle_deg: float) -> "Quaternion":
        axis = _unit(axis)
        half = np.deg2rad(angle_deg) / 2.0
        s = np.sin(half)
        return Quaternion(np.cos(half), s * axis[0], s * axis[1], s * axis[2])

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Quaternion":
        return Quaternion(*_matrix_quaternions(np.asarray(m)[None])[0])

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def to_matrix(self) -> np.ndarray:
        return rotation_matrices(self.as_array())

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def rotate(self, v: np.ndarray) -> np.ndarray:
        return self.to_matrix() @ np.asarray(v, dtype=float)


@dataclass(frozen=True)
class Pose:
    """Rigid transform, local frame -> world frame."""

    rotation: Quaternion
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float).reshape(3))

    @staticmethod
    def identity() -> "Pose":
        return Pose(Quaternion.identity(), np.zeros(3))

    def transform(self, p: np.ndarray) -> np.ndarray:
        """Apply to points, shape (3,) or (n, 3)."""
        p = np.asarray(p, dtype=float)
        r = self.rotation.to_matrix()
        if p.ndim == 1:
            return r @ p + self.translation
        return p @ r.T + self.translation

    def rotate(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        r = self.rotation.to_matrix()
        return r @ v if v.ndim == 1 else v @ r.T

    def inverse(self) -> "Pose":
        rinv = self.rotation.conjugate()
        return Pose(rinv, -rinv.rotate(self.translation))


@dataclass(frozen=True)
class TimedPose:
    pose: Pose
    timestamp: float


def trajectory_quaternions(trajectory: list[TimedPose], times):
    """Unit quaternions (k, 4) and translations (k, 3) of the trajectory at
    k times: slerp (a normalized lerp when nearly parallel) and lerp between
    the two bracketing poses."""
    stamps = np.array([tp.timestamp for tp in trajectory], dtype=float)
    if len(stamps) < 2:
        raise ValueError("trajectory needs at least two poses")
    t = np.asarray(times, dtype=float).reshape(-1)
    if not np.all((stamps[0] <= t) & (t <= stamps[-1])):
        raise ValueError("a time is outside the trajectory time range")
    hi = np.clip(np.searchsorted(stamps, t, side="right"), 1, len(stamps) - 1)
    lo = hi - 1
    if np.any(stamps[hi] <= stamps[lo]):
        raise ValueError("zero or negative length time interval")
    u = (t - stamps[lo]) / (stamps[hi] - stamps[lo])
    quats = np.array([tp.pose.rotation.as_array() for tp in trajectory])
    trans = np.array([tp.pose.translation for tp in trajectory])
    # one BLAS dot per segment a time falls in, as a scalar slerp takes it
    seg, at = np.unique(lo, return_inverse=True)
    dots = np.array([quats[i] @ quats[i + 1] for i in seg.tolist()])[at]
    a, b = quats[lo], quats[hi]
    b[dots < 0] *= -1.0  # the shortest path
    d = np.abs(dots)
    w0, w1 = 1.0 - u, u.copy()
    arc = ~(d > 1.0 - 1e-6)
    theta = np.arccos(np.minimum(1.0, d[arc]))
    s = np.sin(theta)
    w0[arc] = np.sin((1.0 - u[arc]) * theta) / s
    w1[arc] = np.sin(u[arc] * theta) / s
    q = w0[:, None] * a + w1[:, None] * b
    # now a few ulps from unit norm, so `Quaternion` stores each row as is
    q /= _norms(q)[:, None]
    return q, (1.0 - u)[:, None] * trans[lo] + u[:, None] * trans[hi]


def trajectory_poses(trajectory: list[TimedPose], times):
    """Rotation matrices (k, 3, 3) and translations (k, 3) of the
    trajectory at each of k times, in [first, last timestamp]."""
    q, trans = trajectory_quaternions(trajectory, times)
    return rotation_matrices(q), trans


def interpolate_trajectory(trajectory: list[TimedPose], t: float) -> Pose:
    """Pose at time t."""
    q, trans = trajectory_quaternions(trajectory, [t])
    return Pose(Quaternion(*q[0]), trans[0])


@dataclass(frozen=True)
class PinholeCamera:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def project_points(camera: PinholeCamera, rotations, translations,
                   points: np.ndarray):
    """Vectorized projection of world points (n,3) seen from k camera poses,
    camera-to-world rotation matrices (k,3,3) and translations (k,3).
    Returns pixels (k,n,2) and the valid mask (k,n)."""
    # each pose's inverse as `Pose.inverse` gives it: the transposed
    # rotation, and its matrix-vector product with the translation
    rot = np.ascontiguousarray(np.swapaxes(rotations, 1, 2))
    trans = -np.matmul(rot, np.asarray(translations)[:, :, None])[..., 0]
    # the rows `Pose.transform` gives, one pose at a time
    pc = np.matmul(points, rot.swapaxes(1, 2)) + trans[:, None]
    z = pc[..., 2]
    in_front = z > 1e-6
    zsafe = np.where(in_front, z, 1.0)
    px = camera.fx * pc[..., 0] / zsafe + camera.cx
    py = camera.fy * pc[..., 1] / zsafe + camera.cy
    valid = in_front & (px >= 0) & (px < camera.width) & (py >= 0) & (py < camera.height)
    return np.stack([px, py], axis=-1), valid


def look_at_poses(positions, target, up=(0.0, 1.0, 0.0)) -> list[Pose]:
    """Camera-to-world poses, one per row of `positions` (k,3), with +z
    looking from it toward target: array cross products and one stacked
    eigh."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    fwd = _unit(np.asarray(target, dtype=float) - positions)
    right = np.cross(fwd, _unit(up))
    n = _norms(right)
    if np.any(n < 1e-9):
        raise ValueError("up direction parallel to viewing direction")
    right /= n[:, None]
    down = np.cross(fwd, right)
    quats = _matrix_quaternions(np.stack([right, down, fwd], axis=2))
    return [Pose(Quaternion(*q), p) for q, p in zip(quats, positions)]


@dataclass(frozen=True)
class LedRig:
    """Point-light rig in the camera frame."""

    positions: np.ndarray  # (n, 3), meters
    brightness: np.ndarray  # (n,), relative

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        bri = np.asarray(self.brightness, dtype=float).reshape(-1)
        if len(pos) != len(bri) or len(pos) == 0:
            raise ValueError("positions and brightness must align and be nonempty")
        if not np.all(np.isfinite(pos)):
            raise ValueError("LED positions must be finite")
        if np.any(bri <= 0):
            raise ValueError("LED brightness must be strictly positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "brightness", bri)

    def __len__(self) -> int:
        return len(self.brightness)


def norm_rows(v):
    """Euclidean norms over the last axis of (..., 3) vectors, elementwise:
    the squares summed in the order `np.linalg.norm(v, axis=-1)` sums them,
    without its per-row reduction loop."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def half_diff_angle_arrays(normals, omega_in, omega_out):
    """Vectorized half/diff angles in degrees for (n,3) unit direction arrays.
    Caller guarantees front-facing, non-opposite directions."""
    s = omega_in + omega_out
    h = s / norm_rows(s)[:, None]
    ch = np.clip(np.einsum("ij,ij->i", normals, h), -1.0, 1.0)
    cd = np.clip(np.einsum("ij,ij->i", h, omega_in), -1.0, 1.0)
    return np.rad2deg(np.arccos(ch)), np.rad2deg(np.arccos(cd))
