"""Rigid poses, timestamp interpolation, pinhole projection, LED rig geometry
and half/difference-angle computation.

Angles are stored in degrees throughout; trigonometry goes through radians
internally. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

UNIT_TOL = 1e-9


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ValueError("cannot normalize near-zero vector")
    return v / n


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
        m = np.asarray(m, dtype=float)
        k = np.array(
            [
                [m[0, 0] - m[1, 1] - m[2, 2], 0, 0, 0],
                [m[0, 1] + m[1, 0], m[1, 1] - m[0, 0] - m[2, 2], 0, 0],
                [m[0, 2] + m[2, 0], m[1, 2] + m[2, 1], m[2, 2] - m[0, 0] - m[1, 1], 0],
                [m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1],
                 m[0, 0] + m[1, 1] + m[2, 2]],
            ]
        ) / 3.0
        vals, vecs = np.linalg.eigh(k)
        q = vecs[[3, 0, 1, 2], np.argmax(vals)]
        if q[0] < 0:
            q = -q
        return Quaternion(*q)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def to_matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

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


def slerp(q0: Quaternion, q1: Quaternion, u: float) -> Quaternion:
    """Shortest-path spherical interpolation between unit quaternions."""
    a = q0.as_array()
    b = q1.as_array()
    d = float(a @ b)
    if d < 0.0:
        b = -b
        d = -d
    if d > 1.0 - 1e-6:
        # nearly parallel: normalized lerp is numerically safer
        out = (1.0 - u) * a + u * b
        return Quaternion(*(out / np.linalg.norm(out)))
    theta = np.arccos(min(1.0, d))
    s = np.sin(theta)
    out = np.sin((1.0 - u) * theta) / s * a + np.sin(u * theta) / s * b
    return Quaternion(*(out / np.linalg.norm(out)))


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


def interpolate_pose(p0: TimedPose, p1: TimedPose, t: float) -> Pose:
    """Pose at time t: slerp rotation, linear translation."""
    if p1.timestamp <= p0.timestamp:
        raise ValueError("zero or negative length time interval")
    if not (p0.timestamp <= t <= p1.timestamp):
        raise ValueError(f"t={t} outside [{p0.timestamp}, {p1.timestamp}]")
    u = (t - p0.timestamp) / (p1.timestamp - p0.timestamp)
    rot = slerp(p0.pose.rotation, p1.pose.rotation, u)
    trans = (1.0 - u) * p0.pose.translation + u * p1.pose.translation
    return Pose(rot, trans)


def interpolate_trajectory(trajectory: list[TimedPose], t: float) -> Pose:
    """Pose at time t from the two bracketing trajectory entries."""
    times = [tp.timestamp for tp in trajectory]
    if len(trajectory) < 2:
        raise ValueError("trajectory needs at least two poses")
    if not (times[0] <= t <= times[-1]):
        raise ValueError(f"t={t} outside trajectory time range")
    hi = int(np.searchsorted(times, t, side="right"))
    hi = min(max(hi, 1), len(times) - 1)
    return interpolate_pose(trajectory[hi - 1], trajectory[hi], t)


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


def pose_arrays(poses):
    """Rotation matrices (k,3,3) and translations (k,3) of k poses."""
    return (np.stack([p.rotation.to_matrix() for p in poses]),
            np.stack([p.translation for p in poses]))


def project_points(camera: PinholeCamera, pose, points: np.ndarray):
    """Vectorized projection of world points (n,3) seen from `pose`, or from
    each pose of a list of k. Returns (pixels (n,2), valid mask (n,)), or
    (k,n,2) and (k,n) for a list."""
    rot, trans = pose_arrays([p.inverse() for p in
                              ([pose] if isinstance(pose, Pose) else pose)])
    # the rows `Pose.transform` gives, one pose at a time
    pc = np.matmul(points, rot.swapaxes(1, 2)) + trans[:, None]
    z = pc[..., 2]
    in_front = z > 1e-6
    zsafe = np.where(in_front, z, 1.0)
    px = camera.fx * pc[..., 0] / zsafe + camera.cx
    py = camera.fy * pc[..., 1] / zsafe + camera.cy
    valid = in_front & (px >= 0) & (px < camera.width) & (py >= 0) & (py < camera.height)
    pixels = np.stack([px, py], axis=-1)
    return (pixels[0], valid[0]) if isinstance(pose, Pose) else (pixels, valid)


def look_at(position, target, up=(0.0, 1.0, 0.0)) -> Pose:
    """Camera-to-world pose with +z looking from position toward target."""
    position = np.asarray(position, dtype=float)
    fwd = _unit(np.asarray(target, dtype=float) - position)
    right = np.cross(fwd, _unit(up))
    if np.linalg.norm(right) < 1e-9:
        raise ValueError("up direction parallel to viewing direction")
    right = _unit(right)
    down = np.cross(fwd, right)
    r = np.stack([right, down, fwd], axis=1)
    return Pose(Quaternion.from_matrix(r), position)


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
