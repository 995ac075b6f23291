"""The camera trajectory and its interpolation, pinhole projection, LED rig
geometry and half/difference-angle computation.

Angles are stored in degrees throughout; trigonometry goes through radians
internally. All functions are pure. Dot products, norms and 3x3 products of
3- and 4-vectors are sums written out elementwise in one fixed order
(`dot_rows`), never a BLAS call, so a value has the same bits alone or in a
batch of any shape or layout, whatever BLAS kernel numpy loads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-9


def dot_rows(a, b):
    """Dot products over the last axis (3 or 4 entries) of arrays that
    broadcast: the entries' products summed left to right, elementwise.
    Matrices m (..., 3, 3) times vectors v (..., 3) are
    `dot_rows(m, v[..., None, :])`."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out = out + a[..., j] * b[..., j]
    return out


def norm_rows(v):
    """Euclidean norms over the last axis of (..., 3) or (..., 4) vectors."""
    return np.sqrt(dot_rows(v, v))


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = norm_rows(v)
    if np.any(n < 1e-12):
        raise ValueError("cannot normalize near-zero vector")
    return v / np.expand_dims(n, -1)


def rotation_matrices(q) -> np.ndarray:
    """The rotation matrix (..., 3, 3) of each unit quaternion (..., 4)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack(
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
         2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
         2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        axis=-1).reshape(np.shape(w) + (3, 3))


def _matrix_quaternions(m) -> np.ndarray:
    """The unit quaternion (k, 4), w >= 0, of each rotation matrix (k, 3, 3),
    in closed form: row r of P = 4 q q^T, built from sums and differences of
    the entries, is 4 q_r q, so q = P[r] / (2 sqrt(P[r, r])) up to sign; r is
    the largest diagonal entry, the first of a tie."""
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(np.asarray(m, dtype=float), 0, -1)
    p = np.array([[1 + a + e + i, h - f, c - g, d - b],
                  [h - f, 1 + a - e - i, b + d, c + g],
                  [c - g, b + d, 1 - a + e - i, f + h],
                  [d - b, c + g, f + h, 1 - a - e + i]])
    k = np.arange(len(a))
    r = np.argmax(p[[0, 1, 2, 3], [0, 1, 2, 3]], axis=0)
    q = p[r, :, k] / (2.0 * np.sqrt(p[r, r, k]))[:, None]
    return np.where(q[:, :1] < 0, -q, q)


def _unit_quaternions(q) -> np.ndarray:
    """Quaternions (..., 4) as `Quaternion` stores them: each divided by its
    norm, sqrt(w*w + x*x + y*y + z*z), where that is off 1 by more than
    `UNIT_TOL`, and kept as it is elsewhere. A zero quaternion raises."""
    q = np.asarray(q, dtype=float)
    n = norm_rows(q)
    if np.any(n < 1e-12):
        raise ValueError("zero quaternion")
    return np.where((np.abs(n - 1.0) > UNIT_TOL)[..., None], q / n[..., None], q)


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion, scalar-first convention."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        q = _unit_quaternions([self.w, self.x, self.y, self.z])
        for name, value in zip("wxyz", q):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_axis_angle(axis, angle_deg: float) -> "Quaternion":
        axis = _unit(axis)
        half = np.deg2rad(angle_deg) / 2.0
        s = np.sin(half)
        return Quaternion(np.cos(half), s * axis[0], s * axis[1], s * axis[2])

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def to_matrix(self) -> np.ndarray:
        return rotation_matrices(self.as_array())

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
        return dot_rows(self.to_matrix(), np.asarray(v, dtype=float))


@dataclass(frozen=True)
class Trajectory:
    """A timed camera track of k >= 2 poses: strictly rising times (k,), and
    per time the camera-to-world rotation as a unit quaternion (k, 4), scalar
    first, and the camera position (k, 3). Every value is finite, and each
    quaternion is stored as `Quaternion` stores it. The arrays are read-only,
    C-ordered copies of those given."""

    times: np.ndarray
    quaternions: np.ndarray
    translations: np.ndarray

    def __post_init__(self):
        t, q, p = (np.array(a, dtype=float, order="C") for a in
                   (self.times, self.quaternions, self.translations))
        if t.ndim != 1 or q.shape != (len(t), 4) or p.shape != (len(t), 3):
            raise ValueError(f"times {t.shape}, quaternions {q.shape} and "
                             f"translations {p.shape} are not (k,), (k, 4), (k, 3)")
        if len(t) < 2:
            raise ValueError("a trajectory needs at least two poses")
        if not (np.isfinite(t).all() and np.isfinite(q).all()
                and np.isfinite(p).all()):
            raise ValueError("a trajectory value is not finite")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("trajectory times do not strictly increase")
        for name, a in (("times", t), ("quaternions", _unit_quaternions(q)),
                        ("translations", p)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def trajectory_quaternions(trajectory: Trajectory, times):
    """Unit quaternions (k, 4) and translations (k, 3) of the trajectory at
    k times: slerp (a normalized lerp when nearly parallel) and lerp between
    the two bracketing poses."""
    stamps = trajectory.times
    t = np.asarray(times, dtype=float).reshape(-1)
    if not np.all((stamps[0] <= t) & (t <= stamps[-1])):
        raise ValueError("a time is outside the trajectory time range")
    hi = np.clip(np.searchsorted(stamps, t, side="right"), 1, len(stamps) - 1)
    lo = hi - 1
    u = (t - stamps[lo]) / (stamps[hi] - stamps[lo])
    quats, trans = trajectory.quaternions, trajectory.translations
    a, b = quats[lo], quats[hi]
    dots = dot_rows(a, b)
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
    q /= norm_rows(q)[:, None]
    return q, (1.0 - u)[:, None] * trans[lo] + u[:, None] * trans[hi]


def trajectory_poses(trajectory: Trajectory, times):
    """Rotation matrices (k, 3, 3) and translations (k, 3) of the
    trajectory at each of k times, in [first, last time]."""
    q, trans = trajectory_quaternions(trajectory, times)
    return rotation_matrices(q), trans


def interpolate_trajectory(trajectory: Trajectory, t: float):
    """Rotation matrix (3, 3) and translation (3,) at time t. No stage calls
    it: it stays for the benchmark tracer (`perfbench/tracing.py`), which
    binds it by name."""
    rot, trans = trajectory_poses(trajectory, [t])
    return rot[0], trans[0]


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
    # each pose's inverse: the transposed rotation R^T, and -R^T t
    rot = np.swapaxes(rotations, 1, 2)[:, None]
    trans = -dot_rows(rot, np.asarray(translations)[:, None, None])
    pc = dot_rows(rot, points[:, None]) + trans
    z = pc[..., 2]
    in_front = z > 1e-6
    zsafe = np.where(in_front, z, 1.0)
    px = camera.fx * pc[..., 0] / zsafe + camera.cx
    py = camera.fy * pc[..., 1] / zsafe + camera.cy
    valid = in_front & (px >= 0) & (px < camera.width) & (py >= 0) & (py < camera.height)
    return np.stack([px, py], axis=-1), valid


def look_at_poses(positions, target, up=(0.0, 1.0, 0.0)):
    """Camera-to-world unit quaternions (k, 4) and positions (k, 3), one per
    row of `positions` (k, 3), with +z looking from it toward target."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    fwd = _unit(np.asarray(target, dtype=float) - positions)
    right = np.cross(fwd, _unit(up))
    n = norm_rows(right)
    if np.any(n < 1e-9):
        raise ValueError("up direction parallel to viewing direction")
    right /= n[:, None]
    down = np.cross(fwd, right)
    return _matrix_quaternions(np.stack([right, down, fwd], axis=2)), positions


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


def half_diff_angle_arrays(normals, omega_in, omega_out):
    """Vectorized half/diff angles in degrees for (n,3) unit direction arrays.
    Caller guarantees front-facing, non-opposite directions."""
    s = omega_in + omega_out
    h = s / norm_rows(s)[:, None]
    ch = np.clip(np.einsum("ij,ij->i", normals, h), -1.0, 1.0)
    cd = np.clip(np.einsum("ij,ij->i", h, omega_in), -1.0, 1.0)
    return np.rad2deg(np.arccos(ch)), np.rad2deg(np.arccos(cd))
