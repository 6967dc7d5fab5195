"""SE(3)/SO(3) primitives used throughout the toolkit.

Conventions
-----------
- Units are meters and radians; the world frame is right-handed with +z up.
- Rotation matrices are 3x3 row-major with columns = frame axes.
- Quaternions are Hamilton, scalar-first (w, x, y, z), canonicalized to
  w >= 0 so equality checks are deterministic.
- A hand frame is (center c, direction d, palm normal p); its rotation is
  the column stack [d, p x d, p], so d is the +x axis and p the +z axis.
- 6D rotation encoding: the first two columns of the matrix, concatenated;
  decoding runs Gram-Schmidt so any non-degenerate 6 numbers yield a valid
  member of SO(3).
- Construction tolerance is 1e-12, verification tolerance 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirection, NonUnitQuaternion, ParallelAxes

CONSTRUCTION_TOL = 1e-12
VERIFY_TOL = 1e-9
QUAT_NORM_TOL = 1e-6


def frozen_array(
    value, shape: tuple, error: type[Exception], name: str, dtype=float
) -> np.ndarray:
    """A new read-only ``dtype`` array of finite values in ``shape``, else ``error``.

    A None in ``shape`` accepts any length on that axis. Input that is not
    numeric raises ``error`` too, and so does a fraction for an int ``dtype``.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} must hold numbers: {exc}") from exc
    if arr.shape != shape and (
        arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape))
    ):
        raise error(f"{name} must have shape {shape}, got {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # faster than .all() on small arrays
        raise error(f"{name} must hold finite numbers")
    if dtype is not float:
        whole = arr.astype(dtype)
        if not np.array_equal(whole, arr):
            raise error(f"{name} must hold whole numbers")
        arr = whole
    arr.setflags(write=False)
    return arr


def _vec3(value, name: str = "vector") -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {v.shape}")
    return v


def unit(value, tol: float = 1e-9, name: str = "vector") -> np.ndarray:
    """Normalize to unit length, raising DegenerateDirection on ~zero input."""
    v = _vec3(value, name)
    n = float(np.linalg.norm(v))
    if n <= tol:
        raise DegenerateDirection(f"{name} has norm {n:.3e}")
    return v / n


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (M, 3) arrays.

    Each entry is bitwise equal to the 1-D ``a[i] @ b[i]``, and its square
    root to ``np.linalg.norm(a[i])`` when b is a. ``einsum`` or
    ``(a * b).sum(1)`` sum in another order and differ in the last bit.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rigid motion x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        for name, shape in (("rotation", (3, 3)), ("translation", (3,))):
            object.__setattr__(
                self, name, frozen_array(getattr(self, name), shape, ValueError, name)
            )

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, matrix) -> "RigidTransform":
        m = frozen_array(matrix, (4, 4), ValueError, "matrix")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > VERIFY_TOL:
            raise ValueError("last row must be [0, 0, 0, 1]")
        return cls(m[:3, :3], m[:3, 3])

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points) -> np.ndarray:
        """Transform one point (3,) or a stack of points (N, 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def rotate(self, vectors) -> np.ndarray:
        """Rotate directions without translating."""
        return np.asarray(vectors, dtype=float) @ self.rotation.T

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self o other)(x) = self(other(x))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)


@dataclass(frozen=True, eq=False)
class HandFrame:
    """Hand coordinate frame: center, direction (+x) and palm normal (+z).

    Stored orthogonalized: |direction . normal| <= 1e-10 and both unit.
    Construct through build_frame, not directly.
    """

    center: np.ndarray
    direction: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for name in ("center", "direction", "normal"):
            object.__setattr__(
                self, name, frozen_array(getattr(self, name), (3,), ValueError, name)
            )

    @property
    def rotation(self) -> np.ndarray:
        d, p = self.direction, self.normal
        return np.column_stack([d, np.cross(p, d), p])

    def as_transform(self) -> RigidTransform:
        return RigidTransform(self.rotation, self.center)


def build_frame(center, direction, normal) -> HandFrame:
    """Build an orthogonal hand frame from a center point and two axes.

    The direction becomes the +x axis; the normal is Gram-Schmidt
    orthogonalized against it and becomes the +z axis. The middle axis is
    normal x direction, which makes the rotation [d, p x d, p] proper.
    """
    c = _vec3(center, "center")
    d = unit(direction, name="direction")
    p = unit(normal, name="normal")
    if abs(float(d @ p)) > 1.0 - 1e-9:
        raise ParallelAxes("direction and normal are parallel")
    p = p - (p @ d) * d
    p = unit(p, name="orthogonalized normal")
    return HandFrame(c, d, p)


def matching_transform(imagined: HandFrame, real: HandFrame) -> RigidTransform:
    """Rigid transform carrying the imagined hand frame onto the real one.

    Rotation is R_real @ R_imagined.T and translation moves the imagined
    center onto the real center, so applying the result to the imagined
    frame reproduces the real frame exactly.
    """
    r1 = imagined.rotation
    r2 = real.rotation
    rot = r2 @ r1.T
    return RigidTransform(rot, real.center - rot @ imagined.center)


def transform_pose(position, quaternion, transform: RigidTransform):
    """Carry an initial pose (position, quaternion) through a rigid transform.

    Returns (R @ p + t, q_R (x) q) where q_R is the quaternion of the
    transform's rotation; the output quaternion therefore satisfies
    R(q_out) = transform.rotation @ R(q_in).
    """
    p = _vec3(position, "position")
    q = _as_unit_quat(quaternion)
    p_out = transform.rotation @ p + transform.translation
    q_out = quat_multiply(matrix_to_quat(transform.rotation), q)
    return p_out, quat_canonical(q_out)


# --- 6D rotation representation ----------------------------------------------

def rot6d_to_matrix(r6) -> np.ndarray:
    """Decode 6 numbers (two stacked 3-vectors) into a rotation matrix.

    Gram-Schmidt: b1 = normalize(v1), b2 = normalize(v2 - (v2.b1) b1),
    b3 = b1 x b2; output columns are [b1, b2, b3].
    """
    v = np.asarray(r6, dtype=float).reshape(-1)
    if v.shape != (6,):
        raise ValueError(f"6D rotation input must have 6 entries, got {v.shape}")
    b1 = unit(v[:3], name="first 6D axis")
    v2 = v[3:]
    if np.linalg.norm(v2) <= 1e-9:
        raise DegenerateDirection("second 6D axis has ~zero norm")
    residual = v2 - (v2 @ b1) * b1
    if np.linalg.norm(residual) <= 1e-9:
        raise ParallelAxes("6D axes are parallel")
    b2 = residual / np.linalg.norm(residual)
    b3 = np.cross(b1, b2)
    return np.column_stack([b1, b2, b3])


def matrix_to_rot6d(matrix) -> np.ndarray:
    """First two columns of a rotation matrix, concatenated."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got {m.shape}")
    return np.concatenate([m[:, 0], m[:, 1]])


ROT6D_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


# --- quaternions (Hamilton, scalar-first) -------------------------------------

QUAT_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def _as_unit_quat(q) -> np.ndarray:
    arr = np.asarray(q, dtype=float).reshape(-1)
    if arr.shape != (4,):
        raise ValueError(f"quaternion must have 4 entries, got {arr.shape}")
    n = float(np.linalg.norm(arr))
    if abs(n - 1.0) > QUAT_NORM_TOL:
        raise NonUnitQuaternion(f"quaternion norm {n:.8f} deviates from 1")
    return arr / n


def quat_canonical(q) -> np.ndarray:
    """Flip sign so w >= 0 (first non-zero component positive on w == 0)."""
    arr = np.asarray(q, dtype=float).copy()
    for component in arr:
        if component > 0.0:
            return arr
        if component < 0.0:
            return -arr
    return arr


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a (x) b; R(a (x) b) = R(a) @ R(b)."""
    aw, ax, ay, az = np.asarray(a, dtype=float)
    bw, bx, by, bz = np.asarray(b, dtype=float)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = _as_unit_quat(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(matrix) -> np.ndarray:
    """Rotation matrix to canonical unit quaternion (Shepperd's method)."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got {m.shape}")
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    if trace > max(m[0, 0], m[1, 1], m[2, 2]):
        s = np.sqrt(trace + 1.0) * 2.0
        q = np.array(
            [
                0.25 * s,
                (m[2, 1] - m[1, 2]) / s,
                (m[0, 2] - m[2, 0]) / s,
                (m[1, 0] - m[0, 1]) / s,
            ]
        )
    else:
        i = int(np.argmax([m[0, 0], m[1, 1], m[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(m[i, i] - m[j, j] - m[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    q /= np.linalg.norm(q)
    return quat_canonical(q)


# --- elementary rotations and random sampling ---------------------------------

def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def random_quaternion(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    return quat_canonical(q / np.linalg.norm(q))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    return quat_to_matrix(random_quaternion(rng))


def random_frame(rng: np.random.Generator, scale: float = 0.5) -> HandFrame:
    """Random valid hand frame with center in a +-scale cube."""
    while True:
        d = random_unit(rng)
        p = random_unit(rng)
        if abs(float(d @ p)) < 0.99:
            return build_frame(rng.uniform(-scale, scale, size=3), d, p)
