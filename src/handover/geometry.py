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
- Verification tolerance is 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDirection, NonUnitQuaternion, ParallelAxes

VERIFY_TOL = 1e-9
QUAT_NORM_TOL = 1e-6


def frozen_array(
    value, shape: tuple, error: type[Exception], name: str, dtype=float
) -> np.ndarray:
    """A new read-only ``dtype`` array of finite values in ``shape``, else ``error``.

    A None in ``shape`` accepts any length on that axis. Input that is not
    numeric raises ``error`` too, and so does a fraction for an int ``dtype``.
    Strings, bytes and booleans are not numbers here, even "12" or True, also
    inside a list such as [0.5, True].
    """
    try:
        arr = value if isinstance(value, np.ndarray) else np.array(value)
        if arr.dtype.kind not in "fiu":
            raise TypeError(f"got {arr.dtype} values")
        if arr is not value and arr.ndim and _holds_bool(value):
            raise TypeError("got a boolean")
        arr = np.array(arr, dtype=float)
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _holds_bool(value) -> bool:
    """Whether nested lists hold a boolean, which numpy reads as 0 or 1 beside
    numbers."""
    return not set(map(type, np.array(value, dtype=object).flat)).isdisjoint((bool, np.bool_))


def _vec3(value, name: str = "vector") -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {v.shape}")
    return v


def norm(v: np.ndarray) -> float:
    """Euclidean length of a 1-D float array, bitwise ``np.linalg.norm(v)``
    without its per-call overhead: the square root of the same dot product of
    the same contiguous copy. A strided view dotted in place can round
    differently."""
    x = v.ravel()
    return math.sqrt(x.dot(x))


def unit(value, name: str = "vector") -> np.ndarray:
    """Normalize to unit length, raising DegenerateDirection at norm <= 1e-9."""
    v = _vec3(value, name)
    n = norm(v)
    if n <= 1e-9:
        raise DegenerateDirection(f"{name} has norm {n:.3e}")
    return v / n


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (M, 3) arrays.

    Each entry is bitwise equal to the 1-D ``a[i] @ b[i]``, and its square
    root to ``np.linalg.norm(a[i])`` when b is a. ``einsum`` or
    ``(a * b).sum(1)`` sum in another order and differ in the last bit.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of an (M, 3) array, bitwise
    ``np.linalg.norm(a, axis=1)``: numpy sums each row's three squares left
    to right, and so do the two column adds here, without a reduction over a
    three-long axis, which costs several times as much."""
    s = a * a
    return np.sqrt((s[:, 0] + s[:, 1]) + s[:, 2])


def rotation_residuals(rotations) -> np.ndarray:
    """max(max|R^T R - I|, |det R - 1|) of each of a (K, 3, 3) stack: the one
    measure of how far a matrix is from a proper rotation, judged against
    VERIFY_TOL.

    R^T R is three broadcast row products and det R the cofactor expansion
    along the first row, each summed left to right, so every value is the
    same bits under any BLAS kernel or SIMD dispatch; ``@`` and
    ``np.linalg.det`` are not.
    """
    r = np.asarray(rotations, dtype=float)
    products = r[:, :, :, None] * r[:, :, None, :]
    gram = (products[:, 0] + products[:, 1]) + products[:, 2] - np.eye(3)
    cofactors = r[:, 0] * cross3(r[:, 1], r[:, 2])
    det = (cofactors[:, 0] + cofactors[:, 1]) + cofactors[:, 2]
    return np.maximum(np.abs(gram).reshape(-1, 9).max(axis=1), np.abs(det - 1.0))


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors, or row-wise of two (K, 3) arrays.

    It runs the multiplies and subtracts of ``np.cross``, so the result is
    bitwise equal, without the per-call overhead that makes ``np.cross`` on
    one pair cost many times its arithmetic. One float64 pair runs on Python
    floats, which round each operation as numpy does.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == b.ndim == 1 and a.dtype == b.dtype == np.float64:
        a0, a1, a2 = a.tolist()
        b0, b1, b2 = b.tolist()
        return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]).T


def quad_strip_faces(starts, n: int, closed: bool = True) -> np.ndarray:
    """Triangles (a, c, d), (a, d, b) of each quad a-b-d-c between the row of
    ``n`` vertices from each index in ``starts`` and the row ``n`` on, in the
    order of ``starts``, then along the row; a closed row wraps around."""
    j = np.arange(n if closed else n - 1)
    a = np.asarray(starts)[..., None] + j
    b = a - j + (j + 1) % n
    return np.stack([a, a + n, b + n, a, b + n, b], axis=-1).reshape(-1, 3)


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

    @cached_property
    def quaternion(self) -> np.ndarray:
        """matrix_to_quat(rotation), computed once, read-only."""
        return _read_only(matrix_to_quat(self.rotation))

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

    @cached_property
    def rotation(self) -> np.ndarray:
        """[d, p x d, p], computed once, read-only."""
        d, p = self.direction, self.normal
        return _read_only(np.column_stack([d, cross3(p, d), p]))

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
    q_out = quat_multiply(transform.quaternion, q)
    return p_out, quat_canonical(q_out)


# --- 6D rotation representation ----------------------------------------------

def rot6d_to_matrix(r6) -> np.ndarray:
    """Decode 6 numbers (two stacked 3-vectors) into a rotation matrix.

    The one-block case of rot6d_to_matrices, and it raises what that raises.
    """
    v = np.asarray(r6, dtype=float).reshape(-1)
    if v.shape != (6,):
        raise ValueError(f"6D rotation input must have 6 entries, got {v.shape}")
    return rot6d_to_matrices(v[None])[0]


def rot6d_to_matrices(blocks) -> np.ndarray:
    """Decode a (K, 6) stack of 6D blocks into (K, 3, 3) rotation matrices.

    Gram-Schmidt: b1 = normalize(v1), b2 = normalize(v2 - (v2.b1) b1),
    b3 = b1 x b2; output columns are [b1, b2, b3]. Norms and dots go through
    row_dot, so each matrix is bitwise what one block decoded with
    ``np.linalg.norm`` and ``@`` gives. The first block that cannot be
    decoded raises DegenerateDirection (first axis, then second axis) or
    ParallelAxes, with its row index in the error's ``block`` attribute.
    """
    v = np.asarray(blocks, dtype=float)
    if v.ndim != 2 or v.shape[1] != 6:
        raise ValueError(f"6D rotation blocks must have shape (K, 6), got {v.shape}")
    v1, v2 = v[:, :3], v[:, 3:]
    n1 = np.sqrt(row_dot(v1, v1))
    first_bad = n1 <= 1e-9
    # A zero first axis fails below; dividing it by 1 keeps numpy from warning.
    b1 = v1 / np.where(first_bad, 1.0, n1)[:, None]
    second_bad = np.sqrt(row_dot(v2, v2)) <= 1e-9
    residual = v2 - row_dot(v2, b1)[:, None] * b1
    n_residual = np.sqrt(row_dot(residual, residual))
    failed = first_bad | second_bad | (n_residual <= 1e-9)
    if failed.any():
        k = int(np.argmax(failed))
        if first_bad[k]:
            exc = DegenerateDirection(f"first 6D axis has norm {float(n1[k]):.3e}")
        elif second_bad[k]:
            exc = DegenerateDirection("second 6D axis has ~zero norm")
        else:
            exc = ParallelAxes("6D axes are parallel")
        exc.block = k
        raise exc
    b2 = residual / n_residual[:, None]
    return np.stack([b1, b2, cross3(b1, b2)], axis=2)


def matrix_to_rot6d(matrix) -> np.ndarray:
    """First two columns of a rotation matrix, concatenated."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got {m.shape}")
    return np.concatenate([m[:, 0], m[:, 1]])


ROT6D_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


# --- quaternions (Hamilton, scalar-first) -------------------------------------

def _as_unit_quat(q) -> np.ndarray:
    arr = np.asarray(q, dtype=float).reshape(-1)
    if arr.shape != (4,):
        raise ValueError(f"quaternion must have 4 entries, got {arr.shape}")
    n = norm(arr)
    if abs(n - 1.0) > QUAT_NORM_TOL:
        raise NonUnitQuaternion(f"quaternion norm {n:.8f} deviates from 1")
    return arr / n


def quat_canonical(q) -> np.ndarray:
    """Flip sign so w >= 0 (first non-zero component positive on w == 0)."""
    arr = np.array(q, dtype=float)
    for component in arr.tolist():
        if component > 0.0:
            return arr
        if component < 0.0:
            return -arr
    return arr


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a (x) b; R(a (x) b) = R(a) @ R(b)."""
    aw, ax, ay, az = np.asarray(a, dtype=float).tolist()
    bw, bx, by, bz = np.asarray(b, dtype=float).tolist()
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
    m = m.tolist()
    diagonal = [m[0][0], m[1][1], m[2][2]]
    trace = diagonal[0] + diagonal[1] + diagonal[2]
    top = max(diagonal)
    if trace > top:
        s = math.sqrt(trace + 1.0) * 2.0
        q = [
            0.25 * s,
            (m[2][1] - m[1][2]) / s,
            (m[0][2] - m[2][0]) / s,
            (m[1][0] - m[0][1]) / s,
        ]
    else:
        i = diagonal.index(top)
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(m[i][i] - m[j][j] - m[k][k] + 1.0) * 2.0
        q = [0.0] * 4
        q[0] = (m[k][j] - m[j][k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j][i] + m[i][j]) / s
        q[1 + k] = (m[k][i] + m[i][k]) / s
    q = np.array(q)
    return quat_canonical(q / norm(q))


# --- elementary rotations -----------------------------------------------------

def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
