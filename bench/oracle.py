"""Output checks that do not reuse the package's own definitions.

The hand frame of an observation, the handedness sign, the gripper-hand
clearance, rotations from quaternions and the rigidly moved grasp are all
recomputed here from the paper's definitions with plain numpy. Functions
take arrays with any leading batch shape, so a pass of track frames is
checked in one call.
"""

from __future__ import annotations

import numpy as np

WRIST, THUMB_BASE, INDEX_BASE, MIDDLE_TIP, PINKY_BASE = 0, 1, 5, 12, 17
JAW_M = 0.074
GUARANTEE_TOL = 1e-9
QUAT_TOL = 1e-9
# Errors are reported no finer than this; below it they are float round-off.
RESOLUTION_MM = 1e-6
RESOLUTION_DEG = 1e-6


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _transpose(r):
    return np.swapaxes(r, -1, -2)


def _rotate(r, v):
    return np.einsum("...ij,...j->...i", r, v)


def apply(motion: np.ndarray, points: np.ndarray) -> np.ndarray:
    """A 4x4 rigid motion applied to (N, 3) points."""
    return points @ motion[:3, :3].T + motion[:3, 3]


def is_right(joints) -> np.ndarray:
    """Sign of ((index - wrist) x (pinky - wrist)) . (thumb - wrist): > 0 is right."""
    w = joints[..., WRIST, :]
    palm = np.cross(joints[..., INDEX_BASE, :] - w, joints[..., PINKY_BASE, :] - w)
    return _dot(palm, joints[..., THUMB_BASE, :] - w) > 0


def frame(center, direction, normal):
    """(rotation, origin): x along direction, z along the normal made
    orthogonal to it."""
    d = _unit(direction)
    n = _unit(normal - _dot(normal, d)[..., None] * d)
    return np.stack([d, np.cross(n, d), n], axis=-1), center


def keypoint_frame(joints, right):
    """The observed hand frame: centroid of the 21 keypoints, wrist to middle
    fingertip, palm-out normal of the wrist / index base / pinky base triangle."""
    w = joints[..., WRIST, :]
    normal = np.cross(joints[..., INDEX_BASE, :] - w, joints[..., PINKY_BASE, :] - w)
    normal = np.where(np.asarray(right)[..., None], normal, -normal)
    return frame(joints.mean(axis=-2), joints[..., MIDDLE_TIP, :] - w, normal)


def quat_matrix(q):
    w, x, y, z = np.moveaxis(_unit(q), -1, 0)
    rows = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def rotation_angle_deg(a, b):
    """Angle of a^T b, from atan2 so that small angles keep their precision."""
    r = _transpose(a) @ b
    axis = np.stack(
        [r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0], r[..., 1, 0] - r[..., 0, 1]],
        axis=-1,
    )
    trace = r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2]
    return np.degrees(np.arctan2(np.linalg.norm(axis, axis=-1), trace - 1.0))


def quaternion_ok(q):
    """Unit length within QUAT_TOL and w >= 0."""
    return (np.abs(np.linalg.norm(q, axis=-1) - 1.0) <= QUAT_TOL) & (q[..., 0] >= 0)


def relative_pose_gap(position, quaternion, grasp_r, grasp_t, imagined_r, imagined_c,
                      observed, right):
    """Largest entry of inverse(real frame) . target - inverse(imagined frame) . grasp,
    with the real frame taken from the observed keypoints."""
    real_r, real_c = keypoint_frame(observed, right)
    lhs_r = _transpose(real_r) @ quat_matrix(quaternion)
    lhs_t = _rotate(_transpose(real_r), position - real_c)
    rhs_r = _transpose(imagined_r) @ grasp_r
    rhs_t = _rotate(_transpose(imagined_r), grasp_t - imagined_c)
    return np.maximum(
        np.abs(lhs_r - rhs_r).max(axis=(-1, -2)), np.abs(lhs_t - rhs_t).max(axis=-1)
    )


def target_error(position, quaternion, grasp_r, grasp_t, motion):
    """(mm, deg) between the target and the rigidly moved grasp M . grasp."""
    true_r = motion[..., :3, :3] @ grasp_r
    true_t = _rotate(motion[..., :3, :3], grasp_t) + motion[..., :3, 3]
    mm = 1000.0 * np.linalg.norm(position - true_t, axis=-1)
    deg = rotation_angle_deg(quat_matrix(quaternion), true_r)
    return np.maximum(mm, RESOLUTION_MM), np.maximum(deg, RESOLUTION_DEG)


def clearance_m(grasp_r, grasp_t, centers, radii, vertices) -> float:
    """Closest gripper sphere surface to any hand vertex, in metres."""
    world = np.asarray(centers) @ grasp_r.T + grasp_t
    d2 = ((world[:, None, :] - vertices[None, :, :]) ** 2).sum(axis=2)
    return float((np.sqrt(d2.min(axis=1)) - np.asarray(radii)).min())
