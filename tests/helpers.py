"""Seeded random generators that only the tests use."""

import numpy as np

from handover.errors import (
    DegenerateDirection,
    DegenerateNormal,
    DegenerateObservation,
    HandednessMismatch,
    ParallelAxes,
    ValidationFailed,
)
from handover.geometry import HandFrame, build_frame, quat_canonical, quat_to_matrix
from handover.grasp import CandidateSet, SelectionConfig
from handover.hand_model import (
    INDEX_BASE,
    MIDDLE_TIP,
    PINKY_BASE,
    THUMB_BASE,
    WRIST,
    checked_keypoints,
)
from handover.synthetic import receiving_pose_for


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


def default_pose_library(clouds: dict) -> dict:
    """Canned-pose library JSON structure for the given clouds."""
    return {
        name: {
            "left": receiving_pose_for(cloud, "left").to_dict(),
            "right": receiving_pose_for(cloud, "right").to_dict(),
        }
        for name, cloud in clouds.items()
    }


def rotation_residual_reference(r) -> float:
    """max(max|R^T R - I|, |det R - 1|) of one 3 x 3 matrix on Python floats:
    each entry of R^T R summed over rows left to right, det R by cofactors of
    the first row. rotation_residuals must give these bits."""
    r = np.asarray(r, dtype=float).tolist()
    gram = [
        abs(r[0][i] * r[0][j] + r[1][i] * r[1][j] + r[2][i] * r[2][j] - (i == j))
        for i in range(3)
        for j in range(3)
    ]
    det = (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )
    return max(*gram, abs(det - 1))


def candidate_set(candidates) -> CandidateSet:
    """GraspCandidates stacked into one CandidateSet, each keeping its source."""
    return CandidateSet(
        np.array([c.transform.rotation for c in candidates]).reshape(-1, 3, 3),
        np.array([c.transform.translation for c in candidates]).reshape(-1, 3),
        [c.width for c in candidates],
        [c.source for c in candidates],
    )


def score_candidate(v_g, p_g, v_h, p_h, config: SelectionConfig) -> float:
    """One candidate's score, the reference that rank_candidates' array pass
    matches: lower is better under the argmin selection rule."""
    cos = float(np.dot(v_g, v_h))
    if config.cosine_mode == "absolute":
        cos = abs(cos)
    return cos - config.distance_weight * float(np.linalg.norm(np.asarray(p_g) - np.asarray(p_h)))


def broadcast_clearance(candidate, gripper, hand) -> float:
    """Least sphere-surface to hand-vertex distance by the (S, V, 3) broadcast,
    the reference for clearance_check's per-axis sum."""
    centers = candidate.transform.apply(gripper.sphere_centers)
    sq = ((centers[:, None, :] - hand.vertices[None, :, :]) ** 2).sum(axis=2)
    return float((np.sqrt(sq.min(axis=1)) - gripper.sphere_radii).min())


# --- the per-frame match, as first written ----------------------------------------
#
# np.linalg.norm for every length, quaternion arithmetic on numpy scalars, and
# every rotation and quaternion recomputed on each call. The package's
# match_to_observation is held to these bytes and refusals.


def reference_unit(value, name: str) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    n = float(np.linalg.norm(v))
    if n <= 1e-9:
        raise DegenerateDirection(f"{name} has norm {n:.3e}")
    return v / n


def reference_quat_canonical(q) -> np.ndarray:
    arr = np.asarray(q, dtype=float).copy()
    for component in arr:
        if component > 0.0:
            return arr
        if component < 0.0:
            return -arr
    return arr


def reference_quat_multiply(a, b) -> np.ndarray:
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


def reference_matrix_to_quat(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
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
    return reference_quat_canonical(q)


def _reference_rotation(direction, normal) -> np.ndarray:
    return np.column_stack([direction, np.cross(normal, direction), normal])


def _reference_observed_frame(j: np.ndarray, handedness: str):
    """(center, rotation) by the hand-frame rule, refusing as match does."""
    span = j[MIDDLE_TIP] - j[WRIST]
    raw = np.cross(j[INDEX_BASE] - j[WRIST], j[PINKY_BASE] - j[WRIST])
    try:
        if np.linalg.norm(span) < 1e-6:
            raise DegenerateDirection("wrist and middle fingertip coincide")
        direction = span / np.linalg.norm(span)
        if np.linalg.norm(raw) < 1e-9:
            raise DegenerateNormal("wrist, index base and pinky base are collinear")
        normal = (1.0 if handedness == "right" else -1.0) * raw / np.linalg.norm(raw)
        d = reference_unit(direction, "direction")
        p = reference_unit(normal, "normal")
        if abs(float(d @ p)) > 1.0 - 1e-9:
            raise ParallelAxes("direction and normal are parallel")
        p = reference_unit(p - (p @ d) * d, "orthogonalized normal")
    except (DegenerateDirection, DegenerateNormal) as exc:
        raise DegenerateObservation(str(exc)) from exc
    return j.mean(axis=0), _reference_rotation(d, p)


def reference_match(config, observed_joints):
    """(position, quaternion, 4 x 4 matching transform) that
    match_to_observation gives, or the error it raises."""
    if not config.validation.passed:
        checks = sorted(config.validation.checks.items())
        failed = ", ".join(name for name, check in checks if not check.passed)
        raise ValidationFailed(f"configuration failed validation: {failed}")
    j = checked_keypoints(observed_joints, DegenerateObservation)
    palm = np.cross(j[INDEX_BASE] - j[WRIST], j[PINKY_BASE] - j[WRIST])
    triple = float(palm @ (j[THUMB_BASE] - j[WRIST]))
    if abs(triple) < 1e-9:
        raise DegenerateObservation(f"triple product {triple:.3e} m^3 is too small")
    observed = "right" if triple > 0 else "left"
    if observed != config.task.handedness:
        raise HandednessMismatch(
            f"observed a {observed} hand, task expects {config.task.handedness}"
        )
    real_center, real_rotation = _reference_observed_frame(j, observed)
    imagined = config.hand_frame
    rotation = real_rotation @ _reference_rotation(imagined.direction, imagined.normal).T
    matrix = np.eye(4)
    matrix[:3, :3] = rotation
    matrix[:3, 3] = real_center - rotation @ imagined.center
    grasp = config.grasp.transform
    q = reference_matrix_to_quat(grasp.rotation)
    q = q / float(np.linalg.norm(q))
    position = rotation @ grasp.translation + matrix[:3, 3]
    quaternion = reference_quat_multiply(reference_matrix_to_quat(rotation), q)
    return position, reference_quat_canonical(quaternion), matrix
