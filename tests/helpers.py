"""Seeded random generators that only the tests use."""

import numpy as np

from handover.geometry import HandFrame, build_frame, quat_canonical, quat_to_matrix
from handover.grasp import CandidateSet, SelectionConfig
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
