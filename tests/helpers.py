"""Seeded random generators that only the tests use."""

import numpy as np

from handover.geometry import HandFrame, build_frame, quat_canonical, quat_to_matrix
from handover.grasp import CandidateSet
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
