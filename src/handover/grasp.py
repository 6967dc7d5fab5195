"""Grasp candidates, scoring against the receiving hand, and clearance checks.

A candidate is a rigid gripper pose in the object frame plus a jaw width.
The gripper approach axis (base toward fingers) is the third rotation
column; the closing axis is the first. Scoring trades off the angle between
the gripper approach axis and the hand direction against the distance of
the gripper from the hand center, and the best candidate is the score
argmin: the most anti-parallel, farthest-from-hand grasp wins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cloud import ObjectCloud
from .errors import (
    EmptyCandidateSet,
    InvalidCandidate,
    NoCandidatesFound,
    SchemaError,
)
from .geometry import RigidTransform, row_dot
from .hand_model import PosedHand, geometric_center, hand_direction

# Two-finger parallel gripper jaw limit (74 mm).
MAX_JAW_WIDTH_M = 0.074

COSINE_MODES = ("signed", "absolute")


@dataclass(frozen=True, eq=False)
class GraspCandidate:
    """Gripper pose in the object frame plus jaw width in meters."""

    transform: RigidTransform
    width: float
    source: str = "external"

    def validate(self) -> None:
        if not np.isfinite(self.width) or not (0.0 < self.width <= MAX_JAW_WIDTH_M):
            raise InvalidCandidate(
                f"jaw width {self.width} m outside (0, {MAX_JAW_WIDTH_M}]"
            )
        r = self.transform.rotation
        if np.linalg.norm(r.T @ r - np.eye(3)) > 1e-9 or abs(np.linalg.det(r) - 1) > 1e-9:
            raise InvalidCandidate("candidate rotation is not a proper rotation")

    def to_dict(self) -> dict:
        return {
            "matrix": self.transform.as_matrix().reshape(-1).tolist(),
            "width_m": float(self.width),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GraspCandidate":
        try:
            matrix = np.asarray(data["matrix"], dtype=float).reshape(4, 4)
            candidate = cls(
                transform=RigidTransform.from_matrix(matrix),
                width=float(data["width_m"]),
                source=str(data.get("source", "file")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad grasp record: {exc}") from exc
        return candidate


@dataclass(frozen=True)
class SelectionConfig:
    """Grasp scoring knobs.

    distance_weight (1/m) balances the cosine term against the hand-gripper
    distance; cosine_mode "signed" scores the plain dot product (anti-parallel
    preferred), "absolute" scores |cos| instead.
    """

    distance_weight: float = 1.0
    cosine_mode: str = "signed"
    clearance_margin: float = 0.005

    def __post_init__(self):
        if not np.isfinite(self.distance_weight) or self.distance_weight < 0:
            raise ValueError("distance_weight must be finite and >= 0")
        if self.cosine_mode not in COSINE_MODES:
            raise ValueError(f"cosine_mode must be one of {COSINE_MODES}")
        if self.clearance_margin <= 0:
            raise ValueError("clearance_margin must be positive")


@dataclass(frozen=True, eq=False)
class GripperGeometry:
    """Sphere-set collision proxy for the gripper body and fingers."""

    sphere_centers: np.ndarray  # (S, 3) in the gripper frame
    sphere_radii: np.ndarray  # (S,)

    def __post_init__(self):
        c = np.array(self.sphere_centers, dtype=float).reshape(-1, 3)
        r = np.array(self.sphere_radii, dtype=float).reshape(-1)
        if c.shape[0] < 1 or c.shape[0] != r.shape[0]:
            raise ValueError("need matching, non-empty sphere centers and radii")
        if np.any(r <= 0):
            raise ValueError("sphere radii must be positive")
        c.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "sphere_centers", c)
        object.__setattr__(self, "sphere_radii", r)

    @staticmethod
    def default_parallel_jaw() -> "GripperGeometry":
        # Fingers near the grasp line, knuckles and body trailing along -z.
        centers = [
            (0.02, 0.0, -0.004),
            (-0.02, 0.0, -0.004),
            (0.02, 0.0, -0.03),
            (-0.02, 0.0, -0.03),
            (0.0, 0.0, -0.055),
            (0.0, 0.0, -0.085),
        ]
        radii = [0.007, 0.007, 0.01, 0.01, 0.02, 0.024]
        return GripperGeometry(np.array(centers), np.array(radii))


def gripper_center_and_direction(candidate: GraspCandidate):
    """(grasp center, approach axis): translation and third rotation column."""
    return candidate.transform.translation, candidate.transform.rotation[:, 2]


def score_candidate(v_g, p_g, v_h, p_h, config: SelectionConfig) -> float:
    """Scalar score; lower is better under the argmin selection rule."""
    cos = float(np.dot(v_g, v_h))
    if config.cosine_mode == "absolute":
        cos = abs(cos)
    return cos - config.distance_weight * float(np.linalg.norm(np.asarray(p_g) - np.asarray(p_h)))


class GraspSelection(NamedTuple):
    index: int
    candidate: GraspCandidate
    score: float


def rank_candidates(
    candidates: Sequence[GraspCandidate], hand: PosedHand, config: SelectionConfig
):
    """(index, score) pairs sorted best (lowest score) first, stable on ties."""
    if len(candidates) == 0:
        raise EmptyCandidateSet("no grasp candidates to rank")
    v_h = hand_direction(hand)
    p_h = geometric_center(hand.vertices)
    scored = []
    for i, cand in enumerate(candidates):
        p_g, v_g = gripper_center_and_direction(cand)
        scored.append((i, score_candidate(v_g, p_g, v_h, p_h, config)))
    scored.sort(key=lambda pair: (pair[1], pair[0]))
    return scored


def select_grasp(
    candidates: Sequence[GraspCandidate], hand: PosedHand, config: SelectionConfig
) -> GraspSelection:
    """Argmin of score_candidate over the set; ties break to the lowest index."""
    index, score = rank_candidates(candidates, hand, config)[0]
    return GraspSelection(index, candidates[index], score)


@dataclass(frozen=True)
class ClearanceResult:
    passed: bool
    min_distance: float  # meters; negative on penetration


def clearance_check(
    candidate: GraspCandidate,
    gripper: GripperGeometry,
    hand: PosedHand,
    margin: float = 0.005,
) -> ClearanceResult:
    """Minimum sphere-surface to hand-vertex distance vs. the safety margin."""
    centers = candidate.transform.apply(gripper.sphere_centers)
    sq = ((centers[:, None, :] - hand.vertices[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(sq.min(axis=1)) - gripper.sphere_radii
    min_distance = float(dist.min())
    return ClearanceResult(passed=min_distance >= margin, min_distance=min_distance)


# --- offline antipodal candidate generation --------------------------------------

def antipodal_candidates(
    cloud: ObjectCloud,
    max_width: float = MAX_JAW_WIDTH_M,
    friction_half_angle: float = 0.3,
    count: int = 16,
    seed: int = 0,
) -> list[GraspCandidate]:
    """Deterministic parallel-jaw grasp sampling from opposing point pairs.

    A pair qualifies when its separation fits the jaw and both estimated
    normals oppose the pair axis within the friction cone. The grasp frame
    closes along the pair axis (column 1) and approaches perpendicular to it
    from the side away from the cloud centroid (column 3), with the grasp
    center at the pair midpoint. Output is sorted canonically before the
    seeded subsample so the result only depends on (inputs, seed).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    cloud = cloud.with_normals()
    points = cloud.points
    normals = cloud.normals
    centroid = cloud.centroid
    n_points = points.shape[0]
    if n_points < 2:
        raise NoCandidatesFound("need at least two points")

    effective_width = min(float(max_width), MAX_JAW_WIDTH_M)
    cos_cone = np.cos(friction_half_angle)
    rng = np.random.default_rng(seed)

    if n_points <= 256:
        ii, jj = np.triu_indices(n_points, k=1)
    else:
        n_pairs = max(count * 200, 2000)
        ii = rng.integers(0, n_points, size=n_pairs)
        jj = rng.integers(0, n_points, size=n_pairs)
        keep = ii < jj
        ii, jj = ii[keep], jj[keep]

    span = points[jj] - points[ii]
    sep = np.linalg.norm(span, axis=1)
    ok = (sep > 1e-9) & (sep <= effective_width)
    ii, jj, span, sep = ii[ok], jj[ok], span[ok], sep[ok]
    axis = span / sep[:, None]
    opposing = (np.einsum("ij,ij->i", normals[ii], axis) <= -cos_cone) & (
        np.einsum("ij,ij->i", normals[jj], axis) >= cos_cone
    )
    ii, jj, axis, sep = ii[opposing], jj[opposing], axis[opposing], sep[opposing]
    if ii.size == 0:
        raise NoCandidatesFound("no opposing point pair fits the jaw")

    midpoint = 0.5 * (points[ii] + points[jj])
    away = midpoint - centroid
    away = away - row_dot(away, axis)[:, None] * axis
    away_norm = np.sqrt(row_dot(away, away))
    near = away_norm < 1e-9
    far = ~near
    # Approach points base->fingers, i.e. in toward the object.
    approach = np.empty_like(away)
    approach[far] = -away[far] / away_norm[far, None]
    if near.any():
        # The pair axis passes through the centroid: a fixed perpendicular.
        u = axis[near]
        basis = np.zeros_like(u)
        basis[np.arange(u.shape[0]), np.argmin(np.abs(u), axis=1)] = 1.0
        perp = np.cross(u, basis)
        approach[near] = perp / np.sqrt(row_dot(perp, perp))[:, None]
    rotation = np.stack([axis, np.cross(approach, axis), approach], axis=2)

    # Canonical order: midpoint, then row-major rotation, then width.
    keys = (sep, *rotation.reshape(-1, 9).T[::-1], *midpoint.T[::-1])
    order = np.lexsort(keys)
    if order.size > count:
        order = order[np.sort(rng.choice(order.size, size=count, replace=False))]

    out = []
    for i in order:
        cand = GraspCandidate(
            transform=RigidTransform(rotation[i], midpoint[i]),
            width=float(sep[i]),
            source="antipodal-sampler",
        )
        cand.validate()
        out.append(cand)
    return out


# --- candidate files --------------------------------------------------------------

def save_candidates(candidates: Sequence[GraspCandidate], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([c.to_dict() for c in candidates], fh, sort_keys=True)


def load_candidates(path) -> list[GraspCandidate]:
    """Load candidates from a JSON array; width/rotation limits are enforced."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"grasp file is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise SchemaError("grasp file must contain a JSON array")
    out = []
    for record in data:
        candidate = GraspCandidate.from_dict(record)
        candidate.validate()
        out.append(candidate)
    return out
