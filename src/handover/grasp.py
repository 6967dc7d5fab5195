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

import numpy as np

from .cloud import ObjectCloud
from .errors import (
    EmptyCandidateSet,
    InvalidCandidate,
    NoCandidatesFound,
    SchemaError,
    load_json_file,
    reading,
)
from .geometry import (
    VERIFY_TOL,
    RigidTransform,
    cross3,
    frozen_array,
    rotation_residuals,
    row_dot,
    row_norms,
)
from .hand_model import PosedHand, direction_from_joints, geometric_center

# Two-finger parallel gripper jaw limit (74 mm).
MAX_JAW_WIDTH_M = 0.074
# Least gripper-to-hand distance a chosen grasp keeps (5 mm).
CLEARANCE_MARGIN_M = 0.005
# The sampler's friction cone: each contact normal must oppose the closing
# axis within this half-angle (about 17 degrees).
FRICTION_HALF_ANGLE = 0.3

COSINE_MODES = ("signed", "absolute")

# ObjectCloud accepts normals of unit length within 1e-6. Two normals of norm
# at most 1 + e can pass the friction-cone test with n_i . n_j as large as
# -cos 2theta + 2e + e^2, so the sampler's normal-dot prefilter bound carries
# a slack well above that and above round-off.
_PAIR_PREFILTER_SLACK = 1e-5


@dataclass(frozen=True, eq=False)
class GraspCandidate:
    """Gripper pose in the object frame plus jaw width in meters."""

    transform: RigidTransform
    width: float
    source: str = "external"

    def to_dict(self) -> dict:
        return {
            "matrix": self.transform.as_matrix().reshape(-1).tolist(),
            "width_m": float(self.width),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GraspCandidate":
        with reading("grasp record"):
            matrix = frozen_array(data["matrix"], (16,), ValueError, "matrix")
            source = data.get("source", "file")
            if not isinstance(source, str):
                raise ValueError(f"source must be a string, got {source!r}")
            return cls(
                transform=RigidTransform.from_matrix(matrix.reshape(4, 4)),
                width=float(frozen_array(data["width_m"], (), SchemaError, "grasp.width_m")),
                source=source,
            )


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """K candidates as stacked arrays with one source tag per row;
    ``candidates[k]`` builds candidate k. Rotations and translations must be
    finite (ValueError), and a set is valid by construction: the first row
    that fails first_invalid raises InvalidCandidate naming its index."""

    rotations: np.ndarray  # (K, 3, 3)
    translations: np.ndarray  # (K, 3)
    widths: np.ndarray  # (K,)
    sources: tuple[str, ...]  # (K,)

    def __post_init__(self):
        widths = np.array(self.widths, dtype=float).reshape(-1)
        widths.setflags(write=False)
        object.__setattr__(self, "widths", widths)
        for name, shape in (("rotations", (3, 3)), ("translations", (3,))):
            value = frozen_array(getattr(self, name), (len(widths), *shape), ValueError, name)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "sources", tuple(self.sources))
        if len(self.sources) != len(widths):
            raise ValueError(f"sources must hold {len(widths)} tags, got {len(self.sources)}")
        invalid = first_invalid(self.rotations, widths)
        if invalid is not None:
            raise InvalidCandidate("candidate %d: %s" % invalid)

    def __len__(self) -> int:
        return len(self.widths)

    def __getitem__(self, k) -> GraspCandidate:
        transform = RigidTransform(self.rotations[k], self.translations[k])
        return GraspCandidate(transform, float(self.widths[k]), self.sources[k])


def first_invalid(rotations: np.ndarray, widths: np.ndarray) -> tuple[int, str] | None:
    """Index and reason of the first of K candidates, given as (K, 3, 3)
    rotations and (K,) widths, whose width lies outside (0, MAX_JAW_WIDTH_M],
    else whose rotation_residuals exceeds VERIFY_TOL; None if all pass."""
    bad_width = ~((widths > 0.0) & (widths <= MAX_JAW_WIDTH_M))
    bad = bad_width | (rotation_residuals(rotations) > VERIFY_TOL)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    if bad_width[k]:
        return k, f"jaw width {widths[k]} m outside (0, {MAX_JAW_WIDTH_M}]"
    return k, "candidate rotation is not a proper rotation"


@dataclass(frozen=True)
class SelectionConfig:
    """Grasp scoring knobs.

    distance_weight (1/m) balances the cosine term against the hand-gripper
    distance; cosine_mode "signed" scores the plain dot product (anti-parallel
    preferred), "absolute" scores |cos| instead.
    """

    distance_weight: float = 1.0
    cosine_mode: str = "signed"
    clearance_margin: float = CLEARANCE_MARGIN_M

    def __post_init__(self):
        if not np.isfinite(self.distance_weight) or self.distance_weight < 0:
            raise ValueError("distance_weight must be finite and >= 0")
        if self.cosine_mode not in COSINE_MODES:
            raise ValueError(f"cosine_mode must be one of {COSINE_MODES}")
        if not np.isfinite(self.clearance_margin) or self.clearance_margin <= 0:
            raise ValueError("clearance_margin must be finite and positive")


@dataclass(frozen=True, eq=False)
class GripperGeometry:
    """Sphere-set collision proxy for the gripper body and fingers."""

    sphere_centers: np.ndarray  # (S, 3) in the gripper frame
    sphere_radii: np.ndarray  # (S,)

    def __post_init__(self):
        c = frozen_array(self.sphere_centers, (None, 3), ValueError, "sphere_centers")
        r = frozen_array(self.sphere_radii, (c.shape[0],), ValueError, "sphere_radii")
        if c.shape[0] < 1 or np.any(r <= 0):
            raise ValueError("need at least one sphere, and positive radii")
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


# The gripper every clearance is measured against. A configuration record
# does not name its gripper, so a loaded record is re-measured against this one.
GRIPPER = GripperGeometry.default_parallel_jaw()


def rank_candidates(candidates: CandidateSet, hand: PosedHand, config: SelectionConfig):
    """(index, score) pairs sorted best (lowest score) first, stable on ties, so
    the first pair is the argmin. One array pass; a candidate's score is the
    cosine between its approach axis (third rotation column) and the hand
    direction, minus distance_weight times the distance from its center
    (translation) to the hand's vertex centroid."""
    if len(candidates) == 0:
        raise EmptyCandidateSet("no grasp candidates to rank")
    v_g = candidates.rotations[:, :, 2]
    cos = row_dot(v_g, np.broadcast_to(direction_from_joints(hand.joints), v_g.shape))
    if config.cosine_mode == "absolute":
        cos = np.abs(cos)
    offset = candidates.translations - geometric_center(hand.vertices)
    scores = cos - config.distance_weight * np.sqrt(row_dot(offset, offset))
    order = np.argsort(scores, kind="stable")
    return list(zip(order.tolist(), scores[order].tolist()))


@dataclass(frozen=True)
class ClearanceResult:
    passed: bool
    min_distance: float  # meters; negative on penetration


def clearance_check(
    candidate: GraspCandidate,
    gripper: GripperGeometry,
    hand: PosedHand,
    margin: float = CLEARANCE_MARGIN_M,
) -> ClearanceResult:
    """Minimum sphere-surface to hand-vertex distance vs. the safety margin."""
    centers = candidate.transform.apply(gripper.sphere_centers)
    vertices = hand.vertices
    # dx^2 + dy^2 + dz^2, one axis at a time: bitwise the (S, V, 3) broadcast
    # summed over its last axis, without that temporary.
    sq = (centers[:, 0, None] - vertices[:, 0]) ** 2
    sq += (centers[:, 1, None] - vertices[:, 1]) ** 2
    sq += (centers[:, 2, None] - vertices[:, 2]) ** 2
    dist = np.sqrt(sq.min(axis=1)) - gripper.sphere_radii
    min_distance = float(dist.min())
    return ClearanceResult(passed=min_distance >= margin, min_distance=min_distance)


# --- offline antipodal candidate generation --------------------------------------

def antipodal_candidates(cloud: ObjectCloud, count: int = 16, seed: int = 0) -> CandidateSet:
    """Deterministic parallel-jaw grasp sampling from opposing point pairs.

    A pair qualifies when its separation fits the jaw (MAX_JAW_WIDTH_M) and
    both estimated normals oppose the pair axis within the friction cone
    (FRICTION_HALF_ANGLE). The grasp frame closes along the pair axis
    (column 1) and approaches perpendicular to it from the side away from the
    cloud centroid (column 3), with the grasp center at the pair midpoint.
    The seeded subsample draws ranks in the canonical order (midpoint, then
    row-major rotation, then width), so the returned CandidateSet, in that
    order, depends only on (inputs, seed).
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

    cos_cone = np.cos(FRICTION_HALF_ANGLE)
    rng = np.random.default_rng(seed)

    if n_points <= 256:
        # Normals within theta of -axis and of +axis have n_i . n_j <= -cos 2theta
        # = 1 - 2 cos^2 theta, as theta is below 90 degrees. The exact test below
        # runs on the pairs this keeps above the diagonal, in row-major order.
        kept = np.flatnonzero(
            normals @ normals.T <= 1.0 - 2.0 * cos_cone**2 + _PAIR_PREFILTER_SLACK
        )
        ii = kept // n_points
        jj = kept - ii * n_points
    else:
        # No more than the cloud's n(n-1)/2 distinct pairs: past that, a larger
        # count would only cost memory.
        n_pairs = min(max(count * 200, 2000), n_points * (n_points - 1) // 2)
        ii = rng.integers(0, n_points, size=n_pairs)
        jj = rng.integers(0, n_points, size=n_pairs)
    upper = ii < jj
    ii, jj = ii.compress(upper), jj.compress(upper)

    # Rows move with take and compress, which skip fancy indexing's overhead.
    span = points.take(jj, axis=0) - points.take(ii, axis=0)
    sep = row_norms(span)
    # Every pair gets an axis, in one pass; a pair too close to have one is
    # divided by 1e-9 instead of 0, and fails the first test.
    axis = span / np.maximum(sep, 1e-9)[:, None]
    ok = (sep > 1e-9) & (sep <= MAX_JAW_WIDTH_M)
    ok &= np.einsum("ij,ij->i", normals.take(ii, axis=0), axis) <= -cos_cone
    ok &= np.einsum("ij,ij->i", normals.take(jj, axis=0), axis) >= cos_cone
    ii, jj, sep = ii.compress(ok), jj.compress(ok), sep.compress(ok)
    axis = axis.compress(ok, axis=0)
    if ii.size == 0:
        raise NoCandidatesFound("no opposing point pair fits the jaw")

    midpoint = 0.5 * (points.take(ii, axis=0) + points.take(jj, axis=0))
    # The midpoint sort fixes each group of equal midpoints; frames are built,
    # and groups sorted by (rotation, width), only where a drawn rank falls.
    by_midpoint = np.lexsort(midpoint.T[::-1])
    ranks = np.arange(by_midpoint.size)
    if ranks.size > count:
        ranks = np.sort(rng.choice(ranks.size, size=count, replace=False))
    tied = midpoint.take(by_midpoint, axis=0)
    step = tied[1:] != tied[:-1]
    group = np.cumsum(np.concatenate(([True], step[:, 0] | step[:, 1] | step[:, 2])))
    drawn = np.zeros(group[-1] + 1, dtype=bool)
    drawn[group.take(ranks)] = True
    slots = np.flatnonzero(drawn.take(group))  # the ranks the drawn groups cover
    pairs = by_midpoint.take(slots)
    axis, midpoint, sep = axis.take(pairs, axis=0), midpoint.take(pairs, axis=0), sep.take(pairs)

    away = midpoint - centroid
    away = away - row_dot(away, axis)[:, None] * axis
    away_norm = np.sqrt(row_dot(away, away))
    # Approach points base->fingers, i.e. in toward the object.
    approach = -away / np.maximum(away_norm, 1e-9)[:, None]
    near = away_norm < 1e-9
    if near.any():
        # The pair axis passes through the centroid: a fixed perpendicular.
        u = axis[near]
        basis = np.zeros_like(u)
        basis[np.arange(u.shape[0]), np.argmin(np.abs(u), axis=1)] = 1.0
        perp = cross3(u, basis)
        approach[near] = perp / np.sqrt(row_dot(perp, perp))[:, None]
    rotation = np.stack([axis, cross3(approach, axis), approach], axis=2)

    order = np.lexsort((sep, *rotation.reshape(-1, 9).T[::-1], group.take(slots)))
    chosen = order.take(np.searchsorted(slots, ranks))
    sources = ("antipodal-sampler",) * chosen.size
    return CandidateSet(
        rotation.take(chosen, axis=0), midpoint.take(chosen, axis=0), sep.take(chosen), sources
    )


# --- candidate files --------------------------------------------------------------

def save_candidates(candidates: CandidateSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([c.to_dict() for c in candidates], fh, sort_keys=True)


def load_candidates(path) -> CandidateSet:
    """Every record of a JSON array parsed, then stacked into one CandidateSet,
    which judges them: a malformed record is a SchemaError before any width or
    rotation check."""
    data = load_json_file(path)
    if not isinstance(data, list):
        raise SchemaError("grasp file must contain a JSON array")
    records = [GraspCandidate.from_dict(record) for record in data]
    return CandidateSet(
        np.array([g.transform.rotation for g in records]).reshape(-1, 3, 3),
        np.array([g.transform.translation for g in records]).reshape(-1, 3),
        [g.width for g in records],
        [g.source for g in records],
    )
