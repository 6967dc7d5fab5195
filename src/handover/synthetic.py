"""Procedurally generated fixtures: a synthetic hand model, a 16-tool
catalog, desk-scale object clouds, receiving poses, and an intent corpus.

Everything here is deterministic (no RNG) so fixtures can be regenerated
identically anywhere; no licensed asset is required to run the toolkit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cloud import ObjectCloud
from .geometry import cross3
from .hand_model import (
    KEYPOINT_DRIVER,
    NUM_KEYPOINTS,
    NUM_SHAPE_DIRS,
    NUM_VERTICES,
    PARENTS,
    HandModelParams,
    HandPose,
)
from .intent import CatalogEntry, CorpusItem, TaskDescription, ToolCatalog
from .wrist import sample_receiving_pose

# Rest keypoints of the canonical right hand: wrist at the origin, fingers
# along +x, palm facing +z, thumb on the -y side.
_REST_KEYPOINTS_RIGHT = np.array(
    [
        (0.000, 0.000, 0.000),  # wrist
        (0.025, -0.030, 0.008),  # thumb MCP
        (0.045, -0.050, 0.010),
        (0.060, -0.062, 0.010),
        (0.072, -0.070, 0.010),
        (0.085, -0.028, 0.002),  # index MCP
        (0.120, -0.030, 0.002),
        (0.142, -0.031, 0.002),
        (0.160, -0.032, 0.002),
        (0.090, 0.000, 0.000),  # middle MCP
        (0.128, 0.000, 0.000),
        (0.152, 0.000, 0.000),
        (0.172, 0.000, 0.000),
        (0.085, 0.026, 0.002),  # ring MCP
        (0.120, 0.028, 0.002),
        (0.143, 0.029, 0.002),
        (0.160, 0.030, 0.002),
        (0.076, 0.050, 0.004),  # pinky MCP
        (0.102, 0.056, 0.004),
        (0.120, 0.060, 0.004),
        (0.134, 0.063, 0.004),
    ]
)

_RING_RADIUS = 0.004
_STATIONS = np.linspace(0.1, 0.95, 5)
_RING_SIZE = 5


def _perp_pair(axis: np.ndarray):
    pick = int(np.argmin(np.abs(axis)))
    basis = np.zeros(3)
    basis[pick] = 1.0
    u = cross3(axis, basis)
    u /= np.linalg.norm(u)
    return u, cross3(axis, u)


@lru_cache(maxsize=4)
def synthetic_hand_params(handedness: str = "right") -> HandModelParams:
    """Deterministic 778-vertex hand with exact keypoint regression.

    The first 84 vertices are four-point rings centered on each keypoint
    (so a 0.25-weight regressor row recovers the keypoint exactly), then
    finger capsule tubes, then a two-layer palm slab.
    """
    if handedness == "left":
        return synthetic_hand_params("right").mirrored()

    keypoints = _REST_KEYPOINTS_RIGHT
    vertices: list[np.ndarray] = []
    weight_rows: list[dict[int, float]] = []
    faces: list[tuple[int, int, int]] = []

    # Keypoint rings: the mean of each quadruple is exactly the keypoint.
    offsets = _RING_RADIUS * np.array(
        [(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], dtype=float
    )
    for i in range(NUM_KEYPOINTS):
        for off in offsets:
            vertices.append(keypoints[i] + off)
            weight_rows.append({int(KEYPOINT_DRIVER[i]): 1.0})

    # Finger tubes: 3 segments per finger, 5 stations x 5 ring points + 1.
    for finger in range(5):
        for segment in range(3):
            a = keypoints[1 + 4 * finger + segment]
            b = keypoints[1 + 4 * finger + segment + 1]
            joint = 3 * finger + 1 + segment
            axis = (b - a) / np.linalg.norm(b - a)
            u, v = _perp_pair(axis)
            base = len(vertices)
            for t in _STATIONS:
                center = a + t * (b - a)
                radius = 0.008 * (1.0 - 0.35 * t)
                if t >= 0.75 and segment < 2:
                    blend = 0.5 * (t - 0.75) / 0.25
                    row = {joint: 1.0 - blend, joint + 1: blend}
                else:
                    row = {joint: 1.0}
                for m in range(_RING_SIZE):
                    ang = 2.0 * np.pi * m / _RING_SIZE
                    vertices.append(center + radius * (np.cos(ang) * u + np.sin(ang) * v))
                    weight_rows.append(dict(row))
            for s in range(len(_STATIONS) - 1):
                for m in range(_RING_SIZE):
                    a0 = base + s * _RING_SIZE + m
                    a1 = base + s * _RING_SIZE + (m + 1) % _RING_SIZE
                    faces.append((a0, a0 + _RING_SIZE, a1 + _RING_SIZE))
                    faces.append((a0, a1 + _RING_SIZE, a1))
            vertices.append(a + 0.5 * (b - a) + 0.004 * u)
            weight_rows.append({joint: 1.0})

    # Palm slab: 19 x 8 bilinear grid on two z-layers, all wrist-weighted.
    near_lo, near_hi = np.array((0.004, -0.034, 0.0)), np.array((0.004, 0.052, 0.0))
    far_lo, far_hi = np.array((0.082, -0.030, 0.0)), np.array((0.078, 0.052, 0.0))
    nx, ny = 19, 8
    for layer, z in enumerate((0.009, -0.009)):
        base = len(vertices)
        for i in range(nx):
            s = i / (nx - 1)
            lo = near_lo + s * (far_lo - near_lo)
            hi = near_hi + s * (far_hi - near_hi)
            for j in range(ny):
                t = j / (ny - 1)
                vertices.append(lo + t * (hi - lo) + np.array((0.0, 0.0, z)))
                weight_rows.append({0: 1.0})
        for i in range(nx - 1):
            for j in range(ny - 1):
                c00 = base + i * ny + j
                c01, c10, c11 = c00 + 1, c00 + ny, c00 + ny + 1
                if layer == 0:
                    faces.append((c00, c10, c11))
                    faces.append((c00, c11, c01))
                else:
                    faces.append((c00, c11, c10))
                    faces.append((c00, c01, c11))

    template = np.array(vertices)
    assert template.shape == (NUM_VERTICES, 3), template.shape

    weights = np.zeros((NUM_VERTICES, 16))
    for row, assignment in enumerate(weight_rows):
        for joint, value in assignment.items():
            weights[row, joint] = value

    regressor = np.zeros((NUM_KEYPOINTS, NUM_VERTICES))
    for i in range(NUM_KEYPOINTS):
        regressor[i, 4 * i : 4 * i + 4] = 0.25

    shape_dirs = np.zeros((NUM_VERTICES, 3, NUM_SHAPE_DIRS))
    shape_dirs[:, :, 0] = template  # direction 0: uniform scale about the wrist

    return HandModelParams(
        template_vertices=template,
        skinning_weights=weights,
        joint_regressor=regressor,
        parents=PARENTS,
        handedness="right",
        shape_dirs=shape_dirs,
        faces=np.array(faces, dtype=int),
    )


def synthetic_rest_keypoints(handedness: str = "right") -> np.ndarray:
    params = synthetic_hand_params(handedness)
    return params.rest_keypoints


# --- object clouds -----------------------------------------------------------------

def cylinder_cloud(
    radius: float = 0.025,
    height: float = 0.12,
    rings: int = 12,
    per_ring: int = 20,
    name: str = "cylinder",
) -> ObjectCloud:
    """Lateral cylinder surface (axis +z) with exact radial normals."""
    points, normals = [], []
    for zi in range(rings):
        z = -height / 2 + height * (zi + 0.5) / rings
        for k in range(per_ring):
            ang = 2.0 * np.pi * k / per_ring
            n = np.array((np.cos(ang), np.sin(ang), 0.0))
            points.append(radius * n + np.array((0.0, 0.0, z)))
            normals.append(n)
    return ObjectCloud(name, np.array(points), np.array(normals))


def box_cloud(
    size: tuple[float, float, float] = (0.11, 0.09, 0.05),
    per_edge: int = 6,
    name: str = "box",
) -> ObjectCloud:
    """Axis-aligned box surface sampled per face, with face normals."""
    half = np.asarray(size, dtype=float) / 2.0
    grid = (np.arange(per_edge) + 0.5) / per_edge  # interior samples only
    points, normals = [], []
    for axis in range(3):
        u_axis, v_axis = (axis + 1) % 3, (axis + 2) % 3
        for sign in (1.0, -1.0):
            normal = np.zeros(3)
            normal[axis] = sign
            for gu in grid:
                for gv in grid:
                    p = np.zeros(3)
                    p[axis] = sign * half[axis]
                    p[u_axis] = (2.0 * gu - 1.0) * half[u_axis]
                    p[v_axis] = (2.0 * gv - 1.0) * half[v_axis]
                    points.append(p)
                    normals.append(normal.copy())
    return ObjectCloud(name, np.array(points), np.array(normals))


# --- receiving poses ----------------------------------------------------------------

# How far beyond the cloud's smallest x the receiving wrist is placed.
REACH_MARGIN_M = 0.20


def receiving_pose_for(cloud: ObjectCloud, handedness: str = "right") -> HandPose:
    """Open hand posed in the object frame, reaching toward the cloud from -x:
    the wrist sits REACH_MARGIN_M below the cloud's smallest x, level with
    its centroid in y and z."""
    centroid = cloud.centroid
    wrist = np.array(
        (float(cloud.points[:, 0].min()) - REACH_MARGIN_M, centroid[1], centroid[2])
    )
    return HandPose(translation=wrist, pose=_open_hand(handedness).pose, handedness=handedness)


@lru_cache(maxsize=2)
def _open_hand(handedness: str) -> HandPose:
    """The open-hand wrist sample at zero angles, made once per handedness:
    a HandPose is immutable."""
    return sample_receiving_pose((0.0, 0.0, 0.0), grip="open", handedness=handedness).pose


# --- tool catalog -------------------------------------------------------------------

def default_catalog() -> ToolCatalog:
    """16 everyday tools with synonyms and use-case phrases."""
    rows = [
        ("game controller", ("gamepad", "controller"), ("play games", "gaming")),
        ("knife", ("blade",), ("cut the bread", "slice", "chop")),
        ("scissors", ("shears",), ("cut paper", "snip")),
        ("screwdriver", (), ("screw", "unscrew", "tighten a screw")),
        ("pincer", ("pincers", "tongs"), ("pull a nail", "grip the wire")),
        ("eyeglasses", ("glasses", "spectacles"), ("read fine print", "see clearly")),
        ("hammer", ("mallet",), ("drive a nail", "pound")),
        ("wrench", ("spanner",), ("loosen a bolt", "tighten a nut")),
        ("stapler", (), ("staple", "bind pages")),
        ("flashlight", ("torch",), ("light up", "see in the dark")),
        ("mug", ("cup",), ("drink coffee", "hold a hot drink")),
        ("spoon", (), ("stir", "eat soup")),
        ("fork", (), ("eat pasta", "pick up noodles")),
        ("pen", ("ballpoint",), ("write", "sign the form")),
        ("remote control", ("remote",), ("change the channel", "turn on the tv")),
        ("tape measure", ("measuring tape",), ("measure the shelf", "check the length")),
    ]
    return ToolCatalog(
        tuple(CatalogEntry(name, synonyms, use_cases) for name, synonyms, use_cases in rows)
    )


# --- intent corpus ------------------------------------------------------------------

def sample_corpus(catalog: ToolCatalog | None = None) -> list[CorpusItem]:
    """Small three-tier corpus over the catalog, with hand keypoints attached.

    Texts get vaguer tier by tier; a few fuzzy items are deliberately
    unresolvable so per-tier accuracies are non-trivial.
    """
    catalog = catalog or default_catalog()
    right = synthetic_rest_keypoints("right")
    left = synthetic_rest_keypoints("left")
    items = []
    for i, entry in enumerate(catalog.entries):
        hand = "right" if i % 2 == 0 else "left"
        keypoints = right if hand == "right" else left
        truth = TaskDescription(object_name=entry.name, handedness=hand)
        items.append(
            CorpusItem(
                text=f"I need a {entry.name}.",
                tier="clear",
                truth=truth,
                keypoints=keypoints,
            )
        )
        foggy_phrase = entry.synonyms[0] if entry.synonyms else entry.use_cases[0]
        items.append(
            CorpusItem(
                text=f"Could you hand me the {foggy_phrase}?",
                tier="foggy",
                truth=truth,
                keypoints=keypoints,
            )
        )
        fuzzy_text = (
            f"I want to {entry.use_cases[0]} now."
            if i % 4 != 3
            else "Give me the usual one."  # unresolvable on purpose
        )
        items.append(
            CorpusItem(text=fuzzy_text, tier="fuzzy", truth=truth, keypoints=keypoints)
        )
    return items
