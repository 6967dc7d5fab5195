"""Procedurally generated fixtures: a synthetic hand model, a 16-tool
catalog, desk-scale object clouds, receiving poses, and an intent corpus.

Everything here is deterministic (no RNG) so fixtures can be regenerated
identically anywhere; no licensed asset is required to run the toolkit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cloud import ObjectCloud
from .geometry import cross3, quad_strip_faces, row_dot
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
    # Keypoint rings: the mean of each quadruple is exactly the keypoint.
    offsets = _RING_RADIUS * np.array([(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], dtype=float)
    rings = (keypoints[:, None] + offsets).reshape(-1, 3)

    # Finger tubes: 15 segments (3 per finger, joints 1..15) of 5 stations x 5
    # ring points, then one point beside each segment's middle.
    seg = np.arange(15)
    a = keypoints[1 + seg + seg // 3]
    d = keypoints[2 + seg + seg // 3] - a
    axis = d / np.sqrt(row_dot(d, d))[:, None]
    u = cross3(axis, np.eye(3)[np.argmin(np.abs(axis), axis=1)])
    u /= np.sqrt(row_dot(u, u))[:, None]
    v = cross3(axis, u)
    ang = (2.0 * np.pi * np.arange(_RING_SIZE) / _RING_SIZE)[:, None]
    spokes = np.cos(ang) * u[:, None] + np.sin(ang) * v[:, None]
    centers = a[:, None] + _STATIONS[:, None] * d[:, None]
    radius = 0.008 * (1.0 - 0.35 * _STATIONS)
    tube_rings = centers[:, :, None] + radius[:, None, None] * spokes[:, None]
    tubes = np.concatenate([tube_rings.reshape(15, -1, 3), (a + 0.5 * d + 0.004 * u)[:, None]], 1)

    # Palm slab: 19 x 8 bilinear grid on two z-layers, all wrist-weighted.
    near = np.array([(0.004, -0.034, 0.0), (0.004, 0.052, 0.0)])  # its lo and hi corners
    far = np.array([(0.082, -0.030, 0.0), (0.078, 0.052, 0.0)])
    nx, ny = 19, 8
    lo_hi = near + (np.arange(nx) / (nx - 1))[:, None, None] * (far - near)
    lo, hi = lo_hi[:, :1], lo_hi[:, 1:]
    grid = lo + (np.arange(ny) / (ny - 1))[:, None] * (hi - lo)
    palm = grid + np.array([(0.0, 0.0, 0.009), (0.0, 0.0, -0.009)])[:, None, None]
    template = np.concatenate([rings, tubes.reshape(-1, 3), palm.reshape(-1, 3)])
    tube_start, palm_start = len(rings), len(rings) + tubes.size // 3

    # Each vertex follows one joint, but the rings past t = 0.75 on proximal
    # and middle segments hand a share of their weight to the next joint.
    joints = np.zeros(NUM_VERTICES, dtype=int)  # the palm follows the wrist
    joints[:tube_start] = np.repeat(KEYPOINT_DRIVER, 4)
    joints[tube_start:palm_start] = np.repeat(seg + 1, tubes.shape[1])
    blend = np.zeros(NUM_VERTICES)
    blend[tube_start:palm_start].reshape(15, -1)[seg % 3 < 2, :-1] = np.repeat(
        np.where(_STATIONS >= 0.75, 0.5 * (_STATIONS - 0.75) / 0.25, 0.0), _RING_SIZE
    )
    weights = np.eye(16)[joints] * (1.0 - blend)[:, None]
    shared = np.flatnonzero(blend)
    weights[shared, joints[shared] + 1] += blend[shared]

    regressor = np.zeros((NUM_KEYPOINTS, NUM_VERTICES))
    regressor[:, :tube_start] = np.repeat(0.25 * np.eye(NUM_KEYPOINTS), 4, axis=1)

    shape_dirs = np.zeros((NUM_VERTICES, 3, NUM_SHAPE_DIRS))
    shape_dirs[:, :, 0] = template  # direction 0: uniform scale about the wrist

    # Quads between a tube's stations and between the palm's rows; the lower
    # palm layer is wound the other way, to face -z.
    tube_faces = quad_strip_faces(
        tube_start + tubes.shape[1] * seg[:, None] + _RING_SIZE * np.arange(4), _RING_SIZE
    )
    palm_faces = quad_strip_faces(
        palm_start + nx * ny * np.arange(2)[:, None] + ny * np.arange(nx - 1), ny, closed=False
    ).reshape(2, -1, 3)
    palm_faces[1] = palm_faces[1][:, [0, 2, 1]]

    return HandModelParams(
        template_vertices=template,
        skinning_weights=weights,
        joint_regressor=regressor,
        parents=PARENTS,
        handedness="right",
        shape_dirs=shape_dirs,
        faces=np.concatenate([tube_faces, palm_faces.reshape(-1, 3)]),
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
    ang = 2.0 * np.pi * np.arange(per_ring) / per_ring
    ring = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(per_ring)])
    normals = np.tile(ring, (rings, 1))
    offsets = np.zeros_like(normals)
    offsets[:, 2] = np.repeat(-height / 2 + height * (np.arange(rings) + 0.5) / rings, per_ring)
    return ObjectCloud(name, radius * normals + offsets, normals)


def box_cloud(
    size: tuple[float, float, float] = (0.11, 0.09, 0.05),
    per_edge: int = 6,
    name: str = "box",
) -> ObjectCloud:
    """Axis-aligned box surface sampled per face, with face normals."""
    half = np.asarray(size, dtype=float) / 2.0
    grid = 2.0 * ((np.arange(per_edge) + 0.5) / per_edge) - 1.0  # interior samples only
    # (normal axis, its two following axes) coordinates of the +/- faces, in
    # units of the half size; rolling them by k puts the normal on axis k.
    local = np.stack(np.meshgrid((1.0, -1.0), grid, grid, indexing="ij"), axis=-1)
    units = np.stack([np.roll(local, k, axis=-1) for k in range(3)]).reshape(-1, 3)
    normal_axis = np.repeat(np.eye(3, dtype=bool), 2 * per_edge**2, axis=0)
    return ObjectCloud(name, units * half, np.where(normal_axis, units, 0.0))


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
    items = []
    for i, entry in enumerate(catalog.entries):
        hand = "right" if i % 2 == 0 else "left"
        truth = TaskDescription(object_name=entry.name, handedness=hand)
        foggy_phrase = entry.synonyms[0] if entry.synonyms else entry.use_cases[0]
        fuzzy_text = f"I want to {entry.use_cases[0]} now."
        texts = {
            "clear": f"I need a {entry.name}.",
            "foggy": f"Could you hand me the {foggy_phrase}?",
            "fuzzy": fuzzy_text if i % 4 != 3 else "Give me the usual one.",  # unresolvable
        }
        keypoints = synthetic_rest_keypoints(hand)
        items += [CorpusItem(text, tier, truth, keypoints) for tier, text in texts.items()]
    return items
