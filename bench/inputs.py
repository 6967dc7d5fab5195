"""Seeded inputs for the three workloads, made before any timing starts.

Only numpy and the stdlib are used here, so the inputs do not depend on the
package under test. Point counts are spread evenly over their range and
shapes keep fixed proportions, so every seed covers the same mix of work
and two seeds differ in scale, position, motion, noise and text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from oracle import quat_matrix

# Requests per pass (a multiple of 4) and their range of cloud points.
PLAN_FIXTURE = dict(n=48, lo=50, hi=256)
PLAN_SCAN = dict(n=24, lo=257, hi=2000)
TRACK_FRAMES = 3000  # per pass
TRACK_NOISE_MM = (0.0, 2.0, 5.0)
SCAN_JITTER_M = 0.0005


@dataclass(frozen=True)
class Cloud:
    shape: str
    points: np.ndarray
    normals: np.ndarray | None


@dataclass(frozen=True)
class PlanRequest:
    text: str
    hand: str  # the corpus item's true hand, which the resolver must find
    object_name: str  # the corpus item's true object
    keypoints: np.ndarray  # the corpus item's hand observation
    cloud: Cloud
    grasp_seed: int
    motion: np.ndarray  # 4x4 rigid motion applied to the imagined joints


def random_motion(rng, reach_m: float = 0.5) -> np.ndarray:
    motion = np.eye(4)
    motion[:3, :3] = quat_matrix(rng.normal(size=4))  # uniform over rotations
    motion[:3, 3] = rng.uniform(-reach_m, reach_m, size=3)
    return motion


def cylinder(rings: int, per_ring: int, radius: float, height: float) -> Cloud:
    """Lateral surface around +z with exact radial normals."""
    angles = 2.0 * np.pi * np.arange(per_ring) / per_ring
    z = -height / 2 + height * (np.arange(rings) + 0.5) / rings
    radial = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(per_ring)])
    normals = np.tile(radial, (rings, 1))
    points = radius * normals
    points[:, 2] = np.repeat(z, per_ring)
    return Cloud("cylinder", points, normals)


def box(n_points: float, size) -> Cloud:
    """Axis-aligned box faces sampled on cell centres, with face normals.

    Opposite faces carry the same grid, so aligned opposing pairs exist
    across every dimension.
    """
    size = np.asarray(size, dtype=float)
    area = 2.0 * (size[0] * size[1] + size[1] * size[2] + size[0] * size[2])
    step = np.sqrt(area / n_points)
    cells = np.maximum(2, np.round(size / step).astype(int))
    points, normals = [], []
    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        gu = ((np.arange(cells[u]) + 0.5) / cells[u] - 0.5) * size[u]
        gv = ((np.arange(cells[v]) + 0.5) / cells[v] - 0.5) * size[v]
        uu, vv = np.meshgrid(gu, gv, indexing="ij")
        for sign in (1.0, -1.0):
            face = np.zeros((uu.size, 3))
            face[:, axis] = sign * size[axis] / 2
            face[:, u] = uu.ravel()
            face[:, v] = vv.ravel()
            normal = np.zeros((uu.size, 3))
            normal[:, axis] = sign
            points.append(face)
            normals.append(normal)
    return Cloud("box", np.vstack(points), np.vstack(normals))


def _counts(rng, n: int, lo: int, hi: int) -> np.ndarray:
    """n point counts spread evenly over [lo, hi], shuffled: the seed moves
    each within the middle fifth of its slice, so the size mix barely varies."""
    offset = 0.5 + 0.2 * (rng.random(n) - 0.5)
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + offset) / n)


def _clouds(rng, n: int, lo: int, hi: int) -> list[Cloud]:
    """n clouds in the order cylinder, cylinder, box, box, ...

    The sampler's work grows with the square of the point count times a
    factor set by the shape's proportions, so point counts are spread evenly
    over [lo, hi] and each shape keeps fixed proportions while its scale is
    drawn: every seed then holds the same mix of easy and hard clouds. Every
    cylinder diameter and every box side fits the jaw.
    """
    half = n // 2
    cylinders = []
    for count in _counts(rng, half, lo, hi):
        radius = rng.uniform(0.015, 0.035)
        height = 3.75 * radius
        # Points spaced about evenly around and along the surface.
        per_ring = int(np.clip(round(np.sqrt(count * 2 * np.pi * radius / height)), 8, hi // 2))
        rings = int(np.clip(round(count / per_ring), -(-lo // per_ring), hi // per_ring))
        cylinders.append(cylinder(rings, per_ring, radius, height))
    boxes = []
    for count in _counts(rng, half, lo, hi):
        # With only one side inside the jaw, random pairs above 256 points
        # often find no opposing faces at all.
        thin = rng.uniform(0.02, 0.037)
        size = [thin, 1.25 * thin, 2.0 * thin]
        boxes.append(_box_in_range(count, rng.permutation(size), lo, hi))
    out = []
    for i in range(0, half, 2):
        out += cylinders[i : i + 2] + boxes[i : i + 2]
    return out


def _box_in_range(n_points: float, size: np.ndarray, lo: int, hi: int) -> Cloud:
    cloud = box(n_points, size)
    # Cell rounding can overshoot the range; nudge the target until it fits.
    while len(cloud.points) > hi:
        n_points *= 0.95
        cloud = box(n_points, size)
    while len(cloud.points) < lo:
        n_points *= 1.05
        cloud = box(n_points, size)
    return cloud


def plan_requests(rng, corpus: list, n: int, lo: int, hi: int) -> list[PlanRequest]:
    """Requests over evenly spread clouds; texts walk the clear and foggy tiers.

    ``corpus`` holds (text, hand, object, keypoints) with the hand alternating
    item by item, so each block of four requests pairs both shapes with both
    hands.
    """
    clouds = _clouds(rng, n, lo, hi)
    start = int(rng.integers(len(corpus)))
    requests = []
    for i, cloud in enumerate(clouds):
        text, hand, obj, keypoints = corpus[(start + i) % len(corpus)]
        requests.append(
            PlanRequest(
                text=text,
                hand=hand,
                object_name=obj,
                keypoints=keypoints,
                cloud=cloud,
                grasp_seed=int(rng.integers(2**31)),
                motion=random_motion(rng),
            )
        )
    return requests


def jittered(rng, cloud: Cloud) -> Cloud:
    points = cloud.points + rng.normal(scale=SCAN_JITTER_M, size=cloud.points.shape)
    return Cloud(cloud.shape, points, None)


def ply_bytes(points: np.ndarray) -> bytes:
    """Binary little-endian PLY with float32 x/y/z and no normals."""
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {len(points)}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    return header.encode("ascii") + np.ascontiguousarray(points, dtype="<f4").tobytes()


def track_clouds(rng) -> list[Cloud]:
    """A 240-point cylinder and a box of about 216 points, of seeded size."""
    radius, height = rng.uniform(0.018, 0.032), rng.uniform(0.08, 0.14)
    size = rng.permutation(
        [rng.uniform(0.03, 0.06), rng.uniform(0.07, 0.11), rng.uniform(0.09, 0.13)]
    )
    return [cylinder(12, 20, radius, height), box(216, size)]


def track_frames(rng, n_configs: int, n: int):
    """Per frame: configuration index, noise in mm, 4x4 motion and (21, 3)
    unit Gaussian draws. Frames cycle configurations and noise levels; 3 and
    4 are coprime, so every pairing recurs every 12 frames."""
    index = np.arange(n)
    motions = np.array([random_motion(rng) for _ in index])
    noise = rng.normal(size=(n, 21, 3))
    return index % n_configs, np.array(TRACK_NOISE_MM)[index % len(TRACK_NOISE_MM)], motions, noise


def digest(*parts) -> str:
    """sha256 over the arrays, numbers and strings that make up the inputs."""
    h = hashlib.sha256()

    def feed(item):
        if isinstance(item, np.ndarray):
            h.update(str(item.shape).encode())
            h.update(np.ascontiguousarray(item, dtype=float).tobytes())
        elif isinstance(item, (list, tuple)):
            for sub in item:
                feed(sub)
        elif hasattr(item, "__dataclass_fields__"):
            for name in item.__dataclass_fields__:
                feed(getattr(item, name))
        elif item is not None:
            h.update(repr(item).encode())

    feed(parts)
    return h.hexdigest()
