"""Object point clouds and local normal estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .geometry import frozen_array, row_dot


@dataclass(frozen=True, eq=False)
class ObjectCloud:
    """Named point cloud in the object frame, with optional unit normals."""

    name: str
    points: np.ndarray  # (N, 3) meters
    normals: np.ndarray | None = None  # (N, 3) unit vectors

    def __post_init__(self):
        p = frozen_array(self.points, (None, 3), SchemaError, "points")
        if p.shape[0] < 1:
            raise SchemaError("points must hold at least one row")
        object.__setattr__(self, "points", p)
        if self.normals is not None:
            n = frozen_array(self.normals, p.shape, SchemaError, "normals")
            if np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) > 1e-6:
                raise SchemaError("normals must be unit length within 1e-6")
            object.__setattr__(self, "normals", n)

    @property
    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)

    def with_normals(self) -> "ObjectCloud":
        if self.normals is not None:
            return self
        return ObjectCloud(self.name, self.points, estimate_normals(self.points))


def estimate_normals(points, neighbors: int = 12) -> np.ndarray:
    """Per-point normals from local PCA, oriented outward from the centroid.

    Brute-force k-nearest-neighbour search: O(N^2) work in 512-row chunks,
    O(512 N) memory for one chunk's squared distances. The PCA runs on all
    points at once, with one stacked ``eigh``, and its result is bitwise
    equal to a per-point ``np.cov`` / ``eigh`` loop.
    """
    p = np.asarray(points, dtype=float)
    n_points = p.shape[0]
    if n_points < 3:
        # Too few points for a plane fit; fall back to radial directions.
        centered = p - p.mean(axis=0)
        norms = np.linalg.norm(centered, axis=1)
        out = np.where(norms[:, None] > 1e-12, centered / np.maximum(norms, 1e-12)[:, None], 0.0)
        out[norms <= 1e-12] = (1.0, 0.0, 0.0)
        return out

    k = min(neighbors, n_points - 1)
    idx = np.empty((n_points, k + 1), dtype=np.intp)
    chunk = 512
    for start in range(0, n_points, chunk):
        block = p[start : start + chunk]
        # dx^2 + dy^2 + dz^2 in this order rounds like a sum over the last axis.
        d2 = (block[:, None, 0] - p[None, :, 0]) ** 2
        d2 += (block[:, None, 1] - p[None, :, 1]) ** 2
        d2 += (block[:, None, 2] - p[None, :, 2]) ** 2
        idx[start : start + chunk] = np.argpartition(d2, kth=k, axis=1)[:, : k + 1]

    # Same operations, in the same order, as np.cov on each neighbourhood.
    nbrs = p[idx]
    x = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = (x.transpose(0, 2, 1) @ x) * (1.0 / k)
    normals = np.linalg.eigh(cov)[1][:, :, 0]
    outward = p - p.mean(axis=0)
    normals = np.where(row_dot(normals, outward)[:, None] < 0, -normals, normals)
    return normals / np.sqrt(row_dot(normals, normals))[:, None]
