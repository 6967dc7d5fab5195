"""Object point clouds, exact k-nearest-neighbour search and local normal estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .geometry import frozen_array, row_norms


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
            if np.max(np.abs(row_norms(n) - 1.0)) > 1e-6:
                raise SchemaError("normals must be unit length within 1e-6")
            object.__setattr__(self, "normals", n)

    @property
    def centroid(self) -> np.ndarray:
        """The mean point: ``points.mean(axis=0)``'s sum and division, without
        its per-call overhead."""
        return np.add.reduce(self.points, axis=0) / self.points.shape[0]

    def with_normals(self) -> "ObjectCloud":
        if self.normals is not None:
            return self
        return ObjectCloud(self.name, self.points, estimate_normals(self.points))


# Each point's plane fit runs on the point and this many nearest points.
NORMAL_NEIGHBORS = 12
ROOT_STEPS = 64  # Newton steps per point in _least_eigenvectors; each halves a double root's gap


def estimate_normals(points) -> np.ndarray:
    """Per-point normals from local PCA, oriented outward from the centroid.

    Each neighbourhood is the point and its NORMAL_NEIGHBORS nearest points
    (fewer on a smaller cloud) from ``nearest_neighbors``: exact, in order of
    squared distance with ties broken by index. On a surface cloud the search
    takes O(N log N) time and O(N) memory. The plane fits use only + - * / and
    sqrt, summed in fixed orders: the bits do not depend on BLAS or SIMD dispatch.
    """
    p = frozen_array(points, (None, 3), ValueError, "points")
    n_points = p.shape[0]
    if n_points == 0:
        raise ValueError("points must hold at least one row")
    if n_points < 3:
        # Too few points for a plane fit; fall back to radial directions.
        centered = p - p.mean(axis=0)
        norms = np.linalg.norm(centered, axis=1)[:, None]
        return np.where(norms > 1e-12, centered / np.maximum(norms, 1e-12), (1.0, 0.0, 0.0))

    k = min(NORMAL_NEIGHBORS, n_points - 1)
    # x[axis, j] is that coordinate of each point's j-th neighbour less their mean. np.add.reduce
    # adds a C-ordered block's rows in turn: each sum runs in neighbour order, or x, y, z order.
    x = np.take(p.T, nearest_neighbors(p, k + 1).T, axis=1)
    x -= np.add.reduce(x, axis=1)[:, None] / (k + 1)
    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        normals = _least_eigenvectors(*(np.add.reduce(x[i] * x[j], axis=0) for i, j in pairs))
        outward = np.ascontiguousarray(p.T) - p.mean(axis=0)[:, None]
        normals *= np.where(np.add.reduce(normals * outward, axis=0) < 0, -1.0, 1.0)
        length = np.sqrt(np.add.reduce(normals * normals, axis=0))  # NaN on a single spot
        return np.where(length > 0, normals / length, [[1.0], [0.0], [0.0]]).T.copy()


def _least_eigenvectors(a, b, c, d, e, f) -> np.ndarray:
    """A (3, N) eigenvector of the least eigenvalue lam of each positive semi-definite
    C = [[a, d, e], [d, b, f], [e, f, c]], first scaled by a power of two (exact) to a trace in
    [0.5, 1): adj(C - lam I)'s longest column. Newton steps on det(C - lam I), falling and
    convex below lam, rise from 0 to it, each shorter than the last, so a point stops at one
    that is not: rounding. None passes 3 c1 / c2 >= lam, with c1 the sum of C's principal
    2 x 2 minors and c2 its trace, which holds rounding on rank one.
    """
    a, b, c, d, e, f = np.ldexp(np.array([a, b, c, d, e, f]), -np.frexp(a + b + c)[1])
    ff, ee, dd, ef, df = f * f, e * e, d * d, e * f, d * f
    top = 3.0 * ((b * c - ff) + (a * c - ee) + (a * b - dd)) / (a + b + c)
    diagonal, lam, last = np.array([a, b, c]), np.zeros_like(a), np.full_like(a, np.inf)
    for _ in range(ROOT_STEPS):
        a, b, c = diagonal - lam
        minor = b * c - ff
        det = a * minor + d * (ef - d * c) + e * (df - b * e)
        step = np.minimum(det / (minor + (a * c - ee) + (a * b - dd)), top - lam)
        if not np.count_nonzero(go := (lam + step > lam) & (step < last)):
            break
        lam, last = np.where(go, lam + step, lam), step * go  # a 0 or NaN step stops a point
    a, b, c = diagonal - lam
    c01, c02, c12 = ef - d * c, df - b * e, d * e - a * f
    adj = np.array([[b * c - ff, c01, c02], [c01, a * c - ee, c12], [c02, c12, a * b - dd]])
    vector = _pick(np.add.reduce(adj * adj, axis=0), adj)  # adj is symmetric
    # Rounding leaves some of r, C - lam I's row of largest diagonal, in the column: out with it.
    r = _pick((a, b, c), np.array([[a, d, e], [d, b, f], [e, f, c]]))
    vector = np.where(vector.any(axis=0), vector, _pick((a, b, c), np.eye(3)[[1, 2, 0], :, None]))
    return vector - np.add.reduce(vector * r, axis=0) / np.add.reduce(r * r, axis=0) * r


def _pick(k, rows):
    """Per point, rows[j] with the largest k[j], the first of equals."""
    return np.where(k[2] > np.maximum(k[0], k[1]), rows[2], np.where(k[1] > k[0], rows[1], rows[0]))


# The 27 cells of a 3 x 3 x 3 block, as (dx, dy, dz) steps.
_BLOCK = np.array([(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)])
# Squared distances held at once; bounds the search's working memory.
_CHUNK = 1 << 15


def nearest_neighbors(points: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` nearest points of each point, itself included, as (N, count)
    indices ordered by squared distance, ties broken by index.

    That is the first ``count`` columns of a stable argsort of each row of the
    full distance matrix, whose entries are dx^2 + dy^2 + dz^2 in that order,
    but without building it. The points are hashed into cubic cells, and each
    point's candidates are the points of the 3 x 3 x 3 block of cells around
    its own; ``_first`` picks a row's nearest among them. A row is accepted
    only if its count-th squared distance is strictly below that of any point
    the block leaves out, which lies at least as far as the block's nearest
    face (less a rounding slack). Rejected rows go round again on a grid of
    twice the edge, or, once they fit one chunk against the whole cloud, on a
    grid of one cell; when every point shares one cell, every row is
    accepted. The first edge gives a disc of ``count`` points at the mean
    density of the bounding box's surface, so a surface cloud needs one or
    two rounds. Far outliers stretch the box, so before any row is done the
    edge is halved while the median point's block holds more than 16
    ``count`` points, unless they are all copies of that point, which no
    halving parts; then rejected rows go back to no finer than the first
    edge. Rows run in chunks of at most about ``_CHUNK`` distances: the
    working memory is O(N) for the grid plus O(_CHUNK).
    """
    p = np.asarray(points, dtype=float)
    n = p.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    lo = p.min(axis=0)
    extent = p.max(axis=0) - lo
    area = 2.0 * (extent[0] * extent[1] + extent[1] * extent[2] + extent[2] * extent[0])
    # A cloud along a line (no area) gets count points per two edges. No edge
    # is below the floor, which keeps every cell key below 2**63; a cloud on
    # a single spot takes any edge.
    floor = extent.max() / 2**20 or 1.0
    edge = max(np.sqrt(area * count / (np.pi * n)), extent.max() * count / (2.0 * n), floor)
    first_edge, least = edge, 0.0  # rejected rows go back to no finer than least
    sizing = True
    scale = np.abs(p).max()
    coords = np.append(p, np.full((1, 3), np.inf), axis=0).T.copy()  # index n pads rows
    out = np.empty((n, count), dtype=np.intp)
    pending = np.arange(n)
    while pending.size:
        q = (p - lo) / edge
        cell = np.floor(q).astype(np.int64) + 1  # from 1, so no block wraps round an axis
        cells, key, first, width, members = _blocks(cell)
        # Rows of similar width share a chunk, padded to its widest row. The
        # rows of one cell sit together, as a group, and share its block.
        at = np.searchsorted(cells, key[pending])
        rank = np.argsort(width[at] * cells.size + at)
        pending, at = pending[rank], at[rank]
        span = width[at]
        if sizing and span[n // 2] > 16 * count and edge / 2.0 >= floor:
            # Copies of the median point share its cell at every edge.
            copies = np.count_nonzero((p == p[pending[n // 2]]).all(axis=1))
            if span[n // 2] > copies:
                edge /= 2.0
                continue
            # The halving made its grids for a block of copies, which none
            # thins, so rejected rows skip back to the first edge.
            least = first_edge
        sizing = False
        new = np.diff(at, prepend=-1) != 0
        group = np.cumsum(new) - 1
        owner = at[new]
        frac = q[pending] - (cell[pending] - 1)  # position in the own cell, in [0, 1)
        # The slack covers the rounding of q and d2, some 1e-15 (|p| + edge),
        # many times over.
        reach = edge * np.minimum(frac + 1.0, 2.0 - frac).min(axis=1) - 1e-12 * (scale + 4.0 * edge)
        bound = np.where(reach > 0.0, reach * reach, -1.0)
        whole = cells.size == 1
        failed = []
        a = 0
        while a < pending.size:
            cap = max(int(1.5 * span[a]), count)
            b = a + max(1, min(np.searchsorted(span[a:], cap, side="right"), _CHUNK // cap))
            rows = pending[a:b]
            own = owner[group[a] : group[b - 1] + 1]
            local = group[a:b] - group[a]
            col = np.arange(max(int(span[b - 1]), count))
            block = members[np.where(col < width[own, None], first[own, None] + col, -1)]
            cand = block[local]
            # dx^2 + dy^2 + dz^2, in this order, with few temporaries.
            d2 = np.zeros(cand.shape)
            for axis in coords:
                step = axis[block][local]
                step -= axis[rows, None]
                step *= step
                d2 += step
            best, kth = _first(d2, cand, count)
            ok = whole | (kth < bound[a:b])
            out[rows[ok]] = best[ok]
            failed.append(rows[~ok])
            a = b
        pending = np.concatenate(failed)
        # Rows that fit one chunk against the whole cloud finish next round.
        edge = 2.0 * extent.max() if pending.size * n <= _CHUNK else max(2.0 * edge, least)
    return out


def _first(d2: np.ndarray, cand: np.ndarray, count: int):
    """Each row's first ``count`` candidates by (d2, index), and its count-th d2.

    A float partition finds the count-th d2 of each row, its cut. When every
    row of the chunk has exactly ``count`` entries at or under its cut, each
    row keeps those, and sorting them by d2 orders them unless two tie. Rows
    with such a tie, and every row of a chunk where a tie straddles a cut,
    are ordered by (d2, index) pairs instead.
    """
    m = d2.shape[0]
    kth = np.partition(d2, count - 1, axis=1)[:, count - 1]
    near = d2 <= kth[:, None]
    # No row has fewer than count entries at or under its cut, so with no
    # more than m * count in all, none straddles a tie.
    if np.count_nonzero(near) == m * count:
        at = np.flatnonzero(near)
        order = np.argsort(d2.ravel()[at].reshape(m, count), axis=1)
        at = at[order + np.arange(0, at.size, count)[:, None]]
        best = cand.ravel()[at]
        dist = d2.ravel()[at]
        slow = (dist[:, 1:] == dist[:, :-1]).any(axis=1)
    else:
        best = np.empty((m, count), dtype=np.intp)
        slow = np.ones(m, dtype=bool)
    if slow.any():
        # (d2, index) pairs as complex numbers, which order by real part first.
        pair = np.empty((np.count_nonzero(slow), d2.shape[1]), dtype=complex)
        pair.real = d2[slow]
        pair.imag = cand[slow]
        pick = np.argpartition(pair, count - 1, axis=1)[:, :count]
        best[slow] = np.sort(np.take_along_axis(pair, pick, axis=1), axis=1).imag.astype(np.intp)
    return best, kth


def _blocks(cell: np.ndarray):
    """Hash (N, 3) cell indices, each at least 1, into one key per point.

    Returns the sorted keys of the occupied cells, the key of each point and,
    for each occupied cell, where in ``members`` the indices of the points of
    its 3 x 3 x 3 block start and how many there are. ``members`` ends with
    N, the padding slot.
    """
    dims = cell.max(axis=0) + 2
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    steps = (_BLOCK[:, 0] * dims[1] + _BLOCK[:, 1]) * dims[2] + _BLOCK[:, 2]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    start = np.flatnonzero(np.diff(sorted_key, prepend=sorted_key[0] - 1))
    cells = sorted_key[start]
    count = np.diff(start, append=key.size)
    near = cells[:, None] + steps
    at = np.minimum(np.searchsorted(cells, near), cells.size - 1)
    found = np.where(cells[at] == near, count[at], 0).ravel()
    # Block after block, each the concatenated runs of `order` of its cells.
    ends = np.cumsum(found)
    members = order[np.arange(ends[-1]) + np.repeat(start[at].ravel() - ends + found, found)]
    width = found.reshape(-1, steps.size).sum(axis=1)
    first = ends[steps.size - 1 :: steps.size] - width
    return cells, key, first, width, np.append(members, key.size)
