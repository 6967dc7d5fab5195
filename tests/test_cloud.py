import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import handover
from handover import cloud, synthetic
from handover.cloud import ObjectCloud, estimate_normals, nearest_neighbors


def _reference_neighbors(points, count, argpartition=False):
    """Brute force: the first ``count`` columns of a stable argsort of each
    row of the distance matrix, so by squared distance, ties by index. With
    ``argpartition``, the search estimate_normals ran before its grid search."""
    p = np.asarray(points, dtype=float)
    rows = []
    for start in range(0, len(p), 512):
        block = p[start : start + 512]
        d2 = ((block[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
        if argpartition:
            rows.append(np.argpartition(d2, kth=count - 1, axis=1)[:, :count])
        else:
            rows.append(np.argsort(d2, axis=1, kind="stable")[:, :count])
    return np.concatenate(rows)


def _argpartition_neighbors(points, count):
    return _reference_neighbors(points, count, argpartition=True)


def _reference_normals(points, search=_reference_neighbors):
    """estimate_normals as a per-point loop, on each point and its 12 nearest
    points. Returns the normals and, per point, whether its root search
    stopped before cloud.ROOT_STEPS."""
    p = np.asarray(points, dtype=float)
    idx = search(p, min(12, len(p) - 1) + 1)
    centroid = p.mean(axis=0)
    normals = np.empty_like(p)
    stopped = np.empty(len(p), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for base, row in enumerate(idx):
            normals[base], stopped[base] = _reference_normal(p[row], p[base] - centroid)
    return normals, stopped


def _pick(key):
    """The index of the largest of three, the first of equals."""
    return 2 if key[2] > np.maximum(key[0], key[1]) else int(key[1] > key[0])


def _reference_normal(nbrs, outward):
    """The closed form of estimate_normals on one neighbourhood, in float64
    scalars (IEEE division by zero) and in its order of operations: every
    sum left to right, in neighbour order or in x, y, z order."""
    rows = [[np.float64(v) for v in q] for q in nbrs]
    mean = []
    for axis in range(3):
        total = rows[0][axis]
        for q in rows[1:]:
            total = total + q[axis]
        mean.append(total / len(rows))
    x = [[q[axis] - mean[axis] for axis in range(3)] for q in rows]
    sums = []
    for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
        total = x[0][i] * x[0][j]
        for q in x[1:]:
            total = total + q[i] * q[j]
        sums.append(total)
    # Scaled by a power of two to a trace in [0.5, 1), which is exact.
    exponent = np.frexp(sums[0] + sums[1] + sums[2])[1]
    a, b, c, d, e, f = (np.ldexp(total, -exponent) for total in sums)
    # The least eigenvalue lam of C = [[a, d, e], [d, b, f], [e, f, c]].
    ff, ee, dd, ef, df = f * f, e * e, d * d, e * f, d * f
    top = 3.0 * ((b * c - ff) + (a * c - ee) + (a * b - dd)) / (a + b + c)
    lam, last = np.float64(0.0), np.float64(np.inf)
    for _ in range(cloud.ROOT_STEPS):
        a_, b_, c_ = a - lam, b - lam, c - lam
        minor = b_ * c_ - ff
        det = a_ * minor + d * (ef - d * c_) + e * (df - b_ * e)
        step = np.minimum(det / (minor + (a_ * c_ - ee) + (a_ * b_ - dd)), top - lam)
        if not (lam + step > lam and step < last):
            stopped = True
            break
        lam, last = lam + step, step
    else:
        stopped = False
    # The longest column of adj(C - lam I), less its part along the row of
    # C - lam I of largest diagonal, or that row's next axis for a zero column.
    a, b, c = a - lam, b - lam, c - lam
    c01, c02, c12 = ef - d * c, df - b * e, d * e - a * f
    adj = [[b * c - ff, c01, c02], [c01, a * c - ee, c12], [c02, c12, a * b - dd]]
    vector = adj[_pick([adj[0][j] * adj[0][j] + adj[1][j] * adj[1][j] + adj[2][j] * adj[2][j]
                        for j in range(3)])]
    which = _pick([a, b, c])
    r = [[a, d, e], [d, b, f], [e, f, c]][which]
    if not any(v != 0 for v in vector):
        vector = [np.float64(axis == (which + 1) % 3) for axis in range(3)]
    along = vector[0] * r[0] + vector[1] * r[1] + vector[2] * r[2]
    scale = along / (r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
    normal = [vector[axis] - scale * r[axis] for axis in range(3)]
    if normal[0] * outward[0] + normal[1] * outward[1] + normal[2] * outward[2] < 0:
        normal = [-v for v in normal]
    length = np.sqrt(normal[0] * normal[0] + normal[1] * normal[1] + normal[2] * normal[2])
    return ([v / length for v in normal] if length > 0 else [1.0, 0.0, 0.0]), stopped


def _grid_cloud(n_points):
    """First n nodes of a 1 cm cubic grid: many neighbours tie on distance."""
    side = int(np.ceil(n_points ** (1 / 3)))
    axes = np.meshgrid(*[np.arange(side)] * 3, indexing="ij")
    return 0.01 * np.stack(axes, axis=-1).reshape(-1, 3)[:n_points].astype(float)


def _fibonacci_sphere(n_points, radius=0.05):
    i = np.arange(n_points) + 0.5
    z = 1.0 - 2.0 * i / n_points
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    return radius * np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _assert_radial(points, normals):
    radial = points / np.linalg.norm(points, axis=1, keepdims=True)
    cos = np.clip(np.sum(normals * radial, axis=1), -1.0, 1.0)
    angle = np.degrees(np.arccos(cos))
    # The lattice is irregular near its poles, where lopsided 13-point
    # neighbourhoods tilt the fitted plane most (3.3 degrees at 600 points).
    assert angle.max() <= 4.0
    assert np.median(angle) <= 1.5
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)


def _grid_rounds(monkeypatch):
    """The number of occupied cells of each grid the search builds, in order."""
    rounds = []
    blocks = cloud._blocks

    def counted(*args):
        out = blocks(*args)
        rounds.append(out[0].size)
        return out

    monkeypatch.setattr(cloud, "_blocks", counted)
    return rounds


_SIZES = [3, 13, 256, 257, 511, 512, 513, 1100, 2000]


@pytest.mark.parametrize("n_points", _SIZES)
def test_bitwise_equal_to_per_point_loop(n_points):
    rng = np.random.default_rng(n_points)
    jittered = rng.normal(scale=0.05, size=(n_points, 3))
    for points in (jittered, _grid_cloud(n_points)):
        assert np.array_equal(estimate_normals(points), _reference_normals(points)[0])


def _special_clouds():
    rng = np.random.default_rng(7)
    flat = rng.normal(scale=0.03, size=(300, 3))
    flat[:, 2] = 0.25
    line = np.outer(rng.random(200), (0.02, -0.05, 0.01)) + (1.0, 2.0, 3.0)
    blob = rng.normal(scale=0.01, size=(299, 3))
    return {
        "exact-grid": _grid_cloud(729),
        "duplicates": np.repeat(rng.normal(scale=0.02, size=(40, 3)), 5, axis=0),
        "coplanar": flat,
        "collinear": line,
        "far-outlier": np.vstack([blob, [(50.0, 0.0, 0.0)]]),
        "one-spot": np.full((30, 3), 0.125),
    }


@pytest.mark.parametrize("name", list(_special_clouds()))
def test_special_clouds_match_brute_force(name):
    points = _special_clouds()[name]
    for count in (1, 2, 13, len(points)):
        assert np.array_equal(nearest_neighbors(points, count), _reference_neighbors(points, count))
    assert np.array_equal(estimate_normals(points), _reference_normals(points)[0])


def _oracle_clouds():
    """The clouds of the per-point loop tests: jittered and grid clouds of each
    size, and the special clouds."""
    clouds = _special_clouds()
    for n_points in _SIZES:
        rng = np.random.default_rng(n_points)
        clouds[f"jittered-{n_points}"] = rng.normal(scale=0.05, size=(n_points, 3))
        clouds[f"grid-{n_points}"] = _grid_cloud(n_points)
    return clouds


@pytest.mark.parametrize("name", list(_oracle_clouds()))
def test_normals_agree_with_lapack(name):
    """Against numpy's LAPACK eigh of each neighbourhood's scatter matrix C:
    |C n - lam n| is within 2e-15 |C| for the least eigenvalue lam, and where
    lam is at least 1e-2 |C| below the next one, n is within 1e-13 rad of
    eigh's eigenvector, up to sign."""
    points = _oracle_clouds()[name]
    normals = estimate_normals(points)
    nbrs = points[_reference_neighbors(points, min(12, len(points) - 1) + 1)]
    x = nbrs - nbrs.mean(axis=1, keepdims=True)
    scatter = np.einsum("nki,nkj->nij", x, x)
    lams, vectors = np.linalg.eigh(scatter)
    size = np.abs(lams).max(axis=1)
    residual = np.linalg.norm(np.einsum("nij,nj->ni", scatter, normals) - lams[:, :1] * normals,
                              axis=1)
    assert np.all(residual <= 2e-15 * size)
    apart = lams[:, 1] - lams[:, 0] >= 1e-2 * size
    least = vectors[apart, :, 0]
    sine = np.linalg.norm(np.cross(normals[apart], least), axis=1)
    angle = np.arctan2(sine, np.abs(np.sum(normals[apart] * least, axis=1)))
    assert angle.max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("power", [-400, -60, 60, 400])
def test_normals_do_not_depend_on_the_unit(power):
    """A cloud scaled by a power of two gets the same normal bits: every sum
    scales exactly, also at sizes where the scatter matrix's fourth powers
    would overflow or underflow unless it is scaled first."""
    for points in (np.random.default_rng(5).normal(scale=0.05, size=(400, 3)), _grid_cloud(300)):
        assert np.array_equal(estimate_normals(np.ldexp(points, power)), estimate_normals(points))


@pytest.mark.parametrize("name", ["one-spot", "collinear", "duplicates", "exact-grid"])
def test_degenerate_neighbourhoods(name):
    """Neighbourhoods whose least eigenvalue repeats (a spot, a line, a few
    distinct points, symmetric grid blocks) still get finite unit normals,
    whose root search stops on its own before cloud.ROOT_STEPS, and a cloud
    takes them; test_normals_agree_with_lapack holds their residuals."""
    points = _special_clouds()[name]
    normals = estimate_normals(points)
    assert np.isfinite(normals).all()
    assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() <= 1e-12
    assert _reference_normals(points)[1].all()
    assert np.array_equal(ObjectCloud(name, points).with_normals().normals, normals)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n_points=st.integers(2, 600),
    side=st.integers(1, 9),
    copies=st.sampled_from([0.0, 0.1, 0.5]),
    outliers=st.integers(0, 3),
    count=st.sampled_from([1, 2, 13, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tied_clouds_match_brute_force(n_points, side, copies, outliers, count, seed):
    """Points on a coarse integer lattice, where many distances tie, with
    some rows repeated and a few far outliers; ``count`` None asks for every
    point."""
    rng = np.random.default_rng(seed)
    outliers = min(outliers, n_points - 1)
    repeated = int(copies * (n_points - outliers))
    lattice = rng.integers(0, side, size=(n_points - outliers - repeated, 3))
    far = rng.integers(10_000, 100_000, size=(outliers, 3))
    far *= rng.choice((-1, 1), size=far.shape)
    points = np.vstack([lattice, lattice[rng.integers(0, len(lattice), size=repeated)], far])
    points = points[rng.permutation(n_points)].astype(float)
    count = n_points if count is None else min(count, n_points)
    assert np.array_equal(nearest_neighbors(points, count), _reference_neighbors(points, count))


@pytest.mark.parametrize("far", [1, 5, 80])
def test_far_points_take_extra_rounds(monkeypatch, far):
    """A blob of 300 points 5 cm across, and ``far`` points scattered 50 m off."""
    rng = np.random.default_rng(far)
    points = np.vstack([
        rng.normal(scale=0.01, size=(300, 3)),
        rng.uniform(49.0, 51.0, size=(far, 3)),
    ])
    rounds = _grid_rounds(monkeypatch)
    assert np.array_equal(nearest_neighbors(points, 13), _reference_neighbors(points, 13))
    # The far points stretch the box, so the first edge puts the blob in one
    # cell: finer grids follow before any row is done. The far points' own
    # rows then need coarser grids again.
    assert max(rounds) > 8 * rounds[0]
    assert rounds[-1] < max(rounds)


def test_far_points_leave_the_blob_on_fine_grids(monkeypatch):
    """A blob of 5000 points and 3 points 50 m off. The first edge puts the
    blob in one cell, so its rejected rows must climb from the fine grids the
    halving made, not go back to that cell and meet every blob point."""
    rng = np.random.default_rng(1)
    points = np.vstack([rng.normal(scale=0.01, size=(5000, 3)), rng.uniform(49.0, 51.0, size=(3, 3))])
    sizes = []
    first = cloud._first

    def counted(d2, cand, count):
        sizes.append(d2.size)
        return first(d2, cand, count)

    monkeypatch.setattr(cloud, "_first", counted)
    assert np.array_equal(nearest_neighbors(points, 13), _reference_neighbors(points, 13))
    # About 260 candidates a row; going back to the blob's one cell made some 1560.
    assert sum(sizes) <= 32 * 13 * len(points), sum(sizes)


def test_copies_of_one_point_do_not_drive_the_grid_to_its_floor(monkeypatch):
    """A jittered 1000-point scan plus 1500 copies of one of its points: the
    median point is a copy, whose block no halving can thin. The sizing stops
    once that block holds only copies, and the scan's rejected rows go back
    to the first edge, not through every grid in between."""
    rng = np.random.default_rng(3)
    angle = rng.uniform(0.0, 2.0 * np.pi, 1000)
    scan = np.column_stack([0.025 * np.cos(angle), 0.025 * np.sin(angle),
                            rng.uniform(-0.045, 0.045, 1000)])
    scan += rng.normal(scale=0.0005, size=scan.shape)
    points = np.vstack([scan, np.repeat(scan[:1], 1500, axis=0)])
    rounds = _grid_rounds(monkeypatch)
    assert np.array_equal(nearest_neighbors(points, 13), _reference_neighbors(points, 13))
    assert len(rounds) <= 6, rounds


def test_count_must_fit_the_cloud():
    for count in (0, 31):
        with pytest.raises(ValueError, match="count must be in"):
            nearest_neighbors(np.zeros((30, 3)), count)


@pytest.mark.parametrize("n_points", [13, 511, 512, 513, 1100])
def test_argpartition_search_on_tie_free_clouds(n_points):
    """The search this replaced finds the same neighbours. Where it also
    returned them by ascending distance, the normal has the same bytes: numpy
    2 with AVX2 or AVX-512 selection does so for every row here, numpy
    without SIMD selection for almost none."""
    points = np.random.default_rng(n_points).normal(scale=0.05, size=(n_points, 3))
    old = _argpartition_neighbors(points, 13)
    new = nearest_neighbors(points, 13)
    assert np.array_equal(np.sort(old, axis=1), np.sort(new, axis=1))
    same_order = (old == new).all(axis=1)
    old_normals = _reference_normals(points, search=_argpartition_neighbors)[0]
    assert np.array_equal(estimate_normals(points)[same_order], old_normals[same_order])


# SHA-256 of the (3001, 13) little-endian int64 neighbour indices of
# _integer_cloud(); the cloud's integer coordinates tie often.
_INTEGER_CLOUD_DIGEST = "2ee5e3a3e986ded146651e21c077a1443ca8adad3aa63cde1a856acfce37f5ea"


def _integer_cloud():
    """3000 points on a paraboloid-like sheet, plus one far point, made with
    integer arithmetic only, so the cloud is the same bytes everywhere."""
    i = np.arange(3000, dtype=np.int64)
    x = (i * 37) % 101
    y = (i * 53) % 89
    z = (x * x + 3 * y * y) // 97
    points = np.column_stack([x, y, z])
    return np.vstack([points, [(100_000, 7, -3)]]).astype(float)


def test_neighbour_order_is_the_same_on_every_numpy():
    points = _integer_cloud()
    idx = nearest_neighbors(points, 13)
    assert np.array_equal(idx, _reference_neighbors(points, 13))
    digest = hashlib.sha256(idx.astype("<i8").tobytes()).hexdigest()
    assert digest == _INTEGER_CLOUD_DIGEST


# SHA-256 of estimate_normals' (N, 3) little-endian float64 normals.
_NORMALS_DIGESTS = {
    "integer": "db0877b0bd52a00edffaa9d3ef56fe3277412f663792205dcb925dd9a9ce9701",
    "scan": "75bd419f7ee52ddeb95ffaeb32187123b6874851b4d5e7f62aa8e920cfcf11ca",
}


def _normals_digests():
    """Digests of the normals of _integer_cloud() and of the jittered scan
    scripts/snapshot_outputs.py writes, in the float32 of its scan.ply."""
    dense = synthetic.cylinder_cloud(rings=24, per_ring=40)
    jitter = np.random.default_rng(0).normal(scale=5e-4, size=dense.points.shape)
    clouds = {"integer": _integer_cloud(), "scan": (dense.points + jitter).astype(np.float32)}
    return {
        name: hashlib.sha256(estimate_normals(points).astype("<f8").tobytes()).hexdigest()
        for name, points in clouds.items()
    }


def test_normals_are_the_same_bits_everywhere():
    """No BLAS or LAPACK call and no SIMD-dispatched sum order touches the
    normals: CI runs this file with numpy's SIMD dispatch off as well."""
    assert _normals_digests() == _NORMALS_DIGESTS


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)
@pytest.mark.parametrize("kernel", ["Prescott", "Nehalem"])
def test_normals_are_the_same_bits_on_other_blas_kernels(kernel):
    paths = [str(Path(handover.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))}
    script = "import json, test_cloud; print(json.dumps(test_cloud._normals_digests()))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == _NORMALS_DIGESTS


def test_sphere_normals_are_radial():
    points = _fibonacci_sphere(600)
    _assert_radial(points, estimate_normals(points))


def test_large_cloud_memory_stays_bounded():
    rng = np.random.default_rng(20_000)
    points = _fibonacci_sphere(20_000) + rng.normal(scale=2e-5, size=(20_000, 3))
    tracemalloc.start()
    try:
        normals = estimate_normals(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A brute-force search's 512 x 20k block of distances alone is 78 MiB.
    assert peak < 64 * 2**20
    _assert_radial(points, normals)


def test_points_must_be_finite_rows_of_three():
    with pytest.raises(ValueError, match="points must hold finite numbers"):
        estimate_normals([(0.0, 0.0, 0.0), (1.0, np.nan, 0.0), (0.0, 1.0, 0.0)])
    with pytest.raises(ValueError, match="points must have shape"):
        estimate_normals(np.zeros((5, 2)))
    with pytest.raises(ValueError, match="points must hold at least one row"):
        estimate_normals(np.zeros((0, 3)))


def test_fewer_than_three_points_fall_back_to_radial():
    assert np.array_equal(estimate_normals(np.zeros((1, 3))), [[1.0, 0.0, 0.0]])
    pair = estimate_normals(np.array([(0.0, 0.0, 0.0), (0.0, 0.2, 0.0)]))
    assert np.allclose(pair, [(0.0, -1.0, 0.0), (0.0, 1.0, 0.0)], atol=1e-12)
    same = estimate_normals(np.array([(0.1, 0.2, 0.3), (0.1, 0.2, 0.3)]))
    assert np.array_equal(same, [(1.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
