import numpy as np
import pytest

from handover.cloud import estimate_normals


def _reference_normals(points, neighbors=12):
    """The per-point np.cov / eigh loop estimate_normals was written as."""
    p = np.asarray(points, dtype=float)
    n_points = p.shape[0]
    k = min(neighbors, n_points - 1)
    centroid = p.mean(axis=0)
    normals = np.empty_like(p)
    chunk = 512
    for start in range(0, n_points, chunk):
        block = p[start : start + chunk]
        d2 = ((block[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
        idx = np.argpartition(d2, kth=k, axis=1)[:, : k + 1]
        for row, base in enumerate(range(start, min(start + chunk, n_points))):
            _, vecs = np.linalg.eigh(np.cov(p[idx[row]].T))
            normal = vecs[:, 0]
            if normal @ (p[base] - centroid) < 0:
                normal = -normal
            normals[base] = normal / np.linalg.norm(normal)
    return normals


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


@pytest.mark.parametrize("n_points", [3, 13, 511, 512, 513, 1100])
def test_bitwise_equal_to_per_point_loop(n_points):
    rng = np.random.default_rng(n_points)
    jittered = rng.normal(scale=0.05, size=(n_points, 3))
    for points in (jittered, _grid_cloud(n_points)):
        assert np.array_equal(estimate_normals(points), _reference_normals(points))


def test_sphere_normals_are_radial():
    points = _fibonacci_sphere(600)
    normals = estimate_normals(points)
    radial = points / np.linalg.norm(points, axis=1, keepdims=True)
    cos = np.clip(np.sum(normals * radial, axis=1), -1.0, 1.0)
    angle = np.degrees(np.arccos(cos))
    # The lattice is irregular near its poles, where lopsided 13-point
    # neighbourhoods tilt the fitted plane most (3.3 degrees at 600 points).
    assert angle.max() <= 4.0
    assert np.median(angle) <= 1.5
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)


def test_fewer_than_three_points_fall_back_to_radial():
    assert np.array_equal(estimate_normals(np.zeros((1, 3))), [[1.0, 0.0, 0.0]])
    pair = estimate_normals(np.array([(0.0, 0.0, 0.0), (0.0, 0.2, 0.0)]))
    assert np.allclose(pair, [(0.0, -1.0, 0.0), (0.0, 1.0, 0.0)], atol=1e-12)
    same = estimate_normals(np.array([(0.1, 0.2, 0.3), (0.1, 0.2, 0.3)]))
    assert np.array_equal(same, [(1.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
