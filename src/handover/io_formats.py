"""Geometry interchange: PLY point clouds in and OBJ scene exports out."""

from __future__ import annotations

import os

import numpy as np

from .cloud import ObjectCloud
from .errors import MalformedHeader, SchemaError, UnsupportedEncoding
from .geometry import frozen_array, quad_strip_faces
from .grasp import GRIPPER

_FLOAT_NAMES = {"float", "float32"}


# --- PLY ----------------------------------------------------------------------

def load_ply(path) -> ObjectCloud:
    """Read an ascii or binary_little_endian PLY with float32 x/y/z (+nx/ny/nz)."""
    with open(path, "rb") as fh:
        data = fh.read()

    end = data.find(b"end_header\n")
    if not data.startswith(b"ply") or end < 0:
        raise MalformedHeader("not a PLY file (missing ply magic or end_header)")
    header = data[:end].decode("ascii", "replace").splitlines()
    body = data[end + len(b"end_header\n") :]

    encoding = None
    vertex_count = None
    properties: list[str] = []
    in_vertex_element = False
    for line in header[1:]:
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            if len(parts) < 2:
                raise MalformedHeader(f"bad format line: {line!r}")
            encoding = parts[1]
        elif parts[0] == "element":
            if len(parts) != 3:
                raise MalformedHeader(f"bad element line: {line!r}")
            if parts[1] == "vertex":
                in_vertex_element = True
                try:
                    vertex_count = int(parts[2])
                except ValueError as exc:
                    raise MalformedHeader(f"bad vertex count: {parts[2]!r}") from exc
            else:
                raise UnsupportedEncoding(f"unsupported element {parts[1]!r}")
        elif parts[0] == "property":
            if not in_vertex_element:
                raise MalformedHeader("property before any element")
            if len(parts) != 3:
                raise UnsupportedEncoding(f"unsupported property: {line!r}")
            if parts[1] not in _FLOAT_NAMES:
                raise UnsupportedEncoding(f"unsupported property type {parts[1]!r}")
            properties.append(parts[2])

    if encoding is None or vertex_count is None:
        raise MalformedHeader("header is missing format or vertex element")
    if encoding not in ("ascii", "binary_little_endian"):
        raise UnsupportedEncoding(f"unsupported PLY encoding {encoding!r}")
    if any(axis not in properties for axis in "xyz"):
        raise MalformedHeader(f"vertex element must carry x/y/z, got {properties}")

    n_props = len(properties)
    if encoding == "ascii":
        try:
            values = np.array(body.decode("ascii", "replace").split(), dtype=np.float32)
        except ValueError as exc:
            raise MalformedHeader(f"non-numeric ascii body: {exc}") from exc
        if values.size != vertex_count * n_props:
            raise MalformedHeader(
                f"expected {vertex_count * n_props} ascii values, got {values.size}"
            )
        table = values.reshape(vertex_count, n_props)
    else:
        expected = vertex_count * n_props * 4
        if len(body) < expected:
            raise MalformedHeader(f"expected {expected} body bytes, got {len(body)}")
        table = np.frombuffer(body[:expected], dtype="<f4").reshape(vertex_count, n_props)

    # Checked before the normals are normalised, which would turn inf into NaN.
    table = frozen_array(table, (vertex_count, n_props), SchemaError, "vertex values")
    cols = {name: table[:, i] for i, name in enumerate(properties)}
    points = np.column_stack([cols["x"], cols["y"], cols["z"]])
    normals = None
    if all(axis in cols for axis in ("nx", "ny", "nz")):
        normals = np.column_stack([cols["nx"], cols["ny"], cols["nz"]])
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
        normals = normals / np.maximum(lengths, 1e-12)
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return ObjectCloud(name=name, points=points, normals=normals)


def save_ply(cloud: ObjectCloud, path, binary: bool = True) -> None:
    """Write the cloud as float32 PLY; round trips are exact at float32."""
    has_normals = cloud.normals is not None
    props = ["x", "y", "z"] + (["nx", "ny", "nz"] if has_normals else [])
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0"]
    header.append(f"element vertex {cloud.points.shape[0]}")
    header.extend(f"property float {p}" for p in props)
    header.append("end_header")

    table = cloud.points.astype("<f4")
    if has_normals:
        table = np.hstack([table, cloud.normals.astype("<f4")])

    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            fh.write(np.ascontiguousarray(table, dtype="<f4").tobytes())
        else:
            lines = [" ".join(format(float(v), ".9g") for v in row) for row in table]
            fh.write(("\n".join(lines) + "\n").encode("ascii"))


# --- scene export ----------------------------------------------------------------

def tessellate_sphere(center, radius: float):
    """UV-sphere mesh (vertices, faces) around center: 6 latitude bands of 8
    longitude steps, 42 vertices and 80 triangles."""
    n_lat, n_lon = 6, 8
    center = np.asarray(center, dtype=float)
    theta = (np.pi * np.arange(1, n_lat) / n_lat)[:, None]
    phi = 2.0 * np.pi * np.arange(n_lon) / n_lon
    sin_theta = np.sin(theta)
    unit = (sin_theta * np.cos(phi), sin_theta * np.sin(phi), np.cos(theta).repeat(n_lon, 1))
    poles = center + np.array([(0.0, 0.0, radius), (0.0, 0.0, -radius)])
    verts = np.vstack([poles[:1], (center + radius * np.stack(unit, -1)).reshape(-1, 3), poles[1:]])
    # Fans at the poles (vertex 0 and the last), quads between the rings.
    j = np.arange(n_lon)
    first, last = 1, 1 + (n_lat - 2) * n_lon
    top = np.column_stack([np.zeros_like(j), first + j, first + (j + 1) % n_lon])
    bottom = np.column_stack([np.full_like(j, len(verts) - 1), last + (j + 1) % n_lon, last + j])
    middle = quad_strip_faces(first + n_lon * np.arange(n_lat - 2), n_lon)
    return verts, np.concatenate([top, middle, bottom])


def export_scene(config, path) -> None:
    """One OBJ file of three groups in a fixed order: the object's points with
    their normals, the hand meshed with its model's faces (its points when the
    model has none) and the gripper's proxy spheres. Numbers are written as
    ``.9g`` text."""
    fmt = lambda v: format(float(v), ".9g")  # noqa: E731 - local formatter
    g_verts, g_faces = [], []
    offset = 0
    for center, radius in zip(config.grasp.transform.apply(GRIPPER.sphere_centers),
                              GRIPPER.sphere_radii):
        verts, faces = tessellate_sphere(center, float(radius))
        g_verts.append(verts)
        g_faces.append(faces + offset)
        offset += verts.shape[0]
    lines = [
        "# handover scene export",
        "# color object 0.65 0.65 0.72",
        "# color hand 0.9 0.75 0.6",
        "# color gripper 0.3 0.5 0.9",
    ]
    base = 1
    for label, vertices, normals, faces in (
        ("object", config.cloud.points, config.cloud.normals, None),
        ("hand", config.hand.vertices, None, config.hand_model.faces),
        ("gripper", np.vstack(g_verts), None, np.vstack(g_faces)),
    ):
        lines += [f"g {label}", f"usemtl {label}"]
        lines += [f"v {fmt(x)} {fmt(y)} {fmt(z)}" for x, y, z in vertices]
        if normals is not None:
            lines += [f"vn {fmt(x)} {fmt(y)} {fmt(z)}" for x, y, z in normals]
        if faces is None:
            lines += [f"p {base + i}" for i in range(vertices.shape[0])]
        else:
            lines += ["f " + " ".join(str(base + int(i)) for i in face) for face in faces]
        base += vertices.shape[0]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
