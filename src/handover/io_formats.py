"""Geometry interchange: PLY point clouds in and OBJ scene exports out."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .cloud import ObjectCloud
from .errors import MalformedHeader, SchemaError, UnsupportedEncoding
from .geometry import frozen_array
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

@dataclass(frozen=True, eq=False)
class SceneEntry:
    label: str
    vertices: np.ndarray  # (N, 3)
    faces: np.ndarray | None = None  # (F, 3) 0-based
    normals: np.ndarray | None = None  # (N, 3)
    color: tuple[float, float, float] = (0.7, 0.7, 0.7)


@dataclass(frozen=True, eq=False)
class SceneExport:
    entries: tuple[SceneEntry, ...]

    def __post_init__(self):
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("scene entry labels must be unique")
        for entry in self.entries:
            if not np.all(np.isfinite(entry.vertices)):
                raise ValueError(f"entry {entry.label!r} has non-finite vertices")


def tessellate_sphere(center, radius: float):
    """UV-sphere mesh (vertices, faces) around center: 6 latitude bands of 8
    longitude steps, 42 vertices and 80 triangles."""
    n_lat, n_lon = 6, 8
    center = np.asarray(center, dtype=float)
    verts = [center + (0.0, 0.0, radius)]
    for i in range(1, n_lat):
        theta = np.pi * i / n_lat
        for j in range(n_lon):
            phi = 2.0 * np.pi * j / n_lon
            verts.append(
                center
                + radius
                * np.array(
                    (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
                )
            )
    verts.append(center + (0.0, 0.0, -radius))
    top, bottom = 0, len(verts) - 1
    ring = lambda i: 1 + (i - 1) * n_lon  # noqa: E731 - tiny index helper

    faces = []
    for j in range(n_lon):
        faces.append((top, ring(1) + j, ring(1) + (j + 1) % n_lon))
    for i in range(1, n_lat - 1):
        for j in range(n_lon):
            a = ring(i) + j
            b = ring(i) + (j + 1) % n_lon
            c = ring(i + 1) + j
            d = ring(i + 1) + (j + 1) % n_lon
            faces.append((a, c, d))
            faces.append((a, d, b))
    for j in range(n_lon):
        faces.append((bottom, ring(n_lat - 1) + (j + 1) % n_lon, ring(n_lat - 1) + j))
    return np.array(verts), np.array(faces, dtype=int)


def scene_from_configuration(config, hand_faces: np.ndarray | None = None) -> SceneExport:
    """Three-group scene: object cloud, hand mesh, gripper proxy spheres."""
    sphere_centers = config.grasp.transform.apply(GRIPPER.sphere_centers)
    g_verts, g_faces = [], []
    offset = 0
    for center, radius in zip(sphere_centers, GRIPPER.sphere_radii):
        verts, faces = tessellate_sphere(center, float(radius))
        g_verts.append(verts)
        g_faces.append(faces + offset)
        offset += verts.shape[0]
    entries = (
        SceneEntry(
            label="object",
            vertices=config.cloud.points,
            normals=config.cloud.normals,
            color=(0.65, 0.65, 0.72),
        ),
        SceneEntry(
            label="hand",
            vertices=config.hand.vertices,
            faces=hand_faces,
            color=(0.9, 0.75, 0.6),
        ),
        SceneEntry(
            label="gripper",
            vertices=np.vstack(g_verts),
            faces=np.vstack(g_faces),
            color=(0.3, 0.5, 0.9),
        ),
    )
    return SceneExport(entries=entries)


def write_obj(scene: SceneExport, path) -> None:
    """Single OBJ file, one group per entry, deterministic vertex order."""
    fmt = lambda v: format(float(v), ".9g")  # noqa: E731 - local formatter
    lines = ["# handover scene export"]
    for entry in scene.entries:
        r, g, b = entry.color
        lines.append(f"# color {entry.label} {fmt(r)} {fmt(g)} {fmt(b)}")
    v_base = 1
    vn_base = 1
    for entry in scene.entries:
        lines.append(f"g {entry.label}")
        lines.append(f"usemtl {entry.label}")
        for vertex in entry.vertices:
            lines.append(f"v {fmt(vertex[0])} {fmt(vertex[1])} {fmt(vertex[2])}")
        has_normals = entry.normals is not None
        if has_normals:
            for normal in entry.normals:
                lines.append(f"vn {fmt(normal[0])} {fmt(normal[1])} {fmt(normal[2])}")
        if entry.faces is not None:
            for face in entry.faces:
                if has_normals:
                    lines.append(
                        "f "
                        + " ".join(f"{v_base + int(i)}//{vn_base + int(i)}" for i in face)
                    )
                else:
                    lines.append("f " + " ".join(str(v_base + int(i)) for i in face))
        else:
            for i in range(entry.vertices.shape[0]):
                lines.append(f"p {v_base + i}")
        v_base += entry.vertices.shape[0]
        if has_normals:
            vn_base += entry.normals.shape[0]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def export_scene(config, path, hand_faces: np.ndarray | None = None) -> None:
    write_obj(scene_from_configuration(config, hand_faces), path)
