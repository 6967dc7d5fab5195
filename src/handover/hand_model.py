"""Parametric articulated hand: linear blend skinning and keypoint geometry.

The hand is a 778-vertex mesh driven by 16 skinning joints (wrist + 3 per
finger) through constant blend weights. 21 keypoints are regressed from the
vertices in the rest pose and carried through the skeleton when posing:

    0: wrist
    1- 4: thumb  (MCP, PIP, DIP, TIP)
    5- 8: index
    9-12: middle (12 = middle fingertip)
   13-16: ring
   17-20: pinky

Skinning joints follow the same finger order, three per finger (fingertips
are not joints): joint 3f+1..3f+3 for finger f, wrist = joint 0.

Pose parameters are one 6D rotation block per joint (root first) plus a
global translation; the root block rotates the whole hand about the wrist.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import (
    AmbiguousHandedness,
    DegenerateDirection,
    DegenerateNormal,
    HandoverError,
    InvalidPoseBlock,
    ModelMismatch,
    ParallelAxes,
    SchemaError,
    load_json_file,
    reading,
)
from .geometry import HandFrame, build_frame, cross3, frozen_array, rot6d_to_matrices

NUM_VERTICES = 778
NUM_JOINTS = 16
NUM_KEYPOINTS = 21
NUM_SHAPE_DIRS = 10

WRIST = 0
THUMB_BASE = 1
INDEX_BASE = 5
MIDDLE_TIP = 12
PINKY_BASE = 17

# Skinning joint driving each keypoint; fingertips ride on the DIP joint.
KEYPOINT_DRIVER = np.array(
    [0, 1, 2, 3, 3, 4, 5, 6, 6, 7, 8, 9, 9, 10, 11, 12, 12, 13, 14, 15, 15]
)
# Keypoint index of each skinning joint (wrist, then MCP/PIP/DIP per finger).
SKELETON_KEYPOINT = np.array(
    [0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 17, 18, 19]
)
# Parent joint per skinning joint; -1 marks the wrist root.
PARENTS = np.array([-1, 0, 1, 2, 0, 4, 5, 0, 7, 8, 0, 10, 11, 0, 13, 14])

HANDEDNESS = ("left", "right")


def check_handedness(value, error: type[Exception]) -> None:
    """Raise ``error`` unless ``value`` is "left" or "right"."""
    if value not in HANDEDNESS:
        raise error(f"handedness must be left/right, got {value!r}")


@dataclass(frozen=True, eq=False)
class HandModelParams:
    """Immutable hand model: template mesh, weights, regressor, skeleton."""

    template_vertices: np.ndarray  # (778, 3) meters
    skinning_weights: np.ndarray  # (778, 16), rows sum to 1
    joint_regressor: np.ndarray  # (21, 778)
    parents: np.ndarray  # (16,) int, parents[0] == -1
    handedness: str
    shape_dirs: np.ndarray | None = None  # (778, 3, 10)
    faces: np.ndarray | None = None  # (F, 3) int, optional mesh topology

    def __post_init__(self):
        arrays = {
            "template_vertices": ((NUM_VERTICES, 3), float),
            "skinning_weights": ((NUM_VERTICES, NUM_JOINTS), float),
            "joint_regressor": ((NUM_KEYPOINTS, NUM_VERTICES), float),
            "parents": ((NUM_JOINTS,), int),
            "shape_dirs": ((NUM_VERTICES, 3, NUM_SHAPE_DIRS), float),
            "faces": ((None, 3), int),
        }
        for name, (shape, dtype) in arrays.items():
            value = getattr(self, name)
            if value is None and name in ("shape_dirs", "faces"):
                continue
            object.__setattr__(self, name, frozen_array(value, shape, ModelMismatch, name, dtype))
        check_handedness(self.handedness, ModelMismatch)
        self._validate_weights_and_tree()

    def _validate_weights_and_tree(self):
        w = self.skinning_weights
        if np.any(w < -1e-9):
            raise ModelMismatch("skinning weights must be non-negative")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-6:
            raise ModelMismatch("skinning weight rows must sum to 1")
        if self.parents[0] != -1:
            raise ModelMismatch("joint 0 (wrist) must be the root")
        for k in range(1, NUM_JOINTS):
            if not 0 <= self.parents[k] < k:
                raise ModelMismatch("parents must be topologically ordered with a wrist root")

    @property
    def rest_keypoints(self) -> np.ndarray:
        return self.joint_regressor @ self.template_vertices

    def mirrored(self) -> "HandModelParams":
        """Mirror through the xz-plane, flipping handedness."""
        template = self.template_vertices.copy()
        template[:, 1] *= -1.0
        shape_dirs = None
        if self.shape_dirs is not None:
            shape_dirs = self.shape_dirs.copy()
            shape_dirs[:, 1, :] *= -1.0
        faces = None if self.faces is None else self.faces[:, ::-1].copy()
        return HandModelParams(
            template_vertices=template,
            skinning_weights=self.skinning_weights,
            joint_regressor=self.joint_regressor,
            parents=self.parents,
            handedness="left" if self.handedness == "right" else "right",
            shape_dirs=shape_dirs,
            faces=faces,
        )


@dataclass(frozen=True, eq=False)
class HandPose:
    """Hand state: global translation, 16 6D joint rotations, shape, handedness."""

    translation: np.ndarray  # (3,) meters
    pose: np.ndarray  # (16, 6), root block first
    shape: np.ndarray = field(default_factory=lambda: np.zeros(NUM_SHAPE_DIRS))
    handedness: str = "right"

    def __post_init__(self):
        for name, shape in (
            ("translation", (3,)),
            ("pose", (NUM_JOINTS, 6)),
            ("shape", (NUM_SHAPE_DIRS,)),
        ):
            value = frozen_array(getattr(self, name), shape, ModelMismatch, name)
            object.__setattr__(self, name, value)
        check_handedness(self.handedness, ModelMismatch)

    @staticmethod
    def rest(handedness: str = "right") -> "HandPose":
        return HandPose(
            translation=np.zeros(3),
            pose=np.tile(geometry.ROT6D_IDENTITY, (NUM_JOINTS, 1)),
            handedness=handedness,
        )

    def to_dict(self) -> dict:
        return {
            "translation": self.translation.tolist(),
            "pose": self.pose.tolist(),
            "shape": self.shape.tolist(),
            "handedness": self.handedness,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HandPose":
        with reading("hand pose record"):
            return cls(
                translation=data["translation"],
                pose=data["pose"],
                shape=data.get("shape", np.zeros(NUM_SHAPE_DIRS)),
                handedness=data["handedness"],
            )


@dataclass(frozen=True, eq=False)
class PosedHand:
    """Skinned hand in world/object space."""

    vertices: np.ndarray  # (778, 3)
    joints: np.ndarray  # (21, 3), joint 0 = wrist
    handedness: str

    def __post_init__(self):
        for name, shape in (("vertices", (NUM_VERTICES, 3)), ("joints", (NUM_KEYPOINTS, 3))):
            value = frozen_array(getattr(self, name), shape, ModelMismatch, name)
            object.__setattr__(self, name, value)
        check_handedness(self.handedness, ModelMismatch)


# --- linear blend skinning -----------------------------------------------------

def skin_vertices(template, weights, rest_joints, parents, rotations):
    """Generic LBS core on an arbitrary rig.

    Args:
        template: (V, 3) rest vertices.
        weights: (V, K) blend weights.
        rest_joints: (K, 3) rest joint positions.
        parents: (K,) parent indices, -1 for the root, parents before children.
        rotations: (K, 3, 3) local joint rotations.

    Returns:
        (skinned vertices (V, 3), rest-relative world transforms (K, 4, 4)).
        Transform k maps a rest-space point rigidly attached to joint k to
        its posed location.
    """
    template = np.asarray(template, dtype=float)
    weights = np.asarray(weights, dtype=float)
    rest_joints = np.asarray(rest_joints, dtype=float)
    parents = np.asarray(parents, dtype=int)
    rotations = np.asarray(rotations, dtype=float)
    n_joints = rest_joints.shape[0]
    done = parents < 0

    local = np.zeros((n_joints, 4, 4))
    local[:, :3, :3] = rotations
    local[:, :3, 3] = rest_joints - np.where(done[:, None], 0.0, rest_joints[parents])
    local[:, 3, 3] = 1.0
    # One stacked product per tree depth: the joints whose parents are done.
    chain = local.copy()
    while not done.all():
        k = np.flatnonzero(~done & done[parents])
        if k.size == 0:
            raise ValueError("parents must form a forest with roots marked -1")
        chain[k] = chain[parents[k]] @ local[k]
        done[k] = True
    offsets = np.tile(np.eye(4), (n_joints, 1, 1))
    offsets[:, :3, 3] = -rest_joints
    relative = chain @ offsets

    per_vertex = np.tensordot(weights, relative, axes=([1], [0]))  # (V, 4, 4)
    skinned = (
        np.einsum("vij,vj->vi", per_vertex[:, :3, :3], template)
        + per_vertex[:, :3, 3]
    )
    return skinned, relative


def lbs_forward(params: HandModelParams, pose: HandPose) -> PosedHand:
    """Pose the hand model: shape blend, 6D decode, skinning, translation."""
    if pose.handedness != params.handedness:
        raise ModelMismatch(
            f"pose is {pose.handedness!r} but model is {params.handedness!r}"
        )
    rest_vertices = params.template_vertices
    if params.shape_dirs is not None and np.any(pose.shape != 0.0):
        rest_vertices = rest_vertices + params.shape_dirs @ pose.shape
    rest_keypoints = params.joint_regressor @ rest_vertices
    rest_joints = rest_keypoints[SKELETON_KEYPOINT]

    try:
        rotations = rot6d_to_matrices(pose.pose)
    except (DegenerateDirection, ParallelAxes) as exc:
        raise InvalidPoseBlock(f"joint {exc.block}: {exc}") from exc

    vertices, relative = skin_vertices(
        rest_vertices, params.skinning_weights, rest_joints, params.parents, rotations
    )
    keypoints = (
        np.einsum("kij,kj->ki", relative[KEYPOINT_DRIVER][:, :3, :3], rest_keypoints)
        + relative[KEYPOINT_DRIVER][:, :3, 3]
    )
    return PosedHand(
        vertices=vertices + pose.translation,
        joints=keypoints + pose.translation,
        handedness=params.handedness,
    )


# --- keypoint geometry ----------------------------------------------------------

def geometric_center(points) -> np.ndarray:
    """Centroid of a point set (N, 3)."""
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    if p.shape[0] < 1:
        raise ValueError("need at least one point")
    return p.mean(axis=0)


def direction_from_joints(joints) -> np.ndarray:
    """Unit vector from the wrist to the middle fingertip."""
    j = np.asarray(joints, dtype=float)
    span = j[MIDDLE_TIP] - j[WRIST]
    if np.linalg.norm(span) < 1e-6:
        raise DegenerateDirection("wrist and middle fingertip coincide")
    return span / np.linalg.norm(span)


def normal_from_joints(joints, handedness: str) -> np.ndarray:
    """Palm-out unit normal from wrist / index-base / pinky-base keypoints.

    The raw cross product (index - wrist) x (pinky - wrist) exits the palm
    for a right hand; the sign is flipped for a left hand so the returned
    vector is palm-out for both.
    """
    j = np.asarray(joints, dtype=float)
    raw = cross3(j[INDEX_BASE] - j[WRIST], j[PINKY_BASE] - j[WRIST])
    if np.linalg.norm(raw) < 1e-9:
        raise DegenerateNormal("wrist, index base and pinky base are collinear")
    sign = 1.0 if handedness == "right" else -1.0
    return sign * raw / np.linalg.norm(raw)


def classify_handedness(joints) -> str:
    """Classify left/right from the palm-triangle / thumb triple product.

    Sign convention calibrated on the synthetic right-hand fixture: positive
    ((index - wrist) x (pinky - wrist)) . (thumb - wrist) means right.
    """
    j = np.asarray(joints, dtype=float)
    triple = float(
        cross3(j[INDEX_BASE] - j[WRIST], j[PINKY_BASE] - j[WRIST])
        @ (j[THUMB_BASE] - j[WRIST])
    )
    if abs(triple) < 1e-9:
        raise AmbiguousHandedness(f"triple product {triple:.3e} m^3 is too small")
    return "right" if triple > 0 else "left"


def checked_keypoints(
    keypoints, error: type[HandoverError], source: str = "keypoints"
) -> np.ndarray:
    """Keypoints as a new read-only float (21, 3) array of finite values, else ``error``."""
    return frozen_array(keypoints, (NUM_KEYPOINTS, 3), error, source)


def frame_from_joints(joints: np.ndarray, handedness: str) -> HandFrame:
    """The one hand-frame rule, for checked (21, 3) keypoints: centred on
    their mean, +x from the wrist to the middle fingertip, +z palm-out."""
    return build_frame(
        geometric_center(joints),
        direction_from_joints(joints),
        normal_from_joints(joints, handedness),
    )


def hand_frame_of(hand: PosedHand) -> HandFrame:
    """The imagined hand's frame, by the same rule as the observed one."""
    return frame_from_joints(hand.joints, hand.handedness)


# --- model container ("hand-model/1") --------------------------------------------

HAND_MODEL_SCHEMA = "hand-model/1"


def encode_array(arr, dtype: str = "<f4") -> str:
    """Base64 of the array's C-order bytes in the wire ``dtype``."""
    return base64.b64encode(
        np.ascontiguousarray(arr, dtype=dtype).tobytes()
    ).decode("ascii")


def decode_array(data, shape: tuple, name: str, dtype: str = "<f4") -> np.ndarray:
    """Inverse of encode_array, as native float64 or int, else SchemaError.

    A leading None in ``shape`` accepts any row count. When the wire dtype is
    already native the result is a read-only view of the decoded bytes.
    """
    try:
        raw = base64.b64decode(data.encode("ascii"), validate=True)
    except (AttributeError, ValueError) as exc:
        raise SchemaError(f"{name}: invalid base64") from exc
    wire = np.dtype(dtype)
    row_bytes = int(np.prod(shape[1:])) * wire.itemsize
    rows = len(raw) // row_bytes if shape[0] is None else shape[0]
    if len(raw) != rows * row_bytes:
        raise SchemaError(f"{name}: expected {rows * row_bytes} bytes, got {len(raw)}")
    native = float if wire.kind == "f" else int
    values = np.frombuffer(raw, dtype=wire).astype(native, copy=False)
    return values.reshape((rows, *shape[1:]))


def save_hand_model(params: HandModelParams, path) -> None:
    doc = {
        "schema": HAND_MODEL_SCHEMA,
        "handedness": params.handedness,
        "template_vertices": encode_array(params.template_vertices),
        "skinning_weights": encode_array(params.skinning_weights),
        "joint_regressor": encode_array(params.joint_regressor),
        "parents": params.parents.tolist(),
    }
    if params.shape_dirs is not None:
        doc["shape_dirs"] = encode_array(params.shape_dirs)
    if params.faces is not None:
        doc["face_count"] = int(params.faces.shape[0])
        doc["faces"] = encode_array(params.faces, "<i4")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_hand_model(path) -> HandModelParams:
    doc = load_json_file(path)
    if not isinstance(doc, dict) or doc.get("schema") != HAND_MODEL_SCHEMA:
        raise SchemaError(f"expected schema {HAND_MODEL_SCHEMA!r}")
    with reading("hand model container"):
        shape_dirs = None
        if "shape_dirs" in doc:
            shape_dirs = decode_array(
                doc["shape_dirs"], (NUM_VERTICES, 3, NUM_SHAPE_DIRS), "shape_dirs"
            )
        faces = None
        if "faces" in doc:
            count = int(doc["face_count"])
            faces = decode_array(doc["faces"], (count, 3), "faces", "<i4")
        weights = decode_array(
            doc["skinning_weights"], (NUM_VERTICES, NUM_JOINTS), "skinning_weights"
        )
        # Renormalize float32-rounded rows so identity skinning stays exact.
        weights = weights / weights.sum(axis=1, keepdims=True)
        return HandModelParams(
            template_vertices=decode_array(
                doc["template_vertices"], (NUM_VERTICES, 3), "template_vertices"
            ),
            skinning_weights=weights,
            joint_regressor=decode_array(
                doc["joint_regressor"], (NUM_KEYPOINTS, NUM_VERTICES), "joint_regressor"
            ),
            parents=doc["parents"],
            handedness=doc["handedness"],
            shape_dirs=shape_dirs,
            faces=faces,
        )
