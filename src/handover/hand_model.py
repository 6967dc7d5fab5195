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
)
from .geometry import HandFrame, build_frame, rot6d_to_matrix

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
        conv = {
            "template_vertices": (float, (NUM_VERTICES, 3)),
            "skinning_weights": (float, (NUM_VERTICES, NUM_JOINTS)),
            "joint_regressor": (float, (NUM_KEYPOINTS, NUM_VERTICES)),
            "parents": (int, (NUM_JOINTS,)),
        }
        for name, (dtype, shape) in conv.items():
            arr = np.array(getattr(self, name), dtype=dtype)
            if arr.shape != shape:
                raise ModelMismatch(f"{name} must have shape {shape}, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.shape_dirs is not None:
            sd = np.array(self.shape_dirs, dtype=float)
            if sd.shape != (NUM_VERTICES, 3, NUM_SHAPE_DIRS):
                raise ModelMismatch(f"shape_dirs must be (778, 3, 10), got {sd.shape}")
            sd.setflags(write=False)
            object.__setattr__(self, "shape_dirs", sd)
        if self.faces is not None:
            f = np.array(self.faces, dtype=int)
            if f.ndim != 2 or f.shape[1] != 3:
                raise ModelMismatch(f"faces must be (F, 3), got {f.shape}")
            f.setflags(write=False)
            object.__setattr__(self, "faces", f)
        if self.handedness not in HANDEDNESS:
            raise ModelMismatch(f"handedness must be left/right, got {self.handedness!r}")
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
        t = np.array(self.translation, dtype=float)
        p = np.array(self.pose, dtype=float)
        b = np.array(self.shape, dtype=float)
        if t.shape != (3,):
            raise ModelMismatch(f"translation must be (3,), got {t.shape}")
        if p.shape != (NUM_JOINTS, 6):
            raise ModelMismatch(f"pose must be (16, 6), got {p.shape}")
        if b.shape != (NUM_SHAPE_DIRS,):
            raise ModelMismatch(f"shape must be (10,), got {b.shape}")
        if self.handedness not in HANDEDNESS:
            raise ModelMismatch(f"handedness must be left/right, got {self.handedness!r}")
        for arr, name in ((t, "translation"), (p, "pose"), (b, "shape")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
        try:
            return cls(
                translation=np.asarray(data["translation"], dtype=float),
                pose=np.asarray(data["pose"], dtype=float),
                shape=np.asarray(data.get("shape", np.zeros(NUM_SHAPE_DIRS)), dtype=float),
                handedness=data["handedness"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad hand pose record: {exc}") from exc


@dataclass(frozen=True, eq=False)
class PosedHand:
    """Skinned hand in world/object space."""

    vertices: np.ndarray  # (778, 3)
    joints: np.ndarray  # (21, 3), joint 0 = wrist
    handedness: str

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        j = np.array(self.joints, dtype=float)
        if v.shape != (NUM_VERTICES, 3):
            raise ModelMismatch(f"vertices must be ({NUM_VERTICES}, 3), got {v.shape}")
        if j.shape != (NUM_KEYPOINTS, 3):
            raise ModelMismatch(f"joints must be ({NUM_KEYPOINTS}, 3), got {j.shape}")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(j))):
            raise ModelMismatch("posed hand contains non-finite coordinates")
        v.setflags(write=False)
        j.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "joints", j)


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

    chain = np.zeros((n_joints, 4, 4))
    relative = np.zeros((n_joints, 4, 4))
    for k in range(n_joints):
        local = np.eye(4)
        local[:3, :3] = rotations[k]
        if parents[k] < 0:
            local[:3, 3] = rest_joints[k]
            chain[k] = local
        else:
            local[:3, 3] = rest_joints[k] - rest_joints[parents[k]]
            chain[k] = chain[parents[k]] @ local
        offset = np.eye(4)
        offset[:3, 3] = -rest_joints[k]
        relative[k] = chain[k] @ offset

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

    rotations = np.empty((NUM_JOINTS, 3, 3))
    for k in range(NUM_JOINTS):
        try:
            rotations[k] = rot6d_to_matrix(pose.pose[k])
        except (DegenerateDirection, ParallelAxes) as exc:
            raise InvalidPoseBlock(f"joint {k}: {exc}") from exc

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


def hand_direction(hand: PosedHand) -> np.ndarray:
    return direction_from_joints(hand.joints)


def normal_from_joints(joints, handedness: str) -> np.ndarray:
    """Palm-out unit normal from wrist / index-base / pinky-base keypoints.

    The raw cross product (index - wrist) x (pinky - wrist) exits the palm
    for a right hand; the sign is flipped for a left hand so the returned
    vector is palm-out for both.
    """
    j = np.asarray(joints, dtype=float)
    raw = np.cross(j[INDEX_BASE] - j[WRIST], j[PINKY_BASE] - j[WRIST])
    if np.linalg.norm(raw) < 1e-9:
        raise DegenerateNormal("wrist, index base and pinky base are collinear")
    sign = 1.0 if handedness == "right" else -1.0
    return sign * raw / np.linalg.norm(raw)


def palm_normal(hand: PosedHand) -> np.ndarray:
    return normal_from_joints(hand.joints, hand.handedness)


def classify_handedness(joints) -> str:
    """Classify left/right from the palm-triangle / thumb triple product.

    Sign convention calibrated on the synthetic right-hand fixture: positive
    ((index - wrist) x (pinky - wrist)) . (thumb - wrist) means right.
    """
    j = np.asarray(joints, dtype=float)
    triple = float(
        np.cross(j[INDEX_BASE] - j[WRIST], j[PINKY_BASE] - j[WRIST])
        @ (j[THUMB_BASE] - j[WRIST])
    )
    if abs(triple) < 1e-9:
        raise AmbiguousHandedness(f"triple product {triple:.3e} m^3 is too small")
    return "right" if triple > 0 else "left"


def hand_frame_of(hand: PosedHand) -> HandFrame:
    """Hand frame with the center taken over the mesh vertices."""
    return build_frame(
        geometric_center(hand.vertices),
        hand_direction(hand),
        palm_normal(hand),
    )


def frame_from_joints(joints) -> HandFrame:
    """Hand frame from observed keypoints only (center over the 21 joints)."""
    j = np.asarray(joints, dtype=float)
    if j.shape != (NUM_KEYPOINTS, 3) or not np.all(np.isfinite(j)):
        raise HandoverError(f"expected finite ({NUM_KEYPOINTS}, 3) joints")
    return _frame_of_handed_joints(j, classify_handedness(j))


def _frame_of_handed_joints(joints: np.ndarray, handedness: str) -> HandFrame:
    """frame_from_joints for checked joints whose handedness is known."""
    return build_frame(
        geometric_center(joints),
        direction_from_joints(joints),
        normal_from_joints(joints, handedness),
    )


# --- model container ("hand-model/1") --------------------------------------------

HAND_MODEL_SCHEMA = "hand-model/1"


def _encode_f32(arr: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(arr, dtype="<f4").tobytes()
    ).decode("ascii")


def _decode_f32(data: str, shape: tuple, name: str) -> np.ndarray:
    try:
        raw = base64.b64decode(data.encode("ascii"), validate=True)
    except Exception as exc:
        raise SchemaError(f"{name}: invalid base64") from exc
    expected = int(np.prod(shape)) * 4
    if len(raw) != expected:
        raise SchemaError(f"{name}: expected {expected} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype="<f4").astype(float).reshape(shape)


def save_hand_model(params: HandModelParams, path) -> None:
    doc = {
        "schema": HAND_MODEL_SCHEMA,
        "handedness": params.handedness,
        "template_vertices": _encode_f32(params.template_vertices),
        "skinning_weights": _encode_f32(params.skinning_weights),
        "joint_regressor": _encode_f32(params.joint_regressor),
        "parents": params.parents.tolist(),
    }
    if params.shape_dirs is not None:
        doc["shape_dirs"] = _encode_f32(params.shape_dirs)
    if params.faces is not None:
        doc["face_count"] = int(params.faces.shape[0])
        doc["faces"] = base64.b64encode(
            np.ascontiguousarray(params.faces, dtype="<i4").tobytes()
        ).decode("ascii")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_hand_model(path) -> HandModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"hand model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != HAND_MODEL_SCHEMA:
        raise SchemaError(f"expected schema {HAND_MODEL_SCHEMA!r}")
    try:
        parents = np.asarray(doc["parents"], dtype=int)
        shape_dirs = None
        if "shape_dirs" in doc:
            shape_dirs = _decode_f32(
                doc["shape_dirs"], (NUM_VERTICES, 3, NUM_SHAPE_DIRS), "shape_dirs"
            )
        faces = None
        if "faces" in doc:
            count = int(doc.get("face_count", -1))
            raw = base64.b64decode(doc["faces"].encode("ascii"), validate=True)
            if count < 0 or len(raw) != count * 12:
                raise SchemaError("faces byte length disagrees with face_count")
            faces = np.frombuffer(raw, dtype="<i4").astype(int).reshape(count, 3)
        weights = _decode_f32(
            doc["skinning_weights"], (NUM_VERTICES, NUM_JOINTS), "skinning_weights"
        )
        # Renormalize float32-rounded rows so identity skinning stays exact.
        weights = weights / weights.sum(axis=1, keepdims=True)
        return HandModelParams(
            template_vertices=_decode_f32(
                doc["template_vertices"], (NUM_VERTICES, 3), "template_vertices"
            ),
            skinning_weights=weights,
            joint_regressor=_decode_f32(
                doc["joint_regressor"], (NUM_KEYPOINTS, NUM_VERTICES), "joint_regressor"
            ),
            parents=parents,
            handedness=doc["handedness"],
            shape_dirs=shape_dirs,
            faces=faces,
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, ModelMismatch) as exc:
        raise SchemaError(f"bad hand model container: {exc}") from exc
