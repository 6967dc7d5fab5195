"""Planning pipeline: imagine a handover configuration in the object frame,
then match it onto the observed receiving hand to get a world-frame
end-effector target.

Imagination composes pluggable providers (receiving-hand pose, grasp
candidates) with grasp selection and a gripper-hand clearance gate; only
the matching step touches the world frame. The core guarantee is that the
gripper pose expressed in the real hand frame equals the imagined gripper
pose expressed in the imagined hand frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping, Protocol

import numpy as np

from .cloud import ObjectCloud
from .errors import (
    AllCandidatesCollide,
    AmbiguousHandedness,
    DegenerateDirection,
    DegenerateNormal,
    DegenerateObservation,
    HandednessMismatch,
    ModelMismatch,
    ProviderEmpty,
    SchemaError,
    ValidationFailed,
    load_json_file,
    reading,
)
from .geometry import (
    HandFrame,
    RigidTransform,
    build_frame,
    frozen_array,
    matching_transform,
    matrix_to_quat,
    transform_pose,
)
from .grasp import (
    MAX_JAW_WIDTH_M,
    CandidateSet,
    ClearanceResult,
    GraspCandidate,
    GripperGeometry,
    SelectionConfig,
    antipodal_candidates,
    clearance_check,
    first_invalid,
    load_candidates,
    rank_candidates,
)
from .hand_model import (
    NUM_KEYPOINTS,
    NUM_VERTICES,
    HandModelParams,
    HandPose,
    PosedHand,
    checked_keypoints,
    classify_handedness,
    decode_array,
    encode_array,
    frame_from_joints,
    hand_frame_of,
    lbs_forward,
)
from .intent import TaskDescription

CONFIG_SCHEMA = "handover-config/2"
# /1 held the cloud, vertex and joint arrays as JSON number lists.
_READABLE_CONFIG_SCHEMAS = ("handover-config/1", CONFIG_SCHEMA)
TARGET_SCHEMA = "end-effector-target/1"
# Little-endian float64 keeps the record's large arrays bit-exact.
_RECORD_DTYPE = "<f8"


# --- providers -----------------------------------------------------------------

class ReceivingHandProvider(Protocol):
    def __call__(self, task: TaskDescription, cloud: ObjectCloud) -> HandPose: ...


class GraspCandidateProvider(Protocol):
    def __call__(self, task: TaskDescription, cloud: ObjectCloud) -> CandidateSet: ...


@dataclass(frozen=True)
class CannedPoseProvider:
    """Receiving poses looked up by (object name, handedness) from a library."""

    library: Mapping[str, Mapping[str, dict]]

    @classmethod
    def from_file(cls, path) -> "CannedPoseProvider":
        library = load_json_file(path)
        if not isinstance(library, dict):
            raise SchemaError("pose library must be a JSON object")
        return cls(library=library)

    def __call__(self, task: TaskDescription, cloud: ObjectCloud) -> HandPose:
        with reading("pose library entry"):
            record = self.library.get(task.object_name, {}).get(task.handedness)
        if record is None:
            raise ProviderEmpty(
                f"no canned {task.handedness} pose for {task.object_name!r}"
            )
        pose = HandPose.from_dict(record)
        if pose.handedness != task.handedness:
            raise ProviderEmpty("canned pose handedness disagrees with its key")
        return pose


@dataclass(frozen=True)
class ProceduralPoseProvider:
    """Open receiving hand placed deterministically relative to the cloud
    (``synthetic.receiving_pose_for``)."""

    def __call__(self, task: TaskDescription, cloud: ObjectCloud) -> HandPose:
        from .synthetic import receiving_pose_for

        return receiving_pose_for(cloud, task.handedness)


@dataclass(frozen=True)
class AntipodalGraspProvider:
    """Offline candidate generator over the object cloud."""

    count: int = 16
    seed: int = 0

    def __call__(self, task: TaskDescription, cloud: ObjectCloud) -> CandidateSet:
        # Keywords: bench/tracer.py reads the count from the call's kwargs.
        return antipodal_candidates(cloud, count=self.count, seed=self.seed)


@dataclass(frozen=True)
class StaticGraspProvider:
    """Fixed candidate set (e.g. loaded from a file)."""

    candidates: CandidateSet

    @classmethod
    def from_file(cls, path) -> "StaticGraspProvider":
        return cls(candidates=load_candidates(path))

    def __call__(self, task: TaskDescription, cloud: ObjectCloud) -> CandidateSet:
        return self.candidates


# --- configuration and validation ------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    passed: bool
    measured: float
    limit: float

    def to_dict(self) -> dict:
        return {"passed": self.passed, "measured": self.measured, "limit": self.limit}


@dataclass(frozen=True)
class ValidationReport:
    checks: dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_dict(self) -> dict:
        return {name: check.to_dict() for name, check in sorted(self.checks.items())}

    @classmethod
    def from_dict(cls, data: dict) -> "ValidationReport":
        return cls(
            checks={
                name: CheckResult(
                    passed=bool(rec["passed"]),
                    measured=_record_scalar(rec["measured"], f"validation.{name}.measured"),
                    limit=_record_scalar(rec["limit"], f"validation.{name}.limit"),
                )
                for name, rec in data.items()
            }
        )


@dataclass(frozen=True)
class SelectionRecord:
    """How the grasp was picked: argmin index, score, and clearance fallbacks."""

    selected_index: int
    score: float
    clearance: ClearanceResult
    fallbacks: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {
            "selected_index": self.selected_index,
            "score": self.score,
            "clearance_m": self.clearance.min_distance,
            "fallbacks": list(self.fallbacks),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SelectionRecord":
        fallbacks = tuple(data.get("fallbacks", ()))
        for k, fallback in enumerate(fallbacks):
            _record_index(fallback["index"], f"selection.fallbacks[{k}].index")
            _record_scalar(fallback["min_distance_m"], f"selection.fallbacks[{k}].min_distance_m")
        clearance = ClearanceResult(
            passed=True, min_distance=_record_scalar(data["clearance_m"], "selection.clearance_m")
        )
        return cls(
            selected_index=_record_index(data["selected_index"], "selection.selected_index"),
            score=_record_scalar(data["score"], "selection.score"),
            clearance=clearance,
            fallbacks=fallbacks,
        )


@dataclass(frozen=True, eq=False)
class HandoverConfiguration:
    """Imagined handover scene in the object frame, plus its validation."""

    task: TaskDescription
    cloud: ObjectCloud
    hand_pose: HandPose
    hand: PosedHand
    grasp: GraspCandidate
    hand_frame: HandFrame
    selection: SelectionRecord
    validation: ValidationReport

    def to_json_dict(self) -> dict:
        normals = self.cloud.normals
        return {
            "schema": CONFIG_SCHEMA,
            "task": self.task.to_dict(),
            "cloud": {
                "name": self.cloud.name,
                "points": encode_array(self.cloud.points, _RECORD_DTYPE),
                "normals": None if normals is None else encode_array(normals, _RECORD_DTYPE),
            },
            "hand_pose": self.hand_pose.to_dict(),
            "hand": {
                "vertices": encode_array(self.hand.vertices, _RECORD_DTYPE),
                "joints": encode_array(self.hand.joints, _RECORD_DTYPE),
                "handedness": self.hand.handedness,
            },
            "grasp": self.grasp.to_dict(),
            "hand_frame": {
                "center": self.hand_frame.center.tolist(),
                "direction": self.hand_frame.direction.tolist(),
                "normal": self.hand_frame.normal.tolist(),
            },
            "selection": self.selection.to_dict(),
            "validation": self.validation.to_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HandoverConfiguration":
        if not isinstance(data, dict) or data.get("schema") not in _READABLE_CONFIG_SCHEMAS:
            raise SchemaError(f"expected one of the schemas {_READABLE_CONFIG_SCHEMAS}")
        with reading("configuration record"):
            frame_rec, cloud_rec, hand_rec = data["hand_frame"], data["cloud"], data["hand"]
            # Checked before build_frame, whose normalising would turn inf into NaN.
            frame = build_frame(
                *(frozen_array(frame_rec[k], (3,), ValueError, f"hand_frame.{k}")
                  for k in ("center", "direction", "normal"))
            )
            normals = cloud_rec.get("normals")
            config = cls(
                task=TaskDescription.from_dict(data["task"]),
                cloud=ObjectCloud(
                    name=cloud_rec["name"],
                    points=_record_array(cloud_rec["points"], (None, 3), "cloud.points"),
                    normals=(
                        None
                        if normals is None
                        else _record_array(normals, (None, 3), "cloud.normals")
                    ),
                ),
                hand_pose=HandPose.from_dict(data["hand_pose"]),
                hand=PosedHand(
                    vertices=_record_array(
                        hand_rec["vertices"], (NUM_VERTICES, 3), "hand.vertices"
                    ),
                    joints=_record_array(hand_rec["joints"], (NUM_KEYPOINTS, 3), "hand.joints"),
                    handedness=hand_rec["handedness"],
                ),
                grasp=GraspCandidate.from_dict(data["grasp"]),
                hand_frame=frame,
                selection=SelectionRecord.from_dict(data["selection"]),
                validation=ValidationReport.from_dict(data["validation"]),
            )
            # Once every field has parsed: the rule each candidate passed
            # before it could be chosen.
            grasp = config.grasp
            invalid = first_invalid(grasp.transform.rotation[None], np.array([grasp.width]))
            if invalid is not None:
                raise ValueError(f"grasp {invalid[1]}")
        return config

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _record_scalar(value, name: str) -> float:
    """One number of a record that no value type checks: finite, else SchemaError."""
    return float(frozen_array(value, (), SchemaError, name))


def _record_index(value, name: str) -> int:
    """One whole number of a record, else SchemaError: 2.7 is not read as 2."""
    return int(frozen_array(value, (), SchemaError, name, int))


def _record_array(value, shape: tuple, name: str):
    """One large array of a record: base64 float64 (/2), else a /1 number list
    that the dataclass keeping it checks."""
    if isinstance(value, str):
        return decode_array(value, shape, name, _RECORD_DTYPE)
    return value


def save_configuration(config: HandoverConfiguration, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config.to_json_text())


def load_configuration(path) -> HandoverConfiguration:
    return HandoverConfiguration.from_json_dict(load_json_file(path))


@dataclass(frozen=True)
class PipelineConfig:
    """Models, scoring and gripper proxy shared by pipeline invocations."""

    hand_models: Mapping[str, HandModelParams]
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    gripper: GripperGeometry = field(default_factory=GripperGeometry.default_parallel_jaw)

    @classmethod
    def default(cls, **overrides) -> "PipelineConfig":
        from .synthetic import synthetic_hand_params

        models = overrides.pop(
            "hand_models",
            {
                "right": synthetic_hand_params("right"),
                "left": synthetic_hand_params("left"),
            },
        )
        return cls(hand_models=models, **overrides)

    def model_for(self, handedness: str) -> HandModelParams:
        try:
            return self.hand_models[handedness]
        except KeyError:
            raise ModelMismatch(f"no hand model for handedness {handedness!r}") from None


# --- pipeline operations -----------------------------------------------------------

def validate_configuration(
    config: HandoverConfiguration,
    gripper: GripperGeometry | None = None,
    min_clearance: float = 0.005,
) -> ValidationReport:
    """Re-check hardware and geometric constraints on a configuration.

    The jaw width is checked against MAX_JAW_WIDTH_M. When no gripper proxy
    is passed, the clearance recorded at assembly time is judged against
    ``min_clearance`` instead of being re-measured.
    """
    if gripper is not None:
        clearance = clearance_check(config.grasp, gripper, config.hand, min_clearance).min_distance
    else:
        clearance = config.selection.clearance.min_distance
    rotation = config.grasp.transform.rotation
    rotation_residual = float(
        max(
            np.abs(rotation.T @ rotation - np.eye(3)).max(),
            abs(np.linalg.det(rotation) - 1.0),
        )
    )
    frame_residual = float(
        abs(config.hand_frame.direction @ config.hand_frame.normal)
    )
    checks = {
        "jaw_width": CheckResult(
            passed=0.0 < config.grasp.width <= MAX_JAW_WIDTH_M,
            measured=float(config.grasp.width),
            limit=MAX_JAW_WIDTH_M,
        ),
        "clearance": CheckResult(
            passed=clearance >= min_clearance,
            measured=clearance,
            limit=min_clearance,
        ),
        "grasp_rotation": CheckResult(
            passed=rotation_residual <= 1e-9,
            measured=rotation_residual,
            limit=1e-9,
        ),
        "hand_frame": CheckResult(
            passed=frame_residual <= 1e-10,
            measured=frame_residual,
            limit=1e-10,
        ),
    }
    return ValidationReport(checks=checks)


def imagine_configuration(
    task: TaskDescription,
    cloud: ObjectCloud,
    hand_provider: ReceivingHandProvider,
    grasp_provider: GraspCandidateProvider,
    config: PipelineConfig,
) -> HandoverConfiguration:
    """Assemble the full object-frame handover configuration.

    The provider's candidates are validated and scored as one stack (the
    first bad one raises InvalidCandidate naming its index), then tried in
    score order; any that fail the clearance gate are recorded and skipped.
    If every candidate collides, the per-candidate minimum distances are
    attached to the error.
    """
    hand_pose = hand_provider(task, cloud)
    if hand_pose is None:
        raise ProviderEmpty("hand provider returned nothing")
    if hand_pose.handedness != task.handedness:
        raise ProviderEmpty(
            f"provider returned a {hand_pose.handedness} hand for a "
            f"{task.handedness}-handed task"
        )
    candidates = grasp_provider(task, cloud)
    if candidates is None or len(candidates) == 0:
        raise ProviderEmpty("grasp provider returned no candidates")
    candidates.validate()

    hand = lbs_forward(config.model_for(task.handedness), hand_pose)
    ranked = rank_candidates(candidates, hand, config.selection)

    fallbacks: list[dict] = []
    for index, score in ranked:
        grasp = candidates[index]
        clearance = clearance_check(
            grasp, config.gripper, hand, config.selection.clearance_margin
        )
        if clearance.passed:
            break
        fallbacks.append({"index": index, "min_distance_m": clearance.min_distance})
    else:
        raise AllCandidatesCollide([f["min_distance_m"] for f in fallbacks])

    config_out = HandoverConfiguration(
        task=task,
        cloud=cloud,
        hand_pose=hand_pose,
        hand=hand,
        grasp=grasp,
        hand_frame=hand_frame_of(hand),
        selection=SelectionRecord(index, score, clearance, tuple(fallbacks)),
        validation=ValidationReport(checks={}),
    )
    # validate against the margin that actually gated selection, so an
    # emitted configuration always passes its own report; the clearance was
    # measured for the chosen candidate above and is not measured again
    report = validate_configuration(config_out, None, config.selection.clearance_margin)
    return replace(config_out, validation=report)


@dataclass(frozen=True, eq=False)
class EndEffectorTarget:
    """World-frame gripper target produced by matching."""

    position: np.ndarray  # (3,)
    quaternion: np.ndarray  # (w, x, y, z)
    transform: RigidTransform  # the frame-matching transform used

    def to_json_dict(self) -> dict:
        return {
            "schema": TARGET_SCHEMA,
            "position_m": self.position.tolist(),
            "quaternion_wxyz": self.quaternion.tolist(),
            "matching_transform": self.transform.as_matrix().reshape(-1).tolist(),
        }


def transport_grasp(
    imagined: HandFrame, real: HandFrame, grasp: RigidTransform
) -> EndEffectorTarget:
    """Carry a grasp pose from the imagined hand frame onto the real one."""
    carry = matching_transform(imagined, real)
    position, quaternion = transform_pose(
        grasp.translation, matrix_to_quat(grasp.rotation), carry
    )
    return EndEffectorTarget(position=position, quaternion=quaternion, transform=carry)


def match_to_observation(
    config: HandoverConfiguration, observed_joints
) -> EndEffectorTarget:
    """Match the imagined configuration onto observed hand keypoints.

    A configuration whose recorded validation failed is refused, and the
    observed hand's handedness must agree with the task; the returned
    target preserves the imagined gripper-to-hand relative pose exactly.
    """
    if not config.validation.passed:
        checks = sorted(config.validation.checks.items())
        failed = ", ".join(name for name, check in checks if not check.passed)
        raise ValidationFailed(f"configuration failed validation: {failed}")
    joints = checked_keypoints(observed_joints, DegenerateObservation)
    try:
        observed_handedness = classify_handedness(joints)
    except AmbiguousHandedness as exc:
        raise DegenerateObservation(str(exc)) from exc
    if observed_handedness != config.task.handedness:
        raise HandednessMismatch(
            f"observed a {observed_handedness} hand, task expects {config.task.handedness}"
        )
    try:
        real = frame_from_joints(joints, observed_handedness)
    except (DegenerateDirection, DegenerateNormal) as exc:
        raise DegenerateObservation(str(exc)) from exc
    return transport_grasp(config.hand_frame, real, config.grasp.transform)
