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
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

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
)
from .geometry import (
    HandFrame,
    RigidTransform,
    build_frame,
    matching_transform,
    matrix_to_quat,
    transform_pose,
)
from .grasp import (
    MAX_JAW_WIDTH_M,
    ClearanceResult,
    GraspCandidate,
    GripperGeometry,
    SelectionConfig,
    antipodal_candidates,
    clearance_check,
    load_candidates,
    rank_candidates,
)
from .hand_model import (
    HandModelParams,
    HandPose,
    PosedHand,
    _frame_of_handed_joints,
    classify_handedness,
    frame_from_joints,  # noqa: F401  bench/tracer.py wraps it at this attribute
    hand_frame_of,
    lbs_forward,
)
from .intent import TaskDescription

CONFIG_SCHEMA = "handover-config/1"
TARGET_SCHEMA = "end-effector-target/1"


# --- providers -----------------------------------------------------------------

class ReceivingHandProvider(Protocol):
    def __call__(self, task: TaskDescription, cloud: ObjectCloud) -> HandPose: ...


class GraspCandidateProvider(Protocol):
    def __call__(
        self, task: TaskDescription, cloud: ObjectCloud
    ) -> Sequence[GraspCandidate]: ...


@dataclass(frozen=True)
class CannedPoseProvider:
    """Receiving poses looked up by (object name, handedness) from a library."""

    library: Mapping[str, Mapping[str, dict]]

    @classmethod
    def from_file(cls, path) -> "CannedPoseProvider":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                library = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"pose library is not valid JSON: {exc}") from exc
        if not isinstance(library, dict):
            raise SchemaError("pose library must be a JSON object")
        return cls(library=library)

    def __call__(self, task: TaskDescription, cloud: ObjectCloud) -> HandPose:
        entry = self.library.get(task.object_name, {})
        record = entry.get(task.handedness)
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
    """Open receiving hand placed deterministically relative to the cloud."""

    grip: str = "open"
    reach_margin: float = 0.20

    def __call__(self, task: TaskDescription, cloud: ObjectCloud) -> HandPose:
        from .synthetic import receiving_pose_for

        return receiving_pose_for(
            cloud, task.handedness, grip=self.grip, reach_margin=self.reach_margin
        )


@dataclass(frozen=True)
class AntipodalGraspProvider:
    """Offline candidate generator over the object cloud."""

    max_width: float = MAX_JAW_WIDTH_M
    friction_half_angle: float = 0.3
    count: int = 16
    seed: int = 0

    def __call__(self, task: TaskDescription, cloud: ObjectCloud):
        return antipodal_candidates(
            cloud,
            max_width=self.max_width,
            friction_half_angle=self.friction_half_angle,
            count=self.count,
            seed=self.seed,
        )


@dataclass(frozen=True)
class StaticGraspProvider:
    """Fixed candidate list (e.g. loaded from a file)."""

    candidates: tuple[GraspCandidate, ...]

    @classmethod
    def from_file(cls, path) -> "StaticGraspProvider":
        return cls(candidates=tuple(load_candidates(path)))

    def __call__(self, task: TaskDescription, cloud: ObjectCloud):
        return self.candidates


# --- configuration and validation ------------------------------------------------

@dataclass(frozen=True)
class HardwareLimits:
    max_jaw_width: float = MAX_JAW_WIDTH_M
    min_clearance: float = 0.005


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
                    measured=float(rec["measured"]),
                    limit=float(rec["limit"]),
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
        clearance = ClearanceResult(
            passed=True, min_distance=float(data["clearance_m"])
        )
        return cls(
            selected_index=int(data["selected_index"]),
            score=float(data["score"]),
            clearance=clearance,
            fallbacks=tuple(data.get("fallbacks", ())),
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
        return {
            "schema": CONFIG_SCHEMA,
            "task": self.task.to_dict(),
            "cloud": self.cloud.to_dict(),
            "hand_pose": self.hand_pose.to_dict(),
            "hand": {
                "vertices": self.hand.vertices.tolist(),
                "joints": self.hand.joints.tolist(),
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
        if not isinstance(data, dict) or data.get("schema") != CONFIG_SCHEMA:
            raise SchemaError(f"expected schema {CONFIG_SCHEMA!r}")
        try:
            frame_rec = data["hand_frame"]
            frame = build_frame(
                np.asarray(frame_rec["center"], dtype=float),
                np.asarray(frame_rec["direction"], dtype=float),
                np.asarray(frame_rec["normal"], dtype=float),
            )
            return cls(
                task=TaskDescription.from_dict(data["task"]),
                cloud=ObjectCloud.from_dict(data["cloud"]),
                hand_pose=HandPose.from_dict(data["hand_pose"]),
                hand=PosedHand(
                    vertices=np.asarray(data["hand"]["vertices"], dtype=float),
                    joints=np.asarray(data["hand"]["joints"], dtype=float),
                    handedness=data["hand"]["handedness"],
                ),
                grasp=GraspCandidate.from_dict(data["grasp"]),
                hand_frame=frame,
                selection=SelectionRecord.from_dict(data["selection"]),
                validation=ValidationReport.from_dict(data["validation"]),
            )
        except SchemaError:
            raise
        except (KeyError, TypeError, ValueError, ModelMismatch) as exc:
            raise SchemaError(f"bad configuration record: {exc}") from exc

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def save_configuration(config: HandoverConfiguration, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config.to_json_text())


def load_configuration(path) -> HandoverConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"configuration file is not valid JSON: {exc}") from exc
    return HandoverConfiguration.from_json_dict(data)


@dataclass(frozen=True)
class PipelineConfig:
    """Models and limits shared by pipeline invocations."""

    hand_models: Mapping[str, HandModelParams]
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    gripper: GripperGeometry = field(default_factory=GripperGeometry.default_parallel_jaw)
    limits: HardwareLimits = field(default_factory=HardwareLimits)

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
    limits: HardwareLimits = HardwareLimits(),
) -> ValidationReport:
    """Re-check hardware and geometric constraints on a configuration.

    When no gripper proxy is passed, the clearance recorded at assembly time
    is judged against the limit instead of being re-measured.
    """
    if gripper is not None:
        clearance = clearance_check(
            config.grasp, gripper, config.hand, limits.min_clearance
        ).min_distance
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
            passed=0.0 < config.grasp.width <= limits.max_jaw_width,
            measured=float(config.grasp.width),
            limit=limits.max_jaw_width,
        ),
        "clearance": CheckResult(
            passed=clearance >= limits.min_clearance,
            measured=clearance,
            limit=limits.min_clearance,
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

    Candidates are tried in score order; any that fail the clearance gate are
    recorded and skipped. If every candidate collides, the per-candidate
    minimum distances are attached to the error.
    """
    hand_pose = hand_provider(task, cloud)
    if hand_pose is None:
        raise ProviderEmpty("hand provider returned nothing")
    if hand_pose.handedness != task.handedness:
        raise ProviderEmpty(
            f"provider returned a {hand_pose.handedness} hand for a "
            f"{task.handedness}-handed task"
        )
    candidates = list(grasp_provider(task, cloud) or ())
    if not candidates:
        raise ProviderEmpty("grasp provider returned no candidates")
    for candidate in candidates:
        candidate.validate()

    hand = lbs_forward(config.model_for(task.handedness), hand_pose)
    ranked = rank_candidates(candidates, hand, config.selection)

    fallbacks: list[dict] = []
    chosen = None
    for index, score in ranked:
        clearance = clearance_check(
            candidates[index], config.gripper, hand, config.selection.clearance_margin
        )
        if clearance.passed:
            chosen = SelectionRecord(
                selected_index=index,
                score=score,
                clearance=clearance,
                fallbacks=tuple(fallbacks),
            )
            break
        fallbacks.append({"index": index, "min_distance_m": clearance.min_distance})
    if chosen is None:
        raise AllCandidatesCollide([f["min_distance_m"] for f in fallbacks])

    frame = hand_frame_of(hand)
    config_out = HandoverConfiguration(
        task=task,
        cloud=cloud,
        hand_pose=hand_pose,
        hand=hand,
        grasp=candidates[chosen.selected_index],
        hand_frame=frame,
        selection=chosen,
        validation=ValidationReport(checks={}),
    )
    # validate against the margin that actually gated selection, so an
    # emitted configuration always passes its own report
    limits = HardwareLimits(
        max_jaw_width=config.limits.max_jaw_width,
        min_clearance=config.selection.clearance_margin,
    )
    report = validate_configuration(config_out, config.gripper, limits)
    return HandoverConfiguration(
        task=config_out.task,
        cloud=config_out.cloud,
        hand_pose=config_out.hand_pose,
        hand=config_out.hand,
        grasp=config_out.grasp,
        hand_frame=config_out.hand_frame,
        selection=config_out.selection,
        validation=report,
    )


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

    The observed hand's handedness must agree with the task; the returned
    target preserves the imagined gripper-to-hand relative pose exactly.
    """
    joints = np.asarray(observed_joints, dtype=float)
    if joints.shape != (21, 3) or not np.all(np.isfinite(joints)):
        raise DegenerateObservation(f"expected finite (21, 3) keypoints, got {joints.shape}")
    try:
        observed_handedness = classify_handedness(joints)
    except AmbiguousHandedness as exc:
        raise DegenerateObservation(str(exc)) from exc
    if observed_handedness != config.task.handedness:
        raise HandednessMismatch(
            f"observed a {observed_handedness} hand, task expects {config.task.handedness}"
        )
    try:
        real = _frame_of_handed_joints(joints, observed_handedness)
    except (DegenerateDirection, DegenerateNormal) as exc:
        raise DegenerateObservation(str(exc)) from exc
    return transport_grasp(config.hand_frame, real, config.grasp.transform)
