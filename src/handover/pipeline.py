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
    InvalidPoseBlock,
    ModelMismatch,
    ProviderEmpty,
    SchemaError,
    ValidationFailed,
    load_json_file,
    reading,
)
from .geometry import (
    VERIFY_TOL,
    HandFrame,
    RigidTransform,
    frozen_array,
    matching_transform,
    rotation_residuals,
    transform_pose,
)
from .grasp import (
    CLEARANCE_MARGIN_M,
    GRIPPER,
    MAX_JAW_WIDTH_M,
    CandidateSet,
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
    NUM_KEYPOINTS,
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

CONFIG_SCHEMA = "handover-config/3"
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

    def __post_init__(self):
        if self.count < 1 or self.seed < 0:
            raise ValueError(f"need count >= 1 and seed >= 0, got {self.count} and {self.seed}")

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


@dataclass(frozen=True, eq=False)
class HandoverConfiguration:
    """Imagined handover scene in the object frame, plus its validation.

    It is built from its inputs: the task, cloud, receiving pose, posed hand,
    chosen grasp, how that grasp was chosen, the clearance margin that gated
    it, and the hand model that posed the hand. The rest is derived here, on
    every construction, so imagine_configuration and the loader build it the
    same way: ``hand_frame`` is hand_frame_of(hand), and ``validation`` is
    validate_configuration against GRIPPER and the margin, whose measured
    clearance ``selection`` records. The task, receiving pose, posed hand and
    hand model must agree on handedness, else ModelMismatch.
    """

    task: TaskDescription
    cloud: ObjectCloud
    hand_pose: HandPose
    hand: PosedHand
    grasp: GraspCandidate
    selected_index: int
    score: float
    fallbacks: tuple[dict, ...]
    clearance_margin: float
    hand_model: HandModelParams
    hand_frame: HandFrame = field(init=False)
    selection: SelectionRecord = field(init=False)
    validation: ValidationReport = field(init=False)

    def __post_init__(self):
        hands = (self.task.handedness, self.hand_pose.handedness, self.hand.handedness,
                 self.hand_model.handedness)
        if len(set(hands)) > 1:
            raise ModelMismatch(f"task/hand_pose/hand/model handedness differ: {', '.join(hands)}")
        object.__setattr__(self, "hand_frame", hand_frame_of(self.hand))
        report = validate_configuration(self, GRIPPER, self.clearance_margin)
        clearance = report.checks["clearance"]
        selection = SelectionRecord(
            self.selected_index,
            self.score,
            ClearanceResult(clearance.passed, clearance.measured),
            self.fallbacks,
        )
        object.__setattr__(self, "selection", selection)
        object.__setattr__(self, "validation", report)

    def _derived_json(self) -> dict:
        """The record's parts that follow from its inputs."""
        frame = self.hand_frame
        return {
            "hand_frame": {
                "center": frame.center.tolist(),
                "direction": frame.direction.tolist(),
                "normal": frame.normal.tolist(),
            },
            "selection": self.selection.to_dict(),
            "validation": self.validation.to_dict(),
        }

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
                "joints": encode_array(self.hand.joints, _RECORD_DTYPE),
                "handedness": self.hand.handedness,
                "model_sha256": self.hand_model.model_sha256,
            },
            "grasp": self.grasp.to_dict(),
            **self._derived_json(),
        }

    @classmethod
    def from_json_dict(
        cls, data: dict, hand_models: Mapping[str, HandModelParams] | None = None
    ) -> "HandoverConfiguration":
        """Parse a record's inputs and derive the rest. The clearance margin
        is read from ``validation.clearance.limit``.

        The hand is skinned again from ``hand_pose`` with the model among
        ``hand_models`` (by default the synthetic pair) whose model_sha256
        ``hand.model_sha256`` names. The skinned joints must lie within
        VERIFY_TOL of the stored ``hand.joints``, from which the hand frame is
        derived. A record whose stored hand_frame, selection or validation
        differs from the derived one, as JSON text, is a SchemaError naming that
        part."""
        if not isinstance(data, dict) or data.get("schema") != CONFIG_SCHEMA:
            raise SchemaError(f"expected schema {CONFIG_SCHEMA!r}; re-run imagine to write one")
        if hand_models is None:
            hand_models = _synthetic_hand_models()
        with reading("configuration record"):
            cloud_rec, hand_rec, selection = data["cloud"], data["hand"], data["selection"]
            margin = _record_scalar(
                data["validation"]["clearance"]["limit"], "validation.clearance.limit"
            )
            if margin <= 0:
                raise ValueError("validation.clearance.limit must be positive")
            fallbacks = tuple(selection["fallbacks"])
            for k, fallback in enumerate(fallbacks):
                _record_index(fallback["index"], f"selection.fallbacks[{k}].index")
                _record_scalar(
                    fallback["min_distance_m"], f"selection.fallbacks[{k}].min_distance_m"
                )
            hand_pose = HandPose.from_dict(data["hand_pose"])
            digest = hand_rec["model_sha256"]
            model = next((m for m in hand_models.values() if m.model_sha256 == digest), None)
            if model is None:
                raise ValueError(
                    "the record's hand model is not among those given; pass the model it "
                    "was imagined with as --hand-model"
                )
            try:
                skinned = lbs_forward(model, hand_pose)
            except InvalidPoseBlock as exc:
                raise ValueError(f"hand_pose: {exc}") from exc
            joints = _record_array(hand_rec["joints"], (NUM_KEYPOINTS, 3), "hand.joints")
            _check_skinned(skinned.joints, joints, "hand.joints")
            texts = (cloud_rec["name"], data["grasp"]["source"])
            if not all(isinstance(text, str) for text in texts):
                raise ValueError("cloud.name and grasp.source must be strings")
            normals = cloud_rec["normals"]
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
                hand_pose=hand_pose,
                hand=PosedHand(skinned.vertices, joints, hand_rec["handedness"]),
                grasp=GraspCandidate.from_dict(data["grasp"]),
                selected_index=_record_index(
                    selection["selected_index"], "selection.selected_index"
                ),
                score=_record_scalar(selection["score"], "selection.score"),
                fallbacks=fallbacks,
                clearance_margin=margin,
                hand_model=model,
            )
            # All three parts in one json.dumps a side: the two texts differ
            # exactly when one part's do, and only then is each part written
            # alone, to name the first that differs.
            derived = config._derived_json()
            stored = {name: data[name] for name in derived}
            if json.dumps(derived, sort_keys=True) != json.dumps(stored, sort_keys=True):
                name = next(
                    name
                    for name in derived
                    if json.dumps(derived[name], sort_keys=True)
                    != json.dumps(stored[name], sort_keys=True)
                )
                raise ValueError(
                    f"{name} is not what the record's inputs give; re-run imagine to rewrite it"
                )
        return config

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _record_scalar(value, name: str) -> float:
    """One number of a record that no value type checks: finite, else SchemaError."""
    return float(frozen_array(value, (), SchemaError, name))


def _record_index(value, name: str) -> int:
    """One whole number of a record, else SchemaError: 2.7 is not read as 2."""
    return int(frozen_array(value, (), SchemaError, name, int))


def _record_array(value, shape: tuple, name: str) -> np.ndarray:
    """One large array of a record: base64 of little-endian float64, else SchemaError."""
    return decode_array(value, shape, name, _RECORD_DTYPE)


def _check_skinned(skinned: np.ndarray, stored: np.ndarray, name: str) -> None:
    """ValueError unless the stored array lies within VERIFY_TOL of the skinned one."""
    gap = float(np.max(np.abs(skinned - stored)))
    if not gap <= VERIFY_TOL:
        raise ValueError(
            f"{name} is {gap:.3e} m from what hand_pose and the hand model give; "
            "re-run imagine to rewrite it"
        )


def save_configuration(config: HandoverConfiguration, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config.to_json_text())


def load_configuration(
    path, hand_models: Mapping[str, HandModelParams] | None = None
) -> HandoverConfiguration:
    """Read a record; ``hand_models`` as in HandoverConfiguration.from_json_dict."""
    return HandoverConfiguration.from_json_dict(load_json_file(path), hand_models)


def _synthetic_hand_models() -> dict[str, HandModelParams]:
    """The synthetic right and left hands, by handedness: the same cached
    objects on every call, so their skinning cache is shared."""
    from .synthetic import synthetic_hand_params

    return {"right": synthetic_hand_params("right"), "left": synthetic_hand_params("left")}


@dataclass(frozen=True)
class PipelineConfig:
    """Models and scoring shared by pipeline invocations."""

    hand_models: Mapping[str, HandModelParams]
    selection: SelectionConfig = field(default_factory=SelectionConfig)

    @property
    def gripper(self) -> GripperGeometry:
        """The gripper proxy: always GRIPPER, which records are re-measured against."""
        return GRIPPER

    @classmethod
    def default(cls, **overrides) -> "PipelineConfig":
        if "hand_models" not in overrides:
            overrides["hand_models"] = _synthetic_hand_models()
        return cls(**overrides)

    def model_for(self, handedness: str) -> HandModelParams:
        try:
            return self.hand_models[handedness]
        except KeyError:
            raise ModelMismatch(f"no hand model for handedness {handedness!r}") from None


# --- pipeline operations -----------------------------------------------------------

def validate_configuration(
    config: HandoverConfiguration,
    gripper: GripperGeometry = GRIPPER,
    min_clearance: float = CLEARANCE_MARGIN_M,
) -> ValidationReport:
    """Check hardware and geometric constraints on a configuration's grasp,
    hand and hand frame.

    The jaw width is checked against MAX_JAW_WIDTH_M, and the clearance is
    measured with ``gripper`` and judged against ``min_clearance``.
    """
    clearance = clearance_check(config.grasp, gripper, config.hand, min_clearance).min_distance
    rotation_residual = float(rotation_residuals(config.grasp.transform.rotation[None])[0])
    # Summed left to right, as rotation_residuals does, for the same bits on any BLAS.
    d, n = config.hand_frame.direction.tolist(), config.hand_frame.normal.tolist()
    frame_residual = abs((d[0] * n[0] + d[1] * n[1]) + d[2] * n[2])
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
            passed=rotation_residual <= VERIFY_TOL,
            measured=rotation_residual,
            limit=VERIFY_TOL,
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

    The provider's candidates, valid by construction, are scored as one
    stack, then tried in score order; any that fail the clearance gate are
    recorded and skipped.
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

    model = config.model_for(task.handedness)
    hand = lbs_forward(model, hand_pose)
    ranked = rank_candidates(candidates, hand, config.selection)

    # Each tried candidate's configuration measures its clearance against the
    # margin, once: its own validation is the gate, so an emitted
    # configuration passes its own report.
    margin = config.selection.clearance_margin
    fallbacks: list[dict] = []
    for index, score in ranked:
        imagined = HandoverConfiguration(
            task, cloud, hand_pose, hand, candidates[index], index, score, tuple(fallbacks), margin,
            model,
        )
        clearance = imagined.selection.clearance
        if clearance.passed:
            return imagined
        fallbacks.append({"index": index, "min_distance_m": clearance.min_distance})
    raise AllCandidatesCollide([f["min_distance_m"] for f in fallbacks])


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
    position, quaternion = transform_pose(grasp.translation, grasp.quaternion, carry)
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
