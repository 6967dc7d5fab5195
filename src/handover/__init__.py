"""Handover planning toolkit.

Infers a structured handover task from text (and a hand observation),
assembles a spatial handover configuration in the object frame (receiving
hand, object cloud, gripper grasp), and matches it onto the observed real
hand to produce a world-frame end-effector target.
"""

from . import errors
from .cloud import ObjectCloud, estimate_normals
from .geometry import (
    HandFrame,
    RigidTransform,
    build_frame,
    matching_transform,
    matrix_to_quat,
    matrix_to_rot6d,
    quat_multiply,
    quat_to_matrix,
    rot6d_to_matrix,
    transform_pose,
)
from .grasp import (
    MAX_JAW_WIDTH_M,
    CandidateSet,
    GraspCandidate,
    GripperGeometry,
    SelectionConfig,
    antipodal_candidates,
    clearance_check,
    rank_candidates,
)
from .hand_model import (
    HandModelParams,
    HandPose,
    PosedHand,
    classify_handedness,
    geometric_center,
    hand_frame_of,
    lbs_forward,
    load_hand_model,
    save_hand_model,
)
from .intent import (
    CorpusItem,
    EndpointConfig,
    IntentQuery,
    TaskDescription,
    ToolCatalog,
    build_prompt,
    evaluate_corpus,
    llm_infer,
    parse_task_description,
    render_task_description,
    resolve_intent_rules,
)
from .pipeline import (
    AntipodalGraspProvider,
    CannedPoseProvider,
    EndEffectorTarget,
    HandoverConfiguration,
    PipelineConfig,
    ProceduralPoseProvider,
    StaticGraspProvider,
    imagine_configuration,
    match_to_observation,
    validate_configuration,
)
from .wrist import WristRanges, enumerate_receiving_poses, sample_receiving_pose

__version__ = "0.1.0"

__all__ = [
    "AntipodalGraspProvider",
    "CandidateSet",
    "CannedPoseProvider",
    "CorpusItem",
    "EndEffectorTarget",
    "EndpointConfig",
    "GraspCandidate",
    "GripperGeometry",
    "HandFrame",
    "HandModelParams",
    "HandPose",
    "HandoverConfiguration",
    "IntentQuery",
    "MAX_JAW_WIDTH_M",
    "ObjectCloud",
    "PipelineConfig",
    "PosedHand",
    "ProceduralPoseProvider",
    "RigidTransform",
    "SelectionConfig",
    "StaticGraspProvider",
    "TaskDescription",
    "ToolCatalog",
    "WristRanges",
    "antipodal_candidates",
    "build_frame",
    "build_prompt",
    "classify_handedness",
    "clearance_check",
    "enumerate_receiving_poses",
    "errors",
    "estimate_normals",
    "evaluate_corpus",
    "geometric_center",
    "hand_frame_of",
    "imagine_configuration",
    "lbs_forward",
    "llm_infer",
    "load_hand_model",
    "match_to_observation",
    "matching_transform",
    "matrix_to_quat",
    "matrix_to_rot6d",
    "parse_task_description",
    "quat_multiply",
    "quat_to_matrix",
    "rank_candidates",
    "render_task_description",
    "resolve_intent_rules",
    "rot6d_to_matrix",
    "sample_receiving_pose",
    "save_hand_model",
    "transform_pose",
    "validate_configuration",
]
