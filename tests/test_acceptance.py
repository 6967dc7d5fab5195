"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are fixed here, not calibrated elsewhere.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np
import pytest

from handover import pipeline, synthetic
from handover.errors import InvalidCandidate
from handover.geometry import (
    RigidTransform,
    matching_transform,
    matrix_to_rot6d,
    quat_to_matrix,
    rot6d_to_matrix,
    rot_z,
    transform_pose,
)
from handover.grasp import (
    MAX_JAW_WIDTH_M,
    GraspCandidate,
    GripperGeometry,
    SelectionConfig,
    clearance_check,
    load_candidates,
    rank_candidates,
)
from handover.hand_model import (
    HandPose,
    geometric_center,
    hand_direction,
    lbs_forward,
    skin_vertices,
)
from handover.intent import (
    TaskDescription,
    parse_task_description,
    render_task_description,
    tier_average,
)
from handover.pipeline import (
    AntipodalGraspProvider,
    PipelineConfig,
    ProceduralPoseProvider,
    imagine_configuration,
    match_to_observation,
    transport_grasp,
    validate_configuration,
)
from handover.wrist import WristRanges, enumerate_receiving_poses

from helpers import candidate_set, random_frame, random_quaternion, random_rotation


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def test_01_frame_matching_exactness():
    rng = np.random.default_rng(101)
    worst_origin = worst_dot = worst_angle = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        imagined, real = random_frame(rng), random_frame(rng)
        h = matching_transform(imagined, real)
        worst_origin = max(
            worst_origin, float(np.linalg.norm(h.apply(imagined.center) - real.center))
        )
        dot = float(h.rotate(imagined.direction) @ real.direction)
        worst_dot = max(worst_dot, 1.0 - dot)
        angle = float(np.arccos(np.clip(h.rotate(imagined.normal) @ real.normal, -1, 1)))
        worst_angle = max(worst_angle, angle)
    elapsed = time.perf_counter() - start
    ok = worst_origin <= 1e-9 and worst_dot <= 1e-9 and worst_angle <= 1e-6 and elapsed < 1.0
    _report(
        1,
        "frame-matching-exactness",
        ok,
        f"origin {worst_origin:.2e}, 1-dot {worst_dot:.2e}, angle {worst_angle:.2e}, {elapsed:.3f}s",
    )


def test_02_quaternion_matrix_consistency():
    rng = np.random.default_rng(202)
    worst_rot = worst_pos = 0.0
    for _ in range(1000):
        p0 = rng.uniform(-1, 1, 3)
        q0 = random_quaternion(rng)
        h = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3))
        p_hat, q_hat = transform_pose(p0, q0, h)
        worst_rot = max(
            worst_rot,
            float(np.linalg.norm(quat_to_matrix(q_hat) - h.rotation @ quat_to_matrix(q0))),
        )
        oracle = h.as_matrix() @ np.concatenate([p0, [1.0]])
        worst_pos = max(worst_pos, float(np.linalg.norm(p_hat - oracle[:3])))
    ok = worst_rot <= 1e-9 and worst_pos <= 1e-9
    _report(
        2,
        "quaternion-matrix-consistency",
        ok,
        f"frobenius {worst_rot:.2e}, position {worst_pos:.2e}",
    )


def test_03_relative_pose_preservation(cylinder_config):
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        imagined, real = random_frame(rng), random_frame(rng)
        grasp = RigidTransform(random_rotation(rng), rng.uniform(-0.3, 0.3, 3))
        target = transport_grasp(imagined, real, grasp)
        in_real = real.as_transform().inverse().compose(
            RigidTransform(quat_to_matrix(target.quaternion), target.position)
        )
        in_imagined = imagined.as_transform().inverse().compose(grasp)
        worst = max(worst, float(np.abs(in_real.as_matrix() - in_imagined.as_matrix()).max()))
    # the same property through the full pipeline entry point
    imagined_rel = cylinder_config.hand_frame.as_transform().inverse().compose(
        cylinder_config.grasp.transform
    )
    from handover.hand_model import frame_from_joints

    for _ in range(25):
        motion = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3))
        observed = motion.apply(cylinder_config.hand.joints)
        target = match_to_observation(cylinder_config, observed)
        real_rel = frame_from_joints(observed).as_transform().inverse().compose(
            RigidTransform(quat_to_matrix(target.quaternion), target.position)
        )
        worst = max(worst, float(np.abs(real_rel.as_matrix() - imagined_rel.as_matrix()).max()))
    _report(3, "relative-pose-preservation", worst <= 1e-9, f"max deviation {worst:.2e}")


def test_04_linear_blend_skinning(right_params):
    rest = lbs_forward(right_params, HandPose.rest("right"))
    identity_err = float(np.abs(rest.vertices - right_params.template_vertices).max())

    rng = np.random.default_rng(404)
    wrist = right_params.rest_keypoints[0]
    equivariance_err = 0.0
    blocks = np.tile(matrix_to_rot6d(np.eye(3)), (16, 1))
    for _ in range(100):
        r = random_rotation(rng)
        u = rng.uniform(-0.5, 0.5, 3)
        pose_blocks = blocks.copy()
        pose_blocks[0] = matrix_to_rot6d(r)
        hand = lbs_forward(
            right_params, HandPose(translation=u, pose=pose_blocks, handedness="right")
        )
        expected = (rest.vertices - wrist) @ r.T + wrist + u
        equivariance_err = max(equivariance_err, float(np.abs(hand.vertices - expected).max()))

    template = np.array([(0.5, 0, 0), (1.5, 0, 0), (1.2, 0.3, 0), (2.0, 0, 0)])
    weights = np.array([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.0, 1.0)])
    skinned, _ = skin_vertices(
        template,
        weights,
        np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]),
        np.array([-1, 0]),
        np.stack([np.eye(3), rot_z(np.pi / 2)]),
    )
    tiny_expected = np.array([(0.5, 0, 0), (1.0, 0.5, 0), (0.95, 0.25, 0), (1.0, 1.0, 0)])
    tiny_err = float(np.abs(skinned - tiny_expected).max())

    ok = identity_err <= 1e-12 and equivariance_err <= 1e-9 and tiny_err == 0.0
    _report(
        4,
        "linear-blend-skinning",
        ok,
        f"identity {identity_err:.2e}, equivariance {equivariance_err:.2e}, tiny-rig {tiny_err:.2e}",
    )


def test_05_rot6d_representation():
    rng = np.random.default_rng(505)
    round_trip_err = 0.0
    for _ in range(1000):
        r = random_rotation(rng)
        round_trip_err = max(
            round_trip_err, float(np.abs(rot6d_to_matrix(matrix_to_rot6d(r)) - r).max())
        )
    ortho_err = det_err = 0.0
    produced = 0
    while produced < 1000:
        r6 = rng.uniform(-2, 2, 6)
        v1, v2 = r6[:3], r6[3:]
        if np.linalg.norm(v1) < 1e-3 or np.linalg.norm(np.cross(v1, v2)) < 1e-3:
            continue
        r = rot6d_to_matrix(r6)
        ortho_err = max(ortho_err, float(np.linalg.norm(r.T @ r - np.eye(3))))
        det_err = max(det_err, abs(float(np.linalg.det(r)) - 1.0))
        produced += 1
    ok = round_trip_err <= 1e-12 and ortho_err <= 1e-9 and det_err <= 1e-9
    _report(
        5,
        "rot6d-representation",
        ok,
        f"round-trip {round_trip_err:.2e}, ortho {ortho_err:.2e}, det {det_err:.2e}",
    )


def _random_candidate(rng):
    return GraspCandidate(
        RigidTransform(random_rotation(rng), rng.uniform(-0.5, 0.5, 3)), width=0.05
    )


def test_06_grasp_selection(right_params):
    rng = np.random.default_rng(606)
    hand = lbs_forward(right_params, HandPose.rest("right"))
    v_h = hand_direction(hand)
    p_h = geometric_center(hand.vertices)

    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        mode = ("signed", "absolute")[int(rng.integers(2))]
        cfg = SelectionConfig(cosine_mode=mode, distance_weight=float(rng.uniform(0.2, 2.0)))
        candidates = [_random_candidate(rng) for _ in range(n)]
        index, _ = rank_candidates(candidate_set(candidates), hand, cfg)[0]
        scores = []
        for cand in candidates:
            p_g, v_g = cand.transform.translation, cand.transform.rotation[:, 2]
            cos = float(v_g @ v_h)
            if mode == "absolute":
                cos = abs(cos)
            scores.append(cos - cfg.distance_weight * float(np.linalg.norm(p_g - p_h)))
        if index != int(np.argmin(scores)):
            mismatches += 1

    def at_angle(angle_deg):
        axis = np.array([0.0, 0.0, 1.0])
        approach = np.cos(np.radians(angle_deg)) * v_h + np.sin(np.radians(angle_deg)) * axis
        pick = np.argmin(np.abs(approach))
        helper = np.zeros(3)
        helper[pick] = 1.0
        x = np.cross(helper, approach)
        x /= np.linalg.norm(x)
        rotation = np.column_stack([x, np.cross(approach, x), approach])
        return GraspCandidate(
            RigidTransform(rotation, p_h + 0.2 * np.array([1.0, 0, 0])), 0.05
        )

    fixture = candidate_set([at_angle(170.0), at_angle(90.0)])
    signed_pick = rank_candidates(fixture, hand, SelectionConfig(cosine_mode="signed"))[0][0]
    absolute_pick = rank_candidates(fixture, hand, SelectionConfig(cosine_mode="absolute"))[0][0]
    divergence_ok = signed_pick == 0 and absolute_pick == 1

    ok = mismatches == 0 and divergence_ok
    _report(
        6,
        "grasp-selection-argmin",
        ok,
        f"oracle mismatches {mismatches}/1000, divergence picks ({signed_pick},{absolute_pick})",
    )


def test_07_intent_grammar_round_trip(catalog):
    passes = 0
    total = 0
    for name in catalog.names:
        for hand in ("left", "right"):
            total += 1
            task = TaskDescription(name, hand)
            if parse_task_description(render_task_description(task), catalog) == task:
                passes += 1
    _report(7, "intent-grammar-round-trip", passes == total == 32, f"{passes}/{total}")


def test_08_accuracy_aggregation():
    average = tier_average([50.11, 40.51, 42.09])
    ok = abs(average - 44.24) <= 0.005
    _report(8, "accuracy-aggregation", ok, f"average {average:.4f}")


def test_09_hardware_constraints(cylinder_config, tmp_path):
    # over-wide candidate rejected at file load
    record = {"matrix": np.eye(4).reshape(-1).tolist(), "width_m": 0.08, "source": "file"}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps([record]))
    try:
        load_candidates(path)
        rejected_at_load = False
    except InvalidCandidate:
        rejected_at_load = True

    # and flagged by validation when smuggled into a configuration
    import dataclasses

    wide = GraspCandidate(cylinder_config.grasp.transform, width=0.08)
    config = dataclasses.replace(cylinder_config, grasp=wide)
    report = validate_configuration(config, GripperGeometry.default_parallel_jaw())
    rejected_at_validation = not report.checks["jaw_width"].passed

    # constructed overlap: sphere centered on a hand vertex reports negative distance
    hand = cylinder_config.hand
    geom = GripperGeometry(np.zeros((1, 3)), np.array([0.01]))
    overlap = GraspCandidate(RigidTransform(np.eye(3), hand.vertices[50]), 0.04)
    clearance = clearance_check(overlap, geom, hand, margin=0.005)
    overlap_flagged = (not clearance.passed) and clearance.min_distance < 0.0

    ok = rejected_at_load and rejected_at_validation and overlap_flagged
    _report(
        9,
        "hardware-constraints",
        ok,
        f"load {rejected_at_load}, validation {rejected_at_validation}, "
        f"overlap distance {clearance.min_distance:.4f} m",
    )


def test_10_end_to_end_desk_run():
    config = PipelineConfig.default()
    all_pass = True
    deterministic = True
    slowest = 0.0
    for cloud in (synthetic.cylinder_cloud(), synthetic.box_cloud()):
        task = TaskDescription(cloud.name, "right")
        serials = []
        for _ in range(2):
            start = time.perf_counter()
            result = imagine_configuration(
                task,
                cloud,
                ProceduralPoseProvider(),
                AntipodalGraspProvider(seed=13),
                config,
            )
            slowest = max(slowest, time.perf_counter() - start)
            revalidated = validate_configuration(
                result, config.gripper, config.selection.clearance_margin
            )
            all_pass = all_pass and result.validation.passed and revalidated.passed
            serials.append(result.to_json_text())
        deterministic = deterministic and serials[0] == serials[1]

        start = time.perf_counter()
        match_to_observation(result, result.hand.joints)
        slowest = max(slowest, time.perf_counter() - start)
    ok = all_pass and deterministic and slowest < 1.0
    _report(
        10,
        "end-to-end-desk-run",
        ok,
        f"validation {all_pass}, deterministic {deterministic}, slowest call {slowest:.3f}s",
    )


def test_11_wrist_sampler_bounds():
    ranges = WristRanges()
    samples = enumerate_receiving_poses(ranges=ranges)
    distinct = {tuple(s.angles_deg) for s in samples}
    in_bounds = all(ranges.contains(s.angles_deg) for s in samples)
    ok = len(samples) == 9 and len(distinct) == 9 and in_bounds
    _report(
        11,
        "wrist-sampler",
        ok,
        f"{len(samples)} poses, {len(distinct)} distinct, bounds {in_bounds}",
    )
