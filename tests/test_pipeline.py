import json

import numpy as np
import pytest

from handover import pipeline, synthetic
from handover.errors import (
    AllCandidatesCollide,
    DegenerateObservation,
    HandednessMismatch,
    ModelMismatch,
    ProviderEmpty,
    SchemaError,
)
from handover.geometry import (
    RigidTransform,
    matrix_to_quat,
    quat_to_matrix,
    random_frame,
    random_rotation,
    rot_z,
)
from handover.grasp import GraspCandidate, GripperGeometry
from handover.hand_model import (
    HandPose,
    frame_from_joints,
    geometric_center,
    hand_direction,
    lbs_forward,
)
from handover.intent import TaskDescription
from handover.pipeline import (
    AntipodalGraspProvider,
    CannedPoseProvider,
    HandoverConfiguration,
    HardwareLimits,
    PipelineConfig,
    ProceduralPoseProvider,
    StaticGraspProvider,
    imagine_configuration,
    load_configuration,
    match_to_observation,
    save_configuration,
    transport_grasp,
    validate_configuration,
)


def _approach_candidate(approach, translation, width=0.04):
    approach = np.asarray(approach, dtype=float)
    approach = approach / np.linalg.norm(approach)
    pick = np.argmin(np.abs(approach))
    helper = np.zeros(3)
    helper[pick] = 1.0
    x = np.cross(helper, approach)
    x /= np.linalg.norm(x)
    rotation = np.column_stack([x, np.cross(approach, x), approach])
    return GraspCandidate(RigidTransform(rotation, np.asarray(translation, float)), width)


@pytest.fixture(scope="module")
def cylinder_cloud():
    return synthetic.cylinder_cloud()


@pytest.fixture(scope="module")
def box():
    return synthetic.box_cloud()


@pytest.fixture(scope="module")
def pipe_config():
    return PipelineConfig.default()


class TestProviders:
    def test_canned_provider_lookup(self, cylinder_cloud, tmp_path):
        library = synthetic.default_pose_library({"cylinder": cylinder_cloud})
        path = tmp_path / "poses.json"
        path.write_text(json.dumps(library))
        provider = CannedPoseProvider.from_file(path)
        pose = provider(TaskDescription("cylinder", "left"), cylinder_cloud)
        assert pose.handedness == "left"

    def test_canned_provider_missing_entry(self, cylinder_cloud):
        provider = CannedPoseProvider(library={})
        with pytest.raises(ProviderEmpty):
            provider(TaskDescription("cylinder", "left"), cylinder_cloud)

    def test_procedural_provider_reaches_from_minus_x(self, cylinder_cloud):
        pose = ProceduralPoseProvider()(TaskDescription("cylinder", "right"), cylinder_cloud)
        assert pose.translation[0] < cylinder_cloud.points[:, 0].min()

    def test_static_provider_from_file(self, tmp_path, cylinder_cloud):
        from handover.grasp import save_candidates

        cands = [_approach_candidate((0, 0, 1), (0, 0, 0.1))]
        path = tmp_path / "grasps.json"
        save_candidates(cands, path)
        provider = StaticGraspProvider.from_file(path)
        out = provider(TaskDescription("cylinder", "right"), cylinder_cloud)
        assert len(out) == 1

    def test_antipodal_provider_deterministic(self, cylinder_cloud):
        provider = AntipodalGraspProvider(seed=9, count=8)
        task = TaskDescription("cylinder", "right")
        a = provider(task, cylinder_cloud)
        b = provider(task, cylinder_cloud)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.transform.as_matrix(), y.transform.as_matrix())


class TestImagine:
    def test_cylinder_fixture_passes_validation(self, cylinder_config):
        assert cylinder_config.validation.passed
        checks = cylinder_config.validation.checks
        assert checks["jaw_width"].measured <= 0.074
        assert checks["clearance"].measured >= 0.005

    def test_box_fixture_passes_validation(self, box, pipe_config):
        config = imagine_configuration(
            TaskDescription("box", "right"),
            box,
            ProceduralPoseProvider(),
            AntipodalGraspProvider(seed=3),
            pipe_config,
        )
        assert config.validation.passed

    def test_wrong_handedness_pose_rejected(self, cylinder_cloud, pipe_config):
        def wrong_hand(task, cloud):
            return synthetic.receiving_pose_for(cloud, "left")

        with pytest.raises(ProviderEmpty):
            imagine_configuration(
                TaskDescription("cylinder", "right"),
                cylinder_cloud,
                wrong_hand,
                AntipodalGraspProvider(),
                pipe_config,
            )

    def test_empty_grasp_provider_rejected(self, cylinder_cloud, pipe_config):
        with pytest.raises(ProviderEmpty):
            imagine_configuration(
                TaskDescription("cylinder", "right"),
                cylinder_cloud,
                ProceduralPoseProvider(),
                lambda task, cloud: [],
                pipe_config,
            )

    def test_single_colliding_candidate_errors(self, cylinder_cloud, pipe_config):
        hand_pose = synthetic.receiving_pose_for(cylinder_cloud, "right")
        hand = lbs_forward(pipe_config.model_for("right"), hand_pose)
        at_hand = _approach_candidate(
            -hand_direction(hand), geometric_center(hand.vertices)
        )
        with pytest.raises(AllCandidatesCollide) as err:
            imagine_configuration(
                TaskDescription("cylinder", "right"),
                cylinder_cloud,
                lambda task, cloud: hand_pose,
                lambda task, cloud: [at_hand],
                pipe_config,
            )
        assert len(err.value.min_distances) == 1
        assert err.value.min_distances[0] < 0.005

    def test_fallback_to_runner_up_when_best_collides(self, cylinder_cloud, pipe_config):
        """Best-scoring candidate sits inside the hand; the runner-up, far
        away and badly angled, must be selected with the skip recorded."""
        hand_pose = synthetic.receiving_pose_for(cylinder_cloud, "right")
        hand = lbs_forward(pipe_config.model_for("right"), hand_pose)
        v_h = hand_direction(hand)
        p_h = geometric_center(hand.vertices)
        best_but_colliding = _approach_candidate(-v_h, p_h)
        runner_up = _approach_candidate(v_h, p_h + 0.5 * v_h)
        config = imagine_configuration(
            TaskDescription("cylinder", "right"),
            cylinder_cloud,
            lambda task, cloud: hand_pose,
            lambda task, cloud: [best_but_colliding, runner_up],
            pipe_config,
        )
        assert config.selection.selected_index == 1
        assert len(config.selection.fallbacks) == 1
        assert config.selection.fallbacks[0]["index"] == 0
        assert config.selection.fallbacks[0]["min_distance_m"] < 0.005

    def test_missing_hand_model_raises(self, cylinder_cloud):
        config = PipelineConfig(hand_models={"right": synthetic.synthetic_hand_params("right")})
        with pytest.raises(ModelMismatch):
            imagine_configuration(
                TaskDescription("cylinder", "left"),
                cylinder_cloud,
                ProceduralPoseProvider(),
                AntipodalGraspProvider(),
                config,
            )

    def test_deterministic_serialization(self, cylinder_cloud, pipe_config):
        def run():
            return imagine_configuration(
                TaskDescription("cylinder", "right"),
                cylinder_cloud,
                ProceduralPoseProvider(),
                AntipodalGraspProvider(seed=21),
                pipe_config,
            ).to_json_text()

        assert run() == run()


class TestMatch:
    def _observed_equal_to_imagined_frame(self, config):
        """Joints whose keypoint frame coincides with the stored hand frame."""
        joints = config.hand.joints
        shift = config.hand_frame.center - geometric_center(joints)
        return joints + shift

    def test_identical_frames_give_grasp_unchanged(self, cylinder_config):
        observed = self._observed_equal_to_imagined_frame(cylinder_config)
        target = match_to_observation(cylinder_config, observed)
        assert np.allclose(target.transform.as_matrix(), np.eye(4), atol=1e-9)
        assert np.allclose(
            target.position, cylinder_config.grasp.transform.translation, atol=1e-9
        )
        assert np.allclose(
            quat_to_matrix(target.quaternion),
            cylinder_config.grasp.transform.rotation,
            atol=1e-9,
        )

    def test_pure_translation_shifts_target_exactly(self, cylinder_config):
        observed = self._observed_equal_to_imagined_frame(cylinder_config)
        target0 = match_to_observation(cylinder_config, observed)
        lifted = match_to_observation(cylinder_config, observed + (0.0, 0.0, 0.2))
        assert np.allclose(lifted.position - target0.position, (0, 0, 0.2), atol=1e-9)
        assert np.allclose(lifted.quaternion, target0.quaternion, atol=1e-9)

    def test_relative_pose_preserved_for_random_observations(self, cylinder_config, rng):
        imagined_rel = cylinder_config.hand_frame.as_transform().inverse().compose(
            cylinder_config.grasp.transform
        )
        for _ in range(50):
            motion = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3))
            observed = motion.apply(cylinder_config.hand.joints)
            target = match_to_observation(cylinder_config, observed)
            real_frame = frame_from_joints(observed)
            target_pose = RigidTransform(quat_to_matrix(target.quaternion), target.position)
            real_rel = real_frame.as_transform().inverse().compose(target_pose)
            assert np.allclose(
                real_rel.as_matrix(), imagined_rel.as_matrix(), atol=1e-9
            )

    def test_matching_conditions_hold(self, cylinder_config, rng):
        motion = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3))
        observed = motion.apply(cylinder_config.hand.joints)
        target = match_to_observation(cylinder_config, observed)
        real = frame_from_joints(observed)
        h = target.transform
        assert np.allclose(h.apply(cylinder_config.hand_frame.center), real.center, atol=1e-9)
        assert h.rotate(cylinder_config.hand_frame.direction) @ real.direction >= 1 - 1e-9
        normal_angle = np.arccos(
            np.clip(h.rotate(cylinder_config.hand_frame.normal) @ real.normal, -1, 1)
        )
        assert normal_angle <= 1e-6

    def test_wrong_handedness_rejected(self, cylinder_config):
        mirrored = cylinder_config.hand.joints.copy()
        mirrored[:, 1] *= -1.0
        with pytest.raises(HandednessMismatch):
            match_to_observation(cylinder_config, mirrored)

    def test_degenerate_observation_rejected(self, cylinder_config):
        bad = cylinder_config.hand.joints.copy()
        bad[3, 1] = np.nan
        with pytest.raises(DegenerateObservation):
            match_to_observation(cylinder_config, bad)
        with pytest.raises(DegenerateObservation):
            match_to_observation(cylinder_config, np.zeros((21, 3)))

    def test_handedness_classified_once_per_match(self, cylinder_config, monkeypatch):
        from handover import hand_model

        calls = []
        original = hand_model.classify_handedness

        def counting(joints):
            calls.append(1)
            return original(joints)

        monkeypatch.setattr(hand_model, "classify_handedness", counting)
        monkeypatch.setattr(pipeline, "classify_handedness", counting)
        match_to_observation(cylinder_config, cylinder_config.hand.joints + 0.1)
        assert len(calls) == 1

    def test_transport_grasp_against_frames(self, rng):
        for _ in range(50):
            imagined, real = random_frame(rng), random_frame(rng)
            grasp = RigidTransform(random_rotation(rng), rng.uniform(-0.3, 0.3, 3))
            target = transport_grasp(imagined, real, grasp)
            lhs = real.as_transform().inverse().compose(
                RigidTransform(quat_to_matrix(target.quaternion), target.position)
            )
            rhs = imagined.as_transform().inverse().compose(grasp)
            assert np.allclose(lhs.as_matrix(), rhs.as_matrix(), atol=1e-9)


class TestValidateConfiguration:
    def test_fixture_report_all_pass(self, cylinder_config):
        report = validate_configuration(
            cylinder_config, GripperGeometry.default_parallel_jaw()
        )
        assert report.passed
        assert set(report.checks) == {"jaw_width", "clearance", "grasp_rotation", "hand_frame"}

    def test_overwide_grasp_fails_width_check(self, cylinder_config):
        import dataclasses

        wide = GraspCandidate(cylinder_config.grasp.transform, width=0.08)
        config = dataclasses.replace(cylinder_config, grasp=wide)
        report = validate_configuration(config, GripperGeometry.default_parallel_jaw())
        assert not report.checks["jaw_width"].passed
        assert report.checks["jaw_width"].measured == pytest.approx(0.08)
        assert not report.passed

    def test_penetrating_gripper_fails_clearance(self, cylinder_config):
        import dataclasses

        inside = GraspCandidate(
            RigidTransform(np.eye(3), geometric_center(cylinder_config.hand.vertices)),
            width=0.04,
        )
        config = dataclasses.replace(cylinder_config, grasp=inside)
        report = validate_configuration(config, GripperGeometry.default_parallel_jaw())
        assert not report.checks["clearance"].passed
        assert report.checks["clearance"].measured < 0.0

    def test_stored_clearance_used_without_gripper(self, cylinder_config):
        report = validate_configuration(cylinder_config, gripper=None)
        assert report.checks["clearance"].measured == pytest.approx(
            cylinder_config.selection.clearance.min_distance
        )

    def test_custom_limits(self, cylinder_config):
        strict = HardwareLimits(max_jaw_width=0.01, min_clearance=0.5)
        report = validate_configuration(
            cylinder_config, GripperGeometry.default_parallel_jaw(), strict
        )
        assert not report.checks["jaw_width"].passed
        assert not report.checks["clearance"].passed


class TestSerialization:
    def test_file_round_trip(self, cylinder_config, tmp_path):
        path = tmp_path / "config.json"
        save_configuration(cylinder_config, path)
        loaded = load_configuration(path)
        assert loaded.task == cylinder_config.task
        assert np.allclose(loaded.hand.vertices, cylinder_config.hand.vertices)
        assert np.allclose(
            loaded.grasp.transform.as_matrix(),
            cylinder_config.grasp.transform.as_matrix(),
        )
        assert loaded.validation.passed
        # serialization is stable across a round trip
        assert loaded.to_json_text() == cylinder_config.to_json_text()

    def test_match_after_reload_is_identical(self, cylinder_config, tmp_path, rng):
        path = tmp_path / "config.json"
        save_configuration(cylinder_config, path)
        loaded = load_configuration(path)
        motion = RigidTransform(rot_z(0.4), np.array([0.1, 0.2, 0.3]))
        observed = motion.apply(cylinder_config.hand.joints)
        a = match_to_observation(cylinder_config, observed)
        b = match_to_observation(loaded, observed)
        assert np.allclose(a.position, b.position, atol=1e-12)
        assert np.allclose(a.quaternion, b.quaternion, atol=1e-12)

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema": "handover-config/0"}))
        with pytest.raises(SchemaError):
            load_configuration(path)

    def test_quaternion_provenance_fields(self, cylinder_config):
        observed = cylinder_config.hand.joints + (
            cylinder_config.hand_frame.center - geometric_center(cylinder_config.hand.joints)
        )
        target = match_to_observation(cylinder_config, observed)
        doc = target.to_json_dict()
        assert doc["schema"] == "end-effector-target/1"
        assert len(doc["matching_transform"]) == 16
        assert np.allclose(
            matrix_to_quat(quat_to_matrix(doc["quaternion_wxyz"])), doc["quaternion_wxyz"]
        )
