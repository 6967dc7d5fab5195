import base64
import dataclasses
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from handover import pipeline, synthetic
from handover.cloud import ObjectCloud
from handover.errors import (
    AllCandidatesCollide,
    DegenerateObservation,
    HandednessMismatch,
    HandoverError,
    InvalidCandidate,
    ModelMismatch,
    ProviderEmpty,
    SchemaError,
)
from handover.geometry import (
    RigidTransform,
    matrix_to_quat,
    quat_to_matrix,
    rot_z,
)
from handover.grasp import GraspCandidate, GripperGeometry, clearance_check
from handover.hand_model import (
    INDEX_BASE,
    MIDDLE_TIP,
    PINKY_BASE,
    WRIST,
    HandPose,
    direction_from_joints,
    frame_from_joints,
    geometric_center,
    lbs_forward,
)
from handover.intent import TaskDescription
from handover.pipeline import (
    AntipodalGraspProvider,
    CannedPoseProvider,
    HandoverConfiguration,
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

from helpers import (
    candidate_set,
    default_pose_library,
    random_frame,
    random_rotation,
    reference_match,
    rotation_residual_reference,
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
        library = default_pose_library({"cylinder": cylinder_cloud})
        path = tmp_path / "poses.json"
        path.write_text(json.dumps(library))
        provider = CannedPoseProvider.from_file(path)
        pose = provider(TaskDescription("cylinder", "left"), cylinder_cloud)
        assert pose.handedness == "left"

    def test_canned_provider_missing_entry(self, cylinder_cloud):
        provider = CannedPoseProvider(library={})
        with pytest.raises(ProviderEmpty):
            provider(TaskDescription("cylinder", "left"), cylinder_cloud)

    @pytest.mark.parametrize("library", [{"cylinder": "x"}, {"cylinder": {"left": "x"}}])
    def test_canned_provider_rejects_malformed_entry(self, cylinder_cloud, library):
        with pytest.raises(SchemaError):
            CannedPoseProvider(library=library)(TaskDescription("cylinder", "left"), cylinder_cloud)

    def test_procedural_provider_reaches_from_minus_x(self, cylinder_cloud):
        pose = ProceduralPoseProvider()(TaskDescription("cylinder", "right"), cylinder_cloud)
        assert pose.translation[0] < cylinder_cloud.points[:, 0].min()

    def test_static_provider_from_file(self, tmp_path, cylinder_cloud):
        from handover.grasp import save_candidates

        cands = [_approach_candidate((0, 0, 1), (0, 0, 0.1))]
        path = tmp_path / "grasps.json"
        save_candidates(candidate_set(cands), path)
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
        for nothing in (None, candidate_set([])):
            with pytest.raises(ProviderEmpty):
                imagine_configuration(
                    TaskDescription("cylinder", "right"),
                    cylinder_cloud,
                    ProceduralPoseProvider(),
                    lambda task, cloud: nothing,
                    pipe_config,
                )

    def test_single_colliding_candidate_errors(self, cylinder_cloud, pipe_config):
        hand_pose = synthetic.receiving_pose_for(cylinder_cloud, "right")
        hand = lbs_forward(pipe_config.model_for("right"), hand_pose)
        at_hand = _approach_candidate(
            -direction_from_joints(hand.joints), geometric_center(hand.vertices)
        )
        with pytest.raises(AllCandidatesCollide) as err:
            imagine_configuration(
                TaskDescription("cylinder", "right"),
                cylinder_cloud,
                lambda task, cloud: hand_pose,
                lambda task, cloud: candidate_set([at_hand]),
                pipe_config,
            )
        assert len(err.value.min_distances) == 1
        assert err.value.min_distances[0] < 0.005

    def test_fallback_to_runner_up_when_best_collides(self, cylinder_cloud, pipe_config):
        """Best-scoring candidate sits inside the hand; the runner-up, far
        away and badly angled, must be selected with the skip recorded."""
        hand_pose = synthetic.receiving_pose_for(cylinder_cloud, "right")
        hand = lbs_forward(pipe_config.model_for("right"), hand_pose)
        v_h = direction_from_joints(hand.joints)
        p_h = geometric_center(hand.vertices)
        best_but_colliding = _approach_candidate(-v_h, p_h)
        runner_up = _approach_candidate(v_h, p_h + 0.5 * v_h)
        config = imagine_configuration(
            TaskDescription("cylinder", "right"),
            cylinder_cloud,
            lambda task, cloud: hand_pose,
            lambda task, cloud: candidate_set([best_but_colliding, runner_up]),
            pipe_config,
        )
        assert config.selection.selected_index == 1
        assert len(config.selection.fallbacks) == 1
        assert config.selection.fallbacks[0]["index"] == 0
        assert config.selection.fallbacks[0]["min_distance_m"] < 0.005

    def test_only_the_chosen_grasp_is_measured_when_best_passes(self, cylinder_cloud,
                                                                pipe_config, monkeypatch):
        """Once, where the configuration derives its clearance, which is the
        gate; no other candidate is measured."""
        calls = []
        original = pipeline.clearance_check

        def counting(candidate, *args, **kwargs):
            calls.append(candidate)
            return original(candidate, *args, **kwargs)

        monkeypatch.setattr(pipeline, "clearance_check", counting)
        config = imagine_configuration(
            TaskDescription("cylinder", "right"),
            cylinder_cloud,
            ProceduralPoseProvider(),
            AntipodalGraspProvider(seed=7),
            pipe_config,
        )
        assert config.selection.fallbacks == ()
        assert len(calls) == 1
        for grasp in calls:
            assert np.array_equal(grasp.transform.as_matrix(), config.grasp.transform.as_matrix())
        assert config.validation.checks["clearance"].measured == config.selection.clearance.min_distance

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

    @pytest.mark.parametrize("width", [0.08, float("nan")], ids=["overwide", "nan"])
    def test_invalid_candidate_from_provider_rejected(self, cylinder_cloud, pipe_config, width):
        """No provider can hand imagine_configuration a bad candidate: building
        its CandidateSet raises."""
        bad = _approach_candidate((0, 0, 1), (0, 0, 0.1), width=width)
        with pytest.raises(InvalidCandidate):
            imagine_configuration(
                TaskDescription("cylinder", "right"),
                cylinder_cloud,
                ProceduralPoseProvider(),
                lambda task, cloud: candidate_set([bad]),
                pipe_config,
            )

    def test_invalid_candidate_names_its_index(self, cylinder_cloud, pipe_config):
        good = _approach_candidate((0, 0, 1), (0, 0, 0.1))
        overwide = _approach_candidate((0, 0, 1), (0, 0, 0.1), width=0.08)
        candidates = [good, good, good, overwide, good, overwide]
        with pytest.raises(InvalidCandidate, match="^candidate 3: jaw width 0.08 m"):
            imagine_configuration(
                TaskDescription("cylinder", "right"),
                cylinder_cloud,
                ProceduralPoseProvider(),
                lambda task, cloud: candidate_set(candidates),
                pipe_config,
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


@functools.lru_cache(maxsize=None)
def _imagined(shape, handedness):
    """conftest's cylinder_config and its box and left-hand kin, built here:
    hypothesis prints the arguments of a failing example, and a fixture
    argument would print the whole record."""
    return imagine_configuration(
        TaskDescription(shape, handedness),
        getattr(synthetic, f"{shape}_cloud")(),
        ProceduralPoseProvider(),
        AntipodalGraspProvider(seed=7),
        PipelineConfig.default(),
    )


class TestMatch:
    def _observed_equal_to_imagined_frame(self, config):
        """Joints whose keypoint frame coincides with the stored hand frame."""
        joints = config.hand.joints
        assert np.array_equal(config.hand_frame.center, geometric_center(joints))
        return joints

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
            real_frame = frame_from_joints(observed, "right")
            target_pose = RigidTransform(quat_to_matrix(target.quaternion), target.position)
            real_rel = real_frame.as_transform().inverse().compose(target_pose)
            assert np.allclose(
                real_rel.as_matrix(), imagined_rel.as_matrix(), atol=1e-9
            )

    @pytest.mark.parametrize("shape", ["cylinder", "box"])
    @pytest.mark.parametrize("handedness", ["right", "left"])
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(
        quaternion=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda q: np.linalg.norm(q) > 0.1
        ),
        shift=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    )
    def test_rigid_motion_of_imagined_joints_moves_target_rigidly(
        self, shape, handedness, quaternion, shift
    ):
        """An independent oracle: the observed hand is the imagined one moved
        by M, so the target must be M applied to the imagined grasp."""
        config = _imagined(shape, handedness)
        q = np.array(quaternion) / np.linalg.norm(quaternion)
        motion = RigidTransform(quat_to_matrix(q), np.array(shift))
        target = match_to_observation(config, motion.apply(config.hand.joints))
        want = motion.compose(config.grasp.transform)
        error_mm = 1e3 * np.linalg.norm(target.position - want.translation)
        assert error_mm <= 1e-6, f"target is {error_mm:.3g} mm from M.grasp"
        assert np.allclose(quat_to_matrix(target.quaternion), want.rotation, rtol=0, atol=1e-9)

    def test_matching_conditions_hold(self, cylinder_config, rng):
        motion = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3))
        observed = motion.apply(cylinder_config.hand.joints)
        target = match_to_observation(cylinder_config, observed)
        real = frame_from_joints(observed, "right")
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


def _match_outcome(match, config, observed):
    """The bytes of a match's position, quaternion and transform, or the
    type and message of its refusal."""
    try:
        position, quaternion, matrix = match(config, observed)
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc).__name__, str(exc)
    return "target", position.tobytes(), quaternion.tobytes(), matrix.tobytes()


def _package_match(config, observed):
    target = match_to_observation(config, observed)
    return target.position, target.quaternion, target.transform.as_matrix()


class TestPerFrameReference:
    def _crafted_frames(self, config):
        """Frames that reach the refusals random motion does not."""
        j = config.hand.joints
        no_direction = j.copy()
        no_direction[MIDDLE_TIP] = j[WRIST]
        palm = np.cross(j[INDEX_BASE] - j[WRIST], j[PINKY_BASE] - j[WRIST])
        along_normal = j.copy()
        along_normal[MIDDLE_TIP] = j[WRIST] + 10.0 * palm
        not_finite = j.copy()
        not_finite[4, 2] = np.inf
        mirrored = j * np.array([1.0, -1.0, 1.0])
        return [no_direction, along_normal, not_finite, mirrored, 1e-4 * j, np.zeros((21, 3))]

    def test_bitwise_equal_to_reference_on_seeded_frames(self):
        """1200 moved, noisy frames plus crafted ones, over cylinder and box
        configurations of both hands and one that failed validation, drawn
        in random order: each configuration's cached rotation and quaternion
        serve many frames and must never reach another's."""
        configs = [
            _imagined(shape, hand) for shape in ("cylinder", "box") for hand in ("right", "left")
        ]
        wide = GraspCandidate(configs[0].grasp.transform, width=0.08)
        configs.append(dataclasses.replace(configs[0], grasp=wide))
        rng = np.random.default_rng(2024)
        frames = []
        for k in range(1200):
            c = int(rng.integers(len(configs)))
            motion = RigidTransform(random_rotation(rng), rng.uniform(-1.0, 1.0, 3))
            noise = 1e-3 * (0.0, 2.0, 5.0)[k % 3] * rng.normal(size=(21, 3))
            frames.append((c, motion.apply(configs[c].hand.joints) + noise))
        for c in range(4):
            frames += [(c, observed) for observed in self._crafted_frames(configs[c])]
        seen = set()
        for k, (c, observed) in enumerate(frames):
            got = _match_outcome(_package_match, configs[c], observed)
            want = _match_outcome(reference_match, configs[c], observed)
            assert got == want, f"frame {k} (configuration {c}): {got[:2]} != {want[:2]}"
            seen.add(got[0])
        assert seen == {
            "target",
            "HandednessMismatch",
            "DegenerateObservation",
            "ParallelAxes",
            "ValidationFailed",
        }

    def test_replaced_grasp_never_brings_the_old_quaternion(self, cylinder_config):
        old = cylinder_config.grasp.transform
        match_to_observation(cylinder_config, cylinder_config.hand.joints)  # fills the caches
        turned = RigidTransform(old.rotation @ rot_z(0.3), old.translation)
        config = dataclasses.replace(cylinder_config, grasp=GraspCandidate(turned, width=0.04))
        assert config.grasp.transform.quaternion is not old.quaternion
        assert np.array_equal(config.grasp.transform.quaternion, matrix_to_quat(turned.rotation))
        assert not np.array_equal(config.grasp.transform.quaternion, old.quaternion)
        target = match_to_observation(config, config.hand.joints)
        assert np.allclose(target.quaternion, matrix_to_quat(turned.rotation), rtol=0, atol=1e-12)


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

    def test_recorded_clearance_is_the_remeasured_one(self, cylinder_config):
        config = cylinder_config
        measured = clearance_check(
            config.grasp, GripperGeometry.default_parallel_jaw(), config.hand
        ).min_distance
        record = json.loads(config.to_json_text())
        for recorded in (record["selection"]["clearance_m"],
                         record["validation"]["clearance"]["measured"]):
            assert np.float64(recorded).tobytes() == np.float64(measured).tobytes()

    def test_recorded_rotation_residual_is_the_inline_oracle(self, cylinder_cloud, box,
                                                             pipe_config):
        """Every sampled config writes, bitwise, max(max|R^T R - I|, |det R - 1|)
        computed on Python floats without the package's helper."""
        for cloud in (cylinder_cloud, box):
            for handedness in ("right", "left"):
                for seed in range(5):
                    config = imagine_configuration(
                        TaskDescription(cloud.name, handedness),
                        cloud,
                        ProceduralPoseProvider(),
                        AntipodalGraspProvider(seed=seed),
                        pipe_config,
                    )
                    want = rotation_residual_reference(config.grasp.transform.rotation)
                    record = json.loads(config.to_json_text())["validation"]["grasp_rotation"]
                    assert record == {"passed": True, "measured": want, "limit": 1e-9}

    def test_custom_limits(self, cylinder_config):
        gripper = GripperGeometry.default_parallel_jaw()
        report = validate_configuration(cylinder_config, gripper, min_clearance=0.5)
        assert report.checks["jaw_width"].passed
        assert not report.checks["clearance"].passed
        assert report.checks["clearance"].limit == 0.5

        wide = GraspCandidate(cylinder_config.grasp.transform, 0.08)
        report = validate_configuration(dataclasses.replace(cylinder_config, grasp=wide))
        assert not report.checks["jaw_width"].passed
        assert report.checks["jaw_width"].limit == 0.074


def _v1_json_dict(config):
    """The handover-config/1 writer: its records held the arrays as number lists."""
    cloud = config.cloud
    return {
        "schema": "handover-config/1",
        "task": config.task.to_dict(),
        "cloud": {
            "name": cloud.name,
            "points": cloud.points.tolist(),
            "normals": None if cloud.normals is None else cloud.normals.tolist(),
        },
        "hand_pose": config.hand_pose.to_dict(),
        "hand": {
            "vertices": config.hand.vertices.tolist(),
            "joints": config.hand.joints.tolist(),
            "handedness": config.hand.handedness,
        },
        "grasp": config.grasp.to_dict(),
        "hand_frame": {
            "center": config.hand_frame.center.tolist(),
            "direction": config.hand_frame.direction.tolist(),
            "normal": config.hand_frame.normal.tolist(),
        },
        "selection": config.selection.to_dict(),
        "validation": config.validation.to_dict(),
    }


def _record_arrays(config):
    return {
        "cloud.points": config.cloud.points,
        "cloud.normals": config.cloud.normals,
        "hand.vertices": config.hand.vertices,
        "hand.joints": config.hand.joints,
        "hand_pose.pose": config.hand_pose.pose,
        "grasp.matrix": config.grasp.transform.as_matrix(),
        "hand_frame.center": config.hand_frame.center,
    }


def _assert_bitwise(a, b):
    assert a.dtype == b.dtype == np.float64
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _truncated_points(doc):
    doc["cloud"]["points"] = doc["cloud"]["points"][:-3]


def _ragged_normals(doc):
    normals = base64.b64decode(doc["cloud"]["normals"])
    doc["cloud"]["normals"] = base64.b64encode(normals + bytes(8)).decode("ascii")


def _old_schema(doc):
    doc["schema"] = "handover-config/0"


def _assert_rejected(config, tmp_path, capsys, corrupt):
    """load_configuration raises SchemaError and `handover match` exits 2."""
    from handover.cli import main

    doc = config.to_json_dict()
    corrupt(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_configuration(path)
    observed = tmp_path / "obs.json"
    observed.write_text(json.dumps(config.hand.joints.tolist()))
    out = tmp_path / "target.json"
    argv = ["match", "--config", str(path), "--observed-keypoints", str(observed)]
    assert main(argv + ["--out", str(out)]) == 2
    assert "SchemaError" in capsys.readouterr().err
    assert not out.exists()


class TestSerialization:
    def test_file_round_trip(self, cylinder_config, tmp_path):
        path = tmp_path / "config.json"
        save_configuration(cylinder_config, path)
        loaded = load_configuration(path)
        assert loaded.task == cylinder_config.task
        before, after = _record_arrays(cylinder_config), _record_arrays(loaded)
        for name in before:
            _assert_bitwise(before[name], after[name])
        assert loaded.validation.passed
        assert loaded.to_json_text() == cylinder_config.to_json_text()

    def test_match_after_reload_is_identical(self, cylinder_config, tmp_path):
        motion = RigidTransform(rot_z(0.4), np.array([0.1, 0.2, 0.3]))
        observed = motion.apply(cylinder_config.hand.joints)
        a = match_to_observation(cylinder_config, observed)
        path = tmp_path / "config.json"
        save_configuration(cylinder_config, path)
        b = match_to_observation(load_configuration(path), observed)
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.quaternion, b.quaternion)
        assert np.array_equal(a.transform.as_matrix(), b.transform.as_matrix())

    def test_record_names_the_model_instead_of_storing_the_skin(self, cylinder_config):
        hand = json.loads(cylinder_config.to_json_text())["hand"]
        assert sorted(hand) == ["handedness", "joints", "model_sha256"]
        assert hand["model_sha256"] == synthetic.synthetic_hand_params("right").model_sha256

    def test_loaded_hand_is_skinned_with_the_default_models(self, cylinder_config, tmp_path):
        """The same model objects as PipelineConfig.default(), so the skinning
        cache that imagine filled serves the load."""
        save_configuration(cylinder_config, tmp_path / "config.json")
        loaded = load_configuration(tmp_path / "config.json")
        assert loaded.hand_model is PipelineConfig.default().hand_models["right"]

    def test_names_the_hand_model_flag_for_an_unknown_digest(self, cylinder_config):
        right = synthetic.synthetic_hand_params("right")
        larger = dataclasses.replace(right, template_vertices=right.template_vertices * 1.001)
        doc = cylinder_config.to_json_dict()
        for models in ({"right": larger}, {"left": right.mirrored()}):
            with pytest.raises(SchemaError, match="--hand-model"):
                HandoverConfiguration.from_json_dict(doc, models)

    def test_rejects_wrong_schema(self, cylinder_config, tmp_path, capsys):
        _assert_rejected(cylinder_config, tmp_path, capsys, _old_schema)

    def test_rejects_v1_record(self, cylinder_config, tmp_path, capsys):
        """A handover-config/1 record, and the /2 record of
        tests/golden/v2_cylinder_right_1.json as the last /2 writer wrote it,
        are refused, though their derived parts agree with today's rules."""
        v2 = json.loads((Path(__file__).parent / "golden" / "v2_cylinder_right_1.json").read_text())
        for old in (_v1_json_dict(cylinder_config), v2):
            with pytest.raises(SchemaError, match="^expected schema 'handover-config/3'; re-run"):
                HandoverConfiguration.from_json_dict(old)
            _assert_rejected(cylinder_config, tmp_path, capsys, lambda doc: doc.update(old))

    @pytest.mark.parametrize("corrupt", [_truncated_points, _ragged_normals])
    def test_rejects_corrupt_arrays(self, cylinder_config, tmp_path, capsys, corrupt):
        _assert_rejected(cylinder_config, tmp_path, capsys, corrupt)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("hand_frame", "center", 1), float("nan")),
            (("hand_frame", "direction", 0), float("inf")),
            (("grasp", "matrix", 3), float("inf")),
            (("grasp", "matrix", 14), float("nan")),
            (("hand_pose", "pose", 2, 1), float("nan")),
            (("hand_pose", "translation", 0), -float("inf")),
        ],
        ids=["center", "direction", "translation", "bottom-row", "pose", "pose-translation"],
    )
    def test_reader_rejects_non_finite_values(self, cylinder_config, keys, value):
        doc = json.loads(cylinder_config.to_json_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        with pytest.raises(SchemaError, match="^bad configuration record: |^bad grasp record: "
                           "|^bad hand pose record: "):
            HandoverConfiguration.from_json_dict(doc)

    def test_quaternion_provenance_fields(self, cylinder_config):
        target = match_to_observation(cylinder_config, cylinder_config.hand.joints)
        doc = target.to_json_dict()
        assert doc["schema"] == "end-effector-target/1"
        assert len(doc["matching_transform"]) == 16
        assert np.allclose(
            matrix_to_quat(quat_to_matrix(doc["quaternion_wxyz"])), doc["quaternion_wxyz"]
        )


# Fixture clouds of 50-256 points with exact normals: a cylinder of rings x
# points per ring, or a box of 6 * per_edge**2 points.
_FIXTURE_CLOUDS = st.one_of(
    st.tuples(st.just("cylinder"), st.integers(3, 12), st.integers(12, 24)).filter(
        lambda c: 50 <= c[1] * c[2] <= 256
    ),
    st.tuples(st.just("box"), st.integers(3, 6)),
)


def _fixture_cloud(spec):
    if spec[0] == "cylinder":
        return synthetic.cylinder_cloud(rings=spec[1], per_ring=spec[2])
    return synthetic.box_cloud(per_edge=spec[1])


class TestRecordRoundTrip:
    @settings(max_examples=24, derandomize=True, deadline=None)
    @given(
        cloud=_FIXTURE_CLOUDS,
        handedness=st.sampled_from(["right", "left"]),
        seed=st.integers(0, 2**16),
    )
    def test_load_and_save_change_nothing(self, cloud, handedness, seed):
        """Load then save gives the saved bytes again, and the loaded record
        matches any observation to the imagined record's target, bit for bit."""
        cloud = _fixture_cloud(cloud)
        try:
            config = imagine_configuration(
                TaskDescription(cloud.name, handedness), cloud, ProceduralPoseProvider(),
                AntipodalGraspProvider(seed=seed), PipelineConfig.default(),
            )
        except HandoverError:
            assume(False)  # no candidate or none clear of the hand: no record
        with tempfile.TemporaryDirectory() as tmp:
            first, again = Path(tmp) / "a.json", Path(tmp) / "b.json"
            save_configuration(config, first)
            loaded = load_configuration(first)
            save_configuration(loaded, again)
            assert again.read_bytes() == first.read_bytes()

        rng = np.random.default_rng(seed)
        motion = RigidTransform(random_rotation(rng), rng.uniform(-0.5, 0.5, 3))
        observed = motion.apply(config.hand.joints)
        a, b = match_to_observation(config, observed), match_to_observation(loaded, observed)
        for x, y in ((a.position, b.position), (a.quaternion, b.quaternion),
                     (a.transform.as_matrix(), b.transform.as_matrix())):
            _assert_bitwise(x, y)


# Strings json.dumps escapes, or that look like the record's own text: a
# quote, a backslash, NUL and other control characters, non-ASCII text, a
# lone surrogate and a JSON fragment.
_AWKWARD_TEXT = [
    'say "hi"',
    "back\\slash",
    "nul\x00byte",
    "\x01\x1f\n\t\r",
    "café ☕ 手",
    "half \ud800 pair",
    '", "points": "AAAA',
]


class TestRecordText:
    @pytest.mark.parametrize("normals", [True, False], ids=["normals", "no-normals"])
    @pytest.mark.parametrize("text", _AWKWARD_TEXT)
    def test_awkward_text_survives_save_and_load(self, cylinder_config, tmp_path, text, normals):
        """As the cloud name, grasp source, task object and a fallback's field."""
        config = cylinder_config
        cloud = ObjectCloud(text, config.cloud.points, config.cloud.normals if normals else None)
        grasp = GraspCandidate(config.grasp.transform, config.grasp.width, text)
        config = HandoverConfiguration(
            TaskDescription(text, config.task.handedness), cloud, config.hand_pose, config.hand,
            grasp, config.selected_index, config.score,
            ({"index": 0, "min_distance_m": 0.001, "note": text},), config.clearance_margin,
            config.hand_model,
        )
        save_configuration(config, tmp_path / "config.json")
        loaded = load_configuration(tmp_path / "config.json")
        assert loaded.cloud.name == loaded.grasp.source == loaded.task.object_name == text
        assert (loaded.cloud.normals is None) == (not normals)
        assert loaded.to_json_text() == config.to_json_text()


# Leaves of the parts a loaded record derives, and edits that may or may not
# change their JSON text: a zero's sign, 1.0 against 1, True against 1, a
# leaf put in a list, and a list read as a tuple (the same JSON array).
_DERIVED_LEAVES = [
    ("hand_frame", "center", 0),
    ("hand_frame", "direction", 0),
    ("hand_frame", "direction", 1),
    ("hand_frame", "direction"),
    ("selection", "clearance_m"),
    ("validation", "clearance", "passed"),
    ("validation", "hand_frame", "measured"),
    ("validation", "jaw_width", "limit"),
    ("validation", "grasp_rotation"),
]
_EDITS = {
    "same": lambda v: v,
    "negated": lambda v: -v if isinstance(v, float) else v,
    "int": lambda v: int(v) if isinstance(v, (bool, float)) and float(v).is_integer() else v,
    "float": lambda v: float(v) if isinstance(v, (bool, int)) else v,
    "nested": lambda v: [v],
    "tuple": lambda v: tuple(v) if isinstance(v, list) else v,
}


class TestDerivedPartCheck:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(leaf=st.sampled_from(_DERIVED_LEAVES), edit=st.sampled_from(sorted(_EDITS)))
    @example(leaf=("validation", "hand_frame", "measured"), edit="negated")  # 0.0 and -0.0
    @example(leaf=("hand_frame", "direction", 0), edit="int")  # 1.0 and 1
    @example(leaf=("validation", "clearance", "passed"), edit="int")  # True and 1
    @example(leaf=("hand_frame", "direction"), edit="nested")  # a list in a list
    def test_refused_exactly_when_the_part_text_differs(self, leaf, edit):
        config = _imagined("cylinder", "right")
        doc = json.loads(config.to_json_text())
        node = doc
        for key in leaf[:-1]:
            node = node[key]
        node[leaf[-1]] = _EDITS[edit](node[leaf[-1]])
        part = leaf[0]
        before = json.dumps(config.to_json_dict()[part], sort_keys=True)
        if json.dumps(doc[part], sort_keys=True) == before:
            assert HandoverConfiguration.from_json_dict(doc).to_json_text() == config.to_json_text()
        else:
            with pytest.raises(SchemaError, match=f"^bad configuration record: {part} is not"):
                HandoverConfiguration.from_json_dict(doc)

    def test_names_the_first_part_that_differs(self):
        doc = json.loads(_imagined("cylinder", "right").to_json_text())
        doc["selection"]["clearance_m"] = 1.0
        doc["validation"]["jaw_width"]["limit"] = 1.0
        with pytest.raises(SchemaError, match="selection is not"):
            HandoverConfiguration.from_json_dict(doc)
        doc["hand_frame"]["center"] = [0.0, 0.0, 0.0]
        with pytest.raises(SchemaError, match="hand_frame is not"):
            HandoverConfiguration.from_json_dict(doc)


# --- one-change fuzzing ------------------------------------------------------------

_JSON_TYPES = ("number", "string", "bool", "null", "list", "object")


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if value is None:
        return "null"
    return "list" if isinstance(value, list) else "object"


def _as_json_type(value, kind: str):
    """``value`` given the JSON type ``kind``, keeping what a lenient reader
    could take back: a string's number, a value's JSON text, its truth value,
    or the value wrapped in a list or an object."""
    if kind == "number":
        try:
            return float(value)
        except (TypeError, ValueError):
            return 1.0
    return {
        "string": lambda: json.dumps(value),
        "bool": lambda: bool(value),
        "null": lambda: None,
        "list": lambda: [value],
        "object": lambda: {"value": value},
    }[kind]()


def _one_changes(text: str):
    """(key path, change, document) for each one-change variant of the JSON
    text: every key of every object, nested ones too, given each other JSON
    type, or dropped."""
    paths = []

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                paths.append((*path, key))
                walk(value, (*path, key))
        elif isinstance(node, list):
            for k, value in enumerate(node):
                walk(value, (*path, k))

    walk(json.loads(text), ())
    for path in paths:
        for change in (*_JSON_TYPES, "dropped"):
            doc = json.loads(text)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if change == "dropped":
                del parent[path[-1]]
            elif change != _json_type(parent[path[-1]]):
                parent[path[-1]] = _as_json_type(parent[path[-1]], change)
            else:
                continue
            yield ".".join(map(str, path)), change, doc


# The one-change variants that load as another valid input, each with its
# reason; every other variant is refused or loads as the original.
_RECORD_ALTERNATIVES = {
    # A cloud without normals is recorded with null normals (README,
    # Configuration), so the variant is the record of such a cloud.
    ("cloud.normals", "null"),
}
_CANDIDATE_FILE_ALTERNATIVES = {
    # A candidate without a source tag is read as "file" (README, Grasp
    # candidates).
    ("0.source", "dropped"),
}


class TestOneChangeFuzz:
    @pytest.mark.parametrize("handedness", ["right", "left"])
    @pytest.mark.parametrize("shape", ["cylinder", "box"])
    def test_record_is_refused_or_loads_unchanged(self, shape, handedness):
        """Each one-change variant of a record is a SchemaError, or loads and
        saves as the original bytes, or is one of _RECORD_ALTERNATIVES."""
        text = _imagined(shape, handedness).to_json_text()
        changed = set()
        for path, change, doc in _one_changes(text):
            try:
                loaded = HandoverConfiguration.from_json_dict(doc)
            except SchemaError:
                continue
            if loaded.to_json_text() != text:
                changed.add((path, change))
        assert changed == _RECORD_ALTERNATIVES

    def test_candidate_file_is_refused_or_loads_unchanged(self, cylinder_config, tmp_path):
        from handover.grasp import load_candidates, save_candidates

        path = tmp_path / "grasps.json"
        save_candidates(candidate_set([cylinder_config.grasp]), path)
        text = path.read_text()
        changed = set()
        for key, change, doc in _one_changes(text):
            path.write_text(json.dumps(doc))
            try:
                loaded = load_candidates(path)
            except SchemaError:
                continue
            save_candidates(loaded, path)
            if path.read_text() != text:
                changed.add((key, change))
        assert changed == _CANDIDATE_FILE_ALTERNATIVES
