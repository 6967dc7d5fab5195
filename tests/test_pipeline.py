import base64
import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover import pipeline, synthetic
from handover.errors import (
    AllCandidatesCollide,
    DegenerateObservation,
    HandednessMismatch,
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
from handover.grasp import GraspCandidate, GripperGeometry
from handover.hand_model import (
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

from helpers import candidate_set, default_pose_library, random_frame, random_rotation


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

    def test_clearance_measured_once_when_best_passes(self, cylinder_cloud, pipe_config,
                                                      monkeypatch):
        calls = []
        original = pipeline.clearance_check

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

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
        """imagine_configuration is the one candidate check for every provider."""
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
        candidates = candidate_set([good, good, good, overwide, good, overwide])
        with pytest.raises(InvalidCandidate, match="^candidate 3: jaw width 0.08 m"):
            imagine_configuration(
                TaskDescription("cylinder", "right"),
                cylinder_cloud,
                ProceduralPoseProvider(),
                lambda task, cloud: candidates,
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
    """The handover-config/1 writer, kept as the reference for reading /1."""
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


SCHEMAS = ("handover-config/1", "handover-config/2")


def _write_record(config, path, schema):
    if schema == "handover-config/1":
        path.write_text(json.dumps(_v1_json_dict(config), sort_keys=True))
    else:
        save_configuration(config, path)


def _assert_bitwise(a, b):
    assert a.dtype == b.dtype == np.float64
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _truncated_points(doc):
    doc["cloud"]["points"] = doc["cloud"]["points"][:-3]


def _short_vertices(doc):
    vertices = base64.b64decode(doc["hand"]["vertices"])
    doc["hand"]["vertices"] = base64.b64encode(vertices[:-24]).decode("ascii")


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
        for schema in SCHEMAS:
            path = tmp_path / "config.json"
            _write_record(cylinder_config, path, schema)
            loaded = load_configuration(path)
            assert loaded.task == cylinder_config.task
            before, after = _record_arrays(cylinder_config), _record_arrays(loaded)
            for name in before:
                _assert_bitwise(before[name], after[name])
            assert loaded.validation.passed
            # either schema reloads to the same /2 text
            assert loaded.to_json_text() == cylinder_config.to_json_text()

    def test_record_differs_from_v1_only_in_schema_and_arrays(self, cylinder_config):
        new, old = cylinder_config.to_json_dict(), _v1_json_dict(cylinder_config)
        assert new["schema"] == "handover-config/2"
        arrays = {("cloud", "points"), ("cloud", "normals"), ("hand", "vertices"),
                  ("hand", "joints")}
        assert set(new) == set(old)
        for key in set(new) - {"schema", "cloud", "hand"}:
            assert new[key] == old[key]
        for key in ("cloud", "hand"):
            assert set(new[key]) == set(old[key])
            for field_name in new[key]:
                if (key, field_name) not in arrays:
                    assert new[key][field_name] == old[key][field_name]
        for key, field_name in arrays:
            raw = base64.b64decode(new[key][field_name], validate=True)
            decoded = np.frombuffer(raw, dtype="<f8").reshape(-1, 3)
            _assert_bitwise(decoded, np.array(old[key][field_name], dtype=float))

    def test_match_after_reload_is_identical(self, cylinder_config, tmp_path):
        motion = RigidTransform(rot_z(0.4), np.array([0.1, 0.2, 0.3]))
        observed = motion.apply(cylinder_config.hand.joints)
        a = match_to_observation(cylinder_config, observed)
        for schema in SCHEMAS:
            path = tmp_path / "config.json"
            _write_record(cylinder_config, path, schema)
            b = match_to_observation(load_configuration(path), observed)
            assert np.array_equal(a.position, b.position)
            assert np.array_equal(a.quaternion, b.quaternion)
            assert np.array_equal(a.transform.as_matrix(), b.transform.as_matrix())

    def test_rejects_wrong_schema(self, cylinder_config, tmp_path, capsys):
        _assert_rejected(cylinder_config, tmp_path, capsys, _old_schema)

    @pytest.mark.parametrize("corrupt", [_truncated_points, _short_vertices, _ragged_normals])
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
