import numpy as np
import pytest

from handover import synthetic
from handover.errors import (
    AmbiguousHandedness,
    DegenerateDirection,
    DegenerateNormal,
    InvalidPoseBlock,
    ModelMismatch,
    SchemaError,
)
from handover.geometry import matrix_to_rot6d, random_rotation, rot_z
from handover.hand_model import (
    KEYPOINT_DRIVER,
    NUM_JOINTS,
    NUM_KEYPOINTS,
    NUM_VERTICES,
    HandModelParams,
    HandPose,
    PosedHand,
    classify_handedness,
    decode_array,
    direction_from_joints,
    encode_array,
    frame_from_joints,
    geometric_center,
    hand_direction,
    hand_frame_of,
    lbs_forward,
    load_hand_model,
    normal_from_joints,
    palm_normal,
    save_hand_model,
    skin_vertices,
)


def _pose_with_root(rotation, handedness="right", translation=(0, 0, 0)):
    blocks = np.tile(matrix_to_rot6d(np.eye(3)), (NUM_JOINTS, 1))
    blocks[0] = matrix_to_rot6d(rotation)
    return HandPose(translation=np.asarray(translation, dtype=float), pose=blocks, handedness=handedness)


class TestTinyRig:
    """Two joints, four vertices, hand-set weights: expected values were
    evaluated by hand from the blend formula before the implementation."""

    template = np.array([(0.5, 0, 0), (1.5, 0, 0), (1.2, 0.3, 0), (2.0, 0, 0)])
    weights = np.array([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.0, 1.0)])
    rest_joints = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
    parents = np.array([-1, 0])

    def test_rotating_second_joint(self):
        rotations = np.stack([np.eye(3), rot_z(np.pi / 2)])
        skinned, relative = skin_vertices(
            self.template, self.weights, self.rest_joints, self.parents, rotations
        )
        expected = np.array([(0.5, 0, 0), (1.0, 0.5, 0), (0.95, 0.25, 0), (1.0, 1.0, 0)])
        assert np.allclose(skinned, expected, atol=1e-15)
        # the rotated joint itself does not move
        posed_j2 = relative[1][:3, :3] @ self.rest_joints[1] + relative[1][:3, 3]
        assert np.allclose(posed_j2, (1.0, 0.0, 0.0), atol=1e-15)

    def test_identity_rig_is_noop(self):
        rotations = np.stack([np.eye(3), np.eye(3)])
        skinned, _ = skin_vertices(
            self.template, self.weights, self.rest_joints, self.parents, rotations
        )
        assert np.array_equal(skinned, self.template)

    def test_equal_world_transforms_reduce_to_that_transform(self):
        # Rotating only the root makes every rest-relative joint transform
        # equal, so each vertex is the convex-combination image of one map.
        r = rot_z(0.3)
        skinned, relative = skin_vertices(
            self.template, self.weights, self.rest_joints, self.parents,
            np.stack([r, np.eye(3)]),
        )
        assert np.allclose(relative[0], relative[1], atol=1e-15)
        assert np.allclose(skinned, self.template @ r.T, atol=1e-12)


class TestLbsForward:
    def test_identity_reproduces_template(self, right_params):
        hand = lbs_forward(right_params, HandPose.rest("right"))
        assert np.max(np.abs(hand.vertices - right_params.template_vertices)) <= 1e-12
        assert np.max(np.abs(hand.joints - right_params.rest_keypoints)) <= 1e-12

    def test_root_rotation_acts_about_the_wrist(self, right_params):
        r = rot_z(np.pi / 2)
        hand = lbs_forward(right_params, _pose_with_root(r))
        wrist = right_params.rest_keypoints[0]
        expected_vertices = (right_params.template_vertices - wrist) @ r.T + wrist
        expected_joints = (right_params.rest_keypoints - wrist) @ r.T + wrist
        assert np.allclose(hand.vertices, expected_vertices, atol=1e-12)
        assert np.allclose(hand.joints, expected_joints, atol=1e-12)

    def test_rigid_equivariance(self, right_params, rng):
        rest = lbs_forward(right_params, HandPose.rest("right"))
        for _ in range(25):
            r = random_rotation(rng)
            u = rng.uniform(-0.5, 0.5, size=3)
            hand = lbs_forward(right_params, _pose_with_root(r, translation=u))
            wrist = right_params.rest_keypoints[0]
            assert np.allclose(
                hand.vertices, (rest.vertices - wrist) @ r.T + wrist + u, atol=1e-9
            )
            assert np.allclose(
                hand.joints, (rest.joints - wrist) @ r.T + wrist + u, atol=1e-9
            )

    def test_shape_blend_scales_uniformly(self, right_params):
        shape = np.zeros(10)
        shape[0] = 0.1
        pose = HandPose(
            translation=np.zeros(3),
            pose=np.tile(matrix_to_rot6d(np.eye(3)), (NUM_JOINTS, 1)),
            shape=shape,
        )
        hand = lbs_forward(right_params, pose)
        assert np.allclose(hand.vertices, 1.1 * right_params.template_vertices, atol=1e-9)

    def test_direction_and_normal_invariant_to_rescale(self, right_params):
        rest = lbs_forward(right_params, HandPose.rest("right"))
        shape = np.zeros(10)
        shape[0] = 0.25
        scaled = lbs_forward(
            right_params,
            HandPose(translation=np.zeros(3), pose=rest_pose_blocks(), shape=shape),
        )
        assert np.allclose(hand_direction(rest), hand_direction(scaled), atol=1e-12)
        assert np.allclose(palm_normal(rest), palm_normal(scaled), atol=1e-12)

    def test_degenerate_pose_block_raises(self, right_params):
        blocks = np.tile(matrix_to_rot6d(np.eye(3)), (NUM_JOINTS, 1))
        blocks[3] = 0.0
        with pytest.raises(InvalidPoseBlock):
            lbs_forward(right_params, HandPose(translation=np.zeros(3), pose=blocks))

    def test_handedness_mismatch_raises(self, right_params):
        with pytest.raises(ModelMismatch):
            lbs_forward(right_params, HandPose.rest("left"))


def rest_pose_blocks():
    return np.tile(matrix_to_rot6d(np.eye(3)), (NUM_JOINTS, 1))


class TestKeypointGeometry:
    def test_hand_direction_examples(self):
        joints = np.zeros((NUM_KEYPOINTS, 3))
        joints[12] = (0.1, 0, 0)
        assert np.allclose(direction_from_joints(joints), (1, 0, 0))
        joints = np.ones((NUM_KEYPOINTS, 3))
        joints[12] = (1, 1, 2)
        assert np.allclose(direction_from_joints(joints), (0, 0, 1))

    def test_hand_direction_degenerate(self):
        with pytest.raises(DegenerateDirection):
            direction_from_joints(np.zeros((NUM_KEYPOINTS, 3)))

    def test_palm_normal_sign_convention(self):
        # Right hand with palm facing -z: index base on +y, pinky on -y.
        joints = np.zeros((NUM_KEYPOINTS, 3))
        joints[5] = (0.08, 0.03, 0.0)
        joints[17] = (0.08, -0.03, 0.0)
        assert np.allclose(normal_from_joints(joints, "right"), (0, 0, -1))
        # Mirrored keypoints as a left hand: normal is the mirror image.
        mirrored = joints.copy()
        mirrored[:, 1] *= -1
        assert np.allclose(normal_from_joints(mirrored, "left"), (0, 0, -1))

    def test_palm_normal_collinear_raises(self):
        joints = np.zeros((NUM_KEYPOINTS, 3))
        joints[5] = (0.05, 0, 0)
        joints[17] = (0.10, 0, 0)
        with pytest.raises(DegenerateNormal):
            normal_from_joints(joints, "right")

    def test_palm_normal_exits_the_palm_on_the_synthetic_hand(self, right_params):
        hand = lbs_forward(right_params, HandPose.rest("right"))
        # synthetic rest hand lies palm-up: palm side is +z
        assert palm_normal(hand) @ np.array([0.0, 0.0, 1.0]) > 0.9

    def test_geometric_center_examples(self):
        assert np.allclose(geometric_center([(0, 0, 0)]), (0, 0, 0))
        assert np.allclose(geometric_center([(0, 0, 0), (2, 0, 0)]), (1, 0, 0))
        cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        assert np.allclose(geometric_center(cube), (0.5, 0.5, 0.5))

    def test_classify_right_fixture(self, right_params):
        assert classify_handedness(right_params.rest_keypoints) == "right"

    def test_classify_mirrored_fixture_is_left(self, right_params):
        mirrored = right_params.rest_keypoints.copy()
        mirrored[:, 0] *= -1  # reflect through the yz-plane
        assert classify_handedness(mirrored) == "left"

    def test_classify_flips_under_any_mirror(self, right_params, rng):
        keypoints = right_params.rest_keypoints
        for axis in range(3):
            mirrored = keypoints.copy()
            mirrored[:, axis] *= -1
            assert classify_handedness(mirrored) == "left"

    def test_classify_planar_thumb_is_ambiguous(self):
        joints = np.zeros((NUM_KEYPOINTS, 3))
        joints[5] = (0.08, 0.03, 0)
        joints[17] = (0.08, -0.03, 0)
        joints[1] = (0.03, 0.0, 0.0)  # thumb in the palm plane
        with pytest.raises(AmbiguousHandedness):
            classify_handedness(joints)

    def test_hand_frame_of_composition(self, right_params):
        hand = lbs_forward(right_params, HandPose.rest("right"))
        frame = hand_frame_of(hand)
        assert np.allclose(frame.center, geometric_center(hand.vertices), atol=1e-12)
        assert np.allclose(frame.direction, hand_direction(hand), atol=1e-12)

    def test_frame_from_joints_uses_joint_centroid(self, right_params):
        joints = right_params.rest_keypoints
        frame = frame_from_joints(joints)
        assert np.allclose(frame.center, geometric_center(joints), atol=1e-12)


class TestModelValidation:
    def test_weight_rows_sum_to_one(self, right_params, left_params):
        for params in (right_params, left_params):
            sums = params.skinning_weights.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-6
            assert np.all(params.skinning_weights >= 0.0)

    def test_keypoint_regression_is_exact_on_fixture(self, right_params):
        expected = synthetic._REST_KEYPOINTS_RIGHT
        assert np.max(np.abs(right_params.rest_keypoints - expected)) <= 1e-12

    def test_mirrored_flips_handedness_and_y(self, right_params, left_params):
        assert left_params.handedness == "left"
        assert np.allclose(
            left_params.template_vertices[:, 1], -right_params.template_vertices[:, 1]
        )
        assert np.allclose(
            left_params.template_vertices[:, 0], right_params.template_vertices[:, 0]
        )

    def test_rejects_bad_dimensions(self, right_params):
        with pytest.raises(ModelMismatch):
            HandModelParams(
                template_vertices=np.zeros((10, 3)),
                skinning_weights=right_params.skinning_weights,
                joint_regressor=right_params.joint_regressor,
                parents=right_params.parents,
                handedness="right",
            )

    def test_rejects_unnormalized_weights(self, right_params):
        weights = right_params.skinning_weights.copy()
        weights[0] *= 2.0
        with pytest.raises(ModelMismatch):
            HandModelParams(
                template_vertices=right_params.template_vertices,
                skinning_weights=weights,
                joint_regressor=right_params.joint_regressor,
                parents=right_params.parents,
                handedness="right",
            )

    def test_posed_hand_rejects_non_finite(self):
        vertices = np.zeros((NUM_VERTICES, 3))
        vertices[0, 0] = np.nan
        with pytest.raises(ModelMismatch):
            PosedHand(vertices=vertices, joints=np.zeros((NUM_KEYPOINTS, 3)), handedness="right")

    @pytest.mark.parametrize("field", ["template_vertices", "shape_dirs", "faces"])
    def test_model_rejects_non_finite_or_misshapen_arrays(self, right_params, field):
        good = dict(
            template_vertices=right_params.template_vertices,
            skinning_weights=right_params.skinning_weights,
            joint_regressor=right_params.joint_regressor,
            parents=right_params.parents,
            handedness="right",
            shape_dirs=np.zeros((NUM_VERTICES, 3, 10)),
            faces=np.zeros((4, 3), dtype=int),
        )
        assert HandModelParams(**good).faces.shape == (4, 3)
        misshapen = np.zeros((5, 2)) if field == "faces" else np.zeros((3,))
        with pytest.raises(ModelMismatch, match=f"^{field} must have shape"):
            HandModelParams(**dict(good, **{field: misshapen}))
        non_finite = np.array(good[field], dtype=float)
        non_finite.flat[7] = np.inf
        with pytest.raises(ModelMismatch, match=f"^{field} must hold"):
            HandModelParams(**dict(good, **{field: non_finite}))
        if field == "template_vertices":  # required, unlike shape_dirs and faces
            with pytest.raises(ModelMismatch):
                HandModelParams(**dict(good, template_vertices=None))
        else:
            assert getattr(HandModelParams(**dict(good, **{field: None})), field) is None

    def test_pose_rejects_non_finite(self):
        pose = HandPose.rest().pose.copy()
        pose[3, 1] = np.nan
        with pytest.raises(ModelMismatch, match="^pose must hold finite numbers"):
            HandPose(translation=np.zeros(3), pose=pose)

    def test_keypoint_driver_covers_all_joints(self):
        assert set(KEYPOINT_DRIVER.tolist()) == set(range(NUM_JOINTS))


class TestModelFile:
    def test_round_trip_at_float32(self, right_params, tmp_path):
        path = tmp_path / "hand.json"
        save_hand_model(right_params, path)
        loaded = load_hand_model(path)
        assert loaded.handedness == "right"
        assert np.array_equal(
            loaded.template_vertices.astype(np.float32),
            right_params.template_vertices.astype(np.float32),
        )
        assert np.array_equal(loaded.parents, right_params.parents)
        assert loaded.faces is not None
        assert np.array_equal(loaded.faces, right_params.faces)
        # model is usable after the round trip
        hand = lbs_forward(loaded, HandPose.rest("right"))
        assert np.max(np.abs(hand.vertices - loaded.template_vertices)) <= 1e-12

    def test_arrays_are_little_endian_base64(self, right_params, tmp_path):
        import base64
        import json

        path = tmp_path / "hand.json"
        save_hand_model(right_params, path)
        doc = json.loads(path.read_text())
        faces = np.frombuffer(base64.b64decode(doc["faces"]), dtype="<i4")
        assert np.array_equal(faces.reshape(-1, 3), right_params.faces)
        assert doc["face_count"] == right_params.faces.shape[0]
        template = np.frombuffer(base64.b64decode(doc["template_vertices"]), dtype="<f4")
        assert np.array_equal(
            template.reshape(-1, 3), right_params.template_vertices.astype(np.float32)
        )

    def test_rejects_faces_disagreeing_with_face_count(self, right_params, tmp_path):
        import json

        path = tmp_path / "hand.json"
        save_hand_model(right_params, path)
        doc = json.loads(path.read_text())
        doc["face_count"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_hand_model(path)

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "hand-model/0"}')
        with pytest.raises(SchemaError):
            load_hand_model(path)

    def test_rejects_truncated_arrays(self, right_params, tmp_path):
        import json

        path = tmp_path / "hand.json"
        save_hand_model(right_params, path)
        doc = json.loads(path.read_text())
        doc["template_vertices"] = doc["template_vertices"][: len(doc["template_vertices"]) // 2]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_hand_model(path)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "hand.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaError):
            load_hand_model(path)


class TestArrayCodec:
    def test_float64_round_trip_is_bitwise(self, rng):
        values = rng.normal(size=(40, 3))
        values[0] = (-0.0, 5e-324, np.finfo(float).max)
        values[1] = (np.finfo(float).tiny, -np.finfo(float).eps, 1.0 / 3.0)
        back = decode_array(encode_array(values, "<f8"), (None, 3), "values", "<f8")
        assert back.dtype == np.float64 and back.shape == (40, 3)
        assert back.tobytes() == values.tobytes()
        assert encode_array(back, "<f8") == encode_array(values, "<f8")

    def test_wire_bytes_are_little_endian(self):
        import base64

        encoded = encode_array(np.array([[1.0, 2.0, -0.5]]), "<f8")
        assert base64.b64decode(encoded) == np.array([1.0, 2.0, -0.5], dtype="<f8").tobytes()

    @pytest.mark.parametrize(
        "data, shape",
        [
            ("AAAA", (None, 3)),  # 3 bytes, not a whole float64 row
            (encode_array(np.zeros((2, 3)), "<f8"), (3, 3)),  # wrong row count
            ("AAAAAAAAAAA", (None, 3)),  # truncated base64
            ("AAAA*AAA", (None, 3)),  # not base64
            ("\u00e9", (None, 3)),  # not ASCII
            ([0.0, 1.0, 2.0], (None, 3)),  # not a string
        ],
        ids=["ragged", "row-count", "truncated", "alphabet", "non-ascii", "list"],
    )
    def test_bad_input_raises_schema_error(self, data, shape):
        with pytest.raises(SchemaError, match="^values: "):
            decode_array(data, shape, "values", "<f8")


class TestHandPoseRecord:
    def test_dict_round_trip(self):
        pose = HandPose.rest("left")
        back = HandPose.from_dict(pose.to_dict())
        assert back.handedness == "left"
        assert np.array_equal(back.pose, pose.pose)

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(SchemaError):
            HandPose.from_dict({"translation": [0, 0, 0]})
