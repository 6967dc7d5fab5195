from dataclasses import replace

import numpy as np
import pytest

from handover import hand_model, synthetic
from handover.errors import (
    AmbiguousHandedness,
    DegenerateDirection,
    DegenerateNormal,
    InvalidPoseBlock,
    ModelMismatch,
    ParallelAxes,
    SchemaError,
)
from handover.geometry import matrix_to_rot6d, rot6d_to_matrices, rot_z
from handover.intent import TaskDescription
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
    hand_frame_of,
    lbs_forward,
    load_hand_model,
    normal_from_joints,
    save_hand_model,
    skin_vertices,
)

from helpers import random_rotation


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
        assert np.allclose(
            direction_from_joints(rest.joints), direction_from_joints(scaled.joints), atol=1e-12
        )
        assert np.allclose(
            normal_from_joints(rest.joints, "right"),
            normal_from_joints(scaled.joints, "right"),
            atol=1e-12,
        )

    def test_degenerate_pose_block_raises(self, right_params):
        blocks = np.tile(matrix_to_rot6d(np.eye(3)), (NUM_JOINTS, 1))
        blocks[3] = 0.0
        with pytest.raises(InvalidPoseBlock):
            lbs_forward(right_params, HandPose(translation=np.zeros(3), pose=blocks))

    def test_handedness_mismatch_raises(self, right_params):
        with pytest.raises(ModelMismatch):
            lbs_forward(right_params, HandPose.rest("left"))

    def test_a_moved_pose_is_skinned_once_per_handedness(self, right_params, left_params, rng,
                                                         monkeypatch):
        """Poses that differ only in translation share one skinning, and each
        hand is bitwise what skinning afresh gives."""
        skinned = []
        skin = hand_model.skin_vertices

        def counted(*args):
            skinned.append(args)
            return skin(*args)

        monkeypatch.setattr(hand_model, "skin_vertices", counted)
        hand_model._posed_at_origin.cache_clear()
        blocks = rng.normal(size=(NUM_JOINTS, 6))
        params = {"right": right_params, "left": left_params}
        poses = [
            HandPose(translation=rng.normal(size=3), pose=blocks, handedness=side)
            for _ in range(4)
            for side in ("right", "left")
        ]
        hands = [lbs_forward(params[p.handedness], p) for p in poses]
        assert len(skinned) == 2
        for pose, hand in zip(poses, hands):
            hand_model._posed_at_origin.cache_clear()
            fresh = lbs_forward(params[pose.handedness], pose)
            assert hand.vertices.tobytes() == fresh.vertices.tobytes()
            assert hand.joints.tobytes() == fresh.joints.tobytes()

    def test_a_bad_pose_block_raises_every_time(self, right_params):
        blocks = np.tile(matrix_to_rot6d(np.eye(3)), (NUM_JOINTS, 1))
        blocks[5, 3:] = 2.0 * blocks[5, :3]
        for _ in range(2):
            with pytest.raises(InvalidPoseBlock, match="joint 5"):
                lbs_forward(right_params, HandPose(translation=np.zeros(3), pose=blocks))


def _reference_rot6d(r6):
    """The single-block decode lbs_forward ran once per joint before the stack."""
    v = np.asarray(r6, dtype=float)
    n1 = float(np.linalg.norm(v[:3]))
    if n1 <= 1e-9:
        raise DegenerateDirection(f"first 6D axis has norm {n1:.3e}")
    b1 = v[:3] / n1
    v2 = v[3:]
    if np.linalg.norm(v2) <= 1e-9:
        raise DegenerateDirection("second 6D axis has ~zero norm")
    residual = v2 - (v2 @ b1) * b1
    if np.linalg.norm(residual) <= 1e-9:
        raise ParallelAxes("6D axes are parallel")
    b2 = residual / np.linalg.norm(residual)
    return np.column_stack([b1, b2, np.cross(b1, b2)])


def _reference_rotations(blocks):
    """lbs_forward's per-joint loop, first failing joint first."""
    rotations = np.empty((len(blocks), 3, 3))
    for k, block in enumerate(blocks):
        try:
            rotations[k] = _reference_rot6d(block)
        except (DegenerateDirection, ParallelAxes) as exc:
            raise InvalidPoseBlock(f"joint {k}: {exc}") from exc
    return rotations


# Failing blocks by joint index; every other joint holds the identity block.
_FAILING_BLOCKS = {
    "first-axis-zero": ({5: (0, 0, 0, 0, 1, 0)}, 5),
    "first-axis-tiny": ({0: (1e-10, 0, 0, 0, 1, 0)}, 0),
    "second-axis-zero": ({2: (1, 0, 0, 0, 0, 0)}, 2),
    "parallel": ({9: (1, 0, 0, -2, 0, 0)}, 9),
    "parallel-tiny-residual": ({15: (0, 1, 0, 1e-10, 3, 0)}, 15),
    "all-three-in-one-block": ({7: (0, 0, 0, 0, 0, 0)}, 7),
    "parallel-before-first-axis": ({4: (1, 0, 0, 2, 0, 0), 11: (0, 0, 0, 0, 1, 0)}, 4),
    "first-axis-before-parallel": ({3: (0, 0, 0, 0, 1, 0), 12: (0, 1, 0, 0, 3, 0)}, 3),
    "second-axis-before-first-axis": ({1: (0, 0, 1, 0, 0, 0), 6: (0, 0, 0, 1, 0, 0)}, 1),
}


class TestStackedDecode:
    """The stacked 6D decode against the per-joint loop it replaced, bit for bit."""

    @staticmethod
    def _outcome(decode, blocks):
        """The decoded bytes, or the failing block's error type and message."""
        try:
            return decode(blocks).tobytes()
        except InvalidPoseBlock as exc:
            return type(exc.__cause__), str(exc)
        except (DegenerateDirection, ParallelAxes) as exc:
            return type(exc), f"joint {exc.block}: {exc}"

    def test_matches_per_block_reference(self, rng):
        outcomes = set()
        for _ in range(400):
            blocks = rng.normal(size=(16, 6)) * 10.0 ** rng.uniform(-6, 3, size=(16, 1))
            # Nearly parallel axes, which at small scales fail the residual check.
            blocks[::5, 3:] = 2.5 * blocks[::5, :3] + 1e-3 * blocks[::5, 3:]
            got = self._outcome(rot6d_to_matrices, blocks)
            assert got == self._outcome(_reference_rotations, blocks)
            outcomes.add(type(got))
        assert outcomes == {bytes, tuple}

    def test_lbs_forward_matches_per_joint_reference(self, right_params, left_params, rng,
                                                     monkeypatch):
        poses = [
            HandPose(
                translation=rng.normal(size=3) * 0.1,
                pose=rng.normal(size=(NUM_JOINTS, 6)) * 10.0 ** rng.uniform(-3, 2),
                handedness=params.handedness,
            )
            for params in (right_params, left_params)
            for _ in range(150)
        ]
        params = {"right": right_params, "left": left_params}
        stacked = [lbs_forward(params[p.handedness], p) for p in poses]
        monkeypatch.setattr(hand_model, "rot6d_to_matrices", _reference_rotations)
        for pose, got in zip(poses, stacked):
            want = lbs_forward(params[pose.handedness], pose)
            assert np.array_equal(got.vertices, want.vertices)
            assert np.array_equal(got.joints, want.joints)

    @pytest.mark.parametrize("name", sorted(_FAILING_BLOCKS))
    def test_first_failing_joint_raises_what_the_loop_raised(self, right_params, name):
        failing, first = _FAILING_BLOCKS[name]
        blocks = rest_pose_blocks()
        for k, block in failing.items():
            blocks[k] = block
        with pytest.raises(InvalidPoseBlock) as want:
            _reference_rotations(blocks)
        with pytest.raises(InvalidPoseBlock) as got:
            lbs_forward(right_params, HandPose(translation=np.zeros(3), pose=blocks))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"joint {first}: ")
        assert type(got.value.__cause__) is type(want.value.__cause__)
        assert got.value.__cause__.block == first


def _reference_skin(template, weights, rest_joints, parents, rotations):
    """skin_vertices as the per-joint loop it was written as."""
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
    per_vertex = np.tensordot(weights, relative, axes=([1], [0]))
    skinned = np.einsum("vij,vj->vi", per_vertex[:, :3, :3], template) + per_vertex[:, :3, 3]
    return skinned, relative


class TestDepthBatchedSkinning:
    """skin_vertices composes the chain one tree depth at a time; the
    per-joint loop above is its bitwise reference."""

    def test_hand_rig_matches_per_joint_loop(self, right_params, left_params, rng):
        for params in (right_params, left_params):
            rest_joints = params.rest_keypoints[hand_model.SKELETON_KEYPOINT]
            args = (params.template_vertices, params.skinning_weights, rest_joints,
                    params.parents)
            for _ in range(150):
                blocks = rng.normal(size=(NUM_JOINTS, 6)) * 10.0 ** rng.uniform(-3, 2)
                rotations = rot6d_to_matrices(blocks)
                got = skin_vertices(*args, rotations)
                want = _reference_skin(*args, rotations)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])

    def test_random_forests_match_per_joint_loop(self, rng):
        """Deep chains, wide fans and several roots, parents before children."""
        for _ in range(60):
            n_joints = int(rng.integers(1, 24))
            parents = np.array(
                [-1 if k == 0 or rng.uniform() < 0.1 else int(rng.integers(max(0, k - 3), k))
                 for k in range(n_joints)]
            )
            weights = rng.uniform(size=(40, n_joints))
            args = (rng.normal(size=(40, 3)), weights / weights.sum(axis=1, keepdims=True),
                    rng.normal(size=(n_joints, 3)), parents,
                    np.array([random_rotation(rng) for _ in range(n_joints)]))
            got = skin_vertices(*args)
            want = _reference_skin(*args)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_parent_cycle_raises_instead_of_looping(self):
        rotations = np.tile(np.eye(3), (3, 1, 1))
        with pytest.raises(ValueError, match="forest"):
            skin_vertices(np.zeros((2, 3)), np.full((2, 3), 1 / 3), np.zeros((3, 3)),
                          np.array([-1, 2, 1]), rotations)

    def test_lbs_forward_matches_per_joint_loop(self, right_params, rng, monkeypatch):
        poses = [
            HandPose(translation=rng.normal(size=3) * 0.1,
                     pose=rng.normal(size=(NUM_JOINTS, 6)))
            for _ in range(50)
        ]
        batched = [lbs_forward(right_params, pose) for pose in poses]
        monkeypatch.setattr(hand_model, "skin_vertices", _reference_skin)
        for pose, got in zip(poses, batched):
            want = lbs_forward(right_params, pose)
            assert np.array_equal(got.vertices, want.vertices)
            assert np.array_equal(got.joints, want.joints)


def rest_pose_blocks():
    return np.tile(matrix_to_rot6d(np.eye(3)), (NUM_JOINTS, 1))


class TestKeypointGeometry:
    @pytest.mark.parametrize("rows", [1, 21, 778, 5000])
    def test_centres_are_bitwise_the_mean(self, rng, rows):
        from handover.cloud import ObjectCloud

        points = rng.normal(size=(rows, 3)) * 10.0 ** rng.uniform(-4, 2, size=(rows, 1))
        mean = points.mean(axis=0).tobytes()
        assert geometric_center(points).tobytes() == mean
        assert ObjectCloud("blob", points).centroid.tobytes() == mean

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
        assert normal_from_joints(hand.joints, "right") @ np.array([0.0, 0.0, 1.0]) > 0.9

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

    @pytest.mark.parametrize("handedness", ["right", "left"])
    def test_imagined_frame_is_the_keypoint_frame(self, right_params, left_params, handedness):
        """Imagined and observed hands share one frame rule, centred on the 21
        keypoints, not on the mesh vertices."""
        params = {"right": right_params, "left": left_params}[handedness]
        pose = _pose_with_root(rot_z(0.7), handedness, translation=(0.1, -0.2, 0.3))
        hand = lbs_forward(params, pose)
        frame = hand_frame_of(hand)
        want = frame_from_joints(hand.joints, hand.handedness)
        for name in ("center", "direction", "normal"):
            assert np.array_equal(getattr(frame, name), getattr(want, name))
        assert np.array_equal(frame.center, hand.joints.mean(axis=0))


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

    @pytest.mark.parametrize("value", ["up", "Left", None, 1])
    def test_every_value_type_rejects_a_bad_handedness_alike(self, right_params, value):
        build = {
            ModelMismatch: [
                lambda: replace(right_params, handedness=value),
                lambda: replace(HandPose.rest(), handedness=value),
                lambda: PosedHand(np.zeros((NUM_VERTICES, 3)), np.zeros((NUM_KEYPOINTS, 3)), value),
            ],
            SchemaError: [lambda: TaskDescription("knife", value)],
        }
        for error, makers in build.items():
            for make in makers:
                with pytest.raises(error, match=f"^handedness must be left/right, got {value!r}$"):
                    make()


class TestModelDigest:
    def test_covers_every_array_lbs_forward_reads(self, right_params):
        """One ulp in any array lbs_forward reads, a parent, the shape basis or
        the handedness gives another digest; a copy and other faces do not."""
        digest = right_params.model_sha256
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert replace(right_params).model_sha256 == digest
        assert replace(right_params, faces=None).model_sha256 == digest
        for name in ("template_vertices", "skinning_weights", "joint_regressor", "shape_dirs"):
            values = getattr(right_params, name).copy()
            values.flat[7] = np.nextafter(values.flat[7], np.inf)
            assert replace(right_params, **{name: values}).model_sha256 != digest, name
        parents = right_params.parents.copy()
        parents[5] = 0
        assert replace(right_params, parents=parents).model_sha256 != digest
        assert replace(right_params, shape_dirs=None).model_sha256 != digest
        assert right_params.mirrored().model_sha256 != digest

    def test_a_model_file_names_its_own_digest(self, right_params, tmp_path):
        """A hand-model/1 file stores float32, so its model is another model."""
        save_hand_model(right_params, tmp_path / "hand.json")
        loaded = load_hand_model(tmp_path / "hand.json")
        assert loaded.model_sha256 != right_params.model_sha256
        assert load_hand_model(tmp_path / "hand.json").model_sha256 == loaded.model_sha256


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
