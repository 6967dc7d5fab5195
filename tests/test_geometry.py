import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover import geometry
from handover.errors import DegenerateDirection, NonUnitQuaternion, ParallelAxes
from handover.geometry import (
    HandFrame,
    RigidTransform,
    build_frame,
    cross3,
    frozen_array,
    matching_transform,
    matrix_to_quat,
    matrix_to_rot6d,
    quat_canonical,
    quat_multiply,
    quat_to_matrix,
    rot6d_to_matrix,
    rot_x,
    rot_y,
    rot_z,
    rotation_residuals,
    row_norms,
    transform_pose,
    unit,
)

from helpers import (
    random_frame,
    random_quaternion,
    random_rotation,
    random_unit,
    reference_matrix_to_quat,
    reference_quat_canonical,
    reference_quat_multiply,
    reference_unit,
    rotation_residual_reference,
)

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=32)
vec3 = st.tuples(finite, finite, finite)
nonzero_vec3 = vec3.filter(lambda v: np.linalg.norm(v) > 0.1)


def frames_close(a: HandFrame, b: HandFrame, tol=1e-9):
    return (
        np.allclose(a.center, b.center, atol=tol)
        and np.allclose(a.direction, b.direction, atol=tol)
        and np.allclose(a.normal, b.normal, atol=tol)
    )


class TestBuildFrame:
    def test_canonical_axes(self):
        frame = build_frame((0, 0, 0), (1, 0, 0), (0, 0, 1))
        assert np.allclose(frame.rotation, np.eye(3), atol=1e-15)
        assert np.allclose(frame.center, 0.0)

    def test_axis_permutation(self):
        frame = build_frame((1, 2, 3), (0, 1, 0), (0, 0, 1))
        expected = np.column_stack([(0, 1, 0), (-1, 0, 0), (0, 0, 1)])
        assert np.allclose(frame.rotation, expected, atol=1e-15)
        assert np.allclose(frame.center, (1, 2, 3))

    def test_gram_schmidt_removes_direction_component(self):
        frame = build_frame((0, 0, 0), (1, 0, 0), np.array([1, 0, 1]) / np.sqrt(2))
        assert np.allclose(frame.rotation, np.eye(3), atol=1e-12)

    def test_zero_direction_raises(self):
        with pytest.raises(DegenerateDirection):
            build_frame((0, 0, 0), (0, 0, 0), (0, 0, 1))
        with pytest.raises(DegenerateDirection):
            build_frame((0, 0, 0), (1, 0, 0), (0, 0, 0))

    def test_parallel_axes_raise(self):
        with pytest.raises(ParallelAxes):
            build_frame((0, 0, 0), (1, 0, 0), (2, 0, 0))
        with pytest.raises(ParallelAxes):
            build_frame((0, 0, 0), (1, 0, 0), (-3, 0, 0))

    @given(vec3, nonzero_vec3, nonzero_vec3)
    def test_output_is_proper_rotation(self, c, d, p):
        d, p = np.asarray(d), np.asarray(p)
        cos = abs(d @ p) / (np.linalg.norm(d) * np.linalg.norm(p))
        if cos > 0.99:
            return
        frame = build_frame(c, d, p)
        r = frame.rotation
        assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-9
        assert abs(np.linalg.det(r) - 1.0) <= 1e-9
        # column 1 is parallel to the input direction
        assert np.allclose(np.cross(r[:, 0], d / np.linalg.norm(d)), 0.0, atol=1e-9)
        assert abs(frame.direction @ frame.normal) <= 1e-10

    @given(
        nonzero_vec3,
        nonzero_vec3,
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance(self, d, p, scale_d, scale_p):
        d, p = np.asarray(d), np.asarray(p)
        cos = abs(d @ p) / (np.linalg.norm(d) * np.linalg.norm(p))
        if cos > 0.99:
            return
        a = build_frame((0, 0, 0), d, p)
        b = build_frame((0, 0, 0), scale_d * d, scale_p * p)
        assert np.allclose(a.rotation, b.rotation, atol=1e-12)


class TestMatchingTransform:
    def test_identical_frames_give_identity(self, rng):
        for _ in range(20):
            frame = random_frame(rng)
            h = matching_transform(frame, frame)
            assert np.allclose(h.rotation, np.eye(3), atol=1e-12)
            assert np.allclose(h.translation, 0.0, atol=1e-12)

    def test_canonical_to_rotated(self):
        imagined = build_frame((0, 0, 0), (1, 0, 0), (0, 0, 1))
        real = build_frame((0.5, 0, 0), (0, 1, 0), (0, 0, 1))
        h = matching_transform(imagined, real)
        assert np.allclose(h.rotation, rot_z(np.pi / 2), atol=1e-12)
        assert np.allclose(h.translation, (0.5, 0, 0), atol=1e-12)

    def test_maps_imagined_onto_real(self, rng):
        for _ in range(200):
            f1, f2 = random_frame(rng), random_frame(rng)
            h = matching_transform(f1, f2)
            assert np.allclose(h.apply(f1.center), f2.center, atol=1e-9)
            assert float(h.rotate(f1.direction) @ f2.direction) >= 1.0 - 1e-9
            angle = np.arccos(np.clip(h.rotate(f1.normal) @ f2.normal, -1, 1))
            assert angle <= 1e-6

    def test_composition_consistency(self, rng):
        for _ in range(50):
            f1, f2, f3 = (random_frame(rng) for _ in range(3))
            direct = matching_transform(f1, f3)
            chained = matching_transform(f2, f3).compose(matching_transform(f1, f2))
            assert np.allclose(direct.as_matrix(), chained.as_matrix(), atol=1e-9)


class TestTransformPose:
    def test_identity_is_noop(self):
        p, q = transform_pose((1, 2, 3), (1, 0, 0, 0), RigidTransform.identity())
        assert np.allclose(p, (1, 2, 3))
        assert np.allclose(q, (1, 0, 0, 0))

    def test_rotation_plus_lift(self):
        h = RigidTransform(rot_z(np.pi / 2), (0, 0, 1))
        p, q = transform_pose((1, 0, 0), (1, 0, 0, 0), h)
        assert np.allclose(p, (0, 1, 1), atol=1e-12)
        assert np.allclose(quat_to_matrix(q), rot_z(np.pi / 2), atol=1e-12)

    def test_matches_homogeneous_matrix_oracle(self, rng):
        for _ in range(200):
            p0 = rng.uniform(-1, 1, size=3)
            q0 = random_quaternion(rng)
            h = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, size=3))
            p, q = transform_pose(p0, q0, h)
            oracle = h.as_matrix() @ np.concatenate([p0, [1.0]])
            assert np.allclose(p, oracle[:3], atol=1e-9)
            assert (
                np.linalg.norm(quat_to_matrix(q) - h.rotation @ quat_to_matrix(q0))
                <= 1e-9
            )

    def test_rejects_non_unit_quaternion(self):
        with pytest.raises(NonUnitQuaternion):
            transform_pose((0, 0, 0), (1, 1, 0, 0), RigidTransform.identity())


class TestCross3:
    @staticmethod
    def _vectors(rng, shape):
        """Normal vectors at magnitudes spread over 1e-6 to 1e3."""
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 3, size=shape[:-1] + (1,))

    def test_bitwise_equal_to_np_cross_on_single_vectors(self, rng):
        for _ in range(2000):
            a, b = self._vectors(rng, (3,)), self._vectors(rng, (3,))
            assert cross3(a, b).tobytes() == np.cross(a, b).tobytes()

    def test_bitwise_equal_to_np_cross_on_stacks(self, rng):
        a, b = self._vectors(rng, (5000, 3)), self._vectors(rng, (5000, 3))
        assert cross3(a, b).shape == (5000, 3)
        assert cross3(a, b).tobytes() == np.cross(a, b).tobytes()

    def test_right_handed_basis(self):
        assert np.array_equal(cross3((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (0.0, 0.0, 1.0))


class TestRowNorms:
    def test_bitwise_equal_to_np_linalg_norm_on_rows(self, rng):
        """On rows where adding the squares left to right and right to left
        round differently, so the check tells the two orders apart."""
        a = rng.normal(size=(200_000, 3)) * 10.0 ** rng.uniform(-6, 3, size=(200_000, 3))
        s = a * a
        assert np.count_nonzero((s[:, 0] + s[:, 1]) + s[:, 2] != s[:, 0] + (s[:, 1] + s[:, 2]))
        assert row_norms(a).tobytes() == np.linalg.norm(a, axis=1).tobytes()

    def test_zero_rows(self):
        assert row_norms(np.array([[0.0, -0.0, 0.0], [3.0, 4.0, 0.0]])).tolist() == [0.0, 5.0]


class TestRotationResiduals:
    def test_bitwise_equal_to_the_fixed_order_reference(self, rng):
        """Near-rotations, scaled and reflected ones: every residual has the
        bits of the scalar sums in their stated order."""
        rotations = np.array([random_rotation(rng) for _ in range(300)])
        rotations[100:200] += rng.normal(scale=1e-10, size=(100, 3, 3))
        rotations[200:250] *= rng.uniform(0.5, 2.0, size=(50, 1, 1))
        rotations[250:, :, 2] *= -1.0
        got = rotation_residuals(rotations)
        want = np.array([rotation_residual_reference(r) for r in rotations])
        assert got.tobytes() == want.tobytes()
        assert np.all(got[:100] < 1e-9) and np.all(got[200:] > 1e-3)


class TestRot6d:
    def test_identity_block(self):
        assert np.allclose(rot6d_to_matrix((1, 0, 0, 0, 1, 0)), np.eye(3))

    def test_z_quarter_turn(self):
        assert np.allclose(rot6d_to_matrix((0, 1, 0, -1, 0, 0)), rot_z(np.pi / 2))

    def test_gram_schmidt_cleans_duplicate_component(self):
        assert np.allclose(rot6d_to_matrix((1, 0, 0, 1, 1, 0)), np.eye(3), atol=1e-12)

    def test_round_trip_exact(self, rng):
        for _ in range(300):
            r = random_rotation(rng)
            assert np.allclose(rot6d_to_matrix(matrix_to_rot6d(r)), r, atol=1e-12)

    def test_random_input_yields_valid_rotation(self, rng):
        for _ in range(300):
            r6 = rng.uniform(-2, 2, size=6)
            if np.linalg.norm(r6[:3]) < 1e-3:
                continue
            try:
                r = rot6d_to_matrix(r6)
            except ParallelAxes:
                continue
            assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-9
            assert abs(np.linalg.det(r) - 1.0) <= 1e-9

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DegenerateDirection):
            rot6d_to_matrix((0, 0, 0, 0, 1, 0))
        with pytest.raises(ParallelAxes):
            rot6d_to_matrix((1, 0, 0, 2, 0, 0))


class TestQuaternions:
    def test_identity_round_trip(self):
        assert np.allclose(quat_to_matrix((1, 0, 0, 0)), np.eye(3))
        assert np.allclose(matrix_to_quat(np.eye(3)), (1, 0, 0, 0))

    def test_z_quarter_turn_equivalence(self):
        q = np.array([np.sqrt(2) / 2, 0, 0, np.sqrt(2) / 2])
        assert np.allclose(quat_to_matrix(q), rot_z(np.pi / 2), atol=1e-12)
        assert np.allclose(matrix_to_quat(rot_z(np.pi / 2)), q, atol=1e-12)

    def test_round_trip_canonical(self, rng):
        for _ in range(300):
            q = random_quaternion(rng)
            back = matrix_to_quat(quat_to_matrix(q))
            assert np.allclose(back, quat_canonical(q), atol=1e-12)

    def test_canonicalization_makes_w_nonnegative(self, rng):
        for _ in range(100):
            q = random_quaternion(rng) * (-1) ** int(rng.integers(2))
            assert quat_canonical(q)[0] >= 0.0

    def test_multiply_matches_matrix_product(self, rng):
        for _ in range(100):
            a, b = random_quaternion(rng), random_quaternion(rng)
            left = quat_to_matrix(quat_multiply(a, b))
            right = quat_to_matrix(a) @ quat_to_matrix(b)
            assert np.allclose(left, right, atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitQuaternion):
            quat_to_matrix((1.0, 0.1, 0.0, 0.0))

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_shepperd_covers_all_branches(self, seed):
        r = random_rotation(np.random.default_rng(seed))
        q = matrix_to_quat(r)
        assert np.allclose(quat_to_matrix(q), r, atol=1e-12)


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _shepperd_branch(m) -> str:
    diagonal = np.diag(m)
    return "trace" if diagonal.sum() > diagonal.max() else f"i={int(np.argmax(diagonal))}"


class TestPrimitivesAgainstNumpyScalarReference:
    """The Python-float and one-norm forms of the per-frame primitives give
    the bytes their numpy-scalar, np.linalg.norm forms in helpers give."""

    def test_matrix_to_quat_reaches_every_shepperd_branch(self, rng):
        # Half-turns about x, y and z, and rotations near them, pick i = 0, 1, 2.
        near = [rot(np.pi - 0.3 * rng.random()) @ rot_z(0.05) for rot in (rot_x, rot_y, rot_z)]
        matrices = [np.eye(3), rot_x(np.pi), rot_y(np.pi), rot_z(np.pi), *near]
        matrices += [random_rotation(rng) for _ in range(2000)]
        # Scaled and perturbed, the arithmetic runs on inputs that are no rotation.
        matrices += [1.5 * m + 1e-3 * rng.normal(size=(3, 3)) for m in matrices[:200]]
        branches = set()
        for m in matrices:
            branches.add(_shepperd_branch(m))
            assert _same_bytes(matrix_to_quat(m), reference_matrix_to_quat(m)), m
        assert branches == {"trace", "i=0", "i=1", "i=2"}

    def test_quat_multiply(self, rng):
        for _ in range(1000):
            a, b = rng.normal(size=(2, 4)) * rng.uniform(0.1, 10.0)
            assert _same_bytes(quat_multiply(a, b), reference_quat_multiply(a, b))

    @pytest.mark.parametrize(
        "q",
        [
            (0.0, 0.0, -1.0, 2.0),
            (0.0, 0.0, 1.0, -2.0),
            (-0.0, -0.0, 0.0, -1.0),
            (0.0, -0.0, 0.0, 1.0),
            (0.0, 0.0, 0.0, 0.0),
            (-0.0, 0.0, -0.0, 0.0),
            (-0.5, 0.5, -0.5, 0.5),
            (0.5, -0.5, 0.5, -0.5),
        ],
    )
    def test_quat_canonical_sign_cases(self, q):
        got = quat_canonical(q)
        assert _same_bytes(got, reference_quat_canonical(q))
        assert _same_bytes(quat_canonical(np.array(q)), got)

    def test_quat_canonical_random(self, rng):
        for _ in range(1000):
            q = rng.normal(size=4)
            q[rng.random(4) < 0.2] = 0.0
            assert _same_bytes(quat_canonical(q), reference_quat_canonical(q))

    def test_unit_on_arrays_and_strided_views(self, rng):
        # A strided view dotted in place rounds differently from a copy, so
        # the columns check that unit takes the norm np.linalg.norm takes.
        for _ in range(2000):
            m = rng.normal(size=(3, 3)) * rng.uniform(1e-6, 1e3)
            for v in (m[0], m[:, 1], m[::-1, 2], list(m[2])):
                assert _same_bytes(unit(v), reference_unit(v, "vector"))

    def test_unit_refuses_as_before(self):
        with pytest.raises(DegenerateDirection, match=r"^direction has norm 1\.000e-10$"):
            unit((1e-10, 0.0, 0.0), name="direction")


class TestCachedArrays:
    def test_frame_rotation_is_read_only_and_fresh(self, rng):
        for _ in range(20):
            frame = random_frame(rng)
            rotation = frame.rotation
            assert rotation is frame.rotation
            d, p = frame.direction, frame.normal
            assert _same_bytes(rotation, np.column_stack([d, np.cross(p, d), p]))
            with pytest.raises(ValueError):
                rotation[0, 0] = 2.0
            with pytest.raises(ValueError):
                rotation[:] = 0.0

    def test_transform_quaternion_is_read_only_and_fresh(self, rng):
        for _ in range(20):
            transform = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3))
            quaternion = transform.quaternion
            assert quaternion is transform.quaternion
            assert _same_bytes(quaternion, matrix_to_quat(transform.rotation))
            assert _same_bytes(quaternion, reference_matrix_to_quat(transform.rotation))
            with pytest.raises(ValueError):
                quaternion[0] = 1.0
        # Derived transforms compute their own.
        inverse = transform.inverse()
        assert _same_bytes(inverse.quaternion, matrix_to_quat(inverse.rotation))


class TestRigidTransform:
    def test_matrix_round_trip(self, rng):
        t = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3))
        back = RigidTransform.from_matrix(t.as_matrix())
        assert np.allclose(back.rotation, t.rotation)
        assert np.allclose(back.translation, t.translation)

    def test_compose_inverse_is_identity(self, rng):
        t = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3))
        ident = t.compose(t.inverse()).as_matrix()
        assert np.allclose(ident, np.eye(4), atol=1e-12)

    def test_composition_is_associative(self, rng):
        a, b, c = (
            RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3)) for _ in range(3)
        )
        left = a.compose(b).compose(c).as_matrix()
        right = a.compose(b.compose(c)).as_matrix()
        assert np.allclose(left, right, atol=1e-12)

    def test_apply_batches(self, rng):
        t = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3))
        pts = rng.uniform(-1, 1, size=(10, 3))
        batched = t.apply(pts)
        for i in range(10):
            assert np.allclose(batched[i], t.apply(pts[i]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(4), np.zeros(3))
        with pytest.raises(ValueError):
            RigidTransform.from_matrix(np.zeros((4, 4)))


class _Wanted(Exception):
    """Stands for the caller's own error type."""


class TestFrozenArray:
    def test_none_axis_accepts_any_length(self):
        for rows in (1, 4, 250):
            assert frozen_array(np.zeros((rows, 3)), (None, 3), _Wanted, "x").shape == (rows, 3)
        with pytest.raises(_Wanted, match="^x must have shape"):
            frozen_array(np.zeros((4, 2)), (None, 3), _Wanted, "x")
        with pytest.raises(_Wanted, match="^x must have shape"):
            frozen_array(np.zeros(3), (None, 3), _Wanted, "x")

    def test_returns_a_read_only_copy(self):
        source = np.arange(6.0).reshape(2, 3)
        out = frozen_array(source, (2, 3), _Wanted, "x")
        assert out.dtype == np.float64
        assert np.array_equal(out, source)
        assert not np.shares_memory(out, source)
        assert not out.flags.writeable
        source[0, 0] = 9.0
        assert out[0, 0] == 0.0
        with pytest.raises(ValueError):
            out[0, 0] = 1.0

    @pytest.mark.parametrize(
        "source",
        [
            np.arange(6.0, dtype=np.float32).reshape(2, 3),
            np.arange(6.0, dtype=np.float16).reshape(2, 3),
            np.arange(6.0, dtype=">f8").reshape(2, 3),
            np.arange(12.0).reshape(2, 6)[:, ::2],
        ],
        ids=["float32", "float16", "big-endian", "strided"],
    )
    def test_float_arrays_are_copied_to_native_float(self, source):
        out = frozen_array(source, (2, 3), _Wanted, "x")
        assert out.dtype == np.float64 and out.dtype.isnative
        assert out.tolist() == source.tolist()
        assert not np.shares_memory(out, source) and not out.flags.writeable
        with pytest.raises(_Wanted, match="^x must have shape"):
            frozen_array(source, (3, 2), _Wanted, "x")
        bad = source.copy()
        bad[1, 1] = np.inf
        with pytest.raises(_Wanted, match="^x must hold finite numbers"):
            frozen_array(bad, (2, 3), _Wanted, "x")
        with pytest.raises(_Wanted, match="^x must hold whole numbers"):
            frozen_array(source + 0.5, (2, 3), _Wanted, "x", int)

    def test_int_dtype(self):
        out = frozen_array([[0, 1, 2], [2, 1, 0]], (None, 3), _Wanted, "faces", int)
        assert out.dtype.kind == "i"
        assert out.tolist() == [[0, 1, 2], [2, 1, 0]]
        for bad in (np.array([0.0, np.nan, 2.0]), [0, np.inf, 2], [0, 1.5, 2]):
            with pytest.raises(_Wanted):
                frozen_array(bad, (3,), _Wanted, "faces", int)

    @pytest.mark.parametrize(
        "value",
        ["abc", [1.0, "x", 2.0], [[1.0, 2.0], [3.0]], {"a": 1}, None],
        ids=["string", "mixed", "ragged", "object", "none"],
    )
    def test_non_numeric_raises_callers_type(self, value):
        with pytest.raises(_Wanted):
            frozen_array(value, (3,), _Wanted, "x")

    @pytest.mark.parametrize(
        "value",
        ["12", "-0.38", b"1", ["1", "2", "3"], True, np.True_, [True, False, True],
         np.array(["1", "2", "3"]), np.array([b"1", b"2", b"3"]), np.array([1, 0, 1], bool),
         np.array([1.0, 2.0, 3.0], dtype=object), 10**30],
        ids=["str", "str-float", "bytes", "str-list", "bool", "numpy-bool", "bool-list",
             "str-array", "bytes-array", "bool-array", "object-array", "int-beyond-int64"],
    )
    def test_strings_booleans_and_objects_are_not_numbers(self, value):
        shape = np.shape(value) if np.ndim(value) else ()
        with pytest.raises(_Wanted, match="^x must hold numbers"):
            frozen_array(value, shape, _Wanted, "x")
        with pytest.raises(_Wanted, match="^x must hold numbers"):
            frozen_array(value, shape, _Wanted, "x", int)

    @pytest.mark.parametrize(
        "value", [12, 12.0, np.int32(12), np.float32(12.0), np.uint8(12), [12], np.array([12])],
    )
    def test_numbers_of_any_numeric_type_are_read(self, value):
        assert frozen_array(value, np.shape(value), _Wanted, "x", int).ravel().tolist() == [12]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_raises_callers_type(self, bad):
        with pytest.raises(_Wanted, match="^x must hold finite numbers"):
            frozen_array([0.0, bad, 1.0], (3,), _Wanted, "x")

    def test_value_types_reject_non_finite(self):
        nan3 = [0.0, float("nan"), 0.0]
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3), nan3)
        with pytest.raises(ValueError):
            HandFrame(nan3, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        bottom_nan = np.eye(4)
        bottom_nan[3, 0] = np.nan
        with pytest.raises(ValueError):
            RigidTransform.from_matrix(bottom_nan)


def test_random_unit_is_unit(rng):
    for _ in range(10):
        assert abs(np.linalg.norm(random_unit(rng)) - 1.0) < 1e-12


def test_geometry_module_constants():
    assert geometry.VERIFY_TOL == 1e-9
