import json

import numpy as np
import pytest

from handover.cloud import ObjectCloud
from handover.errors import (
    EmptyCandidateSet,
    InvalidCandidate,
    NoCandidatesFound,
    SchemaError,
)
from handover.geometry import RigidTransform, random_rotation, rot_x
from handover.grasp import (
    MAX_JAW_WIDTH_M,
    GraspCandidate,
    GripperGeometry,
    SelectionConfig,
    antipodal_candidates,
    clearance_check,
    gripper_center_and_direction,
    load_candidates,
    save_candidates,
    score_candidate,
    select_grasp,
)
from handover.hand_model import HandPose, geometric_center, hand_direction, lbs_forward
from handover.synthetic import box_cloud, cylinder_cloud, synthetic_hand_params


@pytest.fixture(scope="module")
def rest_hand():
    return lbs_forward(synthetic_hand_params("right"), HandPose.rest("right"))


def _candidate(rotation, translation, width=0.04, source="external"):
    return GraspCandidate(RigidTransform(rotation, np.asarray(translation, float)), width, source)


def _candidate_with_approach(approach, translation, width=0.04):
    """Candidate whose third rotation column equals the given unit approach."""
    approach = np.asarray(approach, dtype=float)
    approach = approach / np.linalg.norm(approach)
    pick = np.argmin(np.abs(approach))
    helper = np.zeros(3)
    helper[pick] = 1.0
    x = np.cross(helper, approach)
    x /= np.linalg.norm(x)
    rotation = np.column_stack([x, np.cross(approach, x), approach])
    return _candidate(rotation, translation, width)


def _reference_antipodal(cloud, count, seed, max_width=MAX_JAW_WIDTH_M, friction_half_angle=0.3):
    """The per-pair loop and tuple-key sort antipodal_candidates was written as.

    Returns [(rotation, midpoint, width)]; the vectorised sampler must match
    it bit for bit, including the order of its RNG draws.
    """
    cloud = cloud.with_normals()
    points, normals, centroid = cloud.points, cloud.normals, cloud.centroid
    n_points = points.shape[0]
    if n_points < 2:
        raise NoCandidatesFound("need at least two points")
    effective_width = min(float(max_width), MAX_JAW_WIDTH_M)
    cos_cone = np.cos(friction_half_angle)
    rng = np.random.default_rng(seed)
    if n_points <= 256:
        ii, jj = np.triu_indices(n_points, k=1)
    else:
        n_pairs = max(count * 200, 2000)
        ii = rng.integers(0, n_points, size=n_pairs)
        jj = rng.integers(0, n_points, size=n_pairs)
        keep = ii < jj
        ii, jj = ii[keep], jj[keep]
    span = points[jj] - points[ii]
    sep = np.linalg.norm(span, axis=1)
    ok = (sep > 1e-9) & (sep <= effective_width)
    ii, jj, span, sep = ii[ok], jj[ok], span[ok], sep[ok]
    axis = span / sep[:, None]
    opposing = (np.einsum("ij,ij->i", normals[ii], axis) <= -cos_cone) & (
        np.einsum("ij,ij->i", normals[jj], axis) >= cos_cone
    )
    ii, jj, axis, sep = ii[opposing], jj[opposing], axis[opposing], sep[opposing]
    if ii.size == 0:
        raise NoCandidatesFound("no opposing point pair fits the jaw")

    raw = []
    for a, b, u, width in zip(ii, jj, axis, sep):
        midpoint = 0.5 * (points[a] + points[b])
        away = midpoint - centroid
        away = away - (away @ u) * u
        if np.linalg.norm(away) < 1e-9:
            basis = np.zeros(3)
            basis[np.argmin(np.abs(u))] = 1.0
            perp = np.cross(u, basis)
            approach = perp / np.linalg.norm(perp)
        else:
            approach = -away / np.linalg.norm(away)
        rotation = np.column_stack([u, np.cross(approach, u), approach])
        raw.append((rotation, midpoint, float(width)))
    raw.sort(key=lambda item: (tuple(item[1]), tuple(item[0].reshape(-1)), item[2]))
    if len(raw) > count:
        chosen = sorted(rng.choice(len(raw), size=count, replace=False).tolist())
        raw = [raw[i] for i in chosen]
    return raw


def _jittered(cloud, seed):
    rng = np.random.default_rng(seed)
    points = cloud.points + rng.normal(scale=5e-4, size=cloud.points.shape)
    return ObjectCloud(cloud.name, points).with_normals()


# Clouds of at most 256 points take the all-pairs path, larger ones the
# random-pair path. The jittered boxes have fewer qualifying pairs than
# count=40, so every qualifying pair is returned.
_ALL_PAIRS_CLOUDS = [
    box_cloud(per_edge=3),  # 54 points
    box_cloud(size=(0.05, 0.04, 0.03), per_edge=4),  # 96
    box_cloud(),  # 216
    cylinder_cloud(rings=5, per_ring=10),  # 50
    cylinder_cloud(),  # 240
    cylinder_cloud(rings=16, per_ring=16),  # 256
]
_RANDOM_PAIR_CLOUDS = [
    _jittered(cylinder_cloud(rings=13, per_ring=20), 1),  # 257+ points: 260
    _jittered(box_cloud(per_edge=7), 2),  # 294
    _jittered(cylinder_cloud(rings=40, per_ring=25), 3),  # 1000
    _jittered(box_cloud(size=(0.2, 0.2, 0.06), per_edge=18), 4),  # 1944
]


def _assert_matches_reference(cloud, count, seed):
    try:
        expected = _reference_antipodal(cloud, count, seed)
    except NoCandidatesFound:
        with pytest.raises(NoCandidatesFound):
            antipodal_candidates(cloud, count=count, seed=seed)
        return 0
    out = antipodal_candidates(cloud, count=count, seed=seed)
    assert len(out) == len(expected)
    for cand, (rotation, midpoint, width) in zip(out, expected):
        assert np.array_equal(cand.transform.rotation, rotation)
        assert np.array_equal(cand.transform.translation, midpoint)
        assert cand.width == width
    return len(expected)


class TestCenterAndDirection:
    def test_identity(self):
        p_g, v_g = gripper_center_and_direction(_candidate(np.eye(3), (0, 0, 0)))
        assert np.allclose(p_g, 0.0)
        assert np.allclose(v_g, (0, 0, 1))

    def test_x_quarter_turn(self):
        p_g, v_g = gripper_center_and_direction(
            _candidate(rot_x(np.pi / 2), (0.1, 0, 0))
        )
        assert np.allclose(p_g, (0.1, 0, 0))
        assert np.allclose(v_g, (0, -1, 0), atol=1e-12)

    def test_random_is_third_column_and_unit(self, rng):
        for _ in range(100):
            r = random_rotation(rng)
            _, v_g = gripper_center_and_direction(_candidate(r, rng.uniform(-1, 1, 3)))
            assert np.allclose(v_g, r @ np.array([0.0, 0.0, 1.0]), atol=1e-12)
            assert abs(np.linalg.norm(v_g) - 1.0) <= 1e-12


class TestScore:
    def test_antiparallel_far(self):
        cfg = SelectionConfig(distance_weight=1.0, cosine_mode="signed")
        v_h = np.array([1.0, 0.0, 0.0])
        score = score_candidate(-v_h, (0.3, 0, 0), v_h, (0, 0, 0), cfg)
        assert score == pytest.approx(-1.3)

    def test_perpendicular(self):
        cfg = SelectionConfig()
        score = score_candidate((0, 1, 0), (0.1, 0, 0), (1, 0, 0), (0, 0, 0), cfg)
        assert score == pytest.approx(-0.1)

    def test_absolute_mode(self):
        cfg = SelectionConfig(cosine_mode="absolute")
        v_h = np.array([1.0, 0.0, 0.0])
        score = score_candidate(-v_h, (0.3, 0, 0), v_h, (0, 0, 0), cfg)
        assert score == pytest.approx(0.7)

    def test_score_decreases_with_distance(self, rng):
        for mode in ("signed", "absolute"):
            cfg = SelectionConfig(cosine_mode=mode)
            v = np.array([0.0, 1.0, 0.0])
            near = score_candidate(v, (0.1, 0, 0), v, (0, 0, 0), cfg)
            far = score_candidate(v, (0.5, 0, 0), v, (0, 0, 0), cfg)
            assert far < near

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SelectionConfig(cosine_mode="other")
        with pytest.raises(ValueError):
            SelectionConfig(distance_weight=-1.0)
        with pytest.raises(ValueError):
            SelectionConfig(clearance_margin=0.0)


class TestSelect:
    def test_mode_divergence_on_170_vs_90(self, rest_hand):
        """Equidistant candidates at 170 and 90 degrees to the hand direction
        pick differently under the two cosine conventions."""
        v_h = hand_direction(rest_hand)
        p_h = geometric_center(rest_hand.vertices)
        # both 0.2 m from the hand center, along +x from it
        offset = p_h + 0.2 * np.array([1.0, 0.0, 0.0])
        deg170 = np.cos(np.radians(170)) * v_h + np.sin(np.radians(170)) * np.array([0, 0, 1.0])
        deg90 = np.array([0.0, 0.0, 1.0])
        candidates = [
            _candidate_with_approach(deg170, offset),
            _candidate_with_approach(deg90, offset),
        ]
        signed = select_grasp(candidates, rest_hand, SelectionConfig(cosine_mode="signed"))
        absolute = select_grasp(candidates, rest_hand, SelectionConfig(cosine_mode="absolute"))
        assert signed.index == 0
        assert absolute.index == 1

    def test_single_candidate(self, rest_hand):
        only = _candidate(np.eye(3), (0.3, 0, 0))
        selection = select_grasp([only], rest_hand, SelectionConfig())
        assert selection.index == 0
        assert selection.candidate is only

    def test_empty_set_raises(self, rest_hand):
        with pytest.raises(EmptyCandidateSet):
            select_grasp([], rest_hand, SelectionConfig())

    def test_matches_brute_force_oracle(self, rest_hand, rng):
        v_h = hand_direction(rest_hand)
        p_h = geometric_center(rest_hand.vertices)
        for mode in ("signed", "absolute"):
            cfg = SelectionConfig(cosine_mode=mode, distance_weight=rng.uniform(0.1, 3.0))
            for _ in range(100):
                n = int(rng.integers(1, 64))
                candidates = [
                    _candidate(random_rotation(rng), rng.uniform(-0.5, 0.5, 3))
                    for _ in range(n)
                ]
                selection = select_grasp(candidates, rest_hand, cfg)
                scores = []
                for cand in candidates:
                    p_g, v_g = gripper_center_and_direction(cand)
                    cos = float(v_g @ v_h)
                    if mode == "absolute":
                        cos = abs(cos)
                    scores.append(cos - cfg.distance_weight * np.linalg.norm(p_g - p_h))
                oracle = int(np.argmin(scores))
                assert selection.index == oracle
                assert selection.score == pytest.approx(scores[oracle], abs=1e-12)

    def test_ties_break_to_lowest_index(self, rest_hand):
        a = _candidate(np.eye(3), (0.3, 0, 0))
        b = _candidate(np.eye(3), (0.3, 0, 0))
        assert select_grasp([a, b], rest_hand, SelectionConfig()).index == 0

    def test_argmin_invariant_under_rigid_shift(self, rest_hand, rng):
        """Translating hand and candidates together preserves the winner."""
        candidates = [
            _candidate(random_rotation(rng), rng.uniform(-0.5, 0.5, 3)) for _ in range(16)
        ]
        cfg = SelectionConfig()
        baseline = select_grasp(candidates, rest_hand, cfg).index
        shift = np.array([0.3, -0.2, 0.5])
        from handover.hand_model import PosedHand

        moved_hand = PosedHand(
            vertices=rest_hand.vertices + shift,
            joints=rest_hand.joints + shift,
            handedness=rest_hand.handedness,
        )
        moved = [
            GraspCandidate(
                RigidTransform(c.transform.rotation, c.transform.translation + shift),
                c.width,
                c.source,
            )
            for c in candidates
        ]
        assert select_grasp(moved, moved_hand, cfg).index == baseline


class TestClearance:
    def test_pass_at_known_distance(self, rest_hand):
        # place a r=0.01 sphere exactly 0.1 m beyond the max-x hand vertex
        idx = int(np.argmax(rest_hand.vertices[:, 0]))
        center = rest_hand.vertices[idx] + np.array([0.1, 0.0, 0.0])
        geom = GripperGeometry(np.zeros((1, 3)), np.array([0.01]))
        cand = _candidate(np.eye(3), center)
        result = clearance_check(cand, geom, rest_hand, margin=0.005)
        assert result.passed
        assert result.min_distance == pytest.approx(0.09, abs=1e-12)

    def test_sphere_on_vertex_penetrates(self, rest_hand):
        geom = GripperGeometry(np.zeros((1, 3)), np.array([0.01]))
        cand = _candidate(np.eye(3), rest_hand.vertices[123])
        result = clearance_check(cand, geom, rest_hand, margin=0.005)
        assert not result.passed
        assert result.min_distance == pytest.approx(-0.01, abs=1e-12)

    def test_matches_pairwise_oracle(self, rest_hand, rng):
        geom = GripperGeometry(rng.uniform(-0.05, 0.05, (4, 3)), rng.uniform(0.005, 0.02, 4))
        for _ in range(20):
            cand = _candidate(random_rotation(rng), rng.uniform(-0.3, 0.3, 3))
            result = clearance_check(cand, geom, rest_hand)
            centers = cand.transform.apply(geom.sphere_centers)
            oracle = min(
                np.linalg.norm(c - v) - r
                for c, r in zip(centers, geom.sphere_radii)
                for v in rest_hand.vertices
            )
            assert result.min_distance == pytest.approx(oracle, abs=1e-12)

    def test_invariant_under_joint_rigid_motion(self, rest_hand, rng):
        from handover.hand_model import PosedHand

        geom = GripperGeometry.default_parallel_jaw()
        cand = _candidate(np.eye(3), (0.25, 0.0, 0.0))
        baseline = clearance_check(cand, geom, rest_hand).min_distance
        for _ in range(10):
            motion = RigidTransform(random_rotation(rng), rng.uniform(-1, 1, 3))
            moved_hand = PosedHand(
                vertices=motion.apply(rest_hand.vertices),
                joints=motion.apply(rest_hand.joints),
                handedness=rest_hand.handedness,
            )
            moved_cand = GraspCandidate(
                motion.compose(cand.transform), cand.width, cand.source
            )
            moved = clearance_check(moved_cand, geom, moved_hand).min_distance
            assert moved == pytest.approx(baseline, abs=1e-9)


class TestAntipodal:
    def test_two_point_cloud(self):
        cloud = ObjectCloud(
            "pair",
            np.array([(-0.02, 0, 0), (0.02, 0, 0)]),
            np.array([(-1.0, 0, 0), (1.0, 0, 0)]),
        )
        out = antipodal_candidates(cloud, count=8, seed=0)
        assert len(out) == 1
        cand = out[0]
        assert cand.width == pytest.approx(0.04)
        closing = cand.transform.rotation[:, 0]
        assert np.allclose(np.abs(closing), (1, 0, 0), atol=1e-12)
        assert np.allclose(cand.transform.translation, 0.0, atol=1e-12)
        # The pair axis passes through the centroid, so the approach is the
        # fixed perpendicular x cross e_y.
        assert np.array_equal(cand.transform.rotation[:, 2], (0.0, 0.0, 1.0))
        assert cand.source == "antipodal-sampler"

    @pytest.mark.parametrize("cloud", _ALL_PAIRS_CLOUDS, ids=lambda c: f"{c.name}{len(c.points)}")
    def test_all_pairs_path_matches_reference_loop(self, cloud):
        assert len(cloud.points) <= 256
        for seed in range(10):
            # 10**6 is more than there are pairs: all of them, in order.
            for count in (1, 16, 10**6):
                _assert_matches_reference(cloud, count, seed)

    @pytest.mark.parametrize(
        "cloud", _RANDOM_PAIR_CLOUDS, ids=lambda c: f"{c.name}{len(c.points)}"
    )
    def test_random_pair_path_matches_reference_loop(self, cloud):
        assert 256 < len(cloud.points) <= 2000
        emitted = [
            _assert_matches_reference(cloud, count, seed)
            for seed in range(10)
            for count in (1, 16, 40)
        ]
        if cloud.name == "box":
            assert max(emitted[2::3]) < 40

    def test_box_widths_within_jaw_range(self):
        cloud = box_cloud(size=(0.11, 0.09, 0.05))
        out = antipodal_candidates(cloud, count=32, seed=5)
        assert len(out) >= 1
        for cand in out:
            assert 0.05 - 1e-9 <= cand.width <= MAX_JAW_WIDTH_M

    def test_against_exhaustive_pair_oracle(self):
        """Every emitted candidate must correspond to a pair found by an
        independent exhaustive scan with the same admissibility rules."""
        cloud = box_cloud(size=(0.11, 0.09, 0.05))
        half_angle = 0.3
        out = antipodal_candidates(cloud, friction_half_angle=half_angle, count=64, seed=2)
        points, normals = cloud.points, cloud.normals
        valid = set()
        n = points.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                span = points[j] - points[i]
                sep = np.linalg.norm(span)
                if sep < 1e-9 or sep > MAX_JAW_WIDTH_M:
                    continue
                axis = span / sep
                if normals[i] @ axis > -np.cos(half_angle):
                    continue
                if normals[j] @ axis < np.cos(half_angle):
                    continue
                midpoint = tuple(np.round(0.5 * (points[i] + points[j]), 12))
                valid.add((midpoint, round(sep, 12)))
        for cand in out:
            key = (
                tuple(np.round(cand.transform.translation, 12)),
                round(cand.width, 12),
            )
            assert key in valid

    def test_deterministic_for_fixed_seed(self):
        cloud = box_cloud()
        a = antipodal_candidates(cloud, count=8, seed=42)
        b = antipodal_candidates(cloud, count=8, seed=42)
        assert json.dumps([c.to_dict() for c in a]) == json.dumps([c.to_dict() for c in b])

    def test_different_seed_may_differ_but_all_valid(self):
        cloud = box_cloud()
        for seed in (0, 1, 2):
            for cand in antipodal_candidates(cloud, count=4, seed=seed):
                cand.validate()
                r = cand.transform.rotation
                assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-9

    def test_jaw_cap_applies_even_with_larger_request(self):
        cloud = box_cloud(size=(0.2, 0.2, 0.06))
        out = antipodal_candidates(cloud, max_width=10.0, count=64, seed=0)
        assert all(c.width <= MAX_JAW_WIDTH_M for c in out)

    def test_no_candidates_found(self):
        same_normal = ObjectCloud(
            "flat",
            np.array([(0, 0, 0), (0.02, 0, 0)]),
            np.array([(0, 0, 1.0), (0, 0, 1.0)]),
        )
        with pytest.raises(NoCandidatesFound):
            antipodal_candidates(same_normal, count=4, seed=0)

    def test_single_point_raises(self):
        with pytest.raises(NoCandidatesFound):
            antipodal_candidates(ObjectCloud("one", np.zeros((1, 3))), count=1, seed=0)


class TestCandidateFiles:
    def test_round_trip(self, tmp_path, rng):
        candidates = [
            _candidate(random_rotation(rng), rng.uniform(-0.2, 0.2, 3), width=0.05)
            for _ in range(5)
        ]
        path = tmp_path / "grasps.json"
        save_candidates(candidates, path)
        loaded = load_candidates(path)
        assert len(loaded) == 5
        for orig, back in zip(candidates, loaded):
            assert np.allclose(orig.transform.as_matrix(), back.transform.as_matrix())
            assert back.width == pytest.approx(orig.width)

    def test_overwide_candidate_rejected_at_load(self, tmp_path):
        record = {
            "matrix": np.eye(4).reshape(-1).tolist(),
            "width_m": 0.08,
            "source": "file",
        }
        path = tmp_path / "grasps.json"
        path.write_text(json.dumps([record]))
        with pytest.raises(InvalidCandidate):
            load_candidates(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "grasps.json"
        path.write_text(json.dumps([{"matrix": [1, 2, 3]}]))
        with pytest.raises(SchemaError):
            load_candidates(path)
        path.write_text("{}")
        with pytest.raises(SchemaError):
            load_candidates(path)
