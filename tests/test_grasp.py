import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover.cloud import ObjectCloud
from handover.errors import (
    EmptyCandidateSet,
    InvalidCandidate,
    NoCandidatesFound,
    SchemaError,
)
from handover.geometry import RigidTransform, rot_x
from handover.grasp import (
    FRICTION_HALF_ANGLE,
    MAX_JAW_WIDTH_M,
    CandidateSet,
    GraspCandidate,
    GripperGeometry,
    SelectionConfig,
    antipodal_candidates,
    clearance_check,
    load_candidates,
    rank_candidates,
    save_candidates,
)
from handover.hand_model import (
    MIDDLE_TIP,
    NUM_KEYPOINTS,
    NUM_VERTICES,
    HandPose,
    PosedHand,
    direction_from_joints,
    geometric_center,
    lbs_forward,
)
from handover.intent import TaskDescription
from handover.pipeline import (
    AntipodalGraspProvider,
    PipelineConfig,
    ProceduralPoseProvider,
    imagine_configuration,
)
from handover.synthetic import box_cloud, cylinder_cloud, synthetic_hand_params
from handover.wrist import sample_receiving_pose

from helpers import broadcast_clearance, candidate_set, random_rotation, score_candidate


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


def _reference_antipodal(cloud, count, seed):
    """The per-pair loop and tuple-key sort antipodal_candidates was written as,
    with the 74 mm jaw and a 0.3 rad friction half-angle.

    Returns [(rotation, midpoint, width)]; the vectorised sampler must match
    it bit for bit, including the order of its RNG draws.
    """
    cloud = cloud.with_normals()
    n_points = cloud.points.shape[0]
    if n_points < 2:
        raise NoCandidatesFound("need at least two points")
    rng = np.random.default_rng(seed)
    if n_points <= 256:
        raw = _reference_all_pairs(cloud)
    else:
        n_pairs = min(max(count * 200, 2000), n_points * (n_points - 1) // 2)
        ii = rng.integers(0, n_points, size=n_pairs)
        jj = rng.integers(0, n_points, size=n_pairs)
        keep = ii < jj
        raw = _reference_qualifying(cloud, ii[keep], jj[keep])
    if len(raw) > count:
        chosen = sorted(rng.choice(len(raw), size=count, replace=False).tolist())
        raw = [raw[i] for i in chosen]
    return raw


@functools.lru_cache(maxsize=1)
def _reference_all_pairs(cloud):
    """All-pairs reference list, which does not depend on the seed or count.

    Tests ask for one cloud many times in a row; the cache keeps the latest
    list only."""
    ii, jj = np.triu_indices(cloud.points.shape[0], k=1)
    return _reference_qualifying(cloud, ii, jj)


def _reference_qualifying(cloud, ii, jj):
    """Sorted (rotation, midpoint, width) of every qualifying pair (ii, jj)."""
    points, normals, centroid = cloud.points, cloud.normals, cloud.centroid
    cos_cone = np.cos(0.3)
    span = points[jj] - points[ii]
    sep = np.linalg.norm(span, axis=1)
    ok = (sep > 1e-9) & (sep <= MAX_JAW_WIDTH_M)
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
    # Whole stacks at once: np.array_equal is still exact, entry by entry.
    assert np.array_equal(out.rotations, [r for r, _, _ in expected])
    assert np.array_equal(out.translations, [m for _, m, _ in expected])
    assert out.widths.tolist() == [w for _, _, w in expected]
    return len(expected)


def _reference_validate_and_rank(candidates, hand, config):
    """The per-candidate validity loop (max-abs residual of R^T R - I, then
    |det R - 1|, against 1e-9), then the score_candidate loop and tuple sort
    that rank_candidates was written as."""
    for k, cand in enumerate(candidates):
        if not np.isfinite(cand.width) or not (0.0 < cand.width <= MAX_JAW_WIDTH_M):
            raise InvalidCandidate(
                f"candidate {k}: jaw width {cand.width} m outside (0, {MAX_JAW_WIDTH_M}]"
            )
        r = cand.transform.rotation
        if max(np.abs(r.T @ r - np.eye(3)).max(), abs(np.linalg.det(r) - 1)) > 1e-9:
            raise InvalidCandidate(f"candidate {k}: candidate rotation is not a proper rotation")
    v_h = direction_from_joints(hand.joints)
    p_h = geometric_center(hand.vertices)
    scored = []
    for i, cand in enumerate(candidates):
        p_g, v_g = cand.transform.translation, cand.transform.rotation[:, 2]
        scored.append((i, score_candidate(v_g, p_g, v_h, p_h, config)))
    scored.sort(key=lambda pair: (pair[1], pair[0]))
    return scored


def _stacked_validate_and_rank(candidates, hand, config):
    """Building the CandidateSet judges it; then one ranking pass."""
    return rank_candidates(candidate_set(candidates), hand, config)


def _outcome(rank, candidates, hand, config):
    """The rank list, or the first error's type and message."""
    try:
        return rank(candidates, hand, config)
    except InvalidCandidate as exc:
        return type(exc), str(exc)


def _random_candidates(rng):
    """Up to 47 candidates; some have bad widths, improper or barely-off
    rotations around the 1e-9 limits, or repeat an earlier candidate."""
    bad_rate = rng.choice([0.0, 0.02, 0.2])
    out = []
    for _ in range(int(rng.integers(1, 48))):
        if out and rng.uniform() < 0.1:
            out.append(out[int(rng.integers(len(out)))])
            continue
        rotation = random_rotation(rng)
        width = rng.uniform(0.001, MAX_JAW_WIDTH_M)
        if rng.uniform() < bad_rate:
            kind = int(rng.integers(4))
            if kind == 0:
                width = rng.choice([0.0, -0.01, 0.08, np.nan, np.inf, MAX_JAW_WIDTH_M + 1e-12])
            elif kind == 1:
                rotation = rotation @ np.diag([1.0, 1.0, -1.0])
            else:
                # max|R^T R - I| and |det R - 1| cross 1e-9 near a stretch of 3e-10.
                rotation = rotation * (1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-10.5, -8.5))
        translation = rng.uniform(-0.5, 0.5, 3)
        if rng.uniform() < 0.2:
            translation = 0.1 * rng.integers(-3, 4, 3)  # equal distances, tied scores
        out.append(_candidate(rotation, translation, width))
    return out


class TestStackedRanking:
    """Construction validates the stack and one array pass scores it; the
    per-candidate loops are its bitwise reference."""

    def test_random_stacks_match_per_candidate_loops(self, rest_hand, right_params, rng):
        posed = lbs_forward(
            right_params,
            HandPose(translation=rng.normal(size=3) * 0.1, pose=rng.normal(size=(16, 6))),
        )
        kinds = set()
        for trial in range(600):
            hand = (rest_hand, posed)[trial % 2]
            config = SelectionConfig(
                distance_weight=rng.uniform(0.0, 3.0),
                cosine_mode=("signed", "absolute")[trial % 3 == 0],
            )
            candidates = _random_candidates(rng)
            want = _outcome(_reference_validate_and_rank, candidates, hand, config)
            got = _outcome(_stacked_validate_and_rank, candidates, hand, config)
            assert got == want
            kinds.add(want[1].split(": ")[1][:10] if isinstance(want, tuple) else "ranked")
        assert kinds == {"ranked", "jaw width ", "candidate "}

    def test_rank_lists_on_sampled_candidates(self, rest_hand):
        for cloud in (cylinder_cloud(), box_cloud()):
            for seed in range(8):
                candidates = antipodal_candidates(cloud, seed=seed)
                want = _reference_validate_and_rank(list(candidates), rest_hand, SelectionConfig())
                assert rank_candidates(candidates, rest_hand, SelectionConfig()) == want

    def test_ties_rank_by_index(self, rest_hand):
        twin = _candidate(np.eye(3), (0.3, 0, 0))
        other = _candidate(np.eye(3), (0.1, 0, 0))
        stack = candidate_set([other, twin, twin, other, twin])
        ranked = rank_candidates(stack, rest_hand, SelectionConfig())
        assert [i for i, _ in ranked] == [1, 2, 4, 0, 3]


class TestCandidateSet:
    def test_stacks_and_indexes_back(self, rng):
        rotations = np.array([random_rotation(rng) for _ in range(5)])
        translations = rng.uniform(-0.2, 0.2, (5, 3))
        widths = rng.uniform(0.01, 0.07, 5)
        sources = [f"file-{k}" for k in range(5)]
        stack = CandidateSet(rotations, translations, widths, sources)
        assert len(stack) == 5
        assert stack.sources == tuple(sources)
        for arr in (stack.rotations, stack.translations, stack.widths):
            assert not arr.flags.writeable
        for k in (0, 3, -1):
            one = stack[k]
            assert isinstance(one, GraspCandidate)
            assert np.array_equal(one.transform.rotation, rotations[k])
            assert np.array_equal(one.transform.translation, translations[k])
            assert one.width == widths[k] and isinstance(one.width, float)
            assert one.source == sources[k]
        assert [c.width for c in stack] == widths.tolist()
        with pytest.raises(IndexError):
            stack[5]

    def test_shapes_and_finiteness_are_checked(self):
        good = (np.tile(np.eye(3), (2, 1, 1)), np.zeros((2, 3)), [0.04, 0.05], ["a", "b"])
        CandidateSet(*good)
        bad_rotation = good[0].copy()
        bad_rotation[1, 0, 0] = np.nan
        for args in (
            (good[0][:, :2], *good[1:]),
            (good[0], np.zeros((3, 3)), *good[2:]),
            (*good[:2], [0.04], good[3]),
            (bad_rotation, *good[1:]),
            (*good[:3], ["a"]),
        ):
            with pytest.raises(ValueError):
                CandidateSet(*args)

    def test_construction_names_the_first_bad_candidate(self):
        rotations = np.tile(np.eye(3), (6, 1, 1))
        rotations[2] = np.diag([1.0, 1.0, -1.0])
        widths = [0.04, 0.04, 0.04, 0.04, 0.09, 0.04]
        sources = ["external"] * 6
        with pytest.raises(InvalidCandidate, match="^candidate 2: candidate rotation"):
            CandidateSet(rotations, np.zeros((6, 3)), widths, sources)
        rotations[2] = np.eye(3)
        with pytest.raises(InvalidCandidate, match=r"^candidate 4: jaw width 0\.09 m outside"):
            CandidateSet(rotations, np.zeros((6, 3)), widths, sources)
        # One candidate with both faults: the width is reported, as the loop did.
        rotations[4] = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidCandidate, match=r"^candidate 4: jaw width 0\.09 m outside"):
            CandidateSet(rotations, np.zeros((6, 3)), widths, sources)
        # Shapes are checked first: a malformed stack is a ValueError, whatever its widths.
        with pytest.raises(ValueError):
            CandidateSet(rotations[:5], np.zeros((6, 3)), widths, sources)


_PERMUTED_SOURCES = {
    "cylinder": cylinder_cloud(rings=24, per_ring=40),  # 960 points
    "box": box_cloud(per_edge=12),  # 864 points
}
_PIPELINE = PipelineConfig.default()


def _jaw_aligned(reference, other):
    """``other`` with each rotation's closing and middle columns negated where
    its closing axis points against the reference's: the pair (i, j) is
    enumerated as i < j, so the closing axis follows the point order."""
    sign = np.sign(np.einsum("ki,ki->k", reference[:, :, 0], other[:, :, 0]))
    return other * np.stack([sign, sign, np.ones_like(sign)], axis=1)[:, None, :]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    shape=st.sampled_from(sorted(_PERMUTED_SOURCES)),
    size=st.integers(50, 256),
    seed=st.integers(0, 2**32 - 1),
)
def test_permuted_tie_free_cloud_gives_the_same_candidates_and_grasp(shape, size, seed):
    """Up to 256 points the sampler enumerates every pair, and a jittered
    cloud has no tied midpoints, so the point order cannot change which
    pairs are drawn. Midpoints and widths keep their bytes. The centroid
    sums in another order, so frames agree to round-off, and the closing
    axis may point the other way (see _jaw_aligned)."""
    rng = np.random.default_rng(seed)
    source = _PERMUTED_SOURCES[shape]
    pick = rng.choice(len(source.points), size=size, replace=False)
    points = source.points[pick] + rng.normal(scale=3e-4, size=(size, 3))
    perm = rng.permutation(size)
    clouds = [ObjectCloud(shape, p, n) for p, n in
              ((points, source.normals[pick]), (points[perm], source.normals[pick][perm]))]
    sample_seed = int(rng.integers(100))
    try:
        first = antipodal_candidates(clouds[0], seed=sample_seed)
    except NoCandidatesFound:
        with pytest.raises(NoCandidatesFound):
            antipodal_candidates(clouds[1], seed=sample_seed)
        return
    second = antipodal_candidates(clouds[1], seed=sample_seed)
    assert np.array_equal(first.translations, second.translations)
    assert np.array_equal(first.widths, second.widths)
    aligned = _jaw_aligned(first.rotations, second.rotations)
    assert np.allclose(aligned, first.rotations, rtol=0.0, atol=1e-12)

    task = TaskDescription(shape, "right")
    chosen = [
        imagine_configuration(task, cloud, ProceduralPoseProvider(),
                              AntipodalGraspProvider(seed=sample_seed), _PIPELINE)
        for cloud in clouds
    ]
    assert chosen[0].selection.selected_index == chosen[1].selection.selected_index
    grasps = [c.grasp for c in chosen]
    assert np.array_equal(grasps[0].transform.translation, grasps[1].transform.translation)
    assert grasps[0].width == grasps[1].width
    aligned = _jaw_aligned(grasps[0].transform.rotation[None], grasps[1].transform.rotation[None])
    assert np.allclose(aligned[0], grasps[0].transform.rotation, rtol=0.0, atol=1e-12)


def _rank_score(candidate, hand, config=SelectionConfig()):
    """The score rank_candidates gives one candidate."""
    return rank_candidates(candidate_set([candidate]), hand, config)[0][1]


def _score(v_g, p_g, v_h, config):
    """rank_candidates' score of a candidate approaching along v_g from p_g,
    for a hand pointing along v_h whose vertex centroid is the origin."""
    joints = np.zeros((NUM_KEYPOINTS, 3))
    joints[MIDDLE_TIP] = v_h
    hand = PosedHand(np.zeros((NUM_VERTICES, 3)), joints, "right")
    return _rank_score(_candidate_with_approach(v_g, p_g), hand, config)


class TestCenterAndDirection:
    """rank_candidates reads the grasp center as the translation and the
    approach axis as the third rotation column."""

    def _assert_scored_as(self, candidate, hand, p_g, v_g):
        v_h, p_h = direction_from_joints(hand.joints), geometric_center(hand.vertices)
        want = score_candidate(v_g, p_g, v_h, p_h, SelectionConfig())
        assert _rank_score(candidate, hand) == pytest.approx(want, abs=1e-12)

    def test_identity(self, rest_hand):
        self._assert_scored_as(_candidate(np.eye(3), (0, 0, 0)), rest_hand, (0, 0, 0), (0, 0, 1))

    def test_x_quarter_turn(self, rest_hand):
        cand = _candidate(rot_x(np.pi / 2), (0.1, 0, 0))
        self._assert_scored_as(cand, rest_hand, (0.1, 0, 0), (0, -1, 0))

    def test_random_is_third_column_and_unit(self, rest_hand, rng):
        for _ in range(100):
            r = random_rotation(rng)
            v_g = r @ np.array([0.0, 0.0, 1.0])
            assert abs(np.linalg.norm(v_g) - 1.0) <= 1e-12
            translation = rng.uniform(-1, 1, 3)
            self._assert_scored_as(_candidate(r, translation), rest_hand, translation, v_g)


class TestScore:
    def test_antiparallel_far(self):
        cfg = SelectionConfig(distance_weight=1.0, cosine_mode="signed")
        v_h = np.array([1.0, 0.0, 0.0])
        assert _score(-v_h, (0.3, 0, 0), v_h, cfg) == pytest.approx(-1.3)

    def test_perpendicular(self):
        cfg = SelectionConfig()
        assert _score((0, 1, 0), (0.1, 0, 0), (1, 0, 0), cfg) == pytest.approx(-0.1)

    def test_absolute_mode(self):
        cfg = SelectionConfig(cosine_mode="absolute")
        v_h = np.array([1.0, 0.0, 0.0])
        assert _score(-v_h, (0.3, 0, 0), v_h, cfg) == pytest.approx(0.7)

    def test_score_decreases_with_distance(self, rng):
        for mode in ("signed", "absolute"):
            cfg = SelectionConfig(cosine_mode=mode)
            v = np.array([0.0, 1.0, 0.0])
            near = _score(v, (0.1, 0, 0), v, cfg)
            far = _score(v, (0.5, 0, 0), v, cfg)
            assert far < near

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SelectionConfig(cosine_mode="other")
        with pytest.raises(ValueError):
            SelectionConfig(distance_weight=-1.0)
        with pytest.raises(ValueError):
            SelectionConfig(clearance_margin=0.0)


def _select(candidates, hand, config):
    """(index, score) of the best candidate: the first pair rank_candidates gives."""
    return rank_candidates(candidate_set(candidates), hand, config)[0]


class TestSelect:
    def test_mode_divergence_on_170_vs_90(self, rest_hand):
        """Equidistant candidates at 170 and 90 degrees to the hand direction
        pick differently under the two cosine conventions."""
        v_h = direction_from_joints(rest_hand.joints)
        p_h = geometric_center(rest_hand.vertices)
        # both 0.2 m from the hand center, along +x from it
        offset = p_h + 0.2 * np.array([1.0, 0.0, 0.0])
        deg170 = np.cos(np.radians(170)) * v_h + np.sin(np.radians(170)) * np.array([0, 0, 1.0])
        deg90 = np.array([0.0, 0.0, 1.0])
        candidates = [
            _candidate_with_approach(deg170, offset),
            _candidate_with_approach(deg90, offset),
        ]
        signed, _ = _select(candidates, rest_hand, SelectionConfig(cosine_mode="signed"))
        absolute, _ = _select(candidates, rest_hand, SelectionConfig(cosine_mode="absolute"))
        assert signed == 0
        assert absolute == 1

    def test_single_candidate(self, rest_hand):
        only = _candidate(np.eye(3), (0.3, 0, 0))
        assert _select([only], rest_hand, SelectionConfig()) == (0, _rank_score(only, rest_hand))

    def test_empty_set_raises(self, rest_hand):
        with pytest.raises(EmptyCandidateSet):
            _select([], rest_hand, SelectionConfig())

    def test_matches_brute_force_oracle(self, rest_hand, rng):
        v_h = direction_from_joints(rest_hand.joints)
        p_h = geometric_center(rest_hand.vertices)
        for mode in ("signed", "absolute"):
            cfg = SelectionConfig(cosine_mode=mode, distance_weight=rng.uniform(0.1, 3.0))
            for _ in range(100):
                n = int(rng.integers(1, 64))
                candidates = [
                    _candidate(random_rotation(rng), rng.uniform(-0.5, 0.5, 3))
                    for _ in range(n)
                ]
                index, score = _select(candidates, rest_hand, cfg)
                scores = []
                for cand in candidates:
                    p_g, v_g = cand.transform.translation, cand.transform.rotation[:, 2]
                    cos = float(v_g @ v_h)
                    if mode == "absolute":
                        cos = abs(cos)
                    scores.append(cos - cfg.distance_weight * np.linalg.norm(p_g - p_h))
                oracle = int(np.argmin(scores))
                assert index == oracle
                assert score == pytest.approx(scores[oracle], abs=1e-12)

    def test_ties_break_to_lowest_index(self, rest_hand):
        a = _candidate(np.eye(3), (0.3, 0, 0))
        b = _candidate(np.eye(3), (0.3, 0, 0))
        assert _select([a, b], rest_hand, SelectionConfig())[0] == 0

    def test_argmin_invariant_under_rigid_shift(self, rest_hand, rng):
        """Translating hand and candidates together preserves the winner."""
        candidates = [
            _candidate(random_rotation(rng), rng.uniform(-0.5, 0.5, 3)) for _ in range(16)
        ]
        cfg = SelectionConfig()
        baseline, _ = _select(candidates, rest_hand, cfg)
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
        assert _select(moved, moved_hand, cfg)[0] == baseline


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

    def test_bitwise_equal_to_broadcast_reference(self, right_params, left_params, rng):
        """Random sphere sets against random posed, moved hands of both sides."""
        for k in range(100):
            params = (right_params, left_params)[k % 2]
            sample = sample_receiving_pose(rng.uniform(-90, 90, 3), handedness=params.handedness)
            posed = lbs_forward(params, sample.pose)
            motion = RigidTransform(random_rotation(rng), rng.uniform(-0.5, 0.5, 3))
            hand = PosedHand(motion.apply(posed.vertices), motion.apply(posed.joints),
                             params.handedness)
            spheres = int(rng.integers(1, 9))
            geom = GripperGeometry(rng.uniform(-0.1, 0.1, (spheres, 3)),
                                   rng.uniform(0.001, 0.03, spheres))
            cand = _candidate(random_rotation(rng), rng.uniform(-0.5, 0.5, 3))
            got = clearance_check(cand, geom, hand).min_distance
            assert np.float64(got).tobytes() == np.float64(
                broadcast_clearance(cand, geom, hand)
            ).tobytes()

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

    def test_prefilter_slack_covers_normals_off_unit(self):
        """Normals 0.9e-6 longer than unit, which ObjectCloud accepts, that
        just pass the cone test: n_i . n_j exceeds -cos 2theta by about 2e-6."""
        half_angle, stretch = FRICTION_HALF_ANGLE, 1.0 + 0.9e-6
        c = (np.cos(half_angle) + 1e-12) / stretch
        s = np.sqrt(1.0 - c * c)
        normals = stretch * np.array([(-c, s, 0.0), (c, s, 0.0)])
        assert normals[0] @ normals[1] > -np.cos(2 * half_angle) + 1e-6
        cloud = ObjectCloud("pair", np.array([(-0.02, 0, 0), (0.02, 0, 0)]), normals)
        assert len(antipodal_candidates(cloud)) == 1

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

    def test_random_pair_draw_stops_growing_with_count(self):
        """The draw is capped at the cloud's n(n-1)/2 distinct pairs, so one
        call's memory stops growing with count once the cap binds."""
        cloud = cylinder_cloud(rings=15, per_ring=20)  # 300 points: 44850 pairs
        peaks = []
        for count in (10**3, 10**4):  # 200k and 2M pairs uncapped
            tracemalloc.start()
            try:
                antipodal_candidates(cloud, count=count, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Uncapped, the peaks were 8.4 and 84 MiB.
        assert peaks[1] <= 1.05 * peaks[0]
        assert peaks[1] < 4 * 2**20
        # Above the cap the sampler still matches the reference loop.
        _assert_matches_reference(_RANDOM_PAIR_CLOUDS[0], 300, 0)

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
        out = antipodal_candidates(cloud, count=64, seed=2)
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
            candidates = antipodal_candidates(cloud, count=4, seed=seed)
            for cand in candidates:
                r = cand.transform.rotation
                assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-9

    def test_jaw_cap_applies_even_with_larger_request(self):
        # Two of the box's sizes are wider than the jaw.
        cloud = box_cloud(size=(0.2, 0.2, 0.06))
        out = antipodal_candidates(cloud, count=64, seed=0)
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
            _candidate(random_rotation(rng), rng.uniform(-0.2, 0.2, 3), 0.05, f"camera-{k % 3}")
            for k in range(5)
        ]
        path = tmp_path / "grasps.json"
        save_candidates(candidate_set(candidates), path)
        loaded = load_candidates(path)
        assert len(loaded) == 5
        for orig, back in zip(candidates, loaded):
            assert np.allclose(orig.transform.as_matrix(), back.transform.as_matrix())
            assert back.width == pytest.approx(orig.width)
            assert back.source == orig.source

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

    @pytest.mark.parametrize(
        "rotation", [np.diag([1.0, 1.0, -1.0]), 1.001 * np.eye(3)], ids=["reflection", "scaled"]
    )
    def test_improper_rotation_rejected_at_load(self, tmp_path, rotation):
        matrix = np.eye(4)
        matrix[:3, :3] = rotation
        record = {"matrix": matrix.reshape(-1).tolist(), "width_m": 0.04, "source": "file"}
        path = tmp_path / "grasps.json"
        path.write_text(json.dumps([record]))
        with pytest.raises(InvalidCandidate, match="proper rotation"):
            load_candidates(path)

    def test_rotation_judged_by_max_abs_residual(self, tmp_path):
        """max(max|R^T R - I|, |det R - 1|) <= 1e-9 is proper. The band matrix
        reads 0.90e-9 by that rule and 1.56e-9 by the Frobenius norm, so it
        loads; stretching one axis by 6e-10 reads 1.2e-9 and is still refused."""
        e = 4.5e-10
        path = tmp_path / "grasps.json"
        for diagonal, proper in (((1 + e, 1 - e, 1 + e), True), ((1 + 6e-10, 1, 1), False)):
            matrix = np.diag([*diagonal, 1.0])
            path.write_text(json.dumps([{"matrix": matrix.reshape(-1).tolist(), "width_m": 0.04}]))
            if proper:
                assert np.array_equal(load_candidates(path).rotations[0], matrix[:3, :3])
            else:
                with pytest.raises(InvalidCandidate, match="^candidate 0: candidate rotation"):
                    load_candidates(path)

    @pytest.mark.parametrize(
        "bad, message",
        [({"width_m": 0.08}, "jaw width 0.08 m"),
         ({"matrix": np.diag([1.0, 1.0, -1.0, 1.0]).reshape(-1).tolist()}, "candidate rotation")],
        ids=["overwide", "reflection"],
    )
    def test_bad_candidate_named_by_index(self, tmp_path, bad, message):
        good = {"matrix": np.eye(4).reshape(-1).tolist(), "width_m": 0.04, "source": "file"}
        path = tmp_path / "grasps.json"
        path.write_text(json.dumps([good, good, {**good, **bad}, good, {**good, **bad}]))
        with pytest.raises(InvalidCandidate, match=f"^candidate 2: {message}"):
            load_candidates(path)

    def test_malformed_record_rejected_before_any_candidate_check(self, tmp_path):
        """Every record is parsed before the stack is validated, so a malformed
        record 3 is reported even though record 1 is too wide."""
        good = {"matrix": np.eye(4).reshape(-1).tolist(), "width_m": 0.04, "source": "file"}
        records = [good, {**good, "width_m": 0.08}, good, {**good, "matrix": [1, 2, 3]}]
        path = tmp_path / "grasps.json"
        path.write_text(json.dumps(records))
        with pytest.raises(SchemaError, match="^bad grasp record: matrix must have shape"):
            load_candidates(path)
        path.write_text(json.dumps(records[:3]))
        with pytest.raises(InvalidCandidate, match="^candidate 1: jaw width"):
            load_candidates(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "grasps.json"
        path.write_text(json.dumps([{"matrix": [1, 2, 3]}]))
        with pytest.raises(SchemaError):
            load_candidates(path)
        path.write_text("{}")
        with pytest.raises(SchemaError):
            load_candidates(path)
