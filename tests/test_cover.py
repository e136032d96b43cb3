import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasimetric import (CoverageError, DegenerateCandidatesError, Direction,
                         QueryVectors, arbitrary_cover, build_classifier,
                         build_from_matrix, diameter, exact_min_cover,
                         gen_backedge_line, gen_cycle, gen_line, gen_random_bounded,
                         greedy_cover, iterated_cover, load_matrix, log_star,
                         make_sample, nearest, predict, transpose, verify_cover)
from quasimetric.cover import min_cover_size_masks

from conftest import (brute_arbitrary_cover, brute_greedy_cover, brute_min_cover,
                      random_quasimetric, tie_heavy_spaces)


_FLIPPED_KIND = {"pos-outer": "pos-inner", "pos-inner": "pos-outer",
                 "neg-outer": "neg-inner", "neg-inner": "neg-outer"}


def corpus(rng, count, n_lo=2, n_hi=12):
    """Random strict instances with a radius drawn from realized distances."""
    out = []
    for i in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        qm = random_quasimetric(rng, n)
        finite = np.unique(qm.dist[qm.dist > 0])
        alpha = float(finite[int(rng.integers(0, len(finite)))])
        direction = Direction.OUTER if i % 2 == 0 else Direction.INNER
        out.append((qm, alpha, direction))
    return out


@st.composite
def cover_instances(draw):
    """A tie-heavy space, a target, candidates, and a radius among its sums."""
    qm = draw(tie_heavy_spaces())
    ids = st.integers(min_value=0, max_value=qm.n - 1)
    target = sorted(draw(st.sets(ids, min_size=1)))
    candidates = sorted(draw(st.sets(ids, min_size=1)))
    alpha = draw(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]))
    return qm, target, candidates, alpha


def assert_greedy_matches_oracle(qm, target, candidates, alpha, direction, eps):
    """``greedy_cover``, without or with ``eps``, gives the set
    oracle's picks, assignment, leftovers and rounds, or its failure."""
    if eps is None:
        build = lambda: greedy_cover(qm, target, candidates, alpha, direction)
    else:
        build = lambda: greedy_cover(qm, target, candidates, alpha, direction, eps)
    size = len(set(target))
    allowed = 0 if eps is None else max(a for a in range(size + 1) if a / size <= eps)
    picks, assignment, uncovered = brute_greedy_cover(
        qm, target, candidates, alpha, direction, allowed)
    if picks is None:
        with pytest.raises(CoverageError, match="lie in no candidate ball") as err:
            build()
        assert err.value.uncoverable == uncovered
        return
    assert build().to_dict() == {
        "direction": direction.value, "radius": alpha, "size": len(picks),
        "cover_ids": picks,
        "assignment": {str(k): v for k, v in sorted(assignment.items())},
        "uncovered": sorted(uncovered),
        "stats": {"iterations": len(picks),
                  "distance_evaluations": len(set(target)) * len(set(candidates)),
                  "fallback": False, "radius_schedule": []}}


class TestGreedyCover:
    def test_line_inner_alpha1(self):
        qm = gen_line(8).space
        cov = greedy_cover(qm, range(8), range(8), 1.0, Direction.INNER)
        assert cov.cover_ids == [1, 3, 5, 7]
        assert cov.uncovered == set()
        assert cov.assignment[0] == 1 and cov.assignment[6] == 7

    def test_backedge_inner_alpha1_single_center(self):
        qm = gen_backedge_line(8).space
        cov = greedy_cover(qm, range(8), range(8), 1.0, Direction.INNER)
        assert cov.cover_ids == [0]

    def test_subset_cover(self):
        qm = gen_cycle(8).space
        cov = greedy_cover(qm, [2, 3], range(8), 1.0, Direction.OUTER)
        assert cov.cover_ids == [2]
        assert cov.assignment == {2: 2, 3: 2}

    def test_evaluation_counter(self):
        qm = gen_cycle(8).space
        cov = greedy_cover(qm, range(8), range(8), 2.0, Direction.OUTER)
        assert cov.stats.distance_evaluations == 64
        sub = greedy_cover(qm, [2, 3], range(8), 1.0, Direction.OUTER)
        assert sub.stats.distance_evaluations == 16

    def test_infeasible_raises_with_ids(self):
        qm = gen_line(8).space
        with pytest.raises(CoverageError) as err:
            greedy_cover(qm, [0, 1], [7], 1.0, Direction.INNER)
        assert err.value.uncoverable == {0, 1}

    def test_ratio_vs_exhaustive_oracle(self, rng):
        for qm, alpha, direction in corpus(rng, 40):
            cov = greedy_cover(qm, range(qm.n), range(qm.n), alpha, direction)
            opt, _ = brute_min_cover(qm, range(qm.n), range(qm.n), alpha, direction)
            ratio = math.ceil(math.log(qm.n)) + 1
            assert cov.size <= ratio * opt
            ok, offenders = verify_cover(qm, cov, range(qm.n))
            assert ok, offenders

    def test_transpose_with_flipped_direction_identical(self, rng):
        # Criterion 1: each construction on qm in direction d gives what it
        # gives on transpose(qm) in d.flipped().
        for qm, alpha, direction in corpus(rng, 10):
            t, flip, pts = transpose(qm), direction.flipped(), range(qm.n)
            builds = [
                lambda s, d: greedy_cover(s, pts, pts, alpha, d),
                lambda s, d: greedy_cover(s, pts, pts, alpha, d, 0.3),
                lambda s, d: arbitrary_cover(s, pts, pts, alpha, d),
                lambda s, d: arbitrary_cover(s, pts, pts, alpha, d, seed=3),
                lambda s, d: iterated_cover(s, pts, pts, alpha, d, 2.0),
                # at the diameter the schedule runs, so the final reassignment does
                lambda s, d: iterated_cover(s, pts, pts, diameter(s), d, 2.0),
            ]
            for build in builds:
                cov, flipped = build(qm, direction), build(t, flip)
                assert flipped.direction is flip
                assert cov.to_dict() == {**flipped.to_dict(), "direction": direction.value}
                for radius in (cov.radius, cov.radius / 2):
                    assert verify_cover(qm, cov, pts, radius) == \
                        verify_cover(t, flipped, pts, radius)

            cand = sorted(rng.choice(qm.n, size=max(1, qm.n // 2), replace=False).tolist())
            for q in pts:
                qv = QueryVectors(from_query=qm.dist[q].tolist(),
                                  to_query=qm.dist[:, q].tolist())
                qv_t = QueryVectors(from_query=qv.to_query, to_query=qv.from_query)
                res = nearest(qm, cand, q, direction)
                assert res == nearest(t, cand, q, flip)
                assert res == nearest(qm, cand, qv, direction)
                assert res == nearest(t, cand, qv_t, flip)

            if qm.n < 2:
                continue
            labels = {i: 1 if i % 2 == 0 else -1 for i in pts}
            for algorithm in ("greedy", "iterated", "arbitrary"):
                try:
                    clf = build_classifier(make_sample(qm, labels), algorithm=algorithm)
                except DegenerateCandidatesError:
                    with pytest.raises(DegenerateCandidatesError):
                        build_classifier(make_sample(t, labels), algorithm=algorithm)
                    continue
                clf_t = build_classifier(make_sample(t, labels), algorithm=algorithm)
                assert (clf_t.margins.rho_pm, clf_t.margins.rho_mp) == \
                    (clf.margins.rho_mp, clf.margins.rho_pm)
                # pos-outer on t is pos-inner on qm, and so on
                mirrored = {c.kind: c.to_dict() for c in clf.candidates}
                for c in clf_t.candidates:
                    assert {**c.to_dict(), "kind": _FLIPPED_KIND[c.kind]} == \
                        mirrored[_FLIPPED_KIND[c.kind]]
                clf_f = replace(clf, direction=clf.direction.flipped(), space=t)
                for q in pts:
                    qv = QueryVectors(from_query=qm.dist[q].tolist(),
                                      to_query=qm.dist[:, q].tolist())
                    qv_t = QueryVectors(from_query=qv.to_query, to_query=qv.from_query)
                    res = predict(clf, q)
                    assert res.label == labels[q] and res.evaluations == clf.k
                    assert res == predict(clf_f, q) == predict(clf, qv) == \
                        predict(clf_f, qv_t)

    @given(shift=st.integers(min_value=-3, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, shift):
        # doubling all distances and the radius cannot change any comparison
        qm = gen_backedge_line(7).space
        scale = 2.0 ** shift
        scaled = build_from_matrix(qm.dist * scale)
        base = greedy_cover(qm, range(7), range(7), 2.0, Direction.OUTER)
        big = greedy_cover(scaled, range(7), range(7), 2.0 * scale, Direction.OUTER)
        assert base.cover_ids == big.cover_ids

    def test_alpha_zero_self_covers(self):
        qm = gen_cycle(4).space
        cov = greedy_cover(qm, range(4), range(4), 0.0, Direction.INNER)
        assert cov.size == 4

    @given(instance=cover_instances(), direction=st.sampled_from(list(Direction)),
           eps=st.sampled_from([None, 0.3, 0.5]))
    # alpha 0 on the 4-cycle: every ball is its own center, so eps 0.5
    # stops after exactly two picks with two targets left
    @example(instance=(gen_cycle(4).space, [0, 1, 2, 3], [0, 1, 2, 3], 0.0),
             direction=Direction.OUTER, eps=0.5)
    @settings(max_examples=200, deadline=None)
    def test_matches_set_oracle(self, instance, direction, eps):
        assert_greedy_matches_oracle(*instance, direction, eps)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_matches_set_oracle_across_words(self, direction):
        # A ring's balls are id intervals; relabeling scatters them over
        # the five 64-bit words of 300 targets, so rounds change some words
        # and leave others, and the kernel's gain update must skip only
        # the words left alone.
        ring = gen_random_bounded(300, 5).space
        perm = np.random.default_rng(11).permutation(300)
        qm = build_from_matrix(ring.dist[np.ix_(perm, perm)])
        for alpha, eps in [(0.0, None), (10.0, None), (20.0, None), (30.0, None),
                           (20.0, 0.3)]:
            assert_greedy_matches_oracle(qm, range(300), range(300), alpha,
                                         direction, eps)

    def test_nan_and_negative_alpha_rejected_by_every_construction(self):
        qm = gen_cycle(4).space
        builds = [
            lambda a: greedy_cover(qm, range(4), range(4), a, Direction.INNER),
            lambda a: greedy_cover(qm, range(4), range(4), a, Direction.INNER, 0.5),
            lambda a: arbitrary_cover(qm, range(4), range(4), a, Direction.INNER),
            lambda a: iterated_cover(qm, range(4), range(4), a, Direction.INNER, 2.0),
            lambda a: exact_min_cover(qm, range(4), range(4), a, Direction.INNER),
        ]
        for build in builds:
            with pytest.raises(ValueError, match="nan"):
                build(math.nan)
            with pytest.raises(ValueError, match="alpha"):
                build(-1.0)


class TestArbitraryCover:
    def test_line_ascending_takes_everything(self):
        qm = gen_line(8).space
        cov = arbitrary_cover(qm, range(8), range(8), 1.0, Direction.INNER)
        assert cov.size == 8

    def test_shuffled_is_seed_deterministic(self):
        qm = gen_cycle(9).space
        a = arbitrary_cover(qm, range(9), range(9), 2.0, Direction.OUTER, seed=5)
        b = arbitrary_cover(qm, range(9), range(9), 2.0, Direction.OUTER, seed=5)
        assert a.cover_ids == b.cover_ids

    def test_never_beats_feasibility(self, rng):
        for qm, alpha, direction in corpus(rng, 10):
            cov = arbitrary_cover(qm, range(qm.n), range(qm.n), alpha, direction)
            ok, _ = verify_cover(qm, cov, range(qm.n))
            assert ok

    @given(instance=cover_instances(), direction=st.sampled_from(list(Direction)),
           seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2 ** 16)))
    @settings(max_examples=150, deadline=None)
    def test_matches_scan_oracle(self, instance, direction, seed):
        qm, target, candidates, alpha = instance
        scan = candidates
        if seed is not None:  # a seed scans a seeded permutation
            scan = [candidates[i] for i in np.random.default_rng(seed).permutation(
                len(candidates))]
        picks, assignment, uncovered, iterations = brute_arbitrary_cover(
            qm, target, scan, alpha, direction)
        if uncovered:  # a target in no candidate ball
            with pytest.raises(CoverageError, match="lie in no candidate ball") as err:
                arbitrary_cover(qm, target, candidates, alpha, direction, seed=seed)
            assert err.value.uncoverable == uncovered
            return
        cov = arbitrary_cover(qm, target, candidates, alpha, direction, seed=seed)
        assert cov.cover_ids == picks
        assert cov.assignment == assignment
        assert cov.uncovered == uncovered
        assert cov.stats.iterations == iterations
        assert cov.stats.distance_evaluations == len(candidates) * len(target)


class TestEpsCover:
    def test_line_eps_family(self):
        qm = gen_line(8).space
        p, _ = brute_min_cover(qm, range(8), range(8), 1.0, Direction.INNER)
        assert p == 4
        expected_sizes = {0.5: 2, 0.25: 3, 0.1: 4}
        for eps, size in expected_sizes.items():
            cov = greedy_cover(qm, range(8), range(8), 1.0, Direction.INNER, eps)
            assert cov.size == size
            assert len(cov.uncovered) <= eps * 8
            assert cov.stats.iterations <= p * math.ceil(math.log(1 / eps))

    def test_allowance_is_the_largest_whole_count_within_eps(self):
        # 0.29 * 100 is 28.999999999999996 in floating point, yet 29 of the
        # 100 single-point balls may stay uncovered
        cov = greedy_cover(gen_cycle(100).space, range(100), range(100), 0.0,
                           Direction.OUTER, 0.29)
        assert (cov.size, len(cov.uncovered)) == (71, 29)
        assert cov.stats.iterations == 71
        # the float just below 20/53 times 53 rounds up to 20.0, yet only 19
        # of 53 fit within it
        cycle = gen_cycle(53).space
        for eps, left in ((20 / 53, 20), (math.nextafter(20 / 53, 0), 19)):
            cov = greedy_cover(cycle, range(53), range(53), 0.0, Direction.OUTER, eps)
            assert (cov.size, len(cov.uncovered)) == (53 - left, left)

    def test_eps_half_line(self):
        qm = gen_line(8).space
        cov = greedy_cover(qm, range(8), range(8), 1.0, Direction.INNER, 0.5)
        assert cov.cover_ids == [1, 3]
        assert cov.uncovered == {4, 5, 6, 7}

    def test_uncovered_points_skip_verification(self):
        qm = gen_line(8).space
        cov = greedy_cover(qm, range(8), range(8), 1.0, Direction.INNER, 0.5)
        ok, offenders = verify_cover(qm, cov, range(8))
        assert ok and not offenders

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.5])
    def test_eps_domain(self, eps):
        qm = gen_cycle(4).space
        with pytest.raises(ValueError):
            greedy_cover(qm, range(4), range(4), 1.0, Direction.INNER, eps)

    def test_unreachable_coverage_level_raises(self):
        qm = gen_line(8).space
        # candidate 7 inner-covers only {6, 7}: can't get down to 10% uncovered
        with pytest.raises(CoverageError):
            greedy_cover(qm, range(8), [7], 1.0, Direction.INNER, 0.1)


class TestIteratedCover:
    def test_small_instance_falls_back_to_greedy(self):
        qm = gen_cycle(8).space
        it = iterated_cover(qm, range(8), range(8), 4.0, Direction.INNER, 2.0)
        gr = greedy_cover(qm, range(8), range(8), 4.0, Direction.INNER)
        assert it.stats.fallback
        assert it.cover_ids == gr.cover_ids
        assert it.assignment == gr.assignment

    def test_multi_round_schedule(self):
        fx = gen_random_bounded(1024, seed=11)
        qm = fx.space
        alpha = diameter(qm) / 4.0
        cov = iterated_cover(qm, range(qm.n), range(qm.n), alpha,
                             Direction.INNER, 2.0)
        assert not cov.stats.fallback
        schedule = cov.stats.radius_schedule
        assert len(schedule) >= 2
        # early rounds stay below alpha/3, the final leg gets the rest
        assert all(r < alpha / 3 for r in schedule[:-1])
        assert schedule[-1] >= alpha / 3
        assert sum(schedule) <= alpha * (1 + 1e-12)
        ok, offenders = verify_cover(qm, cov, range(qm.n))
        assert ok, offenders
        budget = qm.n ** 2 * (log_star(qm.n) + 1)
        assert cov.stats.distance_evaluations <= budget

    def test_lambda_and_mode_validation(self):
        qm = gen_cycle(8).space
        with pytest.raises(ValueError, match="lambda_hat"):
            iterated_cover(qm, range(8), range(8), 4.0, Direction.INNER, 1.5)
        with pytest.raises(ValueError, match="lambda_hat must be at least 2, got nan"):
            iterated_cover(qm, range(8), range(8), 4.0, Direction.INNER, math.nan)
        relaxed = gen_line(8).space
        with pytest.raises(ValueError, match="strict"):
            iterated_cover(relaxed, range(8), range(8), 4.0, Direction.INNER, 2.0)
        with pytest.raises(ValueError, match="positive"):
            iterated_cover(qm, range(8), range(8), 0.0, Direction.INNER, 2.0)


    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_default_stays_within_the_read_budget(self, data):
        """Every default iterated cover that succeeds reads at most
        n^2 * (log* n + 1) distances."""
        qm = data.draw(tie_heavy_spaces(allow_relaxed=False))
        ids = st.integers(min_value=0, max_value=qm.n - 1)
        target = data.draw(st.sets(ids, min_size=1))
        candidates = data.draw(st.sets(ids, min_size=1))
        direction = data.draw(st.sampled_from(list(Direction)))
        alpha = data.draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])) * max(diameter(qm), 1.0)
        try:
            cov = iterated_cover(qm, target, candidates, alpha, direction)
        except CoverageError:
            return
        assert cov.stats.distance_evaluations <= qm.n ** 2 * (log_star(qm.n) + 1)

    @pytest.mark.parametrize("case", ["golden-ring", "line-60"])
    def test_default_is_lambda_hat_2_within_the_read_budget(self, case):
        # The golden ring at alpha = 300, and 16 targets of a 60-point line
        # (greedy constant 3) at alpha = diam, where lambda_hat 2 and 3 give
        # one coarse round at diam / 4 and every lambda_hat >= 4 falls back.
        if case == "golden-ring":
            qm = load_matrix(Path(__file__).parent / "golden" / "ring.txt")
            runs = [(range(qm.n), range(qm.n), 300.0, Direction.INNER)]
        else:
            qm = build_from_matrix(np.abs(np.arange(60)[:, None] - np.arange(60)[None, :]))
            runs = [(range(16), range(60), diameter(qm), d) for d in Direction]
        for target, candidates, alpha, direction in runs:
            default = iterated_cover(qm, target, candidates, alpha, direction)
            explicit = iterated_cover(qm, target, candidates, alpha, direction, 2.0)
            assert not default.stats.fallback
            assert default.stats.distance_evaluations <= qm.n ** 2 * (log_star(qm.n) + 1)
            assert default.to_dict() == explicit.to_dict()


class TestVerifyCover:
    def test_detects_tampering(self):
        qm = gen_line(8).space
        cov = greedy_cover(qm, range(8), range(8), 1.0, Direction.INNER)
        cov.cover_ids.remove(5)
        ok, offenders = verify_cover(qm, cov, range(8))
        assert not ok
        assert {t for t, _ in offenders} == {4, 5}

    def test_tolerance_slack(self):
        qm = gen_cycle(6).space
        cov = greedy_cover(qm, range(6), range(6), 2.0, Direction.OUTER)
        ok, _ = verify_cover(qm, cov, range(6), alpha=1.9999, tolerance=1e-3)
        assert ok
        ok, _ = verify_cover(qm, cov, range(6), alpha=1.9999)
        assert not ok


class TestExactMinCover:
    def test_matches_exhaustive_oracle(self, rng):
        for qm, alpha, direction in corpus(rng, 25, n_hi=9):
            size, ids = exact_min_cover(qm, range(qm.n), range(qm.n), alpha, direction)
            oracle, _ = brute_min_cover(qm, range(qm.n), range(qm.n), alpha, direction)
            assert size == oracle
            # the returned witness really is a cover of that size
            assert len(ids) == size
            block_ok, _ = verify_cover(
                qm, greedy_cover(qm, range(qm.n), ids, alpha, direction), range(qm.n))
            assert block_ok

    def test_size_cap(self):
        qm = gen_cycle(20).space
        with pytest.raises(ValueError, match="exact"):
            exact_min_cover(qm, range(20), range(20), 3.0, Direction.OUTER)

    def test_mask_solver_basics(self):
        assert min_cover_size_masks(0b111, [0b011, 0b100, 0b111]) == (1, [2])
        size, picked = min_cover_size_masks(0b1111, [0b0011, 0b1100, 0b0110])
        assert size == 2 and sorted(picked) == [0, 1]
        with pytest.raises(CoverageError):
            min_cover_size_masks(0b11, [0b01])
