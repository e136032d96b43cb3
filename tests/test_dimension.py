import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasimetric import (CoverageError, Direction, build_from_matrix,
                         density_constant, directional_constant, doubling_constant,
                         gen_backedge_line, gen_cycle, gen_hst_toward_root, gen_line,
                         gen_random_bounded, gen_spoke_subset, greedy_cover, log_iter,
                         log_star, to_max_metric, to_min_semimetric, transpose)
from quasimetric import dimension

from conftest import (brute_ball, brute_greedy_clique_cover, brute_greedy_cover,
                      brute_max_packing, brute_min_cover, random_quasimetric,
                      tie_heavy_spaces)


def ball_reference(qm, direction, value, centers=None):
    """Per-ball rows ``(center, radius, value(members, radius / 2))`` over
    every critical ball of ``centers`` (default all), members from the
    brute-force ball in id order."""
    d = qm.dist if direction is Direction.OUTER else qm.dist.T
    rows = []
    for center in range(qm.n) if centers is None else centers:
        for radius in sorted({float(v) for v in d[center] if 0 < v < math.inf}):
            members = sorted(brute_ball(qm, center, radius, direction))
            rows.append((center, radius, value(members, radius / 2)))
    return rows


def greedy_reference(qm, direction, centers=None):
    """Per-ball rows from one set-based greedy oracle run per critical ball."""
    return ball_reference(qm, direction, lambda members, half: len(
        brute_greedy_cover(qm, members, range(qm.n), half, direction)[0]), centers)


def exact_reference(qm, direction):
    """Per-ball rows from one exhaustive minimum cover per critical ball."""
    return ball_reference(qm, direction, lambda members, half: brute_min_cover(
        qm, members, range(qm.n), half, direction)[0])


def assert_matches_reference(est, rows):
    assert est.per_ball == rows
    assert est.value == max([1] + [v for _, _, v in rows])
    witness = next(((c, r) for c, r, v in rows if v == est.value and v > 1), (0, 0.0))
    assert (est.witness_center, est.witness_radius) == witness


def spy_blocks(monkeypatch) -> list:
    """Record, per call of the greedy kernel, the center of each of its
    entries in order (a center's permutation starts with itself on these
    zero-diagonal spaces without ties at 0)."""
    blocks, kernel = [], dimension._cover._greedy_rounds

    def spy(covers, active, ids, *args):
        blocks.append([int(perm[0]) for perm in ids])
        return kernel(covers, active, ids, *args)

    monkeypatch.setattr(dimension._cover, "_greedy_rounds", spy)
    return blocks


class TestIteratedLogs:
    @pytest.mark.parametrize("x,i,expected", [
        (65536, 0, 65536.0),
        (65536, 1, 16.0),
        (65536, 2, 4.0),
        (65536, 3, 2.0),
        (256, 2, 3.0),
        (7.0, 1, math.log2(7.0)),
    ])
    def test_log_iter(self, x, i, expected):
        assert log_iter(x, i) == expected

    def test_log_iter_errors(self):
        with pytest.raises(ValueError):
            log_iter(4, -1)
        with pytest.raises(ValueError, match="undefined"):
            log_iter(1, 2)  # log2(1)=0, next step undefined

    @pytest.mark.parametrize("x,expected", [
        (0.5, 0), (1, 0), (2, 1), (4, 2), (16, 3), (65536, 4), (10 ** 9, 5),
    ])
    def test_log_star(self, x, expected):
        assert log_star(x) == expected


class TestDirectionalConstant:
    def test_backedge_line_exact(self):
        qm = gen_backedge_line(8).space
        inner = directional_constant(qm, Direction.INNER, method="exact")
        outer = directional_constant(qm, Direction.OUTER, method="exact")
        # every point reaches 0 within 1, but half-radius inner balls are
        # singletons: the constant hits the point count
        assert inner.value == 8
        assert (inner.witness_center, inner.witness_radius) == (0, 1.0)
        assert outer.value <= 4

    def test_backedge_line_greedy_matches(self):
        qm = gen_backedge_line(8).space
        assert directional_constant(qm, Direction.INNER).value == 8

    def test_transpose_swaps_directions(self, rng):
        for _ in range(5):
            qm = random_quasimetric(rng, int(rng.integers(3, 9)))
            flipped = transpose(qm)
            for method in ("greedy", "exact"):
                inn = directional_constant(qm, Direction.INNER, method=method)
                out = directional_constant(qm, Direction.OUTER, method=method)
                assert directional_constant(flipped, Direction.OUTER,
                                            method=method).value == inn.value
                assert directional_constant(flipped, Direction.INNER,
                                            method=method).value == out.value

    def test_relaxed_spaces_accepted(self):
        # infinite entries simply never appear in any ball
        tree = gen_hst_toward_root(3).space
        assert directional_constant(tree, Direction.INNER, method="exact").value == 3
        spoke = gen_spoke_subset(3).space
        assert directional_constant(spoke, Direction.INNER, method="exact").value == 9
        assert directional_constant(spoke, Direction.INNER).value == 9

    def test_spoke_constant_tracks_point_count(self):
        # non-hereditary growth: tiny constant on the tree, linear on the subset
        for p in (1, 2, 3):
            spoke = gen_spoke_subset(p).space
            est = directional_constant(spoke, Direction.INNER, method="exact")
            assert est.value == 2 ** p + 1

    def test_greedy_vs_exact_oracle(self, rng):
        # greedy is never better than exact, and exact matches enumeration
        for _ in range(8):
            n = int(rng.integers(2, 8))
            qm = random_quasimetric(rng, n)
            for direction in Direction:
                greedy = directional_constant(qm, direction)
                exact = directional_constant(qm, direction, method="exact")
                assert greedy.value >= exact.value
                ratio = math.ceil(math.log(max(n, 2))) + 1
                assert greedy.value <= ratio * exact.value
                # re-derive the witness ball's optimum independently
                members = sorted(
                    i for i in range(n)
                    if (qm.dist[exact.witness_center, i] if direction is Direction.OUTER
                        else qm.dist[i, exact.witness_center]) <= exact.witness_radius)
                size, _ = brute_min_cover(qm, members, range(n),
                                          exact.witness_radius / 2, direction)
                assert size == exact.value

    def test_single_point(self):
        est = directional_constant(build_from_matrix([[0.0]]), Direction.OUTER)
        assert est.value == 1

    def test_exact_cap(self, rng):
        qm = random_quasimetric(rng, 17)
        with pytest.raises(ValueError, match="exact"):
            directional_constant(qm, Direction.INNER, method="exact")

    @given(qm=tie_heavy_spaces(), direction=st.sampled_from(list(Direction)))
    @example(qm=build_from_matrix([[0.0]]), direction=Direction.OUTER)
    @example(qm=gen_spoke_subset(2).space, direction=Direction.INNER)
    @settings(max_examples=80, deadline=None)
    def test_greedy_kernel_matches_per_ball_reference(self, qm, direction):
        assert_matches_reference(directional_constant(qm, direction),
                                 greedy_reference(qm, direction))

    @given(qm=tie_heavy_spaces(), direction=st.sampled_from(list(Direction)))
    @settings(max_examples=40, deadline=None)
    def test_exact_matches_per_ball_oracle(self, qm, direction):
        assert_matches_reference(directional_constant(qm, direction, method="exact"),
                                 exact_reference(qm, direction))

    @pytest.mark.parametrize("block_cap", [dimension._BLOCK_CAP, 40 * 64 * 3])
    def test_greedy_kernel_matches_reference_at_n40(self, block_cap, monkeypatch):
        # the small cap splits every center's radii into chunks of three
        monkeypatch.setattr(dimension, "_BLOCK_CAP", block_cap)
        qm = gen_random_bounded(40, 3).space
        for direction in Direction:
            assert_matches_reference(directional_constant(qm, direction),
                                     greedy_reference(qm, direction))

    def test_greedy_kernel_matches_reference_across_words(self, monkeypatch):
        # A relabelled n = 80 ring: each center's balls take every size from
        # 1 to 80, so their packed member rows fill one 64-bit word, end on
        # its boundary (64) or spill into a second (65 and up), and the ids
        # of a ball are scattered rather than one run.
        ring = gen_random_bounded(80, 5).space.dist
        perm = np.random.default_rng(5).permutation(80)
        qm = build_from_matrix(ring[np.ix_(perm, perm)])
        centers = [0, 41, 79]
        for direction in Direction:
            d = qm.oriented(direction)
            sizes = {len(brute_ball(qm, c, r, direction)) for c in centers for r in d[c]}
            assert {63, 64, 65, 80} <= sizes
            rows = greedy_reference(qm, direction, centers)
            # the small cap splits every center's radii into chunks of three
            for block_cap in (dimension._BLOCK_CAP, 80 * 128 * 3):
                monkeypatch.setattr(dimension, "_BLOCK_CAP", block_cap)
                est = directional_constant(qm, direction)
                assert [row for row in est.per_ball if row[0] in centers] == rows

    def test_greedy_kernel_uncoverable_member_raises_like_greedy_cover(self):
        # a nonzero diagonal leaves point 0 outside its own half-radius ball
        qm = build_from_matrix([[1.0, 2.0], [2.0, 0.0]])
        with pytest.raises(CoverageError) as ref:
            greedy_cover(qm, [0], range(2), 0.5, Direction.OUTER)
        with pytest.raises(CoverageError) as err:
            directional_constant(qm, Direction.OUTER)
        assert str(err.value) == str(ref.value)
        assert err.value.uncoverable == ref.value.uncoverable == {0}

    @given(qm=tie_heavy_spaces(), direction=st.sampled_from(list(Direction)),
           entries=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_greedy_kernel_matches_reference_in_blocks(self, qm, direction, entries):
        # Blocks of ``entries`` one-word balls: several centers per block,
        # or one center's radii split over several.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dimension, "_BLOCK_CAP", entries * qm.n * 64)
            est = directional_constant(qm, direction)
        assert_matches_reference(est, greedy_reference(qm, direction))

    @pytest.mark.parametrize("per_block", [10, 25, 50])
    def test_blocks_of_a_fixed_entry_count_match_reference(self, per_block, monkeypatch):
        # Every center of this n = 40 ring has 39 radii, one word wide, and
        # no block size here divides 39, so some center's radii straddle two
        # blocks.
        qm = gen_random_bounded(40, 3).space
        monkeypatch.setattr(dimension, "_BLOCK_CAP", per_block * 40 * 64)
        blocks = spy_blocks(monkeypatch)
        for direction in Direction:
            blocks.clear()
            assert_matches_reference(directional_constant(qm, direction),
                                     greedy_reference(qm, direction))
            assert [len(b) for b in blocks] == [per_block] * (40 * 39 // per_block) + \
                [40 * 39 % per_block] * (40 * 39 % per_block > 0)
            assert any(a[-1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert sum(blocks, []) == [c for c in range(40) for _ in range(39)]

    @pytest.mark.parametrize("direction,edge", [
        (Direction.OUTER, {15, 16}),
        (Direction.INNER, {63, 64}),
    ])
    def test_block_of_one_and_two_word_balls(self, direction, edge):
        # On the n = 80 line the OUTER balls of centers up to 15 reach past
        # 64 points and those from 16 on do not; INNER mirrors this at 63 and
        # 64.  Every table spans all 80 points, two words.
        qm = gen_line(80).space
        est = directional_constant(qm, direction)
        centers = sorted(edge | {min(edge) - 1, max(edge) + 1})
        assert [row for row in est.per_ball if row[0] in centers] == \
            greedy_reference(qm, direction, centers)

    def test_uncoverable_member_of_a_later_center_in_the_block(self):
        # Point 1 lies outside its own half-radius ball; center 1's radius-1
        # ball is the block's second center's first entry, and its bit 0 is
        # point 1 under center 1's order but point 0 under center 0's.
        qm = build_from_matrix([[0.0, 2.0], [2.0, 1.0]])
        with pytest.raises(CoverageError) as ref:
            greedy_cover(qm, [1], range(2), 0.5, Direction.OUTER)
        with pytest.raises(CoverageError) as err:
            directional_constant(qm, Direction.OUTER)
        assert str(err.value) == str(ref.value)
        assert err.value.uncoverable == ref.value.uncoverable == {1}

    def test_per_ball_breakdown(self):
        qm = gen_cycle(4).space
        est = directional_constant(qm, Direction.OUTER, method="exact")
        assert est.per_ball  # every (center, realized radius) pair shows up
        centers = {c for c, _, _ in est.per_ball}
        assert centers == {0, 1, 2, 3}
        assert max(v for _, _, v in est.per_ball) == est.value


class TestDoublingConstant:
    def test_two_point_space(self):
        est = doubling_constant(build_from_matrix([[0, 1], [1, 0]]))
        assert est.value == 2

    def test_uniform_space_needs_everyone(self):
        n = 5
        uniform = build_from_matrix(np.ones((n, n)) - np.eye(n))
        est = doubling_constant(uniform, method="exact")
        assert est.value == n

    def test_cycle_max_symmetrization_blows_up(self):
        # adjacent points end up mutually far: radius-7 ball needs all 8
        sym = to_max_metric(gen_cycle(8).space)
        est = doubling_constant(sym, method="exact")
        assert est.value == 8
        assert est.witness_radius == 7.0

    def test_rejects_asymmetric(self):
        qm = gen_cycle(5).space
        with pytest.raises(ValueError, match="symmetric"):
            doubling_constant(qm)

    @given(qm=tie_heavy_spaces(allow_relaxed=False))
    @settings(max_examples=40, deadline=None)
    def test_greedy_kernel_matches_per_ball_reference(self, qm):
        sym = to_max_metric(qm)
        assert_matches_reference(doubling_constant(sym),
                                 greedy_reference(sym, Direction.OUTER))

    @given(qm=tie_heavy_spaces(allow_relaxed=False))
    @settings(max_examples=25, deadline=None)
    def test_exact_matches_per_ball_oracle(self, qm):
        sym = to_max_metric(qm)
        assert_matches_reference(doubling_constant(sym, method="exact"),
                                 exact_reference(sym, Direction.OUTER))

    def test_greedy_upper_bounds_exact(self, rng):
        for _ in range(6):
            sym = to_max_metric(random_quasimetric(rng, int(rng.integers(2, 9))))
            assert doubling_constant(sym).value >= \
                doubling_constant(sym, method="exact").value


class TestDensityConstant:
    def test_uniform_space(self):
        n = 5
        uniform = build_from_matrix(np.ones((n, n)) - np.eye(n))
        assert density_constant(uniform, method="exact").value == n

    def test_exact_matches_enumeration(self, rng):
        for _ in range(6):
            sym = to_max_metric(random_quasimetric(rng, int(rng.integers(2, 8))))
            est = density_constant(sym, method="exact")
            best = 1
            for center in range(sym.n):
                for radius in sorted(set(sym.dist[center])):
                    if radius <= 0:
                        continue
                    members = [i for i in range(sym.n)
                               if sym.dist[center, i] <= radius]
                    best = max(best, brute_max_packing(sym.dist, members, radius / 2))
            assert est.value == best

    def test_greedy_clique_bound_upper_bounds_exact(self, rng):
        for _ in range(6):
            sym = to_min_semimetric(random_quasimetric(rng, int(rng.integers(2, 9))))
            assert density_constant(sym).value >= \
                density_constant(sym, method="exact").value

    @given(qm=tie_heavy_spaces(allow_relaxed=False),
           method=st.sampled_from(["greedy", "exact"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_ball_oracle(self, qm, method):
        sym = to_max_metric(qm)
        oracle = brute_max_packing if method == "exact" else brute_greedy_clique_cover
        assert_matches_reference(
            density_constant(sym, method=method),
            ball_reference(sym, Direction.OUTER,
                           lambda members, half: oracle(sym.dist, members, half)))

    def test_method_validation(self):
        with pytest.raises(ValueError, match="method"):
            density_constant(build_from_matrix([[0, 1], [1, 0]]), method="fast")
