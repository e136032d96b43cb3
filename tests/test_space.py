import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimetric import (Direction, Mode, QueryVectors, ball, build_from_digraph,
                         build_from_matrix, diameter, gen_cycle, gen_line, nearest,
                         set_distance, subspace, transpose, validate)
from quasimetric.space import (load_edge_list, load_matrix, parse_matrix_text,
                               save_edge_list, save_matrix)

from conftest import brute_ball, brute_nearest, floyd_warshall, random_quasimetric

INF = math.inf


class TestBuildFromMatrix:
    def test_accepts_valid(self):
        qm = build_from_matrix([[0, 1], [2, 0]])
        assert qm.n == 2
        assert qm.mode is Mode.STRICT
        assert qm.validated is None

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            build_from_matrix([[0, 1, 2], [1, 0, 2]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            build_from_matrix([[0, -1], [1, 0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            build_from_matrix([[0, float("nan")], [1, 0]])

    def test_rejects_inf_in_strict(self):
        with pytest.raises(ValueError, match="strict"):
            build_from_matrix([[0, INF], [1, 0]])

    def test_relaxed_allows_inf(self):
        qm = build_from_matrix([[0, INF], [1, 0]], mode=Mode.RELAXED)
        assert qm.has_infinite

    def test_strict_identity_flag(self):
        build_from_matrix([[0, 0], [0, 0]])  # fine without the flag
        with pytest.raises(ValueError, match="zero distance"):
            build_from_matrix([[0, 0], [0, 0]], strict_identity=True)

    def test_matrix_read_only(self):
        qm = build_from_matrix([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            qm.dist[0, 1] = 5.0


class TestBuildFromDigraph:
    def test_matches_independent_closure(self, rng):
        # scipy shortest paths vs our own Floyd-Warshall oracle
        for _ in range(20):
            n = int(rng.integers(2, 9))
            w = np.full((n, n), INF)
            for _ in range(n * 2):
                u, v = rng.integers(0, n, size=2)
                if u != v:
                    w[u, v] = min(w[u, v], float(rng.integers(1, 10)))
            edges = [(u, v, w[u, v]) for u in range(n) for v in range(n)
                     if np.isfinite(w[u, v])]
            qm = build_from_digraph(n, edges, mode=Mode.RELAXED)
            assert np.array_equal(qm.dist, floyd_warshall(w))

    def test_parallel_edges_keep_min(self):
        qm = build_from_digraph(2, [(0, 1, 5), (0, 1, 2), (1, 0, 1)])
        assert qm.dist[0, 1] == 2.0

    def test_self_loops_ignored(self):
        qm = build_from_digraph(2, [(0, 0, 9), (0, 1, 1), (1, 0, 1)])
        assert qm.dist[0, 0] == 0.0

    def test_strict_requires_strong_connectivity(self):
        with pytest.raises(ValueError, match="no path"):
            build_from_digraph(3, [(0, 1, 1), (1, 2, 1)])
        qm = build_from_digraph(3, [(0, 1, 1), (1, 2, 1)], mode=Mode.RELAXED)
        assert qm.dist[2, 0] == INF

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="out of range"):
            build_from_digraph(2, [(0, 2, 1)])
        with pytest.raises(ValueError, match="bad weight"):
            build_from_digraph(2, [(0, 1, -2), (1, 0, 1)])


class TestValidate:
    def test_closure_spaces_pass(self, rng):
        for _ in range(10):
            qm = random_quasimetric(rng, int(rng.integers(2, 10)))
            assert validate(qm, tolerance=0.0).passed
            assert qm.validated is True

    def test_detects_planted_violation(self, rng):
        qm = random_quasimetric(rng, 6)
        d = qm.dist.copy()
        d[0, 1] = d.max() * 3  # now longer than any two-leg path
        bad = build_from_matrix(d)
        report = validate(bad, tolerance=0.0)
        assert not report.passed
        assert report.triangle_count > 0
        i, j, k, lhs, rhs = report.triangle_violations[0]
        assert lhs > rhs
        assert (i, j) == (0, 1)

    def test_detects_nonzero_diagonal(self):
        report = validate(build_from_matrix([[0, 1], [1, 0.5]]))
        assert not report.passed
        assert report.nonzero_diagonal == [(1, 0.5)]

    def test_relaxed_infinite_lhs_exempt(self):
        # 1 -> 0 unreachable is fine; finite entries still checked
        qm = build_from_matrix([[0, 1], [INF, 0]], mode=Mode.RELAXED)
        assert validate(qm, tolerance=0.0).passed

    def test_relaxed_still_catches_finite_violations(self):
        line = gen_line(4).space
        d = line.dist.copy()
        d[0, 3] = 99.0
        report = validate(build_from_matrix(d, mode=Mode.RELAXED), tolerance=0.0)
        assert not report.passed

    def test_tolerance_forgives_small_slack(self):
        d = [[0, 2.0000000001, 1], [1, 0, 1], [1, 1, 0]]
        assert not validate(build_from_matrix(d), tolerance=0.0).passed
        assert validate(build_from_matrix(d), tolerance=1e-6).passed


class TestBall:
    def test_cycle_outer_example(self):
        qm = gen_cycle(8).space
        assert ball(qm, 0, 2, Direction.OUTER) == {0, 1, 2}
        assert ball(qm, 0, 2, Direction.INNER) == {0, 6, 7}

    def test_matches_brute_force(self, rng):
        qm = random_quasimetric(rng, 9)
        for center in range(qm.n):
            for radius in (0.0, 1.0, 3.5, 10.0):
                for direction in Direction:
                    assert ball(qm, center, radius, direction) == \
                        brute_ball(qm, center, radius, direction)

    def test_infinite_never_inside(self):
        qm = gen_line(5).space
        assert ball(qm, 3, 1e18, Direction.OUTER) == {3, 4}

    @given(r1=st.floats(min_value=0, max_value=20),
           r2=st.floats(min_value=0, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_radius(self, r1, r2):
        qm = gen_cycle(7).space
        lo, hi = min(r1, r2), max(r1, r2)
        for direction in Direction:
            assert ball(qm, 2, lo, direction) <= ball(qm, 2, hi, direction)

    def test_rejects_bad_args(self):
        qm = gen_cycle(4).space
        with pytest.raises(ValueError):
            ball(qm, 9, 1, Direction.OUTER)
        with pytest.raises(ValueError):
            ball(qm, 0, -1, Direction.OUTER)


class TestSetDistanceAndDiameter:
    def test_directed_set_distance(self):
        # asymmetric four-point sample: forward margin 1, reverse margin 2
        d = [[0, 1.2, 1, 2], [1.2, 0, 2, 2], [2, 2, 0, 1.2], [2, 2, 1.2, 0]]
        qm = build_from_matrix(d)
        assert set_distance(qm, {0, 1}, {2, 3}) == 1.0
        assert set_distance(qm, {2, 3}, {0, 1}) == 2.0

    def test_singleton(self, rng):
        qm = random_quasimetric(rng, 5)
        assert set_distance(qm, [2], [4]) == qm.dist[2, 4]

    def test_empty_raises(self):
        qm = gen_cycle(3).space
        with pytest.raises(ValueError):
            set_distance(qm, [], [1])

    def test_diameter(self):
        assert diameter(gen_cycle(8).space) == 7.0
        # relaxed: infinities are ignored, finite spread counts
        assert diameter(gen_line(8).space) == 7.0
        assert diameter(build_from_matrix([[0.0]])) == 0.0


class TestNearest:
    def test_cycle_example(self):
        qm = gen_cycle(8).space
        res = nearest(qm, {3, 5}, 0, Direction.INNER)
        assert (res.index, res.distance) == (3, 3.0)
        assert res.evaluations == 2

    def test_outer_reads_reverse(self):
        qm = gen_cycle(8).space
        res = nearest(qm, {3, 5}, 0, Direction.OUTER)
        assert (res.index, res.distance) == (5, 3.0)

    def test_tie_breaks_to_lowest_id(self):
        uniform = build_from_matrix(np.ones((4, 4)) - np.eye(4))
        res = nearest(uniform, {1, 2, 3}, 0, Direction.INNER)
        assert (res.index, res.distance) == (1, 1.0)
        res = nearest(uniform, {3, 2}, 0, Direction.OUTER)
        assert res.index == 2

    def test_matches_brute_force_scan(self, rng):
        spaces = [random_quasimetric(rng, 9, wmax=3), gen_line(7).space]  # ties; inf
        for qm in spaces:
            for direction in Direction:
                for q in range(qm.n):
                    cand = rng.choice(qm.n, size=int(rng.integers(1, qm.n + 1)),
                                      replace=False).tolist()
                    res = nearest(qm, cand, q, direction)
                    assert (res.index, res.distance) == \
                        brute_nearest(qm, cand, q, direction)
                    assert res.evaluations == len(cand)

    def test_query_vectors_full_length(self):
        qm = gen_cycle(4).space
        qv = QueryVectors(from_query=[5, 1, 7, 7])
        res = nearest(qm, {0, 1, 2}, qv, Direction.INNER)
        assert (res.index, res.distance, res.evaluations) == (1, 1.0, 3)

    def test_query_vectors_candidate_length(self):
        qm = gen_cycle(4).space
        qv = QueryVectors(to_query=[3, 2])
        res = nearest(qm, {1, 3}, qv, Direction.OUTER)
        assert (res.index, res.distance) == (3, 2.0)

    def test_missing_side_raises(self):
        qm = gen_cycle(4).space
        with pytest.raises(ValueError, match="from_query"):
            nearest(qm, {0}, QueryVectors(to_query=[1, 1, 1, 1]), Direction.INNER)

    def test_wrong_length_raises(self):
        qm = gen_cycle(4).space
        with pytest.raises(ValueError, match="length"):
            nearest(qm, {0, 1, 2}, QueryVectors(from_query=[1, 2]), Direction.INNER)

    def test_query_vectors_reject_nan_and_negative(self):
        qm = gen_cycle(4).space
        bad_sides = ([1, INF, math.nan, 1], [-5, -5, -5, -5], [0, 1, 2, -INF],
                     [math.nan, 1])  # the last one aligned with the candidates
        for side in bad_sides:
            with pytest.raises(ValueError, match="from_query side has a NaN or negative"):
                nearest(qm, {0, 1}, QueryVectors(from_query=side), Direction.INNER)
            with pytest.raises(ValueError, match="to_query side has a NaN or negative"):
                nearest(qm, {0, 1}, QueryVectors(to_query=side), Direction.OUTER)
        # only the side the direction reads is checked
        res = nearest(qm, {0, 1}, QueryVectors(from_query=[4, 3, 2, 1],
                                               to_query=[math.nan] * 4), Direction.INNER)
        assert (res.index, res.distance, res.evaluations) == (1, 3.0, 2)

    def test_all_infinite_reads_keep_lowest_id(self):
        res = nearest(gen_line(5).space, {4, 3}, 1, Direction.OUTER)  # d(3, 1) = inf
        assert (res.index, res.distance, res.evaluations) == (3, INF, 2)


class TestTransposeAndSubspace:
    def test_transpose_swaps_ball_directions(self, rng):
        qm = random_quasimetric(rng, 8)
        flipped = transpose(qm)
        for center in (0, 3, 7):
            for radius in (1.0, 4.0):
                assert ball(qm, center, radius, Direction.OUTER) == \
                    ball(flipped, center, radius, Direction.INNER)

    def test_subspace_entries(self, rng):
        qm = random_quasimetric(rng, 7)
        sub = subspace(qm, [1, 4, 6])
        assert sub.n == 3
        assert sub.dist[0, 2] == qm.dist[1, 6]
        assert sub.dist[2, 1] == qm.dist[6, 4]

    def test_subspace_preserves_mode(self):
        sub = subspace(gen_line(6).space, [0, 5])
        assert sub.mode is Mode.RELAXED
        assert sub.dist[1, 0] == INF


class TestFileFormats:
    def test_matrix_round_trip(self, tmp_path, rng):
        qm = random_quasimetric(rng, 6)
        path = tmp_path / "m.txt"
        save_matrix(path, qm.dist, header=["round trip"])
        again = load_matrix(path)
        assert np.array_equal(again.dist, qm.dist)

    def test_matrix_round_trip_with_inf(self, tmp_path):
        qm = gen_line(5).space
        path = tmp_path / "line.txt"
        save_matrix(path, qm.dist)
        again = load_matrix(path, mode=Mode.RELAXED)
        assert np.array_equal(again.dist, qm.dist)
        for token in ("inf", "INF", "+Infinity", "infinity"):
            assert parse_matrix_text(f"2\n0 {token}\n1 0\n")[0, 1] == INF

    def test_edge_list_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(path, 3, [(0, 1, 1.5), (1, 2, 2.0), (2, 0, 1.0)])
        qm = load_edge_list(path)
        assert qm.dist[0, 2] == 3.5

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\n2\n# rows follow\n0 3\n4 0\n"
        m = parse_matrix_text(text)
        assert m[1, 0] == 4.0

    @pytest.mark.parametrize("text,msg", [
        ("", "empty"),
        ("2\n0 1\n", "expected 2"),
        ("2\n0 1 2\n1 0 2\n", "entries"),
        ("x\n", "point count"),
    ])
    def test_malformed_matrix(self, text, msg):
        with pytest.raises(ValueError, match=msg):
            parse_matrix_text(text)
