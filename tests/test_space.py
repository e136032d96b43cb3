import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasimetric
from quasimetric import (Direction, Mode, QuasiMetric, QueryVectors, ball,
                         build_from_digraph, build_from_matrix, check_symmetric_axioms,
                         diameter, gen_cycle, gen_line, nearest, set_distance, subspace,
                         to_min_semimetric, transpose, validate)
from quasimetric.space import (_MAX_REPORTED, format_value, load_edge_list, load_matrix,
                               parse_matrix_text, save_edge_list, save_matrix)

from conftest import (brute_ball, brute_nearest, brute_triangle_violations,
                      floyd_warshall, random_quasimetric)

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

    def test_cli_import_leaves_scipy_for_the_closure(self, tmp_path):
        w = np.full((5, 5), INF)
        edges = [(0, 1, 2.0), (1, 2, 1.5), (2, 0, 4.0), (2, 3, 1.0), (3, 4, 0.5),
                 (4, 3, 3.0), (1, 0, 7.0)]
        for u, v, x in edges:
            w[u, v] = x
        path = tmp_path / "g.txt"
        save_edge_list(path, 5, edges)
        script = (
            "import json, sys\n"
            "import quasimetric.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "from quasimetric.space import Mode, load_edge_list\n"
            "qm = load_edge_list(sys.argv[1], mode=Mode.RELAXED)\n"
            "print(json.dumps([[str(x) for x in row] for row in qm.dist.tolist()]))\n")
        src = str(Path(quasimetric.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        loaded, closure = proc.stdout.splitlines()
        assert loaded == "[]"
        got = np.array([[float(x) for x in row] for row in json.loads(closure)])
        assert np.array_equal(got, floyd_warshall(w))


def parity_matrix(n):
    """Weight 1 between points of different parity, 3 between the same."""
    idx = np.arange(n)
    d = np.where((idx[:, None] + idx[None, :]) % 2 == 0, 3.0, 1.0)
    np.fill_diagonal(d, 0.0)
    return d


def layered_matrix(a, m, b):
    """Weight-1 edges from a layer A of ``a`` points to K (``m``) and from K
    to B (``b``), every other off-diagonal entry 3."""
    d = np.full((a + m + b,) * 2, 3.0)
    d[:a, a:a + m] = 1.0
    d[a:a + m, a + m:] = 1.0
    np.fill_diagonal(d, 0.0)
    return d


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

    def test_negative_or_nan_tolerance_rejected(self):
        qm = build_from_matrix([[0, 3, 1], [1, 0, 1], [1, 1, 0]])
        for tol in (-2.0, -1e-9, math.nan):
            with pytest.raises(ValueError, match="tolerance must be non-negative"):
                validate(qm, tolerance=tol)
            with pytest.raises(ValueError, match="tolerance must be non-negative"):
                check_symmetric_axioms(to_min_semimetric(qm), tolerance=tol)

    @given(data=st.data(), n=st.integers(min_value=1, max_value=10),
           relaxed=st.booleans(), closed=st.booleans(),
           tol=st.sampled_from([0.0, 1e-9, 0.5]))
    @settings(max_examples=120, deadline=None)
    def test_triangle_scan_matches_brute_force(self, data, n, relaxed, closed, tol):
        weights = [1.0, 2.0, 3.0] + ([INF] if relaxed else [])
        d = np.array(data.draw(st.lists(st.sampled_from(weights),
                                        min_size=n * n, max_size=n * n))).reshape(n, n)
        d = floyd_warshall(d) if closed else d
        np.fill_diagonal(d, 0.0)
        assert_scans_match_brute_force(d, relaxed, tol)

    @pytest.mark.parametrize("d", [
        # 1800 violations: same-parity pairs (weight 3) via any other-parity
        # k (1 + 1), so the report is truncated
        pytest.param(parity_matrix(20), id="parity-1800"),
        # exactly the |A| * |K| * |B| triples: at the report cap, one past it
        pytest.param(layered_matrix(10, 10, 10), id="layers-1000"),
        pytest.param(layered_matrix(7, 11, 13), id="layers-1001"),
        # hand-built -inf: (0, 2) has a NaN right-hand side via 1
        # (-inf + inf) and a violation via 3
        pytest.param(np.array([[0.0, -INF, 5.0, 1.0], [1.0, 0.0, INF, 1.0],
                               [1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]),
                     id="minus-inf"),
    ])
    def test_triangle_scan_pinned_examples(self, d):
        assert_scans_match_brute_force(d, bool(np.isinf(d).any()), 1e-9)


def assert_scans_match_brute_force(d, relaxed, tol):
    """``validate`` (relaxed when asked) and, on strict input, the symmetric
    check of the min symmetrization report what the triple loop finds."""
    def assert_matches(report, oracle):
        assert report.triangle_count == len(oracle)
        assert report.triangle_violations == oracle[:_MAX_REPORTED]
        assert report.truncated == (len(oracle) > _MAX_REPORTED)

    mode = Mode.RELAXED if relaxed else Mode.STRICT
    assert_matches(validate(QuasiMetric(dist=d, mode=mode), tolerance=tol),
                   brute_triangle_violations(d, tol, exempt_infinite_lhs=relaxed))
    if not relaxed:
        sym = to_min_semimetric(build_from_matrix(d))
        assert_matches(check_symmetric_axioms(sym, tolerance=tol),
                       brute_triangle_violations(sym.dist, tol))


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
        with pytest.raises(ValueError, match="nan"):
            ball(qm, 0, math.nan, Direction.OUTER)


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

    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                           min_size=1, max_size=36),
           header=st.lists(st.text(st.characters(blacklist_categories=["Cs", "Cc"]),
                                   max_size=8), max_size=3))
    @example(values=[0.0, -0.0, INF, -INF, math.nan, 5e-324, 1.7976931348623157e308,
                     0.1, 1 / 3, -2.5e-300, 123456789.0, 1e16, 2.0 ** -1074, -1e22],
             header=["n = 4", ""])
    @settings(max_examples=200, deadline=None)
    def test_matrix_bytes_match_per_value_writer(self, tmp_path_factory, values,
                                                 header):
        cols = max(c for c in range(1, 7) if len(values) % c == 0)
        arr = np.array(values).reshape(-1, cols)
        base = tmp_path_factory.mktemp("save")
        save_matrix(base / "new.txt", arr, header=header)
        with open(base / "old.txt", "w", encoding="utf-8") as fh:
            for line in header:
                fh.write(f"# {line}\n")
            fh.write(f"{arr.shape[0]}\n")
            for row in arr:
                fh.write(" ".join(format_value(v) for v in row) + "\n")
        assert (base / "new.txt").read_bytes() == (base / "old.txt").read_bytes()

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
