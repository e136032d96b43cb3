import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import quasimetric
from quasimetric import (Cover, CoverStats, Direction, Mode, QuasiMetric, QueryVectors,
                         arbitrary_cover, ball, build_classifier, build_from_digraph,
                         build_from_matrix, check_symmetric_axioms, diameter,
                         exact_min_cover, gen_cycle, gen_line, greedy_cover,
                         iterated_cover, make_sample, nearest, predict,
                         set_distance, subspace, to_min_semimetric, transpose, validate,
                         verify_cover)
from quasimetric import _format, _text
from quasimetric import space as space_module
from quasimetric.cli import parse_queries_text
from quasimetric.space import (_MAX_REPORTED, ValidationReport, _nearest_centers,
                               _triangle_scan, format_value,
                               load_edge_list, load_matrix, parse_edge_list_text,
                               parse_matrix_text, save_edge_list, save_matrix)

from conftest import (brute_ball, brute_nearest, brute_triangle_violations,
                      floyd_warshall, random_quasimetric, tie_heavy_spaces,
                      whole_text_edge_list, whole_text_matrix, whole_text_queries)

INF = math.inf


class TestBuildFromMatrix:
    def test_accepts_valid(self):
        qm = build_from_matrix([[0, 1], [2, 0]])
        assert qm.n == 2
        assert qm.mode is Mode.STRICT

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
        # the package's Dijkstra closure vs our own Floyd-Warshall oracle
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

    @given(data=st.data(), n=st.integers(1, 10),
           weights=st.sampled_from([
               st.floats(0.0, 1e6),  # real
               st.integers(0, 2).map(float),  # tie-heavy, zero weights included
               st.sampled_from([0.0, 0.1, 0.2, 0.3, INF]),  # sums that round, and inf
           ]))
    @example(data=None, n=1, weights=None)
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_dijkstra_bit_for_bit(self, data, n, weights):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        from scipy.sparse import csr_matrix

        edges = [] if data is None else data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights),
            max_size=3 * n))
        least: dict[tuple[int, int], float] = {}  # parallel edges keep the minimum
        for u, v, x in edges:
            if u != v:  # self-loops are dropped
                least[(u, v)] = min(x, least.get((u, v), INF))
        graph = csr_matrix(([least[e] for e in least],
                            ([u for u, _ in least], [v for _, v in least])), shape=(n, n))
        want = csgraph.dijkstra(graph, directed=True)
        np.fill_diagonal(want, 0.0)
        got = build_from_digraph(n, edges, mode=Mode.RELAXED).dist
        assert np.array_equal(got, want)

    def test_rows_that_run_out_at_different_steps(self):
        """A 3-cycle on 0, 2, 4 and a 5-cycle on 1, 3, 5, 6, 7, joined by the
        one edge 7 -> 0.  Rows 0, 2 and 4 reach three vertices and leave the
        lock step after three steps; the others reach all eight, and each
        then sits at a new row of the open labels."""
        edges = [(0, 2, 0.5), (2, 4, 1.25), (4, 0, 0.75), (2, 0, 4.0),
                 (1, 3, 1.5), (3, 5, 0.25), (5, 6, 2.0), (6, 7, 0.5), (7, 1, 1.0),
                 (5, 1, 3.0), (7, 0, 0.125)]
        w = np.full((8, 8), INF)
        for u, v, x in edges:
            w[u, v] = x
        got = build_from_digraph(8, edges, mode=Mode.RELAXED).dist
        want = floyd_warshall(w)
        small, large = [0, 2, 4], [1, 3, 5, 6, 7]
        assert np.isinf(want[np.ix_(small, large)]).all() and np.isfinite(want[large]).all()
        assert np.array_equal(got, want)
        try:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import dijkstra
        except ImportError:
            return
        graph = csr_matrix(([x for _, _, x in edges],
                            ([u for u, _, _ in edges], [v for _, v, _ in edges])),
                           shape=(8, 8))
        assert np.array_equal(got, dijkstra(graph, directed=True))

    def test_path_summing_past_the_float_range_is_unreachable(self):
        qm = build_from_digraph(3, [(0, 1, 1e308), (1, 2, 1e308)], mode=Mode.RELAXED)
        assert qm.dist[0, 1] == 1e308 and qm.dist[0, 2] == INF  # as scipy's dijkstra gives

    def test_runs_without_scipy(self, tmp_path):
        """With every scipy import made to fail, `validate` and `transform`
        on an edge list print exactly what a normal run prints."""
        path = tmp_path / "g.txt"
        save_edge_list(path, 5, [(0, 1, 2.0), (1, 2, 1.5), (2, 0, 4.0), (2, 3, 1.0),
                                 (3, 4, 0.5), (4, 3, 3.0), (4, 0, 0.25), (1, 0, 7.0)])
        script = (
            "import sys\n"
            "if sys.argv[1] == 'block':\n"
            "    sys.modules['scipy'] = None  # any scipy import now raises\n"
            "from quasimetric import cli\n"
            "codes = [cli.main(['validate', '--input', sys.argv[2]]),\n"
            "         cli.main(['transform', '--input', sys.argv[2], '--op', 'max'])]\n"
            "loaded = [m for m, mod in sys.modules.items()\n"
            "          if m.split('.')[0] == 'scipy' and mod is not None]\n"
            "print(codes, loaded, file=sys.stderr)\n")
        src = str(Path(quasimetric.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        runs = [subprocess.run([sys.executable, "-c", script, how, str(path)], env=env,
                               capture_output=True, timeout=120, check=True)
                for how in ("block", "plain")]
        for proc in runs:
            assert proc.stderr.decode().splitlines()[-1] == "[0, 0] []"
        assert runs[0].stdout == runs[1].stdout
        assert b'"validate"' in runs[0].stdout and b'"transform"' in runs[0].stdout


MINUS_INF = np.array([[0.0, -INF, 5.0, 1.0], [1.0, 0.0, INF, 1.0],
                      [1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]])


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
        # (-inf + inf) and a violation via 3; reversed, the NaN falls in the
        # last row block, which another thread scans
        pytest.param(MINUS_INF, id="minus-inf"),
        pytest.param(MINUS_INF[::-1, ::-1].copy(), id="minus-inf-reversed"),
    ])
    def test_triangle_scan_pinned_examples(self, monkeypatch, scan_cpus, d):
        monkeypatch.setattr(space_module, "_SCAN_BLOCK_CAP", 2 * len(d))  # 2-row blocks
        assert_scans_match_brute_force(d, bool(np.isinf(d).any()), 1e-9)

    def test_triangle_scan_across_row_blocks(self, monkeypatch, scan_cpus):
        # 7-row blocks at n = 30: four full blocks, then a partial one of 2
        n = 30
        monkeypatch.setattr(space_module, "_SCAN_BLOCK_CAP", 7 * n)
        d = one_way_ring(n)
        d[0, 5] = 9.0    # block 0: too long, violated via k = 1..4
        d[17, 20] = 25.0  # block 2
        d[29, 2] = 0.5   # the partial block: a short leg that others use
        assert_scans_match_brute_force(d, False, 1e-9)
        relaxed = d.copy()
        relaxed[9, 12] = INF  # block 1: exempt as a left-hand side
        assert_scans_match_brute_force(relaxed, True, 0.0)

    @pytest.mark.parametrize("cpus,block_rows,threads", [
        (1, 7, 0), (4, 30, 0), (2, 7, 1), (4, 7, 3), (8, 7, 4)])
    def test_triangle_scan_thread_count(self, monkeypatch, cpus, block_rows, threads):
        """The caller scans the first share of the blocks and starts a thread
        for each other: min(CPUs, blocks) - 1 threads in all."""
        n = 30
        monkeypatch.setattr(_text, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(space_module, "_SCAN_BLOCK_CAP", block_rows * n)
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        d = one_way_ring(n)
        d[17, 20] = 25.0
        assert_scans_match_brute_force(d, False, 1e-9)
        assert len(started) == 2 * threads  # validate, then the symmetric check

    def test_triangle_scan_more_threads_than_cores(self, monkeypatch):
        """Sixteen threads over one-row blocks, switching every microsecond.
        Each row's one violation has its only witness at k = 0, so a thread
        whose running minima another thread reset or overwrote misses it."""
        n = 40
        monkeypatch.setattr(_text, "_usable_cpus", lambda: 16)
        monkeypatch.setattr(space_module, "_SCAN_BLOCK_CAP", 1)
        d = np.full((n, n), 2.0)
        d[:, 0] = d[0, :] = 1.0  # every two-leg path through 0 costs 2
        ids = np.arange(1, n)
        d[ids, ids % (n - 1) + 1] = 3.0  # i -> i + 1 (n - 1 -> 1) beats only via 0
        np.fill_diagonal(d, 0.0)
        oracle = brute_triangle_violations(d, 0.0)
        assert len(oracle) == n - 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert validate(QuasiMetric(dist=d), tolerance=0.0
                                ).triangle_violations == oracle
        finally:
            sys.setswitchinterval(interval)

    def test_triangle_scan_error_in_a_thread_reaches_the_caller(self, monkeypatch):
        """A block that raises on another thread fails the scan once every
        thread has finished, and leaves the report untouched."""
        class BlockError(Exception):
            pass

        class Trap(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, slice) and key.start == 21:
                    raise BlockError("block at row 21")
                return super().__getitem__(key)

        n = 30
        monkeypatch.setattr(_text, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(space_module, "_SCAN_BLOCK_CAP", 7 * n)  # row 21: thread 3
        d = one_way_ring(n)
        d[17, 20] = 25.0
        report = ValidationReport(passed=True, tolerance=0.0)
        before = threading.active_count()
        with pytest.raises(BlockError, match="block at row 21"):
            _triangle_scan(d.view(Trap), report)
        assert threading.active_count() == before
        assert (report.triangle_count, report.triangle_violations) == (0, [])

    def test_in_threads_error_in_the_callers_share_joins_every_thread(self, monkeypatch):
        """An error the caller's share raises while another share runs
        reaches the caller only after that share has finished."""
        class Stop(BaseException):
            pass

        monkeypatch.setattr(_text, "_usable_cpus", lambda: 2)
        running, finished = threading.Event(), []

        def work(share):
            if list(share) == [0, 3]:  # the caller's share
                assert running.wait(timeout=30)
                raise Stop
            running.set()
            time.sleep(0.2)
            finished.append(list(share))

        before = threading.active_count()
        with pytest.raises(Stop):
            _text.in_threads(work, range(4))
        assert finished == [[1, 2]]
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus, shares", [
        (1, [list(range(10))]),
        (2, [[0, 3, 4, 7, 8], [1, 2, 5, 6, 9]]),
        (3, [[0, 5, 6], [1, 4, 7], [2, 3, 8, 9]]),
        (16, [[i] for i in range(10)]),
    ])
    def test_in_threads_deals_in_snake_order(self, monkeypatch, cpus, shares):
        """Share t takes the items at t and 2s-1-t of every 2s (s shares):
        items that cost more along the list split evenly, as the half
        triangle scan's panels do."""
        monkeypatch.setattr(_text, "_usable_cpus", lambda: cpus)
        dealt, lock = [], threading.Lock()

        def work(share):
            with lock:
                dealt.append(list(share))

        _text.in_threads(work, range(10))
        assert sorted(dealt) == shares

    @given(data=st.data(), n=st.integers(min_value=1, max_value=10),
           relaxed=st.booleans(), closed=st.booleans(),
           op=st.sampled_from(["min", "max", "sum"]), panel_cols=st.integers(1, 3),
           tol=st.sampled_from([0.0, 1e-9, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_half_scan_of_symmetric_matrices(self, data, n, relaxed, closed, op,
                                             panel_cols, tol):
        """Exactly symmetric input takes the half scan: each panel scans the
        rows up to its last column, and the transpose supplies the rest."""
        weights = [1.0, 2.0, 3.0] + ([INF] if relaxed else [])
        d = np.array(data.draw(st.lists(st.sampled_from(weights),
                                        min_size=n * n, max_size=n * n))).reshape(n, n)
        d = floyd_warshall(d) if closed else d
        np.fill_diagonal(d, 0.0)
        d = {"min": np.minimum, "max": np.maximum, "sum": np.add}[op](d, d.T)
        assert np.array_equal(d, d.T)
        assert_scans_match_on_cpus(d, relaxed, tol, panel_cols)

    @pytest.mark.parametrize("panel_cols", [1, 2])
    def test_nearly_symmetric_matrix_takes_the_full_scan(self, panel_cols):
        """Symmetric but for ``d[2, 0]``, one ulp above ``d[2, 1] + d[1, 0]``:
        its only violation lies below the diagonal, where a half scan with
        panels narrower than three columns never looks."""
        d = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        d[2, 0] = np.nextafter(3.0, INF)
        assert brute_triangle_violations(d, 0.0) == [(2, 0, 1, d[2, 0], 3.0)]
        assert_scans_match_on_cpus(d, False, 0.0, panel_cols)


@pytest.fixture(params=[1, 4], ids=["1cpu", "4cpus"])
def scan_cpus(request, monkeypatch):
    """The triangle scan sees ``request.param`` usable CPUs."""
    monkeypatch.setattr(_text, "_usable_cpus", lambda: request.param)
    return request.param


def one_way_ring(n):
    """``d[i, j] = (j - i) mod n``: a closed one-way ring."""
    ids = np.arange(n)
    return ((ids[None, :] - ids[:, None]) % n).astype(np.float64)


def assert_scans_match_on_cpus(d, relaxed, tol, panel_cols):
    """:func:`assert_scans_match_brute_force` with the scan's panels
    ``panel_cols`` columns wide, on one and on four usable CPUs."""
    for cpus in (1, 4):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_text, "_usable_cpus", lambda: cpus)
            patch.setattr(space_module, "_SCAN_BLOCK_CAP", panel_cols * len(d))
            assert_scans_match_brute_force(d, relaxed, tol)


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

    @pytest.mark.parametrize("candidates,message", [
        ([], "non-empty candidate set"),
        ([3, 7, -2, 9, -1], "id -2 out of range"),
        ([9, 6, 3, 6], "id 6 out of range"),
        ([2 ** 70, 6], "id 6 out of range"),
        ([2, -2 ** 80, 2 ** 70], f"id {-2 ** 80} out of range"),
    ])
    def test_out_of_range_candidate_reported_by_least_id(self, candidates, message):
        with pytest.raises(ValueError, match=message):
            nearest(gen_cycle(5).space, candidates, 0, Direction.INNER)

    def test_candidates_deduplicated_from_any_iterable(self):
        qm = gen_cycle(6).space
        for cand in ([4, 2, 4, 2], (c for c in (2, 4, 2)), np.array([4, 2, 2]), {2, 4}):
            res = nearest(qm, cand, 0, Direction.INNER)
            assert (res.index, res.distance, res.evaluations) == (2, 2.0, 2)
            assert type(res.index) is int

    def test_all_infinite_reads_keep_lowest_id(self):
        res = nearest(gen_line(5).space, {4, 3}, 1, Direction.OUTER)  # d(3, 1) = inf
        assert (res.index, res.distance, res.evaluations) == (3, INF, 2)


class TestNearestCenters:
    @given(qm=tie_heavy_spaces(weights=(0.0, 1.0, 2.0)), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_scan(self, qm, data):
        ids = st.integers(min_value=0, max_value=qm.n - 1)
        centers = sorted(data.draw(st.sets(ids, min_size=1)))
        points = data.draw(st.lists(ids, max_size=2 * qm.n))
        direction = data.draw(st.sampled_from(list(Direction)))
        reads, owner = _nearest_centers(qm, centers, points, direction)
        assert list(zip(owner.tolist(), reads.tolist())) == \
            [brute_nearest(qm, centers, p, direction) for p in points]


def _six_point_classifier():
    labels = {0: 1, 1: 1, 2: 1, 3: -1, 4: -1, 5: -1}
    return build_classifier(make_sample(gen_cycle(6).space, labels))


# Every public entry point that takes a set of point ids, called on the
# 6-point cycle with ``ids`` in that set's place.
_ID_CALLERS = {
    "greedy_cover target": lambda qm, ids: greedy_cover(qm, ids, range(6), 1.0, "outer"),
    "greedy_cover candidates":
        lambda qm, ids: greedy_cover(qm, range(6), ids, 1.0, "outer"),
    "greedy_cover_eps": lambda qm, ids: greedy_cover(qm, ids, range(6), 1.0, "inner", 0.5),
    "arbitrary_cover": lambda qm, ids: arbitrary_cover(qm, range(6), ids, 1.0, "outer"),
    "iterated_cover": lambda qm, ids: iterated_cover(qm, ids, range(6), 3.0, "inner", 2.0),
    "exact_min_cover": lambda qm, ids: exact_min_cover(qm, range(6), ids, 1.0, "outer"),
    "verify_cover target":
        lambda qm, ids: verify_cover(qm, greedy_cover(qm, range(6), range(6), 1.0,
                                                      "outer"), ids),
    "verify_cover centers":
        lambda qm, ids: verify_cover(qm, Cover(Direction.OUTER, 1.0, list(ids), {}, set(),
                                               CoverStats()), range(6)),
    "set_distance sources": lambda qm, ids: set_distance(qm, ids, [0]),
    "set_distance targets": lambda qm, ids: set_distance(qm, [0], ids),
    "subspace": lambda qm, ids: subspace(qm, ids),
    "nearest": lambda qm, ids: nearest(qm, ids, 0, "inner"),
    "predict": lambda qm, ids: predict(replace(_six_point_classifier(), cover_ids=ids), 0),
    "make_sample": lambda qm, ids: make_sample(
        qm, {i: 1 if t % 2 else -1 for t, i in enumerate(ids)}),
}


class TestIdCheck:
    @pytest.mark.parametrize("caller", sorted(_ID_CALLERS))
    @pytest.mark.parametrize("ids,least_bad", [
        ([0, 1, 9, 7], 7),
        ([2 ** 70, 3, 6], 6),
        ([4, -1, 2 ** 70, -3], -3),
        ([1, -2 ** 80, 2 ** 70], -2 ** 80),
    ])
    def test_every_caller_names_the_least_bad_id(self, caller, ids, least_bad):
        with pytest.raises(ValueError, match=f" id {least_bad} out of range"):
            _ID_CALLERS[caller](gen_cycle(6).space, ids)


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
           header=st.lists(st.text(st.characters(blacklist_categories=["Cs", "Cc", "Zl", "Zp"]),
                                   max_size=8), max_size=3))
    @example(values=[0.0, -0.0, INF, -INF, math.nan, 5e-324, 1.7976931348623157e308,
                     0.1, 1 / 3, -2.5e-300, 123456789.0, 1e16, 2.0 ** -1074, -1e22],
             header=["n = 4", ""])
    @settings(max_examples=200, deadline=None)
    def test_matrix_bytes_match_per_value_writer(self, tmp_path_factory, values,
                                                 header):
        n = math.isqrt(len(values) - 1) + 1  # the smallest square that holds them
        arr = np.array(values + [0.0] * (n * n - len(values))).reshape(n, n)
        path = tmp_path_factory.mktemp("save") / "m.txt"
        save_matrix(path, arr, header=header)
        assert path.read_bytes() == per_value_text(arr, header)

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


LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
GAPS = [" ", "  ", "\t", "\x1f", "\xa0"]  # whitespace that ends no line
NUMBERS = ["0", "3", "1.5", "-0", "1_0", "inf", "-INF", "Infinity", "+inf", "1e400", ".5",
           "nan"]
JUNK = ["x", "1__0", "-", "0x1", "--1", "#"]


@st.composite
def parser_texts(draw, kind, line_breaks=tuple(LINE_BREAKS)):
    """Text in the format of one parser, often well formed, otherwise with a
    bad header, a missing or extra line, a short or long line, or a bad
    token; comments, blank lines and line breaks drawn from ``line_breaks``
    mixed in."""
    size = draw(st.integers(min_value=0, max_value=4))
    junk = draw(st.integers(min_value=0, max_value=3)) == 3
    number = st.sampled_from(NUMBERS + JUNK if junk else NUMBERS)
    if kind == "matrix":
        headers = [str(size), f"+{size}", f" {size} "], ["99999999999", "x", f"{size} {size}"]
        lines, width = size, size
    elif kind == "edges":
        headers = [f"3 {size}"], [f"3 {size} 1", "3", "3 x", f"-1 {size}"]
        lines, width = size, 3
    else:
        headers = [str(size)], ["x", "-1", "99999999999"]
        lines, width = 2 * size, 3
    well_formed = draw(st.integers(min_value=0, max_value=3)) < 3
    header = draw(st.sampled_from(headers[0] if well_formed else headers[1]))
    lines += draw(st.sampled_from([0, 0, 0, -1, 1]))
    body = []
    for _ in range(max(lines, 0)):
        if kind == "queries" and draw(st.integers(min_value=0, max_value=4)) == 4:
            body.append("-")
            continue
        count = max(width + draw(st.sampled_from([0, 0, 0, 0, -1, 1])), 0)
        if kind == "edges":
            ids = st.sampled_from(["0", "1", "2", "x", "1.5"] if junk else ["0", "1", "2"])
            tokens = [draw(ids) for _ in range(2)] + [draw(number)]
            tokens = tokens[:count] + [draw(number)] * (count - 3)
        else:
            tokens = [draw(number) for _ in range(count)]
        gaps = [draw(st.sampled_from(GAPS)) for _ in tokens]
        body.append("".join(g + t for g, t in zip(gaps, tokens)))
    out = []
    for line in [header] + body:
        while draw(st.integers(min_value=0, max_value=5)) == 5:
            out.append(draw(st.sampled_from(["", "  ", "\t", "# comment", "  #x 1 2"])))
        out.append(line)
    breaks = [draw(st.sampled_from(line_breaks)) for _ in out]
    return "".join(line + brk for line, brk in zip(out, breaks))


def parse_outcome(parse, source):
    """What ``parse(source)`` gives, in a form that compares bit for bit:
    float64 arrays as (shape, bytes), or the error's type and message."""
    def bits(value):
        if isinstance(value, np.ndarray):
            assert value.dtype == np.float64
            return value.shape, value.tobytes()
        if isinstance(value, (list, tuple)):
            return [bits(v) for v in value]
        if isinstance(value, QueryVectors):
            return [None if side is None else bits(np.asarray(side))  # oracle: lists
                    for side in (value.from_query, value.to_query)]
        return repr(value)
    try:
        return bits(parse(source))
    except Exception as exc:  # the oracle may raise any type; so must the parser
        return type(exc), str(exc)


class TestStreamingParsers:
    """The line-at-a-time parsers against the whole-text oracles."""

    PARSERS = {
        "matrix": (parse_matrix_text, whole_text_matrix),
        "edges": (parse_edge_list_text, whole_text_edge_list),
        "queries": (lambda src: parse_queries_text(src, 3),
                    lambda text: whole_text_queries(text, 3)),
    }

    @pytest.mark.parametrize("kind", ["matrix", "edges", "queries"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_match_whole_text_oracle(self, tmp_path_factory, kind, data):
        text = data.draw(parser_texts(kind))
        parse, oracle = self.PARSERS[kind]
        expected = parse_outcome(oracle, text)
        assert parse_outcome(parse, text) == expected
        path = tmp_path_factory.mktemp("parse") / "input.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            expected = parse_outcome(oracle, fh.read())
        with open(path, encoding="utf-8") as fh:
            assert parse_outcome(parse, fh) == expected

    def test_count_error_wins_over_a_bad_row(self):
        with pytest.raises(ValueError, match="^expected 3 matrix rows, found 2$"):
            parse_matrix_text("3\n0 x\n1 0 2 9\n")
        with pytest.raises(ValueError, match="^expected 1 edges, found 2$"):
            parse_edge_list_text("2 1\n0 1\n0 1 x\n")
        with pytest.raises(ValueError, match="^expected 2 side lines for 1 queries, found 1$"):
            parse_queries_text("1\n1 x\n", 3)

    def test_query_sides_are_float64_arrays(self):
        (qv,) = parse_queries_text("1\n0 1_0 inf\n-\n", 3)
        assert isinstance(qv.from_query, np.ndarray) and qv.from_query.dtype == np.float64
        assert qv.from_query.tolist() == [0.0, 10.0, INF] and qv.to_query is None

    def test_huge_claimed_count_allocates_nothing(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("# claims ten billion points\n10000000000\n0 1\n1 0\n")
        message = "^expected 10000000000 matrix rows, found 2$"
        with pytest.raises(ValueError, match=message):
            load_matrix(path)
        with pytest.raises(ValueError, match=message):
            parse_matrix_text(path.read_text())

    def test_negative_header_counts_are_input_errors(self):
        with pytest.raises(ValueError, match="^query count must be non-negative, got -1$"):
            parse_queries_text("-1\n", 3)
        with pytest.raises(ValueError, match="^edge count must be non-negative, got -1$"):
            parse_edge_list_text("3 -1\n")

    def test_load_matrix_peaks_below_five_quarters_of_the_matrix(self, tmp_path, rng):
        """The rows fill one growing buffer that becomes the space's matrix
        uncopied: 1.18x the matrix's bytes at n = 300, which is below the
        size the numpy parse reads, so the serial parser reads it (the
        buffer's slack and one n x n boolean mask of the entry checks)."""
        n = 300
        path = tmp_path / "m.txt"
        save_matrix(path, rng.uniform(1.0, 2.0, (n, n)))
        tracemalloc.start()
        try:
            qm = load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qm.n == n
        assert peak < 1.25 * qm.dist.nbytes, f"peak {peak / qm.dist.nbytes:.2f}x the matrix"

    def test_save_matrix_converts_one_row_at_a_time(self, tmp_path, rng):
        """Writing an n = 300 matrix peaks below half its bytes, and every
        entry, inf and -inf included, is written as format_value writes it."""
        n = 300
        matrix = rng.uniform(0.0, 1e6, (n, n))
        matrix[0, 1], matrix[2, 3], matrix[n - 1, 0] = INF, -INF, -0.0
        path = tmp_path / "m.txt"
        tracemalloc.start()
        try:
            save_matrix(path, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * matrix.nbytes, f"peak {peak / matrix.nbytes:.2f}x the matrix"
        oracle = [str(n)] + [" ".join(format_value(v) for v in row) for row in matrix.tolist()]
        assert path.read_text(encoding="utf-8").splitlines() == oracle


ROWS5 = ["0 1 2 3 4", "1 0 2 3 4", "2 1 0 3 4", "3 2 1 0 4", "4 3 2 1 0"]
QUERY_SIDES = ["0 1 2", "-", "1 1 1", "2 2 2", "3 3 3", "-"]

# What the numpy parse converts: an optional `-`, then digits with at most
# one `.` among them, in at most 18 bytes.
PLAIN_DECIMAL = re.compile(r"-?(\d+\.?\d*|\.\d+)")


def midpoint_neighbour(x: float, digits: int, up: bool) -> str:
    """``digits`` significant digits of the midpoint between ``x`` (in
    [1, 1e16)) and the next double up, rounded down or up, as a plain
    decimal."""
    mid = Fraction(x) + Fraction(math.ulp(x)) / 2
    point = len(str(math.floor(mid)))  # digits before the `.`
    scaled = mid * 10 ** (digits - point)
    text = str(math.ceil(scaled) if up else math.floor(scaled))
    return text[:point] + "." + text[point:] if point < len(text) else text


def dotted(digits: str, at: int, dot: bool, minus: bool) -> str:
    return "-" * minus + digits[:at] + "." * dot + digits[at:]


# Decimals whose 64-bit quotient lies exactly halfway between two doubles
# while the decimal does not: cast to float64, they round the wrong way.
DOUBLE_ROUNDING_TRAPS = ["8.9124448804640517", "2.4809993464483171", "9.8026414041739800",
                         "-1.6500824795784651"]

# Tokens in and out of that grammar: digit strings with a `-` and a `.`
# anywhere (up to 20 bytes), %.17g of any double, integers 2**53 + odd (exact
# midpoints), 16- and 17-digit neighbours of double midpoints, and the traps.
DECIMAL_TOKENS = st.one_of(
    st.builds(dotted, st.text("0123456789", min_size=1, max_size=18), st.integers(0, 18),
              st.booleans(), st.booleans()),
    st.sampled_from(["1.", ".5", "-0", "-0.0", "-.5", "0", "007", "9007199254740993.0",
                     "4503599627370496.5", "123456789012345678", "99999999999999999.",
                     ".00000000000000001", *DOUBLE_ROUNDING_TRAPS]),
    st.floats().map("%.17g".__mod__),
    st.integers(0, 2 ** 64 - 1).map(lambda bits: "%.17g" % float_of_bits(bits)),
    st.integers(0, (10 ** 18 - 2 ** 53) // 2 - 1).map(lambda k: str(2 ** 53 + 2 * k + 1)),
    st.builds(midpoint_neighbour, st.floats(1.0, 1e16, exclude_max=True),
              st.sampled_from([16, 17]), st.booleans()),
)


class TestParallelParse:
    """Matrix and query files read by the numpy parse,
    ``_text.parse_numbers``, against the whole-text oracles and ``float``.

    Where the parse declines a file, the serial parser reads it.  The size
    below which it declines every file is patched away, and pieces down to
    one line, so that most files take several.
    """

    PARSERS = TestStreamingParsers.PARSERS

    @pytest.fixture(autouse=True)
    def small_pieces(self, monkeypatch):
        """Files of any size take the numpy path, one line a piece."""
        monkeypatch.setattr(_text, "_NUMPY_MIN", 1)
        monkeypatch.setattr(_text, "_PIECES", 10 ** 9)

    @pytest.fixture
    def taken(self, monkeypatch):
        """The list of whether each parse since took the numpy path."""
        taken, original = [], _text.parse_numbers

        def spy(*args):
            result = original(*args)
            taken.append(result is not None)
            return result

        monkeypatch.setattr(_text, "parse_numbers", spy)
        return taken

    def check(self, path, kind, text):
        """Parse ``text`` from a file at ``path`` and compare with the oracle."""
        path.write_text(text, encoding="utf-8", newline="")
        parse, oracle = self.PARSERS[kind]
        with open(path, encoding="utf-8") as fh:
            expected = parse_outcome(oracle, fh.read())
        with open(path, encoding="utf-8") as fh:
            got = parse_outcome(parse, fh)
        assert got == expected

    @pytest.mark.parametrize("kind", ["matrix", "queries"])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_match_whole_text_oracle(self, tmp_path, taken, kind, data):
        """Mostly `\\n` line breaks, so that many texts take the numpy path."""
        text = data.draw(parser_texts(kind, ["\n"] * 20 + LINE_BREAKS))
        self.check(tmp_path / "input.txt", kind, text)

    @pytest.mark.parametrize("kind,text,kernel", [
        ("matrix", "5\n" + "".join(f"{row}\n# c\n\n" for row in ROWS5), False),
        ("matrix", "5\r\n" + "".join(f"{row}\r\n" for row in ROWS5), False),
        ("matrix", "5\r" + "".join(f"{row}\r" for row in ROWS5), False),
        ("matrix", "5\n" + "".join(f"{row}\n" for row in ROWS5[:4]) + "4 3 x 1 0\n", False),
        ("matrix", "5\n" + "".join(f"{row}\n" for row in ROWS5[:4]) + "4 3 2 1\n", False),
        ("matrix", "5\n" + "".join(f"{row}\n" for row in ROWS5 + ROWS5[:1]), False),
        ("matrix", "5\n" + "".join(f"{row}\n" for row in ROWS5[:4]), False),
        ("matrix", "5\x0b" + "".join(f"{row}\n" for row in ROWS5 + ROWS5[:1]), False),
        ("queries", "3\n" + "".join(f"{side}\n" for side in QUERY_SIDES), True),
        ("queries", "3\n" + "".join(f"{side}\n" for side in QUERY_SIDES[:5]) + "3 x\n",
         False),
        ("matrix", "# c\n\n5\n" + "\n".join(ROWS5), True),
        ("matrix", "5\n\n" + "".join(f" {row.replace(' ', '  ')} \n\n" for row in ROWS5),
         True),
        ("queries", "2\n-\n-\n0 1 2\n-\n", True),
        ("queries", "1\n0 - 2\n-\n", False),
    ], ids=["comments-at-cuts", "crlf", "bare-cr", "bad-token", "short-row", "extra-row",
            "missing-row", "row-on-header-line", "dash-side", "bad-side",
            "comment-header-no-final-newline", "blank-lines-and-spaces", "dash-sides-only",
            "dash-inside-a-side"])
    def test_pinned_cases(self, tmp_path, taken, kind, text, kernel):
        self.check(tmp_path / "input.txt", kind, text)
        assert taken == [kernel and _text._exact_division()]

    def test_file_changed_during_the_parse_falls_back(self, tmp_path, taken, monkeypatch):
        """A value already parsed is rewritten in place, so only the file's
        modification time shows the change."""
        path = tmp_path / "m.txt"
        original = _text._piece

        def parse_then_change(*args):
            result = original(*args)
            with open(path, "r+b") as fh:
                fh.seek(2)
                fh.write(b"9")
            os.utime(path, ns=(0, 0))
            return result

        monkeypatch.setattr(_text, "_piece", parse_then_change)
        path.write_text("5\n" + "".join(f"{row}\n" for row in ROWS5))
        with open(path, encoding="utf-8") as fh:
            got = parse_matrix_text(fh)
        assert taken == [False]
        assert got.tobytes() == whole_text_matrix(path.read_text()).tobytes()
        assert got[0, 0] == 9.0

    @given(tokens=st.lists(DECIMAL_TOKENS, min_size=1, max_size=40))
    @example(tokens=["9007199254740993", "1.5", "4503599627370496.5", "9007199254740993.0",
                     "-0", "1.", ".5"])
    @example(tokens=["-1.2345678901234567"])
    @example(tokens=DOUBLE_ROUNDING_TRAPS)
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_tokens_convert_as_float_does(self, tmp_path, tokens):
        """Values bit for bit as ``float`` gives them when every token is a
        plain decimal of at most 18 bytes; None otherwise."""
        if not _text._exact_division():
            pytest.skip("long double is not x87's here")
        n = math.isqrt(len(tokens) - 1) + 1
        cells = tokens + ["0"] * (n * n - len(tokens))
        path = tmp_path / "m.txt"
        path.write_text(f"{n}\n" + "".join(" ".join(cells[i:i + n]) + "\n"
                                           for i in range(0, n * n, n)))
        with open(path, encoding="utf-8") as fh:
            got = _text.parse_numbers(fh)
        if all(len(t) <= 18 and PLAIN_DECIMAL.fullmatch(t) for t in tokens):
            assert got is not None
            assert got[1].tobytes() == np.array([float(t) for t in cells]).tobytes()
        else:
            assert got is None

    @pytest.mark.parametrize("kind,text", [
        ("matrix", b"2\n0 1e5\n1 0\n"),
        ("matrix", b"2\n0 inf\n1 0\n"),
        ("matrix", b"2\n0 x\n1 0\n"),
        ("matrix", b"2\n0 1-2\n1 0\n"),
        ("matrix", b"2\n0 1..2\n1 0\n"),
        ("matrix", b"2\n0 .\n1 0\n"),
        ("matrix", b"2\n0 -\n1 0\n"),
        ("matrix", b"2\n0\t1\n1 0\n"),
        ("matrix", b"2\n0 1\r1 0\n"),
        ("matrix", b"2\n0 1\n1 0\xff\n"),
        ("matrix", b"2\n0 1234567890123456789\n1 0\n"),
        ("queries", b"1\n0 1 -\n-\n"),
    ], ids=["exponent", "inf", "letter", "inner-minus", "two-dots", "lone-dot", "lone-minus",
            "tab", "bare-cr", "non-utf8", "19-bytes", "dash-in-a-side"])
    def test_rejected_shapes(self, tmp_path, kind, text):
        path = tmp_path / "input.txt"
        path.write_bytes(text)
        with open(path, encoding="utf-8") as fh:
            assert _text.parse_numbers(fh, 3 if kind == "queries" else None) is None

    def test_numpy_parse_peaks_below_five_quarters_of_the_matrix(self, tmp_path, rng,
                                                                 monkeypatch):
        """At n = 400 (above the size the numpy parse declines, in its real
        pieces): 1.16x the matrix's bytes, the matrix and one piece's
        scratch."""
        monkeypatch.undo()  # the real knobs
        n = 400
        path = tmp_path / "m.txt"
        save_matrix(path, rng.uniform(1.0, 2.0, (n, n)))
        with open(path, encoding="utf-8") as fh:
            assert _text.parse_numbers(fh) is not None or not _text._exact_division()
        tracemalloc.start()
        try:
            qm = load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qm.n == n
        assert peak < 1.25 * qm.dist.nbytes, f"peak {peak / qm.dist.nbytes:.2f}x the matrix"

    def test_without_x87_long_double_the_serial_parser_reads(self, tmp_path, taken,
                                                            monkeypatch):
        monkeypatch.setattr(_text, "_exact_division", lambda: False)
        self.check(tmp_path / "m.txt", "matrix", "5\n" + "".join(f"{r}\n" for r in ROWS5))
        assert taken == [False]

    def test_parse_starts_no_process(self, tmp_path):
        """An n = 1000 matrix file, parsed in a fresh interpreter with every
        way to start a process refused, leaves ``subprocess`` unimported."""
        path = tmp_path / "m.txt"
        save_matrix(path, gen_cycle(1000).space.dist)
        script = (
            "import os, sys\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('the parse started a process')\n"
            "for name in ('fork', 'posix_spawn', 'posix_spawnp', 'execv', 'execve'):\n"
            "    if hasattr(os, name):\n"
            "        setattr(os, name, refuse)\n"
            "from quasimetric import _text\n"
            "from quasimetric.space import load_matrix\n"
            "with open(sys.argv[1], encoding='utf-8') as fh:\n"
            "    taken = _text.parse_numbers(fh) is not None\n"
            "print(load_matrix(sys.argv[1]).n, taken == _text._exact_division(),\n"
            "      'subprocess' in sys.modules)\n")
        src = str(Path(quasimetric.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout == "1000 True False\n"


def per_value_text(matrix, header=()) -> bytes:
    """A matrix file as the per-entry :func:`format_value` writer gives it."""
    lines = [f"# {line}" for line in header] + [str(len(matrix))]
    lines += [" ".join(format_value(v) for v in row) for row in np.asarray(matrix).tolist()]
    return "".join(line + "\n" for line in lines).encode("utf-8")


@pytest.fixture
def started(monkeypatch):
    """The list of every worker process started since."""
    starts = []

    class Counted(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            starts.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", Counted)
    return starts


def float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def decimal_tie(k: int, j: int) -> float:
    """The double nearest ``(10 k + 5) / 10**j``: for 17-digit ``k``, a value
    whose 18th significant digit is 5, on either side of the tie."""
    return float(Fraction(10 * k + 5, 10 ** j))


def power_neighbour(j: int, steps: int) -> float:
    """The double ``steps`` places from the one nearest ``10**j``."""
    x = float(Fraction(10) ** j)
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(INF, steps))
    return x


WRITER_SPECIALS = [0.0, -0.0, INF, -INF, math.nan, -math.nan, 5e-324, -2.5e-310,
                   2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 1e17, 1 / 3,
                   0.1, 2.0 ** 53, 2.0 ** 53 - 1, 1e16, 1.00000762939453125]

# Every kind of double the writer treats apart: hypothesis's floats (nan and
# the infinities included), random bit patterns, 18th-digit ties (decimal
# ones, and binary ones a / 2**e that are exact), neighbours of powers of
# ten, integers up to 2**53, and values on both sides of 1e-4 and 1e17.
WRITER_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(WRITER_SPECIALS),
    st.integers(0, 2 ** 64 - 1).map(float_of_bits),
    st.builds(decimal_tie, st.integers(10 ** 16, 10 ** 17 - 1), st.integers(0, 36)),
    st.builds(lambda a, e: (2 * a + 1) * 2.0 ** -e, st.integers(0, 2 ** 52 - 1),
              st.integers(1, 70)),
    st.builds(power_neighbour, st.integers(-5, 17), st.integers(-3, 3)),
    st.integers(-2 ** 53, 2 ** 53).map(float),
    st.builds(lambda j, steps, sign: sign * power_neighbour(j, steps),
              st.sampled_from([-4, 17]), st.integers(-3, 3), st.sampled_from([1.0, -1.0])),
)


def written_rows(matrix) -> bytes:
    """What ``_format.write_rows`` writes for ``matrix``."""
    buffer = io.BytesIO()
    _format.write_rows(buffer, matrix)
    return buffer.getvalue()


def per_value_rows(matrix) -> bytes:
    """The rows of :func:`per_value_text`, without its count line."""
    return per_value_text(matrix).split(b"\n", 1)[1]


class TestMatrixWriter:
    """The numpy row writer against the per-entry writer, ``format_value``."""

    @pytest.mark.parametrize("chunk", [1, 2, 4, 1 << 11])
    @given(data=st.data(), rows=st.integers(min_value=1, max_value=5),
           width=st.integers(min_value=1, max_value=6), transposed=st.booleans())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_writer_matches_per_value_writer(self, monkeypatch, chunk, data, rows, width,
                                             transposed):
        """Any doubles, in chunks of one or more whole rows, from a
        C-contiguous matrix or a transposed view of one."""
        monkeypatch.setattr(_format, "_CHUNK", chunk)
        values = data.draw(st.lists(WRITER_FLOATS, min_size=rows * width,
                                    max_size=rows * width))
        matrix = np.array(values).reshape(rows, width)
        if transposed:
            matrix = matrix.T
        assert written_rows(matrix) == per_value_rows(matrix)

    @given(values=st.lists(st.one_of(st.integers(-2 ** 53, 2 ** 53).map(float),
                                     st.sampled_from([INF, -INF, -0.0])),
                           min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_integral_rows_match_per_value_writer(self, values):
        """Rows whose finite entries are all integral take a path of their own."""
        matrix = np.array(values)[None, :]
        assert written_rows(matrix) == per_value_rows(matrix)

    @pytest.mark.parametrize("scale", [1 - 1e-9, 1 + 1e-9])
    def test_a_misjudged_exponent_falls_back(self, monkeypatch, scale):
        """Digits at a wrong exponent fall outside [1e16, 1e17), so the entry
        is formatted by ``%``: with every power of ten moved a little, entries
        just below or just above one are judged a decade off."""
        monkeypatch.setattr(_format._tables(), "bounds", _format._tables().bounds * scale)
        values = [sign * power_neighbour(j, steps) * factor for j in range(-3, 17)
                  for steps in (-2, 0, 2) for factor in (1 - 1e-12, 1.0, 1 + 1e-12)
                  for sign in (1.0, -1.0)]
        matrix = np.array(values).reshape(-1, 12)
        assert written_rows(matrix) == per_value_rows(matrix)

    @pytest.mark.parametrize("kind", ["real", "integral", "relaxed"])
    def test_widths_on_both_sides_of_the_chunk_size(self, rng, kind):
        """A row wider than a chunk is a chunk of its own."""
        for width in [_format._CHUNK - 1, _format._CHUNK, _format._CHUNK + 1]:
            if kind == "real":
                matrix = np.cumsum(rng.uniform(8.0, 12.0, (3, width)), axis=1)
            else:
                matrix = rng.integers(0, 1000, (3, width)).astype(float)
                if kind == "relaxed":
                    matrix[rng.random(matrix.shape) < 0.5] = INF
            assert written_rows(matrix) == per_value_rows(matrix)
            assert written_rows(matrix.T) == per_value_rows(matrix.T)

    @given(values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.just(-0.0)), min_size=1, max_size=36))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_bit_identical(self, tmp_path_factory, values):
        """Seventeen digits name every finite double: a written matrix reads
        back bit for bit, -0.0 included."""
        n = math.isqrt(len(values) - 1) + 1
        matrix = np.array(values + [-0.0] * (n * n - len(values))).reshape(n, n)
        path = tmp_path_factory.mktemp("round") / "m.txt"
        save_matrix(path, matrix)
        with open(path, encoding="utf-8") as fh:
            assert parse_matrix_text(fh).tobytes() == matrix.tobytes()
        distances = np.where(matrix < 0, -matrix, matrix)  # -0.0 stays
        save_matrix(path, distances)
        assert load_matrix(path).dist.tobytes() == distances.tobytes()

    def test_write_of_a_transposed_matrix_peaks_below_half_of_it(self, tmp_path, started,
                                                                 rng):
        """The rows of a strided matrix reach the file a chunk at a time:
        no whole copy is made."""
        n = 400
        matrix = rng.uniform(0.0, 1e6, (n, n)).T
        path = tmp_path / "m.txt"
        tracemalloc.start()
        try:
            save_matrix(path, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert started == []
        assert peak < 0.5 * matrix.nbytes, f"peak {peak / matrix.nbytes:.2f}x the matrix"
        assert path.read_bytes() == per_value_text(matrix)

    @pytest.mark.parametrize("kind", ["real", "integral"])
    def test_write_starts_no_process_and_leaves_numpy_ma_unloaded(self, tmp_path, kind):
        """A fresh interpreter writes an n = 400 matrix without importing
        ``subprocess`` or ``numpy.ma`` (which ``np.unique`` would import)."""
        n = 400
        values = (f"np.random.default_rng(1).uniform(8.0, 12.0, ({n}, {n}))" if kind == "real"
                  else f"np.arange({n * n}.0).reshape({n}, {n})")
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from quasimetric import space\n"
            f"matrix = {values}\n"
            "space.save_matrix(sys.argv[1], matrix)\n"
            "np.save(sys.argv[2], matrix)\n"
            "print('subprocess' in sys.modules, 'numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(quasimetric.__file__).parents[1]))
        path, saved = tmp_path / "m.txt", tmp_path / "m.npy"
        out = subprocess.run([sys.executable, "-c", script, str(path), str(saved)], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout == "False False\n"
        assert path.read_bytes() == per_value_text(np.load(saved))


class TestWriterInputChecks:
    """What a writer rejects is rejected before its file is opened."""

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_header_line_with_a_line_boundary(self, tmp_path, brk):
        path = tmp_path / "kept.txt"
        path.write_text("untouched")
        line = f"a{brk}2"
        with pytest.raises(ValueError, match=f"^header line {re.escape(repr(line))}"):
            save_matrix(path, [[0, 1], [1, 0]], header=["fine", line])
        with pytest.raises(ValueError, match="header line"):
            save_edge_list(path, 2, [(0, 1, 1.0)], header=[f"{brk}"])
        assert path.read_text() == "untouched"

    @pytest.mark.parametrize("matrix", [[0.0, 1.0], [[0, 1, 2], [1, 0, 2]], np.empty((0, 0)),
                                        np.zeros((2, 2, 2)), 5.0],
                             ids=["1-d", "2x3", "0x0", "3-d", "scalar"])
    def test_matrix_must_be_non_empty_square(self, tmp_path, matrix):
        path = tmp_path / "kept.txt"
        path.write_text("untouched")
        with pytest.raises(ValueError, match="non-empty square matrix, got shape"):
            save_matrix(path, matrix)
        assert path.read_text() == "untouched"

    def test_unopenable_path_fails_before_any_worker(self, tmp_path, started):
        with pytest.raises(FileNotFoundError):
            save_matrix(tmp_path / "no-such-dir" / "m.txt", np.zeros((8, 8)))
        assert started == []
