"""End-to-end acceptance checks.

Each check prints a single ``PASS``/``FAIL`` line (run with ``-s`` to see
them all) carrying the measured values and its runtime, then asserts.  The
checks lean on the brute-force oracles in conftest so every algorithmic
claim is verified through two independent routes.
"""

import math
import time
from functools import lru_cache

import numpy as np

from quasimetric import (Direction, bound,
                         build_classifier, build_from_matrix, density_constant,
                         diameter, directional_constant, doubling_constant,
                         gen_backedge_line, gen_cycle, gen_hst_toward_root,
                         gen_line, gen_min_violation, gen_nn_lower_bound,
                         gen_random_bounded, gen_spoke_subset, greedy_cover,
                         iterated_cover, log_star, make_sample,
                         margins, nearest, to_max_metric, to_min_semimetric,
                         transpose, verify_cover)
from quasimetric.cover import arbitrary_cover
from quasimetric.transforms import check_symmetric_axioms

from conftest import brute_ball, brute_min_cover, random_quasimetric


def _finish(num: int, ok: bool, detail: str, t0: float, limit=None) -> None:
    elapsed = time.perf_counter() - t0
    within = limit is None or elapsed < limit
    verdict = "PASS" if (ok and within) else "FAIL"
    timing = f"{elapsed:.2f}s" + (f", limit {limit:g}s" if limit else "")
    print(f"{verdict} criterion {num}: {detail} [{timing}]", flush=True)
    assert ok, detail
    assert within, f"criterion {num} exceeded its time limit ({timing})"


def test_c01_linear_inner_constant_and_transpose_swap():
    t0 = time.perf_counter()
    fx = gen_backedge_line(8)
    inn = directional_constant(fx.space, Direction.INNER, method="exact").value
    out = directional_constant(fx.space, Direction.OUTER, method="exact").value
    flipped = transpose(fx.space)
    inn_t = directional_constant(flipped, Direction.INNER, method="exact").value
    out_t = directional_constant(flipped, Direction.OUTER, method="exact").value
    ok = inn == 8 and out <= 4 and inn_t == out and out_t == inn
    _finish(1, ok, f"inner={inn} outer={out}, transposed inner={inn_t} outer={out_t}",
            t0, 1.0)


def test_c02_greedy_beats_arbitrary_on_the_line():
    t0 = time.perf_counter()
    fx = gen_line(8)
    everyone = range(8)
    arb = arbitrary_cover(fx.space, everyone, everyone, 1.0, Direction.INNER)
    greedy = greedy_cover(fx.space, everyone, everyone, 1.0, Direction.INNER)
    opt, _ = brute_min_cover(fx.space, everyone, everyone, 1.0, Direction.INNER)
    ok = arb.size == 8 and greedy.size == 4 and opt == 4
    _finish(2, ok, f"arbitrary={arb.size} greedy={greedy.size} optimum={opt}",
            t0, 1.0)


@lru_cache(maxsize=1)
def _ratio_corpus():
    """200 random strict instances with a realized radius and oracle optimum."""
    rng = np.random.default_rng(31337)
    cases = []
    while len(cases) < 200:
        n = int(rng.integers(4, 13))
        qm = random_quasimetric(rng, n)
        off_diag = qm.dist[~np.eye(n, dtype=bool)]
        alpha = float(rng.choice(np.unique(off_diag)))
        direction = Direction.INNER if len(cases) % 2 else Direction.OUTER
        opt, _ = brute_min_cover(qm, range(n), range(n), alpha, direction)
        cases.append((qm, alpha, direction, opt))
    return cases


def test_c03_greedy_ratio_and_evaluation_budget():
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    for qm, alpha, direction, opt in _ratio_corpus():
        cov = greedy_cover(qm, range(qm.n), range(qm.n), alpha, direction)
        bound = (math.ceil(math.log(qm.n)) + 1) * opt
        worst = max(worst, cov.size / opt)
        if cov.size > bound or cov.stats.distance_evaluations > qm.n ** 2:
            violations += 1
    ok = violations == 0
    _finish(3, ok, f"200 instances, 0 expected ratio/budget violations, "
                   f"got {violations}; worst ratio {worst:.2f}", t0, 60.0)


def test_c04_partial_cover_fraction_and_iterations():
    t0 = time.perf_counter()
    violations = 0
    runs = 0
    for qm, alpha, direction, opt in _ratio_corpus():
        for eps in (0.5, 0.25, 0.1):
            cov = greedy_cover(qm, range(qm.n), range(qm.n), alpha,
                               direction, eps)
            runs += 1
            frac_ok = len(cov.uncovered) <= eps * qm.n
            iter_ok = cov.stats.iterations <= opt * math.ceil(math.log(1 / eps))
            if not (frac_ok and iter_ok):
                violations += 1
    ok = violations == 0
    _finish(4, ok, f"{runs} runs over eps in (0.5, 0.25, 0.1), "
                   f"{violations} fraction/iteration violations", t0, 60.0)


def test_c05_iterated_cover_envelope_at_scale():
    t0 = time.perf_counter()
    failures = []
    for n in (256, 512, 1024):
        fx = gen_random_bounded(n, seed=7)
        alpha = diameter(fx.space) / 4.0
        for lam in (2.0, 8.0, None):
            cov = iterated_cover(fx.space, range(n), range(n), alpha,
                                 Direction.INNER, lam)
            okc, offenders = verify_cover(fx.space, cov, range(n))
            budget = n * n * (log_star(n) + 1)
            if not okc or offenders or cov.stats.distance_evaluations > budget:
                failures.append((n, lam, cov.stats.distance_evaluations, budget))
    # The greedy cover reads each distance once: n^2 reads, six centers here.
    for n in (250, 500, 1000):
        fx = gen_random_bounded(n, seed=7)
        cov = greedy_cover(fx.space, range(n), range(n), diameter(fx.space) / 4.0,
                           Direction.INNER)
        okc, offenders = verify_cover(fx.space, cov, range(n))
        if not okc or offenders or cov.size != 6 or cov.stats.distance_evaluations != n * n:
            failures.append((n, "greedy", cov.size, cov.stats.distance_evaluations))
    ok = not failures
    _finish(5, ok, f"iterated at n in (256, 512, 1024) x lambda in (2, 8, default), "
                   f"greedy at n in (250, 500, 1000): "
                   f"{'all verified within budget' if ok else failures}", t0, 120.0)


def test_c06_classifier_pipeline_on_constructed_sample():
    t0 = time.perf_counter()
    d = [[0.0, 1.2, 1.0, 2.0], [1.2, 0.0, 2.0, 2.0],
         [2.0, 2.0, 0.0, 1.2], [2.0, 2.0, 1.2, 0.0]]
    sample = make_sample(build_from_matrix(d), {0: 1, 1: 1, 2: -1, 3: -1})
    m = margins(sample)
    clf = build_classifier(sample)
    sizes = [c.size for c in clf.candidates]
    ok = ((m.rho_pm, m.rho_mp) == (1.0, 2.0) and clf.training_error == 0.0
          and clf.k == min(sizes))
    _finish(6, ok, f"margins=({m.rho_pm}, {m.rho_mp}) err={clf.training_error} "
                   f"k={clf.k} candidate sizes={sizes}", t0, 1.0)


def test_c07_bound_arithmetic_and_monotonicity():
    t0 = time.perf_counter()
    got = bound(100, 5, 0.05).value
    want = (6 * math.log(100) + math.log(20)) / 95
    arith_ok = abs(got - want) <= 1e-12 * want

    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(8, 400))
        k = int(rng.integers(0, n // 4 + 1))
        delta = float(rng.uniform(0.01, 0.5))
        eps = float(rng.uniform(0.0, 0.25))
        c = bound(n, k, delta).value
        a = bound(n, k, delta, eps).value
        checks = [
            bound(n + 1, k, delta).value <= c,
            bound(n, k + 1, delta).value >= c,
            bound(n, k, delta * 0.9).value >= c,
            bound(n + 1, k, delta, eps).value <= a,
            bound(n, k + 1, delta, eps).value >= a,
            bound(n, k, delta * 0.9, eps).value >= a,
            bound(n, k, delta, min(eps + 0.01, 0.25)).value >= a,
        ]
        if not all(checks):
            violations += 1
    ok = arith_ok and violations == 0
    _finish(7, ok, f"reference rel err {abs(got - want) / want:.2e}; "
                   f"1000 tuples, {violations} monotonicity violations", t0, 5.0)


def test_c08_max_symmetrization_is_a_metric():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    bad = 0
    for _ in range(200):
        qm = random_quasimetric(rng, int(rng.integers(4, 11)))
        report = check_symmetric_axioms(to_max_metric(qm), tolerance=0.0)
        if not report.passed or report.triangle_count:
            bad += 1

    sym = to_max_metric(gen_cycle(8).space)
    off = sym.dist[~np.eye(8, dtype=bool)]
    range_ok = off.min() == 4.0 and off.max() == 7.0
    est = doubling_constant(sym, method="exact")
    witness_ok = est.value == 8 and est.witness_radius == 7.0
    ok = bad == 0 and range_ok and witness_ok
    _finish(8, ok, f"200 random spaces, {bad} metric failures; cycle values in "
                   f"[{off.min():g}, {off.max():g}], doubling {est.value} at "
                   f"radius {est.witness_radius:g}", t0, 30.0)


def test_c09_min_symmetrization_violation_and_constant_bounds():
    t0 = time.perf_counter()
    fx = gen_min_violation()
    report = check_symmetric_axioms(to_min_semimetric(fx.space))
    planted_ok = (report.triangle_count == 2 and
                  all(v[3] == 3.0 and v[4] == 2.0
                      for v in report.triangle_violations))

    rng = np.random.default_rng(99)
    bad = 0
    for _ in range(12):
        qm = random_quasimetric(rng, int(rng.integers(4, 9)))
        lam_out = directional_constant(qm, Direction.OUTER, method="exact").value
        lam_inn = directional_constant(qm, Direction.INNER, method="exact").value
        min_sym = to_min_semimetric(qm)
        lam_min = doubling_constant(min_sym, method="exact").value
        mu_min = density_constant(min_sym, method="exact").value
        if lam_min > lam_out + lam_inn or mu_min > lam_out ** 2 + lam_inn ** 2:
            bad += 1
    ok = planted_ok and bad == 0
    _finish(9, ok, f"planted violation 3 > 1+1 seen {report.triangle_count}x "
                   f"(both orientations); 12 random instances, {bad} constant-"
                   f"bound violations", t0, 60.0)


def test_c10_nearest_neighbor_scan_cost():
    t0 = time.perf_counter()
    problems = []
    for p in range(3, 9):
        fx = gen_nn_lower_bound(p)
        q, depth = fx.extras["query"], fx.extras["depth"]
        for node in range(len(depth)):
            if depth[node] < p:
                want = 2.0 ** (1 - depth[node]) - 2.0 ** (1 - p)
                if fx.space.dist[q, node] != want:
                    problems.append((p, "level", node))
        res = nearest(fx.space, fx.extras["leaves"], q, Direction.INNER)
        if res.index != fx.extras["designated_leaf"] or res.evaluations != 2 ** p:
            problems.append((p, "scan", res.index, res.evaluations))
    ok = not problems
    _finish(10, ok, "p in 3..8: level distances exact, scan finds the "
                    "designated leaf in 2^p evaluations" if ok else str(problems),
            t0)


def test_c11_directional_constant_is_not_hereditary():
    t0 = time.perf_counter()
    p = 3
    tree = gen_hst_toward_root(p)
    tree_val = directional_constant(tree.space, Direction.INNER,
                                    method="exact").value
    spoke = gen_spoke_subset(p).space
    spoke_val = directional_constant(spoke, Direction.INNER,
                                     method="exact").value
    # 2^p leaves + root: the root's inner ball at 2 - 2^(1-p) holds every
    # point, and every half-radius inner ball is a single point.
    expected = 2 ** p + 1
    # oracle: exhaustive half-radius cover of every inner ball at a realized radius
    oracle_val = max(
        brute_min_cover(spoke, brute_ball(spoke, c, r, Direction.INNER),
                        range(spoke.n), r / 2, Direction.INNER)[0]
        for c in range(spoke.n) for r in set(spoke.dist[:, c])
        if 0 < r < math.inf)
    ok = tree_val <= 4 and spoke_val == expected and oracle_val == expected
    _finish(11, ok, f"tree inner constant {tree_val} (small); spoke subset "
                    f"expected 2^{p}+1={expected}, measured {spoke_val}, "
                    f"oracle {oracle_val}", t0, 5.0)
