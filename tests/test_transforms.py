import numpy as np
import pytest

from quasimetric import (Direction, Mode, QuasiMetric, build_from_matrix,
                         check_symmetric_axioms, density_constant, directional_constant,
                         doubling_constant, gen_line, gen_min_violation, set_distance,
                         to_max_metric, to_min_semimetric, to_sum_metric, validate)
from quasimetric.space import _MAX_REPORTED
from quasimetric.transforms import SymmetricKind, SymmetricSpace

from conftest import random_quasimetric


@pytest.fixture
def asym():
    return gen_min_violation().space  # handy small asymmetric space


class TestConstructions:
    def test_entrywise_values(self, asym):
        mx = to_max_metric(asym)
        mn = to_min_semimetric(asym)
        sm = to_sum_metric(asym)
        assert mx.dist[0, 2] == mx.dist[2, 0] == 10.0
        assert mn.dist[0, 2] == mn.dist[2, 0] == 1.0
        assert sm.dist[0, 2] == sm.dist[2, 0] == 11.0
        assert mx.kind is SymmetricKind.METRIC
        assert mn.kind is SymmetricKind.SEMIMETRIC
        assert sm.kind is SymmetricKind.METRIC

    def test_entrywise_ordering(self, rng):
        qm = random_quasimetric(rng, 7)
        mx, mn, sm = to_max_metric(qm), to_min_semimetric(qm), to_sum_metric(qm)
        assert (mn.dist <= qm.dist).all() and (qm.dist <= mx.dist).all()
        assert (mx.dist <= sm.dist).all()

    def test_symmetric_input_is_fixed_point(self):
        sym = build_from_matrix([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        for op in (to_max_metric, to_min_semimetric, to_sum_metric):
            assert np.array_equal(op(sym).dist[:2, :2], op(sym).dist[:2, :2].T)
        assert np.array_equal(to_max_metric(sym).dist, sym.dist)

    def test_requires_strict_finite(self):
        relaxed = gen_line(4).space
        for op in (to_max_metric, to_min_semimetric, to_sum_metric):
            with pytest.raises(ValueError, match="strict"):
                op(relaxed)


class TestAxiomChecks:
    def test_max_and_sum_always_metrics(self, rng):
        for _ in range(50):
            qm = random_quasimetric(rng, int(rng.integers(2, 11)))
            for op in (to_max_metric, to_sum_metric):
                report = check_symmetric_axioms(op(qm), tolerance=0.0)
                assert report.passed
                assert report.triangle_count == 0

    def test_min_violation_fixture(self, asym):
        mn = to_min_semimetric(asym)
        report = check_symmetric_axioms(mn, tolerance=0.0)
        # triangle breakage is informational for a semimetric claim
        assert report.passed
        assert report.triangle_count == 2  # (0,1) and its mirror (1,0)
        i, j, k, lhs, rhs = report.triangle_violations[0]
        assert (lhs, rhs) == (3.0, 2.0)
        assert k == 2

    def test_metric_claim_fails_on_violation(self, asym):
        mn = to_min_semimetric(asym)
        posing = type(mn)(dist=mn.dist.copy(), kind=SymmetricKind.METRIC)
        assert not check_symmetric_axioms(posing, tolerance=0.0).passed

    def test_symmetry_violation_detected(self):
        mx = to_max_metric(build_from_matrix([[0, 1], [1, 0]]))
        broken = type(mx)(dist=np.array([[0.0, 1.0], [2.0, 0.0]]),
                          kind=SymmetricKind.METRIC)
        report = check_symmetric_axioms(broken)
        assert not report.passed
        assert report.symmetry_violations == [(0, 1, 1.0, 2.0)]

    def test_long_listings_are_capped_and_flagged(self):
        # 60 points: 1770 lopsided pairs, or 3540 negative entries
        n = 60
        upper = np.triu(np.ones((n, n)), 1)
        lopsided = SymmetricSpace(dist=upper + 2 * upper.T, kind=SymmetricKind.METRIC)
        report = check_symmetric_axioms(lopsided)
        pairs = [(i, j, 1.0, 2.0) for i in range(n) for j in range(i + 1, n)]
        assert report.symmetry_violations == pairs[:_MAX_REPORTED]
        assert report.truncated and report.triangle_count == 0
        negative = np.eye(n) - 1
        cells = [(i, j, -1.0) for i in range(n) for j in range(n) if i != j]
        for report in (check_symmetric_axioms(SymmetricSpace(
                           dist=negative, kind=SymmetricKind.METRIC)),
                       validate(QuasiMetric(dist=negative))):
            assert report.negative_entries == cells[:_MAX_REPORTED]
            assert report.truncated and not report.passed


class TestMinSymmetrizationGeometry:
    def test_margin_collapses_to_directed_minimum(self, rng):
        # the min construction merges both directed margins into one
        for _ in range(10):
            qm = random_quasimetric(rng, 8)
            mn = to_min_semimetric(qm)
            a, b = [0, 1, 2], [5, 6, 7]
            directed = min(set_distance(qm, a, b), set_distance(qm, b, a))
            assert set_distance(mn, a, b) == directed

    def test_constant_inequalities_vs_directional(self, rng):
        # min-symmetrized covering/packing constants are controlled by the
        # two directional constants
        for _ in range(8):
            qm = random_quasimetric(rng, int(rng.integers(3, 9)))
            lam_out = directional_constant(qm, Direction.OUTER, method="exact").value
            lam_inn = directional_constant(qm, Direction.INNER, method="exact").value
            mn = to_min_semimetric(qm)
            assert doubling_constant(mn, method="exact").value <= lam_out + lam_inn
            assert density_constant(mn, method="exact").value <= \
                lam_out ** 2 + lam_inn ** 2
