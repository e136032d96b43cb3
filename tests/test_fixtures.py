import math

import numpy as np
import pytest

from quasimetric import (Direction, Mode, build_from_digraph, diameter,
                         directional_constant, gen_backedge_line, gen_cycle,
                         gen_hst_toward_root, gen_line, gen_min_violation,
                         gen_nn_lower_bound, gen_random_bounded,
                         gen_spoke_subset, greedy_cover, nearest, subspace,
                         to_min_semimetric, validate)
from quasimetric.fixtures import GENERATORS
from quasimetric.transforms import check_symmetric_axioms

from conftest import brute_ball


GRAPH_BACKED = {
    "line": (gen_line, {"n": 9}, Mode.RELAXED),
    "backedge-line": (gen_backedge_line, {"n": 8}, Mode.STRICT),
    "cycle": (gen_cycle, {"n": 8}, Mode.STRICT),
    "hst-toward-root": (gen_hst_toward_root, {"p": 3}, Mode.RELAXED),
    "random-bounded": (gen_random_bounded, {"n": 12, "seed": 7}, Mode.STRICT),
}


class TestEdgeListsAgreeWithMatrices:
    @pytest.mark.parametrize("kind", sorted(GRAPH_BACKED))
    def test_rebuild_from_edges(self, kind):
        gen, params, mode = GRAPH_BACKED[kind]
        fx = gen(**params)
        assert fx.edges is not None
        rebuilt = build_from_digraph(fx.space.n, fx.edges, mode=mode)
        np.testing.assert_array_equal(rebuilt.dist, fx.space.dist)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_axioms_hold(self, kind):
        gen = GENERATORS[kind]
        defaults = {"line": {"n": 6}, "backedge-line": {"n": 6},
                    "cycle": {"n": 6}, "hst-toward-root": {"p": 2},
                    "spoke-subset": {"p": 2}, "min-violation": {},
                    "nn-lower-bound": {"p": 2},
                    "random-bounded": {"n": 10, "seed": 3}}
        fx = gen(**defaults[kind])
        assert validate(fx.space).passed


class TestLine:
    def test_distances(self):
        fx = gen_line(5)
        assert fx.space.dist[0, 4] == 4.0
        assert math.isinf(fx.space.dist[4, 0])
        assert fx.spec.expected_value("diameter") == 4.0

    def test_cover_expectations_hold(self):
        fx = gen_line(8)
        from quasimetric import arbitrary_cover
        everyone = range(8)
        greedy = greedy_cover(fx.space, everyone, everyone, alpha=1.0,
                              direction=Direction.INNER)
        arb = arbitrary_cover(fx.space, everyone, everyone, alpha=1.0,
                              direction=Direction.INNER)
        assert greedy.size == fx.spec.expected_value("greedy_inner_cover_alpha1") == 4
        assert arb.size == fx.spec.expected_value("arbitrary_inner_cover_alpha1") == 8


class TestBackedgeLine:
    def test_distances_and_constants(self):
        fx = gen_backedge_line(8)
        d = fx.space.dist
        assert d[2, 6] == 4.0 and d[6, 2] == 3.0 and d[5, 0] == 1.0
        inn = directional_constant(fx.space, Direction.INNER, method="exact")
        out = directional_constant(fx.space, Direction.OUTER, method="exact")
        assert inn.value == fx.spec.expected_value("inner_constant") == 8
        assert out.value <= fx.spec.expected_value("outer_constant_max") == 4

    def test_half_radius_inner_balls_are_singletons(self):
        # the structural fact behind the linear inner constant
        fx = gen_backedge_line(8)
        for c in range(8):
            assert brute_ball(fx.space, c, 0.5, Direction.INNER) == {c}
        assert brute_ball(fx.space, 0, 1.0, Direction.INNER) == set(range(8))


class TestCycle:
    def test_distances(self):
        fx = gen_cycle(8)
        d = fx.space.dist
        assert d[1, 3] == 2.0 and d[3, 1] == 6.0
        assert diameter(fx.space) == 7.0


class TestTowardRootTree:
    def test_layout_and_edge_lengths(self):
        fx = gen_hst_toward_root(3)
        assert fx.space.n == 15
        depth, parent = fx.extras["depth"], fx.extras["parent"]
        for node in range(1, 15):
            assert fx.space.dist[node, parent[node]] == 2.0 ** (1 - depth[node])
        for leaf in fx.extras["leaves"]:
            assert fx.space.dist[leaf, 0] == fx.spec.expected_value("leaf_root_distance")
        assert fx.spec.expected_value("leaf_root_distance") == 1.75

    def test_non_ancestor_pairs_unreachable(self):
        fx = gen_hst_toward_root(2)
        # siblings and cousins never reach each other; nothing leaves the root
        assert math.isinf(fx.space.dist[1, 2])
        assert math.isinf(fx.space.dist[3, 4])
        assert math.isinf(fx.space.dist[0, 1])

    def test_inner_constant_stays_small(self):
        fx = gen_hst_toward_root(3)
        est = directional_constant(fx.space, Direction.INNER, method="greedy")
        assert est.value == 3

    def test_branching_three(self):
        fx = gen_hst_toward_root(2, branching=3)
        assert fx.space.n == 1 + 3 + 9
        assert fx.space.dist[4, 0] == 1.5  # leaf under child 1


class TestSpokeSubset:
    @pytest.mark.parametrize("p,expected_n", [(2, 5), (3, 9)])
    def test_inner_constant_equals_point_count(self, p, expected_n):
        fx = gen_spoke_subset(p)
        assert fx.space.n == expected_n
        est = directional_constant(fx.space, Direction.INNER, method="exact")
        assert est.value == fx.spec.expected_value("inner_constant") == expected_n
        assert est.witness_radius == fx.spec.expected_value("spoke_length")

    def test_matches_induced_subspace_of_tree(self):
        tree = gen_hst_toward_root(3)
        ids = [tree.extras["root"]] + tree.extras["leaves"]
        induced = subspace(tree.space, ids)
        np.testing.assert_array_equal(induced.dist, gen_spoke_subset(3).space.dist)


class TestMinViolation:
    def test_min_symmetrization_breaks_triangle(self):
        fx = gen_min_violation()
        assert validate(fx.space).passed
        sym = to_min_semimetric(fx.space)
        report = check_symmetric_axioms(sym)
        assert report.passed  # semimetric kind: triangles informational
        assert report.triangle_count == 2
        lhs = fx.spec.expected_value("min_triangle_lhs")
        rhs = fx.spec.expected_value("min_triangle_rhs")
        assert (lhs, rhs) == (3.0, 2.0)
        i, j, k, got_lhs, got_rhs = report.triangle_violations[0]
        assert (got_lhs, got_rhs) == (lhs, rhs)
        assert {i, j} == {0, 1} and k == 2


class TestNearestNeighborScan:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_level_distances_are_exact(self, p):
        fx = gen_nn_lower_bound(p)
        q = fx.extras["query"]
        depth = fx.extras["depth"]
        for node in range(len(depth)):
            if depth[node] < p:
                expected = fx.extras["level_distance"][depth[node]]
                assert fx.space.dist[q, node] == expected
                assert expected == 2.0 ** (1 - depth[node]) - 2.0 ** (1 - p)

    def test_scan_finds_designated_leaf(self):
        fx = gen_nn_lower_bound(3)
        q = fx.extras["query"]
        res = nearest(fx.space, fx.extras["leaves"], q, Direction.INNER)
        assert res.index == fx.extras["designated_leaf"] == 7
        assert res.distance == fx.spec.expected_value("designated_distance") == 2.0 ** -7
        assert res.evaluations == fx.spec.expected_value("scan_evaluations") == 8

    def test_other_leaves_unreachable(self):
        fx = gen_nn_lower_bound(3)
        q = fx.extras["query"]
        others = [l for l in fx.extras["leaves"] if l != fx.extras["designated_leaf"]]
        assert all(math.isinf(fx.space.dist[q, l]) for l in others)


class TestRandomBounded:
    def test_deterministic_per_seed(self):
        a = gen_random_bounded(20, seed=11)
        b = gen_random_bounded(20, seed=11)
        np.testing.assert_array_equal(a.space.dist, b.space.dist)
        assert a.extras["weights"] == b.extras["weights"]
        c = gen_random_bounded(20, seed=12)
        assert not np.array_equal(a.space.dist, c.space.dist)

    def test_weights_in_band_and_ring_structure(self):
        fx = gen_random_bounded(16, seed=5)
        w = fx.extras["weights"]
        assert all(8 <= x <= 12 for x in w)
        total = sum(w)
        d = fx.space.dist
        for i in range(16):
            assert d[i, (i + 1) % 16] == w[i]
            for j in range(16):
                if i != j:
                    assert d[i, j] + d[j, i] == total

    def test_small_instances_carry_measured_constants(self):
        fx = gen_random_bounded(12, seed=7)
        assert fx.spec.params["checked"] is True
        out = fx.spec.expected_value("outer_constant")
        inn = fx.spec.expected_value("inner_constant")
        assert max(out, inn) <= fx.spec.expected_value("target_constant") == 8
        measured = directional_constant(fx.space, Direction.OUTER).value
        assert measured == out

    def test_large_instances_skip_the_check(self):
        fx = gen_random_bounded(128, seed=3)
        assert fx.spec.params["checked"] is False
        with pytest.raises(KeyError):
            fx.spec.expected_value("outer_constant")

    def test_singleton(self):
        fx = gen_random_bounded(1, seed=0)
        assert fx.space.n == 1 and fx.edges == []

    def test_unreachable_target_errors(self):
        with pytest.raises(ValueError, match="could not meet"):
            gen_random_bounded(40, seed=123, target_constant=1)


class TestDomainErrors:
    @pytest.mark.parametrize("call", [
        lambda: gen_line(0),
        lambda: gen_backedge_line(1),
        lambda: gen_cycle(1),
        lambda: gen_hst_toward_root(0),
        lambda: gen_hst_toward_root(2, branching=1),
        lambda: gen_spoke_subset(0),
        lambda: gen_nn_lower_bound(0),
        lambda: gen_random_bounded(0, seed=1),
    ])
    def test_rejects_bad_parameters(self, call):
        with pytest.raises(ValueError):
            call()


def test_fixture_to_dict_is_serializable():
    import json
    fx = gen_backedge_line(4)
    payload = fx.to_dict()
    assert payload["kind"] == "backedge-line" and payload["n"] == 4
    json.dumps(payload)
