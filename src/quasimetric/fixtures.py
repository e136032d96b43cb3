"""Instance generators with known structure.

Each generator returns a :class:`Fixture`: the space itself, a spec
recording the construction parameters, expected quantities (tagged
``analytic`` when provable from the construction, ``empirical`` when
measured at generation time), and any extra structure such as tree depths
or a designated query point.  Graph-backed fixtures also carry their edge
list so they can be written in either file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .space import Direction, Mode, QuasiMetric, Record, build_from_matrix


@dataclass(frozen=True)
class ExpectedProperty(Record):
    name: str
    value: float
    origin: str  # analytic | empirical


@dataclass
class FixtureSpec(Record):
    kind: str
    params: dict
    expected: list[ExpectedProperty] = field(default_factory=list)

    def expected_value(self, name: str) -> float:
        for e in self.expected:
            if e.name == name:
                return e.value
        raise KeyError(name)


@dataclass
class Fixture:
    spec: FixtureSpec
    space: QuasiMetric
    edges: Optional[list[tuple[int, int, float]]] = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = self.spec.to_dict()
        out["mode"] = self.space.mode.value
        out["n"] = self.space.n
        out["extras"] = {k: v for k, v in self.extras.items()}
        return out


def gen_line(n: int) -> Fixture:
    """Directed path 0 -> 1 -> ... -> n-1, unit edges, relaxed mode.

    Nothing travels backward, so dist(i, j) = j - i going forward and +inf
    otherwise.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = np.full((n, n), np.inf)
    for i in range(n):
        d[i, i:] = np.arange(n - i, dtype=np.float64)
    space = build_from_matrix(d, mode=Mode.RELAXED)
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    spec = FixtureSpec(kind="line", params={"n": n}, expected=[
        ExpectedProperty("diameter", float(n - 1), "analytic"),
        ExpectedProperty("greedy_inner_cover_alpha1", float(math.ceil(n / 2)), "analytic"),
        ExpectedProperty("arbitrary_inner_cover_alpha1", float(n), "analytic"),
    ])
    return Fixture(spec=spec, space=space, edges=edges)


def gen_backedge_line(n: int) -> Fixture:
    """Directed path with a unit back edge from every vertex to vertex 0.

    Strict mode: dist(i, j) = j - i forward, and j + 1 backward (hop to 0,
    then forward).  Every vertex sits within distance 1 of vertex 0 going
    *in*, but the half-radius inner balls are all singletons, so the INNER
    covering constant is exactly n while the OUTER one stays at most 4.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = (j - i) if i <= j else (j + 1)
    space = build_from_matrix(d, mode=Mode.STRICT)
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    edges += [(i, 0, 1.0) for i in range(1, n)]
    spec = FixtureSpec(kind="backedge-line", params={"n": n}, expected=[
        ExpectedProperty("inner_constant", float(n), "analytic"),
        ExpectedProperty("outer_constant_max", 4.0, "analytic"),
        ExpectedProperty("diameter", float(n - 1), "analytic"),
    ])
    return Fixture(spec=spec, space=space, edges=edges)


def gen_cycle(n: int) -> Fixture:
    """Directed cycle with unit edges: dist(i, j) = (j - i) mod n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    idx = np.arange(n)
    d = (idx[None, :] - idx[:, None]) % n
    space = build_from_matrix(d.astype(np.float64), mode=Mode.STRICT)
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    spec = FixtureSpec(kind="cycle", params={"n": n}, expected=[
        ExpectedProperty("diameter", float(n - 1), "analytic"),
    ])
    return Fixture(spec=spec, space=space, edges=edges)


def _tree_layout(p: int, branching: int) -> tuple[list[int], list[int], list[int]]:
    """BFS layout of a complete tree: (level_start, depth, parent)."""
    level_start = [0]
    for j in range(1, p + 1):
        level_start.append(level_start[-1] + branching ** (j - 1))
    total = level_start[-1] + branching ** p
    depth = [0] * total
    parent = [-1] * total
    for j in range(1, p + 1):
        for t in range(branching ** j):
            node = level_start[j] + t
            depth[node] = j
            parent[node] = level_start[j - 1] + t // branching
    return level_start, depth, parent


def _edge_length(child_depth: int) -> float:
    # Edges shrink by half per level; a depth-1 node is at distance 1
    # from the root.
    return 2.0 ** (1 - child_depth)


def _fill_toward_root(d: np.ndarray, depth: list[int], parent: list[int]) -> None:
    """Set ``d[node, ancestor]`` to the length of the path climbing from
    each tree node to each of its ancestors."""
    for node in range(1, len(depth)):
        acc = 0.0
        walk = node
        while parent[walk] >= 0:
            acc += _edge_length(depth[walk])
            walk = parent[walk]
            d[node, walk] = acc


def gen_hst_toward_root(p: int, branching: int = 2) -> Fixture:
    """Complete tree with all edges pointing at the root, relaxed mode.

    A depth-i node connects to its parent with length 2**(1-i), so edge
    lengths halve with depth and a leaf reaches the root at distance
    2 - 2**(1-p).  Only ancestor pairs are reachable.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if branching < 2:
        raise ValueError("branching must be at least 2")
    level_start, depth, parent = _tree_layout(p, branching)
    total = len(depth)
    d = np.full((total, total), np.inf)
    np.fill_diagonal(d, 0.0)
    _fill_toward_root(d, depth, parent)
    edges = [(node, parent[node], _edge_length(depth[node])) for node in range(1, total)]
    space = build_from_matrix(d, mode=Mode.RELAXED)
    leaves = list(range(level_start[p], total))
    spec = FixtureSpec(kind="hst-toward-root",
                       params={"p": p, "branching": branching}, expected=[
        ExpectedProperty("leaf_root_distance", 2.0 - 2.0 ** (1 - p), "analytic"),
        ExpectedProperty("diameter", 2.0 - 2.0 ** (1 - p), "analytic"),
    ])
    return Fixture(spec=spec, space=space, edges=edges,
                   extras={"depth": depth, "parent": parent, "leaves": leaves,
                           "root": 0})


def gen_spoke_subset(p: int, branching: int = 2) -> Fixture:
    """Root plus leaves of the toward-root tree, as an induced subspace.

    Every leaf reaches the root at distance 2 - 2**(1-p); no other pair is
    connected.  At that radius the root's inner ball is the whole space
    while every half-radius inner ball is a singleton, so the INNER
    covering constant equals the point count (leaves + root), growing
    linearly even though the full tree's constant is a small number.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if branching < 2:
        raise ValueError("branching must be at least 2")
    leaf_count = branching ** p
    n = leaf_count + 1
    spoke_len = 2.0 - 2.0 ** (1 - p)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    d[1:, 0] = spoke_len
    space = build_from_matrix(d, mode=Mode.RELAXED)
    spec = FixtureSpec(kind="spoke-subset",
                       params={"p": p, "branching": branching}, expected=[
        ExpectedProperty("inner_constant", float(n), "analytic"),
        ExpectedProperty("spoke_length", spoke_len, "analytic"),
    ])
    return Fixture(spec=spec, space=space,
                   extras={"root": 0, "leaves": list(range(1, n))})


def gen_min_violation() -> Fixture:
    """Three points whose min-symmetrization breaks a triangle.

    z sits at distance 1 from both x and y, the return trips cost 10, and
    x, y are mutually at 3.  The entrywise minimum then gives
    d(x, y) = 3 > 1 + 1 = d(x, z) + d(z, y).
    """
    # ids: 0 = x, 1 = y, 2 = z
    d = np.array([
        [0.0, 3.0, 10.0],
        [3.0, 0.0, 10.0],
        [1.0, 1.0, 0.0],
    ])
    space = build_from_matrix(d, mode=Mode.STRICT)
    spec = FixtureSpec(kind="min-violation", params={}, expected=[
        ExpectedProperty("min_triangle_lhs", 3.0, "analytic"),
        ExpectedProperty("min_triangle_rhs", 2.0, "analytic"),
    ])
    return Fixture(spec=spec, space=space, extras={"violating_triple": [0, 1, 2]})


def gen_nn_lower_bound(p: int) -> Fixture:
    """Toward-root tree plus a query equidistant to each internal level.

    The query reaches every depth-j internal node at exactly
    2**(1-j) - 2**(1-p) (the same value as climbing from any leaf), one
    designated leaf at a tiny distance, and no other leaf at all.  Any
    nearest-neighbor scan over the leaves must therefore look at all 2**p
    of them before it can tell which one is close.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    level_start, depth, parent = _tree_layout(p, 2)
    n_tree = len(depth)
    query = n_tree
    n = n_tree + 1
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    _fill_toward_root(d, depth, parent)
    delta = 2.0 ** (-(p + 4))
    designated = level_start[p]  # leftmost leaf
    for node in range(n_tree):
        if depth[node] < p:
            d[query, node] = 2.0 ** (1 - depth[node]) - 2.0 ** (1 - p)
    d[query, designated] = delta
    space = build_from_matrix(d, mode=Mode.RELAXED)
    leaves = list(range(level_start[p], n_tree))
    level_distance = {j: 2.0 ** (1 - j) - 2.0 ** (1 - p) for j in range(p)}
    spec = FixtureSpec(kind="nn-lower-bound", params={"p": p}, expected=[
        ExpectedProperty("designated_distance", delta, "analytic"),
        ExpectedProperty("scan_evaluations", float(2 ** p), "analytic"),
    ])
    return Fixture(spec=spec, space=space,
                   extras={"query": query, "designated_leaf": designated,
                           "leaves": leaves, "depth": depth,
                           "level_distance": level_distance})


DEFAULT_TARGET_CONSTANT = 8
CHECK_CAP = 64
_RETRIES = 5


def gen_random_bounded(n: int, seed: int,
                       target_constant: int = DEFAULT_TARGET_CONSTANT) -> Fixture:
    """Directed ring with random integer weights and tame covering constants.

    Weights are drawn uniformly from 8..12, so any ball is a forward
    interval and a bounded number of half-radius intervals covers it.  For
    n up to ``CHECK_CAP`` the greedy covering constants are measured and
    the seed is re-derived until both stay at or below ``target_constant``
    (a few retries, then an error).  Larger instances skip the check, which
    would cost more than the runs it protects; ``params["checked"]``
    records whether it ran.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lo, hi = 8, 12
    last_measured: tuple[int, int] | None = None
    for attempt in range(_RETRIES):
        rng = np.random.default_rng((seed, attempt))
        if n == 1:
            weights = np.array([], dtype=np.int64)
            d = np.zeros((1, 1))
        else:
            weights = rng.integers(lo, hi + 1, size=n)
            pre = np.concatenate([[0], np.cumsum(weights)])
            total = int(pre[-1])
            idx_diff = pre[None, :n] - pre[:n, None]  # pre[j] - pre[i]
            d = np.mod(idx_diff, total).astype(np.float64)
            np.fill_diagonal(d, 0.0)
        space = build_from_matrix(d, mode=Mode.STRICT)
        checked = n <= CHECK_CAP
        if checked:
            from .dimension import directional_constant
            inn = directional_constant(space, Direction.INNER).value
            out = directional_constant(space, Direction.OUTER).value
            last_measured = (out, inn)
            if max(out, inn) > target_constant:
                continue
        edges = [(i, (i + 1) % n, float(weights[i])) for i in range(n)] if n > 1 else []
        params = {"n": n, "seed": seed, "attempt": attempt,
                  "weight_lo": lo, "weight_hi": hi,
                  "target_constant": target_constant, "checked": checked}
        expected = [ExpectedProperty("target_constant", float(target_constant),
                                     "analytic")]
        if checked and n > 1:
            expected.append(ExpectedProperty("outer_constant", float(last_measured[0]),
                                             "empirical"))
            expected.append(ExpectedProperty("inner_constant", float(last_measured[1]),
                                             "empirical"))
        spec = FixtureSpec(kind="random-bounded", params=params, expected=expected)
        return Fixture(spec=spec, space=space, edges=edges,
                       extras={"weights": [int(w) for w in weights]})
    raise ValueError(
        f"could not meet target constant {target_constant} for n={n}, "
        f"seed={seed} after {_RETRIES} attempts (last measured {last_measured})")


GENERATORS = {
    "line": gen_line,
    "backedge-line": gen_backedge_line,
    "cycle": gen_cycle,
    "hst-toward-root": gen_hst_toward_root,
    "spoke-subset": gen_spoke_subset,
    "min-violation": gen_min_violation,
    "nn-lower-bound": gen_nn_lower_bound,
    "random-bounded": gen_random_bounded,
}
