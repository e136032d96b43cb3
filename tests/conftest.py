"""Shared brute-force oracles, deliberately independent of the package's
own algorithms: closures via Floyd-Warshall instead of Dijkstra, covers via
subset enumeration instead of branch and bound, the greedy rule via
Python sets instead of packed bitsets, and the file parsers over the whole
text instead of one line at a time."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from quasimetric import Direction, Mode, QuasiMetric, QueryVectors, build_from_matrix


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """Min-plus closure of a weight matrix (inf = no edge)."""
    d = weights.astype(np.float64).copy()
    np.fill_diagonal(d, 0.0)
    n = d.shape[0]
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return d


def random_quasimetric(rng: np.random.Generator, n: int,
                       wmax: int = 9) -> QuasiMetric:
    """Strict integer-valued space: random complete digraph, then closure."""
    w = rng.integers(1, wmax + 1, size=(n, n)).astype(np.float64)
    return build_from_matrix(floyd_warshall(w), mode=Mode.STRICT)


def brute_ball(qm: QuasiMetric, center: int, radius: float,
               direction: Direction) -> set:
    out = set()
    for y in range(qm.n):
        d = qm.dist[center, y] if direction is Direction.OUTER else qm.dist[y, center]
        if d <= radius:
            out.add(y)
    return out


def covers_point(qm: QuasiMetric, c: int, x: int, alpha: float,
                 direction: Direction) -> bool:
    d = qm.dist[c, x] if direction is Direction.OUTER else qm.dist[x, c]
    return d <= alpha


def brute_min_cover(qm: QuasiMetric, target, candidates, alpha: float,
                    direction: Direction):
    """Exhaustive minimum cover: try all candidate subsets by ascending size.

    Returns (size, ids) or (None, None) if no subset covers the target.
    """
    tgt = sorted(set(target))
    cand = sorted(set(candidates))
    for size in range(1, len(cand) + 1):
        for combo in itertools.combinations(cand, size):
            if all(any(covers_point(qm, c, x, alpha, direction) for c in combo)
                   for x in tgt):
                return size, list(combo)
    return None, None


def brute_greedy_cover(qm: QuasiMetric, target, candidates, alpha: float,
                       direction: Direction, max_uncovered: float = 0):
    """The greedy set-cover rule as a plain set loop.

    Each round picks the candidate whose ball holds the most uncovered
    targets, the lowest id on ties, and assigns it every target it newly
    covers; rounds stop once at most ``max_uncovered`` targets are left.
    Returns ``(picks, assignment, uncovered)``, with ``picks`` None when a
    round can cover nothing more (``uncovered`` is then what is left).
    """
    uncovered = set(target)
    balls = {c: {x for x in uncovered if covers_point(qm, c, x, alpha, direction)}
             for c in sorted(set(candidates))}
    picks, assignment = [], {}
    while len(uncovered) > max_uncovered:
        best = max(balls, key=lambda c: len(balls[c] & uncovered))  # first max
        newly = balls[best] & uncovered
        if not newly:
            return None, assignment, uncovered
        picks.append(best)
        for x in newly:
            assignment[x] = best
        uncovered -= newly
    return picks, assignment, uncovered


def brute_nearest(qm: QuasiMetric, candidates, q: int, direction: Direction):
    """(id, distance) of the lowest candidate id at the least distance from
    query point q (INNER) or to it (OUTER), scanning candidates one by one."""
    best_id, best_d = None, None
    for c in sorted(set(candidates)):
        d = qm.dist[q, c] if direction is Direction.INNER else qm.dist[c, q]
        if best_id is None or d < best_d:
            best_id, best_d = c, d
    return best_id, float(best_d)


def brute_triangle_violations(d, tol: float, exempt_infinite_lhs: bool = False) -> list:
    """Every ``(i, j, k, lhs, rhs)`` with ``lhs = d[i][j]`` above
    ``rhs * (1 + tol)`` for a finite ``rhs = d[i][k] + d[k][j]``, in
    ``(k, i, j)`` order; an infinite ``lhs`` is skipped when exempt.
    The count is the list's length."""
    n = len(d)
    out = []
    for k in range(n):
        for i in range(n):
            for j in range(n):
                lhs = float(d[i][j])
                rhs = float(d[i][k]) + float(d[k][j])
                if exempt_infinite_lhs and math.isinf(lhs):
                    continue
                if math.isfinite(rhs) and lhs > rhs * (1 + tol):
                    out.append((i, j, k, lhs, rhs))
    return out


def brute_max_packing(dist: np.ndarray, members, half: float) -> int:
    """Exhaustive maximum r/2-separated subset of a ball (symmetric dist)."""
    mem = sorted(members)
    best = 0
    for size in range(len(mem), 0, -1):
        for combo in itertools.combinations(mem, size):
            if all(dist[a, b] >= half
                   for a, b in itertools.combinations(combo, 2)):
                return size
    return best


def whole_text_lines(text: str) -> list:
    """Every stripped line of ``text`` that is neither blank nor a comment."""
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")]


def whole_text_matrix(text: str) -> np.ndarray:
    """A matrix file's text parsed whole: all lines counted, then every row
    converted to a list of floats."""
    lines = whole_text_lines(text)
    if not lines:
        raise ValueError("empty matrix file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the point count, got {lines[0]!r}") from exc
    if n < 1:
        raise ValueError("point count must be at least 1")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"row has {len(tokens)} entries, expected {n}")
        rows.append([float(t) for t in tokens])
    return np.array(rows, dtype=np.float64)


def whole_text_edge_list(text: str):
    """An edge list's text parsed whole: ``(n, [(u, v, w), ...])``."""
    lines = whole_text_lines(text)
    if not lines:
        raise ValueError("empty edge-list file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"first line must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} edges, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 3:
            raise ValueError(f"edge line needs 'u v w', got {line!r}")
        edges.append((int(tokens[0]), int(tokens[1]), float(tokens[2])))
    return n, edges


def whole_text_queries(text: str, n: int) -> list:
    """A query file's text parsed whole, each given side a list of floats."""
    lines = whole_text_lines(text)
    if not lines:
        raise ValueError("empty queries file")
    q = int(lines[0])
    if q < 0:
        raise ValueError(f"query count must be non-negative, got {q}")
    if len(lines) != 1 + 2 * q:
        raise ValueError(f"expected {2 * q} side lines for {q} queries, "
                         f"found {len(lines) - 1}")
    out = []
    for qi in range(q):
        sides = []
        for side_line in (lines[1 + 2 * qi], lines[2 + 2 * qi]):
            if side_line == "-":
                sides.append(None)
                continue
            vals = [float(tok) for tok in side_line.split()]
            if len(vals) != n:
                raise ValueError(f"query side has {len(vals)} values, expected {n}")
            sides.append(vals)
        out.append(QueryVectors(from_query=sides[0], to_query=sides[1]))
    return out


@st.composite
def tie_heavy_spaces(draw, allow_relaxed=True):
    """Closures of integer weights 1-3; relaxed ones also miss edges (inf)."""
    n = draw(st.integers(min_value=1, max_value=12))
    relaxed = allow_relaxed and draw(st.booleans())
    weights = [1.0, 2.0, 3.0] + ([math.inf] if relaxed else [])
    w = draw(st.lists(st.sampled_from(weights), min_size=n * n, max_size=n * n))
    return build_from_matrix(floyd_warshall(np.array(w).reshape(n, n)),
                             mode=Mode.RELAXED if relaxed else Mode.STRICT)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
