"""Covering and packing constants of finite spaces.

The directional covering constant in the OUTER orientation is the largest,
over all centers x and radii r, of the minimum number of half-radius OUTER
balls (centers drawn from the whole space) needed to cover the OUTER ball
of radius r around x; INNER is the mirror image.  For symmetric spaces the
same construction gives the classic doubling constant, and the density
constant replaces covering with packing: the largest number of points of a
ball that are pairwise at least r/2 apart.

Only realized distances matter as radii, so everything is computed by
sweeping centers and their finite positive distance values.  The ``greedy``
method uses the greedy cover heuristic (a clique-cover bound for density);
``exact`` solves the underlying cover/packing problems by branch and bound
and refuses spaces larger than a size cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import cover as _cover
from .space import Direction, QuasiMetric
from .transforms import SymmetricSpace

EXACT_SIZE_CAP = 16


def log_iter(x: float, i: int) -> float:
    """i-fold base-2 logarithm; i=0 returns x unchanged.

    Raises ValueError once an intermediate value is non-positive (the next
    log would be undefined).
    """
    if i < 0:
        raise ValueError("iteration count must be non-negative")
    value = float(x)
    for _ in range(i):
        if value <= 0:
            raise ValueError(f"log_iter undefined: intermediate value {value} <= 0")
        value = math.log2(value)
    return value


def log_star(x: float) -> int:
    """Number of base-2 logs needed to bring x down to at most 1."""
    value = float(x)
    count = 0
    while value > 1.0:
        value = math.log2(value)
        count += 1
    return count


@dataclass
class ConstantEstimate:
    """A covering/packing constant with its witness and per-ball breakdown.

    ``per_ball`` rows are (center, radius, balls_needed) triples; the witness
    is the first row attaining the maximum when sweeping centers in id order
    and radii in increasing order.
    """

    value: int
    quantity: str  # directional | doubling | density
    method: str  # greedy | exact
    direction: Optional[Direction] = None
    witness_center: int = 0
    witness_radius: float = 0.0
    per_ball: list[tuple[int, float, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "quantity": self.quantity,
            "method": self.method,
            "direction": self.direction.value if self.direction else None,
            "witness_center": self.witness_center,
            "witness_radius": self.witness_radius,
            "per_ball": [list(row) for row in self.per_ball],
        }


# Largest unpacked boolean coverage block (radii x candidates x members,
# members padded to whole words) that the greedy sweep builds at once; a
# center with more radii splits them, so memory stays O(n^2) rather than
# the O(n^3) of all its balls together.
_BLOCK_CAP = 1 << 22


def _critical_radii(values: np.ndarray) -> np.ndarray:
    """Sorted distinct finite positive values: the radii worth sweeping."""
    return np.unique(values[np.isfinite(values) & (values > 0)])


def _min_cover_of_ball(qm: QuasiMetric, members: list[int], radius: float,
                       direction: Direction) -> int:
    size, _ = _cover.exact_min_cover(qm, members, range(qm.n), radius / 2.0,
                                     direction, size_cap=max(len(members), 1))
    return size


def _sweep(qm: QuasiMetric, direction: Direction, ball_value):
    """Yield (center, radius, ball_value(members)) over all critical balls."""
    d = qm.oriented(direction)
    for center in range(qm.n):
        row = d[center]
        for radius in _critical_radii(row).tolist():
            members = np.nonzero(row <= radius)[0].tolist()
            yield center, radius, ball_value(members, radius)


def _cover_sweep(qm: QuasiMetric, direction: Direction, method: str):
    """Yield (center, radius, half-radius cover size) over all critical balls."""
    if method == "greedy":
        return _greedy_sweep(qm.oriented(direction))
    return _sweep(qm, direction, lambda members, radius:
                  _min_cover_of_ball(qm, members, radius, direction))


def _greedy_sweep(d: np.ndarray):
    """Yield (center, radius, greedy cover size) over all critical OUTER balls.

    Each size is ``greedy_cover(ball, all points, radius / 2, OUTER).size``,
    computed for all of a center's radii at once: the stably sorted row
    makes every ball a prefix of one order, and one batch of the greedy
    kernel covers the chunk's balls, each size being its entry's round
    count.  INNER passes ``dist.T``.
    """
    n = d.shape[0]
    for center in range(n):
        perm = np.argsort(d[center], kind="stable")
        ranked = d[center, perm]
        radii = _critical_radii(ranked)
        if not radii.size:
            continue
        members = np.searchsorted(ranked, radii, side="right")
        # Whole 64-bit words per candidate row, so packing the flat block
        # packs each row on its own; the inf padding lies in no ball.
        width = -(-members[-1] // 64) * 64
        table = np.full((n, width), np.inf)
        table[:, :members[-1]] = d[:, perm[:members[-1]]]
        step = max(1, _BLOCK_CAP // (n * width))
        for lo in range(0, radii.size, step):
            rs, ms = radii[lo:lo + step], members[lo:lo + step]
            halves = rs / 2.0
            covers = np.packbits(np.less_equal(table, halves[:, None, None], order="C")
                                 ).view(np.uint64).reshape(rs.size, n, width // 64)
            covers = np.ascontiguousarray(covers.transpose(0, 2, 1))
            active = np.packbits(np.arange(width) < ms[:, None], axis=-1).view(np.uint64)
            picks = _cover._greedy_rounds(covers, active, perm, halves.tolist())
            sizes = np.bincount(np.concatenate([live for live, _ in picks]),
                                minlength=rs.size)
            for radius, size in zip(rs.tolist(), sizes.tolist()):
                yield center, radius, size


def _estimate(rows, quantity: str, method: str,
              direction: Optional[Direction] = None) -> ConstantEstimate:
    """Collect (center, radius, value) rows; the witness is the first maximum."""
    est = ConstantEstimate(value=1, quantity=quantity, method=method,
                           direction=direction)
    for center, radius, needed in rows:
        est.per_ball.append((center, radius, needed))
        if needed > est.value:
            est.value = needed
            est.witness_center = center
            est.witness_radius = radius
    return est


def directional_constant(qm: QuasiMetric, direction: Direction,
                         method: str = "greedy",
                         exact_cap: int = EXACT_SIZE_CAP) -> ConstantEstimate:
    """Covering constant of the given orientation.

    Works on relaxed spaces too: infinite distances simply never fall inside
    any ball, so only finite realized radii are swept.
    """
    direction = Direction(direction)
    _check_method(method)
    if method == "exact" and qm.n > exact_cap:
        raise ValueError(f"exact method limited to n <= {exact_cap} (got n={qm.n})")
    return _estimate(_cover_sweep(qm, direction, method), "directional", method,
                     direction)


SpaceLike = Union[QuasiMetric, SymmetricSpace]


def _symmetric_view(space: SpaceLike, what: str) -> QuasiMetric:
    if isinstance(space, SymmetricSpace):
        qm = space.as_quasimetric()
    else:
        qm = space
    if not np.array_equal(qm.dist, qm.dist.T):
        raise ValueError(f"{what} requires a symmetric distance matrix")
    return qm


def doubling_constant(space: SpaceLike, method: str = "greedy",
                      exact_cap: int = EXACT_SIZE_CAP) -> ConstantEstimate:
    """Doubling constant of a symmetric space (cover balls by half-balls)."""
    _check_method(method)
    qm = _symmetric_view(space, "doubling_constant")
    if method == "exact" and qm.n > exact_cap:
        raise ValueError(f"exact method limited to n <= {exact_cap} (got n={qm.n})")
    return _estimate(_cover_sweep(qm, Direction.OUTER, method), "doubling", method)


def density_constant(space: SpaceLike, method: str = "greedy",
                     exact_cap: int = EXACT_SIZE_CAP) -> ConstantEstimate:
    """Density constant: largest r/2-separated subset of any r-ball.

    ``exact`` maximizes by branch and bound.  ``greedy`` reports a greedy
    clique-cover upper bound (any two points of a clique are closer than
    r/2, so a packing takes at most one point per clique).
    """
    _check_method(method)
    qm = _symmetric_view(space, "density_constant")
    if method == "exact" and qm.n > exact_cap:
        raise ValueError(f"exact method limited to n <= {exact_cap} (got n={qm.n})")
    d = qm.dist

    def ball_value(members, radius):
        half = radius / 2.0
        if method == "exact":
            return _max_packing(d, members, half)
        return _greedy_clique_cover(d, members, half)

    return _estimate(_sweep(qm, Direction.OUTER, ball_value), "density", method)


def _check_method(method: str) -> None:
    if method not in ("greedy", "exact"):
        raise ValueError(f"method must be 'greedy' or 'exact', got {method!r}")


def _max_packing(d: np.ndarray, members: list[int], half: float) -> int:
    """Largest subset of members with pairwise distance >= half (exact)."""
    m = len(members)
    if m <= 1:
        return m
    conflict = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if d[members[a], members[b]] < half:
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
    memo: dict[int, int] = {}

    def mis(allowed: int) -> int:
        if allowed == 0:
            return 0
        cached = memo.get(allowed)
        if cached is not None:
            return cached
        low = allowed & -allowed
        v = low.bit_length() - 1
        without = mis(allowed & ~low)
        with_v = 1 + mis(allowed & ~low & ~conflict[v])
        best = max(without, with_v)
        memo[allowed] = best
        return best

    return mis((1 << m) - 1)


def _greedy_clique_cover(d: np.ndarray, members: list[int], half: float) -> int:
    """Cover the conflict graph (pairs closer than half) by greedy cliques.

    The clique count upper-bounds the maximum packing size.
    """
    remaining = list(members)
    cliques = 0
    while remaining:
        seed = remaining[0]
        clique = [seed]
        rest = []
        for u in remaining[1:]:
            if all(d[u, w] < half and d[w, u] < half for w in clique):
                clique.append(u)
            else:
                rest.append(u)
        remaining = rest
        cliques += 1
    return cliques
