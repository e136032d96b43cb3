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
from typing import Optional

import numpy as np

from . import cover as _cover
from .space import Direction, QuasiMetric, Record


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
class ConstantEstimate(Record):
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


# Largest unpacked boolean coverage block (entries x candidates x members,
# members padded to whole words) of one batch of the greedy sweep: about four
# centers' balls at n = 80 (0.8 M bits per center), where, on one host,
# blocks of three centers swept fastest and blocks of five, outgrowing the
# cache, slower than one.
_BLOCK_CAP = 3 << 20


def _critical_radii(ranked: np.ndarray) -> np.ndarray:
    """The distinct finite positive values of the sorted row ``ranked``, in
    increasing order: the radii worth sweeping."""
    values = ranked[np.isfinite(ranked) & (ranked > 0)]
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def _balls(d: np.ndarray):
    """Yield ``(center, perm, radii, members)`` for every center of the
    OUTER matrix ``d`` that has a critical radius: the stable argsort of its
    row, the row's critical radii in increasing order, and each radius's
    member count.  The ball of ``radii[i]`` is then the prefix
    ``perm[:members[i]]``, the same set as ``row <= radii[i]``.  INNER
    passes ``dist.T``.
    """
    for center in range(d.shape[0]):
        perm = np.argsort(d[center], kind="stable")
        ranked = d[center, perm]
        radii = _critical_radii(ranked)
        if radii.size:
            yield center, perm, radii, np.searchsorted(ranked, radii, side="right")


def _greedy_sweep(d: np.ndarray):
    """Yield the center, radius and greedy cover size of every critical
    OUTER ball, as three arrays per block, blocks in sweep order.

    Each size is ``greedy_cover(ball, all points, radius / 2, OUTER).size``.
    Every center's table spans all n points in that center's sorted order,
    padded to whole 64-bit words, so every entry has one width; the entries
    stream into blocks of ``_BLOCK_CAP // (n * 64 * words)`` (at least one),
    a center's radii splitting where they do not fit, and one batch of the
    greedy kernel covers each block, each size being its entry's round
    count.  A center's table is read from ``d`` only once its first radii
    join a block, so a consumer that stops taking blocks has read the
    tables of the centers it was given and no other.
    """
    n = d.shape[0]
    words = -(-n // 64)
    step = max(1, _BLOCK_CAP // (n * 64 * words))
    block, entries = [], 0
    for center, perm, rs, members in _balls(d):
        table = np.full((n, 64 * words), np.inf)  # the inf padding lies in no ball
        table[:, :n] = d[:, perm]
        cuts = range(step - entries, rs.size, step)
        for chunk, sizes in zip(np.split(rs, cuts), np.split(members, cuts)):
            block.append((*_cover._packed(table, chunk / 2.0, sizes), perm, center, chunk))
            entries += chunk.size
            if entries == step:
                yield _block_sizes(block)
                block, entries = [], 0
    if block:
        yield _block_sizes(block)


def _block_sizes(block: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers, radii and greedy cover sizes of the entries of ``block``, a
    list of ``(covers, active, perm, center, radii)`` pieces, ``covers`` and
    ``active`` from ``cover._packed`` and of one width, in one batch of the
    greedy kernel."""
    covers, active, perms, centers, radii = zip(*block)
    counts = [r.size for r in radii]
    ids = [perm for perm, count in zip(perms, counts) for _ in range(count)]
    radii = np.concatenate(radii)
    picks = _cover._greedy_rounds(np.concatenate(covers), np.concatenate(active), ids,
                                  (radii / 2.0).tolist())
    return np.repeat(centers, counts), radii, np.bincount(
        np.concatenate([live for live, _ in picks]), minlength=radii.size)


def _constant(qm: QuasiMetric, quantity: str, method: str,
              direction: Optional[Direction] = None) -> ConstantEstimate:
    """Sweep every critical ball of ``qm``, OUTER unless ``direction`` says
    otherwise, for ``quantity``: the ball's half-radius cover size, or for
    density its half-radius packing bound.  The per-ball solvers get each
    ball in id order; the witness is the first maximum."""
    if method not in ("greedy", "exact"):
        raise ValueError(f"method must be 'greedy' or 'exact', got {method!r}")
    if method == "exact" and qm.n > _cover.EXACT_SIZE_CAP:
        raise ValueError(f"exact method limited to n <= {_cover.EXACT_SIZE_CAP} "
                         f"(got n={qm.n})")
    orientation = direction or Direction.OUTER
    d = qm.oriented(orientation)
    if quantity != "density" and method == "greedy":
        blocks = list(zip(*_greedy_sweep(d)))
        centers, radii, sizes = map(np.concatenate, blocks) if blocks else ([], [], [])
    else:
        centers, radii, sizes = [], [], []
        for center, perm, rs, members in _balls(d):
            for radius, m in zip(rs.tolist(), members.tolist()):
                ball, half = np.sort(perm[:m]).tolist(), radius / 2.0
                if quantity != "density":
                    size, _ = _cover.exact_min_cover(qm, ball, range(qm.n), half,
                                                     orientation)
                elif method == "exact":
                    size = _max_packing(d, ball, half)
                else:
                    size = _greedy_clique_cover(d, ball, half)
                centers.append(center)
                radii.append(radius)
                sizes.append(size)
    sizes = np.asarray(sizes, dtype=np.int64)
    est = ConstantEstimate(value=1, quantity=quantity, method=method, direction=direction,
                           per_ball=list(zip(np.asarray(centers).tolist(),
                                             np.asarray(radii).tolist(), sizes.tolist())))
    if sizes.size and sizes.max() > 1:
        est.witness_center, est.witness_radius, est.value = est.per_ball[int(sizes.argmax())]
    return est


def directional_constant(qm: QuasiMetric, direction: Direction,
                         method: str = "greedy") -> ConstantEstimate:
    """Covering constant of the given orientation.

    Works on relaxed spaces too: infinite distances simply never fall inside
    any ball, so only finite realized radii are swept.
    """
    return _constant(qm, "directional", method, Direction(direction))


def _symmetric_view(qm: QuasiMetric, what: str) -> QuasiMetric:
    if not np.array_equal(qm.dist, qm.dist.T):
        raise ValueError(f"{what} requires a symmetric distance matrix")
    return qm


def doubling_constant(space: QuasiMetric, method: str = "greedy") -> ConstantEstimate:
    """Doubling constant of a symmetric space (cover balls by half-balls)."""
    return _constant(_symmetric_view(space, "doubling_constant"), "doubling", method)


def density_constant(space: QuasiMetric, method: str = "greedy") -> ConstantEstimate:
    """Density constant: largest r/2-separated subset of any r-ball.

    ``exact`` maximizes by branch and bound.  ``greedy`` reports a greedy
    clique-cover upper bound (any two points of a clique are closer than
    r/2, so a packing takes at most one point per clique).
    """
    return _constant(_symmetric_view(space, "density_constant"), "density", method)


def _max_packing(d: np.ndarray, members: list[int], half: float) -> int:
    """Largest subset of members with pairwise distance >= half (exact)."""
    # d is symmetric here; a member's own bit is cleared before it is read.
    conflict = _cover._masks(d[np.ix_(members, members)] < half)
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

    return mis((1 << len(members)) - 1)


def _greedy_clique_cover(d: np.ndarray, members: list[int], half: float) -> int:
    """Cover the conflict graph (pairs closer than half) by greedy cliques:
    seed each with the lowest remaining member, then take every later member
    adjacent to the whole clique.  The count upper-bounds the packing."""
    block = d[np.ix_(members, members)]
    adjacent = (block < half) & (block.T < half)
    remaining = np.ones(len(members), dtype=bool)
    cliques = 0
    while remaining.any():
        fits = remaining.copy()  # remaining and adjacent to the whole clique
        u = int(fits.argmax())
        while fits[u]:
            remaining[u] = fits[u] = False
            fits &= adjacent[u]
            u = int(fits.argmax())
        cliques += 1
    return cliques
