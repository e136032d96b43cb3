"""Directional covers of a point set.

An OUTER cover at radius alpha is a set C with dist(C, x) <= alpha for every
target x; an INNER cover has dist(x, C) <= alpha.  The workhorse is the
classic greedy set-cover heuristic run over directional balls, which stays
within a factor ceil(ln |S|) + 1 of the optimum; its one loop, over packed
bitsets, also drives the covering-constant sweeps.  Given an eps, it may
leave that fraction of the target uncovered.  On top of it sits an
iterated schedule that first builds coarse covers at fast-shrinking radii
and then covers the cover, trading a little radius for much less work on
later rounds.

Every construction reports how many distance-matrix reads it performed
(``stats.distance_evaluations``) so scaling behavior can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .space import (Direction, DomainFailure, QuasiMetric, Record, _clean_ids,
                    _nearest_centers, _require_strict, diameter, subspace)

# Largest set the exact solvers take on: the target of an exact cover, and
# the space of an exact covering or packing constant.
EXACT_SIZE_CAP = 16

# Assignments produced by the iterated schedule chain several triangle
# inequalities, so they are certified up to the default validation slack.
_CHAIN_RTOL = 1e-9


class CoverageError(DomainFailure, RuntimeError):
    """Raised when the requested coverage level cannot be reached."""

    def __init__(self, message: str, uncoverable: Optional[set[int]] = None):
        super().__init__(message)
        self.uncoverable = set(uncoverable or ())


@dataclass
class CoverStats(Record):
    iterations: int = 0
    distance_evaluations: int = 0
    fallback: bool = False
    radius_schedule: list[float] = field(default_factory=list)


@dataclass
class Cover:
    """A directional cover: chosen ids, per-point assignment, leftovers."""

    direction: Direction
    radius: float
    cover_ids: list[int]
    assignment: dict[int, int]
    uncovered: set[int]
    stats: CoverStats

    @property
    def size(self) -> int:
        return len(self.cover_ids)

    def to_dict(self) -> dict:
        return {
            "direction": self.direction.value,
            "radius": self.radius,
            "size": self.size,
            "cover_ids": list(self.cover_ids),
            "assignment": {str(k): v for k, v in sorted(self.assignment.items())},
            "uncovered": sorted(self.uncovered),
            "stats": self.stats.to_dict(),
        }


def _check_alpha(alpha: float, positive: bool = False) -> None:
    """Reject a NaN radius, and a negative one (or, if ``positive``, zero)."""
    if math.isnan(alpha):
        raise ValueError("alpha must be a number, got nan")
    if positive and alpha <= 0:
        raise ValueError("alpha must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")


def _coverage_matrix(qm: QuasiMetric, candidates: list[int], target: list[int],
                     alpha: float, direction: Direction) -> np.ndarray:
    """Boolean [candidate x target] matrix: does this ball contain that point?"""
    return qm.oriented(direction)[np.ix_(candidates, target)] <= alpha


def _packed(dists: np.ndarray, radii: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """The ``covers`` and ``active`` words ``_greedy_rounds`` reads for one
    entry per radius: entry b holds the balls ``dists[c] <= radii[b]`` of
    each candidate c, and its first ``sizes[b]`` targets are active.  The
    target axis of ``dists`` must be whole 64-bit words."""
    words = np.packbits(np.less_equal(dists, radii[:, None, None], order="C")).view(np.uint64)
    covers = words.reshape(len(radii), dists.shape[0], -1).transpose(0, 2, 1)
    active = np.packbits(np.arange(dists.shape[1]) < np.asarray(sizes)[:, None], axis=-1)
    return np.ascontiguousarray(covers), active.view(np.uint64)


def _greedy_rounds(covers: np.ndarray, active: np.ndarray, ids: list[np.ndarray],
                   radii: list[float], max_uncovered: int = 0
                   ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The greedy set-cover loop, run over a batch of packed-bitset entries.

    ``covers[b, :, c]`` holds, as 64-bit words, the targets candidate c
    covers in entry b, and ``active[b]`` the targets to cover there; bit j
    stands for target ``ids[b][j]``, and ``radii[b]`` is the radius named
    when entry b cannot be covered.  Each round picks, per entry, the candidate
    covering the most active targets (first maximum, so the lowest index
    wins ties); an entry leaves once at most ``max_uncovered`` of its
    targets are left.  Returns each round's (entry indices, picks).

    Gains drop by the popcounts of the span of words a round changed, so
    a round costs O(candidates x that span), not a full recount.
    """
    lost = active & ~np.bitwise_or.reduce(covers, axis=2)
    stuck = np.flatnonzero(np.bitwise_count(lost).sum(axis=1) > max_uncovered)
    if stuck.size:
        j = int(stuck[0])
        missing = set(ids[j][np.flatnonzero(np.unpackbits(lost[j].view(np.uint8)))].tolist())
        raise CoverageError(
            f"{len(missing)} target point(s) lie in no candidate ball at "
            f"radius {radii[j]}", uncoverable=missing)

    # int32 counts halve the memory the per-round gain passes touch.
    remaining = np.bitwise_count(active).sum(axis=1, dtype=np.int32)
    gain = np.bitwise_count(covers & active[:, :, None]).sum(axis=1, dtype=np.int32)
    live = rows = np.arange(len(active))
    picks = []
    while True:
        if remaining.min() <= max_uncovered:
            left = remaining > max_uncovered
            live, covers, active = live[left], covers[left], active[left]
            gain, remaining = gain[left], remaining[left]
            if not live.size:
                return picks
            rows = np.arange(live.size)
        best = gain.argmax(axis=1)
        picks.append((live, best))
        remaining -= gain[rows, best]
        newly = covers[rows, :, best] & active
        active ^= newly
        # Every live entry covered something, so some word changed; the
        # words between the first and last changed one are a view, and
        # those among them left alone subtract nothing.
        changed = np.bitwise_or.reduce(newly, axis=0).nonzero()[0]
        span = slice(changed[0], changed[-1] + 1)
        gain -= np.bitwise_count(covers[:, span] & newly[:, span, None]).sum(
            axis=1, dtype=np.int32)


def _cover_from_picks(table: np.ndarray, picks: list[int], candidates: list[int],
                      target: list[int], alpha: float, direction: Direction,
                      stats: CoverStats) -> Cover:
    """The cover made of ``picks`` (rows of the coverage ``table``, in pick
    order): each target goes to the first pick whose ball holds it, and a
    target in none of them stays uncovered."""
    owner = np.full(len(target), -1)
    for row in reversed(picks):
        owner[table[row]] = candidates[row]
    assignment = {target[t]: c for t, c in enumerate(owner.tolist()) if c >= 0}
    uncovered = {target[t] for t in np.flatnonzero(owner < 0).tolist()}
    cover_ids = [candidates[r] for r in picks]
    return Cover(direction=direction, radius=alpha, cover_ids=cover_ids,
                 assignment=assignment, uncovered=uncovered, stats=stats)


def greedy_cover(qm: QuasiMetric, target: Iterable[int], candidates: Iterable[int],
                 alpha: float, direction: Direction, eps: Optional[float] = None) -> Cover:
    """Greedy cover of ``target`` drawing centers from ``candidates``; one
    distance read is charged per (candidate, target) pair.

    Without ``eps`` every target is covered.  With it, at most an eps
    fraction may stay uncovered: the loop stops once the uncovered count is
    the largest whole count ``a`` with ``a / |target| <= eps`` or below, so
    with an optimal full cover of size p it takes at most
    p * ceil(ln(1/eps)) rounds.  Division rounds correctly, so 0.29 of 100
    targets allows 29, though the product ``0.29 * 100`` rounds down to
    28.999999999999996.
    """
    if eps is not None and not (0 < eps < 1):
        raise ValueError("eps must lie strictly between 0 and 1")
    direction = Direction(direction)
    _check_alpha(alpha)
    tgt = _clean_ids(qm.n, target, "target").tolist()
    cand = _clean_ids(qm.n, candidates, "candidate").tolist()
    # Whole 64-bit words per candidate row, padded in the same read (so no
    # second copy) with the first target's column, then inf; never active.
    dists = qm.oriented(direction)[np.ix_(cand, tgt + tgt[:1] * (-len(tgt) % 64))]
    dists[:, len(tgt):] = np.inf
    covers, active = _packed(dists, np.array([alpha]), [len(tgt)])
    allowance = 0
    if eps is not None:
        allowance = math.floor(eps * len(tgt))  # at most one off
        if (allowance + 1) / len(tgt) <= eps:
            allowance += 1
        elif allowance / len(tgt) > eps:
            allowance -= 1
    picks = _greedy_rounds(covers, active, [np.array(tgt)], [alpha], allowance)
    stats = CoverStats(iterations=len(picks),
                       distance_evaluations=len(cand) * len(tgt))
    return _cover_from_picks(dists[:, :len(tgt)] <= alpha, [int(best[0]) for _, best in picks],
                             cand, tgt, alpha, direction, stats)


def arbitrary_cover(qm: QuasiMetric, target: Iterable[int], candidates: Iterable[int],
                    alpha: float, direction: Direction, seed: Optional[int] = None) -> Cover:
    """Baseline cover: scan candidates in a fixed order, keep any that helps.

    No size guarantee at all; useful as the thing the greedy rule beats.
    The order is ascending by id, or with a ``seed`` the permutation
    ``np.random.default_rng(seed)`` draws.
    """
    direction = Direction(direction)
    _check_alpha(alpha)
    tgt = _clean_ids(qm.n, target, "target").tolist()
    cand = _clean_ids(qm.n, candidates, "candidate").tolist()
    if seed is not None:
        cand = [cand[i] for i in np.random.default_rng(seed).permutation(len(cand))]

    table = _coverage_matrix(qm, cand, tgt, alpha, direction)
    # Scanning in order keeps a candidate exactly when it is the first to
    # hold some target: each held target's first holder, in scan order.
    hit = table.any(axis=0)
    held = np.bincount(table.argmax(axis=0)[hit], minlength=len(cand))
    picks = np.flatnonzero(held).tolist()
    stats = CoverStats(iterations=picks[-1] + 1 if hit.all() else len(cand),
                       distance_evaluations=len(cand) * len(tgt))
    return _cover_from_picks(table, picks, cand, tgt, alpha, direction, stats)


def _schedule(n_t: int, diam: float, alpha: float, lambda_hat: float) -> list[float]:
    """The coarse radii ``iterated_cover`` schedules for ``n_t`` targets, in
    round order; exponents below 1 count as 1."""
    radii, consumed, level = [], 0.0, float(n_t)
    while True:
        level = math.log2(level)  # n_t >= 1, and later levels exceed 1
        if level <= 1.0:
            return radii
        exponent = max(1, math.ceil(math.log2(level) / math.log2(lambda_hat)))
        alpha_i = diam / (2.0 ** exponent)
        if not (alpha_i < alpha / 3.0) or consumed + alpha_i > 2.0 * alpha / 3.0:
            return radii
        radii.append(alpha_i)
        consumed += alpha_i


def _estimated_schedule(qm: QuasiMetric, ids: list[int], direction: Direction,
                        n_t: int, diam: float, alpha: float) -> tuple[list[float], int]:
    """The schedule of the default lambda_hat, the greedy directional
    constant of the points ``ids`` but at least 2, and the distance reads
    spent on it.

    The constant is an integer and the sweep's running maximum of greedy
    sizes only grows towards it, so the sweep stops, exactly, once every
    integer at or above that maximum (at least 2) gives one schedule, and
    runs not at all when 2 already does.  Its reads are the copy of the
    points' subspace and the table of each swept center, in a strict space
    the whole copy.
    """
    top = (n_t - 1).bit_length()  # ceil(log2 n_t): from there on every exponent is 1

    def settled(low: int) -> bool:
        return len({tuple(_schedule(n_t, diam, alpha, lam))
                    for lam in range(low, max(low, top) + 1)}) == 1

    low, reads = 2, 0
    if not settled(low):
        from .dimension import _greedy_sweep  # dimension imports this module

        d = subspace(qm, ids).oriented(direction)
        swept: set[int] = set()
        for centers, _, sizes in _greedy_sweep(d):
            swept.update(centers.tolist())
            low = max(low, int(sizes.max()))
            if settled(low):
                break
        reads = d.size * (1 + len(swept))
    return _schedule(n_t, diam, alpha, low), reads


def iterated_cover(qm: QuasiMetric, target: Iterable[int], candidates: Iterable[int],
                   alpha: float, direction: Direction,
                   lambda_hat: Optional[float] = None) -> Cover:
    """Multi-round cover: coarse covers at a shrinking radius schedule, then
    one greedy pass at the remaining radius budget.

    Round i covers the previous round's cover at radius
    ``diam / 2**ceil(log2(log^(i) n) / log2(lambda_hat))`` where ``log^(i)``
    is the i-fold base-2 logarithm of the target size.  Rounds stop once the
    next radius is no longer below alpha / 3 or the schedule would spend more
    than 2 * alpha / 3 in total, so the final pass always retains at least
    alpha / 3.  If the very first scheduled radius is already too large the
    whole thing degenerates to a single greedy pass at alpha (``fallback``).

    Without ``lambda_hat`` it is the greedy directional constant of the
    points of ``target`` and ``candidates``, at least 2, estimated only as
    far as the schedule needs: the constant's sweep stops once no larger
    value could change the schedule, and is skipped when none could.  The
    estimate's reads, the subspace copy and each swept center's table,
    count in ``stats.distance_evaluations``; they are 0 when
    ``lambda_hat`` is given or no ball is swept.

    The chained assignments are within alpha by the triangle inequality; the
    final per-point assignment is recomputed against the finished cover.
    """
    direction = Direction(direction)
    _require_strict(qm, "iterated_cover")
    _check_alpha(alpha, positive=True)
    if lambda_hat is not None and not lambda_hat >= 2:  # also rejects NaN
        raise ValueError(f"lambda_hat must be at least 2, got {lambda_hat}")
    tgt = _clean_ids(qm.n, target, "target").tolist()
    cand = _clean_ids(qm.n, candidates, "candidate").tolist()
    diam = diameter(qm)
    stats = CoverStats()
    if lambda_hat is None:
        schedule, stats.distance_evaluations = _estimated_schedule(
            qm, tgt + cand, direction, len(tgt), diam, alpha)
    else:
        schedule = _schedule(len(tgt), diam, alpha, lambda_hat)

    current = tgt
    consumed = 0.0
    for alpha_i in schedule:
        round_cover = greedy_cover(qm, current, cand, alpha_i, direction)
        stats.iterations += round_cover.stats.iterations
        stats.distance_evaluations += round_cover.stats.distance_evaluations
        consumed += alpha_i
        current = sorted(round_cover.cover_ids)

    stats.fallback = not schedule
    final_radius = alpha - consumed
    final = greedy_cover(qm, current, cand, final_radius, direction)
    stats.iterations += final.stats.iterations
    stats.distance_evaluations += final.stats.distance_evaluations
    stats.radius_schedule = schedule + [final_radius]

    cover_ids = final.cover_ids
    if stats.fallback:
        # Identical to a plain greedy run; keep its direct assignment.
        assignment = final.assignment
    else:
        dists, owner = _nearest_centers(qm, sorted(cover_ids), tgt, direction)
        stats.distance_evaluations += len(cover_ids) * len(tgt)
        if (dists > alpha * (1.0 + _CHAIN_RTOL)).any():
            worst = float(dists.max())
            raise CoverageError(
                f"iterated schedule left a point at distance {worst} > {alpha}")
        assignment = dict(zip(tgt, owner.tolist()))

    return Cover(direction=direction, radius=alpha, cover_ids=cover_ids,
                 assignment=assignment, uncovered=set(), stats=stats)


def verify_cover(qm: QuasiMetric, cover: Cover, target: Iterable[int],
                 alpha: Optional[float] = None,
                 direction: Optional[Direction] = None,
                 tolerance: float = 0.0) -> tuple[bool, list[tuple[int, float]]]:
    """Independently recheck a cover against the distance matrix.

    Returns (ok, offenders) where offenders lists (point, best_distance)
    pairs exceeding alpha * (1 + tolerance).  Points recorded as uncovered
    by an eps-relaxed construction are exempt.
    """
    alpha = cover.radius if alpha is None else alpha
    direction = cover.direction if direction is None else Direction(direction)
    tgt = _clean_ids(qm.n, target, "target")
    centers = _clean_ids(qm.n, cover.cover_ids, "cover")
    best, _ = _nearest_centers(qm, centers, tgt, direction)
    over = (best > alpha * (1.0 + tolerance)) & ~np.isin(tgt, list(cover.uncovered))
    offenders = list(zip(tgt[over].tolist(), best[over].tolist()))
    return (not offenders, offenders)


# ---------------------------------------------------------------------------
# Exact minimum cover (branch and bound over bitmasks).  Exponential in the
# worst case; intended for small instances and for auditing the greedy rule.
# ---------------------------------------------------------------------------

def _masks(table: np.ndarray) -> list[int]:
    """Each row of the boolean ``table`` as a Python int whose bit j is the
    row's entry j."""
    packed = np.packbits(table, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def min_cover_size_masks(universe: int, sets: list[int]) -> tuple[int, list[int]]:
    """Smallest collection of ``sets`` (bitmasks) covering ``universe``.

    Returns (size, chosen indices).  Raises CoverageError if some universe
    bit is in no set.
    """
    if universe == 0:
        return 0, []
    reachable = 0
    for s in sets:
        reachable |= s
    if universe & ~reachable:
        raise CoverageError("exact cover infeasible: uncoverable elements")

    # Drop sets dominated by a superset; keep the first of equal sets.
    trimmed: list[tuple[int, int]] = []  # (mask restricted to universe, index)
    masked = [(s & universe, i) for i, s in enumerate(sets) if s & universe]
    masked.sort(key=lambda t: (-bin(t[0]).count("1"), t[1]))
    for m, i in masked:
        if any(m & ~km == 0 for km, _ in trimmed):
            continue
        trimmed.append((m, i))

    element_sets: dict[int, list[int]] = {}
    rest = universe
    while rest:
        bit = rest & -rest
        element_sets[bit] = [idx for idx, (m, _) in enumerate(trimmed) if m & bit]
        rest ^= bit

    best_size = len(trimmed) + 1
    best_pick: list[int] = []
    max_ball = max(bin(m).count("1") for m, _ in trimmed)

    def dfs(remaining: int, chosen: list[int]) -> None:
        nonlocal best_size, best_pick
        if remaining == 0:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_pick = chosen.copy()
            return
        lower = len(chosen) + math.ceil(bin(remaining).count("1") / max_ball)
        if lower >= best_size:
            return
        # Branch on the rarest uncovered element.
        pick_bit, options = None, None
        rest = remaining
        while rest:
            bit = rest & -rest
            opts = [idx for idx in element_sets[bit] if trimmed[idx][0] & remaining]
            if options is None or len(opts) < len(options):
                pick_bit, options = bit, opts
            rest ^= bit
        options.sort(key=lambda idx: -bin(trimmed[idx][0] & remaining).count("1"))
        for idx in options:
            chosen.append(idx)
            dfs(remaining & ~trimmed[idx][0], chosen)
            chosen.pop()

    dfs(universe, [])
    return best_size, [trimmed[i][1] for i in best_pick]


def exact_min_cover(qm: QuasiMetric, target: Iterable[int], candidates: Iterable[int],
                    alpha: float, direction: Direction) -> tuple[int, list[int]]:
    """Exact optimum cover size (and one witness) by branch and bound.

    Targets are limited to ``EXACT_SIZE_CAP`` points since the search is
    exponential in the worst case.
    """
    direction = Direction(direction)
    _check_alpha(alpha)
    tgt = _clean_ids(qm.n, target, "target").tolist()
    cand = _clean_ids(qm.n, candidates, "candidate").tolist()
    if len(tgt) > EXACT_SIZE_CAP:
        raise ValueError(f"exact cover limited to targets of size <= {EXACT_SIZE_CAP}")
    covers = _coverage_matrix(qm, cand, tgt, alpha, direction)
    size, picked = min_cover_size_masks((1 << len(tgt)) - 1, _masks(covers))
    return size, sorted(cand[i] for i in picked)
