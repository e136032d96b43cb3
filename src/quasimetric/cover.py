"""Directional covers of a point set.

An OUTER cover at radius alpha is a set C with dist(C, x) <= alpha for every
target x; an INNER cover has dist(x, C) <= alpha.  The workhorse is the
classic greedy set-cover heuristic run over directional balls, which stays
within a factor ceil(ln |S|) + 1 of the optimum; its one loop, over packed
bitsets, also drives the covering-constant sweeps.  On top of it sit an
epsilon-relaxed variant that may leave a small fraction uncovered, and an
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

from .space import Direction, Mode, QuasiMetric, diameter

# Assignments produced by the iterated schedule chain several triangle
# inequalities, so they are certified up to the default validation slack.
_CHAIN_RTOL = 1e-9


class CoverageError(RuntimeError):
    """Raised when the requested coverage level cannot be reached."""

    def __init__(self, message: str, uncoverable: Optional[set[int]] = None):
        super().__init__(message)
        self.uncoverable = set(uncoverable or ())


@dataclass
class CoverStats:
    iterations: int = 0
    distance_evaluations: int = 0
    fallback: bool = False
    radius_schedule: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "distance_evaluations": self.distance_evaluations,
            "fallback": self.fallback,
            "radius_schedule": list(self.radius_schedule),
        }


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


def _clean_ids(qm: QuasiMetric, ids: Iterable[int], what: str) -> list[int]:
    out = sorted(set(int(i) for i in ids))
    if not out:
        raise ValueError(f"{what} must be non-empty")
    for i in out:
        if not (0 <= i < qm.n):
            raise ValueError(f"{what} id {i} out of range")
    return out


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


def _distance_to_cover(qm: QuasiMetric, centers: list[int], points: list[int],
                       direction: Direction) -> np.ndarray:
    """Per point, the least oriented distance from any of ``centers``."""
    return qm.oriented(direction)[np.ix_(centers, points)].min(axis=0)


def _greedy_rounds(covers: np.ndarray, active: np.ndarray, ids: np.ndarray,
                   radii: list[float], max_uncovered: int = 0
                   ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The greedy set-cover loop, run over a batch of packed-bitset entries.

    ``covers[b, :, c]`` holds, as 64-bit words, the targets candidate c
    covers in entry b, and ``active[b]`` the targets to cover there; bit j
    stands for target ``ids[j]``, and ``radii[b]`` is the radius named when
    entry b cannot be covered.  Each round picks, per entry, the candidate
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
        missing = set(ids[np.flatnonzero(np.unpackbits(lost[j].view(np.uint8)))].tolist())
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


def _greedy_cover(qm: QuasiMetric, target: Iterable[int], candidates: Iterable[int],
                  alpha: float, direction: Direction, max_fraction: float) -> Cover:
    """Greedy cover leaving at most ``max_fraction`` of the target uncovered;
    one distance read is charged per (candidate, target) pair.

    The allowance is the largest whole count ``a`` with ``a / len(target) <=
    max_fraction``.  Division rounds correctly, so 0.29 of 100 targets
    allows 29, though the product ``0.29 * 100`` rounds down to
    28.999999999999996.
    """
    direction = Direction(direction)
    _check_alpha(alpha)
    tgt = _clean_ids(qm, target, "target")
    cand = _clean_ids(qm, candidates, "candidates")
    table = _coverage_matrix(qm, cand, tgt, alpha, direction)
    # Whole 64-bit words per candidate row; the zero padding is never active.
    width = -(-len(tgt) // 64) * 64
    padded = np.pad(table, ((0, 0), (0, width - len(tgt))))
    covers = np.packbits(padded, axis=1).view(np.uint64).T[None].copy()
    active = np.packbits(np.arange(width) < len(tgt)).view(np.uint64)[None]
    allowance = math.floor(max_fraction * len(tgt))  # at most one off
    if (allowance + 1) / len(tgt) <= max_fraction:
        allowance += 1
    elif allowance / len(tgt) > max_fraction:
        allowance -= 1
    picks = _greedy_rounds(covers, active, np.array(tgt), [alpha], allowance)
    stats = CoverStats(iterations=len(picks),
                       distance_evaluations=len(cand) * len(tgt))
    return _cover_from_picks(table, [int(best[0]) for _, best in picks], cand, tgt,
                             alpha, direction, stats)


def greedy_cover(qm: QuasiMetric, target: Iterable[int], candidates: Iterable[int],
                 alpha: float, direction: Direction) -> Cover:
    """Full greedy cover of ``target`` drawing centers from ``candidates``."""
    return _greedy_cover(qm, target, candidates, alpha, direction, 0.0)


def greedy_cover_eps(qm: QuasiMetric, target: Iterable[int], candidates: Iterable[int],
                     alpha: float, direction: Direction, eps: float) -> Cover:
    """Greedy cover allowed to leave at most an eps fraction of the target.

    Stops as soon as the uncovered count drops to eps * |target| or below
    (the largest whole count ``a`` with ``a / |target| <= eps``);
    with an optimal full cover of size p this takes at most
    p * ceil(ln(1/eps)) rounds.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie strictly between 0 and 1")
    return _greedy_cover(qm, target, candidates, alpha, direction, eps)


def arbitrary_cover(qm: QuasiMetric, target: Iterable[int], candidates: Iterable[int],
                    alpha: float, direction: Direction,
                    order: str = "ascending", seed: Optional[int] = None) -> Cover:
    """Baseline cover: scan candidates in a fixed order, keep any that helps.

    No size guarantee at all; useful as the thing the greedy rule beats.
    ``order`` is ``ascending`` (by id) or ``shuffled`` (seeded).
    """
    direction = Direction(direction)
    _check_alpha(alpha)
    tgt = _clean_ids(qm, target, "target")
    cand = _clean_ids(qm, candidates, "candidates")
    if order == "shuffled":
        rng = np.random.default_rng(seed)
        cand = [cand[i] for i in rng.permutation(len(cand))]
    elif order != "ascending":
        raise ValueError(f"unknown order {order!r}")

    table = _coverage_matrix(qm, cand, tgt, alpha, direction)
    stats = CoverStats(distance_evaluations=len(cand) * len(tgt))
    active = np.ones(len(tgt), dtype=bool)
    picks: list[int] = []
    for ci in range(len(cand)):
        newly = table[ci] & active
        stats.iterations += 1
        if not newly.any():
            continue
        active &= ~newly
        picks.append(ci)
        if not active.any():
            break
    return _cover_from_picks(table, picks, cand, tgt, alpha, direction, stats)


def iterated_cover(qm: QuasiMetric, target: Iterable[int], candidates: Iterable[int],
                   alpha: float, direction: Direction, lambda_hat: float) -> Cover:
    """Multi-round cover: coarse covers at a shrinking radius schedule, then
    one greedy pass at the remaining radius budget.

    Round i covers the previous round's cover at radius
    ``diam / 2**ceil(log2(log^(i) n) / log2(lambda_hat))`` where ``log^(i)``
    is the i-fold base-2 logarithm of the target size.  Rounds stop once the
    next radius is no longer below alpha / 3 or the schedule would spend more
    than 2 * alpha / 3 in total, so the final pass always retains at least
    alpha / 3.  If the very first scheduled radius is already too large the
    whole thing degenerates to a single greedy pass at alpha (``fallback``).

    The chained assignments are within alpha by the triangle inequality; the
    final per-point assignment is recomputed against the finished cover.
    """
    direction = Direction(direction)
    if qm.mode is not Mode.STRICT or qm.has_infinite:
        raise ValueError("iterated_cover requires a strict-mode space")
    _check_alpha(alpha, positive=True)
    if not lambda_hat >= 2:  # also rejects NaN
        raise ValueError(f"lambda_hat must be at least 2, got {lambda_hat}")
    tgt = _clean_ids(qm, target, "target")
    cand = _clean_ids(qm, candidates, "candidates")

    diam = diameter(qm)
    n_t = len(tgt)
    stats = CoverStats()
    current = tgt
    consumed = 0.0
    level = float(n_t)
    while True:
        level = math.log2(level) if level > 0 else 0.0
        if level <= 1.0:
            break
        exponent = math.ceil(math.log2(level) / math.log2(lambda_hat))
        if exponent < 1:
            exponent = 1
        alpha_i = diam / (2.0 ** exponent)
        if not (alpha_i < alpha / 3.0):
            break
        if consumed + alpha_i > 2.0 * alpha / 3.0:
            break
        round_cover = greedy_cover(qm, current, cand, alpha_i, direction)
        stats.iterations += round_cover.stats.iterations
        stats.distance_evaluations += round_cover.stats.distance_evaluations
        stats.radius_schedule.append(alpha_i)
        consumed += alpha_i
        current = sorted(round_cover.cover_ids)

    stats.fallback = not stats.radius_schedule
    final_radius = alpha - consumed
    final = greedy_cover(qm, current, cand, final_radius, direction)
    stats.iterations += final.stats.iterations
    stats.distance_evaluations += final.stats.distance_evaluations
    stats.radius_schedule.append(final_radius)

    cover_ids = final.cover_ids
    if stats.fallback:
        # Identical to a plain greedy run; keep its direct assignment.
        assignment = final.assignment
    else:
        ordered = sorted(cover_ids)
        block = qm.oriented(direction)[np.ix_(ordered, tgt)]
        stats.distance_evaluations += len(ordered) * len(tgt)
        choice = np.argmin(block, axis=0)
        dists = block[choice, np.arange(len(tgt))]
        if (dists > alpha * (1.0 + _CHAIN_RTOL)).any():
            worst = float(dists.max())
            raise CoverageError(
                f"iterated schedule left a point at distance {worst} > {alpha}")
        assignment = {tgt[i]: ordered[int(choice[i])] for i in range(len(tgt))}

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
    tgt = _clean_ids(qm, target, "target")
    if not cover.cover_ids:
        raise ValueError("cover has no centers")
    best = _distance_to_cover(qm, cover.cover_ids, tgt, direction)
    offenders = []
    for i, t in enumerate(tgt):
        if t in cover.uncovered:
            continue
        if best[i] > alpha * (1.0 + tolerance):
            offenders.append((t, float(best[i])))
    return (not offenders, offenders)


# ---------------------------------------------------------------------------
# Exact minimum cover (branch and bound over bitmasks).  Exponential in the
# worst case; intended for small instances and for auditing the greedy rule.
# ---------------------------------------------------------------------------

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
                    alpha: float, direction: Direction,
                    size_cap: int = 16) -> tuple[int, list[int]]:
    """Exact optimum cover size (and one witness) by branch and bound.

    Guarded by ``size_cap`` on the target size since the search is
    exponential in the worst case.
    """
    direction = Direction(direction)
    _check_alpha(alpha)
    tgt = _clean_ids(qm, target, "target")
    cand = _clean_ids(qm, candidates, "candidates")
    if len(tgt) > size_cap:
        raise ValueError(f"exact cover limited to targets of size <= {size_cap}")
    covers = _coverage_matrix(qm, cand, tgt, alpha, direction)
    universe = (1 << len(tgt)) - 1
    sets = [sum(1 << t for t in np.flatnonzero(row).tolist()) for row in covers]
    size, picked = min_cover_size_masks(universe, sets)
    return size, sorted(cand[i] for i in picked)
