"""Directional covers of a point set.

An OUTER cover at radius alpha is a set C with dist(C, x) <= alpha for every
target x; an INNER cover has dist(x, C) <= alpha.  The workhorse is the
classic greedy set-cover heuristic run over directional balls, which stays
within a factor ceil(ln |S|) + 1 of the optimum.  On top of it sit an
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


def _greedy_engine(qm: QuasiMetric, candidates: list[int], target: list[int],
                   alpha: float, direction: Direction,
                   max_uncovered: float) -> Cover:
    """Greedy max-coverage loop; stops once uncovered count <= max_uncovered.

    Candidate ties break to the lowest id.  One distance read is charged per
    (candidate, target) pair when the coverage table is built.
    """
    covers = _coverage_matrix(qm, candidates, target, alpha, direction)
    stats = CoverStats(distance_evaluations=len(candidates) * len(target))

    active = np.ones(len(target), dtype=bool)
    if max_uncovered <= 0 and not covers.any(axis=0).all():
        missing = {target[i] for i in np.nonzero(~covers.any(axis=0))[0]}
        raise CoverageError(
            f"{len(missing)} target point(s) lie in no candidate ball at "
            f"radius {alpha}", uncoverable=missing)

    counts = covers.sum(axis=1).astype(np.int64)
    cover_ids: list[int] = []
    assignment: dict[int, int] = {}
    while active.sum() > max_uncovered:
        ci = int(np.argmax(counts))  # first max = lowest candidate id
        if counts[ci] == 0:
            missing = {target[i] for i in np.nonzero(active)[0]}
            raise CoverageError(
                f"cannot reach the requested coverage at radius {alpha}; "
                f"{len(missing)} point(s) uncoverable", uncoverable=missing)
        newly = covers[ci] & active
        for ti in np.nonzero(newly)[0]:
            assignment[target[ti]] = candidates[ci]
        active &= ~newly
        counts -= covers[:, newly].sum(axis=1)
        cover_ids.append(candidates[ci])
        stats.iterations += 1

    uncovered = {target[i] for i in np.nonzero(active)[0]}
    return Cover(direction=direction, radius=alpha, cover_ids=cover_ids,
                 assignment=assignment, uncovered=uncovered, stats=stats)


def greedy_cover(qm: QuasiMetric, target: Iterable[int], candidates: Iterable[int],
                 alpha: float, direction: Direction) -> Cover:
    """Full greedy cover of ``target`` drawing centers from ``candidates``."""
    direction = Direction(direction)
    _check_alpha(alpha)
    tgt = _clean_ids(qm, target, "target")
    cand = _clean_ids(qm, candidates, "candidates")
    return _greedy_engine(qm, cand, tgt, alpha, direction, max_uncovered=0)


def greedy_cover_eps(qm: QuasiMetric, target: Iterable[int], candidates: Iterable[int],
                     alpha: float, direction: Direction, eps: float) -> Cover:
    """Greedy cover allowed to leave at most an eps fraction of the target.

    Stops as soon as the uncovered count drops to eps * |target| or below;
    with an optimal full cover of size p this takes at most
    p * ceil(ln(1/eps)) rounds.
    """
    direction = Direction(direction)
    if not (0 < eps < 1):
        raise ValueError("eps must lie strictly between 0 and 1")
    _check_alpha(alpha)
    tgt = _clean_ids(qm, target, "target")
    cand = _clean_ids(qm, candidates, "candidates")
    return _greedy_engine(qm, cand, tgt, alpha, direction,
                          max_uncovered=eps * len(tgt))


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

    covers = _coverage_matrix(qm, cand, tgt, alpha, direction)
    stats = CoverStats(distance_evaluations=len(cand) * len(tgt))
    active = np.ones(len(tgt), dtype=bool)
    cover_ids: list[int] = []
    assignment: dict[int, int] = {}
    for ci, c in enumerate(cand):
        newly = covers[ci] & active
        stats.iterations += 1
        if not newly.any():
            continue
        for ti in np.nonzero(newly)[0]:
            assignment[tgt[ti]] = c
        active &= ~newly
        cover_ids.append(c)
        if not active.any():
            break
    uncovered = {tgt[i] for i in np.nonzero(active)[0]}
    return Cover(direction=direction, radius=alpha, cover_ids=cover_ids,
                 assignment=assignment, uncovered=uncovered, stats=stats)


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
    tgt = _clean_ids(qm, target, "target")
    cand = _clean_ids(qm, candidates, "candidates")
    if len(tgt) > size_cap:
        raise ValueError(f"exact cover limited to targets of size <= {size_cap}")
    covers = _coverage_matrix(qm, cand, tgt, alpha, direction)
    universe = (1 << len(tgt)) - 1
    sets = []
    for row in covers:
        mask = 0
        for ti in np.nonzero(row)[0]:
            mask |= 1 << int(ti)
        sets.append(mask)
    size, picked = min_cover_size_masks(universe, sets)
    return size, sorted(cand[i] for i in picked)
