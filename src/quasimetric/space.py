"""Finite quasi-metric spaces: construction, validation, and basic queries.

A quasi-metric is a distance function that is non-negative, zero on the
diagonal, and satisfies the directed triangle inequality, but is *not*
required to be symmetric.  Spaces here are finite and stored as dense
``float64`` matrices; ``dist[i, j]`` is the cost of going from point ``i``
to point ``j``.

Two modes are supported.  ``strict`` requires every entry to be finite.
``relaxed`` admits ``+inf`` entries for ordered pairs with no path at all;
the triangle inequality is then only enforced where the left-hand side is
finite.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _text

DEFAULT_TOLERANCE = 1e-9


class Mode(str, Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


class Direction(str, Enum):
    """Orientation of a ball or cover.

    OUTER looks at distances *from* a center (who the center can reach);
    INNER looks at distances *to* a center (who can reach the center).
    :meth:`QuasiMetric.oriented` gives both as one matrix of center rows.
    """

    OUTER = "outer"
    INNER = "inner"

    def flipped(self) -> "Direction":
        return Direction.INNER if self is Direction.OUTER else Direction.OUTER


class DomainFailure(Exception):
    """Base of the errors of a check or construction that ran and said no
    (the CLI's exit 1), as against bad input."""


class Record:
    """Base of the plain result dataclasses.  ``to_dict`` returns the fields
    in declaration order: records as dicts, enums as their values, dicts as
    shallow copies, and lists or tuples as lists in which each tuple row
    becomes a list and each record a dict.  Rows are not walked further:
    a constant's ``per_ball`` holds thousands of them.
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, (list, tuple)):
        return [list(v) if isinstance(v, tuple) else v.to_dict() if isinstance(v, Record)
                else v for v in value]
    return value


@dataclass
class ValidationReport(Record):
    """Outcome of an axiom check.

    ``triangle_violations`` holds up to ``max_reported`` offending triples
    as ``(i, j, k, lhs, rhs)`` meaning ``dist[i, j] > dist[i, k] + dist[k, j]``
    beyond tolerance; ``triangle_count`` is the true total.
    """

    passed: bool
    tolerance: float
    triangle_violations: list[tuple[int, int, int, float, float]] = field(default_factory=list)
    triangle_count: int = 0
    negative_entries: list[tuple[int, int, float]] = field(default_factory=list)
    nonzero_diagonal: list[tuple[int, float]] = field(default_factory=list)
    symmetry_violations: list[tuple[int, int, float, float]] = field(default_factory=list)
    truncated: bool = False


@dataclass
class QuasiMetric:
    """A finite quasi-metric space backed by a dense distance matrix."""

    dist: np.ndarray
    mode: Mode = Mode.STRICT

    def __post_init__(self) -> None:
        self.dist = np.asarray(self.dist, dtype=np.float64)
        self.dist.setflags(write=False)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def has_infinite(self) -> bool:
        return bool(np.isinf(self.dist).any())

    def oriented(self, direction: Direction) -> np.ndarray:
        """The matrix whose entry ``[c, x]`` is the distance read for center
        ``c`` and point ``x``: ``dist`` for OUTER, the zero-copy view
        ``dist.T`` for INNER.  An INNER ball, cover or scan is the OUTER one
        of the reversed space, so every kernel indexes this one matrix.
        """
        return self.dist if Direction(direction) is Direction.OUTER else self.dist.T


def _require_strict(qm: QuasiMetric, what: str) -> None:
    if qm.mode is not Mode.STRICT or qm.has_infinite:
        raise ValueError(f"{what} requires a strict-mode space with finite distances")


@dataclass
class QueryVectors:
    """Distances between an out-of-sample query point and the space.

    ``from_query[i]`` is the distance from the query to point ``i`` and
    ``to_query[i]`` the distance from point ``i`` to the query.  Either side
    may be omitted when the caller only needs one orientation.
    """

    from_query: Optional[Sequence[float]] = None
    to_query: Optional[Sequence[float]] = None


@dataclass(frozen=True)
class NearestResult:
    index: int
    distance: float
    evaluations: int


def build_from_matrix(entries, mode: Mode = Mode.STRICT,
                      strict_identity: bool = False) -> QuasiMetric:
    """Build a space from a copy of a square array of distances.

    Raises ValueError on non-square input, NaN or negative entries, or an
    infinite entry in strict mode.  ``strict_identity=True`` additionally
    rejects zero distances between distinct points.
    """
    return _adopt(np.array(entries, dtype=np.float64), Mode(mode), strict_identity)


def _adopt(dist: np.ndarray, mode: Mode, strict_identity: bool = False) -> QuasiMetric:
    """:func:`build_from_matrix` on a float64 array nobody else holds, which
    becomes the space's matrix without a copy."""
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {dist.shape}")
    if dist.shape[0] == 0:
        raise ValueError("empty space (n must be at least 1)")
    if np.isnan(dist).any():
        raise ValueError("distance matrix contains NaN")
    if (dist < 0).any():
        i, j = np.argwhere(dist < 0)[0]
        raise ValueError(f"negative distance {dist[i, j]} at ({i}, {j})")
    if mode is Mode.STRICT and np.isinf(dist).any():
        i, j = np.argwhere(np.isinf(dist))[0]
        raise ValueError(f"infinite distance at ({i}, {j}) not allowed in strict mode")
    if strict_identity:
        off = dist + np.diag(np.full(dist.shape[0], np.inf))
        if (off == 0).any():
            i, j = np.argwhere(off == 0)[0]
            raise ValueError(f"zero distance between distinct points ({i}, {j})")
    return QuasiMetric(dist=dist, mode=mode)


def build_from_digraph(n: int, edges: Iterable[tuple[int, int, float]],
                       mode: Mode = Mode.STRICT) -> QuasiMetric:
    """Shortest-path closure of a weighted digraph on vertices 0..n-1.

    Parallel edges keep the minimum weight.  In strict mode every ordered
    pair must be reachable; in relaxed mode unreachable pairs become +inf.
    """
    mode = Mode(mode)
    if n < 1:
        raise ValueError("n must be at least 1")
    best: dict[tuple[int, int], float] = {}
    for u, v, w in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        w = float(w)
        if math.isnan(w) or w < 0:
            raise ValueError(f"edge ({u}, {v}) has bad weight {w}")
        if u == v:
            continue  # self-loops never shorten a path
        key = (u, v)
        if key not in best or w < best[key]:
            best[key] = w
    dist = _closure(n, best)
    if mode is Mode.STRICT and np.isinf(dist).any():
        i, j = np.argwhere(np.isinf(dist))[0]
        raise ValueError(
            f"no path from {i} to {j}: graph is not strongly connected "
            "(use relaxed mode for partial reachability)")
    return QuasiMetric(dist=dist, mode=mode)


def _closure(n: int, weights: dict[tuple[int, int], float]) -> np.ndarray:
    """All-pairs shortest paths of the digraph with edge ``(u, v)`` of
    weight ``weights[(u, v)] >= 0`` (no self-loops); +inf where no path.

    Dijkstra from all ``n`` sources in lock step.  Each step finalises, in
    every row, the unfinished vertex of least tentative label (an argmin of
    ``open``) and relaxes its out-edges wherever ``cand < label``.  A path's
    cost ``fl(fl(a + w1) + w2) ...`` never shrinks as it grows, so label
    setting stays exact (Knuth 1977) and gives the least left-to-right sum
    over all paths, the fixed point of any label-setting or -correcting
    order.  A finished vertex never passes the test, and a row stops once
    nothing in it is reachable.  O(n^3) vectorised: ``n`` row-argmins over
    ``n x n``.  Each step's reads and writes of ``label`` and ``open`` go
    through flat indices into their 1-D views, selected by one mask: numpy's
    2-D fancy indexing costs several times more per entry.
    """
    # Out-neighbour table, one row per vertex, padded to the largest
    # out-degree with slots pointing back at the vertex at weight +inf.
    edges = np.array(list(weights), dtype=np.int64).reshape(-1, 2)
    order = np.argsort(edges[:, 0], kind="stable")
    heads, tails = edges[order].T
    degree = np.bincount(heads, minlength=n)
    slot = np.arange(len(heads)) - (np.cumsum(degree) - degree)[heads]
    nbr = np.repeat(np.arange(n)[:, None], degree.max(initial=0), axis=1)
    nbr[heads, slot] = tails
    cost = np.full(nbr.shape, np.inf)
    cost[heads, slot] = np.fromiter(weights.values(), np.float64, len(weights))[order]

    label = np.full((n, n), np.inf)
    np.fill_diagonal(label, 0.0)
    open_ = label.copy()
    # Flat index of the first entry of each row of open_, and of the same
    # source's row of label.
    open_row = label_row = np.arange(0, n * n, n)
    flat_label, flat_open = label.reshape(-1), open_.reshape(-1)
    with np.errstate(over="ignore"):  # a finite sum past the float range is +inf
        for _ in range(n):
            u = open_.argmin(axis=1)
            val = flat_open[open_row + u]
            live = val < np.inf
            if not live.all():  # drop the rows with nothing left to reach
                if not live.any():
                    break
                label_row, open_, u, val = label_row[live], open_[live], u[live], val[live]
                open_row, flat_open = open_row[:len(label_row)], open_.reshape(-1)
            flat_open[open_row + u] = np.inf
            to = nbr[u]
            cand = val[:, None] + cost[u]
            at = label_row[:, None] + to
            better = cand < flat_label[at]
            cand = cand[better]
            flat_label[at[better]] = cand
            flat_open[(open_row[:, None] + to)[better]] = cand
    return label


_MAX_REPORTED = 1000

# Element budget of one column panel of the min-plus pass: a thread's
# contiguous copy of its current panel (256 KB) stays in a core's L2 cache.
_SCAN_BLOCK_CAP = 1 << 15

# Rows of one step of the min-plus pass: its scratch sums hold this many
# copies of the panel.
_SCAN_GROUP_ROWS = 4


def _checked_tolerance(tolerance: Optional[float]) -> float:
    """``tolerance``, or ``DEFAULT_TOLERANCE`` when None; NaN and negative
    values are rejected."""
    if tolerance is None:
        tolerance = DEFAULT_TOLERANCE
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    return tolerance


def _entry_violations(d: np.ndarray, report: ValidationReport,
                      symmetric: bool = False) -> None:
    """List into ``report`` the nonzero diagonal entries, the negative
    entries and, if ``symmetric``, each pair ``i < j`` whose two directions
    differ beyond ``report.tolerance``.  Each list keeps its first
    ``_MAX_REPORTED``, and a longer one sets ``report.truncated``."""
    def keep(out: list, found: np.ndarray, entry) -> None:
        report.truncated |= len(found) > _MAX_REPORTED
        out.extend(entry(*cell) for cell in found[:_MAX_REPORTED].tolist())

    keep(report.nonzero_diagonal, np.argwhere(np.diagonal(d) != 0),
         lambda i: (i, float(d[i, i])))
    keep(report.negative_entries, np.argwhere(d < 0), lambda i, j: (i, j, float(d[i, j])))
    if symmetric:
        asym = np.triu(~np.isclose(d, d.T, rtol=report.tolerance, atol=0.0), 1)
        keep(report.symmetry_violations, np.argwhere(asym),
             lambda i, j: (i, j, float(d[i, j]), float(d[j, i])))


def _triangle_scan(d: np.ndarray, report: ValidationReport,
                   exempt_infinite_lhs: bool = False) -> None:
    """Count into ``report`` every triple with ``d[i, j] > (d[i, k] + d[k, j])
    * (1 + report.tolerance)``, listing the first ``_MAX_REPORTED`` in
    ``(k, i, j)`` order.

    An infinite or NaN right-hand side is never violated; with
    ``exempt_infinite_lhs`` neither is an infinite left-hand side.

    One min-plus pass finds the pairs ``(i, j)`` violated at the smallest
    right-hand side.  It takes the columns ``j`` a panel at a time, dealt
    over threads by ``_text.in_threads``, and the rows ``i`` a few at a time:
    one sum over all ``k`` of those rows and that panel, then its minimum
    over ``k``.  A symmetric ``d`` (as every symmetrization is) has a
    symmetric set of pairs, since ``fl(a + b) == fl(b + a)``, so each panel
    then scans only the rows up to its last column and the transpose fills
    in the rest.  Since ``x -> x * scale`` stays monotone after rounding for
    ``scale >= 0``, these include every pair violated at some ``k``; the
    per-``k`` loop then lists triples over those pairs only.

    Each thread holds a contiguous copy of its panel, ``cols x n`` floats,
    and sums of ``_SCAN_GROUP_ROWS`` times that: 1.3 MB at n = 500.
    """
    scale = 1.0 + report.tolerance
    n = d.shape[0]
    cols = min(n, max(1, _SCAN_BLOCK_CAP // n))
    half = np.array_equal(d, d.T)
    suspect = np.zeros((n, n), dtype=bool)

    def scan(starts: list[int]) -> None:
        sums_buf = np.empty((_SCAN_GROUP_ROWS, cols, n))
        # -inf + inf is NaN: never a violation.  numpy's error state is
        # context-local, so each thread sets its own.
        with np.errstate(invalid="ignore"):
            for c0 in starts:
                panel = np.ascontiguousarray(d.T[c0:c0 + cols])  # [j, k] = d[k, c0 + j]
                c1 = c0 + len(panel)
                stop = c1 if half else n
                for r0 in range(0, stop, _SCAN_GROUP_ROWS):
                    r1 = min(r0 + _SCAN_GROUP_ROWS, stop)
                    sums = sums_buf[:r1 - r0, :c1 - c0]
                    np.add(d[r0:r1, None, :], panel, out=sums)
                    best = np.fmin.reduce(sums, axis=2)  # fmin skips a NaN sum
                    np.greater(d[r0:r1, c0:c1], best * scale, out=suspect[r0:r1, c0:c1])

    def cost(c0: int) -> int:  # the sums one panel takes, over n
        c1 = min(c0 + cols, n)
        return (c1 if half else n) * (c1 - c0)

    # Largest panel first: in_threads's snake deal then evens out the shares.
    _text.in_threads(scan, sorted(range(0, n, cols), key=cost, reverse=True))
    if half:
        suspect |= suspect.T
    with np.errstate(invalid="ignore"):
        if exempt_infinite_lhs:
            suspect &= np.isfinite(d)
        ii, jj = np.nonzero(suspect)
        if not ii.size:
            return
        lhs = d[ii, jj]
        for k in range(n):
            rhs = d[ii, k] + d[k, jj]
            hits = np.flatnonzero((lhs > rhs * scale) & np.isfinite(rhs))
            if not hits.size:
                continue
            report.triangle_count += int(hits.size)
            room = _MAX_REPORTED - len(report.triangle_violations)
            for t in hits[:room]:
                report.triangle_violations.append(
                    (int(ii[t]), int(jj[t]), k, float(lhs[t]), float(rhs[t])))
            if hits.size > room:
                report.truncated = True


def validate(qm: QuasiMetric, tolerance: Optional[float] = None) -> ValidationReport:
    """Check the quasi-metric axioms and return a report.

    A triple (i, j, k) is a violation when
    ``dist[i, j] > dist[i, k] + dist[k, j]`` by more than a relative
    ``tolerance``.  In relaxed mode, rows where the left-hand side is
    infinite are exempt.
    """
    d = qm.dist
    report = ValidationReport(passed=True, tolerance=_checked_tolerance(tolerance))
    _entry_violations(d, report)
    _triangle_scan(d, report, exempt_infinite_lhs=qm.mode is Mode.RELAXED)

    report.passed = (not report.triangle_violations
                     and not report.negative_entries
                     and not report.nonzero_diagonal
                     and not report.symmetry_violations)
    return report


def ball(qm: QuasiMetric, center: int, radius: float, direction: Direction) -> set[int]:
    """Closed directional ball of the given radius around ``center``.

    OUTER collects y with dist(center, y) <= radius, INNER collects y with
    dist(y, center) <= radius.  Infinite distances are never inside a ball.
    """
    direction = Direction(direction)
    if not (0 <= center < qm.n):
        raise ValueError(f"center {center} out of range")
    if not radius >= 0:  # also rejects NaN
        raise ValueError(f"radius must be non-negative, got {radius}")
    return set(np.nonzero(qm.oriented(direction)[center] <= radius)[0].tolist())


def _clean_ids(n: int, ids: Iterable[int], what: str) -> np.ndarray:
    """``ids`` as a sorted int64 array without repeats.  An empty set, or an
    id outside ``0..n-1`` (the least such is named), is an error."""
    ids = list(ids)
    if not ids:
        raise ValueError(f"expected a non-empty {what} set")
    try:
        out = np.sort(np.fromiter(ids, np.int64, len(ids)))
    except OverflowError:  # an id beyond int64; exact ints sort and compare alike
        out = np.sort(np.array([int(i) for i in ids], dtype=object))
    out = out[np.concatenate(([True], out[1:] != out[:-1]))]
    if out[0] < 0 or out[-1] >= n:
        bad = out[0] if out[0] < 0 else out[np.searchsorted(out, n)]
        raise ValueError(f"{what} id {int(bad)} out of range")
    return out


def _nearest_centers(qm: QuasiMetric, centers, points,
                     direction: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the least oriented read ``qm.oriented(direction)[c, p]``
    over ``centers`` (ids of the space), and the center giving it.  Ties,
    and a point every center reads as inf, go to the first center in
    ``centers``: the lowest id when they are sorted."""
    # One row per point: an argmin down the columns would copy the block.
    block = qm.oriented(direction).T[np.ix_(points, centers)]
    choice = block.argmin(axis=1)
    return block[np.arange(len(block)), choice], np.asarray(centers)[choice]


def set_distance(qm: QuasiMetric, sources: Iterable[int], targets: Iterable[int]) -> float:
    """Minimum of dist(a, b) over a in sources, b in targets (order matters)."""
    src = _clean_ids(qm.n, sources, "source")
    tgt = _clean_ids(qm.n, targets, "target")
    return float(_nearest_centers(qm, src, tgt, Direction.OUTER)[0].min())


def diameter(qm: QuasiMetric) -> float:
    """Largest finite distance in the space (0 for a single point)."""
    d = qm.dist
    finite = d[np.isfinite(d)]
    return float(finite.max()) if finite.size else 0.0


def nearest(qm: QuasiMetric, candidates: Iterable[int],
            query, direction: Direction) -> NearestResult:
    """Nearest point of ``candidates`` to a query, one distance read per candidate.

    ``query`` is either a point id of the space or a :class:`QueryVectors`.
    INNER minimizes distance from the query to a candidate, OUTER the
    reverse.  Ties break to the lowest candidate id.
    """
    cand = _clean_ids(qm.n, candidates, "candidate")
    reads = _candidate_reads(qm, qm.n, cand, query, Direction(direction))
    best = int(np.argmin(reads))  # first minimum: lowest id, cand[0] if all inf
    return NearestResult(index=int(cand[best]), distance=float(reads[best]),
                         evaluations=len(cand))


def _candidate_reads(qm: Optional[QuasiMetric], n: int, cand: np.ndarray,
                     query, direction: Direction) -> np.ndarray:
    """One oriented distance read for each of the candidates ``cand``, which
    :func:`_clean_ids` has already sorted and checked against ``n``.

    For a point id ``q`` of ``qm`` the read for candidate ``c`` is
    ``qm.oriented(direction)[c, q]``.  A :class:`QueryVectors` supplies
    them itself, from its ``from_query`` side for INNER and its ``to_query``
    side for OUTER, of length ``n`` or of length ``len(cand)`` aligned
    with ``cand``; NaN and negative entries are rejected.
    """
    if isinstance(query, QueryVectors):
        side = "from_query" if direction is Direction.INNER else "to_query"
        vec = getattr(query, side)
        if vec is None:
            raise ValueError(f"query is missing the {side} side needed for {direction.value}")
        arr = np.asarray(vec, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("query vector must be one-dimensional")
        if arr.shape[0] not in (n, len(cand)):
            raise ValueError(
                f"query vector has length {arr.shape[0]}, expected {n} (space size) "
                f"or {len(cand)} (candidate count)")
        if np.isnan(arr).any() or (arr < 0).any():
            raise ValueError(f"query {side} side has a NaN or negative entry")
        return arr[cand] if arr.shape[0] == n else arr
    if qm is None:
        raise ValueError("a point-id query requires the training space")
    if qm.n != n:
        raise ValueError(f"space has {qm.n} points, expected {n}")
    q = int(query)
    if not (0 <= q < qm.n):
        raise ValueError(f"query id {q} out of range")
    return qm.oriented(direction)[cand, q]


def transpose(qm: QuasiMetric) -> QuasiMetric:
    """Space with every distance reversed; swaps OUTER and INNER behavior."""
    return QuasiMetric(dist=qm.dist.T.copy(), mode=qm.mode)


def subspace(qm: QuasiMetric, ids: Iterable[int]) -> QuasiMetric:
    """Induced subspace on the given ids, rows/columns in sorted id order."""
    keep = _clean_ids(qm.n, ids, "subspace")
    return QuasiMetric(dist=qm.dist[np.ix_(keep, keep)].copy(), mode=qm.mode)


# ---------------------------------------------------------------------------
# File formats.  Matrix files: first line n, then n whitespace-separated rows;
# the token `inf` (any case) marks an unreachable pair.  Edge lists: first
# line `n m`, then m lines `u v w`.  Lines starting with `#` are comments.
# Parsers take the text as a `str` or an open text file and read it one line
# at a time, so a file is never held whole; `_text` holds the line rule and
# the row conversion, and parses a large matrix file with numpy first.
# ---------------------------------------------------------------------------

def _first_line(source, what: str) -> tuple[str, Iterator[str]]:
    """The first data line of ``source`` and an iterator over the rest."""
    lines = _text.data_lines(source)
    first = next(lines, None)
    if first is None:
        raise ValueError(f"empty {what} file")
    return first, lines


def _parse_records(lines: Iterator[str], expected: int, parse: Callable[[str], object],
                   count_error: Callable[[int], str]) -> list:
    """``parse`` of each remaining line, of which there must be ``expected``.

    A wrong line count is raised (as ``count_error(found)``) ahead of the
    first line ``parse`` rejects.  Nothing is sized by ``expected``, so a
    header claiming a huge count costs nothing, and lines past it are
    counted but not parsed.
    """
    records, error, found = [], None, 0
    for line in lines:
        found += 1
        if error is None and found <= expected:
            try:
                records.append(parse(line))
            except ValueError as exc:
                error = exc
    if found != expected:
        raise ValueError(count_error(found))
    if error is not None:
        raise error
    return records


def parse_matrix_text(source) -> np.ndarray:
    """An ``n × n`` float64 matrix, its rows in one buffer, from a matrix
    file's text as a `str` or an open text file."""
    parsed = _text.parse_numbers(source)
    if parsed is not None:
        n, values = parsed
    else:
        first, lines = _first_line(source, "matrix")
        try:
            n = int(first)
        except ValueError as exc:
            raise ValueError(f"first line must be the point count, got {first!r}") from exc
        if n < 1:
            raise ValueError("point count must be at least 1")
        values = array("d")
        _parse_records(lines, n, lambda line: _text.append_row(values, line, n, False),
                       lambda found: f"expected {n} matrix rows, found {found}")
    return np.frombuffer(values, np.float64).reshape(n, n)


def parse_edge_list_text(source) -> tuple[int, list[tuple[int, int, float]]]:
    first, lines = _first_line(source, "edge-list")
    head = first.split()
    if len(head) != 2:
        raise ValueError(f"first line must be 'n m', got {first!r}")
    n, m = int(head[0]), int(head[1])
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")

    def edge(line: str) -> tuple[int, int, float]:
        tokens = line.split()
        if len(tokens) != 3:
            raise ValueError(f"edge line needs 'u v w', got {line!r}")
        return int(tokens[0]), int(tokens[1]), float(tokens[2])

    return n, _parse_records(lines, m, edge, lambda found: f"expected {m} edges, found {found}")


def load_matrix(path, mode: Mode = Mode.STRICT) -> QuasiMetric:
    with open(path, "r", encoding="utf-8") as fh:
        matrix = parse_matrix_text(fh)
    return _adopt(matrix, Mode(mode))


def load_edge_list(path, mode: Mode = Mode.STRICT) -> QuasiMetric:
    with open(path, "r", encoding="utf-8") as fh:
        n, edges = parse_edge_list_text(fh)
    return build_from_digraph(n, edges, mode=mode)


def format_value(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return format(float(v), ".17g")


def _comment_lines(header: Iterable[str]) -> str:
    """``header`` as comment lines; ValueError naming a line that holds a
    line boundary, since the rest of it would be read as a data line."""
    lines = [f"{line}" for line in header]
    for line in lines:
        if f"{line}\n".splitlines() != [line]:
            raise ValueError(f"header line {line!r} holds a line boundary")
    return "".join(f"# {line}\n" for line in lines)


def save_matrix(path, matrix, header: Iterable[str] = ()) -> None:
    """Write a matrix file, each entry as :func:`format_value` writes it;
    numpy formats the rows a chunk at a time, in this process.

    ValueError, before the file is opened, unless ``matrix`` is a non-empty
    square 2-D matrix and every header line is one line.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise ValueError(f"a matrix file holds a non-empty square matrix, got shape {arr.shape}")
    head = (_comment_lines(header) + f"{arr.shape[0]}\n").encode("utf-8")
    from . import _format  # only a command that writes a matrix loads it

    with open(path, "wb") as fh:
        fh.write(head)
        _format.write_rows(fh, arr)


def save_edge_list(path, n: int, edges: Sequence[tuple[int, int, float]],
                   header: Iterable[str] = ()) -> None:
    head = _comment_lines(header)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.write(f"{n} {len(edges)}\n")
        for u, v, w in edges:
            fh.write(f"{u} {v} {format_value(w)}\n")
