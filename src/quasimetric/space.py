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
import os
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _text

DEFAULT_TOLERANCE = 1e-9

# Environment override for the validation tolerance, mainly for the CLI.
TOLERANCE_ENV_VAR = "QUASIMETRIC_TOLERANCE"


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


def default_tolerance() -> float:
    """Validation tolerance, overridable via QUASIMETRIC_TOLERANCE."""
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"bad {TOLERANCE_ENV_VAR} value: {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{TOLERANCE_ENV_VAR} must be non-negative")
    return value


@dataclass
class ValidationReport:
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

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": self.tolerance,
            "triangle_violations": [list(v) for v in self.triangle_violations],
            "triangle_count": self.triangle_count,
            "negative_entries": [list(v) for v in self.negative_entries],
            "nonzero_diagonal": [list(v) for v in self.nonzero_diagonal],
            "symmetry_violations": [list(v) for v in self.symmetry_violations],
            "truncated": self.truncated,
        }


@dataclass
class QuasiMetric:
    """A finite quasi-metric space backed by a dense distance matrix.

    ``validated`` is None until :func:`validate` has run, then records the
    outcome of that check.
    """

    dist: np.ndarray
    mode: Mode = Mode.STRICT
    validated: Optional[bool] = None

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
    # scipy is imported here, its only use, so commands that never load an
    # edge list do not pay for importing it.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

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
    if best:
        rows, cols, data = zip(*((u, v, w) for (u, v), w in best.items()))
        graph = csr_matrix((data, (rows, cols)), shape=(n, n))
    else:
        graph = csr_matrix((n, n))
    dist = dijkstra(graph, directed=True)
    np.fill_diagonal(dist, 0.0)
    if mode is Mode.STRICT and np.isinf(dist).any():
        i, j = np.argwhere(np.isinf(dist))[0]
        raise ValueError(
            f"no path from {i} to {j}: graph is not strongly connected "
            "(use relaxed mode for partial reachability)")
    return QuasiMetric(dist=dist, mode=mode)


_MAX_REPORTED = 1000

# Element budget of one row block of the min-plus pass: the block's running
# minima and its scratch sums (256 KB each) stay in a core's L2 cache.
_SCAN_BLOCK_CAP = 1 << 15


def _checked_tolerance(tolerance: Optional[float]) -> float:
    """``tolerance``, or :func:`default_tolerance` when None; NaN and
    negative values are rejected."""
    if tolerance is None:
        tolerance = default_tolerance()
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    return tolerance


def _triangle_scan(d: np.ndarray, report: ValidationReport,
                   exempt_infinite_lhs: bool = False) -> None:
    """Count into ``report`` every triple with ``d[i, j] > (d[i, k] + d[k, j])
    * (1 + report.tolerance)``, listing the first ``_MAX_REPORTED`` in
    ``(k, i, j)`` order.

    An infinite or NaN right-hand side is never violated; with
    ``exempt_infinite_lhs`` neither is an infinite left-hand side.

    One min-plus pass, a block of rows at a time, finds the pairs ``(i, j)``
    violated at the smallest right-hand side.  Since ``x -> x * scale``
    stays monotone after rounding for ``scale >= 0``, these include every
    pair violated at some ``k``; the per-``k`` loop then lists triples over
    those pairs only.
    """
    scale = 1.0 + report.tolerance
    n = d.shape[0]
    rows = min(n, max(1, _SCAN_BLOCK_CAP // n))
    best_buf, sums_buf = np.empty((rows, n)), np.empty((rows, n))
    suspect = np.empty((n, n), dtype=bool)
    with np.errstate(invalid="ignore"):  # -inf + inf is NaN: never a violation
        for r0 in range(0, n, rows):
            block = d[r0:r0 + rows]
            best, sums = best_buf[:len(block)], sums_buf[:len(block)]
            best.fill(np.inf)
            for k in range(n):
                np.add(block[:, k, None], d[None, k, :], out=sums)
                np.fmin(best, sums, out=best)  # fmin skips a NaN sum
            np.greater(block, best * scale, out=suspect[r0:r0 + rows])
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
    infinite are exempt.  Updates ``qm.validated``.
    """
    d = qm.dist
    report = ValidationReport(passed=True, tolerance=_checked_tolerance(tolerance))

    diag = np.diagonal(d)
    for i in np.nonzero(diag != 0)[0]:
        report.nonzero_diagonal.append((int(i), float(diag[i])))
    neg = np.argwhere(d < 0)
    for i, j in neg[:_MAX_REPORTED]:
        report.negative_entries.append((int(i), int(j), float(d[i, j])))

    _triangle_scan(d, report, exempt_infinite_lhs=qm.mode is Mode.RELAXED)

    report.passed = (not report.triangle_violations
                     and not report.negative_entries
                     and not report.nonzero_diagonal
                     and not report.symmetry_violations)
    qm.validated = report.passed
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


def set_distance(qm: QuasiMetric, sources: Iterable[int], targets: Iterable[int]) -> float:
    """Minimum of dist(a, b) over a in sources, b in targets (order matters)."""
    src = sorted(set(int(i) for i in sources))
    tgt = sorted(set(int(i) for i in targets))
    if not src or not tgt:
        raise ValueError("set_distance requires non-empty id sets")
    for i in src + tgt:
        if not (0 <= i < qm.n):
            raise ValueError(f"id {i} out of range")
    return float(qm.dist[np.ix_(src, tgt)].min())


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
    cand, reads = _candidate_reads(qm, qm.n, candidates, query, Direction(direction))
    best = int(np.argmin(reads))  # first minimum: lowest id, cand[0] if all inf
    return NearestResult(index=int(cand[best]), distance=float(reads[best]),
                         evaluations=len(cand))


def _candidate_reads(qm: Optional[QuasiMetric], n: int, candidates: Iterable[int],
                     query, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct candidates and one oriented distance read for each.

    For a point id ``q`` of ``qm`` the read for candidate ``c`` is
    ``qm.oriented(direction)[c, q]``.  A :class:`QueryVectors` supplies
    them itself, from its ``from_query`` side for INNER and its ``to_query``
    side for OUTER, of length ``n`` or of length ``len(candidates)`` aligned
    with the sorted candidates; NaN and negative entries are rejected.
    An out-of-range candidate is reported by its least id.
    """
    ids = list(candidates)
    if not ids:
        raise ValueError("nearest requires a non-empty candidate set")
    try:
        cand = np.sort(np.fromiter(ids, np.int64, len(ids)))
    except OverflowError:  # an id beyond int64; exact ints sort and compare alike
        cand = np.sort(np.array([int(i) for i in ids], dtype=object))
    cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
    if cand[0] < 0 or cand[-1] >= n:
        bad = cand[0] if cand[0] < 0 else cand[np.searchsorted(cand, n)]
        raise ValueError(f"id {int(bad)} out of range")
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
        return cand, arr[cand] if arr.shape[0] == n else arr
    if qm is None:
        raise ValueError("a point-id query requires the training space")
    if qm.n != n:
        raise ValueError(f"space has {qm.n} points, expected {n}")
    q = int(query)
    if not (0 <= q < qm.n):
        raise ValueError(f"query id {q} out of range")
    return cand, qm.oriented(direction)[cand, q]


def transpose(qm: QuasiMetric) -> QuasiMetric:
    """Space with every distance reversed; swaps OUTER and INNER behavior."""
    return QuasiMetric(dist=qm.dist.T.copy(), mode=qm.mode)


def subspace(qm: QuasiMetric, ids: Iterable[int]) -> QuasiMetric:
    """Induced subspace on the given ids, rows/columns in sorted id order."""
    keep = sorted(set(int(i) for i in ids))
    if not keep:
        raise ValueError("subspace requires at least one id")
    for i in keep:
        if not (0 <= i < qm.n):
            raise ValueError(f"id {i} out of range")
    return QuasiMetric(dist=qm.dist[np.ix_(keep, keep)].copy(), mode=qm.mode)


# ---------------------------------------------------------------------------
# File formats.  Matrix files: first line n, then n whitespace-separated rows;
# the token `inf` (any case) marks an unreachable pair.  Edge lists: first
# line `n m`, then m lines `u v w`.  Lines starting with `#` are comments.
# Parsers take the text as a `str` or an open text file and read it one line
# at a time, so a file is never held whole; `_text` holds the line rule and
# the row conversion, and parses a large file on several cores.
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
    parsed = _text.parse_in_ranges(source)
    if parsed is not None:
        n, values, _ = parsed
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


def save_matrix(path, matrix, header: Iterable[str] = ()) -> None:
    """Write a matrix file, each entry as :func:`format_value` writes it."""
    arr = np.asarray(matrix, dtype=np.float64)
    arr = np.where(np.isneginf(arr), np.inf, arr)  # format_value writes -inf as inf
    row_format = " ".join(["%.17g"] * arr.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(f"{arr.shape[0]}\n")
        for row in arr.tolist():
            fh.write(row_format % tuple(row))


def save_edge_list(path, n: int, edges: Sequence[tuple[int, int, float]],
                   header: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(f"{n} {len(edges)}\n")
        for u, v, w in edges:
            fh.write(f"{u} {v} {format_value(w)}\n")
