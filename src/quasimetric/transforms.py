"""Symmetrizations of a quasi-metric.

Three standard constructions: the entrywise maximum of the two directions
(always a metric), the entrywise minimum (a semi-metric: symmetric and
positive, but the triangle inequality can fail), and the entrywise sum
(again a metric).  All require a strict-mode input; with infinite entries
max and sum can make distinct points mutually unreachable and min can hide
one-way unreachability.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .space import Mode, QuasiMetric, ValidationReport, _checked_tolerance, _triangle_scan


class SymmetricKind(str, Enum):
    METRIC = "metric"
    SEMIMETRIC = "semimetric"


@dataclass
class SymmetricSpace:
    """A symmetric distance matrix plus what it claims to be.

    ``kind`` records the construction's guarantee: METRIC promises the
    triangle inequality, SEMIMETRIC only symmetry and positivity.
    """

    dist: np.ndarray
    kind: SymmetricKind
    origin: str

    def __post_init__(self) -> None:
        self.dist = np.asarray(self.dist, dtype=np.float64)
        self.dist.setflags(write=False)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def as_quasimetric(self) -> QuasiMetric:
        """View as a (symmetric) quasi-metric space for ball/cover queries."""
        return QuasiMetric(dist=self.dist.copy(), mode=Mode.STRICT)


def _require_strict(qm: QuasiMetric, what: str) -> None:
    if qm.mode is not Mode.STRICT or qm.has_infinite:
        raise ValueError(f"{what} requires a strict-mode space with finite distances")


def to_max_metric(qm: QuasiMetric) -> SymmetricSpace:
    """max(d(x,y), d(y,x)): symmetric and always a metric."""
    _require_strict(qm, "to_max_metric")
    return SymmetricSpace(dist=np.maximum(qm.dist, qm.dist.T),
                          kind=SymmetricKind.METRIC, origin="max")


def to_min_semimetric(qm: QuasiMetric) -> SymmetricSpace:
    """min(d(x,y), d(y,x)): symmetric, but triangles may break."""
    _require_strict(qm, "to_min_semimetric")
    return SymmetricSpace(dist=np.minimum(qm.dist, qm.dist.T),
                          kind=SymmetricKind.SEMIMETRIC, origin="min")


def to_sum_metric(qm: QuasiMetric) -> SymmetricSpace:
    """d(x,y) + d(y,x): symmetric and always a metric (round-trip cost)."""
    _require_strict(qm, "to_sum_metric")
    return SymmetricSpace(dist=qm.dist + qm.dist.T,
                          kind=SymmetricKind.METRIC, origin="sum")


def check_symmetric_axioms(space: SymmetricSpace,
                           tolerance: float | None = None) -> ValidationReport:
    """Validate a symmetric space against what its kind promises.

    Symmetry, non-negativity, and a zero diagonal are always required.
    Triangle violations fail a METRIC space; for a SEMIMETRIC they are
    recorded in the report but do not affect ``passed``.
    """
    tolerance = _checked_tolerance(tolerance)  # before isclose can warn on it
    d = space.dist
    report = ValidationReport(passed=True, tolerance=tolerance)

    diag = np.diagonal(d)
    for i in np.nonzero(diag != 0)[0]:
        report.nonzero_diagonal.append((int(i), float(diag[i])))
    for i, j in np.argwhere(d < 0):
        report.negative_entries.append((int(i), int(j), float(d[i, j])))
    asym = np.argwhere(~np.isclose(d, d.T, rtol=tolerance, atol=0.0))
    for i, j in asym:
        if i < j:
            report.symmetry_violations.append(
                (int(i), int(j), float(d[i, j]), float(d[j, i])))

    _triangle_scan(d, report)

    hard_failures = (report.negative_entries or report.nonzero_diagonal
                     or report.symmetry_violations)
    triangle_matters = space.kind is SymmetricKind.METRIC
    report.passed = not hard_failures and (not triangle_matters or report.triangle_count == 0)
    return report
