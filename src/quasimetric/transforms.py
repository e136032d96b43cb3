"""Symmetrizations of a quasi-metric.

Three standard constructions: the entrywise maximum of the two directions
(always a metric), the entrywise minimum (a semi-metric: symmetric and
positive, but the triangle inequality can fail), and the entrywise sum
(again a metric).  All require a strict-mode input; with infinite entries
max and sum can make distinct points mutually unreachable and min can hide
one-way unreachability.  Each result is a :class:`SymmetricSpace`, a
strict-mode ``QuasiMetric`` that also records its construction's guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .space import (QuasiMetric, ValidationReport, _checked_tolerance,
                    _entry_violations, _require_strict, _triangle_scan)


class SymmetricKind(str, Enum):
    METRIC = "metric"
    SEMIMETRIC = "semimetric"


@dataclass(kw_only=True)
class SymmetricSpace(QuasiMetric):
    """A symmetric quasi-metric plus what its construction claims it is.

    ``kind`` records the construction's guarantee: METRIC promises the
    triangle inequality, SEMIMETRIC only symmetry and positivity.
    """

    kind: SymmetricKind
    origin: str


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
    report = ValidationReport(passed=True, tolerance=_checked_tolerance(tolerance))
    _entry_violations(space.dist, report, symmetric=True)
    _triangle_scan(space.dist, report)

    hard_failures = (report.negative_entries or report.nonzero_diagonal
                     or report.symmetry_violations)
    triangle_matters = space.kind is SymmetricKind.METRIC
    report.passed = not hard_failures and (not triangle_matters or report.triangle_count == 0)
    return report
