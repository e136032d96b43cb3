"""Compression-based binary classification on a quasi-metric sample.

The classes are separated by their two directed margins: rho_pm, the
smallest distance from a positive to a negative, and rho_mp, the reverse.
Any point within rho_pm going forward from a positive cannot be negative,
and symmetrically for the other three orientation/class combinations, so a
cover of either class at the right radius yields a consistent rule.  Four
candidate rules are built:

  a. pos-outer: OUTER cover of the positives at radius rho_pm
  b. neg-inner: INNER cover of the negatives at radius rho_pm
  c. pos-inner: INNER cover of the positives at radius rho_mp
  d. neg-outer: OUTER cover of the negatives at radius rho_mp

Each candidate keeps only the cover (a subset of its class) plus one
threshold; prediction reads one distance per cover point.  The smallest
surviving candidate wins.  Sample-compression generalization bounds for
the resulting size are provided for both the zero-error and the
allowed-error regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from . import _text
from . import cover as _cover
from .dimension import directional_constant
from .space import (Direction, Mode, QuasiMetric, _candidate_reads,
                    set_distance, subspace)


class InseparableSampleError(ValueError):
    """A positive and a negative point coincide (zero directed margin)."""


class DegenerateCandidatesError(ValueError):
    """Every candidate rule had a zero separation gap at its threshold."""


@dataclass(frozen=True)
class Margins:
    rho_pm: float  # min distance from a positive to a negative
    rho_mp: float  # min distance from a negative to a positive

    def to_dict(self) -> dict:
        return {"rho_pm": self.rho_pm, "rho_mp": self.rho_mp}


@dataclass
class LabeledSample:
    """A strict-mode space with a disjoint positive/negative split."""

    space: QuasiMetric
    pos: frozenset[int]
    neg: frozenset[int]

    def __post_init__(self) -> None:
        self.pos = frozenset(int(i) for i in self.pos)
        self.neg = frozenset(int(i) for i in self.neg)
        if not self.pos or not self.neg:
            raise ValueError("both classes must be non-empty")
        if self.pos & self.neg:
            raise ValueError(f"ids labeled twice: {sorted(self.pos & self.neg)}")
        for i in self.pos | self.neg:
            if not (0 <= i < self.space.n):
                raise ValueError(f"labeled id {i} out of range")

    @property
    def ids(self) -> list[int]:
        return sorted(self.pos | self.neg)

    @property
    def size(self) -> int:
        return len(self.pos) + len(self.neg)


def make_sample(space: QuasiMetric, labels: Mapping[int, int]) -> LabeledSample:
    """Build a sample from an id -> {+1, -1} mapping."""
    pos = frozenset(i for i, lab in labels.items() if lab > 0)
    neg = frozenset(i for i, lab in labels.items() if lab < 0)
    return LabeledSample(space=space, pos=pos, neg=neg)


def margins(sample: LabeledSample) -> Margins:
    """Both directed class margins; zero in either direction is an error."""
    rho_pm = set_distance(sample.space, sample.pos, sample.neg)
    rho_mp = set_distance(sample.space, sample.neg, sample.pos)
    if rho_pm <= 0 or rho_mp <= 0:
        raise InseparableSampleError(
            f"zero directed margin (rho_pm={rho_pm}, rho_mp={rho_mp}): "
            "a positive and a negative coincide")
    return Margins(rho_pm=rho_pm, rho_mp=rho_mp)


@dataclass
class CandidateSummary:
    kind: str
    size: Optional[int]  # None when the construction was skipped entirely
    gap: Optional[float] = None
    discarded: bool = False

    def to_dict(self) -> dict:
        return {"kind": self.kind, "size": self.size, "gap": self.gap,
                "discarded": self.discarded}


@dataclass
class CompressedClassifier:
    """A cover of one class plus a distance threshold.

    ``direction`` is the orientation in which distances to the cover are
    read at prediction time: OUTER reads dist(center, x), INNER reads
    dist(x, center).  A query within ``threshold`` of the cover gets
    ``cover_label``, otherwise the opposite label.
    """

    kind: str
    direction: Direction
    cover_label: int
    cover_ids: list[int]
    threshold: float
    margins: Margins
    training_error: float
    algorithm: str
    mode: str
    n: int
    eps: Optional[float] = None
    candidates: list[CandidateSummary] = field(default_factory=list)
    space: Optional[QuasiMetric] = None  # excluded from serialization

    @property
    def k(self) -> int:
        return len(self.cover_ids)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "direction": self.direction.value,
            "cover_label": self.cover_label,
            "cover_ids": list(self.cover_ids),
            "threshold": self.threshold,
            "k": self.k,
            "n": self.n,
            "margins": self.margins.to_dict(),
            "training_error": self.training_error,
            "algorithm": self.algorithm,
            "mode": self.mode,
            "eps": self.eps,
            "candidates": [c.to_dict() for c in self.candidates],
        }

    @classmethod
    def from_dict(cls, data: dict, space: Optional[QuasiMetric] = None) -> "CompressedClassifier":
        return cls(
            kind=data["kind"],
            direction=Direction(data["direction"]),
            cover_label=int(data["cover_label"]),
            cover_ids=[int(i) for i in data["cover_ids"]],
            threshold=float(data["threshold"]),
            margins=Margins(**data["margins"]),
            training_error=float(data["training_error"]),
            algorithm=data["algorithm"],
            mode=data["mode"],
            n=int(data["n"]),
            eps=data.get("eps"),
            candidates=[CandidateSummary(**c) for c in data.get("candidates", [])],
            space=space,
        )


_KIND_TABLE = {
    # kind: (class attr, cover direction, which margin), in tie-break order
    "pos-outer": ("pos", Direction.OUTER, "rho_pm"),
    "neg-inner": ("neg", Direction.INNER, "rho_pm"),
    "pos-inner": ("pos", Direction.INNER, "rho_mp"),
    "neg-outer": ("neg", Direction.OUTER, "rho_mp"),
}


def build_classifier(sample: LabeledSample, algorithm: str = "greedy",
                     mode: str = "consistent", eps: Optional[float] = None,
                     lambda_hat: Optional[float] = None) -> CompressedClassifier:
    """Build all four candidate rules and keep the smallest surviving one.

    ``algorithm`` picks the cover construction (greedy, iterated, or
    arbitrary); ``mode`` is ``consistent`` (cover everything) or ``eps``
    (allow an eps fraction of the cover's class to stay uncovered, trading
    training error for size).  ``lambda_hat`` feeds the iterated schedule;
    when omitted it is estimated from each class with the greedy method.

    Candidates whose separation gap closes to zero are discarded; ties on
    size break in the fixed order pos-outer, neg-inner, pos-inner,
    neg-outer.
    """
    qm = sample.space
    if qm.mode is not Mode.STRICT or qm.has_infinite:
        raise ValueError("build_classifier requires a strict-mode space")
    if algorithm not in ("greedy", "iterated", "arbitrary"):
        raise ValueError(f"unknown cover algorithm {algorithm!r}")
    if mode not in ("consistent", "eps"):
        raise ValueError(f"mode must be 'consistent' or 'eps', got {mode!r}")
    if mode == "eps":
        if eps is None or not (0 < eps < 1):
            raise ValueError("eps mode needs 0 < eps < 1")
    elif eps is not None:
        raise ValueError("eps only applies in eps mode")

    m = margins(sample)
    classes = {"pos": sorted(sample.pos), "neg": sorted(sample.neg)}
    lam_cache: dict[tuple[str, Direction], float] = {}

    def lam_for(class_key: str, direction: Direction) -> float:
        if lambda_hat is not None:
            return lambda_hat
        key = (class_key, direction)
        if key not in lam_cache:
            est = directional_constant(subspace(qm, classes[class_key]), direction)
            lam_cache[key] = max(2.0, float(est.value))
        return lam_cache[key]

    summaries: list[CandidateSummary] = []
    survivors: list[tuple[int, int, dict]] = []  # (size, order, payload)
    for order, (kind, (class_key, direction, margin_name)) in enumerate(_KIND_TABLE.items()):
        own = classes[class_key]
        radius = getattr(m, margin_name)
        if algorithm == "greedy" and mode == "consistent":
            cov = _cover.greedy_cover(qm, own, own, radius, direction)
        elif algorithm == "greedy":
            cov = _cover.greedy_cover_eps(qm, own, own, radius, direction, eps)
        elif algorithm == "iterated":
            if mode == "eps":
                raise ValueError("iterated covers do not support eps mode")
            cov = _cover.iterated_cover(qm, own, own, radius, direction,
                                        lam_for(class_key, direction))
        else:
            if mode == "eps":
                raise ValueError("arbitrary covers do not support eps mode")
            cov = _cover.arbitrary_cover(qm, own, own, radius, direction)

        other = classes["neg" if class_key == "pos" else "pos"]
        own_scores = _cover._distance_to_cover(qm, cov.cover_ids, own, direction)
        opp_scores = _cover._distance_to_cover(qm, cov.cover_ids, other, direction)
        covered_mask = np.array([i not in cov.uncovered for i in own])
        same_max = float(own_scores[covered_mask].max())
        opp_min = float(opp_scores.min())
        gap = opp_min - same_max
        if gap <= 0:
            summaries.append(CandidateSummary(kind=kind, size=cov.size,
                                              gap=gap, discarded=True))
            continue
        summaries.append(CandidateSummary(kind=kind, size=cov.size, gap=gap))
        threshold = (same_max + opp_min) / 2.0
        # The scores are the minima ``predict`` reads, so a training point
        # is mislabeled exactly when its score falls on the wrong side.
        errors = int((own_scores > threshold).sum() + (opp_scores <= threshold).sum())
        survivors.append((cov.size, order, {
            "kind": kind,
            "direction": direction,
            "cover_label": +1 if class_key == "pos" else -1,
            "cover_ids": list(cov.cover_ids),
            "threshold": threshold,
            "training_error": errors / sample.size,
        }))

    if not survivors:
        raise DegenerateCandidatesError(
            "no candidate rule separates the classes with a positive gap")
    survivors.sort(key=lambda t: (t[0], t[1]))
    _, _, chosen = survivors[0]
    return CompressedClassifier(**chosen, margins=m, algorithm=algorithm, mode=mode,
                                n=qm.n, eps=eps, candidates=summaries, space=qm)


@dataclass(frozen=True)
class PredictResult:
    label: int
    score: float
    evaluations: int


def predict(clf: CompressedClassifier, query,
            space: Optional[QuasiMetric] = None) -> PredictResult:
    """Label a query with exactly one distance read per cover point.

    ``query`` is a point id (requires the training space, either attached
    to the classifier or passed here) or a :class:`QueryVectors`, which
    only needs the side matching the classifier's direction, of length n
    or of length k aligned with the sorted cover ids.
    """
    qm = space if space is not None else clf.space
    cand, reads = _candidate_reads(qm, clf.n, clf.cover_ids, query, clf.direction)
    score, evaluations = float(reads.min()), len(cand)
    label = clf.cover_label if score <= clf.threshold else -clf.cover_label
    return PredictResult(label=label, score=score, evaluations=evaluations)


# ---------------------------------------------------------------------------
# Sample-compression generalization bounds.
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """A generalization bound value plus its display form.

    ``value`` is the raw formula output (can exceed 1); ``display`` clamps
    at 1 and ``vacuous`` flags when the clamp was needed.
    """

    regime: str  # consistent | agnostic
    n: int
    k: int
    delta: float
    value: float
    display: float
    vacuous: bool
    log_base: str
    eps: Optional[float] = None
    eps_tilde: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "regime": self.regime, "n": self.n, "k": self.k,
            "delta": self.delta, "eps": self.eps, "eps_tilde": self.eps_tilde,
            "value": self.value, "display": self.display,
            "vacuous": self.vacuous, "log_base": self.log_base,
        }


def _log_fn(log_base: str):
    if log_base == "e":
        return math.log
    if log_base == "2":
        return math.log2
    raise ValueError(f"log_base must be 'e' or '2', got {log_base!r}")


def _check_bound_args(n: int, k: int, delta: float) -> None:
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (0 <= k < n):
        raise ValueError("k must satisfy 0 <= k < n")
    if not (0 < delta < 1):
        raise ValueError("delta must lie strictly between 0 and 1")


def bound_consistent(n: int, k: int, delta: float,
                     log_base: str = "e") -> BoundReport:
    """Error bound for a zero-training-error rule compressed to k points.

    ((k + 1) * log n + log(1/delta)) / (n - k), holding with probability
    at least 1 - delta over an i.i.d. sample of size n.
    """
    _check_bound_args(n, k, delta)
    log = _log_fn(log_base)
    value = ((k + 1) * log(n) + log(1.0 / delta)) / (n - k)
    return BoundReport(regime="consistent", n=n, k=k, delta=delta,
                       value=value, display=min(value, 1.0),
                       vacuous=value >= 1.0, log_base=log_base)


def bound_agnostic(n: int, k: int, delta: float, eps: float,
                   log_base: str = "e") -> BoundReport:
    """Error bound when an eps fraction of training errors is allowed.

    With eps_t = eps * n / (n - k) and L = (k + 1) * log n + log(1/delta):

        eps_t + 2 * L / (3 * (n - k)) + sqrt(9 * eps_t * (1 - eps_t) * L / (2 * (n - k)))

    Requires eps_t <= 1; beyond that the variance term is undefined.
    """
    _check_bound_args(n, k, delta)
    if not (0 <= eps <= 1):
        raise ValueError("eps must lie in [0, 1]")
    eps_t = eps * n / (n - k)
    if eps_t > 1.0:
        raise ValueError(
            f"scaled error eps * n / (n - k) = {eps_t} exceeds 1; "
            "the bound is undefined in this regime")
    log = _log_fn(log_base)
    load = (k + 1) * log(n) + log(1.0 / delta)
    value = (eps_t + 2.0 * load / (3.0 * (n - k))
             + math.sqrt(9.0 * eps_t * (1.0 - eps_t) * load / (2.0 * (n - k))))
    return BoundReport(regime="agnostic", n=n, k=k, delta=delta, eps=eps,
                       eps_tilde=eps_t, value=value, display=min(value, 1.0),
                       vacuous=value >= 1.0, log_base=log_base)


# ---------------------------------------------------------------------------
# Labels file format: lines of `id label` with label in {+1, 1, -1};
# `#` starts a comment.
# ---------------------------------------------------------------------------

def parse_labels_text(source) -> dict[int, int]:
    """Labels from a `str` or an open text file of lines `id +1` / `id -1`."""
    labels: dict[int, int] = {}
    for stripped in _text.data_lines(source):
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ValueError(f"label line needs 'id label', got {stripped!r}")
        i = int(tokens[0])
        lab = int(tokens[1])
        if lab not in (1, -1):
            raise ValueError(f"label for id {i} must be +1 or -1, got {lab}")
        if i in labels:
            raise ValueError(f"id {i} labeled twice")
        labels[i] = lab
    if not labels:
        raise ValueError("empty labels file")
    return labels


def load_labels(path) -> dict[int, int]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_labels_text(fh)


def save_labels(path, labels: Mapping[int, int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in sorted(labels):
            fh.write(f"{i} {'+1' if labels[i] > 0 else '-1'}\n")
