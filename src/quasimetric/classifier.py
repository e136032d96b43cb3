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
from typing import Mapping, Optional, Sequence

import numpy as np

from . import _text
from .space import (Direction, DomainFailure, QuasiMetric, Record, _candidate_reads,
                    _clean_ids, _nearest_centers, _require_strict, set_distance)


class InseparableSampleError(DomainFailure, ValueError):
    """A positive and a negative point coincide (zero directed margin)."""


class DegenerateCandidatesError(DomainFailure, ValueError):
    """Every candidate rule had a zero separation gap at its threshold."""


@dataclass(frozen=True)
class Margins(Record):
    rho_pm: float  # min distance from a positive to a negative
    rho_mp: float  # min distance from a negative to a positive


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
        _clean_ids(self.space.n, self.pos | self.neg, "labeled")

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
class CandidateSummary(Record):
    kind: str
    size: Optional[int]  # None when the construction was skipped entirely
    gap: Optional[float] = None
    discarded: bool = False


@dataclass
class CompressedClassifier:
    """A cover of one class plus a distance threshold.

    ``direction`` is the orientation in which distances to the cover are
    read at prediction time: OUTER reads dist(center, x), INNER reads
    dist(x, center).  A query within ``threshold`` of the cover gets
    ``cover_label``, otherwise the opposite label.  The cover ids are
    checked against ``n`` once, on construction.
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
    # The cover ids sorted and checked, as ``predict`` reads them; not serialized.
    _centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._centers = _clean_ids(self.n, self.cover_ids, "cover")

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
        """The classifier ``to_dict`` wrote.  A field missing or of another
        JSON type, a cover label other than +1 or -1, a NaN threshold, and a
        ``k``, ``kind`` or ``mode`` that contradicts the fields it restates
        raise ``ValueError`` naming the field; an infinite threshold, "inf",
        is kept."""
        f = _fields(data, "classifier", _FIELDS)
        if not all(type(i) is int for i in f["cover_ids"]):
            raise ValueError("classifier.cover_ids holds a non-integer")
        if f["cover_label"] not in (1, -1):
            raise ValueError(f"classifier.cover_label is neither +1 nor -1: {f['cover_label']!r}")
        threshold = math.inf if f["threshold"] == "inf" else f["threshold"]
        if isinstance(threshold, str) or math.isnan(threshold):
            raise ValueError(f'classifier.threshold is neither a number nor "inf": {threshold!r}')
        k = f.pop("k")
        clf = cls(**{**f, "direction": Direction(f["direction"]), "threshold": float(threshold),
                     "margins": Margins(**_fields(f["margins"], "classifier.margins", _MARGINS)),
                     "training_error": float(f["training_error"]),
                     "candidates": [CandidateSummary(**_fields(c, f"classifier.candidates[{i}]",
                                                               _CANDIDATE))
                                    for i, c in enumerate(f["candidates"])]},
                  space=space)
        own = "pos" if clf.cover_label > 0 else "neg"
        kind = next(kind for kind, (class_key, direction, _) in _KIND_TABLE.items()
                    if (class_key, direction) == (own, clf.direction))
        for name, value, basis, made in (
                ("k", k, "cover_ids", clf.k),
                ("kind", clf.kind, "cover_label and direction", kind),
                ("mode", clf.mode, "eps", "consistent" if clf.eps is None else "eps")):
            if value != made:
                raise ValueError(f"classifier.{name} is {value!r} but from {basis} it is {made!r}")
        return clf


# The JSON types of the fields of a classifier document and of its parts.
_NUMBER, _NONE = (int, float), type(None)
_FIELDS = {"kind": (str,), "direction": (str,), "cover_label": (int,), "cover_ids": (list,),
           "threshold": (*_NUMBER, str), "k": (int,), "margins": (dict,),
           "training_error": _NUMBER, "algorithm": (str,), "mode": (str,), "n": (int,),
           "eps": (*_NUMBER, _NONE), "candidates": (list,)}
_MARGINS = {"rho_pm": _NUMBER, "rho_mp": _NUMBER}
_CANDIDATE = {"kind": (str,), "size": (int, _NONE), "gap": (*_NUMBER, _NONE), "discarded": (bool,)}


def _fields(doc, name: str, types: dict) -> dict:
    """The fields ``types`` names of ``doc``, part ``name`` of a classifier
    document, if each has one of its types (a bool is no number)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} is not a JSON object but a {type(doc).__name__}")
    for key, kinds in types.items():
        value = doc.get(key)
        if isinstance(value, bool) and bool not in kinds or not isinstance(value, kinds):
            raise ValueError(f"{name}.{key} is missing or ill-typed: {value!r}")
    return {key: doc.get(key) for key in types}


_KIND_TABLE = {
    # kind: (class attr, cover direction, which margin), in tie-break order
    "pos-outer": ("pos", Direction.OUTER, "rho_pm"),
    "neg-inner": ("neg", Direction.INNER, "rho_pm"),
    "pos-inner": ("pos", Direction.INNER, "rho_mp"),
    "neg-outer": ("neg", Direction.OUTER, "rho_mp"),
}


def build_classifier(sample: LabeledSample, algorithm: str = "greedy",
                     eps: Optional[float] = None,
                     lambda_hat: Optional[float] = None) -> CompressedClassifier:
    """Build all four candidate rules and keep the smallest surviving one.

    ``algorithm`` picks the cover construction (greedy, iterated, or
    arbitrary).  Without ``eps`` every point is covered (the rule's ``mode``
    is ``consistent``); with it, an eps fraction of the cover's class may
    stay uncovered, trading training error for size (mode ``eps``, greedy
    covers only).  ``lambda_hat`` feeds the iterated schedule and is an
    error with any other algorithm; when omitted, ``iterated_cover``
    estimates it from each class only as far as that class's schedule
    needs, sweeping no ball when no lambda_hat could give a coarse round,
    and counts the estimate's reads in the cover's stats.

    Candidates whose separation gap closes to zero are discarded; ties on
    size break in the fixed order pos-outer, neg-inner, pos-inner,
    neg-outer.
    """
    from . import cover as _cover  # predict and bound never load it

    qm = sample.space
    _require_strict(qm, "build_classifier")
    if algorithm not in ("greedy", "iterated", "arbitrary"):
        raise ValueError(f"unknown cover algorithm {algorithm!r}")
    if eps is not None:
        if algorithm != "greedy":
            raise ValueError(f"{algorithm} covers do not support eps mode")
        if not (0 < eps < 1):
            raise ValueError("eps mode needs 0 < eps < 1")
    if lambda_hat is not None and algorithm != "iterated":
        raise ValueError(f"lambda_hat only applies to iterated covers, not {algorithm}")

    m = margins(sample)
    classes = {"pos": sorted(sample.pos), "neg": sorted(sample.neg)}

    summaries: list[CandidateSummary] = []
    survivors: list[tuple[int, int, dict]] = []  # (size, order, payload)
    for order, (kind, (class_key, direction, margin_name)) in enumerate(_KIND_TABLE.items()):
        own = classes[class_key]
        radius = getattr(m, margin_name)
        if algorithm == "greedy":
            cov = _cover.greedy_cover(qm, own, own, radius, direction, eps)
        elif algorithm == "iterated":
            cov = _cover.iterated_cover(qm, own, own, radius, direction, lambda_hat)
        else:
            cov = _cover.arbitrary_cover(qm, own, own, radius, direction)

        other = classes["neg" if class_key == "pos" else "pos"]
        own_scores, _ = _nearest_centers(qm, cov.cover_ids, own, direction)
        opp_scores, _ = _nearest_centers(qm, cov.cover_ids, other, direction)
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
    return CompressedClassifier(**chosen, margins=m, algorithm=algorithm,
                                mode="consistent" if eps is None else "eps",
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
    reads = _candidate_reads(qm, clf.n, clf._centers, query, clf.direction)
    score, evaluations = float(reads.min()), len(reads)
    label = clf.cover_label if score <= clf.threshold else -clf.cover_label
    return PredictResult(label=label, score=score, evaluations=evaluations)


def predict_ids(clf: CompressedClassifier, ids: Sequence[int],
                space: Optional[QuasiMetric] = None) -> tuple[np.ndarray, np.ndarray]:
    """The labels and scores :func:`predict` gives the point ids ``ids``,
    in order: each score the least of its ``k`` reads, taken by one
    ``_nearest_centers`` over the cover for a block of about n / 16 ids at a
    time, so that the block stays below a sixteenth of the matrix.
    """
    qm = space if space is not None else clf.space
    if qm is None:
        raise ValueError("a point-id query requires the training space")
    if qm.n != clf.n:
        raise ValueError(f"space has {qm.n} points, expected {clf.n}")
    outside = next((i for i in ids if not 0 <= i < qm.n), None)
    if outside is not None:
        raise ValueError(f"query id {outside} out of range")
    ids, scores, step = np.asarray(ids, dtype=np.int64), np.empty(len(ids)), max(1, qm.n // 16)
    for i in range(0, len(ids), step):
        scores[i:i + step] = _nearest_centers(qm, clf._centers, ids[i:i + step],
                                              clf.direction)[0]
    labels = np.where(scores <= clf.threshold, clf.cover_label, -clf.cover_label)
    return labels, scores


# ---------------------------------------------------------------------------
# Sample-compression generalization bounds.
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class BoundReport(Record):
    """A generalization bound value plus its display form.

    ``value`` is the raw formula output (can exceed 1); ``display`` clamps
    at 1 and ``vacuous`` flags when the clamp was needed.
    """

    regime: str  # consistent | agnostic
    n: int
    k: int
    delta: float
    eps: Optional[float] = None
    eps_tilde: Optional[float] = None
    value: float
    display: float
    vacuous: bool
    log_base: str


def bound(n: int, k: int, delta: float, eps: Optional[float] = None, *,
          log_base: str = "e") -> BoundReport:
    """Error bound for a rule compressed to k of n sample points, holding
    with probability at least 1 - delta over an i.i.d. sample of size n.

    With L = (k + 1) * log n + log(1/delta), a zero-training-error rule
    (no ``eps``; regime ``consistent``) errs with probability at most
    L / (n - k).  When an eps fraction of training errors is allowed
    (regime ``agnostic``, also for eps = 0), with eps_t = eps * n / (n - k):

        eps_t + 2 * L / (3 * (n - k)) + sqrt(9 * eps_t * (1 - eps_t) * L / (2 * (n - k)))

    which requires eps_t <= 1; beyond that the variance term is undefined.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (0 <= k < n):
        raise ValueError("k must satisfy 0 <= k < n")
    if not (0 < delta < 1):
        raise ValueError("delta must lie strictly between 0 and 1")
    eps_t = None
    if eps is not None:
        if not (0 <= eps <= 1):
            raise ValueError("eps must lie in [0, 1]")
        eps_t = eps * n / (n - k)
        if eps_t > 1.0:
            raise ValueError(
                f"scaled error eps * n / (n - k) = {eps_t} exceeds 1; "
                "the bound is undefined in this regime")
    log = {"e": math.log, "2": math.log2}.get(log_base)
    if log is None:
        raise ValueError(f"log_base must be 'e' or '2', got {log_base!r}")
    load = (k + 1) * log(n) + log(1.0 / delta)
    if eps_t is None:
        value = load / (n - k)
    else:
        value = (eps_t + 2.0 * load / (3.0 * (n - k))
                 + math.sqrt(9.0 * eps_t * (1.0 - eps_t) * load / (2.0 * (n - k))))
    return BoundReport(regime="consistent" if eps is None else "agnostic", n=n, k=k,
                       delta=delta, eps=eps, eps_tilde=eps_t, value=value,
                       display=min(value, 1.0), vacuous=value >= 1.0, log_base=log_base)


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
