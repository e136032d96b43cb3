"""The three seeded workloads: instance set-up, CLI command lines, output checks.

Every check is derived by the benchmark from the instance it generated, with
its own numpy code and its own file parsing; nothing is taken from an
earlier run of the package.  A check returns a list of problems (empty when
the output is right) and may add facts such as ``k`` to ``self.facts``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from quasimetric import classifier, fixtures, space

TOLERANCE = 1e-9  # the package default; the benchmark clears QUASIMETRIC_TOLERANCE


@dataclass
class Command:
    metric: str  # end-to-end metric name of this command's wall time
    argv: list[str]
    expected_exit: int
    check: Callable[[str], list[str]]  # stdout -> problems found


def arc_labels(ring: int, ids: np.ndarray) -> np.ndarray:
    """+1/-1 for four contiguous arcs of a ring of ``ring`` points."""
    return np.where((4 * ids // ring) % 2 == 0, 1, -1)


def real_ring(n: int, rng: np.random.Generator) -> np.ndarray:
    """Forward distances on a directed ring with real weights, labelled in four arcs.

    Interior weights are uniform on [8, 12); each edge that leaves an arc
    weighs exactly 12, so both margins are 12 and every margin is realised
    by exactly those edges.  Real weights make distance ties a measure-zero
    event, so no candidate rule is discarded for a closed-ball tie (the
    integer-weight case of ROADMAP item 5, which ``Classify.probe`` reports).
    """
    weights = rng.uniform(8.0, 12.0, n)
    ends = np.arange(n)
    weights[arc_labels(n, ends) != arc_labels(n, (ends + 1) % n)] = 12.0
    pre = np.concatenate([[0.0], np.cumsum(weights)])
    d = np.mod(pre[None, :n] - pre[:n, None], pre[-1])
    np.fill_diagonal(d, 0.0)
    return d


def write_labels(path: Path, labels: np.ndarray) -> None:
    classifier.save_labels(path, {i: int(lab) for i, lab in enumerate(labels)})


def read_matrix(path: Path) -> np.ndarray:
    """Parse a matrix file (first line n, then n rows) without the package."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    n = int(lines[0])
    return np.array(" ".join(lines[1:]).split(), dtype=np.float64).reshape(n, n)


def apply_rule(rule: dict, to_cover: np.ndarray) -> np.ndarray:
    """Labels from a saved rule; ``to_cover[x, j]`` is x's distance read for cover[j]."""
    score = to_cover.min(axis=1)
    cover_label = int(rule["cover_label"])
    return np.where(score <= float(rule["threshold"]), cover_label, -cover_label)


def rule_on_space(rule: dict, dist: np.ndarray) -> np.ndarray:
    """Apply a rule to every point of a training matrix, read in its direction."""
    cover = np.asarray(rule["cover_ids"], dtype=np.int64)
    if rule["direction"] == "outer":  # reads dist(center, x)
        return apply_rule(rule, dist[cover, :].T)
    return apply_rule(rule, dist[:, cover])


def parse_predictions(stdout: str, count: int) -> tuple[np.ndarray, list[str]]:
    rows = [ln.split() for ln in stdout.splitlines() if ln.strip()]
    if [int(r[0]) for r in rows] != list(range(count)):
        return np.zeros(0, dtype=np.int64), [f"predict printed {len(rows)} rows, "
                                              f"expected ids 0..{count - 1}"]
    return np.array([int(r[1]) for r in rows]), []


def check_rule(rule: dict, dist: np.ndarray, labels: np.ndarray) -> list[str]:
    problems = []
    own = labels[np.asarray(rule["cover_ids"], dtype=np.int64)]
    if not (own == int(rule["cover_label"])).all():
        problems.append("cover holds points outside its class")
    if rule["k"] != len(rule["cover_ids"]):
        problems.append(f"k = {rule['k']} but {len(rule['cover_ids'])} cover ids")
    wrong = int((rule_on_space(rule, dist) != labels).sum())
    if wrong:
        problems.append(f"rule mislabels {wrong} training points")
    if rule["training_error"] != 0:
        problems.append(f"training_error {rule['training_error']} in consistent mode")
    return problems


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.facts: dict[str, float] = {}

    def setup(self) -> None:
        """Generate the seeded instance and write its input files (timed)."""
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def probe(self) -> None:
        """Untimed in-process checks that report known defects as facts."""


class Classify(Workload):
    """Greedy training at n = 1000, then labelling all ids and 200 held-out queries."""

    name = "classify"
    RING, HELD_OUT = 1200, 200

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        ring = real_ring(self.RING, rng)
        ids = np.arange(self.RING)
        # Queries are never the first or last point of an arc, so the
        # training subspace keeps the 12-weight edges as its margins.
        inner = ids[(arc_labels(self.RING, ids - 1) == arc_labels(self.RING, ids))
                    & (arc_labels(self.RING, ids + 1) == arc_labels(self.RING, ids))]
        held = np.sort(rng.choice(inner, self.HELD_OUT, replace=False))
        train = np.setdiff1d(ids, held)
        self.dist = ring[np.ix_(train, train)]
        self.labels = arc_labels(self.RING, train)
        self.q_from = ring[np.ix_(held, train)]  # dist(query, point)
        self.q_to = ring[np.ix_(train, held)].T  # dist(point, query)
        self.q_labels = arc_labels(self.RING, held)
        space.save_matrix(self.dir / "space.txt", self.dist)
        write_labels(self.dir / "labels.txt", self.labels)
        lines = [str(self.HELD_OUT)]
        for frm, to in zip(self.q_from, self.q_to):
            lines.append(" ".join(f"{v:.17g}" for v in frm))
            lines.append(" ".join(f"{v:.17g}" for v in to))
        (self.dir / "queries.txt").write_text("\n".join(lines) + "\n")

    def probe(self) -> None:
        """Train in-process on the integer-weight twin of this seed (not timed).

        ``gen_random_bounded(1200, seed)`` restricted to the same kind of
        n = 1000 subspace is the instance this workload would use without
        real weights; on some seeds its margin ties discard every candidate
        (ROADMAP item 5).  The outcome is reported as the fact
        ``integer_twin_tie`` (1 when the error fires) and never hidden.
        """
        ring = fixtures.gen_random_bounded(self.RING, self.seed).space.dist
        held = np.sort(np.random.default_rng(self.seed).choice(
            self.RING, self.HELD_OUT, replace=False))
        train = np.setdiff1d(np.arange(self.RING), held)
        qm = space.build_from_matrix(ring[np.ix_(train, train)])
        labels = arc_labels(self.RING, train)
        sample = classifier.make_sample(qm, {i: int(v) for i, v in enumerate(labels)})
        try:
            classifier.build_classifier(sample)
            self.facts["integer_twin_tie"] = 0.0
        except classifier.DegenerateCandidatesError:
            self.facts["integer_twin_tie"] = 1.0

    def commands(self) -> list[Command]:
        return [
            Command("train_s", ["train", "--input", "space.txt", "--labels", "labels.txt",
                                "--output", "clf.json"], 0, self.check_train),
            Command("predict_ids_s", ["predict", "--classifier", "clf.json",
                                      "--input", "space.txt"], 0, self.check_ids),
            Command("predict_queries_s", ["predict", "--classifier", "clf.json",
                                          "--queries", "queries.txt"], 0, self.check_queries),
        ]

    def saved_rule(self) -> dict:
        return json.loads((self.dir / "clf.json").read_text())["classifier"]

    def check_train(self, stdout: str) -> list[str]:
        doc = json.loads(stdout)
        rule = doc["classifier"]
        problems = [] if rule == self.saved_rule() else ["clf.json differs from stdout"]
        self.facts["k"] = rule["k"]
        return problems + check_rule(rule, self.dist, self.labels)

    def check_ids(self, stdout: str) -> list[str]:
        got, problems = parse_predictions(stdout, len(self.labels))
        if problems:
            return problems
        rule = self.saved_rule()
        wrong = int((got != rule_on_space(rule, self.dist)).sum())
        wrong_train = int((got != self.labels).sum())
        return ([f"{wrong} id labels differ from the saved rule"] if wrong else []) + \
               ([f"{wrong_train} training labels not reproduced"] if wrong_train else [])

    def check_queries(self, stdout: str) -> list[str]:
        got, problems = parse_predictions(stdout, self.HELD_OUT)
        if problems:
            return problems
        rule = self.saved_rule()
        cover = np.asarray(rule["cover_ids"], dtype=np.int64)
        reads = self.q_to if rule["direction"] == "outer" else self.q_from
        wrong = int((got != apply_rule(rule, reads[:, cover])).sum())
        self.facts["holdout_error"] = float((got != self.q_labels).mean())
        return [f"{wrong} query labels differ from the saved rule"] if wrong else []


class Constants(Workload):
    """Greedy OUTER and INNER covering constants at n = 80, iterated training at n = 112."""

    name = "constants"
    SWEEP_N, TRAIN_N = 80, 112

    def setup(self) -> None:
        self.sweep = fixtures.gen_random_bounded(self.SWEEP_N, self.seed).space.dist
        # Real weights: the iterated rule meets no margin tie (see real_ring).
        self.train = real_ring(self.TRAIN_N, np.random.default_rng(self.seed))
        self.labels = arc_labels(self.TRAIN_N, np.arange(self.TRAIN_N))
        space.save_matrix(self.dir / "sweep.txt", self.sweep)
        space.save_matrix(self.dir / "train.txt", self.train)
        write_labels(self.dir / "labels.txt", self.labels)

    def commands(self) -> list[Command]:
        dim = ["dimension", "--input", "sweep.txt", "--constant", "directional",
               "--method", "greedy", "--per-ball", "--direction"]
        return [
            Command("dimension_outer_s", dim + ["outer"], 0,
                    lambda out: self.check_sweep(out, "outer")),
            Command("dimension_inner_s", dim + ["inner"], 0,
                    lambda out: self.check_sweep(out, "inner")),
            Command("train_iterated_s", ["train", "--input", "train.txt", "--labels",
                                         "labels.txt", "--algo", "iterated"],
                    0, self.check_train),
        ]

    def balls(self, direction: str) -> np.ndarray:
        """(center, radius) for every distinct finite positive radius, swept in order."""
        d = self.sweep if direction == "outer" else self.sweep.T
        rows = []
        for center, row in enumerate(d):
            radii = np.unique(row[np.isfinite(row) & (row > 0)])
            rows.append(np.column_stack([np.full(len(radii), center), radii]))
        return np.concatenate(rows)

    def check_sweep(self, stdout: str, direction: str) -> list[str]:
        est = json.loads(stdout)["estimate"]
        per_ball = np.array(est["per_ball"], dtype=np.float64).reshape(-1, 3)
        expected = self.balls(direction)
        self.facts[f"balls_{direction}"] = len(per_ball)
        if per_ball.shape[0] != expected.shape[0]:
            return [f"{per_ball.shape[0]} per-ball rows, expected {expected.shape[0]}"]
        problems = []
        if not np.array_equal(per_ball[:, :2], expected):
            problems.append("per-ball centers/radii differ from the swept balls")
        needed = per_ball[:, 2]
        top = max(1, int(needed.max()))
        if est["value"] != top:
            problems.append(f"value {est['value']} is not the per-ball maximum {top}")
        if top > 1:
            first = int(np.argmax(needed == top))
            if [est["witness_center"], est["witness_radius"]] != per_ball[first, :2].tolist():
                problems.append("witness is not the first maximum")
        return problems

    def check_train(self, stdout: str) -> list[str]:
        rule = json.loads(stdout)["classifier"]
        self.facts["k"] = rule["k"]
        return check_rule(rule, self.train, self.labels)


class Audit(Workload):
    """Axiom checks on a real-valued n = 500 digraph closure, clean and planted."""

    name = "audit"
    N, CHORDS_PER_POINT = 500, 4

    def setup(self) -> None:
        n = self.N
        rng = np.random.default_rng(self.seed)
        ring_w = rng.uniform(1.0, 2.0, n)
        flat = rng.choice(n * n, self.CHORDS_PER_POINT * n, replace=False)
        u, v = flat // n, flat % n
        chord = (u != v) & (v != (u + 1) % n)  # no loops, no parallel ring edges
        u, v = u[chord], v[chord]
        # Chords weigh [n, 2n) against a ring of length about 1.5 n: they
        # shorten a quarter of the one-way distances, yet never the shorter
        # way round, so the min symmetrization is the ring's circle metric
        # and its axiom check takes the scan path with 0 violations.
        chord_w = rng.uniform(n, 2.0 * n, len(u))
        src = np.concatenate([np.arange(n), u])
        dst = np.concatenate([(np.arange(n) + 1) % n, v])
        w = np.concatenate([ring_w, chord_w])
        self.dist = dijkstra(csr_matrix((w, (src, dst)), shape=(n, n)), directed=True)
        a, b = rng.choice(n, 2, replace=False)
        self.planted = self.dist.copy()
        self.planted[a, b] = 2.0 * (self.dist[a, :] + self.dist[:, b]).max()
        self.a, self.b = int(a), int(b)
        edges = [(int(s), int(t), float(x)) for s, t, x in zip(src, dst, w)]
        space.save_edge_list(self.dir / "edges.txt", n, edges)
        space.save_matrix(self.dir / "closure.txt", self.dist)
        space.save_matrix(self.dir / "planted.txt", self.planted)

    def commands(self) -> list[Command]:
        return [
            Command("validate_closure_s", ["validate", "--input", "edges.txt"], 0,
                    self.check_clean),
            Command("validate_planted_s", ["validate", "--input", "planted.txt"], 1,
                    self.check_planted),
            Command("transform_min_s", ["transform", "--input", "closure.txt", "--op", "min",
                                        "--output", "min.txt"], 0, self.check_min),
        ]

    def check_clean(self, stdout: str) -> list[str]:
        report = json.loads(stdout)["report"]
        if report["passed"] and report["triangle_count"] == 0:
            return []
        return [f"closure reported {report['triangle_count']} violations"]

    def check_planted(self, stdout: str) -> list[str]:
        report = json.loads(stdout)["report"]
        d, a, b = self.planted, self.a, self.b
        via = np.nonzero(d[a, b] > (d[a, :] + d[:, b]) * (1.0 + TOLERANCE))[0]
        self.facts["planted_violations"] = len(via)
        problems = []
        if report["passed"] or report["triangle_count"] != len(via):
            problems.append(f"planted count {report['triangle_count']}, expected {len(via)}")
        listed = sorted((i, j, k) for i, j, k, _, _ in report["triangle_violations"])
        if listed != [(a, b, int(k)) for k in via][:len(listed)]:
            problems.append("reported triples are not the planted pair's")
        return problems

    def check_min(self, stdout: str) -> list[str]:
        doc = json.loads(stdout)
        written = read_matrix(self.dir / "min.txt")
        if doc["kind"] != "semimetric" or not np.array_equal(
                written, np.minimum(self.dist, self.dist.T)):
            return ["written min matrix differs from min(D, D.T)"]
        return []


WORKLOADS = {w.name: w for w in (Classify, Constants, Audit)}
