"""Outside-in span recorder for the traced benchmark run.

The package has no tracing of its own, so the benchmark wraps every public
function of the traced modules at every module attribute that binds it:
``classifier.nearest`` and ``space.nearest`` are the same function bound in
two places, and ``classifier`` calls the former.  Nested calls therefore
produce nested spans, and self time is a span's duration minus the time its
direct children cover.  Spans stay in memory until the benchmark writes them.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from contextlib import contextmanager
from typing import Callable, Optional

TRACED_MODULES = ("space", "cover", "dimension", "classifier", "transforms",
                  "fixtures", "cli")

# cli.main is the root span, opened by the benchmark itself; the cmd_*
# handlers only dispatch, and wrapping them would make each one the single
# top-level span of its command.  format_value runs once per matrix entry
# (a million calls per n = 1000 write), so a span there would swamp the run.
NOT_WRAPPED = {"cli.main", "cli.build_parser", "space.format_value",
               "space.default_tolerance"}


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "counts")

    def __init__(self, sid: int, name: str, parent: Optional[int], run: str):
        self.id = sid
        self.name = name
        self.parent = parent
        self.run = run
        self.start = time.perf_counter()
        self.end = math.nan
        self.counts: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self, origin: float) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "run": self.run, "start": self.start - origin,
                "end": self.end - origin, "counts": self.counts}


class Recorder:
    """Spans of one benchmark run, kept in memory; ``run`` tags each root."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self.run = "none"
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def root(self, run: str, name: str):
        """A top-level span for one set-up or one command, tagged ``run``."""
        self.run = run
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def to_list(self) -> list[dict]:
        return [s.to_dict(self.origin) for s in self.spans]


# ---------------------------------------------------------------------------
# Counters read from arguments and results, at the same boundary as the span.
# ---------------------------------------------------------------------------

def log_star(x: float) -> int:
    """Base-2 iterated logarithm, computed here so the budget is not the package's."""
    count = 0
    while x > 1.0:
        x = math.log2(x)
        count += 1
    return count


def _cover_counts(args: dict, result) -> dict:
    points = len(set(args["target"]) | set(args["candidates"]))
    return {"evaluations": result.stats.distance_evaluations,
            "rounds": result.stats.iterations,
            "schedule": len(result.stats.radius_schedule),
            "points": points}


COUNTERS: dict[str, Callable[[dict, object], dict]] = {
    "space.parse_matrix_text": lambda a, r: {"tokens": int(r.size)},
    "space.parse_edge_list_text": lambda a, r: {"tokens": 3 * len(r[1])},
    "space.validate": lambda a, r: {"violations": r.triangle_count},
    "space.nearest": lambda a, r: {"evaluations": r.evaluations},
    "cover.greedy_cover": _cover_counts,
    "cover.greedy_cover_eps": _cover_counts,
    "cover.arbitrary_cover": _cover_counts,
    "cover.iterated_cover": _cover_counts,
    "dimension.directional_constant": lambda a, r: {"balls": len(r.per_ball)},
    "dimension.doubling_constant": lambda a, r: {"balls": len(r.per_ball)},
    "dimension.density_constant": lambda a, r: {"balls": len(r.per_ball)},
    "classifier.predict": lambda a, r: {"evaluations": r.evaluations,
                                        "k": len(a["clf"].cover_ids)},
    "transforms.check_symmetric_axioms": lambda a, r: {"violations": r.triangle_count},
}


def _wrap(recorder: Recorder, qualname: str, fn: Callable) -> Callable:
    counter = COUNTERS.get(qualname)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(qualname)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if counter is not None:
            bound = signature.bind(*args, **kwargs).arguments
            span.counts = counter(bound, result)
        return result

    return traced


@contextmanager
def patched(package, recorder: Recorder):
    """Wrap every public function of TRACED_MODULES wherever it is bound.

    Binding sites are found by identity across all package modules and the
    package namespace itself, and every site of one function shares one
    wrapper.  The original bindings are restored on exit.
    """
    modules = {name: getattr(package, name) for name in TRACED_MODULES}
    wrappers: dict[int, Callable] = {}
    for mod_name, mod in modules.items():
        for attr, obj in vars(mod).items():
            qualname = f"{mod_name}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or qualname in NOT_WRAPPED
                    or (mod_name == "cli" and attr.startswith("cmd_"))):
                continue
            wrappers[id(obj)] = _wrap(recorder, qualname, obj)
    sites = []
    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                sites.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
    try:
        yield len(sites)
    finally:
        for mod, attr, obj in sites:
            setattr(mod, attr, obj)


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics.
# ---------------------------------------------------------------------------

def _ancestors(span: Span, by_id: list[Span]):
    parent = span.parent
    while parent is not None:
        yield by_id[parent]
        parent = by_id[parent].parent


def _outermost_cover(span: Span, spans: list[Span]) -> bool:
    """A cover call that returned and is not nested in another cover call."""
    return (span.name.startswith("cover.") and "evaluations" in span.counts
            and not any(a.name.startswith("cover.") for a in _ancestors(span, spans)))


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(recorder: Recorder, mains: list[Span]) -> dict[str, float]:
    """Per-layer seconds and counts over every recorded span.

    ``mains`` are the root spans of the traced ``cli.main`` calls; set-up
    roots are included in the layer sums (fixtures and saves run there).
    """
    spans = recorder.spans
    own = self_seconds(spans)
    main_ids = {m.id for m in mains}

    def named(*names):
        return [s for s in spans if s.name in names]

    def secs(group):
        return sum(s.seconds for s in group)

    def count(group, key):
        return sum(s.counts.get(key, 0) for s in group)

    def under(span, prefix):
        return any(a.name.startswith(prefix) for a in _ancestors(span, spans))

    greedy = named("cover.greedy_cover", "cover.greedy_cover_eps", "cover.arbitrary_cover")
    iterated = named("cover.iterated_cover")
    outer_covers = [s for s in greedy + iterated if _outermost_cover(s, spans)]
    sweeps = named("dimension.directional_constant", "dimension.doubling_constant",
                   "dimension.density_constant")
    builds = named("classifier.build_classifier")
    predicts = named("classifier.predict")
    replays = [s for s in predicts if under(s, "classifier.build_classifier")]
    served = [s for s in predicts if not under(s, "classifier.build_classifier")]
    validates = named("space.validate")
    checks = named("transforms.check_symmetric_axioms")
    ratios = [s.counts["evaluations"] / budget(s) for s in outer_covers]
    pred_calls = len(predicts)

    return {
        "cli.main_s": secs(mains),
        "cli.unattributed_s": sum(own[i] for i in main_ids),
        "cli.emit_s": secs(named("cli.emit")),
        "cli.parse_queries_s": secs(named("cli.parse_queries_text")),
        "space.parse_s": secs(named("space.parse_matrix_text", "space.parse_edge_list_text")),
        "space.parse.tokens": count(named("space.parse_matrix_text",
                                          "space.parse_edge_list_text"), "tokens"),
        "space.closure_s": secs(named("space.build_from_digraph")),
        "space.validate_s": secs(validates),
        "space.validate.violations": count(validates, "violations"),
        "space.nearest_s": secs(named("space.nearest")),
        "space.nearest.calls": len(named("space.nearest")),
        "space.nearest.evaluations": count(named("space.nearest"), "evaluations"),
        "space.save_s": secs(named("space.save_matrix", "space.save_edge_list")),
        "cover.greedy_s": secs(greedy),
        "cover.greedy.calls": len(greedy),
        "cover.greedy.rounds": count(greedy, "rounds"),
        "cover.s_per_call": secs(greedy) / len(greedy) if greedy else 0.0,
        "cover.evaluations": count(outer_covers, "evaluations"),
        "cover.budget_ratio": max(ratios, default=0.0),
        "cover.iterated_s": secs(iterated),
        "cover.iterated.rounds": count(iterated, "schedule"),
        "dimension.sweep_s": secs(sweeps),
        "dimension.self_s": sum(own[s.id] for s in sweeps),
        "dimension.balls": count(sweeps, "balls"),
        "classifier.build_s": secs(builds),
        "classifier.margins_s": secs(named("classifier.margins")),
        "classifier.lambda_s": secs([s for s in sweeps
                                     if under(s, "classifier.build_classifier")]),
        "classifier.replay_s": secs(replays),
        "classifier.replay.calls": len(replays),
        "classifier.predict_s": secs(served),
        "classifier.predict.calls": len(served),
        "classifier.reads_per_predict": (count(predicts, "evaluations") / pred_calls
                                         if pred_calls else 0.0),
        "transforms.symmetrize_s": secs(named("transforms.to_max_metric",
                                              "transforms.to_min_semimetric",
                                              "transforms.to_sum_metric")),
        "transforms.check_s": secs(checks),
        "transforms.check.violations": count(checks, "violations"),
        "fixtures.gen_s": secs([s for s in spans if s.name.startswith("fixtures.gen_")]),
    }


def budget(span: Span) -> float:
    """The paper's read budget for one outermost cover call over n points."""
    n = span.counts["points"]
    if span.name == "cover.iterated_cover":
        return n * n * (log_star(n) + 1)
    return n * n


def cost_breaches(recorder: Recorder, run: str) -> list[str]:
    """Cover calls of one run over their read budget, and predictions not reading k."""
    problems = []
    for s in recorder.spans:
        if s.run != run or not s.counts:
            continue
        if _outermost_cover(s, recorder.spans) and s.counts["evaluations"] > budget(s):
            problems.append(f"{s.name} read {s.counts['evaluations']} distances, "
                            f"budget {budget(s)}")
        if s.name == "classifier.predict" and s.counts["evaluations"] != s.counts["k"]:
            problems.append(f"predict read {s.counts['evaluations']} distances "
                            f"for k = {s.counts['k']}")
    return problems


def top_level(recorder: Recorder, main: Span) -> list[Span]:
    return [s for s in recorder.spans if s.parent == main.id]
