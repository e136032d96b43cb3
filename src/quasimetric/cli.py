"""Command-line interface.

Machine-readable JSON (schema 1) goes to stdout; human-readable tables go
to stderr so piping stdout stays clean.  Floats are rounded to 12
significant digits and infinities become the string "inf", keeping output
byte-identical across runs.  Exit codes: 0 success, 1 domain failure (a
check or construction that ran and said no), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from array import array
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import _text
from .space import (Direction, DomainFailure, Mode, QuasiMetric, QueryVectors,
                    _first_line, _parse_records, load_edge_list, load_matrix,
                    save_edge_list, save_matrix, validate)

# The other modules are imported by the commands that run them, so each
# command loads (and, with no bytecode cache, compiles) only its own.
if TYPE_CHECKING:
    from .classifier import CompressedClassifier
    from .transforms import SymmetricSpace

SCHEMA = 1


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _scalar(obj) -> Optional[str]:
    """The JSON text of a scalar, or None for a dict, list or tuple.

    Bools and ints are written as such.  A float is written as the string
    "inf", "-inf" or "nan", exactly if it is integral and below 1e15 in
    size, and otherwise rounded to 12 significant digits.  Anything else
    goes to ``json.dumps``, which writes a string or None and raises
    ``TypeError`` for a type JSON does not know.
    """
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is tuple or kind is list or kind is dict:
        return None
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is float or isinstance(obj, (float, np.floating)):
        f = float(obj)
        if f - f != 0:  # inf or nan
            return '"nan"' if f != f else '"inf"' if f > 0 else '"-inf"'
        return float.__repr__(f if f.is_integer() and abs(f) < 1e15 else _sig12(f))
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (dict, list, tuple)):
        return None
    return json.dumps(obj)


def _json_text(obj, indent: str = "\n") -> str:
    """``obj`` as ``json.dumps(..., indent=2)`` writes it, closing on the line
    ``indent`` starts; dict keys become ``str(key)`` and tuples lists."""
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + (_scalar(v) or _json_text(v, inner))
                 for k, v in {str(k): v for k, v in obj.items()}.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if not obj:
        return "[]"
    items = [_scalar(v) or _json_text(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _document(command: str, payload: dict) -> str:
    """The schema-1 JSON document of one command, as stdout and files hold it."""
    return _json_text({"schema": SCHEMA, "command": command, **payload}) + "\n"


def emit(command: str, payload: dict) -> None:
    sys.stdout.write(_document(command, payload))


def table(headers: list[str], rows: list[list]) -> None:
    """Aligned text table on stderr."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    for ri, row in enumerate(cells):
        line = "  ".join(c.ljust(w) for c, w in zip(row, widths))
        sys.stderr.write(line.rstrip() + "\n")
        if ri == 0:
            sys.stderr.write("  ".join("-" * w for w in widths) + "\n")


def _sniff_format(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        first = next(_text.data_lines(fh), None)
    if first is None:
        raise ValueError(f"{path} has no data lines")
    return "matrix" if len(first.split()) == 1 else "edges"


def _load_space(path: str, mode: str) -> QuasiMetric:
    load = load_matrix if _sniff_format(path) == "matrix" else load_edge_list
    return load(path, mode=Mode(mode))


def _ids_arg(raw: Optional[str], n: int) -> list[int]:
    if raw is None or raw == "all":
        return list(range(n))
    try:
        return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"bad id list {raw!r}") from exc


# Symmetrization ops by CLI name.  The functions are looked up in
# ``transforms`` at call time, so a rebinding there (a tracer) is honoured.
_SYMMETRIZATIONS = {"max": "to_max_metric", "min": "to_min_semimetric",
                   "sum": "to_sum_metric"}


def _symmetrize(qm: QuasiMetric, op: str) -> SymmetricSpace:
    from . import transforms as _transforms

    return getattr(_transforms, _SYMMETRIZATIONS[op])(qm)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    qm = _load_space(args.input, args.mode)
    report = validate(qm, tolerance=args.tolerance)
    emit("validate", {"n": qm.n, "mode": qm.mode.value, "report": report.to_dict()})
    shown = report.triangle_violations[:10]
    if shown:
        table(["i", "j", "via k", "d(i,j)", "d(i,k)+d(k,j)"],
              [[i, j, k, _sig12(l), _sig12(r)] for i, j, k, l, r in shown])
    table(["check", "result"], [
        ["triangle violations", report.triangle_count],
        ["negative entries", len(report.negative_entries)],
        ["nonzero diagonal", len(report.nonzero_diagonal)],
        ["passed", report.passed],
    ])
    return 0 if report.passed else 1


def cmd_dimension(args) -> int:
    from . import dimension as _dimension

    if args.symmetrize != "none" and args.constant == "directional":
        raise ValueError("--symmetrize does not apply to --constant directional")
    if args.direction is not None and args.constant != "directional":
        raise ValueError(f"--direction does not apply to --constant {args.constant}")
    qm = _load_space(args.input, args.mode)
    # A point at nonzero distance from itself can lie in no half-radius ball,
    # so the sweep cannot cover its balls: reject the input up front.
    off = np.flatnonzero(np.diagonal(qm.dist) != 0)
    if off.size:
        i = int(off[0])
        raise ValueError(f"point {i} has nonzero self-distance {qm.dist[i, i]:g}; "
                         "dimension needs a zero diagonal")
    if args.constant == "directional":
        if args.direction is None:
            raise ValueError("--direction is required for the directional constant")
        est = _dimension.directional_constant(qm, Direction(args.direction),
                                              method=args.method)
    else:
        space = qm if args.symmetrize == "none" else _symmetrize(qm, args.symmetrize)
        fn = (_dimension.doubling_constant if args.constant == "doubling"
              else _dimension.density_constant)
        est = fn(space, method=args.method)
    doc = est.to_dict()
    if not args.per_ball:
        doc.pop("per_ball")
    doc["log2_value"] = math.log2(est.value) if est.value > 0 else None
    emit("dimension", {"n": qm.n, "estimate": doc})
    table(["quantity", "method", "value", "witness center", "witness radius"],
          [[est.quantity, est.method, est.value, est.witness_center,
            _sig12(est.witness_radius)]])
    return 0


def cmd_cover(args) -> int:
    from . import cover as _cover

    for dest, algo in [("eps", "greedy"), ("lambda_hat", "iterated"), ("seed", "arbitrary")]:
        if getattr(args, dest) is not None and args.algo != algo:
            raise ValueError(f"--{dest.replace('_', '-')} applies only to --algo {algo}, "
                             f"not {args.algo}")
    qm = _load_space(args.input, args.mode)
    direction = Direction(args.direction)
    target = _ids_arg(args.target, qm.n)
    candidates = _ids_arg(args.candidates, qm.n)
    if args.algo == "greedy":
        result = _cover.greedy_cover(qm, target, candidates, args.alpha, direction,
                                     args.eps)
    elif args.algo == "arbitrary":
        result = _cover.arbitrary_cover(qm, target, candidates, args.alpha,
                                        direction, seed=args.seed)
    else:
        result = _cover.iterated_cover(qm, target, candidates, args.alpha,
                                       direction, args.lambda_hat)
    ok, offenders = _cover.verify_cover(qm, result, target)
    payload = {"n": qm.n, "algo": args.algo, "cover": result.to_dict(),
               "verified": ok, "offenders": [list(o) for o in offenders]}
    if args.compare:
        exact_size, exact_ids = _cover.exact_min_cover(
            qm, target, candidates, args.alpha, direction)
        payload["exact_optimum"] = {"size": exact_size, "cover_ids": exact_ids}
    emit("cover", payload)
    rows = [["algorithm", args.algo], ["direction", direction.value],
            ["alpha", _sig12(args.alpha)], ["size", result.size],
            ["uncovered", len(result.uncovered)],
            ["distance evaluations", result.stats.distance_evaluations],
            ["verified", ok]]
    if args.compare:
        rows.append(["exact optimum", payload["exact_optimum"]["size"]])
    table(["field", "value"], rows)
    return 0 if ok else 1


def cmd_train(args) -> int:
    from . import classifier as _classifier

    qm = _load_space(args.input, "strict")  # build_classifier needs a strict space
    labels = _classifier.load_labels(args.labels)
    sample = _classifier.make_sample(qm, labels)
    clf = _classifier.build_classifier(sample, algorithm=args.algo, eps=args.eps,
                                       lambda_hat=args.lambda_hat)
    doc = {"classifier": clf.to_dict()}
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(_document("train", doc))
        doc["saved_to"] = args.output
    emit("train", doc)
    table(["candidate", "size", "gap", "discarded"],
          [[c.kind, c.size, "-" if c.gap is None else _sig12(c.gap), c.discarded]
           for c in clf.candidates])
    table(["field", "value"], [
        ["chosen", clf.kind], ["k", clf.k],
        ["threshold", _sig12(clf.threshold)],
        ["margins", f"({_sig12(clf.margins.rho_pm)}, {_sig12(clf.margins.rho_mp)})"],
        ["training error", _sig12(clf.training_error)],
    ])
    return 0


def _load_classifier(path: str) -> CompressedClassifier:
    from . import classifier as _classifier

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    data = doc.get("classifier", doc) if isinstance(doc, dict) else doc
    return _classifier.CompressedClassifier.from_dict(data)


def cmd_predict(args) -> int:
    from . import classifier as _classifier

    if args.queries and (args.input or args.ids is not None):
        raise ValueError("--queries cannot be combined with --input or --ids")
    clf = _load_classifier(args.classifier)
    lines = []
    if args.queries:
        with open(args.queries, "r", encoding="utf-8") as fh:
            queries = parse_queries_text(fh, clf.n)
        for qi, qv in enumerate(queries):
            res = _classifier.predict(clf, qv)
            lines.append((qi, res.label))
    else:
        if not args.input:
            raise ValueError("predict needs --queries or --input (with optional --ids)")
        # A classifier is only built on a strict space, so its space loads strict.
        qm = _load_space(args.input, "strict")
        if qm.n != clf.n:
            raise ValueError(f"space has {qm.n} points but classifier expects {clf.n}")
        ids = _ids_arg(args.ids, qm.n)
        if not ids:
            raise ValueError(f"expected a non-empty --ids list, got {args.ids!r}")
        seen = set()
        for i in ids:
            if i in seen:
                raise ValueError(f"--ids repeats id {i}")
            seen.add(i)
        labels, _ = _classifier.predict_ids(clf, ids, space=qm)
        lines = list(zip(ids, labels.tolist()))
    for i, lab in lines:
        sys.stdout.write(f"{i} {'+1' if lab > 0 else '-1'}\n")
    table(["queries", "positive", "negative"],
          [[len(lines), sum(1 for _, l in lines if l > 0),
            sum(1 for _, l in lines if l < 0)]])
    return 0


def parse_queries_text(source, n: int) -> list[QueryVectors]:
    """Query file, as a `str` or an open text file: first line q, then two
    lines per query (from side, to side).

    Each side is n values or the single token `-` when that orientation is
    unavailable; a given side becomes a float64 view of one buffer that
    holds every side.
    """
    parsed = _text.parse_numbers(source, n)
    if parsed is not None:
        q, values, dashes = parsed
    else:
        first, lines = _first_line(source, "queries")
        q = int(first)
        if q < 0:
            raise ValueError(f"query count must be non-negative, got {q}")
        values = array("d")
        given = _parse_records(lines, 2 * q, lambda line: _text.append_row(values, line, n, True),
                               lambda found: (f"expected {2 * q} side lines for {q} queries, "
                                              f"found {found}"))
        dashes = [i for i, side in enumerate(given) if not side]
    rows, absent = iter(np.frombuffer(values, np.float64).reshape(-1, n)), set(dashes)
    sides = [None if i in absent else next(rows) for i in range(2 * q)]
    return [QueryVectors(from_query=frm, to_query=to)
            for frm, to in zip(sides[::2], sides[1::2])]


def cmd_bound(args) -> int:
    from . import classifier as _classifier

    rep = _classifier.bound(args.n, args.k, args.delta, args.eps, log_base=args.log_base)
    emit("bound", {"report": rep.to_dict()})
    table(["field", "value"], [
        ["regime", rep.regime], ["n", rep.n], ["k", rep.k],
        ["delta", _sig12(rep.delta)],
        ["bound", _sig12(rep.value)], ["display", _sig12(rep.display)],
        ["vacuous", rep.vacuous],
    ])
    return 0


def cmd_transform(args) -> int:
    from . import transforms as _transforms

    qm = _load_space(args.input, "strict")  # every symmetrization needs a strict space
    sym = _symmetrize(qm, args.op)
    report = _transforms.check_symmetric_axioms(sym, tolerance=args.tolerance)
    payload = {"n": sym.n, "op": args.op, "kind": sym.kind.value,
               "report": report.to_dict()}
    if args.output:
        save_matrix(args.output, sym.dist,
                    header=[f"symmetrization op={args.op} kind={sym.kind.value}"])
        payload["saved_to"] = args.output
    else:
        payload["matrix"] = [[v for v in row] for row in sym.dist]
    emit("transform", payload)
    table(["field", "value"], [
        ["op", args.op], ["kind", sym.kind.value],
        ["passed", report.passed],
        ["triangle violations", report.triangle_count],
    ])
    return 0 if report.passed else 1


def cmd_gen(args) -> int:
    from . import fixtures as _fixtures

    kind, make = args.kind, _fixtures.GENERATORS[args.kind]
    # Each option names a generator parameter: one the kind's generator lacks
    # is rejected.  n, p and seed have no default there; the rest keep theirs.
    params = inspect.signature(make).parameters
    for dest in ["n", "p", "branching", "seed", "target_constant"]:
        if getattr(args, dest) is not None and dest not in params:
            raise ValueError(f"--{dest.replace('_', '-')} does not apply to --kind {kind}")
    kwargs = {name: value for name, value in [("n", 8), ("p", 3), ("seed", 0)] if name in params}
    kwargs.update((name, getattr(args, name)) for name in params
                  if getattr(args, name) is not None)
    fixture = make(**kwargs)
    payload = {"fixture": fixture.to_dict()}
    if args.out_format == "edges":
        if fixture.edges is None:
            raise ValueError(f"{kind} has no edge-list form; use --out-format matrix")
        if fixture.space.mode is Mode.RELAXED:
            payload["note"] = "edge list of a relaxed space; rebuild with --mode relaxed"
    if args.output:
        header = [f"fixture {kind}", f"mode {fixture.space.mode.value}"]
        if args.out_format == "matrix":
            save_matrix(args.output, fixture.space.dist, header=header)
        else:
            save_edge_list(args.output, fixture.space.n, fixture.edges, header=header)
        payload["saved_to"] = args.output
    elif args.out_format == "matrix":
        payload["matrix"] = [[v for v in row] for row in fixture.space.dist]
    else:
        payload["edges"] = [[u, v, w] for u, v, w in fixture.edges]
    if args.spec_out:
        with open(args.spec_out, "w", encoding="utf-8") as fh:
            fh.write(_document("gen", {"fixture": payload["fixture"]}))
    emit("gen", payload)
    table(["kind", "n", "mode"],
          [[kind, fixture.space.n, fixture.space.mode.value]])
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_space_args(p: argparse.ArgumentParser, relaxed: bool = True) -> None:
    """``--input``, and ``--mode`` for a command that runs on relaxed spaces."""
    p.add_argument("--input", required=True, help="space file (matrix or edge list)")
    if relaxed:
        p.add_argument("--mode", choices=["strict", "relaxed"], default="strict")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasimetric",
        description="Covers, covering constants, and compression classifiers "
                    "for finite quasi-metric spaces")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check the quasi-metric axioms")
    _add_space_args(p)
    p.add_argument("--tolerance", type=float, default=None,
                   help="relative triangle tolerance (default 1e-9)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dimension", help="covering/packing constants")
    _add_space_args(p)
    p.add_argument("--constant", choices=["directional", "doubling", "density"],
                   default="directional")
    p.add_argument("--direction", choices=["outer", "inner"], default=None)
    p.add_argument("--method", choices=["greedy", "exact"], default="greedy")
    p.add_argument("--symmetrize", choices=["none", *_SYMMETRIZATIONS],
                   default="none",
                   help="symmetrize first (doubling/density need symmetry)")
    p.add_argument("--per-ball", action="store_true",
                   help="include the per-ball breakdown in the JSON")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("cover", help="build a directional cover")
    _add_space_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--direction", choices=["outer", "inner"], required=True)
    p.add_argument("--algo", choices=["greedy", "arbitrary", "iterated"],
                   default="greedy")
    p.add_argument("--eps", type=float, default=None,
                   help="allow this fraction uncovered (greedy only)")
    p.add_argument("--lambda-hat", type=float, default=None,
                   help="covering constant driving the iterated schedule (iterated only)")
    p.add_argument("--target", default=None, help="comma-separated ids (default all)")
    p.add_argument("--candidates", default=None,
                   help="comma-separated ids (default all)")
    p.add_argument("--seed", type=int, default=None,
                   help="scan the candidates shuffled by this seed (arbitrary only)")
    p.add_argument("--compare", action="store_true",
                   help="also compute the exact optimum (small targets only)")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("train", help="build a compression classifier")
    _add_space_args(p, relaxed=False)
    p.add_argument("--labels", required=True, help="labels file (lines: id +1/-1)")
    p.add_argument("--algo", choices=["greedy", "iterated", "arbitrary"],
                   default="greedy")
    p.add_argument("--eps", type=float, default=None,
                   help="allow this fraction of the cover's class uncovered (greedy only)")
    p.add_argument("--lambda-hat", type=float, default=None, help="(iterated only)")
    p.add_argument("--output", default=None, help="write classifier JSON here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label points or query vectors")
    p.add_argument("--classifier", required=True)
    p.add_argument("--input", default=None, help="training space file")
    p.add_argument("--ids", default=None, help="comma-separated ids (default all)")
    p.add_argument("--queries", default=None, help="query-vector file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bound", help="generalization bound for a compressed rule")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, default=None,
                   help="training error allowed (agnostic bound; default consistent)")
    p.add_argument("--log-base", choices=["e", "2"], default="e")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("transform", help="symmetrize a space")
    _add_space_args(p, relaxed=False)
    p.add_argument("--op", choices=list(_SYMMETRIZATIONS), required=True)
    p.add_argument("--output", default=None, help="write the matrix here")
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("gen", help="generate a structured fixture")
    # sorted(fixtures.GENERATORS) and fixtures.DEFAULT_TARGET_CONSTANT, written
    # out so that no other command loads fixtures; a test ties them.
    p.add_argument("--kind", choices=["backedge-line", "cycle", "hst-toward-root", "line",
                                      "min-violation", "nn-lower-bound", "random-bounded",
                                      "spoke-subset"], required=True)
    # Each kind reads the options its generator has parameters for.
    p.add_argument("--n", type=int, default=None, help="(default 8)")
    p.add_argument("--p", type=int, default=None, help="(default 3)")
    p.add_argument("--branching", type=int, default=None, help="(default 2)")
    p.add_argument("--seed", type=int, default=None, help="(default 0)")
    p.add_argument("--target-constant", type=int, default=None,
                   help="(default 8)")
    p.add_argument("--out-format", choices=["matrix", "edges"], default="matrix")
    p.add_argument("--output", default=None, help="write the space file here")
    p.add_argument("--spec-out", default=None, help="write the fixture spec JSON here")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
