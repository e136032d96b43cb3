import importlib
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasimetric
from quasimetric import (bound, density_constant, gen_random_bounded,
                         save_labels, save_matrix, to_max_metric)
from quasimetric.cli import _document, build_parser, main

from conftest import brute_document

BROKEN = [[0, 10, 1], [10, 0, 1], [1, 1, 0]]
FOUR_POINT = [[0.0, 1.2, 1.0, 2.0],
              [1.2, 0.0, 2.0, 2.0],
              [2.0, 2.0, 0.0, 1.2],
              [2.0, 2.0, 1.2, 0.0]]
MIN_VIOLATION = [[0, 3, 10], [3, 0, 10], [1, 1, 0]]


def run(argv, capsys):
    rc = main(argv)
    cap = capsys.readouterr()
    doc = json.loads(cap.out) if cap.out.lstrip().startswith("{") else None
    return rc, doc, cap


@pytest.fixture
def cycle8(tmp_path):
    path = tmp_path / "cycle8.txt"
    idx = np.arange(8)
    save_matrix(path, ((idx[None, :] - idx[:, None]) % 8).astype(float))
    return str(path)


@pytest.fixture
def four_point(tmp_path):
    path = tmp_path / "four.txt"
    save_matrix(path, FOUR_POINT)
    return str(path)


class TestValidate:
    def test_passing_space(self, cycle8, capsys):
        rc, doc, _ = run(["validate", "--input", cycle8], capsys)
        assert rc == 0
        assert doc["schema"] == 1 and doc["command"] == "validate"
        assert doc["report"]["passed"] is True
        assert doc["report"]["triangle_count"] == 0

    def test_triangle_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        save_matrix(path, BROKEN)
        rc, doc, cap = run(["validate", "--input", str(path)], capsys)
        assert rc == 1
        assert doc["report"]["passed"] is False
        assert doc["report"]["triangle_count"] >= 1
        assert "d(i,j)" in cap.err  # violation table went to stderr
        rc, doc, _ = run(["validate", "--input", str(path), "--tolerance", "10"], capsys)
        assert rc == 0 and doc["report"]["tolerance"] == 10.0

    def test_infinite_entry_in_strict_mode_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "inf.txt"
        path.write_text("2\n0 inf\n1 0\n")
        rc, doc, cap = run(["validate", "--input", str(path)], capsys)
        assert rc == 2 and doc is None
        assert "error:" in cap.err
        rc, doc, _ = run(["validate", "--input", str(path), "--mode", "relaxed"],
                         capsys)
        assert rc == 0 and doc["report"]["passed"] is True

    def test_missing_file(self, capsys):
        rc, _, cap = run(["validate", "--input", "/nonexistent/x.txt"], capsys)
        assert rc == 2 and "error:" in cap.err

    def test_nonzero_diagonal_reported_exit_one(self, tmp_path, capsys):
        path = tmp_path / "diag.txt"
        save_matrix(path, [[1, 2], [2, 1]])
        rc, doc, _ = run(["validate", "--input", str(path)], capsys)
        assert rc == 1
        assert doc["report"]["nonzero_diagonal"] == [[0, 1], [1, 1]]

    def test_negative_tolerance_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        save_matrix(path, BROKEN)
        rc, doc, cap = run(["validate", "--input", str(path), "--tolerance", "-2"],
                           capsys)
        assert rc == 2 and doc is None
        assert "tolerance must be non-negative" in cap.err


class TestGenRoundTrips:
    @pytest.mark.parametrize("fmt", ["matrix", "edges"])
    def test_backedge_line(self, fmt, tmp_path, capsys):
        out = tmp_path / f"space.{fmt}"
        rc, doc, _ = run(["gen", "--kind", "backedge-line", "--n", "8",
                          "--out-format", fmt, "--output", str(out)], capsys)
        assert rc == 0 and doc["fixture"]["kind"] == "backedge-line"
        rc, doc, _ = run(["validate", "--input", str(out)], capsys)
        assert rc == 0 and doc["n"] == 8

    def test_relaxed_fixture_needs_relaxed_rebuild(self, tmp_path, capsys):
        out = tmp_path / "tree.txt"
        rc, doc, _ = run(["gen", "--kind", "hst-toward-root", "--p", "3",
                          "--out-format", "edges", "--output", str(out)], capsys)
        assert rc == 0 and "relaxed" in doc["note"]
        rc, _, _ = run(["validate", "--input", str(out)], capsys)
        assert rc == 2  # strict rebuild of a disconnected digraph
        rc, doc, _ = run(["validate", "--input", str(out), "--mode", "relaxed"],
                         capsys)
        assert rc == 0 and doc["n"] == 15

    def test_matrix_only_kind_rejects_edges(self, capsys):
        rc, _, cap = run(["gen", "--kind", "spoke-subset", "--p", "3",
                          "--out-format", "edges"], capsys)
        assert rc == 2 and "edge-list" in cap.err

    def test_spec_out_records_expectations(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        rc, _, _ = run(["gen", "--kind", "random-bounded", "--n", "12",
                        "--seed", "7", "--spec-out", str(spec)], capsys)
        assert rc == 0
        doc = json.loads(spec.read_text())
        assert doc["fixture"]["params"]["checked"] is True
        names = {e["name"] for e in doc["fixture"]["expected"]}
        assert {"outer_constant", "inner_constant"} <= names

    @pytest.mark.parametrize("argv,option", [
        (["--kind", "cycle", "--n", "6", "--seed", "5"], "--seed"),
        (["--kind", "cycle", "--p", "9"], "--p"),
        (["--kind", "line", "--branching", "4"], "--branching"),
        (["--kind", "backedge-line", "--target-constant", "3"], "--target-constant"),
        (["--kind", "min-violation", "--n", "50"], "--n"),
        (["--kind", "nn-lower-bound", "--branching", "3"], "--branching"),
        (["--kind", "spoke-subset", "--n", "4"], "--n"),
        (["--kind", "random-bounded", "--p", "2"], "--p"),
    ], ids=["cycle-seed", "cycle-p", "line-branching", "backedge-target-constant",
            "min-violation-n", "nn-branching", "spoke-n", "random-p"])
    def test_unread_option_is_usage_error(self, argv, option, capsys):
        rc, doc, cap = run(["gen", *argv], capsys)
        assert rc == 2 and doc is None
        assert f"{option} does not apply to --kind {argv[1]}" in cap.err

    def test_parser_matches_the_fixtures(self):
        """The parser writes out the kinds and the default target constant,
        so that no other command loads fixtures: they must equal its own."""
        from quasimetric import fixtures

        commands = next(a for a in build_parser()._actions if a.dest == "subcommand")
        options = {a.dest: a for a in commands.choices["gen"]._actions}
        assert options["kind"].choices == sorted(fixtures.GENERATORS)
        assert options["target_constant"].help == (
            f"(default {fixtures.DEFAULT_TARGET_CONSTANT})")

    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "nope"])
        assert exc.value.code == 2
        assert "argument --kind: invalid choice: 'nope'" in capsys.readouterr().err


class TestDimension:
    def test_exact_inner_constant(self, tmp_path, capsys):
        out = tmp_path / "b8.txt"
        run(["gen", "--kind", "backedge-line", "--n", "8", "--output", str(out)],
            capsys)
        rc, doc, _ = run(["dimension", "--input", str(out), "--constant",
                          "directional", "--direction", "inner",
                          "--method", "exact"], capsys)
        assert rc == 0
        est = doc["estimate"]
        assert est["value"] == 8 and est["log2_value"] == 3.0
        assert est["witness_center"] == 0 and est["witness_radius"] == 1.0
        assert "per_ball" not in est

    def test_directional_requires_direction(self, cycle8, capsys):
        rc, _, cap = run(["dimension", "--input", cycle8], capsys)
        assert rc == 2 and "--direction" in cap.err

    def test_symmetrize_with_directional_is_usage_error(self, cycle8, capsys):
        rc, doc, cap = run(["dimension", "--input", cycle8, "--constant", "directional",
                            "--direction", "outer", "--symmetrize", "max"], capsys)
        assert rc == 2 and doc is None
        assert "--symmetrize does not apply to --constant directional" in cap.err

    @pytest.mark.parametrize("constant", ["doubling", "density"])
    def test_direction_with_other_constant_is_usage_error(self, cycle8, constant, capsys):
        rc, doc, cap = run(["dimension", "--input", cycle8, "--constant", constant,
                            "--direction", "inner", "--symmetrize", "max"], capsys)
        assert rc == 2 and doc is None
        assert f"--direction does not apply to --constant {constant}" in cap.err

    def test_doubling_needs_symmetry(self, tmp_path, cycle8, capsys):
        out = tmp_path / "b6.txt"
        run(["gen", "--kind", "backedge-line", "--n", "6", "--output", str(out)],
            capsys)
        rc, _, cap = run(["dimension", "--input", str(out),
                          "--constant", "doubling"], capsys)
        assert rc == 2 and "symmetr" in cap.err
        rc, doc, _ = run(["dimension", "--input", cycle8, "--constant", "doubling",
                          "--symmetrize", "max", "--method", "exact"], capsys)
        assert rc == 0
        assert doc["estimate"]["value"] == 8
        assert doc["estimate"]["witness_radius"] == 7.0

    def test_per_ball_flag(self, cycle8, capsys):
        rc, doc, _ = run(["dimension", "--input", cycle8, "--constant",
                          "directional", "--direction", "outer", "--per-ball"],
                         capsys)
        assert rc == 0 and isinstance(doc["estimate"]["per_ball"], list)

    def test_density_per_ball_matches_library(self, tmp_path, capsys):
        path = tmp_path / "r20.txt"
        qm = gen_random_bounded(20, 7).space
        save_matrix(path, qm.dist)
        rc, doc, _ = run(["dimension", "--input", str(path), "--constant", "density",
                          "--symmetrize", "max", "--per-ball"], capsys)
        est = density_constant(to_max_metric(qm))
        assert rc == 0 and doc["n"] == 20
        assert doc["estimate"].pop("log2_value") == pytest.approx(math.log2(est.value))
        assert doc["estimate"] == json.loads(json.dumps(est.to_dict()))

    def test_nonzero_diagonal_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "diag.txt"
        save_matrix(path, [[0, 2, 2], [2, 1, 2], [2, 2, 1]])
        for argv in (["--constant", "directional", "--direction", "outer"],
                     ["--constant", "doubling"]):
            rc, doc, cap = run(["dimension", "--input", str(path)] + argv, capsys)
            assert rc == 2 and doc is None
            assert "point 1 has nonzero self-distance 1" in cap.err


class TestCover:
    def test_greedy_with_exact_comparison(self, cycle8, capsys):
        rc, doc, _ = run(["cover", "--input", cycle8, "--alpha", "2",
                          "--direction", "inner", "--compare"], capsys)
        assert rc == 0
        assert doc["verified"] is True and doc["offenders"] == []
        assert doc["cover"]["size"] == 3
        assert doc["exact_optimum"]["size"] == 3

    def test_eps_stops_early(self, cycle8, capsys):
        rc, doc, _ = run(["cover", "--input", cycle8, "--alpha", "2",
                          "--direction", "inner", "--eps", "0.5"], capsys)
        assert rc == 0
        assert doc["cover"]["size"] == 2
        assert len(doc["cover"]["uncovered"]) <= 4

    def test_iterated_on_random_ring(self, tmp_path, capsys):
        out = tmp_path / "ring.txt"
        run(["gen", "--kind", "random-bounded", "--n", "48", "--seed", "7",
             "--output", str(out)], capsys)
        rc, doc, _ = run(["cover", "--input", str(out), "--alpha", "60",
                          "--direction", "inner", "--algo", "iterated",
                          "--lambda-hat", "8"], capsys)
        assert rc == 0 and doc["verified"] is True
        assert doc["cover"]["stats"]["distance_evaluations"] > 0

    def test_uncoverable_target_exits_one(self, tmp_path, capsys):
        out = tmp_path / "line.txt"
        run(["gen", "--kind", "line", "--n", "8", "--output", str(out)], capsys)
        rc, _, cap = run(["cover", "--input", str(out), "--mode", "relaxed",
                          "--alpha", "1", "--direction", "outer",
                          "--target", "7", "--candidates", "0"], capsys)
        assert rc == 1 and "error:" in cap.err

    @pytest.mark.parametrize("algo", ["greedy", "iterated", "arbitrary"])
    def test_target_in_no_candidate_ball_exits_one(self, tmp_path, algo, capsys):
        """Every algorithm refuses a target no candidate ball holds."""
        out = tmp_path / "c6.txt"
        run(["gen", "--kind", "cycle", "--n", "6", "--output", str(out)], capsys)
        rc, doc, cap = run(["cover", "--input", str(out), "--alpha", "1", "--direction",
                            "outer", "--candidates", "0", "--algo", algo], capsys)
        assert rc == 1 and doc is None
        assert cap.err.splitlines() == [
            "error: 4 target point(s) lie in no candidate ball at radius 1.0"]

    @pytest.mark.parametrize("algo", ["arbitrary", "iterated"])
    def test_eps_with_other_algorithm_is_usage_error(self, cycle8, algo, capsys):
        rc, doc, cap = run(["cover", "--input", cycle8, "--alpha", "2",
                            "--direction", "inner", "--algo", algo, "--eps", "0.3",
                            "--lambda-hat", "2"], capsys)
        assert rc == 2 and doc is None
        assert "--eps" in cap.err

    @pytest.mark.parametrize("algo", ["greedy", "arbitrary"])
    def test_lambda_hat_with_other_algorithm_is_usage_error(self, cycle8, algo, capsys):
        rc, doc, cap = run(["cover", "--input", cycle8, "--alpha", "2",
                            "--direction", "inner", "--algo", algo,
                            "--lambda-hat", "2"], capsys)
        assert rc == 2 and doc is None
        assert f"--lambda-hat applies only to --algo iterated, not {algo}" in cap.err

    def test_nan_alpha_is_usage_error(self, cycle8, capsys):
        rc, doc, cap = run(["cover", "--input", cycle8, "--alpha", "nan",
                            "--direction", "outer"], capsys)
        assert rc == 2 and doc is None
        assert "alpha" in cap.err and "nan" in cap.err

    def test_nan_lambda_hat_is_usage_error(self, cycle8, capsys):
        rc, doc, cap = run(["cover", "--input", cycle8, "--alpha", "2",
                            "--direction", "outer", "--algo", "iterated",
                            "--lambda-hat", "nan"], capsys)
        assert rc == 2 and doc is None
        assert "lambda_hat" in cap.err

    def test_nan_eps_is_usage_error(self, cycle8, capsys):
        rc, doc, cap = run(["cover", "--input", cycle8, "--alpha", "2",
                            "--direction", "outer", "--eps", "nan"], capsys)
        assert rc == 2 and doc is None and "eps" in cap.err

    def test_shuffled_arbitrary_is_seeded(self, cycle8, capsys):
        argv = ["cover", "--input", cycle8, "--alpha", "2", "--direction",
                "inner", "--algo", "arbitrary", "--seed", "5"]
        _, doc_a, _ = run(argv, capsys)
        _, doc_b, _ = run(argv, capsys)
        assert doc_a["cover"]["cover_ids"] == doc_b["cover"]["cover_ids"]

    @pytest.mark.parametrize("algo", ["greedy", "iterated"])
    def test_seed_with_other_algorithm_is_usage_error(self, cycle8, algo, capsys):
        rc, doc, cap = run(["cover", "--input", cycle8, "--alpha", "2", "--direction",
                            "inner", "--algo", algo, "--seed", "5"], capsys)
        assert rc == 2 and doc is None
        assert f"--seed applies only to --algo arbitrary, not {algo}" in cap.err


class TestTrainPredict:
    def write_labels(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 +1\n1 +1\n2 -1\n3 -1\n")
        return str(path)

    def test_round_trip_agrees_with_labels(self, four_point, tmp_path, capsys):
        labels = self.write_labels(tmp_path)
        clf_path = tmp_path / "clf.json"
        rc, doc, cap = run(["train", "--input", four_point, "--labels", labels,
                            "--output", str(clf_path)], capsys)
        assert rc == 0
        clf = doc["classifier"]
        assert clf["kind"] == "pos-inner" and clf["k"] == 1
        assert clf["threshold"] == 1.6 and clf["training_error"] == 0.0
        assert "pos-outer" in cap.err  # candidate table shown
        rc, _, cap = run(["predict", "--classifier", str(clf_path),
                          "--input", four_point], capsys)
        assert rc == 0
        assert cap.out.splitlines() == ["0 +1", "1 +1", "2 -1", "3 -1"]

    def test_predict_from_query_vectors(self, four_point, tmp_path, capsys):
        labels = self.write_labels(tmp_path)
        clf_path = tmp_path / "clf.json"
        run(["train", "--input", four_point, "--labels", labels,
             "--output", str(clf_path)], capsys)
        qfile = tmp_path / "queries.txt"
        qfile.write_text("# two holdout queries\n2\n"
                         "0.9 2 3 3\n-\n"
                         "1.9 9 9 9\n-\n")
        rc, _, cap = run(["predict", "--classifier", str(clf_path),
                          "--queries", str(qfile)], capsys)
        assert rc == 0
        assert cap.out.splitlines() == ["0 +1", "1 -1"]

    def test_malformed_query_file(self, four_point, tmp_path, capsys):
        labels = self.write_labels(tmp_path)
        clf_path = tmp_path / "clf.json"
        run(["train", "--input", four_point, "--labels", labels,
             "--output", str(clf_path)], capsys)
        qfile = tmp_path / "queries.txt"
        qfile.write_text("1\n0.9 2 3\n-\n")  # three values for a 4-point space
        rc, _, cap = run(["predict", "--classifier", str(clf_path),
                          "--queries", str(qfile)], capsys)
        assert rc == 2 and "expected 4" in cap.err

    def test_negative_header_counts_exit_two(self, four_point, tmp_path, capsys):
        labels = self.write_labels(tmp_path)
        clf_path = tmp_path / "clf.json"
        run(["train", "--input", four_point, "--labels", labels,
             "--output", str(clf_path)], capsys)
        qfile = tmp_path / "queries.txt"
        qfile.write_text("-1\n")
        rc, _, cap = run(["predict", "--classifier", str(clf_path),
                          "--queries", str(qfile)], capsys)
        assert rc == 2 and cap.out == "" and "query count" in cap.err and "-1" in cap.err
        edges = tmp_path / "edges.txt"
        edges.write_text("3 -1\n")
        rc, _, cap = run(["validate", "--input", str(edges)], capsys)
        assert rc == 2 and cap.out == "" and "edge count" in cap.err and "-1" in cap.err

    def test_predict_size_mismatch(self, four_point, tmp_path, cycle8, capsys):
        labels = self.write_labels(tmp_path)
        clf_path = tmp_path / "clf.json"
        run(["train", "--input", four_point, "--labels", labels,
             "--output", str(clf_path)], capsys)
        rc, _, cap = run(["predict", "--classifier", str(clf_path),
                          "--input", cycle8], capsys)
        assert rc == 2 and "expects 4" in cap.err

    def test_predict_ids_reject_repeats_and_out_of_range(self, tmp_path, cycle8,
                                                         capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{i} {'+1' if i < 4 else '-1'}\n" for i in range(8)))
        clf_path = tmp_path / "clf.json"
        rc, _, _ = run(["train", "--input", cycle8, "--labels", str(labels),
                        "--output", str(clf_path)], capsys)
        assert rc == 0
        predict = ["predict", "--classifier", str(clf_path), "--input", cycle8]
        rc, _, cap = run(predict + ["--ids", "0,1"], capsys)
        assert rc == 0 and cap.out.splitlines() == ["0 +1", "1 +1"]
        rc, _, cap = run(predict + ["--ids", "1,1"], capsys)
        assert rc == 2 and cap.out == ""
        assert "--ids" in cap.err and "id 1" in cap.err
        rc, _, cap = run(predict + ["--ids", "99"], capsys)
        assert rc == 2 and cap.out == "" and "99" in cap.err
        # the first id seen twice is named, also at the end of a long list
        rc, _, cap = run(predict + ["--ids", "3,5,7,5,3"], capsys)
        assert rc == 2 and "--ids repeats id 5" in cap.err
        many = ",".join(map(str, [*range(20000), 6]))
        rc, _, cap = run(predict + ["--ids", many], capsys)
        assert rc == 2 and cap.out == "" and "--ids repeats id 6" in cap.err

    def test_predict_rejects_empty_ids(self, four_point, tmp_path, capsys):
        labels = self.write_labels(tmp_path)
        clf_path = tmp_path / "clf.json"
        run(["train", "--input", four_point, "--labels", labels,
             "--output", str(clf_path)], capsys)
        for ids in ("", ",", " , "):
            rc, _, cap = run(["predict", "--classifier", str(clf_path),
                              "--input", four_point, "--ids", ids], capsys)
            assert rc == 2 and cap.out == ""
            assert "expected a non-empty --ids list" in cap.err

    def test_predict_queries_exclude_input_and_ids(self, four_point, tmp_path, capsys):
        labels = self.write_labels(tmp_path)
        clf_path = tmp_path / "clf.json"
        run(["train", "--input", four_point, "--labels", labels,
             "--output", str(clf_path)], capsys)
        qfile = tmp_path / "queries.txt"
        qfile.write_text("1\n0.9 2 3 3\n-\n")
        predict = ["predict", "--classifier", str(clf_path), "--queries", str(qfile)]
        missing = str(tmp_path / "no-such-space.txt")
        for extra in (["--input", four_point], ["--input", missing], ["--ids", "0"],
                      ["--input", four_point, "--ids", "0,1"]):
            rc, _, cap = run(predict + extra, capsys)
            assert rc == 2 and cap.out == ""
            assert "--queries cannot be combined with --input or --ids" in cap.err
        rc, _, cap = run(predict, capsys)
        assert rc == 0 and cap.out.splitlines() == ["0 +1"]

    def test_bad_query_vectors_are_usage_errors(self, tmp_path, cycle8, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{i} {'+1' if i < 4 else '-1'}\n" for i in range(8)))
        clf_path = tmp_path / "clf.json"
        rc, _, _ = run(["train", "--input", cycle8, "--labels", str(labels),
                        "--output", str(clf_path)], capsys)
        assert rc == 0
        qfile = tmp_path / "queries.txt"
        predict = ["predict", "--classifier", str(clf_path), "--queries", str(qfile)]
        qfile.write_text("1\n" + "0 1 2 3 4 5 6 7\n" * 2)
        rc, _, cap = run(predict, capsys)
        assert rc == 0 and cap.out.splitlines() == ["0 +1"]
        for row in ("nan 1 2 3 4 5 6 7", "-5 -5 -5 -5 -5 -5 -5 -5"):
            qfile.write_text(f"1\n{row}\n{row}\n")
            rc, _, cap = run(predict, capsys)
            assert rc == 2 and cap.out == ""
            assert "NaN or negative" in cap.err

    def test_nan_eps_in_eps_mode_is_usage_error(self, four_point, tmp_path, capsys):
        labels = self.write_labels(tmp_path)
        rc, doc, cap = run(["train", "--input", four_point, "--labels", labels,
                            "--eps", "nan"], capsys)
        assert rc == 2 and doc is None and "eps" in cap.err

    def test_inseparable_sample_exits_one(self, tmp_path, capsys):
        space = tmp_path / "degenerate.txt"
        save_matrix(space, [[0, 0, 5], [5, 0, 5], [5, 5, 0]])
        labels = tmp_path / "labels.txt"
        labels.write_text("0 +1\n1 -1\n2 -1\n")
        rc, _, cap = run(["train", "--input", str(space),
                          "--labels", str(labels)], capsys)
        assert rc == 1 and "error:" in cap.err

    @pytest.mark.parametrize("algo", ["iterated", "arbitrary"])
    @pytest.mark.parametrize("matrix", [FOUR_POINT, [[0, 0, 5], [5, 0, 5], [5, 5, 0]]],
                             ids=["separable", "inseparable"])
    def test_eps_mode_with_other_algorithm_is_usage_error(self, tmp_path, algo, matrix,
                                                          capsys):
        space = tmp_path / "space.txt"
        save_matrix(space, matrix)
        labels = tmp_path / "labels.txt"
        labels.write_text("0 +1\n1 -1\n2 -1\n")
        rc, doc, cap = run(["train", "--input", str(space), "--labels", str(labels),
                            "--algo", algo, "--eps", "0.1"], capsys)
        assert rc == 2 and doc is None
        assert f"{algo} covers do not support eps mode" in cap.err

    @pytest.mark.parametrize("algo", ["greedy", "arbitrary"])
    def test_lambda_hat_with_other_algorithm_is_usage_error(self, four_point, tmp_path,
                                                           algo, capsys):
        labels = self.write_labels(tmp_path)
        rc, doc, cap = run(["train", "--input", four_point, "--labels", labels,
                            "--algo", algo, "--lambda-hat", "2"], capsys)
        assert rc == 2 and doc is None
        assert f"lambda_hat only applies to iterated covers, not {algo}" in cap.err

    @pytest.mark.parametrize("document,field", [
        ([], "classifier is not a JSON object but a list"),
        ({"classifier": {"margins": None}}, "classifier.kind"),
        ({"margins": None}, "classifier.margins"),
        ({"cover_ids": 5}, "classifier.cover_ids"),
        ({"cover_label": 5}, "classifier.cover_label"),
        ({"threshold": "nan"}, "classifier.threshold"),
        ({"kind": "neg-inner"}, "classifier.kind"),
    ], ids=["list", "empty-classifier", "margins-null", "cover-ids-int", "cover-label-5",
            "threshold-nan", "kind-contradicts"])
    def test_malformed_classifier_file_is_usage_error(self, four_point, tmp_path, document,
                                                      field, capsys):
        """main returns 2 with one error line naming the bad field; it raised
        AttributeError or TypeError on four of these, which it does not catch."""
        labels = self.write_labels(tmp_path)
        clf_path = tmp_path / "clf.json"
        run(["train", "--input", four_point, "--labels", labels,
             "--output", str(clf_path)], capsys)
        if isinstance(document, dict) and "classifier" not in document:
            saved = json.loads(clf_path.read_text())
            document = {**saved, "classifier": {**saved["classifier"], **document}}
        clf_path.write_text(json.dumps(document))
        rc, _, cap = run(["predict", "--classifier", str(clf_path), "--input", four_point,
                          "--ids", "0,1"], capsys)
        assert rc == 2 and cap.out == ""
        assert cap.err.startswith(f"error: {field}") and cap.err.count("\n") == 1

    def test_eps_mode_flag(self, four_point, tmp_path, capsys):
        labels = self.write_labels(tmp_path)
        rc, doc, _ = run(["train", "--input", four_point, "--labels", labels,
                          "--eps", "0.25"], capsys)
        assert rc == 0 and doc["classifier"]["k"] == 1


class TestBound:
    def test_reference_value_at_twelve_digits(self, capsys):
        rc, doc, _ = run(["bound", "--n", "100", "--k", "5", "--delta", "0.05"], capsys)
        assert rc == 0
        assert doc["report"]["value"] == 0.322386877784
        assert doc["report"]["vacuous"] is False

    def test_eps_picks_the_agnostic_regime(self, capsys):
        rc, doc, _ = run(["bound", "--n", "100", "--k", "5", "--delta", "0.05"], capsys)
        assert rc == 0 and doc["report"]["regime"] == "consistent"
        rc, doc, _ = run(["bound", "--n", "100", "--k", "5", "--delta", "0.05",
                          "--eps", "0.1"], capsys)
        assert rc == 0 and doc["report"]["regime"] == "agnostic"
        assert doc["report"]["eps_tilde"] > 0.1

    def test_log_base_two(self, capsys):
        rc, doc, _ = run(["bound", "--n", "100", "--k", "5", "--delta", "0.05",
                          "--log-base", "2"], capsys)
        expected = float(f"{bound(100, 5, 0.05).value / math.log(2):.12g}")
        assert rc == 0 and doc["report"]["value"] == expected

    def test_bad_domain(self, capsys):
        rc, _, cap = run(["bound", "--n", "5", "--k", "5", "--delta", "0.05"], capsys)
        assert rc == 2 and "error:" in cap.err


class TestTransform:
    def test_min_on_violating_instance_reports_but_passes(self, tmp_path, capsys):
        path = tmp_path / "mv.txt"
        save_matrix(path, MIN_VIOLATION)
        rc, doc, _ = run(["transform", "--input", str(path), "--op", "min"],
                         capsys)
        assert rc == 0  # semimetric: triangle breaks are informational
        assert doc["kind"] == "semimetric"
        assert doc["report"]["triangle_count"] == 2
        assert doc["matrix"][0][1] == 3 and doc["matrix"][0][2] == 1

    def test_max_writes_metric_file(self, tmp_path, capsys):
        src = tmp_path / "mv.txt"
        out = tmp_path / "sym.txt"
        save_matrix(src, MIN_VIOLATION)
        rc, doc, _ = run(["transform", "--input", str(src), "--op", "max",
                          "--output", str(out)], capsys)
        assert rc == 0 and doc["kind"] == "metric" and doc["saved_to"] == str(out)
        rc, doc, _ = run(["validate", "--input", str(out)], capsys)
        assert rc == 0


class TestOptionSet:
    """Every subcommand's sorted option dests: a new knob is a declared change."""

    OPTIONS = {
        "validate": ["input", "mode", "tolerance"],
        "dimension": ["constant", "direction", "input", "method", "mode", "per_ball",
                      "symmetrize"],
        "cover": ["algo", "alpha", "candidates", "compare", "direction", "eps", "input",
                  "lambda_hat", "mode", "seed", "target"],
        "train": ["algo", "eps", "input", "labels", "lambda_hat", "output"],
        "predict": ["classifier", "ids", "input", "queries"],
        "bound": ["delta", "eps", "k", "log_base", "n"],
        "transform": ["input", "op", "output", "tolerance"],
        "gen": ["branching", "kind", "n", "out_format", "output", "p", "seed", "spec_out",
                "target_constant"],
    }

    def test_parser_has_exactly_these_options(self):
        commands = next(a for a in build_parser()._actions if a.dest == "subcommand")
        found = {name: sorted(a.dest for a in sub._actions if a.dest != "help")
                 for name, sub in commands.choices.items()}
        assert found == self.OPTIONS
        assert (len(found), sum(map(len, found.values()))) == (8, 49)

    @pytest.mark.parametrize("argv", [["train", "--labels", "y.txt"],
                                      ["transform", "--op", "max"]], ids=["train", "transform"])
    def test_strict_only_commands_take_no_mode(self, argv, capsys):
        # Both need a strict space, so relaxed never ran there.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", "x.txt", "--mode", "relaxed"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode relaxed" in capsys.readouterr().err

    def test_bench_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestKnobSet:
    """Every submodule's module-level numeric constant: adding, dropping or
    retuning one is a declared change."""

    KNOBS = {
        "_format._CHUNK": 1 << 11,
        "_text._NUMPY_MIN": 1 << 17,
        "_text._PIECES": 128,
        "_text._READ": 1 << 16,
        "cli.SCHEMA": 1,
        "cover.EXACT_SIZE_CAP": 16,
        "cover._CHAIN_RTOL": 1e-9,
        "dimension._BLOCK_CAP": 3 << 20,
        "fixtures.CHECK_CAP": 64,
        "fixtures.DEFAULT_TARGET_CONSTANT": 8,
        "fixtures._RETRIES": 5,
        "space.DEFAULT_TOLERANCE": 1e-9,
        "space._MAX_REPORTED": 1000,
        "space._SCAN_BLOCK_CAP": 1 << 15,
        "space._SCAN_GROUP_ROWS": 4,
    }

    def test_package_has_exactly_these_knobs(self):
        found = {}
        for info in pkgutil.iter_modules(quasimetric.__path__):
            module = importlib.import_module(f"quasimetric.{info.name}")
            found.update((f"{info.name}.{name}", value) for name, value in vars(module).items()
                         if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name)
                         and isinstance(value, (int, float)) and not isinstance(value, bool))
        assert found == self.KNOBS
        assert len(found) == 15


class TestKeyOrder:
    """The key order of every JSON record, as the byte-stable output holds it."""

    REPORT = ["passed", "tolerance", "triangle_violations", "triangle_count",
              "negative_entries", "nonzero_diagonal", "symmetry_violations", "truncated"]
    CLASSIFIER = ["kind", "direction", "cover_label", "cover_ids", "threshold", "k", "n",
                  "margins", "training_error", "algorithm", "mode", "eps", "candidates"]
    FIXTURE = ["kind", "params", "expected", "mode", "n", "extras"]

    @pytest.mark.parametrize("regime", [[], ["--eps", "0.1"]])
    def test_bound(self, regime, capsys):
        _, doc, _ = run(["bound", "--n", "100", "--k", "5", "--delta", "0.05",
                         *regime], capsys)
        assert list(doc) == ["schema", "command", "report"]
        assert list(doc["report"]) == ["regime", "n", "k", "delta", "eps", "eps_tilde",
                                       "value", "display", "vacuous", "log_base"]

    def test_validate(self, cycle8, capsys):
        _, doc, _ = run(["validate", "--input", cycle8], capsys)
        assert list(doc) == ["schema", "command", "n", "mode", "report"]
        assert list(doc["report"]) == self.REPORT

    def test_dimension_per_ball(self, cycle8, capsys):
        _, doc, _ = run(["dimension", "--input", cycle8, "--direction", "outer",
                         "--per-ball"], capsys)
        assert list(doc) == ["schema", "command", "n", "estimate"]
        assert list(doc["estimate"]) == ["value", "quantity", "method", "direction",
                                         "witness_center", "witness_radius", "per_ball",
                                         "log2_value"]

    def test_cover_compare(self, cycle8, capsys):
        _, doc, _ = run(["cover", "--input", cycle8, "--alpha", "2",
                         "--direction", "inner", "--compare"], capsys)
        assert list(doc) == ["schema", "command", "n", "algo", "cover", "verified",
                             "offenders", "exact_optimum"]
        assert list(doc["cover"]) == ["direction", "radius", "size", "cover_ids",
                                      "assignment", "uncovered", "stats"]
        assert list(doc["cover"]["stats"]) == ["iterations", "distance_evaluations",
                                               "fallback", "radius_schedule"]
        assert list(doc["exact_optimum"]) == ["size", "cover_ids"]

    def test_train(self, four_point, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("0 +1\n1 +1\n2 -1\n3 -1\n")
        saved = tmp_path / "clf.json"
        _, doc, _ = run(["train", "--input", four_point, "--labels", str(labels),
                         "--output", str(saved)], capsys)
        assert list(doc) == ["schema", "command", "classifier", "saved_to"]
        written = json.loads(saved.read_text())
        assert list(written) == ["schema", "command", "classifier"]
        for clf in (doc["classifier"], written["classifier"]):
            assert list(clf) == self.CLASSIFIER
            assert list(clf["margins"]) == ["rho_pm", "rho_mp"]
            assert len(clf["candidates"]) == 4
            for cand in clf["candidates"]:
                assert list(cand) == ["kind", "size", "gap", "discarded"]

    def test_gen_spec_out(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        _, doc, _ = run(["gen", "--kind", "random-bounded", "--n", "8", "--seed", "1",
                         "--spec-out", str(spec)], capsys)
        assert list(doc) == ["schema", "command", "fixture", "matrix"]
        written = json.loads(spec.read_text())
        assert list(written) == ["schema", "command", "fixture"]
        for fixture in (doc["fixture"], written["fixture"]):
            assert list(fixture) == self.FIXTURE
            assert list(fixture["params"]) == ["n", "seed", "attempt", "weight_lo",
                                               "weight_hi", "target_constant", "checked"]
            assert fixture["expected"]
            for prop in fixture["expected"]:
                assert list(prop) == ["name", "value", "origin"]


# Scalars of every type a payload carries, with the floats at the edges of
# the writer's rules: infinities, NaN, signed zero and integral values on
# both sides of 1e15.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_),
    st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e15 - 1, 1e15, 1e15 + 2,
                     -1e15, -(1e15 - 1), 2.0 ** 53, 1e16, 123456789012.5]),
    st.text(), st.text(st.characters(max_codepoint=0x1f)))
_KEYS = st.one_of(st.text(), st.integers(-3, 3), st.floats(), st.booleans(), st.none(),
                  st.integers(-3, 3).map(np.int64))
_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=24)


class TestDocumentWriter:
    @given(payload=st.dictionaries(_KEYS, _VALUES, max_size=5))
    @example(payload={1: "a", "x": [], "1": "b", True: {}, "True": ()})  # keys collide
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps_oracle(self, payload):
        assert _document("x", payload) == brute_document("x", payload)

    @pytest.mark.parametrize("value", [object(), {1, 2}, np.zeros(2), b"bytes"])
    def test_unknown_type_raises_like_json_dumps(self, value):
        payload = {"rows": [[1, 2.5], {"bad": (value,)}]}
        with pytest.raises(TypeError) as ref:
            brute_document("x", payload)
        with pytest.raises(TypeError) as err:
            _document("x", payload)
        assert str(err.value) == str(ref.value)

    def test_stdout_reads_back_to_the_same_bytes(self, cycle8, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        save_labels(labels, {i: 1 if i < 4 else -1 for i in range(8)})
        broken = tmp_path / "broken.txt"
        save_matrix(broken, BROKEN)
        spec = tmp_path / "spec.json"
        commands = [
            (["dimension", "--input", cycle8, "--direction", "outer", "--per-ball"], 0),
            (["train", "--input", cycle8, "--labels", str(labels)], 0),
            (["validate", "--input", str(broken)], 1),
            (["cover", "--input", cycle8, "--alpha", "2", "--direction", "inner",
              "--compare"], 0),
            (["bound", "--n", "100", "--k", "5", "--delta", "0.05", "--eps", "0.1"], 0),
            (["gen", "--kind", "line", "--n", "5", "--spec-out", str(spec)], 0),
        ]
        for argv, code in commands:
            assert main(argv) == code
            out = capsys.readouterr().out
            assert json.dumps(json.loads(out), indent=2) + "\n" == out, argv[0]
        written = spec.read_text()
        assert json.dumps(json.loads(written), indent=2) + "\n" == written


class TestHarness:
    def test_readme_commands_parse(self):
        """Every ``quasimetric …`` line of the README's sh blocks, with its
        backslash continuations joined, is a valid command line."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
        commands = [shlex.split(line, comments=True)[1:]
                    for line in "\n".join(blocks).replace("\\\n", " ").splitlines()
                    if line.startswith("quasimetric ")]
        assert len(commands) >= 12
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: quasimetric {shlex.join(argv)}")

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dimension", "--input", "x", "--constant", "nope"])
        assert exc.value.code == 2

    def test_byte_identical_output(self, cycle8, capsys):
        argv = ["dimension", "--input", cycle8, "--constant", "directional",
                "--direction", "inner", "--method", "exact"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second and first.endswith("\n")

    def test_infinities_serialize_as_strings(self, tmp_path, capsys):
        out = tmp_path / "line.txt"
        run(["gen", "--kind", "line", "--n", "4", "--output", str(out)], capsys)
        rc, doc, _ = run(["gen", "--kind", "line", "--n", "4"], capsys)
        assert rc == 0
        assert doc["matrix"][1][0] == "inf" and doc["matrix"][0][1] == 1

    @pytest.mark.parametrize("argv,loaded", [
        (["validate", "--input", "{cycle8}"], []),
        (["transform", "--input", "{cycle8}", "--op", "max"], ["transforms"]),
        (["dimension", "--input", "{cycle8}", "--direction", "outer"], ["cover", "dimension"]),
        (["cover", "--input", "{cycle8}", "--alpha", "2", "--direction", "outer"], ["cover"]),
        (["train", "--input", "{cycle8}", "--labels", "{labels}"], ["classifier", "cover"]),
        (["train", "--input", "{cycle8}", "--labels", "{labels}", "--algo", "iterated"],
         ["classifier", "cover"]),
        (["train", "--input", "{far}", "--labels", "{far_labels}", "--algo", "iterated"],
         ["classifier", "cover"]),
        (["train", "--input", "{far}", "--labels", "{far_labels}", "--algo", "iterated",
          "--lambda-hat", "2"], ["classifier", "cover"]),
        (["predict", "--classifier", "{clf}", "--input", "{cycle8}"], ["classifier"]),
        (["bound", "--n", "100", "--k", "5", "--delta", "0.05"], ["classifier"]),
        (["gen", "--kind", "line"], ["fixtures"]),
    ], ids=["validate", "transform", "dimension", "cover", "train", "train-iterated",
            "train-iterated-sweep", "train-iterated-lambda-hat", "predict", "bound", "gen"])
    def test_command_loads_only_its_modules(self, cycle8, tmp_path, capsys, argv, loaded):
        """A command loads cli, _text and space and the modules it runs, no
        other.  Iterated training never loads dimension, not even on two
        classes 31 apart within and 969 apart from each other, where
        lambda_hat 2 and 3 give different schedules."""
        labels, clf = tmp_path / "labels.txt", tmp_path / "clf.json"
        save_labels(labels, {i: 1 if i < 4 else -1 for i in range(8)})
        assert main(["train", "--input", cycle8, "--labels", str(labels),
                     "--output", str(clf)]) == 0
        x = np.r_[np.arange(32.0), 1000.0 + np.arange(32.0)]
        far, far_labels = tmp_path / "far.txt", tmp_path / "far-labels.txt"
        save_matrix(far, np.abs(x[:, None] - x[None, :]))
        save_labels(far_labels, {i: 1 if i < 32 else -1 for i in range(64)})
        capsys.readouterr()
        script = (
            "import sys\n"
            "from quasimetric import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, *sorted(m for m in sys.modules if m.startswith('quasimetric')),\n"
            "      file=sys.stderr)\n")
        src = str(Path(quasimetric.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        argv = [a.format(cycle8=cycle8, labels=labels, clf=clf, far=far,
                         far_labels=far_labels) for a in argv]
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        code, *modules = proc.stderr.splitlines()[-1].split()
        assert code == "0"
        assert modules == sorted(["quasimetric", "quasimetric._text", "quasimetric.cli",
                                  "quasimetric.space", *(f"quasimetric.{m}" for m in loaded)])

    @pytest.mark.parametrize("argv", [
        ["dimension", "--direction", "outer", "--per-ball"],
        ["train", "--labels", "{labels}", "--algo", "iterated"],
        ["cover", "--alpha", "2", "--direction", "outer", "--algo", "arbitrary"],
    ], ids=["dimension-per-ball", "train-iterated", "cover-arbitrary"])
    def test_command_leaves_numpy_ma_unloaded(self, cycle8, tmp_path, argv):
        """numpy 2's ``np.unique`` imports ``numpy.ma`` on its first call:
        about 20 ms and a megabyte of a cold command that never needs it."""
        labels = tmp_path / "labels.txt"
        save_labels(labels, {i: 1 if i < 4 else -1 for i in range(8)})
        script = (
            "import sys\n"
            "from quasimetric import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)\n")
        src = str(Path(quasimetric.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        argv = [a.format(labels=labels) for a in argv] + ["--input", cycle8]
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert proc.stderr.splitlines()[-1] == "0 False"
