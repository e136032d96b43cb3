import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasimetric import (CompressedClassifier, DegenerateCandidatesError, Direction,
                         InseparableSampleError, QueryVectors, bound,
                         build_classifier, build_from_matrix,
                         gen_random_bounded, load_matrix, make_sample, margins, predict)
from quasimetric import dimension
from quasimetric.classifier import parse_labels_text, predict_ids

from conftest import random_quasimetric, tie_heavy_spaces

GOLDEN = Path(__file__).parent / "golden"


# A field value that stands for the field's absence.
ABSENT = object()


def four_point_sample():
    """0,1 positive; 2,3 negative; margins (1, 2); all four candidates live."""
    d = np.array([
        [0.0, 1.2, 1.0, 2.0],
        [1.2, 0.0, 2.0, 2.0],
        [2.0, 2.0, 0.0, 1.2],
        [2.0, 2.0, 1.2, 0.0],
    ])
    return make_sample(build_from_matrix(d), {0: 1, 1: 1, 2: -1, 3: -1})


def clustered_noisy_sample():
    """Two tight clusters plus one stray positive sitting inside the negatives.

    Consistent mode has no positive-gap candidate; eps mode writes the stray
    off and gets a one-center rule.
    """
    n_a, n_b = 10, 9
    n = n_a + n_b + 1
    stray = n - 1
    d = np.full((n, n), 10.0)
    np.fill_diagonal(d, 0.0)
    a = range(n_a)
    b = range(n_a, n_a + n_b)
    for i in a:
        for j in a:
            if i != j:
                d[i, j] = 1.0
    for i in b:
        for j in b:
            if i != j:
                d[i, j] = 1.0
    for j in b:
        d[stray, j] = d[j, stray] = 1.0
    labels = {i: 1 for i in a} | {j: -1 for j in b} | {stray: 1}
    return make_sample(build_from_matrix(d), labels)


class TestSampleAndMargins:
    def test_margins_example(self):
        m = margins(four_point_sample())
        assert (m.rho_pm, m.rho_mp) == (1.0, 2.0)

    def test_zero_margin_raises(self):
        d = [[0, 0, 5], [5, 0, 5], [5, 5, 0]]
        sample = make_sample(build_from_matrix(d), {0: 1, 1: -1, 2: -1})
        with pytest.raises(InseparableSampleError):
            margins(sample)

    def test_sample_validation(self):
        qm = build_from_matrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="non-empty"):
            make_sample(qm, {0: 1, 1: 1})
        with pytest.raises(ValueError, match="out of range"):
            make_sample(qm, {0: 1, 5: -1})

    def test_labels_parsing(self):
        labels = parse_labels_text("# two points\n0 +1\n3 -1\n")
        assert labels == {0: 1, 3: -1}
        with pytest.raises(ValueError, match="labeled twice"):
            parse_labels_text("0 +1\n0 -1\n")
        with pytest.raises(ValueError, match="must be"):
            parse_labels_text("0 2\n")


class TestBuildClassifier:
    def test_four_point_pipeline(self):
        clf = build_classifier(four_point_sample())
        assert clf.kind == "pos-inner"
        assert clf.k == 1 and clf.cover_ids == [0]
        assert clf.threshold == 1.6
        assert clf.training_error == 0.0
        sizes = [c.size for c in clf.candidates]
        assert sizes == [2, 2, 1, 1]
        assert not any(c.discarded for c in clf.candidates)
        assert clf.k == min(sizes)

    def test_consistent_replay_on_random_instances(self, rng):
        built = 0
        for _ in range(20):
            qm = random_quasimetric(rng, int(rng.integers(4, 12)))
            ids = list(range(qm.n))
            rng.shuffle(ids)
            half = qm.n // 2
            labels = {i: 1 for i in ids[:half]} | {i: -1 for i in ids[half:]}
            try:
                sample = make_sample(qm, labels)
                clf = build_classifier(sample)
            except DegenerateCandidatesError:
                continue
            built += 1
            assert clf.training_error == 0.0
            for i in sample.pos:
                assert predict(clf, i).label == 1
            for i in sample.neg:
                assert predict(clf, i).label == -1
            survivor_sizes = [c.size for c in clf.candidates if not c.discarded]
            assert clf.k == min(survivor_sizes)
        assert built >= 10  # the corpus should mostly be separable

    def test_training_error_is_the_predict_error_rate(self, rng):
        # eps mode leaves points of the cover's class out, so some of the
        # built rules mislabel training points
        built = mislabeling = 0
        for _ in range(30):
            qm = random_quasimetric(rng, int(rng.integers(6, 16)))
            labels = {i: 1 if rng.random() < 0.5 else -1 for i in range(qm.n)}
            labels[0], labels[1] = 1, -1
            sample = make_sample(qm, labels)
            for eps in (0.2, 0.4):
                try:
                    clf = build_classifier(sample, eps=eps)
                except DegenerateCandidatesError:
                    continue
                built += 1
                wrong = sum(predict(clf, i).label != lab for i, lab in labels.items())
                assert clf.training_error == wrong / len(labels)
                mislabeling += wrong > 0
        assert built >= 30 and mislabeling >= 5

    def test_noisy_sample_needs_eps_mode(self):
        sample = clustered_noisy_sample()
        with pytest.raises(DegenerateCandidatesError):
            build_classifier(sample)
        clf = build_classifier(sample, eps=0.1)
        assert clf.k == 1
        assert clf.kind == "pos-outer"
        assert clf.training_error == pytest.approx(1 / 20)
        assert clf.training_error <= 0.1

    def test_iterated_algorithm_matches_greedy_sizes_here(self):
        clf_g = build_classifier(four_point_sample())
        clf_i = build_classifier(four_point_sample(), algorithm="iterated",
                                 lambda_hat=2.0)
        assert clf_i.k == clf_g.k
        assert clf_i.kind == clf_g.kind

    def test_iterated_default_sweeps_no_ball_on_a_four_arc_ring(self, monkeypatch):
        # A directed ring of 112 points with real weights in [8, 12), edges
        # leaving an arc 12, labelled in four arcs: both margins are 12, far
        # below the diameter, so lambda_hat = 2 falls back and so does every
        # larger one.
        def refuse(d):
            raise AssertionError("swept a ball for lambda_hat")

        n = 112
        labels = np.where((4 * np.arange(n) // n) % 2 == 0, 1, -1)
        weights = np.random.default_rng(0).uniform(8.0, 12.0, n)
        weights[labels != np.roll(labels, -1)] = 12.0
        pre = np.concatenate([[0.0], np.cumsum(weights)])
        d = np.mod(pre[None, :n] - pre[:n, None], pre[-1])
        np.fill_diagonal(d, 0.0)
        sample = make_sample(build_from_matrix(d), dict(enumerate(labels.tolist())))
        explicit = build_classifier(sample, algorithm="iterated", lambda_hat=2.0)
        monkeypatch.setattr(dimension, "_greedy_sweep", refuse)
        default = build_classifier(sample, algorithm="iterated")
        assert default.to_dict() == explicit.to_dict()

    def test_symmetric_space_pairs_candidates(self, rng):
        # with symmetry, outer and inner covers of the same class coincide,
        # so candidates pair up (pos-outer with pos-inner, neg-inner with
        # neg-outer) and both margins agree
        for _ in range(5):
            qm = random_quasimetric(rng, 8)
            sym = build_from_matrix(np.maximum(qm.dist, qm.dist.T))
            sample = make_sample(sym, {0: 1, 1: 1, 2: 1, 3: 1,
                                       4: -1, 5: -1, 6: -1, 7: -1})
            m = margins(sample)
            assert m.rho_pm == m.rho_mp
            clf = build_classifier(sample)
            by_kind = {c.kind: c for c in clf.candidates}
            assert by_kind["pos-outer"].size == by_kind["pos-inner"].size
            assert by_kind["neg-inner"].size == by_kind["neg-outer"].size

    def test_mode_validation(self):
        sample = four_point_sample()
        assert build_classifier(sample).mode == "consistent"
        assert build_classifier(sample, eps=0.1).mode == "eps"
        with pytest.raises(ValueError, match="eps"):
            build_classifier(sample, eps=0.0)
        with pytest.raises(ValueError, match="algorithm"):
            build_classifier(sample, algorithm="magic")

    @pytest.mark.parametrize("algorithm", ["iterated", "arbitrary"])
    def test_eps_mode_rejected_before_margins(self, algorithm):
        # The inseparable sample would fail its margins; the mode check comes first.
        inseparable = make_sample(build_from_matrix([[0, 0, 5], [5, 0, 5], [5, 5, 0]]),
                                  {0: 1, 1: -1, 2: -1})
        for sample in (four_point_sample(), inseparable):
            with pytest.raises(ValueError, match=f"{algorithm} covers do not support eps"):
                build_classifier(sample, algorithm=algorithm, eps=0.1)

    @pytest.mark.parametrize("algorithm", ["greedy", "arbitrary"])
    def test_lambda_hat_only_for_iterated(self, algorithm):
        with pytest.raises(ValueError, match=f"lambda_hat only applies to iterated "
                                             f"covers, not {algorithm}"):
            build_classifier(four_point_sample(), algorithm=algorithm, lambda_hat=2.0)

    @pytest.mark.xfail(strict=True, raises=DegenerateCandidatesError,
                       reason="integer weights tie own- and opposite-class points at the "
                              "margin, closing every gap (ROADMAP item 6)")
    def test_integer_margin_ties_still_build_a_rule(self):
        qm = gen_random_bounded(500, 7).space
        sample = make_sample(qm, {i: 1 if i // 50 % 2 == 0 else -1 for i in range(qm.n)})
        assert build_classifier(sample).training_error == 0

    def test_relaxed_space_rejected(self):
        from quasimetric import gen_line
        qm = gen_line(4).space
        sample = make_sample(qm, {0: 1, 1: 1, 2: -1, 3: -1})
        with pytest.raises(ValueError, match="strict"):
            build_classifier(sample)


class TestPredict:
    def test_reads_one_distance_per_cover_point(self):
        clf = build_classifier(four_point_sample())
        res = predict(clf, 2)
        assert res.evaluations == clf.k

    def test_query_vectors_both_lengths(self):
        clf = build_classifier(four_point_sample())  # pos-inner: needs from side
        full = QueryVectors(from_query=[0.9, 2.0, 3.0, 3.0])
        assert predict(clf, full).label == 1
        short = QueryVectors(from_query=[1.9])  # aligned with the single center
        assert predict(clf, short).label == -1

    def test_missing_side_raises(self):
        clf = build_classifier(four_point_sample())
        with pytest.raises(ValueError, match="from_query"):
            predict(clf, QueryVectors(to_query=[1, 1, 1, 1]))

    def test_serialization_round_trip(self):
        clf = build_classifier(four_point_sample())
        clone = CompressedClassifier.from_dict(clf.to_dict())
        assert clone.space is None
        qv = QueryVectors(from_query=[0.9, 2.0, 3.0, 3.0])
        assert predict(clone, qv).label == predict(clf, qv).label
        # id queries need a space again
        with pytest.raises(ValueError, match="space"):
            predict(clone, 0)
        assert predict(clone, 0, space=four_point_sample().space).label == 1
        with pytest.raises(ValueError, match="space has 5 points, expected 4"):
            predict(clone, 0, space=build_from_matrix(np.ones((5, 5)) - np.eye(5)))

    @pytest.mark.parametrize("field,value,message", [
        ("cover_ids", [0, 4], "cover id 4 out of range"),
        ("cover_ids", 5, "classifier.cover_ids is missing or ill-typed: 5"),
        ("cover_ids", [0, None], "classifier.cover_ids holds a non-integer"),
        ("cover_ids", [0, 1.0], "classifier.cover_ids holds a non-integer"),
        ("cover_ids", [True], "classifier.cover_ids holds a non-integer"),
        ("kind", ABSENT, "classifier.kind is missing or ill-typed: None"),
        ("n", "4", "classifier.n is missing or ill-typed: '4'"),
        ("n", True, "classifier.n is missing or ill-typed: True"),
        ("eps", "0.1", "classifier.eps is missing or ill-typed: '0.1'"),
        ("margins", None, "classifier.margins is missing or ill-typed: None"),
        ("margins", {"rho_pm": 1.0}, "classifier.margins.rho_mp is missing or ill-typed"),
        ("candidates", [{"kind": 1}], r"classifier.candidates\[0\].kind is missing or ill-typed"),
        ("candidates", [[]], r"classifier.candidates\[0\] is not a JSON object but a list"),
        ("cover_label", 5, "classifier.cover_label is neither \\+1 nor -1: 5"),
        ("cover_label", True, "classifier.cover_label is missing or ill-typed: True"),
        ("threshold", "nan", "classifier.threshold is neither a number nor \"inf\": 'nan'"),
        ("threshold", math.nan, "classifier.threshold is neither a number nor \"inf\": nan"),
        ("threshold", "-inf", "classifier.threshold is neither a number nor \"inf\""),
        ("threshold", ABSENT, "classifier.threshold is missing or ill-typed: None"),
        ("k", ABSENT, "classifier.k is missing or ill-typed: None"),
        ("k", "1", "classifier.k is missing or ill-typed: '1'"),
        ("k", 999, "classifier.k is 999 but from cover_ids it is 1"),
        ("kind", "pos-outer",
         "classifier.kind is 'pos-outer' but from cover_label and direction it is 'pos-inner'"),
        ("kind", "nonsense", "classifier.kind is 'nonsense' but from cover_label and direction"),
        ("mode", "eps", "classifier.mode is 'eps' but from eps it is 'consistent'"),
        ("eps", 0.25, "classifier.mode is 'consistent' but from eps it is 'eps'"),
    ], ids=["cover-id-range", "cover-ids-int", "cover-id-null", "cover-id-float",
            "cover-id-bool", "kind-missing", "n-str", "n-bool", "eps-str", "margins-null",
            "margin-missing", "candidate-kind", "candidate-list", "cover-label-5",
            "cover-label-bool", "threshold-nan-str", "threshold-nan", "threshold-minus-inf",
            "threshold-missing", "k-missing", "k-str", "k-not-cover-size", "kind-other",
            "kind-unknown", "mode-eps-without-eps", "eps-in-consistent-mode"])
    def test_from_dict_names_the_bad_field(self, field, value, message):
        data = build_classifier(four_point_sample()).to_dict()
        if value is ABSENT:
            del data[field]
        else:
            data[field] = value
        with pytest.raises(ValueError, match=message):
            CompressedClassifier.from_dict(data)

    def test_from_dict_rejects_a_non_object(self):
        with pytest.raises(ValueError, match="classifier is not a JSON object but a list"):
            CompressedClassifier.from_dict([])

    @pytest.mark.parametrize("threshold", ["inf", math.inf])
    def test_from_dict_keeps_an_infinite_threshold(self, threshold):
        data = build_classifier(four_point_sample()).to_dict()
        data["threshold"] = threshold
        del data["eps"]  # absent means None
        clf = CompressedClassifier.from_dict(data)
        assert clf.threshold == math.inf and clf.eps is None
        assert predict(clf, QueryVectors(from_query=[9, 9, 9, 9])).label == clf.cover_label

    def test_threshold_boundary_keeps_cover_label(self):
        clf = build_classifier(four_point_sample())
        at_threshold = QueryVectors(from_query=[clf.threshold, 9, 9, 9])
        assert predict(clf, at_threshold).label == clf.cover_label


class TestPredictIds:
    """Every id labelled at once against one ``predict`` call per id."""

    @staticmethod
    def per_id(clf, qm, ids):
        results = [predict(clf, i, space=qm) for i in ids]
        return [r.label for r in results], np.array([r.score for r in results])

    def test_golden_ring_rule(self):
        clf = CompressedClassifier.from_dict(
            json.loads((GOLDEN / "clf.json").read_text())["classifier"])
        qm = load_matrix(GOLDEN / "ring.txt")
        ids = list(range(qm.n))[::-1]  # any order, over several blocks
        labels, scores = predict_ids(clf, ids, space=qm)
        want_labels, want_scores = self.per_id(clf, qm, ids)
        assert labels.tolist() == want_labels
        assert scores.tobytes() == want_scores.tobytes()

    @given(qm=tie_heavy_spaces(allow_relaxed=False), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_spaces(self, qm, data):
        labels = data.draw(st.lists(st.sampled_from([1, -1]), min_size=qm.n, max_size=qm.n))
        assume(1 in labels and -1 in labels)
        try:
            clf = build_classifier(make_sample(qm, dict(enumerate(labels))))
        except (InseparableSampleError, DegenerateCandidatesError):
            assume(False)
        ids = data.draw(st.permutations(range(qm.n)))
        got_labels, got_scores = predict_ids(clf, ids)
        want_labels, want_scores = self.per_id(clf, qm, ids)
        assert got_labels.tolist() == want_labels
        assert got_scores.tobytes() == want_scores.tobytes()

    def test_ids_out_of_range_or_without_a_space(self):
        clf = build_classifier(four_point_sample())
        with pytest.raises(ValueError, match="^query id 7 out of range$"):
            predict_ids(clf, [0, 7, -1])
        clone = CompressedClassifier.from_dict(clf.to_dict())
        with pytest.raises(ValueError, match="requires the training space"):
            predict_ids(clone, [0])


class TestBounds:
    def test_consistent_reference_value(self):
        rep = bound(100, 5, 0.05)
        manual = (6 * math.log(100) + math.log(20)) / 95
        assert abs(rep.value - manual) <= 1e-12 * manual
        assert rep.display == rep.value and not rep.vacuous

    def test_consistent_near_delta_one(self):
        rep = bound(100, 0, 1 - 1e-12)
        assert rep.value == pytest.approx(math.log(100) / 100, rel=1e-9)

    def test_agnostic_reference_value(self):
        n, k, delta, eps = 200, 5, 0.05, 0.05
        rep = bound(n, k, delta, eps)
        eps_t = eps * n / (n - k)
        load = 6 * math.log(200) + math.log(20)
        manual = (eps_t + 2 * load / (3 * 195)
                  + math.sqrt(9 * eps_t * (1 - eps_t) * load / (2 * 195)))
        assert rep.value == pytest.approx(manual, rel=1e-12)
        assert rep.eps_tilde == pytest.approx(eps_t, rel=1e-12)

    def test_agnostic_at_zero_eps_below_consistent(self):
        for n, k, delta in [(50, 3, 0.1), (200, 10, 0.05), (1000, 0, 0.01)]:
            assert bound(n, k, delta, 0.0).value <= \
                bound(n, k, delta).value

    def test_eps_chooses_the_regime(self):
        # eps = 0.0 allows no training error but is still the agnostic bound.
        zero = bound(100, 5, 0.05, 0.0)
        assert (zero.regime, zero.eps, zero.eps_tilde) == ("agnostic", 0.0, 0.0)
        assert bound(100, 5, 0.05).regime == "consistent"

    def test_log_base_is_keyword_only(self):
        # A positional fourth argument is eps, and a string eps is refused.
        with pytest.raises(TypeError):
            bound(100, 5, 0.05, "2")

    def test_log_base_two(self):
        rep_e = bound(64, 3, 0.125)
        rep_2 = bound(64, 3, 0.125, log_base="2")
        assert rep_2.value == pytest.approx(rep_e.value / math.log(2), rel=1e-12)

    def test_vacuous_flagged_and_clamped(self):
        rep = bound(10, 9, 0.5)
        assert rep.vacuous and rep.display == 1.0 and rep.value > 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bound(10, 10, 0.1)
        with pytest.raises(ValueError):
            bound(10, 2, 0.0)
        with pytest.raises(ValueError):
            bound(10, 2, 0.1, 1.5)
        with pytest.raises(ValueError, match="exceeds 1"):
            bound(10, 8, 0.1, 0.5)  # eps_tilde = 2.5

    @given(n=st.integers(min_value=8, max_value=400),
           frac=st.floats(min_value=0.0, max_value=0.25),
           delta=st.floats(min_value=0.01, max_value=0.5),
           eps=st.floats(min_value=0.0, max_value=0.25))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, n, frac, delta, eps):
        k = min(int(frac * n), n // 4)
        base_c = bound(n, k, delta).value
        base_a = bound(n, k, delta, eps).value
        assert bound(n + 1, k, delta).value <= base_c
        assert bound(n, k + 1, delta).value >= base_c
        assert bound(n, k, delta * 0.9).value >= base_c
        assert bound(n + 1, k, delta, eps).value <= base_a
        assert bound(n, k + 1, delta, eps).value >= base_a
        assert bound(n, k, delta * 0.9, eps).value >= base_a
        assert bound(n, k, delta, min(eps + 0.01, 0.3)).value >= base_a
