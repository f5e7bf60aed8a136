import itertools

import numpy as np
import pytest

from setcoh.datagen import PROVENANCE_CLASSES, pools
from setcoh.evalkit import (
    LengthMismatchError,
    MissingGoldError,
    SweepRow,
    best_mtr,
    best_row,
    build_eval_mixture,
    energy_quartiles,
    locate_metrics,
    macro_f1,
    mtr_sweep,
    verification_report,
)
from setcoh.trainer import PoolExhaustedError
from setcoh.verifier import CONSISTENT_REACHED, LocateResult, OracleScorer, pair_subsets, verify_elementwise

C, I = "consistent", "inconsistent"


@pytest.fixture(scope="module")
def qa_mixture(small_qa_corpus):
    base_c, base_i = pools(small_qa_corpus.test)
    return build_eval_mixture(base_c, base_i, per_class_count=2, rng_seed=0)


class TestMixture:
    def test_counts(self, qa_mixture):
        assert len(qa_mixture.sets) == 28
        consistent = [s for s in qa_mixture.sets if s.label == C]
        assert len(consistent) == 8  # classes C, CC, CCC, CCCC
        assert len(qa_mixture.sets) - len(consistent) == 20

    def test_single_per_class(self, small_qa_corpus):
        base_c, base_i = pools(small_qa_corpus.test)
        mixture = build_eval_mixture(base_c, base_i, per_class_count=1, rng_seed=1)
        assert len(mixture.sets) == 14
        assert sorted(s.provenance for s in mixture.sets) == sorted(PROVENANCE_CLASSES)

    def test_class_enumeration_matches_multiset_oracle(self, qa_mixture):
        expected = set()
        for size in range(1, 5):
            for combo in itertools.combinations_with_replacement("CI", size):
                expected.add("".join(sorted(combo)))
        assert {s.provenance for s in qa_mixture.sets} == expected

    def test_labels_derive_from_provenance(self, qa_mixture):
        for s in qa_mixture.sets:
            assert (s.label == C) == ("I" not in s.provenance)

    @pytest.mark.parametrize("classes, message", [(("CI", "X"), "unknown provenance class 'X'"),
                                                  (("CI", "C", "CI"), "provenance class 'CI' repeats")])
    def test_unknown_or_repeated_class(self, small_qa_corpus, classes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_eval_mixture(*pools(small_qa_corpus.test), per_class_count=1, rng_seed=0, classes=classes)

    def test_pool_exhausted_for_tiny_pool(self, small_qa_corpus):
        base_c, base_i = pools(small_qa_corpus.test)
        with pytest.raises(PoolExhaustedError):
            build_eval_mixture(base_c[:2], base_i[:2], per_class_count=1, rng_seed=0)

    def test_oracle_is_perfect_on_mixture(self, qa_mixture):
        report = verification_report(OracleScorer(), qa_mixture.sets, strategy="set")
        assert report.macro_f1 == 1.0

    def test_unknown_strategy(self, qa_mixture):
        with pytest.raises(ValueError, match="^unknown strategy 'pairs'$"):
            verification_report(OracleScorer(), qa_mixture.sets, strategy="pairs")


class TestMacroF1:
    def test_all_consistent_predictor_identity(self, qa_mixture):
        golds = [s.label for s in qa_mixture.sets]
        report = macro_f1([C] * len(golds), golds)
        assert abs(report.macro_f1 - 4 / 18) <= 5e-4
        assert report.inconsistent.f1 == 0.0
        assert report.consistent.recall == 1.0

    def test_all_inconsistent_predictor_identity(self, qa_mixture):
        golds = [s.label for s in qa_mixture.sets]
        report = macro_f1([I] * len(golds), golds)
        assert abs(report.macro_f1 - 10 / 24) <= 5e-4

    def test_perfect_predictor(self, qa_mixture):
        golds = [s.label for s in qa_mixture.sets]
        assert macro_f1(list(golds), golds).macro_f1 == 1.0

    def test_matches_confusion_matrix_oracle_on_random_lists(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            preds = [C if rng.random() < 0.5 else I for _ in range(n)]
            golds = [C if rng.random() < 0.5 else I for _ in range(n)]
            report = macro_f1(preds, golds)
            f1s = []
            for label in (C, I):
                tp = sum(p == g == label for p, g in zip(preds, golds))
                fp = sum(p == label != g for p, g in zip(preds, golds))
                fn = sum(g == label != p for p, g in zip(preds, golds))
                precision = tp / (tp + fp) if tp + fp else 0.0
                recall = tp / (tp + fn) if tp + fn else 0.0
                f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
            assert report.macro_f1 == pytest.approx(sum(f1s) / 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            macro_f1([C], [C, I])


def _result(indices):
    return LocateResult(tuple(indices), CONSISTENT_REACHED, ())


class TestLocateMetrics:
    def test_exact_hit(self):
        report = locate_metrics([(_result([2]), (2,))])
        assert report.em == 1.0
        assert report.precision == report.recall == 1.0

    def test_partial_hit(self):
        report = locate_metrics([(_result([1]), (1, 5))])
        assert report.em == 0.0
        assert report.precision == 1.0
        assert report.recall == 0.5

    def test_empty_equals_empty_counts_as_match(self):
        report = locate_metrics([(_result([]), ())])
        assert report.em == 1.0

    def test_micro_aggregation_matches_enumerated_oracle(self):
        universe = [(), (0,), (1,), (0, 1), (0, 2), (0, 1, 2)]
        cases = [(p, g) for p in universe for g in universe]
        results = [(_result(p), g) for p, g in cases]
        report = locate_metrics(results)
        tp = sum(len(set(p) & set(g)) for p, g in cases)
        fp = sum(len(set(p) - set(g)) for p, g in cases)
        fn = sum(len(set(g) - set(p)) for p, g in cases)
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        assert report.precision == pytest.approx(precision)
        assert report.recall == pytest.approx(recall)
        assert report.f1 == pytest.approx(2 * precision * recall / (precision + recall))
        assert report.em == pytest.approx(
            sum(set(p) == set(g) for p, g in cases) / len(cases)
        )

    def test_missing_gold(self):
        with pytest.raises(MissingGoldError):
            locate_metrics([(_result([1]), None)])
        with pytest.raises(MissingGoldError):
            locate_metrics([])


class TestSweep:
    def test_single_point_reproduces_elementwise_verdicts(self, qa_mixture):
        scorer = OracleScorer()
        rows = mtr_sweep(scorer, qa_mixture, grid=[0.0])
        all_row = next(r for r in rows if r.size_bucket == "all")
        report = verification_report(scorer, qa_mixture.sets, strategy="elementwise", mtr=0.0)
        assert all_row.macro_f1 == pytest.approx(report.macro_f1)

    def test_buckets_cover_component_counts(self, qa_mixture):
        rows = mtr_sweep(OracleScorer(), qa_mixture, grid=[0.0, 0.5])
        assert {r.size_bucket for r in rows} == {"1", "2", "3", "4", "all"}

    def test_consistent_count_monotone_in_mtr(self, qa_mixture):
        scorer = OracleScorer()
        grid = [0.0, 0.1, 0.3, 0.6, 1.0]
        counts = []
        for mtr in grid:
            consistent = sum(
                verify_elementwise(scorer, s, mtr).label == C for s in qa_mixture.sets
            )
            counts.append(consistent)
        assert counts == sorted(counts)


class TestBestMtr:
    class CountingOracle:
        """The oracle, counting each subset it scores."""

        threshold = 0.5

        def __init__(self):
            self.calls = 0

        def compile(self, s):
            score = OracleScorer().compile(s)

            def counted(keeps):
                self.calls += len(keeps)
                return score(keeps)
            return counted

        def score(self, s):
            return self.compile(s)([range(len(s.statements))])[0]

    def test_scores_each_pair_once(self, qa_mixture):
        scorer = self.CountingOracle()
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        chosen = best_mtr(scorer, qa_mixture.sets, grid)
        assert scorer.calls == sum(len(pair_subsets(s)) for s in qa_mixture.sets)
        # The grid value a per-value evaluation picks: the first with strictly greater macro-F1.
        f1s = [verification_report(OracleScorer(), qa_mixture.sets, "elementwise", mtr).macro_f1 for mtr in grid]
        assert chosen == grid[f1s.index(max(f1s))]

    def test_ties_keep_the_first_grid_value(self, qa_mixture):
        grid = [0.99, 1.0]
        f1s = [verification_report(OracleScorer(), qa_mixture.sets, "elementwise", mtr).macro_f1 for mtr in grid]
        assert f1s[0] == f1s[1]
        assert best_mtr(OracleScorer(), qa_mixture.sets, grid) == 0.99

    def test_best_row_is_the_earliest_best_whole_mixture_row(self):
        rows = [SweepRow(0.0, "1", 0.9, 1), SweepRow(0.0, "all", 0.4, 2), SweepRow(0.1, "1", 0.2, 1),
                SweepRow(0.1, "all", 0.6, 2), SweepRow(0.2, "2", 0.6, 1), SweepRow(0.2, "all", 0.6, 2)]
        assert best_row(rows) is rows[3]

    def test_bad_grids(self, qa_mixture):
        with pytest.raises(ValueError):
            best_mtr(OracleScorer(), qa_mixture.sets, [])
        with pytest.raises(ValueError):
            best_mtr(OracleScorer(), qa_mixture.sets, [0.0, 1.5])
        for grid in ([0.5, -1.0], [float("nan")]):
            with pytest.raises(ValueError, match=r"mtr must be in \[0, 1\]"):
                best_mtr(OracleScorer(), qa_mixture.sets, grid)
            with pytest.raises(ValueError, match=r"mtr must be in \[0, 1\]"):
                mtr_sweep(OracleScorer(), qa_mixture, grid)


def test_energy_quartiles_ordering_keys(qa_mixture):
    quartiles = energy_quartiles(OracleScorer(), qa_mixture.sets)
    tags = [q.provenance for q in quartiles]
    assert tags == sorted(tags, key=lambda t: (len(t), t))
    for q in quartiles:
        assert q.q1 <= q.median <= q.q3
