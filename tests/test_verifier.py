import itertools
import math

import pytest

from setcoh.datagen import (
    Statement,
    StatementSet,
    apply_rule,
    compose_union,
    corrupt_qa,
    gen_qa_set,
    gen_qa_world,
    gen_seed_pair,
    validate_with_oracle,
)
from setcoh.logic import AtomBudgetError, AtomRef, Implies, atoms_of, is_satisfiable, parse_formula
from setcoh.evalkit import EvalMixture, best_mtr, mtr_sweep
from setcoh.rules import RULES_BY_ID
from setcoh.model import ModelParams, build_vocabulary
from setcoh.verifier import (
    CONSISTENT_REACHED,
    EnergyScorer,
    ExternalScorer,
    LocateResult,
    OracleScorer,
    SIZE_TWO_STOP,
    UnknownSetIdError,
    external_scorer_from_file,
    locate,
    pair_subsets,
    subset_id,
    verify_elementwise,
    verify_set,
    write_scores_file,
)

TRAIN_SET = StatementSet(
    id="train-or", provenance="I",
    statements=[
        Statement(kind="sentence", semantics=parse_formula("(or p q)"),
                  text="Either the train arrives at 8 AM, or the train arrives at 9 AM."),
        Statement(kind="sentence", semantics=parse_formula("(not p)"),
                  text="The train does not arrive at 8 AM."),
        Statement(kind="sentence", semantics=parse_formula("(not q)"),
                  text="The train does not arrive at 9 AM."),
    ],
)


class FixedScorer:
    """Scores every subset ``value``, counting compiles, batches and subset scores."""

    def __init__(self, value, threshold=0.5):
        self.value = value
        self.threshold = threshold
        self.calls = 0
        self.batches = 0
        self.compiles = 0

    def compile(self, s):
        self.compiles += 1
        return self._score

    def score(self, s):
        return self._score([range(len(s.statements))])[0]

    def _score(self, keeps):
        self.batches += 1
        self.calls += len(keeps)
        return [self.value] * len(keeps)


class TestVerifySet:
    def test_oracle_flags_collective_contradiction(self):
        verdict = verify_set(OracleScorer(), TRAIN_SET)
        assert verdict.label == "inconsistent"
        assert verdict.score == 1.0

    def test_oracle_accepts_rule_outputs(self):
        for rule_id in ("SE-6", "SE-1", "SC-3", "SN-2"):
            rule = RULES_BY_ID[rule_id]
            out = apply_rule(rule, [gen_seed_pair(800, rule.relation)])
            assert verify_set(OracleScorer(), out).label == "consistent"

    def test_score_at_threshold_is_inconsistent(self):
        verdict = verify_set(FixedScorer(0.5, threshold=0.5), TRAIN_SET)
        assert verdict.label == "inconsistent"
        below = verify_set(FixedScorer(0.4999, threshold=0.5), TRAIN_SET)
        assert below.label == "consistent"


class TestVerifyElementwise:
    def test_pair_count(self):
        world = gen_qa_world(820, 2)
        s = gen_qa_set(world)
        assert len(pair_subsets(s)) == 6  # N=4

    def test_ratio_arithmetic(self):
        s = gen_qa_set(gen_qa_world(821, 2))  # N=4, 6 pairs

        class OnePairFlagged:
            threshold = 0.5

            def __init__(self):
                self.n = 0

            def compile(self, s):
                return self.score_subsets

            def score_subsets(self, keeps):
                scores = []
                for _ in keeps:
                    self.n += 1
                    scores.append(1.0 if self.n == 1 else 0.0)
                return scores

        verdict = verify_elementwise(OnePairFlagged(), s, mtr=0.2)
        assert verdict.detail.pair_count == 6
        assert verdict.detail.inconsistent_pairs == 1
        assert verdict.detail.ratio == pytest.approx(1 / 6)
        assert verdict.label == "consistent"

    def test_pairwise_blind_set_splits_the_strategies(self):
        out = apply_rule("SE-28", gen_seed_pair(822, "entailment"))
        assert verify_set(OracleScorer(), out).label == "inconsistent"
        verdict = verify_elementwise(OracleScorer(), out, mtr=0.0)
        assert verdict.label == "consistent"
        assert verdict.detail.inconsistent_pairs == 0

    def test_context_rides_into_pairs(self):
        # a corrupted QA pair conflicts only under the world's exclusion axioms
        si = corrupt_qa(gen_qa_set(gen_qa_world(823, 2)), 0, flips=("no-to-yes",))
        verdict = verify_elementwise(OracleScorer(), si, mtr=0.0)
        assert verdict.label == "inconsistent"
        assert verdict.detail.inconsistent_pairs >= 1

    def test_monotone_in_mtr(self):
        si = corrupt_qa(gen_qa_set(gen_qa_world(824, 3)), 1)
        labels = [verify_elementwise(OracleScorer(), si, mtr=m).label for m in (0.0, 0.2, 0.5, 1.0)]
        seen_consistent = False
        for label in labels:
            if label == "consistent":
                seen_consistent = True
            else:
                assert not seen_consistent  # never flips back to inconsistent

    def test_mtr_bounds(self):
        with pytest.raises(ValueError):
            verify_elementwise(OracleScorer(), TRAIN_SET, mtr=1.5)


class TestLocate:
    def test_consistent_input_removes_nothing(self):
        s = gen_qa_set(gen_qa_world(830, 3))
        result = locate(OracleScorer(), s)
        assert result.removed_indices == ()
        assert result.terminal == CONSISTENT_REACHED
        assert result.trace == ()

    def test_corrupted_set_yields_the_gold_index(self):
        for seed in range(6):
            si = corrupt_qa(gen_qa_set(gen_qa_world(840 + seed, 2 + seed % 3)), seed,
                            flips=("no-to-yes",))
            result = locate(OracleScorer(), si)
            assert result.removed_indices == si.gold_inconsistent_indices
            assert result.terminal == CONSISTENT_REACHED

    def test_union_with_one_corrupted_part(self):
        c = gen_qa_set(gen_qa_world(850, 2))
        si = corrupt_qa(gen_qa_set(gen_qa_world(851, 2)), 0, flips=("no-to-yes",))
        union = compose_union([c, si], shuffle_seed=4)
        result = locate(OracleScorer(), union)
        assert result.removed_indices == union.gold_inconsistent_indices

    def test_size_two_stop(self):
        si = corrupt_qa(gen_qa_set(gen_qa_world(852, 1)), 0, flips=("no-to-yes",))
        pair = StatementSet(
            id="two", provenance="I",
            statements=[si.statements[1], si.statements[2]],
            context_semantics=si.context_semantics,
        )
        result = locate(OracleScorer(), pair)
        assert result.removed_indices == ()
        assert result.terminal == SIZE_TWO_STOP

    def test_tie_break_smallest_original_index(self):
        s = gen_qa_set(gen_qa_world(853, 3))  # size 5, constant scorer never satisfied
        scorer = FixedScorer(1.0)
        result = locate(scorer, s)
        assert result.terminal == SIZE_TWO_STOP
        assert result.removed_indices == (0, 1, 2)

    def test_call_count_bound(self):
        s = gen_qa_set(gen_qa_world(854, 4))  # size 6
        scorer = FixedScorer(1.0)
        locate(scorer, s)
        n = len(s)
        assert scorer.calls <= 1 + sum(range(3, n + 1))

    def test_each_set_is_compiled_once(self):
        s = gen_qa_set(gen_qa_world(854, 4))  # size 6: locate runs four iterations
        for strategy in (lambda scorer: verify_elementwise(scorer, s, mtr=0.2), lambda scorer: locate(scorer, s)):
            scorer = FixedScorer(1.0)
            strategy(scorer)
            assert scorer.compiles == 1 and scorer.calls > 1

    def test_one_batch_per_set_and_per_iteration(self):
        s = gen_qa_set(gen_qa_world(854, 4))  # size 6
        scorer = FixedScorer(1.0)
        verify_elementwise(scorer, s, mtr=0.2)
        assert scorer.batches == 1 and scorer.calls == len(pair_subsets(s))
        scorer = FixedScorer(1.0)
        result = locate(scorer, s)
        assert len(result.trace) == 4
        assert scorer.batches == 1 + len(result.trace)
        assert scorer.calls == 1 + sum(range(3, len(s) + 1))

    def test_trace_length_equals_iterations(self):
        si = corrupt_qa(gen_qa_set(gen_qa_world(855, 2)), 0, flips=("no-to-yes",))
        result = locate(OracleScorer(), si)
        assert len(result.trace) == len(result.removed_indices)

    def test_removed_indices_belong_to_a_minimal_unsatisfiable_core(self):
        for seed in range(4):
            si = corrupt_qa(gen_qa_set(gen_qa_world(860 + seed, 2)), seed)
            result = locate(OracleScorer(), si)
            formulas = si.formulas()
            context = list(si.context_semantics)
            n = len(formulas)
            minimal_cores = []
            for r in range(2, n + 1):
                for combo in itertools.combinations(range(n), r):
                    subset = [formulas[i] for i in combo]
                    if is_satisfiable(subset + context):
                        continue
                    proper_sat = all(
                        is_satisfiable([formulas[i] for i in sub] + context)
                        for k in range(len(combo))
                        for sub in [combo[:k] + combo[k + 1:]]
                    )
                    if proper_sat:
                        minimal_cores.append(set(combo))
            for removed in result.removed_indices:
                assert any(removed in core for core in minimal_cores)

    def test_verdicts_invariant_under_reordering(self):
        si = corrupt_qa(gen_qa_set(gen_qa_world(870, 3)), 2)
        reversed_set = StatementSet(
            id=si.id + ".rev", provenance=si.provenance,
            statements=list(reversed(si.statements)),
            context_semantics=si.context_semantics,
        )
        assert verify_set(OracleScorer(), si).label == verify_set(OracleScorer(), reversed_set).label
        vocab = build_vocabulary([si])
        scorer = EnergyScorer(ModelParams.init(vocab, d=8, h=6, seed=0), threshold=0.0)
        assert (
            verify_set(scorer, si).label
            == verify_set(scorer, StatementSet(
                id=si.id, provenance=si.provenance,
                statements=list(reversed(si.statements)),
                context_semantics=si.context_semantics,
            )).label
        )


class TestExternalScorer:
    def test_round_trip_identical_verdicts(self, tmp_path):
        sets = [gen_qa_set(gen_qa_world(890 + k, 2)) for k in range(3)]
        sets.append(corrupt_qa(sets[0], 0, set_id="bad-one"))
        oracle = OracleScorer()
        scores = {s.id: oracle.score(s) for s in sets}
        path = tmp_path / "scores.csv"
        write_scores_file(path, oracle.threshold, scores)
        external = external_scorer_from_file(path)
        assert external.threshold == 0.5
        for s in sets:
            assert verify_set(external, s).label == verify_set(oracle, s).label

    def test_unknown_id(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_file(path, 0.5, {"known": 0.9})
        scorer = external_scorer_from_file(path)
        with pytest.raises(UnknownSetIdError) as raised:
            scorer.score(TRAIN_SET)
        assert str(raised.value) == f"{path}: no score for set id 'train-or'"
        with pytest.raises(UnknownSetIdError, match="set id 'train-or#0-1'"):
            verify_elementwise(scorer, TRAIN_SET, mtr=0.0)

    def test_subset_ids(self):
        pairs = [sub for _, sub in pair_subsets(TRAIN_SET)]
        assert [sub.id for sub in pairs] == ["train-or#0-1", "train-or#0-2", "train-or#1-2"]
        assert subset_id(TRAIN_SET, (0, 1, 2)) == "train-or"
        assert subset_id(pairs[0], (0, 1)) == pairs[0].id  # a whole set keeps its own id

    def test_every_subset_from_a_file_equals_the_oracle(self, tmp_path):
        # Two corrupted parts: locate runs several iterations over subsets of falling size.
        parts = [corrupt_qa(gen_qa_set(gen_qa_world(895 + k, 2)), k, flips=("no-to-yes",)) for k in range(2)]
        union = compose_union(parts, shuffle_seed=7)
        n = len(union)
        oracle = OracleScorer()
        keeps = [keep for r in range(1, n + 1) for keep in itertools.combinations(range(n), r)]
        ids = [subset_id(union, keep) for keep in keeps]
        assert len(set(ids)) == len(keeps)  # no two subsets share an id
        path = tmp_path / "scores.csv"
        write_scores_file(path, oracle.threshold, dict(zip(ids, oracle.compile(union)(keeps))))
        external = external_scorer_from_file(path)
        expected = locate(oracle, union)
        assert len(expected.trace) >= 2
        assert locate(external, union) == expected
        for mtr in (0.0, 0.2):
            assert verify_elementwise(external, union, mtr) == verify_elementwise(oracle, union, mtr)
        assert verify_set(external, union) == verify_set(oracle, union)

    def test_header_flags_verdict(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("threshold=0.5\nid1,0.9\n")
        scorer = external_scorer_from_file(path)
        s = StatementSet(
            id="id1", provenance="I",
            statements=TRAIN_SET.statements,
        )
        assert verify_set(scorer, s).label == "inconsistent"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("threshold=0.5\n\nid1,0.9\n  \nid2,0.1\n\n")
        assert external_scorer_from_file(path).scores == {"id1": 0.9, "id2": 0.1}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("0.5\nid1,0.9\n")
        with pytest.raises(ValueError):
            external_scorer_from_file(path)


class TestAtomBudget:
    def test_union_of_three_eight_distractor_qa_sets_is_decided(self):
        # 27 atoms in all, 9 per world: every component is far within the bound.
        sets = [gen_qa_set(gen_qa_world(seed, 8)) for seed in (1, 2, 3)]
        union = compose_union([sets[0], sets[1], corrupt_qa(sets[2], rng_seed=0)], shuffle_seed=4)
        assert len(frozenset().union(*map(atoms_of, union.all_formulas()))) == 27
        assert is_satisfiable(union.all_formulas()) is False
        assert is_satisfiable(compose_union(sets, shuffle_seed=4).all_formulas()) is True
        assert validate_with_oracle(union)
        oracle = OracleScorer()
        assert verify_set(oracle, union).label == "inconsistent"
        assert verify_elementwise(oracle, union, mtr=0.0).label == "inconsistent"
        result = locate(oracle, union)
        assert result.removed_indices == union.gold_inconsistent_indices
        assert result.terminal == CONSISTENT_REACHED

    def test_oracle_scorers_name_the_set_over_the_bound(self):
        # A 26-atom chain in one component: no subset of it can be compiled.
        chain = tuple(Implies(AtomRef(f"x{i}"), AtomRef(f"x{i + 1}")) for i in range(25))
        s = StatementSet(id="chained", provenance="C",
                         statements=TRAIN_SET.statements[1:], context_semantics=chain)
        for check in (lambda: OracleScorer().score(s), lambda: OracleScorer().compile(s)):
            with pytest.raises(AtomBudgetError, match="set 'chained': 26 atoms"):
                check()


def test_locate_result_rejects_duplicates():
    with pytest.raises(ValueError):
        LocateResult((1, 1), CONSISTENT_REACHED, ())


def _sized(n, set_id="tie"):
    """A consistent set of ``n`` statements; only its size and id matter to an external scorer."""
    return StatementSet(id=set_id, provenance="C",
                        statements=[TRAIN_SET.statements[i % 3] for i in range(n)])


def _external(s, scores, default=0.9, threshold=0.5):
    """An external scorer of every subset of ``s`` with two or more statements: ``scores`` by
    :func:`subset_id`, and ``default`` for the rest."""
    n = len(s.statements)
    rows = {subset_id(s, keep): default for k in range(2, n + 1) for keep in itertools.combinations(range(n), k)}
    return ExternalScorer(scores={**rows, **scores}, threshold=threshold, path="scores.csv")


class TestTies:
    """A score equal to the threshold is inconsistent at every verdict site, and a ratio equal to the MTR is
    tolerated (the module's rule, which :func:`setcoh.verifier.classify` and ``tolerance_rule`` state)."""

    def test_verify_set_at_the_threshold_is_inconsistent(self):
        s = _sized(5)
        assert verify_set(_external(s, {"tie": 0.5}), s).label == "inconsistent"
        assert verify_set(_external(s, {"tie": math.nextafter(0.5, 0.0)}), s).label == "consistent"

    def test_elementwise_counts_a_pair_at_the_threshold_and_tolerates_a_ratio_at_the_mtr(self):
        s = _sized(5)                          # 10 pairs: one at the threshold, nine below it
        pairs = {subset_id(s, pair): 0.1 for pair in itertools.combinations(range(5), 2)}
        scorer = _external(s, {**pairs, "tie#1-3": 0.5})
        verdict = verify_elementwise(scorer, s, mtr=0.1)
        assert (verdict.detail.inconsistent_pairs, verdict.score) == (1, 0.1)
        assert verdict.label == "consistent"
        assert verify_elementwise(scorer, s, mtr=math.nextafter(0.1, 0.0)).label == "inconsistent"

    def test_locate_goes_on_past_a_score_at_the_threshold(self):
        s = _sized(4)                          # the whole set and its best leave-one-out both tie
        scorer = _external(s, {"tie": 0.5, "tie#1-2-3": 0.5, "tie#1-3": 0.1})
        result = locate(scorer, s)
        assert result.removed_indices == (0, 2)
        assert result.terminal == CONSISTENT_REACHED
        assert [min(score for _, score in scored) for scored in result.trace] == [0.5, 0.1]

    def test_locate_stops_at_two_statements_scored_at_the_threshold(self):
        s = _sized(3)
        result = locate(_external(s, {}, default=0.5), s)
        assert (result.removed_indices, result.terminal) == ((0,), SIZE_TWO_STOP)

    def test_sweep_tolerates_a_ratio_at_a_grid_mtr(self):
        s = _sized(5)                          # ratio 0.1: one pair of ten at the threshold
        pairs = {subset_id(s, pair): 0.1 for pair in itertools.combinations(range(5), 2)}
        scorer = _external(s, {**pairs, "tie#0-4": 0.5})
        grid = [0.0, 0.1, 0.2]
        rows = [r for r in mtr_sweep(scorer, EvalMixture((s,)), grid) if r.size_bucket == "all"]
        assert [r.macro_f1 for r in rows] == [0.0, 0.5, 0.5]    # consistent from the grid's 0.1 on
        assert best_mtr(scorer, [s], grid) == 0.1

    def test_a_nan_score_is_inconsistent_to_both_strategies(self):
        s = _sized(2)                          # its one pair is the whole set
        scorer = _external(s, {"tie": math.nan})
        assert verify_set(scorer, s).label == "inconsistent"
        verdict = verify_elementwise(scorer, s, mtr=0.0)
        assert (verdict.label, verdict.detail.inconsistent_pairs) == ("inconsistent", 1)
        assert locate(scorer, s).terminal == SIZE_TWO_STOP
