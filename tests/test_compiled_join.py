"""The oracle decides a union from its parts' compiles: differential tests against a fresh compile.

``datagen.compile_formulas`` joins the compiles of a union's parts
(``CompiledFormulas.join``); every decision must equal the one a fresh
``CompiledFormulas(s.formulas(), s.context_semantics)`` makes.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcoh import evalkit
from setcoh.cli import SINGLE_GOLD_CLASSES
from setcoh.datagen import (
    GenerationError,
    MissingSemanticsError,
    _certify_seed_pair,
    _relation_checks,
    compile_formulas,
    compose_union,
    corrupt_qa,
    gen_qa_set,
    gen_qa_world,
    gen_seed_pair,
    load_jsonl,
    pools,
    save_jsonl,
)
from setcoh.logic import AtomBudgetError, AtomRef, CompiledFormulas, Implies, is_satisfiable, negate
from setcoh.rules import CONTRADICTION, ENTAILMENT, NEUTRAL
from setcoh.verifier import OracleScorer, locate, verify_elementwise, verify_set
from test_logic import _prefixed, block_formula_strategy

SEED = 11


def _keeps(n):
    """The whole set, every pair and every leave-one-out of an ``n``-statement set."""
    return [None, *itertools.combinations(range(n), 2), *([j for j in range(n) if j != i] for i in range(n))]


def _decisions(compiled, n):
    return [compiled.satisfiable(keep) for keep in _keeps(n)]


def _assert_unions_decide_like_fresh_compiles(sets):
    unions = [s for s in sets if len(s.provenance) > 1]
    assert unions
    for s in unions:
        joined = compile_formulas(s)
        assert all(part._compiled is not None for part in s._parts)    # decided from the parts
        fresh = CompiledFormulas(s.formulas(), s.context_semantics)
        assert _decisions(joined, len(s)) == _decisions(fresh, len(s)), s.id


def test_criterion_8_unions(qa_corpus):
    # The union mixture of acceptance criterion 8, from the same pools.
    base_c = [s for s in pools(qa_corpus.test)[0] if len(s) >= 4]
    base_i = [corrupt_qa(s, 7000 + k, flips=("no-to-yes",), set_id=f"{s.id}.loc") for k, s in enumerate(base_c)]
    rich = evalkit.build_eval_mixture(base_c, base_i, per_class_count=25, rng_seed=SEED,
                                      classes=SINGLE_GOLD_CLASSES)
    _assert_unions_decide_like_fresh_compiles(rich.sets)


def test_three_and_four_part_qa_unions(qa_corpus):
    base_c, base_i = pools(qa_corpus.test)
    classes = [tag for tag in evalkit.PROVENANCE_CLASSES if len(tag) >= 3]
    mixture = evalkit.build_eval_mixture(base_c, base_i, per_class_count=8, rng_seed=SEED, classes=classes)
    _assert_unions_decide_like_fresh_compiles(mixture.sets)


def test_snli_unions(snli_corpus):
    mixture = evalkit.build_eval_mixture(*pools(snli_corpus.test), per_class_count=6, rng_seed=SEED)
    _assert_unions_decide_like_fresh_compiles(mixture.sets)


def test_a_part_decides_alike_on_its_first_and_later_uses():
    shared = corrupt_qa(gen_qa_set(gen_qa_world(40, 3)), 1)
    partners = [gen_qa_set(gen_qa_world(41 + k, 1 + k % 4)) for k in range(6)]
    assert shared._compiled is None                         # not compiled before it is met as a part
    kept = None
    for k, partner in enumerate(partners):
        union = compose_union([partner, shared], shuffle_seed=k)
        fresh = CompiledFormulas(union.formulas(), union.context_semantics)
        assert _decisions(compile_formulas(union), len(union)) == _decisions(fresh, len(union))
        assert union._compiled is None                      # a union keeps no compile of its own
        kept = kept or shared._compiled
        assert shared._compiled is kept                     # compiled once, on first use
        scorer = OracleScorer()
        assert locate(scorer, union).removed_indices == union.gold_inconsistent_indices
        assert verify_elementwise(scorer, union, 0.0).detail.scores == tuple(
            0.0 if fresh.satisfiable(pair) else 1.0 for pair in itertools.combinations(range(len(union)), 2))


def test_a_set_compiled_directly_keeps_nothing():
    s = gen_qa_set(gen_qa_world(50, 2))
    assert verify_set(OracleScorer(), s).label == "consistent"
    assert s._compiled is None


def test_an_over_budget_part_names_the_union_through_score_and_compile():
    # One part holds a 26-atom chain in its own namespace: a component over the bound.
    base = gen_qa_set(gen_qa_world(60, 2))
    ns = next(iter(base.namespaces()))
    chain = tuple(Implies(AtomRef(f"{ns}.c{i}"), AtomRef(f"{ns}.c{i + 1}")) for i in range(25))
    chained = dataclasses.replace(base, context_semantics=base.context_semantics + chain)
    union = compose_union([gen_qa_set(gen_qa_world(61, 3)), chained], set_id="u-chained", shuffle_seed=3)
    with pytest.raises(AtomBudgetError) as fresh:
        CompiledFormulas(union.formulas(), union.context_semantics)
    for check in (lambda: OracleScorer().score(union), lambda: OracleScorer().compile(union)):
        with pytest.raises(AtomBudgetError) as raised:
            check()
        assert str(raised.value) == f"set 'u-chained': {fresh.value}"


def test_a_part_without_semantics_names_the_union():
    part = gen_qa_set(gen_qa_world(62, 2))
    bare = dataclasses.replace(part, statements=[dataclasses.replace(part.statements[0], semantics=None),
                                                 *part.statements[1:]])
    union = compose_union([gen_qa_set(gen_qa_world(63, 2)), bare], set_id="u-bare", shuffle_seed=5)
    with pytest.raises(MissingSemanticsError) as fresh:
        union.formulas()
    assert str(fresh.value).startswith("set 'u-bare': statement ")
    for check in (lambda: OracleScorer().score(union), lambda: OracleScorer().compile(union)):
        with pytest.raises(MissingSemanticsError) as raised:
            check()
        assert str(raised.value) == str(fresh.value)


def _flipped(pair):
    """The pair with each axiom's consequent negated; a neutral pair gains p -> h."""
    p, h = pair.premise, pair.hypothesis
    axioms = tuple(Implies(ax.antecedent, negate(ax.consequent)) for ax in pair.axioms) or (Implies(p, h),)
    return dataclasses.replace(pair, axioms=axioms)


@pytest.mark.parametrize("relation", [ENTAILMENT, CONTRADICTION, NEUTRAL])
def test_seed_pair_checks_equal_four_separate_oracle_calls(relation):
    for seed in range(40):
        pair = gen_seed_pair(seed, relation)
        for candidate in (pair, _flipped(pair)):
            p, h = candidate.premise, candidate.hypothesis
            expected = tuple(is_satisfiable([a, b, *candidate.axioms])
                             for a, b in ((p, h), (p, negate(h)), (negate(p), h), (negate(p), negate(h))))
            assert _relation_checks(candidate) == expected
        with pytest.raises(GenerationError, match=f"failed {relation} certification"):
            _certify_seed_pair(_flipped(pair))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(block_formula_strategy, min_size=1, max_size=5),
                          st.lists(block_formula_strategy, max_size=3)),
                min_size=1, max_size=4),
       st.randoms(use_true_random=False), st.data())
def test_join_decides_like_a_fresh_compile_of_the_shuffled_statements(parts, rng, data):
    parts = [([_prefixed(f, f"n{k}.") for f in statements], [_prefixed(f, f"n{k}.") for f in context])
             for k, (statements, context) in enumerate(parts)]
    order = [(p, j) for p, (statements, _) in enumerate(parts) for j in range(len(statements))]
    rng.shuffle(order)
    joined = CompiledFormulas.join([CompiledFormulas(*part) for part in parts], order)
    statements = [parts[p][0][j] for p, j in order]
    fresh = CompiledFormulas(statements, [f for _, context in parts for f in context])
    assert joined.statements == statements
    assert _decisions(joined, len(statements)) == _decisions(fresh, len(statements))
    for _ in range(3):
        keep = sorted(data.draw(st.sets(st.sampled_from(range(len(statements))))))
        assert joined.satisfiable(keep) == fresh.satisfiable(keep)


def test_join_of_loaded_parts(tmp_path, small_qa_corpus):
    # Parts read back from JSONL: formulas parsed on first read, statements interned across sets.
    path = tmp_path / "sets.jsonl"
    save_jsonl(small_qa_corpus.test, path)
    loaded = load_jsonl(path)
    mixture = evalkit.build_eval_mixture(*pools(loaded), per_class_count=3, rng_seed=SEED)
    _assert_unions_decide_like_fresh_compiles(mixture.sets)
