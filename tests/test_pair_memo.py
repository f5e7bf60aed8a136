"""The model scorers' pair memo against a fresh batch, and its counters.

A model scorer encodes each distinct pair of statement-table rows once and
answers every later pair of the same two rows from what it kept.  That is
exact only if a kept score equals the score of a fresh :func:`model.encode`
batch of the same subsets, bit for bit, whatever order, set, context or
batch the pair comes in; these tests compare with ``==``.
"""

import random
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from itertools import combinations

import pytest

from setcoh import evalkit
from setcoh.datagen import pools
from setcoh.model import HEADS, ModelParams, build_vocabulary, encode, statement_text
from setcoh.verifier import MODEL_SCORERS, locate, verify_elementwise, verify_set


@pytest.fixture(scope="module", params=["qa", "snli"])
def params_and_mixture(request):
    """Criterion 5's and 6's mixture: 50 sets per class from the test split, seed 11."""
    corpus = request.getfixturevalue(f"{request.param}_corpus")
    mixture = evalkit.build_eval_mixture(*pools(corpus.test), per_class_count=50, rng_seed=11)
    return ModelParams.init(build_vocabulary(corpus.train), seed=11), mixture.sets


def fresh(params, s, keeps):
    """The unmemoized scores of each head: one new batch of ``keeps`` through ``encode``."""
    table = params.vocab.table
    hidden = encode(params, table.subsets(table.rows(s.statements), keeps))[1]
    return {head: score(params, hidden).tolist() for head, score in HEADS.items()}


def scorers(params):
    return [cls(params, 0.5) for cls in MODEL_SCORERS.values()]


def test_memoized_scores_equal_a_fresh_batch(params_and_mixture):
    """Pairs as (a, b) and as (b, a), triples, the whole set and one pair twice, in one call."""
    params, sets = params_and_mixture
    rng = random.Random(11)
    memoized = scorers(params)
    for s in sets:
        n = len(s.statements)
        pairs = list(combinations(range(n), 2))
        keeps = [*pairs, *[(b, a) for a, b in pairs], *[(i, i + 1, i + 2) for i in range(n - 2)],
                 tuple(range(n)), pairs[0]]
        rng.shuffle(keeps)
        expected = fresh(params, s, keeps)
        for scorer in memoized:
            score = scorer.compile(s)
            assert score(keeps) == expected[scorer.head]      # misses, de-duplicated within the call
            assert score(keeps) == expected[scorer.head]      # every pair now a hit


def test_the_same_pair_in_sets_with_different_contexts(params_and_mixture):
    params, sets = params_and_mixture
    memoized = scorers(params)
    for s in sets[::7]:
        other = replace(s, id=f"{s.id}-other", statements=s.statements[::-1],
                        context_semantics=[*s.context_semantics, "(not ctx.extra)"])
        pairs = list(combinations(range(len(s.statements)), 2))
        expected = fresh(params, other, pairs)
        for scorer in memoized:
            verify_elementwise(scorer, s, 0.0)
            reused = scorer.counters["pairs_reused"]
            assert scorer.compile(other)(pairs) == expected[scorer.head]
            assert scorer.counters["pairs_reused"] == reused + len(pairs)     # all answered from the memo


def test_counters_count_each_distinct_pair_once_and_locate_adds_none(params_and_mixture):
    params, sets = params_and_mixture
    distinct = {tuple(sorted((statement_text(a), statement_text(b))))
                for s in sets for a, b in combinations(s.statements, 2)}
    total = sum(len(s) * (len(s) - 1) // 2 for s in sets)
    assert len(distinct) < total            # the mixture repeats pairs, so reuse is exercised
    for scorer in scorers(params):
        for s in sets:
            if len(s) > 2:
                verify_set(scorer, s)       # a whole set of three or more is not a pair
        assert not scorer._pairs and scorer.counters == Counter()      # zero counts equal none
        for s in sets:
            verify_elementwise(scorer, s, 0.0)
        assert scorer.counters["pairs_scored"] == len(distinct) == len(scorer._pairs)
        assert scorer.counters["pairs_scored"] + scorer.counters["pairs_reused"] == total
        for s in sets:
            locate(scorer, s)
            verify_set(scorer, s)
        assert scorer.counters["pairs_scored"] == len(scorer._pairs) == len(distinct)


def test_model_scorers_are_immutable(params_and_mixture):
    params, _ = params_and_mixture
    for scorer in scorers(params):
        with pytest.raises(FrozenInstanceError):
            scorer.params = params.copy()
        with pytest.raises(FrozenInstanceError):
            scorer.threshold = 0.0
