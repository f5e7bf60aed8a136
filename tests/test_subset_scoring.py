"""Compiled subset scoring against the reference paths.

A scorer's ``compile`` reads a set once (statement-table rows for the
model scorers, truth-table masks for the oracle) and must give exactly the
scores of the subset copies that the reference path serializes or
hands to :func:`is_satisfiable`, whatever batch a subset is scored in.
Verification and localization must give the same results, traces
included, whichever path they take.
"""

import random
import zlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from setcoh import evalkit, model
from setcoh.datagen import pools
from setcoh.logic import is_satisfiable
from setcoh.model import (
    ModelParams,
    build_vocabulary,
    energy_from_counts,
    logits_from_counts,
    serialize_set,
    statement_text,
)
from setcoh.verifier import (
    BinarySoftmaxScorer,
    EnergyScorer,
    OracleScorer,
    locate,
    pair_subsets,
    verify_elementwise,
    verify_set,
)
from reference import assert_batches_equal, count_rows, softmax, stream_counts, subset_counts


class Hidden:
    """The reference path: each subset is scored as a copy, through the wrapped scorer's ``score``."""

    def __init__(self, inner):
        self.inner = inner
        self.threshold = inner.threshold

    def compile(self, s):
        return lambda keeps: [self.inner.score(_copy(s, keep)) for keep in keeps]

    def score(self, s):
        return self.inner.score(s)


def _subsets(s):
    """Every pair of ``s`` and, above two statements, every leave-one-out subset: index tuples."""
    n = len(s.statements)
    loo = [tuple(k for k in range(n) if k != j) for j in range(n)] if n > 2 else []
    return [keep for keep, _ in pair_subsets(s)] + loo


def _copy(s, keep):
    """The subset as the reference path builds it: a new set, with an id of its own."""
    return replace(s, id=f"{s.id}#{'-'.join(map(str, keep))}",
                   statements=[s.statements[i] for i in keep], gold_inconsistent_indices=None)


def _evaluation_sets(corpus):
    return corpus.validation1 + corpus.validation2 + corpus.test


@pytest.mark.parametrize("corpus_name", ["qa_corpus", "snli_corpus"])
def test_model_score_many_equals_the_serialized_reference(corpus_name, request):
    corpus = request.getfixturevalue(corpus_name)
    params = ModelParams.init(build_vocabulary(corpus.train), seed=11)
    energy_scorer, binary_scorer = EnergyScorer(params, 0.0), BinarySoftmaxScorer(params, 0.5)
    for s in _evaluation_sets(corpus):
        keeps = [tuple(range(len(s.statements)))] + _subsets(s)
        energies, softmaxes = energy_scorer.compile(s)(keeps), binary_scorer.compile(s)(keeps)
        batch = params.vocab.table.subsets(params.vocab.table.rows(s.statements), keeps)
        for r, (keep, e, p) in enumerate(zip(keeps, energies, softmaxes)):
            subset = _copy(s, keep)
            # The old scoring path: a shuffled stream seeded from the subset's id.
            counts = stream_counts(serialize_set(params.vocab, subset, zlib.crc32(subset.id.encode("utf-8"))),
                                   len(params.vocab))
            assert_batches_equal(batch[r], counts)
            assert e == energy_from_counts(params, counts)
            assert p == float(softmax(logits_from_counts(params, counts))[1])
    for s in corpus.train:
        t = serialize_set(params.vocab, s, zlib.crc32(s.id.encode("utf-8")))
        assert energy_scorer.score(s) == energy_from_counts(params, stream_counts(t, len(params.vocab)))


def _union_mixture(corpus, per_class=4):
    return list(evalkit.build_eval_mixture(*pools(corpus.test), per_class_count=per_class, rng_seed=11).sets)


@pytest.mark.parametrize("corpus_name", ["qa_corpus", "snli_corpus"])
def test_statement_table_counts_equal_the_dense_reference(corpus_name, request):
    corpus = request.getfixturevalue(corpus_name)
    vocab = build_vocabulary(corpus.train)
    for s in _evaluation_sets(corpus) + _union_mixture(corpus):
        keeps = [tuple(range(len(s.statements)))] + _subsets(s)
        got = vocab.table.subsets(vocab.table.rows(s.statements), keeps)
        assert_batches_equal(got, subset_counts(count_rows(vocab, s.statements), keeps))


def test_each_statement_text_is_tokenized_once_per_vocabulary(qa_corpus, monkeypatch):
    sets = _union_mixture(qa_corpus, per_class=8)
    texts = {statement_text(st) for s in sets for st in s.statements}
    tokenized = []
    tokenize = model.tokenize
    monkeypatch.setattr(model, "tokenize", lambda text: tokenized.append(text) or tokenize(text))
    for seed in (11, 12):        # two vocabularies: each tokenizes every text once
        params = ModelParams.init(build_vocabulary(qa_corpus.train), seed=seed)
        tokenized.clear()
        for scorer in (EnergyScorer(params, 0.0), BinarySoftmaxScorer(params, 0.5)):
            for s in sets:
                verify_set(scorer, s)
                verify_elementwise(scorer, s, 0.0)
                locate(scorer, s)
        assert Counter(tokenized) == Counter(texts)


@pytest.mark.parametrize("corpus_name", ["qa_corpus", "snli_corpus"])
def test_oracle_score_many_equals_is_satisfiable_on_copies(corpus_name, request):
    corpus = request.getfixturevalue(corpus_name)
    oracle = OracleScorer()
    for s in _evaluation_sets(corpus):
        keeps = [tuple(range(len(s.statements)))] + _subsets(s)
        expected = [
            0.0 if is_satisfiable([s.statements[i].semantics for i in keep] + list(s.context_semantics))
            else 1.0
            for keep in keeps
        ]
        assert oracle.compile(s)(keeps) == expected
        assert expected[0] == oracle.score(s)


@pytest.mark.parametrize("corpus_name", ["qa_corpus", "snli_corpus"])
def test_a_subset_scores_the_same_alone_and_in_any_batch(corpus_name, request):
    corpus = request.getfixturevalue(corpus_name)
    params = ModelParams.init(build_vocabulary(corpus.train), seed=11)
    rng = random.Random(11)
    for scorer in (EnergyScorer(params, 0.0), BinarySoftmaxScorer(params, 0.5), OracleScorer()):
        for s in _evaluation_sets(corpus):
            score = scorer.compile(s)
            keeps = [tuple(range(len(s.statements)))] + _subsets(s)
            alone = {keep: score([keep])[0] for keep in keeps}
            rng.shuffle(keeps)  # mixed sizes, in a different order for every set
            assert dict(zip(keeps, score(keeps))) == alone
            assert score([]) == []


@pytest.fixture(scope="module", params=["qa", "snli"])
def mixture_and_model(request):
    corpus = request.getfixturevalue(f"{request.param}_corpus")
    base_c, base_i = pools(corpus.test)
    mixture = evalkit.build_eval_mixture(base_c, base_i, per_class_count=4, rng_seed=11)
    params = ModelParams.init(build_vocabulary(corpus.train), seed=11)
    # Threshold at the median set energy, so both verdicts occur.
    threshold = float(np.median([EnergyScorer(params, 0.0).score(s) for s in mixture.sets]))
    return mixture.sets, EnergyScorer(params, threshold), BinarySoftmaxScorer(params, 0.5)


def test_verification_and_locate_equal_with_and_without_score_many(mixture_and_model):
    sets, energy_scorer, binary_scorer = mixture_and_model
    for scorer in (energy_scorer, binary_scorer, OracleScorer()):
        for s in sets:
            assert verify_elementwise(scorer, s, 0.2) == verify_elementwise(Hidden(scorer), s, 0.2)
            assert locate(scorer, s) == locate(Hidden(scorer), s)

