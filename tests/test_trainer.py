import dataclasses
import math
import random

import numpy as np
import pytest

import setcoh.trainer as trainer_mod
from setcoh.datagen import NotABaseSetError, compose_union, pools
from setcoh.model import (
    EMBED_DIM,
    HIDDEN_DIM,
    ModelParams,
    TokenCounts,
    accumulate_grad_energy,
    accumulate_grad_logits,
    build_vocabulary,
    energy,
    energy_from_counts,
    logits_from_counts,
    serialize_set,
    softmax,
    zero_grads,
)
from setcoh.trainer import (
    CONTRAST_KINDS,
    SIDE_TAGS,
    CountsCache,
    EmptyValidationError,
    PoolExhaustedError,
    REGIMES,
    Threshold,
    TrainerConfig,
    TrainingDivergedError,
    _backprop,
    _base_rows,
    _binary_instances,
    _compile,
    _epoch_instances,
    _fit,
    _hinge_sides,
    _parts,
    _plan,
    _threshold_scan,
    build_contrast_batch,
    build_threshold_mixture,
    cross_entropy,
    fine_tune,
    hinge_loss,
    learn_threshold,
    train,
    train_binary,
)
from token_reference import assert_batches_equal, assert_row_is, count_rows, subset_counts


def _rows(sets, parts):
    """The rows of ``parts`` in a table over ``sets``."""
    row = {id(s): r for r, s in enumerate(sets)}
    return [row[id(part)] for part in parts]


class TestHinge:
    def test_margin_satisfied(self):
        assert hinge_loss(0.2, 0.5, 0.01) == 0.0

    def test_margin_violated(self):
        assert hinge_loss(0.5, 0.2, 0.01) == pytest.approx(0.31)

    def test_tie_pays_the_margin(self):
        for x in (-3.0, 0.0, 17.5):
            assert hinge_loss(x, x, 0.01) == pytest.approx(0.01)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_nonpositive_margin(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a positive finite number"):
            hinge_loss(0.0, 0.0, alpha)


class TestContrastKinds:
    def test_exactly_eight_ordered_kinds(self):
        assert CONTRAST_KINDS == (
            ("C", "I"), ("C", "CI"), ("C", "II"), ("CC", "I"),
            ("CC", "CI"), ("CC", "II"), ("CI", "I"), ("I", "II"),
        )

    def test_regime_subsets(self):
        assert REGIMES["basic"] == CONTRAST_KINDS[:1]
        assert REGIMES["six"] == CONTRAST_KINDS[:6]
        assert REGIMES["eight"] == CONTRAST_KINDS


class TestContrastBatch:
    def test_basic_regime_one_pair_one_instance(self, small_qa_corpus):
        pool_c, pool_i = pools(small_qa_corpus.train)
        batch = build_contrast_batch(pool_c, pool_i, "basic", rng_seed=0, pairs=1)
        assert len(batch) == 1
        assert batch[0].kind == ("C", "I")

    def test_eight_regime_covers_all_kinds(self, small_qa_corpus):
        pool_c, pool_i = pools(small_qa_corpus.train)
        batch = build_contrast_batch(pool_c, pool_i, "eight", rng_seed=0, pairs=1)
        assert [inst.kind for inst in batch] == list(CONTRAST_KINDS)

    def test_mixed_union_is_more_consistent_side(self, small_qa_corpus):
        pool_c, pool_i = pools(small_qa_corpus.train)
        batch = build_contrast_batch(pool_c, pool_i, "eight", rng_seed=1, pairs=2)
        for inst in batch:
            if inst.kind == ("CI", "I"):
                assert inst.more.provenance == "CI"
                assert inst.less.provenance == "I"

    def test_union_parts_have_disjoint_namespaces(self, small_qa_corpus):
        pool_c, pool_i = pools(small_qa_corpus.train)
        for inst in build_contrast_batch(pool_c, pool_i, "eight", rng_seed=2, pairs=3):
            for parts in (inst.more_parts, inst.less_parts):
                seen = set()
                for part in parts:
                    assert not (part.namespaces() & seen)
                    seen |= part.namespaces()

    def test_pool_exhausted(self, small_qa_corpus):
        pool_c, pool_i = pools(small_qa_corpus.train)
        with pytest.raises(PoolExhaustedError):
            build_contrast_batch(pool_c[:1], pool_i[:1], "eight", rng_seed=0, pairs=1)

    def test_base_pair_stream_identical_across_regimes(self, small_qa_corpus):
        pool_c, pool_i = pools(small_qa_corpus.train)
        streams = {}
        for regime in ("basic", "six", "eight"):
            batch = build_contrast_batch(pool_c, pool_i, regime, rng_seed=6, pairs=5)
            streams[regime] = [
                (inst.more.id, inst.less.id) for inst in batch if inst.kind == ("C", "I")
            ]
        assert streams["basic"] == streams["six"] == streams["eight"]

    def test_counts_cache_matches_serialization(self, small_qa_corpus):
        pool_c, pool_i = pools(small_qa_corpus.train)
        vocab = build_vocabulary(small_qa_corpus.train)
        cache = CountsCache(vocab, pool_c + pool_i)
        params = ModelParams.init(vocab, d=8, h=6, seed=0)
        batch = build_contrast_batch(pool_c, pool_i, "eight", rng_seed=3, pairs=2)
        from setcoh.model import energy_from_counts
        for inst in batch:
            via_cache = energy_from_counts(params, cache.counts(_rows(pool_c + pool_i, inst.more_parts)))
            via_stream = energy(params, serialize_set(vocab, inst.more, 0))
            assert via_cache == via_stream


class TestThresholdScan:
    def test_separable_case_returns_midpoint(self):
        scores = [0.1, 0.2, 0.8, 0.9]
        labels = ["consistent", "consistent", "inconsistent", "inconsistent"]
        value, acc, degenerate = _threshold_scan(scores, labels)
        assert value == pytest.approx(0.5)
        assert acc == 1.0
        assert not degenerate

    def test_all_equal_scores_degenerate(self):
        value, acc, degenerate = _threshold_scan(
            [0.3, 0.3, 0.3, 0.3],
            ["consistent", "consistent", "inconsistent", "inconsistent"],
        )
        assert math.isinf(value) and value > 0
        assert acc == 0.5
        assert degenerate

    def test_matches_exhaustive_scan_on_random_configs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            scores = [float(x) for x in rng.normal(0, 1, n)]
            labels = ["consistent" if rng.random() < 0.5 else "inconsistent" for _ in range(n)]
            value, acc, _ = _threshold_scan(scores, labels)

            def macro(t):
                pred_c = [x < t for x in scores]
                cons = [label == "consistent" for label in labels]
                nc, ni = sum(cons), len(cons) - sum(cons)
                acc_c = sum(p and c for p, c in zip(pred_c, cons)) / nc if nc else 0.0
                acc_i = sum((not p) and (not c) for p, c in zip(pred_c, cons)) / ni if ni else 0.0
                return (acc_c + acc_i) / 2

            grid = [float("-inf"), float("inf")] + [x - 1e-9 for x in scores] + [x + 1e-9 for x in scores]
            assert acc == pytest.approx(max(macro(t) for t in grid))
            assert macro(value) == pytest.approx(acc)

    def test_empty_validation(self):
        with pytest.raises(EmptyValidationError):
            _threshold_scan([], [])

    def test_learn_threshold_over_model_energies(self, small_qa_corpus):
        vocab = build_vocabulary(small_qa_corpus.train)
        params = ModelParams.init(vocab, d=8, h=6, seed=1)
        mixture = build_threshold_mixture(small_qa_corpus.validation1, rng_seed=0, per_class=4)
        threshold = learn_threshold(params, mixture, epoch=3)
        assert isinstance(threshold, Threshold)
        assert threshold.learned_epoch == 3
        assert threshold.source == "energy"
        assert math.isfinite(threshold.value) or threshold.degenerate

    @pytest.mark.parametrize("dims", [(8, 6), (EMBED_DIM, HIDDEN_DIM)], ids=["small", "cli-widths"])
    def test_learn_threshold_equals_the_scan_of_reference_energies(self, small_qa_corpus, dims):
        # 70 sets: two full batches of TrainerConfig.batch_size and a short one.
        vocab = build_vocabulary(small_qa_corpus.train)
        params = ModelParams.init(vocab, *dims, seed=2)
        mixture = build_threshold_mixture(small_qa_corpus.validation1, rng_seed=0, per_class=14)
        threshold = learn_threshold(params, mixture, epoch=1)
        reference = [energy_from_counts(params, _ref_counts(vocab, s)) for s in mixture]
        value, _, degenerate = _threshold_scan(reference, [s.label for s in mixture])
        assert (threshold.value, threshold.degenerate) == (value, degenerate)

    def test_threshold_mixture_has_expected_classes(self, small_qa_corpus):
        mixture = build_threshold_mixture(small_qa_corpus.validation1, rng_seed=0, per_class=3)
        tags = {s.provenance for s in mixture}
        assert tags == {"C", "CC", "I", "CI", "II"}

    def test_threshold_mixture_rejects_zero_per_class(self, small_qa_corpus):
        with pytest.raises(ValueError, match="per_class_count must be >= 1"):
            build_threshold_mixture(small_qa_corpus.validation1, per_class=0)

    @pytest.mark.parametrize("label, tag", [("consistent", "C"), ("inconsistent", "I")])
    @pytest.mark.parametrize("per_class", [None, 2])
    def test_threshold_mixture_without_a_label_names_the_empty_pool(self, small_qa_corpus, label, tag, per_class):
        # The first class that needs the missing letter names it, whatever per_class is.
        sets = [s for s in small_qa_corpus.validation1 if s.label != label]
        with pytest.raises(PoolExhaustedError, match=f"^class {tag!r} needs {tag!r} base sets, "
                                                     f"and the {tag!r} pool is empty$"):
            build_threshold_mixture(sets, per_class=per_class)


class TestTraining:
    def test_single_sgd_step_decreases_active_hinge(self, small_qa_corpus):
        pool_c, pool_i = pools(small_qa_corpus.train)
        vocab = build_vocabulary(small_qa_corpus.train)
        cache = CountsCache(vocab, pool_c + pool_i)
        from setcoh.model import energy_from_counts, zero_grads, accumulate_grad_energy

        params = ModelParams.init(vocab, d=8, h=6, seed=2)
        inst = build_contrast_batch(pool_c, pool_i, "basic", rng_seed=0, pairs=1)[0]
        tc_more, tc_less = (cache.counts(_rows(pool_c + pool_i, parts)) for parts in (inst.more_parts, inst.less_parts))
        alpha = 10.0  # force the hinge active
        before = hinge_loss(
            energy_from_counts(params, tc_more), energy_from_counts(params, tc_less), alpha
        )
        grads = zero_grads(params)
        accumulate_grad_energy(params, tc_more, grads, scale=1.0)
        accumulate_grad_energy(params, tc_less, grads, scale=-1.0)
        for name, arr in params.arrays().items():
            arr -= 1e-6 * grads[name]
        after = hinge_loss(
            energy_from_counts(params, tc_more), energy_from_counts(params, tc_less), alpha
        )
        assert after < before

    def test_training_is_deterministic(self, small_qa_corpus):
        vocab = build_vocabulary(small_qa_corpus.train)
        config = TrainerConfig(epochs=2, rng_seed=4, pairs_per_epoch=10, val_per_class=4)
        results = []
        for _ in range(2):
            params = ModelParams.init(vocab, d=8, h=6, seed=4)
            results.append(train(params, small_qa_corpus, config))
        a, b = results
        assert a.threshold == b.threshold
        for name, arr in a.params.arrays().items():
            assert np.array_equal(arr, b.params.arrays()[name])
        assert [s.mean_loss for s in a.log] == [s.mean_loss for s in b.log]

    def test_loss_decreases_on_small_corpus(self, small_qa_corpus):
        vocab = build_vocabulary(small_qa_corpus.train)
        params = ModelParams.init(vocab, d=16, h=12, seed=5)
        config = TrainerConfig(epochs=5, rng_seed=5, pairs_per_epoch=30, val_per_class=6)
        result = train(params, small_qa_corpus, config)
        assert result.log[0].mean_loss > 0.0
        assert result.log[-1].mean_loss < result.log[0].mean_loss
        assert result.threshold.learned_epoch == max(
            range(len(result.log)), key=lambda e: (result.log[e].val1_macro_acc, -e)
        )

    def test_divergence_aborts_with_epoch_report(self, small_qa_corpus):
        vocab = build_vocabulary(small_qa_corpus.train)
        params = ModelParams.init(vocab, d=8, h=6, seed=6)
        params.emb[2, 0] = float("nan")
        config = TrainerConfig(epochs=1, rng_seed=6, pairs_per_epoch=4, val_per_class=4)
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train(params, small_qa_corpus, config)

    @pytest.mark.parametrize("name", ["emb", "w_hidden", "b_energy", "w_class"])
    def test_a_non_finite_parameter_is_named(self, small_qa_corpus, name):
        params = ModelParams.init(build_vocabulary(small_qa_corpus.train), d=8, h=6, seed=6)
        params.arrays()[name].flat[-1] = math.nan
        flat = np.concatenate([arr.ravel() for arr in params.arrays().values()])
        with pytest.raises(TrainingDivergedError, match=f"^non-finite {name} at epoch 2, step 3$"):
            trainer_mod._check_finite(0.5, params, flat, 2, 3)


class TestBinary:
    def test_cross_entropy_values(self):
        assert cross_entropy(np.array([0.0, 0.0]), 0) == pytest.approx(math.log(2))
        assert cross_entropy(np.array([10.0, -10.0]), 0) == pytest.approx(0.0, abs=1e-6)

    def test_train_binary_returns_softmax_threshold(self, small_qa_corpus):
        vocab = build_vocabulary(small_qa_corpus.train)
        params = ModelParams.init(vocab, d=8, h=6, seed=7)
        config = TrainerConfig(epochs=2, rng_seed=7, pairs_per_epoch=10, val_per_class=4)
        result = train_binary(params, small_qa_corpus, config)
        assert result.threshold.source == "inconsistent-softmax"
        assert result.params is not params


class TestFineTune:
    def test_two_n_pairs_per_epoch(self, small_qa_corpus, small_snli_corpus, monkeypatch):
        import setcoh.trainer as trainer_mod

        calls = []
        original = trainer_mod._plan

        def spy(pools, regime, rng_seed, pairs):
            calls.append((len(pools.c), pairs))
            return original(pools, regime, rng_seed, pairs)

        monkeypatch.setattr(trainer_mod, "_plan", spy)
        vocab = build_vocabulary(small_qa_corpus.train + small_snli_corpus.train)
        params = ModelParams.init(vocab, d=8, h=6, seed=8)
        config = TrainerConfig(epochs=2, rng_seed=8, regime="basic")
        fine_tune(params, small_qa_corpus.train, small_snli_corpus.train, n=5, config=config)
        assert calls == [(5, 5)] * 4  # n source + n target, per epoch

    def test_zero_l2_same_pool_is_continued_training(self, small_qa_corpus):
        vocab = build_vocabulary(small_qa_corpus.train)
        params = ModelParams.init(vocab, d=8, h=6, seed=9)
        config = TrainerConfig(epochs=1, rng_seed=9, l2_weight=0.0, regime="basic")
        tuned = fine_tune(params, small_qa_corpus.train, small_qa_corpus.train, n=4, config=config)
        assert any(
            not np.array_equal(tuned.arrays()[name], params.arrays()[name])
            for name in params.arrays()
        )

    def test_anchor_modes_differ(self, small_qa_corpus):
        vocab = build_vocabulary(small_qa_corpus.train)
        outs = {}
        for anchor in ("zero", "start"):
            params = ModelParams.init(vocab, d=8, h=6, seed=10)
            config = TrainerConfig(epochs=2, rng_seed=10, l2_weight=0.5, l2_anchor=anchor, regime="basic")
            outs[anchor] = fine_tune(params, small_qa_corpus.train, small_qa_corpus.train, n=4, config=config)
        assert not np.array_equal(outs["zero"].emb, outs["start"].emb)

    def test_n_exceeding_pool_rejected(self, small_qa_corpus):
        vocab = build_vocabulary(small_qa_corpus.train)
        params = ModelParams.init(vocab, d=8, h=6, seed=11)
        with pytest.raises(ValueError):
            fine_tune(params, small_qa_corpus.train, small_qa_corpus.train, n=10_000,
                      config=TrainerConfig(epochs=1))

    def test_n_equal_to_the_smaller_pool_is_accepted(self, small_qa_corpus):
        vocab = build_vocabulary(small_qa_corpus.train)
        params = ModelParams.init(vocab, d=8, h=6, seed=11)
        target = small_qa_corpus.train[:-1]         # its I pool holds 29 sets, one fewer than its C pool
        config = TrainerConfig(epochs=1, regime="basic", pairs_per_epoch=4)
        assert list(map(len, pools(target))) == [30, 29]
        fine_tune(params, small_qa_corpus.train, target, n=29, config=config)
        with pytest.raises(ValueError, match="n exceeds a pool size"):
            fine_tune(params, small_qa_corpus.train, target, n=30, config=config)


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TrainerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainerConfig(regime="nine")
    for field in ("epochs", "batch_size", "pairs_per_epoch", "val_per_class"):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            TrainerConfig(**{field: 0})


@pytest.mark.parametrize("field, value", [
    ("alpha", math.nan), ("alpha", math.inf), ("alpha", -math.inf),
    ("learning_rate", math.nan), ("learning_rate", math.inf),
    ("l2_weight", math.nan), ("l2_weight", math.inf), ("l2_weight", -1e-5),
])
def test_a_non_finite_or_negative_rate_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a .*, got {value}"):
        TrainerConfig(**{field: value})


@pytest.mark.parametrize("anchor", ["strat", "", "Start", None])
def test_an_unknown_l2_anchor_is_rejected(anchor):
    with pytest.raises(ValueError, match="l2_anchor must be 'zero' or 'start'"):
        TrainerConfig(l2_anchor=anchor)


# Reference copy of the per-instance training loop the trainer used to run:
# unions composed eagerly from the partner stream, counts serialized from
# scratch for every instance, no caches, forward passes repeated.

def _ref_partner(pool, rng, taken):
    for _ in range(200):
        candidate = pool[rng.randrange(len(pool))]
        if not (candidate.namespaces() & taken):
            return candidate
    raise PoolExhaustedError("no namespace-disjoint partner after 200 draws")


def _ref_contrast_groups(pool_c, pool_i, regime, rng_seed, pairs):
    """Per base pair, its (more, less, kind) instances with composed unions."""
    kinds = REGIMES[regime]
    pair_rng = random.Random(f"contrast-pairs:{rng_seed}")
    rng = random.Random(f"contrast-partners:{rng_seed}")
    needed = {tag for kind in kinds for tag in kind}
    groups = []
    for _ in range(pairs or min(len(pool_c), len(pool_i))):
        i = pair_rng.randrange(min(len(pool_c), len(pool_i)))
        base_c, base_i = pool_c[i], pool_i[i]
        taken = base_c.namespaces() | base_i.namespaces()
        by_tag = {"C": (base_c,), "I": (base_i,)}
        if "CC" in needed:
            by_tag["CC"] = (base_c, _ref_partner(pool_c, rng, taken))
        if "CI" in needed:
            by_tag["CI"] = (_ref_partner(pool_c, rng, taken), base_i)
        if "II" in needed:
            by_tag["II"] = (base_i, _ref_partner(pool_i, rng, taken))
        sets = {tag: parts[0] if len(parts) == 1 else compose_union(parts, shuffle_seed=rng.randrange(2**31))
                for tag, parts in by_tag.items()}
        groups.append([(sets[more], sets[less], (more, less)) for more, less in kinds])
    return groups


def _ref_counts(vocab, s):
    return TokenCounts.of(serialize_set(vocab, s, 0), len(vocab))


class _RefAdam:
    """Adam (betas 0.9 / 0.999, epsilon 1e-8) stepping each parameter array on its own."""

    def __init__(self, params, config):
        self.lr, self.t = config.learning_rate, 0
        self.m, self.v = zero_grads(params), zero_grads(params)

    def step(self, params, grads):
        self.t += 1
        for name, arr in params.arrays().items():
            g = grads[name]
            self.m[name] = 0.9 * self.m[name] + (1.0 - 0.9) * g
            self.v[name] = 0.999 * self.v[name] + (1.0 - 0.999) * g * g
            m_hat = self.m[name] / (1.0 - 0.9 ** self.t)
            v_hat = self.v[name] / (1.0 - 0.999 ** self.t)
            arr -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def _ref_fit(params, config, epoch_batches, binary=False, anchor=None, l2_weight=0.0, mixture=None):
    """Returns (params, best (acc, params, threshold value, epoch) or None, mean losses)."""
    vocab = params.vocab
    if mixture is not None:
        val_counts = [_ref_counts(vocab, s) for s in mixture]
        labels = [s.label for s in mixture]
    optimizer = _RefAdam(params, config)
    best, mean_losses = None, []
    for epoch in range(config.epochs):
        examples = epoch_batches(epoch)
        losses = []
        for start in range(0, len(examples), config.batch_size):
            batch = examples[start : start + config.batch_size]
            grads = zero_grads(params)
            batch_loss = 0.0
            for example in batch:
                if binary:
                    s, label = example
                    tc = _ref_counts(vocab, s)
                    probs = softmax(logits_from_counts(params, tc))
                    batch_loss += -float(np.log(max(probs[label], 1e-300)))
                    upstream = probs.copy()
                    upstream[label] -= 1.0
                    accumulate_grad_logits(params, tc, upstream, grads, scale=1.0 / len(batch))
                    continue
                more, less, _ = example
                tc_more, tc_less = _ref_counts(vocab, more), _ref_counts(vocab, less)
                loss = hinge_loss(energy_from_counts(params, tc_more), energy_from_counts(params, tc_less),
                                  config.alpha)
                batch_loss += loss
                if loss > 0.0:
                    accumulate_grad_energy(params, tc_more, grads, scale=1.0 / len(batch))
                    accumulate_grad_energy(params, tc_less, grads, scale=-1.0 / len(batch))
            if l2_weight:
                for name, arr in params.arrays().items():
                    delta = arr if anchor is None else arr - anchor[name]
                    grads[name] += 2.0 * l2_weight * delta
                    batch_loss += l2_weight * float((delta * delta).sum())
            losses.append(batch_loss / len(batch))
            optimizer.step(params, grads)
        if mixture is None:
            continue
        if binary:
            scores = [float(softmax(logits_from_counts(params, tc))[1]) for tc in val_counts]
        else:
            scores = [energy_from_counts(params, tc) for tc in val_counts]
        value, acc, _ = _threshold_scan(scores, labels)
        mean_losses.append(float(np.mean(losses)))
        if best is None or acc > best[0]:
            best = (acc, params.copy(), value, epoch)
    return params, best, mean_losses


def _assert_same_params(a, b):
    for name, arr in a.arrays().items():
        assert np.array_equal(arr, b.arrays()[name]), name


TINY = dict(epochs=2, batch_size=12, pairs_per_epoch=6, val_per_class=4, learning_rate=2e-3)
# One short epoch at the CLI's widths and batch size, where BLAS runs its d = h = 64 kernels.
CLI_SHORT = dict(epochs=1, pairs_per_epoch=8, val_per_class=6, learning_rate=2e-3)


def _check_train(corpus, regime, seed, dims, settings):
    vocab = build_vocabulary(corpus.train)
    config = TrainerConfig(rng_seed=seed, regime=regime, **settings)
    result = train(ModelParams.init(vocab, *dims, seed=seed), corpus, config)
    pool_c, pool_i = pools(corpus.train)
    mixture = build_threshold_mixture(corpus.validation1, rng_seed=seed, per_class=config.val_per_class)

    def instances(epoch):
        groups = _ref_contrast_groups(pool_c, pool_i, regime, seed * 1_000 + epoch, config.pairs_per_epoch)
        return [inst for group in groups for inst in group]

    _, best, losses = _ref_fit(ModelParams.init(vocab, *dims, seed=seed), config, instances, mixture=mixture)
    _assert_same_params(result.params, best[1])
    assert (result.threshold.value, result.threshold.learned_epoch) == (best[2], best[3])
    assert [stats.mean_loss for stats in result.log] == losses


def _check_train_binary(corpus, seed, dims, settings):
    vocab = build_vocabulary(corpus.train)
    config = TrainerConfig(rng_seed=seed, **settings)
    result = train_binary(ModelParams.init(vocab, *dims, seed=seed), corpus, config)
    pool_c, pool_i = pools(corpus.train)
    mixture = build_threshold_mixture(corpus.validation1, rng_seed=seed, per_class=config.val_per_class)

    def examples(epoch):
        out = []
        for group in _ref_contrast_groups(pool_c, pool_i, "eight", seed * 1_000 + epoch, config.pairs_per_epoch):
            seen = set()
            for more, less, (more_tag, less_tag) in group:
                for s, tag in ((more, more_tag), (less, less_tag)):
                    if id(s) not in seen:
                        seen.add(id(s))
                        out.append((s, int("I" in tag)))
        return out

    _, best, losses = _ref_fit(ModelParams.init(vocab, *dims, seed=seed), config, examples,
                               binary=True, mixture=mixture)
    _assert_same_params(result.params, best[1])
    assert (result.threshold.value, result.threshold.learned_epoch) == (best[2], best[3])
    assert [stats.mean_loss for stats in result.log] == losses


def _check_fine_tune(source, target, anchor_mode, seed, dims, settings):
    vocab = build_vocabulary(source + target)
    config = TrainerConfig(rng_seed=seed, regime="eight", l2_weight=0.05, l2_anchor=anchor_mode, **settings)
    start = ModelParams.init(vocab, *dims, seed=seed)
    tuned = fine_tune(start, source, target, n=4, config=config)
    src, tgt = pools(source), pools(target)

    def instances(epoch):
        rng = random.Random(f"fine-tune:{seed}:{epoch}")
        out = []
        for (pool_c, pool_i), offset in ((src, 0), (tgt, 1)):
            indices = rng.sample(range(min(len(pool_c), len(pool_i))), 4)
            groups = _ref_contrast_groups([pool_c[i] for i in indices], [pool_i[i] for i in indices],
                                          "eight", seed * 10_000 + epoch * 10 + offset, 4)
            out.extend(inst for group in groups for inst in group)
        rng.shuffle(out)
        return out

    params = start.copy()
    anchor = {name: arr.copy() for name, arr in params.arrays().items()} if anchor_mode == "start" else None
    reference, _, _ = _ref_fit(params, config, instances, anchor=anchor, l2_weight=0.05)
    _assert_same_params(tuned, reference)


class TestDifferential:
    @pytest.mark.parametrize("regime", ["basic", "eight"])
    def test_train_matches_reference_loop(self, small_qa_corpus, regime):
        _check_train(small_qa_corpus, regime, 3, (8, 6), TINY)

    def test_train_binary_matches_reference_loop(self, small_qa_corpus):
        _check_train_binary(small_qa_corpus, 4, (8, 6), TINY)

    @pytest.mark.parametrize("anchor_mode", ["zero", "start"])
    def test_fine_tune_matches_reference_loop(self, small_qa_corpus, small_snli_corpus, anchor_mode):
        _check_fine_tune(small_qa_corpus.train, small_snli_corpus.train, anchor_mode, 5, (8, 6), TINY)

    def test_train_matches_reference_loop_at_cli_widths(self, qa_corpus):
        _check_train(qa_corpus, "eight", 11, (EMBED_DIM, HIDDEN_DIM), CLI_SHORT)

    def test_train_binary_matches_reference_loop_at_cli_widths(self, qa_corpus):
        _check_train_binary(qa_corpus, 11, (EMBED_DIM, HIDDEN_DIM), CLI_SHORT)

    def test_fine_tune_matches_reference_loop_at_cli_widths(self, qa_corpus):
        _check_fine_tune(qa_corpus.train, qa_corpus.validation2, "start", 11, (EMBED_DIM, HIDDEN_DIM), CLI_SHORT)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_chunked_epochs_match_reference_loop(self, small_qa_corpus, small_snli_corpus, chunk, monkeypatch):
        # Batches of 4 across chunks: 12 per eight-regime epoch, and 8 per binary one, the last partial.
        # 4 is coprime to the 5 sides a pair gives the binary baseline, so neighbouring batches' labels differ.
        monkeypatch.setattr(trainer_mod, "_CHUNK", chunk)
        settings = dict(TINY, batch_size=4)
        _check_train(small_qa_corpus, "eight", 3, (8, 6), settings)
        _check_train(small_qa_corpus, "basic", 3, (8, 6), dict(settings, batch_size=2))
        _check_train_binary(small_qa_corpus, 4, (8, 6), settings)
        _check_fine_tune(small_qa_corpus.train, small_snli_corpus.train, "start", 5, (8, 6), settings)

    def test_on_demand_unions_match_the_partner_seed_stream(self, small_qa_corpus):
        pool_c, pool_i = pools(small_qa_corpus.train)
        reference = [inst for group in _ref_contrast_groups(pool_c, pool_i, "eight", 9, 5) for inst in group]
        batch = build_contrast_batch(pool_c, pool_i, "eight", rng_seed=9, pairs=5)
        assert len(batch) == len(reference)
        for inst, (more, less, kind) in zip(batch, reference):
            assert inst.kind == kind
            assert inst.more == more and inst.less == less
            for parts, seed, union in ((inst.more_parts, inst.more_seed, more),
                                       (inst.less_parts, inst.less_seed, less)):
                if len(parts) > 1:
                    assert compose_union(parts, shuffle_seed=seed) == union


def _plan_side(rows, plan, pair, tag):
    """The set or the composed union a plan names for one side of one base pair."""
    column = SIDE_TAGS.index(tag)
    parts, seed = _parts(rows.sets, int(plan.sides[pair, column])), int(plan.seeds[pair, column])
    return parts[0] if seed < 0 else compose_union(parts, shuffle_seed=seed)


class TestPlan:
    """The integer plan draws what the per-instance reference draws, in its order."""

    @pytest.mark.parametrize("regime", ["basic", "six", "eight"])
    def test_plan_rows_name_the_reference_parts_in_order(self, small_qa_corpus, regime):
        pool_c, pool_i = pools(small_qa_corpus.train)
        (rows,) = _base_rows((pool_c, pool_i))
        kinds = REGIMES[regime]
        for epoch in range(4):
            plan = _plan(rows, regime, 3_000 + epoch, 9)
            reference = [inst for group in _ref_contrast_groups(pool_c, pool_i, regime, 3_000 + epoch, 9)
                         for inst in group]
            hinge = _hinge_sides(plan, regime).tolist()
            assert len(hinge) == len(reference) == 9 * len(kinds)
            for j, (keys, (more, less, kind)) in enumerate(zip(hinge, reference)):
                pair = j // len(kinds)
                assert keys == [plan.sides[pair, SIDE_TAGS.index(tag)] for tag in kind]
                assert [_plan_side(rows, plan, pair, tag) for tag in kind] == [more, less]
            unused = [SIDE_TAGS.index(tag) for tag in SIDE_TAGS if not any(tag in kind for kind in kinds)]
            assert (plan.sides[:, unused] == -1).all()

    def test_binary_examples_are_the_reference_sides_in_order(self, small_qa_corpus):
        pool_c, pool_i = pools(small_qa_corpus.train)
        (rows,) = _base_rows((pool_c, pool_i))
        config = TrainerConfig(rng_seed=4, pairs_per_epoch=7)
        for epoch in range(3):
            examples = _binary_instances(rows, config, epoch)
            plan = _plan(rows, "eight", 4_000 + epoch, 7)
            assert np.array_equal(examples.sides, plan.sides.ravel())
            got = [(_plan_side(rows, plan, j // len(SIDE_TAGS), SIDE_TAGS[j % len(SIDE_TAGS)]), int(label))
                   for j, label in enumerate(examples.labels)]
            want = []
            for group in _ref_contrast_groups(pool_c, pool_i, "eight", 4_000 + epoch, 7):
                seen = set()
                for more, less, (more_tag, less_tag) in group:
                    for s, tag in ((more, more_tag), (less, less_tag)):
                        if id(s) not in seen:
                            seen.add(id(s))
                            want.append((s, int("I" in tag)))
            assert got == want

    def test_pool_exhausted_at_the_same_draw(self, small_qa_corpus, monkeypatch):
        pool_c, pool_i = (pool[:6] for pool in pools(small_qa_corpus.train))
        # A C set sharing a namespace with every set: no partner is disjoint from its pair.
        blocker = dataclasses.replace(pool_c[3], id="blocker")
        object.__setattr__(blocker, "_namespaces", frozenset().union(*(s.namespaces() for s in pool_c + pool_i)))
        pool_c[3] = blocker
        draws = []

        class Counting(random.Random):
            def randrange(self, *args):
                draws.append(args)
                return super().randrange(*args)

        monkeypatch.setattr(random, "Random", Counting)
        streams = []
        for build in (lambda: build_contrast_batch(pool_c, pool_i, "eight", rng_seed=1, pairs=12),
                      lambda: _ref_contrast_groups(pool_c, pool_i, "eight", 1, 12)):
            draws.clear()
            with pytest.raises(PoolExhaustedError):
                build()
            streams.append(list(draws))
        assert streams[0] == streams[1]
        assert (2**31,) in streams[0]          # some base pairs were complete before the failing one
        with pytest.raises(PoolExhaustedError, match="class 'CC': .* for set 'blocker' in the C pool of size 6"):
            build_contrast_batch(pool_c, pool_i, "eight", rng_seed=1, pairs=12)


class TestTrainingInputs:
    def test_counts_cache_keys_sets_by_identity(self, small_qa_corpus):
        vocab = build_vocabulary(small_qa_corpus.train)
        a, b = small_qa_corpus.train[0], small_qa_corpus.train[2]
        clash = dataclasses.replace(b, id=a.id)
        cache = CountsCache(vocab, [a, clash])
        for row, original in enumerate((a, b)):
            got, want = cache.counts([row]), _ref_counts(vocab, original)
            assert np.array_equal(got.ids, want.ids) and np.array_equal(got.counts, want.counts)
            assert got.total == want.total

    def test_union_counts_are_the_sum_of_the_parts(self, small_qa_corpus):
        pool_c, pool_i = pools(small_qa_corpus.train)
        vocab = build_vocabulary(small_qa_corpus.train)
        cache = CountsCache(vocab, pool_c + pool_i)
        for inst in build_contrast_batch(pool_c, pool_i, "eight", rng_seed=7, pairs=3):
            got, want = cache.counts(_rows(pool_c + pool_i, inst.less_parts)), _ref_counts(vocab, inst.less)
            assert got.ids.dtype == want.ids.dtype and got.counts.dtype == want.counts.dtype
            assert np.array_equal(got.ids, want.ids) and np.array_equal(got.counts, want.counts)
            assert got.total == want.total

    def test_batch_counts_equal_per_side_counts(self, small_qa_corpus):
        (rows,) = _base_rows(pools(small_qa_corpus.train))
        vocab = build_vocabulary(small_qa_corpus.train)
        keys = _hinge_sides(_plan(rows, "eight", 8, 4), "eight").ravel()
        sides = [_parts(rows.sets, key) for key in keys.tolist()]
        assert {len(parts) for parts in sides} == {1, 2}
        cache = CountsCache(vocab, rows.sets)
        batch = cache.batch(keys)
        assert batch.shape == (len(keys), len(vocab))
        for r, parts in enumerate(sides):
            union = parts[0] if len(parts) == 1 else compose_union(parts)
            for want in (cache.counts(_rows(rows.sets, parts)), _ref_counts(vocab, union)):
                assert_row_is(batch[r], want)

    def test_counts_cache_equals_a_per_set_tokenization_pass(self, small_qa_corpus):
        (rows,) = _base_rows(pools(small_qa_corpus.train))
        vocab = build_vocabulary(small_qa_corpus.train)
        cache = CountsCache(vocab, rows.sets)
        keys = _epoch_instances(rows, TrainerConfig(regime="eight"), 0).sides.ravel()
        batch = cache.batch(keys)
        for r, key in enumerate(keys.tolist()):
            statements = [st for part in _parts(rows.sets, key) for st in part.statements]
            want = subset_counts(count_rows(vocab, statements), [range(len(statements))])
            assert_batches_equal(batch[r : r + 1], want)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_counts_cache_blocks_change_no_count(self, small_qa_corpus, monkeypatch, block):
        (rows,) = _base_rows(pools(small_qa_corpus.train))
        keys = _epoch_instances(rows, TrainerConfig(regime="eight"), 0).sides.ravel()
        want = CountsCache(build_vocabulary(small_qa_corpus.train), rows.sets).batch(keys)
        monkeypatch.setattr(trainer_mod, "_BLOCK", block)
        cache = CountsCache(build_vocabulary(small_qa_corpus.train), rows.sets)
        assert len(rows.sets) > 3 * block
        assert_batches_equal(cache.batch(keys), want)

    def test_training_pools_take_base_sets_only(self, small_qa_corpus):
        pool_c, _ = pools(small_qa_corpus.train)
        union = compose_union(pool_c[:2], set_id="train-cc-x")
        splits = dataclasses.replace(small_qa_corpus, train=small_qa_corpus.train + [union])
        vocab = build_vocabulary(small_qa_corpus.train)
        config = TrainerConfig(epochs=1, regime="basic", pairs_per_epoch=2, val_per_class=2)
        for fit in (train, train_binary):
            with pytest.raises(NotABaseSetError, match="'train-cc-x'"):
                fit(ModelParams.init(vocab, d=8, h=6), splits, config)
        with pytest.raises(NotABaseSetError, match="'train-cc-x'"):
            fine_tune(ModelParams.init(vocab, d=8, h=6), splits.train, small_qa_corpus.train, n=2, config=config)


def _ref_backprop(params, grads, sides, pooled, hidden, calls, d_hidden):
    """Reference for ``_backprop`` from a batch's own (sides, V) counts: the embedding rows as one weighted
    ``bincount`` over (rows x d) cells, which adds its weights in the order given."""
    h = hidden[calls]
    d_pre = (1.0 - h * h) * d_hidden
    grads["b_hidden"][...] = d_pre.sum(axis=0)
    grads["w_hidden"][...] = np.einsum("ci,cj->ij", pooled[calls], d_pre)
    d_pooled = np.matmul(params.w_hidden, d_pre[:, :, None])[:, :, 0]
    side, ids = np.nonzero(sides)                # side by side, each side's ids ascending
    bounds = np.searchsorted(side, np.arange(len(sides) + 1))
    per_call = np.diff(bounds)[calls]
    rows = np.arange(per_call.sum()) + np.repeat(bounds[calls] - np.cumsum(per_call) + per_call, per_call)
    d = d_pooled.shape[1]
    cells = ids[rows][:, None] * d + np.arange(d)
    terms = d_pooled[np.repeat(np.arange(len(calls)), per_call)]
    terms *= (sides[side, ids] / sides.sum(axis=1)[side])[rows, None]
    emb = grads["emb"]
    emb[...] = np.bincount(cells.ravel(), terms.ravel(), minlength=emb.size).reshape(emb.shape)


def _training_inputs(corpus, snli_corpus, mode, monkeypatch):
    """The start parameters, and the config, table and epoch examples that one trainer gives ``_fit``."""
    captured = []

    def spy(params, config, table, epoch_examples, *rest, **kwargs):
        captured.append((config, table, epoch_examples))
        return iter([0.0])                 # one epoch, so that train and train_binary pick it

    monkeypatch.setattr(trainer_mod, "_fit", spy)
    vocab = build_vocabulary(corpus.train + snli_corpus.train)
    config = TrainerConfig(rng_seed=6, regime="basic" if mode == "basic" else "eight", batch_size=4,
                           pairs_per_epoch=12, val_per_class=4)
    params = ModelParams.init(vocab, d=8, h=6, seed=6)
    if mode == "binary":
        train_binary(params, corpus, config)
    elif mode == "fine_tune":
        fine_tune(params, corpus.train, snli_corpus.train, n=4, config=config)
    else:
        train(params, corpus, config)
    monkeypatch.undo()
    return params, captured[0]


class TestCompiledEpochs:
    """Each compiled batch equals what a step works out from its own examples."""

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["basic", "eight", "binary", "fine_tune"])
    def test_compiled_batches_equal_the_per_batch_path(self, small_qa_corpus, small_snli_corpus, mode, chunk,
                                                       monkeypatch):
        params, (config, table, epoch_examples) = _training_inputs(small_qa_corpus, small_snli_corpus, mode,
                                                                   monkeypatch)
        monkeypatch.setattr(trainer_mod, "_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        hinge = mode != "binary"
        for epoch in range(2):
            examples = epoch_examples(epoch)
            steps = list(_compile(table, examples, config.batch_size))
            assert len(steps) == -(-len(examples.sides) // config.batch_size) >= 3
            for b, step in enumerate(steps):
                batch = slice(b * config.batch_size, (b + 1) * config.batch_size)
                sides = examples.sides[batch]
                keys, at = np.unique(sides, return_inverse=True)
                want = table.batch(keys)
                assert_batches_equal(step.counts, want)
                side, ids = np.nonzero(want)
                touched = np.unique(ids)
                weights = np.zeros((len(want), len(touched)))
                weights[side, np.searchsorted(touched, ids)] = want[side, ids] / want.sum(axis=1)[side]
                assert_batches_equal(step.touched, touched)
                assert_batches_equal(step.weights, weights)
                assert np.array_equal(step.at, at.reshape(sides.shape))
                if examples.labels is None:
                    assert step.labels is None
                else:
                    assert np.array_equal(step.labels, examples.labels[batch])
                if hinge:
                    # The first batch has no active pair; the rest a random half of theirs.
                    active = rng.random(len(step.at)) < (0.5 if b else 0.0)
                    calls = step.at[active].ravel()
                else:
                    calls = step.at
                n, (d, h) = len(keys), params.dims
                pooled, hidden = rng.normal(size=(n, d)), np.tanh(rng.normal(size=(n, h)))
                d_hidden = rng.normal(size=(len(calls), h))
                d_hidden[rng.random(len(calls)) < 0.3] = -0.0       # signed zeros through the scatter
                got, ref = zero_grads(params), zero_grads(params)
                _backprop(params, got, step, pooled, hidden, calls, d_hidden)
                _ref_backprop(params, ref, want, pooled, hidden, calls, d_hidden)
                for name in ("b_hidden", "w_hidden", "emb"):
                    assert np.array_equal(got[name], ref[name]), name
                    assert np.array_equal(np.signbit(got[name]), np.signbit(ref[name])), name

    @pytest.mark.parametrize("chunk", [None, 3])
    def test_an_energy_epoch_counts_once_per_chunk(self, small_qa_corpus, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(trainer_mod, "_CHUNK", chunk)
        (rows,) = _base_rows(pools(small_qa_corpus.train))
        config = TrainerConfig(epochs=1, batch_size=5, pairs_per_epoch=12)       # 96 instances: 20 batches
        vocab = build_vocabulary(small_qa_corpus.train)
        table = CountsCache(vocab, rows.sets)
        counted = []
        batch = table.batch
        table.batch = lambda keys: counted.append(len(keys)) or batch(keys)
        list(_fit(ModelParams.init(vocab, d=8, h=6), config, table, lambda epoch: _epoch_instances(rows, config, epoch)))
        assert len(counted) == math.ceil(20 / trainer_mod._CHUNK)
