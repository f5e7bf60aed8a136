"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The heavy fixtures (full desk-scale corpora and trained models)
are session-scoped and shared across criteria; the whole module runs in
a few minutes on one core.
"""

import itertools

import numpy as np
import pytest

from setcoh import evalkit
from setcoh.cli import SINGLE_GOLD_CLASSES, main
from setcoh.datagen import (
    apply_rule,
    corrupt_qa,
    derive_pairwise_dataset,
    gen_qa_set,
    gen_qa_world,
    gen_seed_pair,
    pools,
    validate_with_oracle,
)
from setcoh.logic import is_satisfiable
from setcoh.model import (
    ModelParams,
    accumulate_grad_energy,
    accumulate_grad_logits,
    build_vocabulary,
    energy_from_counts,
    logits_from_counts,
    serialize_set,
)
from setcoh.rules import ALL_RULES
from setcoh.trainer import (
    TrainerConfig,
    _threshold_scan,
    build_threshold_mixture,
    train,
    train_binary,
)
from setcoh.verifier import (
    BinarySoftmaxScorer,
    EnergyScorer,
    OracleScorer,
    locate,
    verify_elementwise,
    verify_set,
)
from reference import stream_counts, zero_grads

SEED = 11
QA_CONFIG = TrainerConfig(
    epochs=25, rng_seed=SEED, pairs_per_epoch=1000, learning_rate=2e-3, val_per_class=150
)
SNLI_CONFIG = TrainerConfig(
    epochs=40, rng_seed=SEED, pairs_per_epoch=1200, learning_rate=2e-3, val_per_class=150
)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:>2}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


@pytest.fixture(scope="session")
def qa_energy(qa_corpus):
    vocab = build_vocabulary(qa_corpus.train)
    params = ModelParams.init(vocab, d=96, h=96, seed=SEED)
    result = train(params, qa_corpus, QA_CONFIG)
    return EnergyScorer(result.params, result.threshold.value)


@pytest.fixture(scope="session")
def qa_binary(qa_corpus):
    vocab = build_vocabulary(qa_corpus.train)
    params = ModelParams.init(vocab, d=96, h=96, seed=SEED)
    result = train_binary(params, qa_corpus, QA_CONFIG)
    return BinarySoftmaxScorer(result.params, result.threshold.value)


@pytest.fixture(scope="session")
def snli_energy(snli_corpus):
    vocab = build_vocabulary(snli_corpus.train)
    params = ModelParams.init(vocab, d=96, h=96, seed=SEED)
    result = train(params, snli_corpus, SNLI_CONFIG)
    return EnergyScorer(result.params, result.threshold.value)


@pytest.fixture(scope="session")
def qa_test_mixture(qa_corpus):
    base_c, base_i = pools(qa_corpus.test)
    return evalkit.build_eval_mixture(base_c, base_i, per_class_count=50, rng_seed=SEED)


def test_criterion_1_degenerate_macro_f1(qa_corpus):
    base_c, base_i = pools(qa_corpus.test)
    details = []
    ok = True
    for per_class in (3, 20):
        mixture = evalkit.build_eval_mixture(base_c, base_i, per_class, rng_seed=SEED)
        golds = [s.label for s in mixture.sets]
        all_c = evalkit.macro_f1(["consistent"] * len(golds), golds).macro_f1
        all_i = evalkit.macro_f1(["inconsistent"] * len(golds), golds).macro_f1
        ok = ok and abs(all_c - 4 / 18) <= 5e-4 and abs(all_i - 10 / 24) <= 5e-4
        details.append(f"n={per_class}: all-consistent={all_c:.6f} all-inconsistent={all_i:.6f}")
    report(1, ok, f"degenerate macro-F1 equals 4/18 and 10/24 ({'; '.join(details)})")


def test_criterion_2_oracle_label_agreement(qa_corpus, snli_corpus):
    sets = []
    for corpus in (qa_corpus, snli_corpus):
        for split in corpus.splits().values():
            sets.extend(split)
    for base in (3000, 4000, 5000):
        for rule in ALL_RULES:
            seeds = [gen_seed_pair(base, rule.relation)]
            if rule.seeds_required == 2:
                seeds.append(gen_seed_pair(base + 1, rule.relation))
            sets.append(apply_rule(rule, seeds))
    base_c, base_i = pools(qa_corpus.test)
    sets.extend(evalkit.build_eval_mixture(base_c, base_i, 20, rng_seed=SEED + 1).sets)
    snli_c, snli_i = pools(snli_corpus.test)
    sets.extend(evalkit.build_eval_mixture(snli_c, snli_i, 20, rng_seed=SEED + 2).sets)
    pair_seeds = [gen_seed_pair(6000 + k, "entailment") for k in range(40)]
    qa_pairs = [gen_qa_set(gen_qa_world(6100 + k, 2)) for k in range(40)]
    qa_pairs += [corrupt_qa(s, k, set_id=f"{s.id}.x") for k, s in enumerate(qa_pairs[:40])]
    sets.extend(derive_pairwise_dataset(pair_seeds, qa_pairs, rng_seed=SEED))
    failures = [s.id for s in sets if not validate_with_oracle(s)]
    report(
        2,
        len(sets) >= 10_000 and not failures,
        f"{len(sets) - len(failures)}/{len(sets)} generated sets agree with the oracle "
        f"(rules, QA corruption, unions, pairwise)",
    )


def test_criterion_3_pairwise_blindness_witness(snli_corpus):
    witnesses = [
        s for s in snli_corpus.test + snli_corpus.validation2
        if s.rule_id == "SE-28"
    ]
    ok = bool(witnesses)
    oracle = OracleScorer()
    for s in witnesses:
        formulas = s.formulas()
        every_pair_satisfiable = all(
            is_satisfiable([formulas[i], formulas[j]])
            for i, j in itertools.combinations(range(len(formulas)), 2)
        )
        set_level = verify_set(oracle, s).label
        element_wise = verify_elementwise(oracle, s, mtr=0.0).label
        ok = ok and every_pair_satisfiable and set_level == "inconsistent" and element_wise == "consistent"
    report(
        3,
        ok,
        f"{len(witnesses)} collective-only witnesses: all 2-subsets satisfiable, "
        f"set-level oracle flags them, element-wise (mtr=0) does not",
    )


def test_criterion_4_gradient_correctness(qa_corpus):
    vocab = build_vocabulary(qa_corpus.train[:40])
    probe_sets = qa_corpus.train[:12]
    rng = np.random.default_rng(SEED)
    worst = 0.0
    probes = 0
    step = 1e-4
    for k in range(100):
        params = ModelParams.init(vocab, d=5, h=4, seed=int(rng.integers(1 << 30)))
        for arr in params.arrays().values():
            arr += rng.normal(0, 0.05, arr.shape)
        counts = stream_counts(serialize_set(vocab, probe_sets[k % len(probe_sets)], shuffle_seed=k), len(vocab))
        grads = zero_grads(params)
        if k % 3 == 2:
            upstream = rng.normal(0, 1.0, 2)
            accumulate_grad_logits(params, counts, upstream, grads)
            fn = lambda: float(upstream @ logits_from_counts(params, counts))
        else:
            accumulate_grad_energy(params, counts, grads)
            fn = lambda: energy_from_counts(params, counts)
        probes += 1
        for name, arr in params.arrays().items():
            g = grads[name]
            for i in range(arr.size):
                orig = arr.flat[i]
                arr.flat[i] = orig + step
                plus = fn()
                arr.flat[i] = orig - step
                minus = fn()
                arr.flat[i] = orig
                fd = (plus - minus) / (2 * step)
                worst = max(worst, abs(g.flat[i] - fd) / max(1.0, abs(fd)))
    report(4, probes >= 100 and worst <= 1e-4,
           f"max relative gradient error {worst:.3e} over {probes} probes (bound 1e-4)")


def test_criterion_5_training_efficacy(qa_energy, qa_binary, qa_test_mixture):
    energy_rep = evalkit.verification_report(qa_energy, qa_test_mixture.sets, strategy="set")
    binary_rep = evalkit.verification_report(qa_binary, qa_test_mixture.sets, strategy="set")
    report(
        5,
        energy_rep.macro_f1 >= 0.95 and binary_rep.macro_f1 >= 0.90,
        f"held-out 14-class macro-F1: energy(eight)={energy_rep.macro_f1:.4f} (>=0.95), "
        f"binary={binary_rep.macro_f1:.4f} (>=0.90)",
    )


def test_criterion_6_strategy_gap(snli_corpus, snli_energy):
    test_c, test_i = pools(snli_corpus.test)
    mixture = evalkit.build_eval_mixture(test_c, test_i, per_class_count=50, rng_seed=SEED)
    set_rep = evalkit.verification_report(snli_energy, mixture.sets, strategy="set")
    val2_c, val2_i = pools(snli_corpus.validation2)
    val2_mix = evalkit.build_eval_mixture(val2_c, val2_i, per_class_count=20, rng_seed=SEED + 1)
    mtr = evalkit.best_mtr(snli_energy, val2_mix.sets, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    ew_rep = evalkit.verification_report(snli_energy, mixture.sets, strategy="elementwise", mtr=mtr)
    report(
        6,
        set_rep.macro_f1 > ew_rep.macro_f1,
        f"sentence corpus: set-level {set_rep.macro_f1:.4f} > element-wise {ew_rep.macro_f1:.4f} "
        f"(best mtr={mtr} from validation2)",
    )


def test_criterion_7_energy_ordering(qa_corpus, qa_energy):
    mixture = build_threshold_mixture(qa_corpus.validation2, rng_seed=SEED, per_class=200)
    medians = {q.provenance: q.median for q in evalkit.energy_quartiles(qa_energy, mixture)}
    chain = medians["C"] < medians["CI"] < medians["I"] < medians["II"]
    report(
        7,
        chain,
        "median energies on validation2 ordered "
        + " < ".join(f"{tag}={medians[tag]:.4f}" for tag in ("C", "CI", "I", "II")),
    )


@pytest.fixture(scope="session")
def locate_pools(qa_corpus):
    # answer-conflict corruptions of held-out consistent sets, sizes >= 4
    base_c = [s for s in pools(qa_corpus.test)[0] if len(s) >= 4]
    base_i = [
        corrupt_qa(s, 7000 + k, flips=("no-to-yes",), set_id=f"{s.id}.loc")
        for k, s in enumerate(base_c)
    ]
    return base_c, base_i


def _locate_report(scorer, mixture):
    results = []
    for s in mixture.sets:
        gold = s.gold_inconsistent_indices
        if gold is None and s.label == "consistent":
            gold = ()
        results.append((locate(scorer, s), gold))
    return evalkit.locate_metrics(results)


def test_criterion_8_locate(locate_pools, qa_energy):
    base_c, base_i = locate_pools
    mixture = evalkit.build_eval_mixture(base_c, base_i, per_class_count=50, rng_seed=SEED,
                                         classes=("C", "I"))
    oracle_rep = _locate_report(OracleScorer(), mixture)
    energy_rep = _locate_report(qa_energy, mixture)
    rich = evalkit.build_eval_mixture(base_c, base_i, per_class_count=25, rng_seed=SEED,
                                      classes=SINGLE_GOLD_CLASSES)
    oracle_rich = _locate_report(OracleScorer(), rich)
    report(
        8,
        oracle_rep.em == 1.0 and oracle_rep.f1 == 1.0
        and oracle_rich.em == 1.0 and oracle_rich.f1 == 1.0
        and energy_rep.em >= 0.80 and energy_rep.f1 >= 0.90,
        f"locate on corrupted-QA mixture (sizes>=4, unique gold): oracle em={oracle_rep.em:.3f} "
        f"f1={oracle_rep.f1:.3f} (and em={oracle_rich.em:.3f} on the 8-class union mixture); "
        f"trained energy em={energy_rep.em:.3f} (>=0.80) f1={energy_rep.f1:.3f} (>=0.90)",
    )


def test_criterion_9_threshold_optimality():
    rng = np.random.default_rng(SEED)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        scores = [float(x) for x in np.round(rng.normal(0, 1, n), 2)]  # duplicates likely
        labels = ["consistent" if rng.random() < 0.5 else "inconsistent" for _ in range(n)]
        _, acc, _ = _threshold_scan(scores, labels)
        consistent = np.array([label == "consistent" for label in labels])
        values = np.array(scores)
        n_c, n_i = consistent.sum(), len(labels) - consistent.sum()

        def macro(t):
            below = values < t
            acc_c = (below & consistent).sum() / n_c if n_c else 0.0
            acc_i = (~below & ~consistent).sum() / n_i if n_i else 0.0
            return (acc_c + acc_i) / 2

        grid = [float("-inf"), float("inf")]
        grid += [v + eps for v in scores for eps in (-1e-9, 1e-9)]
        if abs(acc - max(macro(t) for t in grid)) > 1e-12:
            mismatches += 1
    report(9, mismatches == 0,
           f"learned threshold matches exhaustive-scan optimum on 1000/1000 random configurations")


def test_supplementary_fine_tune_retention(qa_corpus, snli_corpus, qa_energy):
    # not one of the ten criteria: the cross-domain fine-tuning operation's
    # stated retention bound (source macro-F1 stays within 0.85x)
    from dataclasses import replace

    from setcoh.trainer import fine_tune, learn_threshold

    val2_c, val2_i = pools(qa_corpus.validation2)
    val2_mix = evalkit.build_eval_mixture(val2_c, val2_i, 30, rng_seed=SEED + 9)
    before = evalkit.verification_report(qa_energy, val2_mix.sets, strategy="set").macro_f1
    config = replace(QA_CONFIG, epochs=10, learning_rate=1e-3, l2_weight=1e-5)
    tuned = fine_tune(qa_energy.params, qa_corpus.train, snli_corpus.train, n=100, config=config)
    threshold = learn_threshold(
        tuned, build_threshold_mixture(qa_corpus.validation1, rng_seed=SEED, per_class=150)
    )
    after = evalkit.verification_report(
        EnergyScorer(tuned, threshold.value), val2_mix.sets, strategy="set"
    ).macro_f1
    passed = after >= 0.85 * before
    print(f"\n[supplement ] {'PASS' if passed else 'FAIL'}: fine-tune retention "
          f"{after:.4f} >= 0.85 x {before:.4f}")
    assert passed


def test_criterion_10_end_to_end_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        root = tmp_path / run
        gen_dir, model_dir = root / "gen", root / "model"
        verify_dir, locate_dir = root / "verify", root / "locate"
        assert main(["gen", "--style", "qa", "--seed", "3", "--counts", "16,8",
                     "--out", str(gen_dir)]) == 0
        assert main(["train", "--data", str(gen_dir), "--out", str(model_dir), "--seed", "3",
                     "--epochs", "3", "--dim", "16", "--hidden", "12",
                     "--pairs-per-epoch", "16", "--val-per-class", "8"]) == 0
        assert main(["verify", "--data", str(gen_dir), "--out", str(verify_dir), "--seed", "3",
                     "--scorer", str(model_dir / "model.bin"), "--mixture-per-class", "4"]) == 0
        assert main(["locate", "--data", str(gen_dir), "--out", str(locate_dir), "--seed", "3",
                     "--scorer", str(model_dir / "model.bin"), "--mixture-per-class", "3"]) == 0
        oracle_verify_dir, oracle_locate_dir = root / "oracle-verify", root / "oracle-locate"
        assert main(["verify", "--data", str(gen_dir), "--out", str(oracle_verify_dir), "--seed", "3",
                     "--scorer", "oracle", "--strategy", "elementwise", "--mixture-per-class", "4",
                     "--dump-scores"]) == 0
        assert main(["locate", "--data", str(gen_dir), "--out", str(oracle_locate_dir), "--seed", "3",
                     "--scorer", "oracle", "--mixture-per-class", "3"]) == 0
        outputs.append({
            "data.jsonl": (gen_dir / "data.jsonl").read_bytes(),
            "model.bin": (model_dir / "model.bin").read_bytes(),
            "threshold.txt": (model_dir / "threshold.txt").read_bytes(),
            "train_log.csv": (model_dir / "train_log.csv").read_bytes(),
            "metrics.csv": (verify_dir / "metrics.csv").read_bytes(),
            "locate_report.csv": (locate_dir / "locate_report.csv").read_bytes(),
            "oracle scores.csv": (oracle_verify_dir / "scores.csv").read_bytes(),
            "oracle metrics.csv": (oracle_verify_dir / "metrics.csv").read_bytes(),
            "oracle locate_report.csv": (oracle_locate_dir / "locate_report.csv").read_bytes(),
        })
    differing = [name for name in outputs[0] if outputs[0][name] != outputs[1][name]]
    report(10, not differing,
           f"two seeded end-to-end runs byte-identical across {len(outputs[0])} artifacts")
