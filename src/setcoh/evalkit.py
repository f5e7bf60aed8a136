"""Evaluation mixtures, verification and localization metrics, sweeps, ablations.

The evaluation mixture spans the 14 provenance classes reachable by
merging one to four base sets (C, I, CC, CI, II, CCC, CCI, CII, III,
CCCC, CCCI, CCII, CIII, IIII) with an equal number of sets per class,
so the degenerate all-consistent / all-inconsistent predictors land at
macro-F1 4/18 and 10/24 exactly.

Verification quality is macro-F1 (unweighted mean of the consistent and
inconsistent F1); localization quality is per-instance exact match plus
micro-aggregated precision/recall/F1 over predicted indices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Sequence

import numpy as np

from .datagen import (
    CONSISTENT,
    INCONSISTENT,
    PROVENANCE_CLASSES,
    StatementSet,
    pools,
)
from .datagen import compose_union  # noqa: F401 (bench/test_bench.py checks this binding)
from .logic import DataError
from .model import ModelParams
from .trainer import (
    TrainerConfig,
    _base_rows,
    _draw_mixture,
    build_threshold_mixture,
    train,
)
from .verifier import EnergyScorer, LocateResult, Scorer, subset_id, tolerance_rule, verify_elementwise, verify_set


class LengthMismatchError(DataError, ValueError):
    """Prediction and gold label lists differ in length."""


class MissingGoldError(DataError, ValueError):
    """A locate instance has no gold indices to score against."""


@dataclass(frozen=True)
class EvalMixture:
    """Equal per-class sample over the 14 provenance classes."""

    sets: tuple[StatementSet, ...]


def build_eval_mixture(
    base_C_pool: Sequence[StatementSet],
    base_I_pool: Sequence[StatementSet],
    per_class_count: int,
    rng_seed: int,
    classes: Sequence[str] = PROVENANCE_CLASSES,
) -> EvalMixture:
    """``per_class_count`` sets per provenance class, composed from the base pools.

    Within a union all parts come from distinct atom namespaces; across
    sets the pools are reused round-robin, with partners drawn at
    random (:func:`trainer._draw_mixture`).  Raises ValueError on an unknown
    or repeated class, and :class:`trainer.PoolExhaustedError` when a pool
    cannot supply enough disjoint parts.
    """
    for k, tag in enumerate(classes):
        if tag not in PROVENANCE_CLASSES:
            raise ValueError(f"unknown provenance class {tag!r}")
        if tag in classes[:k]:
            raise ValueError(f"provenance class {tag!r} repeats")
    (base,) = _base_rows((base_C_pool, base_I_pool))
    rng = random.Random(f"eval-mixture:{rng_seed}")
    return EvalMixture(tuple(_draw_mixture(base, classes, per_class_count, rng,
                                           lambda tag, k: f"mix-{tag.lower()}-{k:05d}")))


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    consistent: ClassMetrics
    inconsistent: ClassMetrics
    macro_f1: float
    count: int


def _prf(tp: int, predicted: int, support: int) -> tuple[float, float, float]:
    precision = tp / predicted if predicted else 0.0
    recall = tp / support if support else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def macro_f1(predictions: Sequence[str], golds: Sequence[str]) -> MetricsReport:
    """Per-class precision/recall/F1 with the zero convention, and their mean."""
    if len(predictions) != len(golds):
        raise LengthMismatchError(f"{len(predictions)} predictions vs {len(golds)} golds")
    per_class = {}
    for label in (CONSISTENT, INCONSISTENT):
        tp = sum(1 for p, g in zip(predictions, golds) if p == label and g == label)
        predicted = sum(1 for p in predictions if p == label)
        support = sum(1 for g in golds if g == label)
        precision, recall, f1 = _prf(tp, predicted, support)
        per_class[label] = ClassMetrics(precision, recall, f1, support)
    return MetricsReport(
        consistent=per_class[CONSISTENT],
        inconsistent=per_class[INCONSISTENT],
        macro_f1=(per_class[CONSISTENT].f1 + per_class[INCONSISTENT].f1) / 2.0,
        count=len(golds),
    )


@dataclass(frozen=True)
class LocateReport:
    em: float
    precision: float
    recall: float
    f1: float
    count: int


def locate_metrics(
    results: Sequence[tuple[LocateResult, Sequence[int] | None]],
) -> LocateReport:
    """Exact match per instance; micro precision/recall/F1 over predicted indices."""
    if not results:
        raise MissingGoldError("no locate results to score")
    tp = fp = fn = 0
    exact = 0
    for result, gold in results:
        if gold is None:
            raise MissingGoldError("locate instance without gold indices")
        predicted = set(result.removed_indices)
        gold_set = set(gold)
        tp += len(predicted & gold_set)
        fp += len(predicted - gold_set)
        fn += len(gold_set - predicted)
        exact += predicted == gold_set
    precision, recall, f1 = _prf(tp, tp + fp, tp + fn)
    return LocateReport(
        em=exact / len(results),
        precision=precision,
        recall=recall,
        f1=f1,
        count=len(results),
    )


def verification_report(
    scorer: Scorer,
    sets: Sequence[StatementSet],
    strategy: str = "set",
    mtr: float = 0.0,
    scores: dict[str, float] | None = None,
) -> MetricsReport:
    """Run one verification strategy over labeled sets and score it.

    ``scores``, when given, receives every score the verdicts were decided
    from under its :func:`subset_id`: each set's, or each of its pairs'.
    """
    # Verdicts are made one at a time and dropped after use: a pairwise one holds every pair's score.
    if strategy == "set":
        verdicts = (verify_set(scorer, s) for s in sets)
    elif strategy == "elementwise":
        verdicts = (verify_elementwise(scorer, s, mtr) for s in sets)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    predictions = []
    for s, verdict in zip(sets, verdicts):
        predictions.append(verdict.label)
        if scores is None:
            continue
        if verdict.detail is None:
            scores[s.id] = verdict.score
        else:
            pairs = combinations(range(len(s)), 2)
            scores.update(zip((subset_id(s, pair) for pair in pairs), verdict.detail.scores))
    return macro_f1(predictions, [s.label for s in sets])


@dataclass(frozen=True)
class SweepRow:
    mtr: float
    size_bucket: str        # component count "1".."4", or "all"
    macro_f1: float
    count: int


def mtr_sweep(
    scorer: Scorer,
    mixture: EvalMixture,
    grid: Sequence[float],
) -> list[SweepRow]:
    """Element-wise macro-F1 per tolerance rate and per composed-set size bucket."""
    if not grid:
        raise ValueError("empty mtr grid")
    verdicts = [tolerance_rule(mtr) for mtr in grid]
    # One element-wise pass gives each set's inconsistent-pair ratio; a verdict at
    # each tolerance rate is then decided by verify_elementwise's rule.
    ratios = [verify_elementwise(scorer, s, mtr=0.0).detail.ratio for s in mixture.sets]
    golds = [s.label for s in mixture.sets]
    buckets = [str(len(s.provenance)) for s in mixture.sets]
    rows: list[SweepRow] = []
    for mtr, verdict in zip(grid, verdicts):
        predictions = [verdict(ratio) for ratio in ratios]
        for bucket in sorted(set(buckets)) + ["all"]:
            keep = [i for i, b in enumerate(buckets) if bucket == "all" or b == bucket]
            report = macro_f1([predictions[i] for i in keep], [golds[i] for i in keep])
            rows.append(SweepRow(mtr=float(mtr), size_bucket=bucket, macro_f1=report.macro_f1, count=len(keep)))
    return rows


def best_mtr(scorer: Scorer, sets: Sequence[StatementSet], grid: Sequence[float]) -> float:
    """Tolerance rate from ``grid`` maximizing element-wise macro-F1 on ``sets``.

    Each set's pairs are scored once; ties keep the earliest grid value.
    """
    return best_row(mtr_sweep(scorer, EvalMixture(tuple(sets)), grid)).mtr


def best_row(rows: Sequence[SweepRow]) -> SweepRow:
    """The whole-mixture (``"all"``) row with the highest macro-F1; ties keep the earliest."""
    return max((r for r in rows if r.size_bucket == "all"), key=lambda r: r.macro_f1)


@dataclass(frozen=True)
class EnergyQuartiles:
    provenance: str
    q1: float
    median: float
    q3: float
    count: int


@dataclass
class RegimeReport:
    regime: str
    macro_f1: float
    quartiles: list[EnergyQuartiles] = field(default_factory=list)


def energy_quartiles(scorer: Scorer, sets: Sequence[StatementSet]) -> list[EnergyQuartiles]:
    by_class: dict[str, list[float]] = {}
    for s in sets:
        by_class.setdefault(s.provenance, []).append(scorer.score(s))
    out = []
    for tag in sorted(by_class, key=lambda t: (len(t), t)):
        values = np.array(by_class[tag])
        out.append(
            EnergyQuartiles(
                provenance=tag,
                q1=float(np.percentile(values, 25)),
                median=float(np.median(values)),
                q3=float(np.percentile(values, 75)),
                count=len(values),
            )
        )
    return out


def ablation_report(
    splits,
    regimes: Sequence[str],
    config: TrainerConfig,
    params: ModelParams,
    eval_per_class: int = 25,
) -> list[RegimeReport]:
    """Train one model per contrast regime on shared data and compare.

    Every regime trains from a copy of ``params``, so differences come
    from the regime alone.  Reports
    per-provenance energy quartiles on a validation2 mixture and
    verification macro-F1 on a held-out 14-class test mixture.
    """
    test_c, test_i = pools(splits.test)
    test_mixture = build_eval_mixture(test_c, test_i, eval_per_class, rng_seed=config.rng_seed)
    val2_mixture = build_threshold_mixture(splits.validation2, rng_seed=config.rng_seed)
    reports = []
    for regime in regimes:
        result = train(params, splits, replace(config, regime=regime))
        scorer = EnergyScorer(result.params, result.threshold.value)
        report = verification_report(scorer, test_mixture.sets, strategy="set")
        reports.append(
            RegimeReport(
                regime=regime,
                macro_f1=report.macro_f1,
                quartiles=energy_quartiles(scorer, val2_mixture),
            )
        )
    return reports
