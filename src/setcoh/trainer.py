"""Contrastive training of the energy scorer and the binary baseline.

Training pairs a consistent set against an inconsistent one under a
margin hinge; richer regimes add union-based comparisons built from
freshly sampled partner sets each epoch, up to eight ordered contrast
kinds.  After every epoch a decision threshold is fit on a validation1
mixture (consistent: C and CC; inconsistent: I, CI, II) by exhaustive
scan over score midpoints, and the epoch with the best validation1
macro accuracy wins.

The binary baseline shares the encoder and trains its 2-way head with
cross-entropy on the same five set classes; its threshold is fit on the
softmax score of the inconsistent class, by the same scan.

Fine-tuning mixes n source with n target pairs per epoch (re-sampled
every epoch) and adds an L2 penalty, anchored at zero by default or at
the starting weights.

All three share one minibatch loop, :func:`_fit`, which reads a union
only as the sum of its parts' token counts and encodes each distinct set
once per batch; the trained models are bit-identical to scoring every
instance from its serialized union.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .datagen import (
    CONSISTENT,
    StatementSet,
    compose_union,
    pools,
)
from .model import (
    CLS_INDEX,
    Activations,
    ModelParams,
    TokenCounts,
    accumulate_grad_energy,
    accumulate_grad_logits,
    count_rows,
    energy_from_counts,
    forward,
    logits_from_counts,
    softmax,
    zero_grads,
)

# Ordered (more-consistent, less-consistent) comparisons; the first is
# the basic contrast, 2-6 compare across labels via unions, 7-8 order
# degrees of inconsistency.
CONTRAST_KINDS: tuple[tuple[str, str], ...] = (
    ("C", "I"),
    ("C", "CI"),
    ("C", "II"),
    ("CC", "I"),
    ("CC", "CI"),
    ("CC", "II"),
    ("CI", "I"),
    ("I", "II"),
)

REGIMES = {
    "basic": CONTRAST_KINDS[:1],
    "six": CONTRAST_KINDS[:6],
    "eight": CONTRAST_KINDS[:8],
}

THRESHOLD_CLASSES_CONSISTENT = ("C", "CC")
THRESHOLD_CLASSES_INCONSISTENT = ("I", "CI", "II")

# Provenances of the sets that unions are composed from.
BASE_PROVENANCES = ("C", "I")


class PoolExhaustedError(ValueError):
    """Could not sample a partner set with a disjoint namespace."""


class NotABaseSetError(ValueError):
    """A pool that unions are composed from holds a set that is already a union."""


class EmptyValidationError(ValueError):
    """Threshold learning received no scored sets."""


class TrainingDivergedError(RuntimeError):
    """Loss or parameters became non-finite; message carries epoch and step."""


@dataclass(frozen=True)
class TrainerConfig:
    alpha: float = 0.01                  # hinge margin
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 32
    regime: str = "eight"
    rng_seed: int = 0
    l2_weight: float = 1e-5              # fine-tuning only
    l2_anchor: str = "zero"              # "zero" or "start"
    pairs_per_epoch: int | None = None   # subsample of base pairs per epoch
    val_per_class: int | None = None     # threshold-mixture size per class

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        for name in ("epochs", "batch_size", "pairs_per_epoch", "val_per_class"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class Threshold:
    value: float
    learned_epoch: int = -1
    source: str = "energy"               # "energy" or "inconsistent-softmax"
    degenerate: bool = False


@dataclass(frozen=True)
class ContrastInstance:
    """One ordered comparison between two sets, each given by its parts.

    Training reads only the parts; ``more`` and ``less`` compose a side's
    union on demand from its parts and shuffle seed.
    """

    kind: tuple[str, str]
    more_parts: tuple[StatementSet, ...]
    less_parts: tuple[StatementSet, ...]
    more_seed: int | None = None
    less_seed: int | None = None

    @property
    def more(self) -> StatementSet:
        return _compose(self.more_parts, self.more_seed)

    @property
    def less(self) -> StatementSet:
        return _compose(self.less_parts, self.less_seed)


def _compose(parts: tuple[StatementSet, ...], seed: int | None) -> StatementSet:
    return parts[0] if len(parts) == 1 else compose_union(parts, shuffle_seed=seed)


@dataclass
class EpochStats:
    epoch: int
    mean_hinge_loss: float
    val1_macro_acc: float
    threshold: float
    median_energies: dict[str, float]


@dataclass
class TrainResult:
    params: ModelParams
    threshold: Threshold
    log: list[EpochStats]


def hinge_loss(e_more_consistent: float, e_less_consistent: float, alpha: float) -> float:
    """``max(e_more - e_less + alpha, 0)``: zero once the margin is satisfied."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return max(e_more_consistent - e_less_consistent + alpha, 0.0)


class CountsCache:
    """Per-set sparse token histograms; a union's counts are the sum of its parts'.

    Sets are keyed by identity, and each entry keeps its set alive.
    """

    def __init__(self, vocab) -> None:
        self.vocab = vocab
        self._by_set: dict[int, tuple[StatementSet, np.ndarray, np.ndarray]] = {}
        self._row = np.zeros(len(vocab))  # dense scratch row, all zero between calls

    def counts(self, parts: Sequence[StatementSet]) -> TokenCounts:
        """Token counts of the serialized union of ``parts`` (CLS included)."""
        row = self._row
        row[CLS_INDEX] = 1.0
        for part in parts:
            cached = self._by_set.get(id(part))
            if cached is None:
                hist = count_rows(self.vocab, part.statements).sum(axis=0)
                nz = np.nonzero(hist)[0]
                cached = self._by_set[id(part)] = (part, nz, hist[nz])
            row[cached[1]] += cached[2]
        ids = np.nonzero(row)[0]
        counts = row[ids]
        row[ids] = 0.0
        return TokenCounts(ids=ids, counts=counts, total=int(counts.sum()))


def base_pools(sets: Sequence[StatementSet]) -> tuple[list[StatementSet], list[StatementSet]]:
    """:func:`pools` of a split that unions are composed from: base sets (C or I) only."""
    for s in sets:
        if s.provenance not in BASE_PROVENANCES:
            raise NotABaseSetError(f"set {s.id!r} has provenance {s.provenance!r}; "
                                   "unions are composed from base sets (C or I) only")
    return pools(sets)


def _namespaces(sets: Sequence[StatementSet]) -> dict[int, frozenset[str]]:
    """Atom namespaces of each set, keyed by identity."""
    return {id(s): s.namespaces() for s in sets}


def _sample_partner(pool: Sequence[StatementSet], rng: random.Random, taken: frozenset[str],
                    namespaces: dict[int, frozenset[str]]) -> StatementSet:
    for _ in range(200):
        candidate = pool[rng.randrange(len(pool))]
        if not (namespaces[id(candidate)] & taken):
            return candidate
    raise PoolExhaustedError("no namespace-disjoint partner after 200 draws")


def build_contrast_batch(
    pool_C: Sequence[StatementSet],
    pool_I: Sequence[StatementSet],
    regime: str,
    rng_seed: int,
    pairs: int | None = None,
    namespaces: dict[int, frozenset[str]] | None = None,
) -> list[ContrastInstance]:
    """Contrast instances for sampled base pairs.

    For every base pair (S_C, S_I) one instance per contrast kind in the
    regime is emitted; the union parts of S_CC, S_CI, S_II are drawn
    once per base pair from independently sampled namespace-disjoint
    partners, each union with its own shuffle seed.  S_C and S_I are
    sampled at the same pool index (pools generated as matched pairs).
    ``namespaces`` maps each pool set's identity to its atom namespaces;
    it is computed here when not given.
    """
    if not pool_C or not pool_I:
        raise PoolExhaustedError("empty base pool")
    if namespaces is None:
        namespaces = _namespaces([*pool_C, *pool_I])
    kinds = REGIMES[regime]
    # Separate streams so the base-pair sequence is identical across
    # regimes for one seed (partner draws consume the second stream only).
    pair_rng = random.Random(f"contrast-pairs:{rng_seed}")
    rng = random.Random(f"contrast-partners:{rng_seed}")
    if pairs is None:
        pairs = min(len(pool_C), len(pool_I))
    needed = {tag for pair in kinds for tag in pair}
    out: list[ContrastInstance] = []
    for _ in range(pairs):
        i = pair_rng.randrange(min(len(pool_C), len(pool_I)))
        base_c, base_i = pool_C[i], pool_I[i]
        taken = namespaces[id(base_c)] | namespaces[id(base_i)]
        by_tag: dict[str, tuple[StatementSet, ...]] = {"C": (base_c,), "I": (base_i,)}
        if "CC" in needed:
            by_tag["CC"] = (base_c, _sample_partner(pool_C, rng, taken, namespaces))
        if "CI" in needed:
            by_tag["CI"] = (_sample_partner(pool_C, rng, taken, namespaces), base_i)
        if "II" in needed:
            by_tag["II"] = (base_i, _sample_partner(pool_I, rng, taken, namespaces))
        seeds = {tag: rng.randrange(2**31) for tag, parts in by_tag.items() if len(parts) > 1}
        for kind in kinds:
            more, less = kind
            out.append(ContrastInstance(kind, by_tag[more], by_tag[less], seeds.get(more), seeds.get(less)))
    return out


def _threshold_scan(scores: Sequence[float], labels: Sequence[str]) -> tuple[float, float, bool]:
    """Best strict-below threshold by macro accuracy.

    Candidates are midpoints of consecutive distinct scores plus the two
    infinite sentinels.  Ties prefer the smallest finite candidate; a
    degenerate (sentinel) winner is flagged.
    """
    if not scores:
        raise EmptyValidationError("no scores to fit a threshold on")
    distinct = sorted(set(scores))
    midpoints = [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    candidates = midpoints + [float("inf"), float("-inf")]
    consistent = np.array([label == CONSISTENT for label in labels])
    values = np.array(scores)
    n_cons = int(consistent.sum())
    n_incons = len(labels) - n_cons

    def macro_acc(t: float) -> float:
        predicted = values < t
        acc_c = (predicted & consistent).sum() / n_cons if n_cons else 0.0
        acc_i = (~predicted & ~consistent).sum() / n_incons if n_incons else 0.0
        return (acc_c + acc_i) / 2.0

    best_acc = max(macro_acc(t) for t in candidates)
    finite_best = [t for t in midpoints if macro_acc(t) == best_acc]
    if finite_best:
        return min(finite_best), best_acc, False
    chosen = float("inf") if macro_acc(float("inf")) == best_acc else float("-inf")
    return chosen, best_acc, True


def build_threshold_mixture(
    validation_sets: Sequence[StatementSet],
    rng_seed: int = 0,
    per_class: int | None = None,
) -> list[StatementSet]:
    """C/CC/I/CI/II mixture over a validation split for threshold fitting."""
    pool_c, pool_i = base_pools(validation_sets)
    if not pool_c or not pool_i:
        raise EmptyValidationError("validation split lacks one of the labels")
    rng = random.Random(f"threshold-mixture:{rng_seed}")
    namespaces = _namespaces(pool_c + pool_i)
    n = per_class or min(len(pool_c), len(pool_i))
    out: list[StatementSet] = []
    for tag in THRESHOLD_CLASSES_CONSISTENT + THRESHOLD_CLASSES_INCONSISTENT:
        for k in range(n):
            first = pool_c[k % len(pool_c)] if tag[0] == "C" else pool_i[k % len(pool_i)]
            if len(tag) == 1:
                out.append(first)
                continue
            partner = _sample_partner(pool_c if tag[1] == "C" else pool_i, rng, namespaces[id(first)], namespaces)
            out.append(compose_union([first, partner], set_id=f"thr-{tag}-{k}", shuffle_seed=rng.randrange(2**31)))
    return out


def learn_threshold(params: ModelParams, validation_sets: Sequence[StatementSet],
                    epoch: int = -1) -> Threshold:
    """Threshold over model energies maximizing macro accuracy on the given sets."""
    cache = CountsCache(params.vocab)
    scores = [energy_from_counts(params, cache.counts([s])) for s in validation_sets]
    labels = [s.label for s in validation_sets]
    value, _, degenerate = _threshold_scan(scores, labels)
    return Threshold(value=value, learned_epoch=epoch, source="energy", degenerate=degenerate)


_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


class _Optimizer:
    """Adam with the default betas and epsilon."""

    def __init__(self, params: ModelParams, config: TrainerConfig) -> None:
        self.config = config
        self.t = 0
        self.m = zero_grads(params)
        self.v = zero_grads(params)

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        cfg = self.config
        self.t += 1
        b1, b2 = _ADAM_BETAS
        correction1 = 1.0 - b1 ** self.t
        correction2 = 1.0 - b2 ** self.t
        for name, arr in params.arrays().items():
            g = grads[name]
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / correction1
            v_hat = self.v[name] / correction2
            arr -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def _median_energies(mixture: Sequence[StatementSet], scores: Sequence[float]) -> dict[str, float]:
    by_class: dict[str, list[float]] = {}
    for s, score in zip(mixture, scores):
        by_class.setdefault(s.provenance, []).append(score)
    return {tag: float(np.median(vals)) for tag, vals in sorted(by_class.items())}


def _epoch_instances(pool_c: Sequence[StatementSet], pool_i: Sequence[StatementSet], config: TrainerConfig,
                     epoch: int, namespaces: dict[int, frozenset[str]] | None = None) -> list[ContrastInstance]:
    return build_contrast_batch(pool_c, pool_i, config.regime, rng_seed=config.rng_seed * 1_000 + epoch,
                                pairs=config.pairs_per_epoch, namespaces=namespaces)


def _binary_instances(pool_c: Sequence[StatementSet], pool_i: Sequence[StatementSet], config: TrainerConfig,
                      epoch: int, namespaces: dict[int, frozenset[str]]) -> list[tuple[tuple[StatementSet, ...], int]]:
    """(parts, label) for each of the C/CC/I/CI/II sides of every base pair."""
    instances = build_contrast_batch(pool_c, pool_i, "eight", rng_seed=config.rng_seed * 1_000 + epoch,
                                     pairs=config.pairs_per_epoch, namespaces=namespaces)
    out: list[tuple[tuple[StatementSet, ...], int]] = []
    seen_parts: set[int] = set()  # part tuples are shared within a base pair
    for inst in instances:
        for parts, tag in zip((inst.more_parts, inst.less_parts), inst.kind):
            if id(parts) not in seen_parts:
                seen_parts.add(id(parts))
                out.append((parts, int("I" in tag)))
    return out


def _check_finite(value: float, params: ModelParams, epoch: int, step: int) -> None:
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite loss at epoch {epoch}, step {step}")
    for name, arr in params.arrays().items():
        if not np.isfinite(arr).all():
            raise TrainingDivergedError(f"non-finite {name} at epoch {epoch}, step {step}")


def _hinge_batch(params: ModelParams, batch: Sequence[ContrastInstance], grads, row, alpha: float) -> float:
    """Summed hinge loss of a batch; active pairs add their gradients in batch order."""
    scale = 1.0 / len(batch)
    total = 0.0
    for inst in batch:
        tc_more, acts_more, e_more = row(inst.more_parts)
        tc_less, acts_less, e_less = row(inst.less_parts)
        loss = hinge_loss(e_more, e_less, alpha)
        total += loss
        if loss > 0.0:
            accumulate_grad_energy(params, tc_more, grads, scale=scale, activations=acts_more)
            accumulate_grad_energy(params, tc_less, grads, scale=-scale, activations=acts_less)
    return total


def _cross_entropy_batch(params: ModelParams, batch, grads, row) -> float:
    """Summed cross-entropy of a batch of (parts, label) examples."""
    scale = 1.0 / len(batch)
    total = 0.0
    for parts, label in batch:
        tc, acts, logits = row(parts)
        upstream = softmax(logits)
        total += -float(np.log(max(upstream[label], 1e-300)))
        upstream[label] -= 1.0
        accumulate_grad_logits(params, tc, upstream, grads, scale=scale, activations=acts)
    return total


class _Validation(NamedTuple):
    mixture: list[StatementSet]
    score: Callable[[ModelParams, TokenCounts], float]
    source: str                          # the fitted Threshold's source


def _fit(params: ModelParams, config: TrainerConfig, epoch_examples: Callable[[int], list],
         readout: Callable, batch_loss: Callable[..., float], validation: _Validation | None = None):
    """The minibatch loop of every trainer; updates ``params`` in place.

    ``batch_loss(params, batch, grads, row)`` adds a batch's summed loss
    gradient to ``grads`` and returns the summed loss; ``row(parts)`` gives
    the (counts, activations, readout) of a set or union, once per batch.
    Returns the best validated epoch's parameters and threshold (the last
    epoch's parameters and None without validation) and, per validated
    epoch, (mean batch loss, macro accuracy, threshold, validation scores).
    """
    cache = CountsCache(params.vocab)
    if validation is not None:
        val_counts = [cache.counts([s]) for s in validation.mixture]
        val_labels = [s.label for s in validation.mixture]
    optimizer = _Optimizer(params, config)
    history: list[tuple[float, float, Threshold, list[float]]] = []
    best: tuple[float, ModelParams, Threshold] | None = None
    for epoch in range(config.epochs):
        examples = epoch_examples(epoch)
        losses: list[float] = []
        for step, start in enumerate(range(0, len(examples), config.batch_size)):
            batch = examples[start : start + config.batch_size]
            rows: dict[tuple[int, ...], tuple[TokenCounts, Activations, object]] = {}

            def row(parts: Sequence[StatementSet]) -> tuple[TokenCounts, Activations, object]:
                key = tuple(map(id, parts))
                if key not in rows:
                    tc = cache.counts(parts)
                    acts = forward(params, tc)
                    rows[key] = (tc, acts, readout(params, tc, acts))
                return rows[key]

            grads = zero_grads(params)
            loss = batch_loss(params, batch, grads, row) / len(batch)
            losses.append(loss)
            optimizer.step(params, grads)
            _check_finite(loss, params, epoch, step)
        if validation is None:
            continue
        scores = [validation.score(params, tc) for tc in val_counts]
        value, acc, degenerate = _threshold_scan(scores, val_labels)
        threshold = Threshold(value, epoch, validation.source, degenerate)
        history.append((float(np.mean(losses)), acc, threshold, scores))
        if best is None or acc > best[0]:
            best = (acc, params.copy(), threshold)
    return (params, None, history) if best is None else (best[1], best[2], history)


def train(params: ModelParams, splits, config: TrainerConfig) -> TrainResult:
    """Hinge-contrast training; returns the best-validation1 epoch's model.

    ``splits`` needs ``train`` and ``validation1`` set lists.  The
    returned threshold is the one learned at the winning epoch.
    """
    pool_c, pool_i = base_pools(splits.train)
    namespaces = _namespaces(pool_c + pool_i)
    mixture = build_threshold_mixture(splits.validation1, rng_seed=config.rng_seed, per_class=config.val_per_class)
    best, threshold, history = _fit(
        params.copy(), config, lambda epoch: _epoch_instances(pool_c, pool_i, config, epoch, namespaces),
        energy_from_counts, partial(_hinge_batch, alpha=config.alpha),
        _Validation(mixture, energy_from_counts, "energy"),
    )
    log = [EpochStats(epoch, loss, acc, t.value, _median_energies(mixture, scores))
           for epoch, (loss, acc, t, scores) in enumerate(history)]
    return TrainResult(params=best, threshold=threshold, log=log)


def train_binary(params: ModelParams, splits, config: TrainerConfig) -> tuple[ModelParams, Threshold]:
    """Cross-entropy training of the 2-way head on the five set classes."""
    pool_c, pool_i = base_pools(splits.train)
    namespaces = _namespaces(pool_c + pool_i)
    mixture = build_threshold_mixture(splits.validation1, rng_seed=config.rng_seed, per_class=config.val_per_class)
    best, threshold, _ = _fit(
        params.copy(), config, lambda epoch: _binary_instances(pool_c, pool_i, config, epoch, namespaces),
        logits_from_counts, _cross_entropy_batch,
        _Validation(mixture, lambda p, tc: float(softmax(logits_from_counts(p, tc))[1]), "inconsistent-softmax"),
    )
    return best, threshold


def cross_entropy(logits: np.ndarray, label: int) -> float:
    probs = softmax(np.asarray(logits, dtype=np.float64))
    return -float(np.log(max(probs[label], 1e-300)))


def fine_tune(
    source_params: ModelParams,
    source_pool: Sequence[StatementSet],
    target_pool: Sequence[StatementSet],
    n: int,
    config: TrainerConfig,
) -> ModelParams:
    """Adapt a trained scorer with n source + n target pairs per epoch.

    Pools are full split lists (both labels).  Every epoch re-samples n
    matched base pairs from each domain, trains the configured contrast
    regime on the 2n pairs, and adds ``l2_weight`` times the squared
    distance to the anchor ("zero" or "start") to the loss.
    """
    params = source_params.copy()
    src_c, src_i = base_pools(source_pool)
    tgt_c, tgt_i = base_pools(target_pool)
    if n > min(len(src_c), len(src_i)) or n > min(len(tgt_c), len(tgt_i)):
        raise ValueError("n exceeds a pool size")
    anchor = {name: arr.copy() for name, arr in params.arrays().items()} if config.l2_anchor == "start" else None

    def epoch_instances(epoch: int) -> list[ContrastInstance]:
        rng = random.Random(f"fine-tune:{config.rng_seed}:{epoch}")
        instances = []
        for pool_c, pool_i, offset in ((src_c, src_i, 0), (tgt_c, tgt_i, 1)):
            indices = rng.sample(range(min(len(pool_c), len(pool_i))), n)
            instances.extend(build_contrast_batch(
                [pool_c[i] for i in indices], [pool_i[i] for i in indices], config.regime,
                rng_seed=config.rng_seed * 10_000 + epoch * 10 + offset, pairs=n,
            ))
        rng.shuffle(instances)
        return instances

    def batch_loss(params, batch, grads, row) -> float:
        loss = _hinge_batch(params, batch, grads, row, config.alpha)
        if config.l2_weight:
            for name, arr in params.arrays().items():
                delta = arr if anchor is None else arr - anchor[name]
                grads[name] += 2.0 * config.l2_weight * delta
                loss += config.l2_weight * float((delta * delta).sum())
        return loss

    return _fit(params, config, epoch_instances, energy_from_counts, batch_loss)[0]
