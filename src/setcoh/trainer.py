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
only as the sum of its parts' token counts and runs each batch as stacked
arrays through :func:`model.encode`, the forward the scorers use too: one
``counts @ emb[ids]`` product per distinct set, everything else once per
batch.  A stacked ``np.matmul`` calls the same BLAS routine once per row
and the gradients are added in the per-example order, so the trained
models are bit-identical to a per-instance loop over serialized unions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
    BatchCounts,
    ModelParams,
    TokenCounts,
    class_softmax,
    count_rows,
    encode,
    energies,
    energy_from_counts,
    softmax,
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
        self._by_set: dict[int, tuple[np.ndarray, np.ndarray, StatementSet]] = {}

    def counts(self, parts: Sequence[StatementSet]) -> TokenCounts:
        """Token counts of the serialized union of ``parts`` (CLS included)."""
        return self.batch([parts]).side(0)

    def batch(self, sides: Sequence[Sequence[StatementSet]]) -> BatchCounts:
        """:meth:`counts` of each side, from one bincount over its parts' histograms.

        The counts are integers, so any summation order gives the same floats.
        """
        v, n = len(self.vocab), len(sides)
        hists = [self._hist(part) for parts in sides for part in parts]
        keys = np.concatenate([np.arange(n) * v + CLS_INDEX, *(nz for nz, _ in hists)])
        keys[n:] += np.repeat(np.repeat(np.arange(n) * v, [len(parts) for parts in sides]),
                              [len(nz) for nz, _ in hists])
        dense = np.bincount(keys, np.concatenate([np.ones(n), *(hist for _, hist in hists)]), minlength=n * v)
        cells = np.flatnonzero(dense)
        bounds = np.searchsorted(cells // v, np.arange(n + 1))
        return BatchCounts(cells % v, dense[cells], bounds, dense.reshape(n, v).sum(axis=1))

    def _hist(self, part: StatementSet) -> tuple[np.ndarray, np.ndarray]:
        cached = self._by_set.get(id(part))
        if cached is None:
            hist = count_rows(self.vocab, part.statements).sum(axis=0)
            nz = np.nonzero(hist)[0]
            cached = self._by_set[id(part)] = (nz, hist[nz], part)
        return cached[0], cached[1]


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
    values = np.asarray(scores, dtype=np.float64)
    consistent = np.array([label == CONSISTENT for label in labels])
    distinct = np.unique(values)
    midpoints = (distinct[:-1] + distinct[1:]) / 2.0
    candidates = np.concatenate([midpoints, [np.inf, -np.inf]])
    by_label = np.sort(values[consistent]), np.sort(values[~consistent])
    n_cons, n_incons = map(len, by_label)
    # Sets scored strictly below each candidate, per label.
    below_c, below_i = (np.searchsorted(sorted_values, candidates) for sorted_values in by_label)
    acc_c = below_c / n_cons if n_cons else 0.0
    acc_i = (n_incons - below_i) / n_incons if n_incons else 0.0
    macro = (acc_c + acc_i) / 2.0
    best_acc = float(macro.max())
    finite_best = np.flatnonzero(macro[:-2] == best_acc)
    if finite_best.size:
        return float(midpoints[finite_best[0]]), best_acc, False
    return (float("inf") if macro[-2] == best_acc else float("-inf")), best_acc, True


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


class _Adam:
    """Adam with the default betas and epsilon over one flat buffer.

    ``params``' arrays become views into :attr:`flat`, and :attr:`grads`
    holds the matching views into the gradient buffer.
    """

    def __init__(self, params: ModelParams, learning_rate: float) -> None:
        arrays = params.arrays()
        self.flat = np.concatenate([arr.ravel() for arr in arrays.values()])
        self.grad = np.zeros_like(self.flat)
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self.grads: dict[str, np.ndarray] = {}
        start = 0
        for name, arr in arrays.items():
            stop = start + arr.size
            setattr(params, name, self.flat[start:stop].reshape(arr.shape))
            self.grads[name] = self.grad[start:stop].reshape(arr.shape)
            start = stop
        self.learning_rate = learning_rate
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1, b2 = _ADAM_BETAS
        g = self.grad
        self.m = b1 * self.m + (1.0 - b1) * g
        self.v = b2 * self.v + (1.0 - b2) * g * g
        m_hat = self.m / (1.0 - b1 ** self.t)
        v_hat = self.v / (1.0 - b2 ** self.t)
        self.flat -= self.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


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


def _check_finite(value: float, params: ModelParams, flat: np.ndarray, epoch: int, step: int) -> None:
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite loss at epoch {epoch}, step {step}")
    if not np.isfinite(flat).all():
        name = next(name for name, arr in params.arrays().items() if not np.isfinite(arr).all())
        raise TrainingDivergedError(f"non-finite {name} at epoch {epoch}, step {step}")


def _in_order(values: np.ndarray) -> float:
    """``0.0`` plus each value in turn; numpy's 1-D ``sum`` adds pairwise, in another order."""
    return float(np.cumsum(np.append(0.0, values))[-1])


def _backprop(params: ModelParams, grads: dict[str, np.ndarray], sides: BatchCounts,
              pooled: np.ndarray, hidden: np.ndarray, calls: np.ndarray, d_hidden: np.ndarray) -> None:
    """Write the encoder's gradient of every call: side ``calls[c]`` with upstream ``d_hidden[c]``.

    Each array receives the calls' terms in call order, as successive
    per-example ``+=`` would: axis-0 sums run row by row, and ``bincount``
    adds its weights in the order given.
    """
    h = hidden[calls]
    d_pre = (1.0 - h * h) * d_hidden
    grads["b_hidden"][...] = d_pre.sum(axis=0)
    grads["w_hidden"][...] = (pooled[calls][:, :, None] * d_pre[:, None, :]).sum(axis=0)
    d_pooled = np.matmul(params.w_hidden, d_pre[:, :, None])[:, :, 0]
    lengths = np.diff(sides.bounds)
    per_call = lengths[calls]
    rows = np.arange(per_call.sum()) + np.repeat(sides.bounds[calls] - np.cumsum(per_call) + per_call, per_call)
    d = d_pooled.shape[1]
    cells = sides.ids[rows][:, None] * d + np.arange(d)
    terms = d_pooled[np.repeat(np.arange(len(calls)), per_call)]
    terms *= (sides.counts / np.repeat(sides.totals, lengths))[rows, None]
    emb = grads["emb"]
    emb[...] = np.bincount(cells.ravel(), terms.ravel(), minlength=emb.size).reshape(emb.shape)


def _batch_step(params: ModelParams, grads: dict[str, np.ndarray], cache: CountsCache,
                batch: Sequence, alpha: float) -> float:
    """Write a batch's summed-loss gradient to the zeroed ``grads``; returns the summed loss.

    A batch of :class:`ContrastInstance` pays the margin hinge, and each
    active pair adds its ``more`` then its ``less`` gradient; a batch of
    (parts, label) pays the cross-entropy, in batch order.  Each distinct
    side (a set or a union, keyed by its parts) is encoded once.
    """
    hinge = isinstance(batch[0], ContrastInstance)
    sides = [p for inst in batch for p in (inst.more_parts, inst.less_parts)] if hinge else [p for p, _ in batch]
    keys = [tuple(map(id, parts)) for parts in sides]
    index: dict[tuple[int, ...], int] = {}
    at = np.array([index.setdefault(key, len(index)) for key in keys])
    counts = cache.batch(list(dict(zip(keys, sides)).values()))
    pooled, hidden = encode(params, counts)
    scale = 1.0 / len(batch)
    if hinge:
        pairs = at.reshape(-1, 2)
        energy = energies(params, hidden)
        losses = np.maximum(energy[pairs[:, 0]] - energy[pairs[:, 1]] + alpha, 0.0)
        calls = pairs[losses > 0.0].ravel()
        signs = np.tile([scale, -scale], len(calls) // 2)
        d_hidden = signs[:, None] * params.w_energy
        grads["w_energy"][...] = (signs[:, None] * hidden[calls]).sum(axis=0)
        grads["b_energy"][...] = _in_order(signs)
    else:
        calls, labels, rows = at, np.array([label for _, label in batch]), np.arange(len(batch))
        upstream = class_softmax(params, hidden)[calls]
        losses = -np.log(np.maximum(upstream[rows, labels], 1e-300))
        upstream[rows, labels] -= 1.0
        d_hidden = scale * np.matmul(params.w_class, upstream[:, :, None])[:, :, 0]
        grads["w_class"][...] = (scale * (hidden[calls][:, :, None] * upstream[:, None, :])).sum(axis=0)
        grads["b_class"][...] = (scale * upstream).sum(axis=0)
    _backprop(params, grads, counts, pooled, hidden, calls, d_hidden)
    return _in_order(losses)


class _Validation(NamedTuple):
    mixture: list[StatementSet]
    score: Callable[[ModelParams, np.ndarray], np.ndarray]   # stacked hidden -> scores
    source: str                          # the fitted Threshold's source


def _fit(params: ModelParams, config: TrainerConfig, epoch_examples: Callable[[int], list],
         validation: _Validation | None = None, penalty: Callable | None = None):
    """The minibatch loop of every trainer; updates ``params`` in place.

    Each batch runs :func:`_batch_step`; ``penalty(params, grads, loss)``,
    when given, adds its gradient to ``grads`` and returns ``loss`` plus
    its value.  Returns the best validated epoch's parameters and threshold
    (the last epoch's parameters and None without validation) and, per
    validated epoch, (mean batch loss, macro accuracy, threshold, validation scores).
    """
    cache = CountsCache(params.vocab)
    if validation is not None:
        # In batches: one gather over a 1,000-set mixture's rows adds 18 MB of peak RSS.
        val_counts = [cache.batch([(s,) for s in validation.mixture[start : start + config.batch_size]])
                      for start in range(0, len(validation.mixture), config.batch_size)]
        val_labels = [s.label for s in validation.mixture]
    optimizer = _Adam(params, config.learning_rate)
    history: list[tuple[float, float, Threshold, list[float]]] = []
    best: tuple[float, ModelParams, Threshold] | None = None
    for epoch in range(config.epochs):
        examples = epoch_examples(epoch)
        losses: list[float] = []
        for step, start in enumerate(range(0, len(examples), config.batch_size)):
            batch = examples[start : start + config.batch_size]
            optimizer.grad.fill(0.0)
            loss = _batch_step(params, optimizer.grads, cache, batch, config.alpha)
            if penalty is not None:
                loss = penalty(params, optimizer.grads, loss)
            losses.append(loss / len(batch))
            optimizer.step()
            _check_finite(losses[-1], params, optimizer.flat, epoch, step)
        if validation is None:
            continue
        scores = [x for counts in val_counts for x in validation.score(params, encode(params, counts)[1]).tolist()]
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
        _Validation(mixture, energies, "energy"),
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
        _Validation(mixture, lambda p, hidden: class_softmax(p, hidden)[:, 1], "inconsistent-softmax"),
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

    def penalty(params: ModelParams, grads: dict[str, np.ndarray], loss: float) -> float:
        for name, arr in params.arrays().items():
            delta = arr if anchor is None else arr - anchor[name]
            grads[name] += 2.0 * config.l2_weight * delta
            loss += config.l2_weight * float((delta * delta).sum())
        return loss

    return _fit(params, config, epoch_instances, penalty=penalty if config.l2_weight else None)[0]
