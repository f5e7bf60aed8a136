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

All three share one minibatch loop, :func:`_fit`, which yields each
epoch's mean loss; the first two share one set-up, per-epoch validation
and :class:`TrainResult`, :func:`_train`.  An epoch is a plan
of integers: :func:`_plan` draws the base pairs and partners and names
each side (a set, or the union of two) by the rows of its parts in one
:class:`CountsCache`, each pool set's rows in the vocabulary's statement
table.  A side's counts are CLS plus its parts' statement rows, from the
table's one counting routine.  :func:`_compile` works out,
``_CHUNK`` batches at a time, all of a batch that no parameter changes:
its distinct sides as rows of one dense (sides x vocabulary) count
array (one ``np.unique`` and one ``bincount`` per chunk), the tokens
they touch (its nonzero columns) and a dense (sides x tokens) block of
count / total weights.  A step then runs only
parameter math: stacked arrays through :func:`model.encode`, the
forward the scorers use too (one ``counts.dot(emb[ids])`` product per
distinct set, everything else once per batch), and a backward pass
whose embedding gradient is one ``einsum`` of the weight block with the
calls' pooled gradients.  A stacked ``np.matmul`` calls the same BLAS
routine once per row and the gradients are added in the per-example
order, so the trained models are bit-identical to a per-instance loop
over serialized unions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .datagen import (
    CONSISTENT,
    StatementSet,
    compose_union,
    pools,
)
from .logic import DataError
from .model import (
    HEADS,
    ModelParams,
    Vocabulary,
    class_softmax,
    csr_ranges,
    encode,
    energies,
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

# The sides of a base pair, in the order the eight kinds first name them: the
# columns of an epoch plan, and the binary baseline's examples per pair.
SIDE_TAGS = tuple(dict.fromkeys(tag for kind in CONTRAST_KINDS for tag in kind))

# The threshold mixture's classes, consistent ones first.
THRESHOLD_CLASSES = ("C", "CC", "I", "CI", "II")

class PoolExhaustedError(DataError, ValueError):
    """A base pool is empty, or could not supply a partner set with a disjoint namespace."""


class EmptyValidationError(DataError, ValueError):
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
        for name, value in (("alpha", self.alpha), ("learning_rate", self.learning_rate)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")
        if not (math.isfinite(self.l2_weight) and self.l2_weight >= 0):
            raise ValueError(f"l2_weight must be a finite number >= 0, got {self.l2_weight}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.l2_anchor not in ("zero", "start"):
            raise ValueError(f"l2_anchor must be 'zero' or 'start', got {self.l2_anchor!r}")
        for name in ("epochs", "batch_size", "pairs_per_epoch", "val_per_class"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class Threshold:
    value: float
    learned_epoch: int = -1
    source: str = "energy"               # the model.HEADS score it applies to
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
    mean_loss: float                     # the mean batch loss: the hinge (energy) or the cross-entropy (binary)
    val1_macro_acc: float
    threshold: float
    median_scores: dict[str, float]      # the validation1 mixture's median head score, per provenance class


@dataclass
class TrainResult:
    params: ModelParams
    threshold: Threshold
    log: list[EpochStats]


# A side, a set or the union of two, is one int64 key over a CountsCache's rows:
# its first part's row times _PART, plus one more than its second part's row
# (so a single set's key is its row times _PART).
_PART = 1 << 32


# Sets looked up at a time when a CountsCache is built: looking up a whole pool's
# statement texts at once raised the peak RSS of the README's QA `train` (a 4,000-set
# pool) from 60.4 to 62.3 MB.
_BLOCK = 256


class CountsCache:
    """A fixed list of sets as statement rows of the vocabulary's table: set ``r`` is ``sets[r]``.

    Set ``r`` owns ``rows[offsets[r]:offsets[r + 1]]``; no token is counted
    or kept here.  A side, a set or the union of two, is counted over the
    concatenation of its parts' rows by :meth:`StatementTable.count`.  Sets
    are named by row, never by id, so two sets that share an id keep their own.
    """

    def __init__(self, vocab: Vocabulary, sets: Sequence[StatementSet]) -> None:
        self.table = vocab.table
        self.rows = np.concatenate([np.empty(0, dtype=np.int64)] + [
            vocab.table.rows([st for s in sets[start : start + _BLOCK] for st in s.statements])
            for start in range(0, len(sets), _BLOCK)])
        self.offsets = np.append(0, np.cumsum([len(s.statements) for s in sets], dtype=np.int64))

    def counts(self, rows: Sequence[int]) -> np.ndarray:
        """(V,) token counts of the serialized union of the sets at ``rows`` (CLS included); the tests' reference."""
        at, _ = csr_ranges(self.offsets, np.asarray(rows, dtype=np.int64))
        return self.table.count(self.rows[at], np.zeros(len(at), dtype=np.int64), 1)[0]

    def batch(self, sides: np.ndarray) -> np.ndarray:
        """(sides, V) :meth:`counts` of each side, given by its key, from one count over its parts' statement rows."""
        first, second = np.divmod(sides, _PART)
        union = np.flatnonzero(second)
        at, lengths = csr_ranges(self.offsets, np.concatenate([first, second[union] - 1]))
        owners = np.repeat(np.concatenate([np.arange(len(sides)), union]), lengths)
        return self.table.count(self.rows[at], owners, len(sides))


def _draw_partner(pool: Sequence[int], namespaces: Sequence[frozenset[str]], taken: frozenset[str],
                  rng: random.Random, tag: str, letter: str, blocked: StatementSet) -> int:
    """The first of up to 200 uniform draws from ``pool`` whose namespaces miss ``taken``.

    ``pool`` holds the rows of the ``letter`` base pool and ``namespaces``
    every row's atom namespaces; the error names the class ``tag`` and the
    set ``blocked`` a partner was sought for.
    """
    for _ in range(200):
        row = pool[rng.randrange(len(pool))]
        if namespaces[row].isdisjoint(taken):
            return row
    raise PoolExhaustedError(f"class {tag!r}: no namespace-disjoint partner for set {blocked.id!r} "
                             f"in the {letter} pool of size {len(pool)} after 200 draws")


class _Pools(NamedTuple):
    """C and I base pools as rows of one list of sets; in training, ``c[k]`` and ``i[k]`` are a matched pair."""

    sets: list[StatementSet]
    namespaces: list[frozenset[str]]     # each set's atom namespaces
    c: Sequence[int]
    i: Sequence[int]


def _base_rows(*groups: tuple[Sequence[StatementSet], Sequence[StatementSet]]) -> list[_Pools]:
    """Each (C pool, I pool) group as rows of one list of all their sets, in order."""
    sets = [s for pool_c, pool_i in groups for s in (*pool_c, *pool_i)]
    namespaces = [s.namespaces() for s in sets]
    out, start = [], 0
    for pool_c, pool_i in groups:
        mid, stop = start + len(pool_c), start + len(pool_c) + len(pool_i)
        out.append(_Pools(sets, namespaces, range(start, mid), range(mid, stop)))
        start = stop
    return out


class _Plan(NamedTuple):
    """An epoch's base pairs as integers, one column per :data:`SIDE_TAGS` side."""

    sides: np.ndarray    # (pairs, 5) side keys; -1 where the regime needs no such side
    seeds: np.ndarray    # (pairs, 5) union shuffle seeds; -1 for single sets and absent sides


def _plan(pools: _Pools, regime: str, rng_seed: int, pairs: int | None) -> _Plan:
    """Sampled base pairs and their union partners, as rows of ``pools.sets``.

    For every base pair (S_C, S_I) the union parts of S_CC, S_CI, S_II are
    drawn once, from independently sampled namespace-disjoint partners,
    each union with its own shuffle seed.  S_C and S_I are sampled at the
    same pool index (pools generated as matched pairs).
    """
    sets, namespaces, pool_c, pool_i = pools
    if not pool_c or not pool_i:
        raise PoolExhaustedError("empty base pool")
    needed = {tag for kind in REGIMES[regime] for tag in kind}
    # Separate streams so the base-pair sequence is identical across
    # regimes for one seed (partner draws consume the second stream only).
    pair_rng = random.Random(f"contrast-pairs:{rng_seed}")
    rng = random.Random(f"contrast-partners:{rng_seed}")
    size = min(len(pool_c), len(pool_i))
    # Per union: its tag, its base set (0: S_C, 1: S_I), and the pool and letter of its partner.
    unions = [(tag, base, pool, letter) for tag, base, pool, letter in
              (("CC", 0, pool_c, "C"), ("CI", 1, pool_c, "C"), ("II", 1, pool_i, "I")) if tag in needed]
    drawn: list[list[int]] = []          # per pair: S_C, S_I, each union's partner, each union's seed
    for _ in range(size if pairs is None else pairs):
        k = pair_rng.randrange(size)
        base_rows = (pool_c[k], pool_i[k])
        taken = namespaces[base_rows[0]] | namespaces[base_rows[1]]
        row = [*base_rows]
        for tag, base, pool, letter in unions:
            row.append(_draw_partner(pool, namespaces, taken, rng, tag, letter, sets[base_rows[base]]))
        row += [rng.randrange(2**31) for _ in unions]
        drawn.append(row)
    table = np.array(drawn, dtype=np.int64).reshape(-1, 2 + 2 * len(unions))
    sides = np.full((len(table), len(SIDE_TAGS)), -1, dtype=np.int64)
    seeds = sides.copy()
    sides[:, [SIDE_TAGS.index("C"), SIDE_TAGS.index("I")]] = table[:, :2] * _PART
    for u, (tag, base, _, _) in enumerate(unions):
        partner = table[:, 2 + u]
        # The parts follow the tag's letters: CC is (S_C, partner), CI (partner, S_I), II (S_I, partner).
        first, second = (partner, table[:, base]) if tag == "CI" else (table[:, base], partner)
        sides[:, SIDE_TAGS.index(tag)] = first * _PART + second + 1
        seeds[:, SIDE_TAGS.index(tag)] = table[:, 2 + len(unions) + u]
    return _Plan(sides, seeds)


def _hinge_sides(plan: _Plan, regime: str) -> np.ndarray:
    """(more, less) side keys of every contrast instance: pair by pair, kinds in regime order."""
    columns = [[SIDE_TAGS.index(tag) for tag in kind] for kind in REGIMES[regime]]
    return plan.sides[:, columns].reshape(-1, 2)


def _parts(sets: Sequence[StatementSet], key: int) -> tuple[StatementSet, ...]:
    first, second = divmod(key, _PART)
    return (sets[first],) if second == 0 else (sets[first], sets[second - 1])


def build_contrast_batch(
    pool_C: Sequence[StatementSet],
    pool_I: Sequence[StatementSet],
    regime: str,
    rng_seed: int,
    pairs: int | None = None,
) -> list[ContrastInstance]:
    """Contrast instances for sampled base pairs: :func:`_plan`'s draws as objects.

    For every base pair one instance per contrast kind in the regime is
    emitted, in regime order.  Training reads the plan itself; this view
    names the sets and composes a union on demand.
    """
    (pools,) = _base_rows((pool_C, pool_I))
    plan = _plan(pools, regime, rng_seed, pairs)
    out: list[ContrastInstance] = []
    for keys, seeds in zip(plan.sides.tolist(), plan.seeds.tolist()):
        parts = {tag: _parts(pools.sets, key) for tag, key in zip(SIDE_TAGS, keys) if key >= 0}
        seed = {tag: value for tag, value in zip(SIDE_TAGS, seeds) if value >= 0}
        out += [ContrastInstance((more, less), parts[more], parts[less], seed.get(more), seed.get(less))
                for more, less in REGIMES[regime]]
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


def _draw_mixture(pools: _Pools, classes: Sequence[str], per_class: int | None, rng: random.Random,
                  set_id: Callable[[str, int], str]) -> list[StatementSet]:
    """``per_class`` sets of each class in ``classes``, in order (default: as many as the smaller pool has).

    Set ``k`` of a class starts from the ``k``-th row, round robin, of the
    pool of the tag's first letter; each further letter adds a
    namespace-disjoint partner from its pool (:func:`_draw_partner`), and
    a union named ``set_id(tag, k)`` then draws its shuffle seed.  Parts
    follow the tag's letters, which sort C before I.
    """
    sets, namespaces, rows = pools.sets, pools.namespaces, {"C": pools.c, "I": pools.i}
    for tag in classes:
        empty = next((ch for ch in tag if not rows[ch]), None)
        if empty is not None:
            raise PoolExhaustedError(f"class {tag!r} needs {empty!r} base sets, and the {empty!r} pool is empty")
    per_class = min(len(pools.c), len(pools.i)) if per_class is None else per_class
    if per_class < 1:
        raise ValueError("per_class_count must be >= 1")
    out: list[StatementSet] = []
    for tag in classes:
        for k in range(per_class):
            first = rows[tag[0]][k % len(rows[tag[0]])]
            parts, taken = [sets[first]], namespaces[first]
            for ch in tag[1:]:
                partner = _draw_partner(rows[ch], namespaces, taken, rng, tag, ch, sets[first])
                taken |= namespaces[partner]
                parts.append(sets[partner])
            out.append(parts[0] if len(parts) == 1 else
                       compose_union(parts, set_id=set_id(tag, k), shuffle_seed=rng.randrange(2**31)))
    return out


def build_threshold_mixture(
    validation_sets: Sequence[StatementSet],
    rng_seed: int = 0,
    per_class: int | None = None,
) -> list[StatementSet]:
    """C/CC/I/CI/II mixture over a validation split for threshold fitting."""
    (base,) = _base_rows(pools(validation_sets))
    return _draw_mixture(base, THRESHOLD_CLASSES, per_class, random.Random(f"threshold-mixture:{rng_seed}"),
                         lambda tag, k: f"thr-{tag}-{k}")


# Sets that one validation encode gathers: one gather over a 1,000-set mixture's rows adds
# 18 MB of peak RSS; keeping every batch's counts for a run added 0.6 MB (QA) and 1.9 MB
# (SNLI) to the README trains'.  encode gives each stream the same bits whatever the batch.
_SCORE_BATCH = 32


def _scorer(vocab: Vocabulary, sets: Sequence[StatementSet], source: str) -> Callable[[ModelParams], list[float]]:
    """A function from parameters to the ``HEADS[source]`` score of each of ``sets``, each batch counted anew."""
    table, keys, head = CountsCache(vocab, sets), np.arange(len(sets)) * _PART, HEADS[source]
    return lambda params: [x for start in range(0, len(sets), _SCORE_BATCH) for x in
                           head(params, encode(params, table.batch(keys[start : start + _SCORE_BATCH]))[1]).tolist()]


def learn_threshold(params: ModelParams, validation_sets: Sequence[StatementSet],
                    epoch: int = -1) -> Threshold:
    """Threshold over model energies maximizing macro accuracy on the given sets."""
    scores = _scorer(params.vocab, validation_sets, "energy")(params)
    value, _, degenerate = _threshold_scan(scores, [s.label for s in validation_sets])
    return Threshold(value=value, learned_epoch=epoch, source="energy", degenerate=degenerate)


_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


class _Adam:
    """Adam with the default betas and epsilon over one flat buffer.

    ``params``' arrays become views into :attr:`flat`, and :attr:`grads`
    holds the matching views into the gradient buffer.  A step writes into
    preallocated buffers, in the operation order of the textbook update.
    """

    def __init__(self, params: ModelParams, learning_rate: float) -> None:
        arrays = params.arrays()
        self.flat = np.concatenate([arr.ravel() for arr in arrays.values()])
        self.grad = np.zeros_like(self.flat)
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self._scratch = np.empty_like(self.flat), np.empty_like(self.flat)
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
        g, (step, denom) = self.grad, self._scratch
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        self.m *= b1
        self.m += np.multiply(g, 1.0 - b1, out=step)
        self.v *= b2
        np.multiply(g, 1.0 - b2, out=denom)
        self.v += np.multiply(denom, g, out=denom)
        # flat -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(self.m, 1.0 - b1 ** self.t, out=step)
        np.divide(self.v, 1.0 - b2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += _ADAM_EPS
        step *= self.learning_rate
        step /= denom
        self.flat -= step


def _median_scores(mixture: Sequence[StatementSet], scores: Sequence[float]) -> dict[str, float]:
    by_class: dict[str, list[float]] = {}
    for s, score in zip(mixture, scores):
        by_class.setdefault(s.provenance, []).append(score)
    return {tag: float(np.median(vals)) for tag, vals in sorted(by_class.items())}


class _Examples(NamedTuple):
    """An epoch's training examples as :class:`CountsCache` side keys."""

    sides: np.ndarray                    # (N, 2) (more, less) pairs for the hinge; (N,) for cross-entropy
    labels: np.ndarray | None = None     # cross-entropy labels


def _epoch_instances(pools: _Pools, config: TrainerConfig, epoch: int) -> _Examples:
    """The contrast instances of one energy-training epoch."""
    plan = _plan(pools, config.regime, config.rng_seed * 1_000 + epoch, config.pairs_per_epoch)
    return _Examples(_hinge_sides(plan, config.regime))


def _binary_instances(pools: _Pools, config: TrainerConfig, epoch: int) -> _Examples:
    """Every side of every base pair, labelled, pair by pair in :data:`SIDE_TAGS` order."""
    plan = _plan(pools, "eight", config.rng_seed * 1_000 + epoch, config.pairs_per_epoch)
    labels = np.tile([int("I" in tag) for tag in SIDE_TAGS], len(plan.sides))
    return _Examples(plan.sides.ravel(), labels)


def _check_finite(value: float, params: ModelParams, flat: np.ndarray, epoch: int, step: int) -> None:
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite loss at epoch {epoch}, step {step}")
    if not np.isfinite(flat).all():
        name = next(name for name, arr in params.arrays().items() if not np.isfinite(arr).all())
        raise TrainingDivergedError(f"non-finite {name} at epoch {epoch}, step {step}")


def _in_order(values: np.ndarray) -> float:
    """``0.0`` plus each value in turn; numpy's 1-D ``sum`` adds pairwise, in another order."""
    return float(np.cumsum(np.append(0.0, values))[-1])


# Batches compiled at a time.  A chunk counts its distinct sides into one
# (sides x vocabulary) array and keeps it and every batch's weight block until
# the chunk's last step.  On the desk pipelines, compiling whole epochs raised
# peak RSS by 14-21 MB, chunks of 16 batches by 0.8-2.0 MB and chunks of 8
# by at most 0.4 MB, for about 4% more training time than 16.
_CHUNK = 8


class _Step(NamedTuple):
    """A batch compiled from an epoch's examples: all its step reads that no parameter changes."""

    counts: np.ndarray                   # (sides, V) counts of its distinct sides, in ascending key order
    at: np.ndarray                       # each example's side(s), as rows of ``counts``
    labels: np.ndarray | None            # cross-entropy labels
    touched: np.ndarray                  # ascending ids of the tokens its sides hold
    weights: np.ndarray                  # (sides, touched): each side's count / total of each token


def _compile(table: CountsCache, examples: _Examples, batch_size: int) -> Iterator[_Step]:
    """Each ``batch_size`` batch of ``examples`` as a :class:`_Step`, ``_CHUNK`` batches at a time.

    A chunk finds its distinct (batch, side) pairs with one ``np.unique``
    and counts them with one :meth:`CountsCache.batch`.  Each side is
    counted on its own, so a batch's rows equal the count of its own
    ``np.unique(sides)``; its touched tokens are the nonzero columns of
    those rows, and its weight block their counts over the rows' sums.
    """
    for start in range(0, len(examples.sides), batch_size * _CHUNK):
        sides = examples.sides[start : start + batch_size * _CHUNK]
        n_batches = -(-len(sides) // batch_size)
        keys, rank = np.unique(sides, return_inverse=True)
        batch_of = np.arange(sides.size) // (sides.size // len(sides) * batch_size)    # per side, row-major
        pairs, at = np.unique(batch_of * len(keys) + rank.ravel(), return_inverse=True)
        counts = table.batch(keys[pairs % len(keys)])
        side_start = np.searchsorted(pairs // len(keys), np.arange(n_batches + 1))
        at = at.reshape(sides.shape)
        for b, (s0, s1) in enumerate(zip(side_start[:-1].tolist(), side_start[1:].tolist())):
            block = counts[s0:s1]
            touched = np.flatnonzero(block.any(axis=0))
            lo, hi = b * batch_size, (b + 1) * batch_size
            yield _Step(
                block,
                at[lo:hi] - s0,
                None if examples.labels is None else examples.labels[start + lo : start + hi],
                touched,
                block[:, touched] / block.sum(axis=1)[:, None],
            )


def _backprop(params: ModelParams, grads: dict[str, np.ndarray], step: _Step,
              pooled: np.ndarray, hidden: np.ndarray, calls: np.ndarray, d_hidden: np.ndarray) -> None:
    """Write the encoder's gradient of every call: side ``calls[c]`` with upstream ``d_hidden[c]``.

    Each array receives the calls' terms in call order, as successive
    per-example ``+=`` would: axis-0 sums run row by row, and ``einsum``
    over the calls adds one product after another onto zeros.  A token
    that a call's side lacks adds a zero weight's ``+-0.0``, which leaves
    every sum as it was, a zero's sign included.  ``grads`` is zeroed, so
    the rows of untouched tokens stay zero.
    """
    h = hidden[calls]
    d_pre = (1.0 - h * h) * d_hidden
    grads["b_hidden"][...] = d_pre.sum(axis=0)
    grads["w_hidden"][...] = np.einsum("ci,cj->ij", pooled[calls], d_pre)
    d_pooled = np.matmul(params.w_hidden, d_pre[:, :, None])[:, :, 0]
    grads["emb"][step.touched] = np.einsum("cv,cj->vj", step.weights[calls], d_pooled)


def _batch_step(params: ModelParams, grads: dict[str, np.ndarray], step: _Step, alpha: float) -> float:
    """Write a batch's summed-loss gradient to the zeroed ``grads``; returns the summed loss.

    A batch of (more, less) pairs pays the margin hinge, and each active
    pair adds its ``more`` then its ``less`` gradient; a labelled batch
    pays the cross-entropy, in batch order.  Each distinct side is encoded
    once; the sides' order changes no sum, which follow the calls' order.
    """
    at = step.at
    pooled, hidden = encode(params, step.counts)
    scale = 1.0 / len(at)
    if step.labels is None:
        energy = energies(params, hidden)
        losses = np.maximum(energy[at[:, 0]] - energy[at[:, 1]] + alpha, 0.0)
        calls = at[losses > 0.0].ravel()
        signs = np.full(len(calls), scale)
        signs[1::2] = -scale
        d_hidden = signs[:, None] * params.w_energy
        grads["w_energy"][...] = (signs[:, None] * hidden[calls]).sum(axis=0)
        grads["b_energy"][...] = _in_order(signs)
    else:
        calls, labels, rows = at, step.labels, np.arange(len(at))
        upstream = class_softmax(params, hidden)[calls]
        losses = -np.log(np.maximum(upstream[rows, labels], 1e-300))
        upstream[rows, labels] -= 1.0
        d_hidden = scale * np.matmul(params.w_class, upstream[:, :, None])[:, :, 0]
        grads["w_class"][...] = (scale * (hidden[calls][:, :, None] * upstream[:, None, :])).sum(axis=0)
        grads["b_class"][...] = (scale * upstream).sum(axis=0)
    _backprop(params, grads, step, pooled, hidden, calls, d_hidden)
    return _in_order(losses)


def _fit(params: ModelParams, config: TrainerConfig, table: CountsCache, epoch_examples: Callable[[int], _Examples],
         penalty: Callable | None = None) -> Iterator[float]:
    """The minibatch loop of every trainer: updates ``params`` in place and yields each epoch's mean batch loss.

    ``epoch_examples(epoch)`` names its sides by their keys in ``table``.
    Each batch, compiled by :func:`_compile`, runs :func:`_batch_step`;
    ``penalty(params, grads, loss)``, when given, adds its gradient to
    ``grads`` and returns ``loss`` plus its value.  A caller runs it under
    ``np.errstate(over="ignore", invalid="ignore")``: a diverging run raises
    :class:`TrainingDivergedError`, not a warning.
    """
    optimizer = _Adam(params, config.learning_rate)
    for epoch in range(config.epochs):
        losses: list[float] = []
        for step, batch in enumerate(_compile(table, epoch_examples(epoch), config.batch_size)):
            optimizer.grad.fill(0.0)
            loss = _batch_step(params, optimizer.grads, batch, config.alpha)
            if penalty is not None:
                loss = penalty(params, optimizer.grads, loss)
            losses.append(loss / len(batch.at))
            optimizer.step()
            _check_finite(losses[-1], params, optimizer.flat, epoch, step)
        yield float(np.mean(losses))


def _train(params: ModelParams, splits, config: TrainerConfig,
           instances: Callable[[_Pools, TrainerConfig, int], _Examples], source: str) -> TrainResult:
    """What both trainers share: :func:`_fit` of ``instances`` over ``splits.train``'s base pools, the per-epoch
    log, and the epoch whose ``source`` head best separates a threshold mixture of ``splits.validation1``."""
    (base,) = _base_rows(pools(splits.train))
    mixture = build_threshold_mixture(splits.validation1, rng_seed=config.rng_seed, per_class=config.val_per_class)
    params, table = params.copy(), CountsCache(params.vocab, base.sets)
    scores_of, labels = _scorer(params.vocab, mixture, source), [s.label for s in mixture]
    log, best = [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch, loss in enumerate(_fit(params, config, table, lambda epoch: instances(base, config, epoch))):
            scores = scores_of(params)
            value, acc, degenerate = _threshold_scan(scores, labels)
            log.append(EpochStats(epoch, loss, acc, value, _median_scores(mixture, scores)))
            if best is None or acc > best[0]:
                best = (acc, params.copy(), Threshold(value, epoch, source, degenerate))
    return TrainResult(params=best[1], threshold=best[2], log=log)


def train(params: ModelParams, splits, config: TrainerConfig) -> TrainResult:
    """Hinge-contrast training; returns the best-validation1 epoch's model.

    ``splits`` needs ``train`` and ``validation1`` set lists.  The
    returned threshold is the one learned at the winning epoch.
    """
    return _train(params, splits, config, _epoch_instances, "energy")


def train_binary(params: ModelParams, splits, config: TrainerConfig) -> TrainResult:
    """Cross-entropy training of the 2-way head on the five set classes: every side of the eight-kind plan,
    whatever ``config.regime``; ``config.alpha``, a margin, plays no part."""
    return _train(params, splits, config, _binary_instances, "inconsistent-softmax")


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
    domains = _base_rows(pools(source_pool), pools(target_pool))
    if any(n > min(len(domain.c), len(domain.i)) for domain in domains):
        raise ValueError("n exceeds a pool size")
    anchor = {name: arr.copy() for name, arr in params.arrays().items()} if config.l2_anchor == "start" else None

    def epoch_instances(epoch: int) -> _Examples:
        rng = random.Random(f"fine-tune:{config.rng_seed}:{epoch}")
        sides = []
        for offset, domain in enumerate(domains):
            indices = rng.sample(range(min(len(domain.c), len(domain.i))), n)
            sample = domain._replace(c=[domain.c[k] for k in indices], i=[domain.i[k] for k in indices])
            plan = _plan(sample, config.regime, config.rng_seed * 10_000 + epoch * 10 + offset, n)
            sides.append(_hinge_sides(plan, config.regime))
        order = list(range(sum(map(len, sides))))
        rng.shuffle(order)                 # the shuffle of an instance list: its draws depend only on the length
        return _Examples(np.concatenate(sides)[order])

    def penalty(params: ModelParams, grads: dict[str, np.ndarray], loss: float) -> float:
        for name, arr in params.arrays().items():
            delta = arr if anchor is None else arr - anchor[name]
            grads[name] += 2.0 * config.l2_weight * delta
            loss += config.l2_weight * float((delta * delta).sum())
        return loss

    table = CountsCache(params.vocab, domains[0].sets)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in _fit(params, config, table, epoch_instances, penalty if config.l2_weight else None):
            pass
    return params
