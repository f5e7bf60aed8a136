"""The trainable set scorer: serialization, forward passes, analytic gradients.

A statement set is serialized to one token stream: a leading CLS token,
then each statement's text in shuffled order (QA pairs joined with
"The answer is").  Tokenization lowercases and splits on whitespace and
punctuation; out-of-vocabulary tokens map to UNK.

The encoder mean-pools token embeddings over the whole stream (CLS
included), applies one tanh hidden layer, and reads out either a scalar
energy or a 2-way logit pair from separate affine heads.  Mean pooling
makes the score exactly invariant under statement permutation, which is
why the forward pass works from token counts: two streams with equal
token multisets produce bit-identical scores.  Scoring and training
therefore never build the stream.  Each vocabulary keeps one
:class:`StatementTable`, the token counts of every distinct statement
text it has met, each text tokenized once; the counts of any subset of
a set, or of a training side (a set or a union), are CLS plus the sum
of its statements' rows, from one counting routine
(:meth:`StatementTable.count`), as one row of a dense (streams, V) float
array.  Only this module reads the table's arrays.

:func:`encode`, the one place that finds a batch's nonzero cells, runs the
forward pass for a whole batch of streams (:meth:`StatementTable.subsets`
for subsets of one set, ``trainer.CountsCache`` for training sides) and
gives the same bits as :func:`forward` on each; training and the model
scorers both call it.
:data:`HEADS` maps each threshold source (``"energy"``,
``"inconsistent-softmax"``) to its head's score of ``encode``'s hidden
rows; training, the scorers and the CLI look heads up there.  The
per-stream :func:`forward` and its heads and gradients, the tests'
reference, read one stream's (V,) row of the same counts.

Gradients are analytic (backprop through the three layers) and are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import re
import struct
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .datagen import QA, Statement, StatementSet
from .logic import DataError

CLS_TOKEN = "<cls>"
UNK_TOKEN = "<unk>"
CLS_INDEX = 0
UNK_INDEX = 1

QA_JOINER = "The answer is"

EMBED_DIM = 64      # default embedding width d
HIDDEN_DIM = 64     # default hidden-layer width h

_WORD_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")

_MAGIC = b"SCOH"
_FORMAT_VERSION = 1
# A parameter file's header after the magic: format version, d, h, vocabulary size, init seed.
_HEADER = struct.Struct("<IIIIQ")
MAX_SEED = 2**64 - 1    # the largest init seed the header's unsigned 64-bit field holds


class CorruptFileError(DataError, ValueError):
    """A parameter file is truncated or structurally invalid."""


class VersionMismatchError(DataError, ValueError):
    """A parameter file has an unsupported version or an inconsistent header."""


def tokenize(text: str) -> list[str]:
    """Lowercased tokens; punctuation characters become their own tokens."""
    return _WORD_RE.findall(text.lower())


def statement_text(s: Statement) -> str:
    if s.kind == QA:
        return f"{s.question} {QA_JOINER} {s.answer}."
    return s.text


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]
    index: dict[str, int] = field(compare=False)
    table: "StatementTable" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", StatementTable(self.index, len(self.tokens)))

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, token: str) -> int:
        return self.index.get(token, UNK_INDEX)

    def sha256(self) -> bytes:
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).digest()


def build_vocabulary(sets: Iterable[StatementSet]) -> Vocabulary:
    """Vocabulary over the given sets' statement texts (training split only), each distinct text tokenized once."""
    texts = {statement_text(statement) for s in sets for statement in s.statements}
    seen = set(chain.from_iterable(map(tokenize, texts)))
    seen.discard(CLS_TOKEN)
    seen.discard(UNK_TOKEN)
    tokens = (CLS_TOKEN, UNK_TOKEN, *sorted(seen))
    return Vocabulary(tokens=tokens, index={t: i for i, t in enumerate(tokens)})


@dataclass(frozen=True)
class TokenizedSet:
    """CLS-prefixed token index stream with per-statement boundaries.

    ``offsets[k]`` is the (start, end) slice of the k-th serialized
    statement; ``order[k]`` is its index in the original set.
    """

    tokens: tuple[int, ...]
    offsets: tuple[tuple[int, int], ...]
    order: tuple[int, ...]


def serialize_set(vocab: Vocabulary, s: StatementSet, shuffle_seed: int = 0) -> TokenizedSet:
    """Shuffle statements by ``shuffle_seed``, then tokenize the concatenation.

    The spec-level stream; scoring and training work from a vocabulary's
    :class:`StatementTable`, whose counts equal this stream's whatever the shuffle.
    """
    order = list(range(len(s.statements)))
    random.Random(f"serialize:{shuffle_seed}").shuffle(order)
    tokens: list[int] = [CLS_INDEX]
    offsets: list[tuple[int, int]] = []
    for original in order:
        words = tokenize(statement_text(s.statements[original]))
        start = len(tokens)
        tokens.extend(vocab.encode(w) for w in words)
        offsets.append((start, len(tokens)))
    return TokenizedSet(tokens=tuple(tokens), offsets=tuple(offsets), order=tuple(order))


def _layout(v: int, d: int, h: int) -> dict[str, tuple[int, ...]]:
    """Each parameter array's shape, in file order, for ``v`` tokens, embedding width ``d`` and hidden width ``h``."""
    return {"emb": (v, d), "w_hidden": (d, h), "b_hidden": (h,),
            "w_energy": (h,), "b_energy": (), "w_class": (h, 2), "b_class": (2,)}


@dataclass
class ModelParams:
    """Embedding table, hidden layer, and the two output heads."""

    vocab: Vocabulary
    emb: np.ndarray        # (V, d)
    w_hidden: np.ndarray   # (d, h)
    b_hidden: np.ndarray   # (h,)
    w_energy: np.ndarray   # (h,)
    b_energy: np.ndarray   # ()
    w_class: np.ndarray    # (h, 2)
    b_class: np.ndarray    # (2,)
    init_seed: int = 0

    @property
    def dims(self) -> tuple[int, int]:
        return self.emb.shape[1], self.w_hidden.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _layout(0, 0, 0)}

    def copy(self) -> "ModelParams":
        return ModelParams(
            vocab=self.vocab,
            init_seed=self.init_seed,
            **{name: arr.copy() for name, arr in self.arrays().items()},
        )

    def validate(self) -> None:
        for name, shape in _layout(len(self.vocab), *self.dims).items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name}: shape {arr.shape} != {shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name}: non-finite entries")

    @staticmethod
    def init(vocab: Vocabulary, d: int = EMBED_DIM, h: int = HIDDEN_DIM, seed: int = 0) -> "ModelParams":
        rng = np.random.default_rng(seed)
        params = ModelParams(
            vocab=vocab,
            emb=rng.normal(0.0, 0.1, (len(vocab), d)),
            w_hidden=rng.normal(0.0, 1.0 / np.sqrt(d), (d, h)),
            b_hidden=np.zeros(h),
            w_energy=rng.normal(0.0, 0.1, h),
            b_energy=np.zeros(()),
            w_class=rng.normal(0.0, 0.1, (h, 2)),
            b_class=np.zeros(2),
            init_seed=seed,
        )
        params.validate()
        return params


def csr_ranges(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``offsets[r]:offsets[r + 1]`` of each of ``rows``, concatenated, and each row's length."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths), lengths


def _reserve(array: np.ndarray, size: int) -> np.ndarray:
    """``array``, or a copy of it at least twice as long, so that it holds ``size`` items."""
    if size <= len(array):
        return array
    grown = np.empty(max(size, 2 * len(array)), dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class StatementTable:
    """One row per distinct statement text, each tokenized once, on first use.

    A CSR table: row ``r`` owns ``flat_ids[offsets[r]:offsets[r + 1]]``
    (ascending token ids) and the matching ``flat_counts``.  A statement's
    tokens depend only on :func:`statement_text`, so rows are keyed by that
    string.  The arrays grow in blocks that at least double, so adding a
    statement costs amortized time in its own tokens.
    """

    def __init__(self, index: dict[str, int], vocab_size: int) -> None:
        self.vocab_size, self._index = vocab_size, index
        self._row: dict[str, int] = {}
        self._cells = 0
        self.flat_ids = np.empty(0, dtype=np.int32)      # counted as int64 ids and float64 counts
        self.flat_counts = np.empty(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int64)

    def rows(self, statements: Sequence[Statement]) -> np.ndarray:
        """The row of each statement, adding the texts not met before."""
        texts = [statement_text(st) for st in statements]
        new = [text for text in texts if text not in self._row]
        if new:
            self._add(list(dict.fromkeys(new)))
        return np.fromiter(map(self._row.__getitem__, texts), dtype=np.int64, count=len(texts))

    def count(self, rows: np.ndarray, owners: np.ndarray, n: int) -> np.ndarray:
        """CLS plus the counts of the ``rows`` that each of the ``n`` streams owns, as (n, V) floats.

        One ``bincount`` over the rows' cells.  The counts are integers, so
        any summation order gives the same floats: a stream's row equals
        the token counts of its :func:`serialize_set` stream.
        """
        v = self.vocab_size
        cells, lengths = csr_ranges(self.offsets, rows)
        dense = np.bincount(np.repeat(owners * v, lengths) + self.flat_ids[cells], self.flat_counts[cells],
                            minlength=n * v).reshape(n, v)
        dense[:, CLS_INDEX] += 1
        return dense

    def subsets(self, rows: np.ndarray, keeps: Sequence[Sequence[int]]) -> np.ndarray:
        """Counts of CLS plus each kept subset of the statements whose rows are ``rows``."""
        owners = np.repeat(np.arange(len(keeps)), [len(keep) for keep in keeps])
        kept = rows[np.fromiter(chain.from_iterable(keeps), dtype=np.intp, count=len(owners))]
        return self.count(kept, owners, len(keeps))

    def _add(self, texts: list[str]) -> None:
        v, encode = self.vocab_size, self._index.get
        stream: list[int] = []               # every text's token ids, text after text
        lengths = []
        for text in texts:
            start = len(stream)
            stream += [encode(w, UNK_INDEX) for w in tokenize(text)]
            lengths.append(len(stream) - start)
        cells = np.repeat(np.arange(len(texts), dtype=np.int64) * v, lengths) + np.array(stream, dtype=np.int64)
        cells, counts = np.unique(cells, return_counts=True)
        first, last, start, stop = len(self._row), len(self._row) + len(texts), self._cells, self._cells + len(cells)
        self.flat_ids = _reserve(self.flat_ids, stop)
        self.flat_counts = _reserve(self.flat_counts, stop)
        self.offsets = _reserve(self.offsets, last + 1)
        self.flat_ids[start:stop] = cells % v
        self.flat_counts[start:stop] = counts
        self.offsets[first + 1 : last + 1] = start + np.searchsorted(cells // v, np.arange(1, len(texts) + 1))
        self._cells = stop
        self._row.update(zip(texts, range(first, last)))


Activations = tuple[np.ndarray, np.ndarray]


def forward(params: ModelParams, counts: np.ndarray) -> Activations:
    """``(pooled, hidden)`` of one stream's (V,) ``counts``: the mean-pooled embedding and the tanh layer's output."""
    ids = np.flatnonzero(counts)
    pooled = (counts[ids] @ params.emb[ids]) / counts.sum()
    hidden = np.tanh(pooled @ params.w_hidden + params.b_hidden)
    return pooled, hidden


def energy_from_counts(params: ModelParams, counts: np.ndarray) -> float:
    _, hidden = forward(params, counts)
    return float(hidden @ params.w_energy + params.b_energy)


def logits_from_counts(params: ModelParams, counts: np.ndarray) -> np.ndarray:
    _, hidden = forward(params, counts)
    return hidden @ params.w_class + params.b_class


def encode(params: ModelParams, counts: np.ndarray) -> Activations:
    """Stacked :func:`forward` of each row of the (streams, V) ``counts``, bit-identical to it row by row.

    Only ``counts @ emb[ids]`` runs per stream, over its nonzero ids in
    ascending order and one gather of ``emb``, as ``counts.dot(rows)``: the
    same gemv as ``@`` with less dispatch.  A stacked ``np.matmul`` calls
    the same BLAS routine once per row, where one dense (B, V) @ (V, d)
    gemm or a gather padded to a common length would sum in another order.
    """
    n, v = counts.shape
    nonzero = np.flatnonzero(counts != 0)    # on the float array itself, about 3x slower
    rows, cells = params.emb[nonzero % v], counts.ravel()[nonzero]
    b = np.searchsorted(nonzero // v, np.arange(n + 1)).tolist()
    pooled = np.array([cells[b[r]:b[r + 1]].dot(rows[b[r]:b[r + 1]]) for r in range(n)])
    pooled = pooled.reshape(n, params.emb.shape[1])   # (0, d) for an empty batch
    pooled /= counts.sum(axis=1)[:, None]
    hidden = np.tanh(np.matmul(pooled[:, None, :], params.w_hidden)[:, 0] + params.b_hidden)
    return pooled, hidden


def energies(params: ModelParams, hidden: np.ndarray) -> np.ndarray:
    """:func:`energy_from_counts` of each row of :func:`encode`'s ``hidden``."""
    return np.matmul(hidden[:, None, :], params.w_energy)[:, 0] + params.b_energy


def class_softmax(params: ModelParams, hidden: np.ndarray) -> np.ndarray:
    """The softmax of :func:`logits_from_counts` for each row of :func:`encode`'s ``hidden``."""
    logits = np.matmul(hidden[:, None, :], params.w_class)[:, 0] + params.b_class
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


# The score of each head, of each row of encode's hidden, by the name that
# a threshold gives as its source; a set is consistent iff its score is below.
HEADS: dict[str, Callable[[ModelParams, np.ndarray], np.ndarray]] = {
    "energy": energies,
    "inconsistent-softmax": lambda params, hidden: class_softmax(params, hidden)[:, 1],
}


def accumulate_grad_energy(params: ModelParams, counts: np.ndarray, into: dict[str, np.ndarray],
                           scale: float = 1.0) -> float:
    """Add ``scale`` times the energy gradient to ``into``; returns the energy."""
    pooled, hidden = forward(params, counts)
    value = float(hidden @ params.w_energy + params.b_energy)
    d_hidden = scale * params.w_energy
    _backprop_common(params, counts, pooled, hidden, d_hidden, into)
    into["w_energy"] += scale * hidden
    into["b_energy"] += scale
    return value


def accumulate_grad_logits(params: ModelParams, counts: np.ndarray, upstream: np.ndarray,
                           into: dict[str, np.ndarray], scale: float = 1.0) -> np.ndarray:
    """Add ``scale`` times the gradient of ``upstream @ logits``; returns the logits."""
    pooled, hidden = forward(params, counts)
    logits = hidden @ params.w_class + params.b_class
    d_hidden = scale * (params.w_class @ upstream)
    _backprop_common(params, counts, pooled, hidden, d_hidden, into)
    into["w_class"] += scale * np.outer(hidden, upstream)
    into["b_class"] += scale * upstream
    return logits


def _backprop_common(params: ModelParams, counts: np.ndarray, pooled: np.ndarray, hidden: np.ndarray,
                     d_hidden: np.ndarray, into: dict[str, np.ndarray]) -> None:
    d_pre = (1.0 - hidden * hidden) * d_hidden
    into["b_hidden"] += d_pre
    into["w_hidden"] += np.outer(pooled, d_pre)
    d_pooled = params.w_hidden @ d_pre
    ids = np.flatnonzero(counts)
    into["emb"][ids] += (counts[ids] / counts.sum())[:, None] * d_pooled[None, :]


def save_params(params: ModelParams, path) -> None:
    """Versioned binary container: header, vocabulary listing, float64 matrices."""
    params.validate()
    header = _MAGIC + _HEADER.pack(_FORMAT_VERSION, *params.dims, len(params.vocab), params.init_seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(params.vocab.sha256())
        for token in params.vocab.tokens:
            raw = token.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        for arr in params.arrays().values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CorruptFileError(f"truncated parameter file while reading {what}")
    return data


def load_params(path) -> ModelParams:
    """Inverse of :func:`save_params`; any file it cannot load raises
    :class:`VersionMismatchError` or :class:`CorruptFileError` as ``<path>: <reason>``.
    """
    with open(path, "rb") as raw:
        fh = io.BytesIO(raw.read())      # so that no header size makes a read allocate more than the file
    try:
        if _read_exact(fh, 4, "magic") != _MAGIC:
            raise CorruptFileError("not a parameter file (bad magic)")
        version, d, h, v, init_seed = _HEADER.unpack(_read_exact(fh, _HEADER.size, "header"))
        if version != _FORMAT_VERSION:
            raise VersionMismatchError(f"unsupported format version {version}")
        stored_hash = _read_exact(fh, 32, "vocabulary hash")
        tokens = []
        for i in range(v):
            (length,) = struct.unpack("<I", _read_exact(fh, 4, f"token {i} length"))
            tokens.append(_read_exact(fh, length, f"token {i}").decode("utf-8"))
        vocab = Vocabulary(tokens=tuple(tokens), index={t: i for i, t in enumerate(tokens)})
        if vocab.sha256() != stored_hash:
            raise VersionMismatchError("vocabulary hash does not match the stored listing")
        if len(vocab.index) < v:         # the index keeps a repeated token's last position
            token, first = next((t, i) for i, t in enumerate(tokens) if vocab.index[t] != i)
            raise CorruptFileError(f"vocabulary token {token!r} is listed at {first} and {vocab.index[token]}")
        if vocab.index.get(CLS_TOKEN) != CLS_INDEX or vocab.index.get(UNK_TOKEN) != UNK_INDEX:
            raise CorruptFileError(f"vocabulary listing does not start with {CLS_TOKEN!r}, {UNK_TOKEN!r}")
        arrays = {name: np.frombuffer(_read_exact(fh, 8 * math.prod(shape), name), dtype="<f8").reshape(shape).copy()
                  for name, shape in _layout(v, d, h).items()}
        if fh.read(1):
            raise CorruptFileError("trailing bytes after parameter arrays")
        params = ModelParams(vocab=vocab, init_seed=init_seed, **arrays)
        params.validate()
    except VersionMismatchError as exc:
        raise VersionMismatchError(f"{path}: {exc}") from None
    except ValueError as exc:            # CorruptFileError, a token that is not UTF-8, a non-finite entry
        raise CorruptFileError(f"{path}: {exc}") from None
    return params
