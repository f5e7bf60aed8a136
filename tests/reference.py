"""The per-stream reference that the tests hold the batched paths to.

Token counting with each statement tokenized wherever it is used, a
serialized stream's counts, the softmax, zeroed gradients and the margin
hinge, one item at a time.  The differential tests compare a vocabulary's
statement table, ``trainer.CountsCache``, ``model.encode`` and
``trainer._batch_step`` against these paths, exactly: token counts are
integers, so every path must give the same floats.  No ``setcoh`` module
defines or imports any of them.
"""

import math
from itertools import chain

import numpy as np

from setcoh.model import CLS_INDEX, statement_text, tokenize


def count_rows(vocab, statements):
    """``(n, V)`` float token counts, one row per statement's tokenized text."""
    v = len(vocab)
    flat = [k * v + vocab.encode(w)
            for k, st in enumerate(statements) for w in tokenize(statement_text(st))]
    hist = np.bincount(np.asarray(flat, dtype=np.int64), minlength=len(statements) * v)
    return hist.reshape(len(statements), v).astype(np.float64)


def subset_counts(rows, keeps):
    """(len(keeps), V) counts of CLS plus each kept subset of the statements whose :func:`count_rows` are ``rows``."""
    b = len(keeps)
    mask = np.zeros((b, len(rows)))
    mask[np.repeat(np.arange(b), [len(keep) for keep in keeps]),
         np.fromiter(chain.from_iterable(keeps), dtype=np.intp)] = 1.0
    dense = mask @ rows
    dense[:, CLS_INDEX] += 1.0
    return dense


def stream_counts(t, vocab_size):
    """The (V,) float token counts of a serialized stream, CLS included: the row ``StatementTable.count`` gives."""
    return np.bincount(np.asarray(t.tokens, dtype=np.int64), minlength=vocab_size).astype(np.float64)


def softmax(logits):
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / exp.sum()


def zero_grads(params):
    return {name: np.zeros_like(arr) for name, arr in params.arrays().items()}


def hinge_loss(e_more_consistent, e_less_consistent, alpha):
    """``max(e_more - e_less + alpha, 0)``: zero once the margin is satisfied."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a positive finite number, got {alpha}")
    return max(e_more_consistent - e_less_consistent + alpha, 0.0)


def assert_batches_equal(got, want):
    """Equal arrays in dtype, shape and value: dense count arrays, or what a step derives from them."""
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
