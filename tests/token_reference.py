"""Reference token counting, each statement tokenized wherever it is used.

The differential tests compare a vocabulary's statement table and
``trainer.CountsCache`` against these dense paths, exactly: token counts
are integers, so every path must give the same floats.
"""

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


def assert_batches_equal(got, want):
    """Equal arrays in dtype, shape and value: dense count arrays, or what a step derives from them."""
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)

