"""Consistency decisions from any scorer, plus greedy inconsistency localization.

A scorer maps a statement set to a real score (higher = less
consistent) and carries a decision threshold; the uniform rule,
:func:`classify`, is *consistent iff score < threshold* (a score exactly
at the threshold, or NaN, is inconsistent).  Concrete scorers wrap the
trained energy model, the binary classifier's softmax, the exact
truth-table oracle, or an externally produced score file.

Every strategy scores subsets of one set: ``compile(s)`` returns a
function from a batch of kept-index tuples of ``s`` to their scores, in
order (from the vocabulary's statement-table rows for the model,
truth-table masks for the oracle, and :func:`subset_id` rows for a score
file); every scorer's ``score(s)`` is one function, ``compile(s)`` of all
of ``s`` (:func:`_whole_set_score`).  The model scorers run a whole
batch through one stacked :func:`model.encode`, with the bits of scoring
each subset alone, and keep each distinct pair of statement-table rows'
score for the scorer's lifetime: a pair's stream is CLS plus its two rows'
counts, so a later pair of the same two rows, in any order, set or
context, is answered from the kept score, exactly.  The oracle decides a
union from its parts' compiles (:func:`datagen.compile_formulas`); a pair
there inherits its set's context, so the oracle keeps no pair scores.

Element-wise verification classifies all N(N-1)/2 statement pairs and
tolerates up to a given fraction of inconsistent pairs (the maximum
tolerance rate, MTR; :func:`tolerance_rule`).  Subsets inherit the
parent set's context formulas: world knowledge stays in force when
statements are dropped.

Localization removes, while the set is judged inconsistent and larger
than two statements, the statement whose exclusion yields the lowest
score, reusing that score as the next verification (so a full run
costs at most 1 + sum(k for k in 3..N) subset scores, from one compile
and one batch per iteration).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable, ClassVar, Protocol, Sequence

from .datagen import CONSISTENT, INCONSISTENT, StatementSet, compile_formulas
from .logic import AtomBudgetError, DataError, read_lines
from .logic import is_satisfiable  # noqa: F401 (bench/test_bench.py checks this binding)
from .model import HEADS, ModelParams, encode


class UnknownSetIdError(DataError, LookupError):
    """An external score file has no row for the requested set id."""


class MalformedScoreFileError(DataError, ValueError):
    """An external score file has a bad header or row, a non-finite number or a repeated id."""


SubsetScores = Callable[[Sequence[Sequence[int]]], list[float]]


class Scorer(Protocol):
    threshold: float

    def compile(self, s: StatementSet) -> SubsetScores: ...

    def score(self, s: StatementSet) -> float: ...


def _whole_set_score(scorer: Scorer, s: StatementSet) -> float:
    """``scorer.compile(s)`` of all of ``s``: every scorer's ``score``, bound in its own class body."""
    return scorer.compile(s)([range(len(s.statements))])[0]


@dataclass(frozen=True)
class PairwiseDetail:
    pair_count: int
    inconsistent_pairs: int
    ratio: float
    scores: tuple[float, ...]       # each pair's score, in itertools.combinations order


@dataclass(frozen=True)
class Verdict:
    label: str
    score: float
    detail: PairwiseDetail | None = None


@dataclass(frozen=True)
class LocateResult:
    removed_indices: tuple[int, ...]          # original positions, in removal order
    terminal: str                             # "consistent-reached" | "size-two-stop"
    trace: tuple[tuple[tuple[int, float], ...], ...]  # per iteration: (index, score) pairs

    def __post_init__(self) -> None:
        if len(set(self.removed_indices)) != len(self.removed_indices):
            raise ValueError("removed indices must be duplicate-free")


CONSISTENT_REACHED = "consistent-reached"
SIZE_TWO_STOP = "size-two-stop"


@dataclass(frozen=True)
class _ModelScorer:
    """A trained model with its learned threshold, scored by the :data:`model.HEADS` entry ``head``.

    A pair's score depends only on its two statement-table rows, and
    :func:`model.encode` gives a stream the same bits in any batch, so each
    distinct row pair is encoded once per scorer and its score kept.
    ``counters`` counts the pairs encoded (``pairs_scored``) and the pairs
    answered from the kept scores (``pairs_reused``).
    """

    params: ModelParams
    threshold: float
    head: ClassVar[str]
    # The score of each row pair scored so far, keyed by lo << 32 | hi of its two rows:
    # one int per unordered pair, smaller than a tuple.
    _pairs: dict[int, float] = field(default_factory=dict, init=False, repr=False, compare=False)
    counters: Counter[str] = field(default_factory=Counter, init=False, repr=False, compare=False)

    def compile(self, s: StatementSet) -> SubsetScores:
        params, head, table, memo = self.params, HEADS[self.head], self.params.vocab.table, self._pairs
        rows = table.rows(s.statements)
        row = rows.tolist()

        def score(keeps: Sequence[Sequence[int]]) -> list[float]:
            keys: list[int | None] = []                     # each pair's key, None for other sizes
            misses: dict[int, Sequence[int]] = {}           # each new row pair, with a keep of it
            others = []
            for keep in keeps:
                key = None
                if len(keep) == 2:
                    a, b = row[keep[0]], row[keep[1]]
                    key = a << 32 | b if a <= b else b << 32 | a
                    if key not in memo:
                        misses.setdefault(key, keep)
                else:
                    others.append(keep)
                keys.append(key)
            batch = [*misses.values(), *others]
            scores = head(params, encode(params, table.subsets(rows, batch))[1]).tolist() if batch else []
            memo.update(zip(misses, scores))
            self.counters["pairs_scored"] += len(misses)
            self.counters["pairs_reused"] += len(keeps) - len(others) - len(misses)
            rest = iter(scores[len(misses):])
            return [next(rest) if key is None else memo[key] for key in keys]

        return score


class EnergyScorer(_ModelScorer):
    """Energy model with its learned threshold."""

    head = "energy"
    score = _whole_set_score


class BinarySoftmaxScorer(_ModelScorer):
    """Binary classifier scored on the softmax of the inconsistent class."""

    head = "inconsistent-softmax"
    score = _whole_set_score


# The model scorer for each threshold source.
MODEL_SCORERS: dict[str, type[_ModelScorer]] = {cls.head: cls for cls in (EnergyScorer, BinarySoftmaxScorer)}


@dataclass
class OracleScorer:
    """Truth-table ground truth: 1.0 if jointly unsatisfiable, else 0.0."""

    threshold: float = 0.5

    def compile(self, s: StatementSet) -> SubsetScores:
        try:
            compiled = compile_formulas(s)
        except AtomBudgetError as exc:
            raise AtomBudgetError(f"set {s.id!r}: {exc}") from None
        return lambda keeps: [0.0 if compiled.satisfiable(keep) else 1.0 for keep in keeps]

    score = _whole_set_score


@dataclass
class ExternalScorer:
    """Scores looked up by set id from an external file; a subset's id is :func:`subset_id`."""

    scores: dict[str, float]
    threshold: float
    path: str

    def compile(self, s: StatementSet) -> SubsetScores:
        return lambda keeps: [self._lookup(subset_id(s, keep)) for keep in keeps]

    score = _whole_set_score         # the whole set's subset_id is s.id

    def _lookup(self, set_id: str) -> float:
        try:
            return self.scores[set_id]
        except KeyError:
            raise UnknownSetIdError(f"{self.path}: no score for set id {set_id!r}") from None


def subset_id(s: StatementSet, keep: Sequence[int]) -> str:
    """The id of the subset of ``s`` that keeps the ascending indices ``keep``.

    The whole set keeps ``s.id``; a proper subset is ``s.id``, ``#`` and
    its kept indices joined by ``-`` (``u#0-3`` keeps statements 0 and 3).
    """
    return s.id if len(keep) == len(s.statements) else f"{s.id}#{'-'.join(map(str, keep))}"


def external_scorer_from_file(path) -> ExternalScorer:
    """Parse a score file: header line ``threshold=<real>``, then ``set_id,score`` rows.

    Every number must be finite and every set id must appear once; any
    other file raises :class:`MalformedScoreFileError` naming its first bad
    line.  Lines are those of :func:`~setcoh.logic.read_lines`.
    """
    lines = read_lines(path, MalformedScoreFileError)
    header = next(lines, (1, ""))[1].strip()
    if not header.startswith("threshold="):
        raise MalformedScoreFileError(f"{path}:1: expected 'threshold=<real>' header, got {header!r}")
    threshold = _finite(header.split("=", 1)[1], f"{path}:1: threshold")
    scores: dict[str, float] = {}
    first_seen: dict[str, int] = {}
    for lineno, line in lines:
        line = line.strip()
        if not line:
            continue
        set_id, _, value = line.rpartition(",")
        if not set_id:
            raise MalformedScoreFileError(f"{path}:{lineno}: expected 'set_id,score'")
        if set_id in first_seen:
            raise MalformedScoreFileError(
                f"{path}:{lineno}: set id {set_id!r} repeats line {first_seen[set_id]}")
        first_seen[set_id] = lineno
        scores[set_id] = _finite(value, f"{path}:{lineno}: score")
    return ExternalScorer(scores=scores, threshold=threshold, path=str(path))


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedScoreFileError(f"{what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise MalformedScoreFileError(f"{what} {text!r} is not finite")
    return value


def write_scores_file(path, threshold: float, scores: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"threshold={threshold!r}\n")
        for set_id, value in scores.items():
            fh.write(f"{set_id},{value!r}\n")


def classify(score: float, threshold: float) -> str:
    """The verdict of a score: consistent iff strictly below the threshold (a tie or a NaN is inconsistent)."""
    return CONSISTENT if score < threshold else INCONSISTENT


def tolerance_rule(mtr: float) -> Callable[[float], str]:
    """The element-wise verdict at tolerance rate ``mtr``, which must be in [0, 1], of an
    inconsistent-pair ratio: consistent iff the ratio is at most ``mtr``."""
    if not 0.0 <= mtr <= 1.0:
        raise ValueError("mtr must be in [0, 1]")
    return lambda ratio: CONSISTENT if ratio <= mtr else INCONSISTENT


def verify_set(scorer: Scorer, s: StatementSet) -> Verdict:
    """Whole-set verdict: the :func:`classify` of the set's score."""
    score = scorer.score(s)
    return Verdict(label=classify(score, scorer.threshold), score=score)


def pair_subsets(s: StatementSet) -> list[tuple[tuple[int, int], StatementSet]]:
    """Each pair of ``s`` as a copy of ``s`` with the pair's :func:`subset_id`."""
    return [(pair, replace(s, id=subset_id(s, pair), statements=[s.statements[i] for i in pair],
                           gold_inconsistent_indices=None))
            for pair in combinations(range(len(s.statements)), 2)]


def verify_elementwise(scorer: Scorer, s: StatementSet, mtr: float) -> Verdict:
    """Pairwise verdict: the :func:`tolerance_rule` of the ratio of pairs :func:`classify` finds inconsistent."""
    verdict = tolerance_rule(mtr)
    pairs = list(combinations(range(len(s.statements)), 2))
    scores = tuple(scorer.compile(s)(pairs))
    bad = sum(classify(score, scorer.threshold) == INCONSISTENT for score in scores)
    ratio = bad / len(pairs)
    detail = PairwiseDetail(pair_count=len(pairs), inconsistent_pairs=bad, ratio=ratio, scores=scores)
    return Verdict(label=verdict(ratio), score=ratio, detail=detail)


def locate(scorer: Scorer, s: StatementSet) -> LocateResult:
    """Greedy removal of the statement whose exclusion scores lowest.

    Stops as soon as the remainder is judged consistent, or when an
    inconsistent remainder has only two statements left.  Ties in the
    leave-one-out argmin break toward the smallest original index.
    """
    score = scorer.compile(s)
    remaining = list(range(len(s.statements)))
    [current_score] = score([remaining])
    removed: list[int] = []
    trace: list[tuple[tuple[int, float], ...]] = []
    while True:
        if classify(current_score, scorer.threshold) == CONSISTENT:
            return LocateResult(tuple(removed), CONSISTENT_REACHED, tuple(trace))
        if len(remaining) == 2:
            return LocateResult(tuple(removed), SIZE_TWO_STOP, tuple(trace))
        scored = tuple(zip(remaining, score([remaining[:p] + remaining[p + 1:]
                                             for p in range(len(remaining))])))
        trace.append(scored)
        best_original, best_score = min(scored, key=lambda item: (item[1], item[0]))
        removed.append(best_original)
        remaining.remove(best_original)
        current_score = best_score
