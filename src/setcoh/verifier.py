"""Consistency decisions from any scorer, plus greedy inconsistency localization.

A scorer maps a statement set to a real score (higher = less
consistent) and carries a decision threshold; the uniform rule is
*consistent iff score < threshold* (a score exactly at the threshold is
inconsistent).  Concrete scorers wrap the trained energy model, the
binary classifier's softmax, the exact truth-table oracle, or an
externally produced score file.

Element-wise verification scores all N(N-1)/2 statement pairs and
tolerates up to a given fraction of inconsistent pairs (the maximum
tolerance rate).  Subsets inherit the parent set's context formulas:
world knowledge stays in force when statements are dropped.

Localization removes, while the set is judged inconsistent and larger
than two statements, the statement whose exclusion yields the lowest
score, reusing that score as the next verification (so a full run
costs at most 1 + sum(k for k in 3..N) scorer calls).

A scorer may also offer ``score_many(s, keeps)``: the scores of the
subsets of ``s`` that keep each index tuple in ``keeps``.  The model and
oracle scorers compile ``s`` once for it (token-count rows, truth-table
masks) and give exactly the scores of the subset copies; both
verification strategies use it when present and score copies otherwise.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Protocol, Sequence

from .datagen import CONSISTENT, INCONSISTENT, StatementSet
from .logic import AtomBudgetError, CompiledFormulas, is_satisfiable
from .model import ModelParams, TokenCounts, count_rows, energy_from_counts, logits_from_counts, softmax


class UnknownSetIdError(KeyError):
    """An external score file has no row for the requested set id."""


class MalformedScoreFileError(ValueError):
    """An external score file has a bad header or row, a non-finite number or a repeated id."""


class Scorer(Protocol):
    threshold: float

    def score(self, s: StatementSet) -> float: ...


@dataclass(frozen=True)
class PairwiseDetail:
    pair_count: int
    inconsistent_pairs: int
    ratio: float


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


@dataclass
class EnergyScorer:
    """Energy model with its learned threshold."""

    params: ModelParams
    threshold: float

    def score(self, s: StatementSet) -> float:
        return self.score_many(s, [range(len(s.statements))])[0]

    def score_many(self, s: StatementSet, keeps: Sequence[Sequence[int]]) -> list[float]:
        return [energy_from_counts(self.params, tc) for tc in _subset_counts(self.params, s, keeps)]


@dataclass
class BinarySoftmaxScorer:
    """Binary classifier scored on the softmax of the inconsistent class."""

    params: ModelParams
    threshold: float

    def score(self, s: StatementSet) -> float:
        return self.score_many(s, [range(len(s.statements))])[0]

    def score_many(self, s: StatementSet, keeps: Sequence[Sequence[int]]) -> list[float]:
        return [float(softmax(logits_from_counts(self.params, tc))[1])
                for tc in _subset_counts(self.params, s, keeps)]


def _subset_counts(params: ModelParams, s: StatementSet, keeps: Sequence[Sequence[int]]) -> list[TokenCounts]:
    """Token counts of each subset of ``s`` in ``keeps``, from one tokenization of ``s``."""
    rows = count_rows(params.vocab, s.statements)
    return [TokenCounts.of_rows(rows[list(keep)]) for keep in keeps]


@contextmanager
def _naming(s: StatementSet) -> Iterator[None]:
    """Re-raise an :class:`AtomBudgetError` with the id of the set being compiled."""
    try:
        yield
    except AtomBudgetError as exc:
        raise AtomBudgetError(f"set {s.id!r}: {exc}") from None


@dataclass
class OracleScorer:
    """Truth-table ground truth: 1.0 if jointly unsatisfiable, else 0.0."""

    threshold: float = 0.5

    def score(self, s: StatementSet) -> float:
        with _naming(s):
            return 0.0 if is_satisfiable(s.all_formulas()) else 1.0

    def score_many(self, s: StatementSet, keeps: Sequence[Sequence[int]]) -> list[float]:
        with _naming(s):
            compiled = CompiledFormulas(s.formulas(), s.context_semantics)
        return [0.0 if compiled.satisfiable(keep) else 1.0 for keep in keeps]


@dataclass
class GradedOracleScorer:
    """Fraction of unsatisfiable 2-subsets; richer ties for locate testing.

    Not a ground-truth consistency oracle: collectively inconsistent
    sets whose pairs are all satisfiable score 0.
    """

    threshold: float = 0.5

    def score(self, s: StatementSet) -> float:
        with _naming(s):
            compiled = CompiledFormulas(s.formulas(), s.context_semantics)
        pairs = _pairs(len(s.statements))
        return sum(not compiled.satisfiable(pair) for pair in pairs) / len(pairs)


@dataclass
class ExternalScorer:
    """Scores looked up by set id from an external file."""

    scores: dict[str, float]
    threshold: float

    def score(self, s: StatementSet) -> float:
        try:
            return self.scores[s.id]
        except KeyError:
            raise UnknownSetIdError(s.id) from None


def external_scorer_from_file(path) -> ExternalScorer:
    """Parse a score file: header line ``threshold=<real>``, then ``set_id,score`` rows.

    Every number must be finite and every set id must appear once; any
    other file raises :class:`MalformedScoreFileError` naming its line.
    """
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()
    lines = []
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            lines.append(raw.decode("utf-8").strip())
        except UnicodeDecodeError:
            raise MalformedScoreFileError(f"{path}:{lineno}: not UTF-8 text") from None
    header = lines[0] if lines else ""
    if not header.startswith("threshold="):
        raise MalformedScoreFileError(f"{path}:1: expected 'threshold=<real>' header, got {header!r}")
    threshold = _finite(header.split("=", 1)[1], f"{path}:1: threshold")
    scores: dict[str, float] = {}
    first_seen: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
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
    return ExternalScorer(scores=scores, threshold=threshold)


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
    return CONSISTENT if score < threshold else INCONSISTENT


def verify_set(scorer: Scorer, s: StatementSet) -> Verdict:
    """Whole-set verdict: consistent iff the score is strictly below the threshold."""
    score = scorer.score(s)
    return Verdict(label=classify(score, scorer.threshold), score=score)


def _subset(s: StatementSet, keep: Sequence[int], suffix: str) -> StatementSet:
    return replace(
        s,
        id=f"{s.id}#{suffix}",
        statements=[s.statements[i] for i in keep],
        gold_inconsistent_indices=None,
    )


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def pair_subsets(s: StatementSet) -> list[tuple[tuple[int, int], StatementSet]]:
    return [((i, j), _subset(s, (i, j), f"p{i}-{j}")) for i, j in _pairs(len(s.statements))]


def _subset_scores(scorer: Scorer, s: StatementSet, keeps: list[tuple[int, ...]],
                   suffixes: list[str]) -> list[float]:
    """Scores of the subsets of ``s`` that keep each index tuple in ``keeps``.

    A scorer with ``score_many`` compiles ``s`` once and scores them all
    from that; any other scorer gets each subset as a copy of ``s``
    whose id is ``s.id`` plus ``#`` and the subset's suffix.
    """
    score_many = getattr(scorer, "score_many", None)
    if score_many is not None:
        return score_many(s, keeps)
    return [scorer.score(_subset(s, keep, suffix)) for keep, suffix in zip(keeps, suffixes)]


def verify_elementwise(scorer: Scorer, s: StatementSet, mtr: float) -> Verdict:
    """Pairwise verdict: consistent iff the inconsistent-pair ratio is at most ``mtr``."""
    if not 0.0 <= mtr <= 1.0:
        raise ValueError("mtr must be in [0, 1]")
    pairs = _pairs(len(s.statements))
    scores = _subset_scores(scorer, s, pairs, [f"p{i}-{j}" for i, j in pairs])
    bad = sum(score >= scorer.threshold for score in scores)
    ratio = bad / len(pairs)
    detail = PairwiseDetail(pair_count=len(pairs), inconsistent_pairs=bad, ratio=ratio)
    label = CONSISTENT if ratio <= mtr else INCONSISTENT
    return Verdict(label=label, score=ratio, detail=detail)


def locate(scorer: Scorer, s: StatementSet) -> LocateResult:
    """Greedy removal of the statement whose exclusion scores lowest.

    Stops as soon as the remainder is judged consistent, or when an
    inconsistent remainder has only two statements left.  Ties in the
    leave-one-out argmin break toward the smallest original index.
    """
    remaining = list(range(len(s.statements)))
    current_score = scorer.score(s)
    removed: list[int] = []
    trace: list[tuple[tuple[int, float], ...]] = []
    while True:
        if current_score < scorer.threshold:
            return LocateResult(tuple(removed), CONSISTENT_REACHED, tuple(trace))
        if len(remaining) == 2:
            return LocateResult(tuple(removed), SIZE_TWO_STOP, tuple(trace))
        keeps = [tuple(remaining[:p] + remaining[p + 1:]) for p in range(len(remaining))]
        scores = _subset_scores(scorer, s, keeps, [f"loo{original}" for original in remaining])
        scored = tuple(zip(remaining, scores))
        trace.append(scored)
        best_original, best_score = min(scored, key=lambda item: (item[1], item[0]))
        removed.append(best_original)
        remaining.remove(best_original)
        current_score = best_score
