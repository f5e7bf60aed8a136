"""Generation of labeled statement sets with oracle-certified labels.

Two corpus styles are produced.  Sentence-style sets come from the rule
inventory in :mod:`setcoh.rules`, applied to synthetic seed pairs whose
logical relation (entailment / contradiction / neutral) is certified by
the truth-table oracle before use.  QA-style sets describe one object
attribute (one open question, one "yes" affirmation, one "no" per
distractor) and are corrupted into inconsistent variants by flipping a
single answer.

Every generated set carries per-statement formulas, so its label can be
re-derived exactly at any time (:func:`validate_with_oracle`).  Sets may
additionally carry *context* formulas: side conditions that are part of
the set's world (a seed pair's entailment axiom, a QA world's
exactly-one-value constraints) without being statements themselves.

Larger sets are unions of base sets over disjoint atom namespaces; the
provenance string records the composition ("C", "CI", "IIII", ...) and
fully determines the label.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Sequence

from . import wordbank
from .logic import (
    Atom,
    AtomRef,
    CompiledFormulas,
    DataError,
    Formula,
    FormulaChecker,
    Implies,
    Not,
    Or,
    atoms_of,
    format_formula,
    is_satisfiable,
    negate,
    parse_formula,
    read_lines,
    realize,
)
from .rules import (
    ALL_RULES,
    CONSISTENT,
    CONTRADICTION,
    DIFFICULTIES,
    EASY,
    ENTAILMENT,
    EW_C,
    INCONSISTENT,
    MEDIUM,
    NEUTRAL,
    PAIRWISE_INCONSISTENT_RULES,
    QA_EW,
    QA_FLIP,
    QA_GEN,
    RULE_IDS,
    RULES_BY_ID,
    Rule,
)

SENTENCE = "sentence"
QA = "qa"

FLIP_NO_TO_YES = "no-to-yes"
FLIP_YES_TO_NO = "yes-to-no"
FLIP_OPEN_REPLACE = "open-replace"
QA_FLIPS = (FLIP_NO_TO_YES, FLIP_YES_TO_NO, FLIP_OPEN_REPLACE)
DEFAULT_FLIPS = (FLIP_NO_TO_YES, FLIP_OPEN_REPLACE)

PROVENANCE_CLASSES = (
    "C", "I", "CC", "CI", "II",
    "CCC", "CCI", "CII", "III",
    "CCCC", "CCCI", "CCII", "CIII", "IIII",
)


class RelationMismatchError(ValueError):
    """A rule was applied to seed pairs of the wrong relation or count."""


class UnknownRuleError(KeyError):
    """No rule with the requested identifier exists."""


class NamespaceCollisionError(ValueError):
    """Union parts share atom names and cannot be merged."""


class MissingSemanticsError(DataError, ValueError):
    """An operation requiring ground-truth formulas met a statement without one."""


class MalformedRecordError(DataError, ValueError):
    """A JSONL record failed validation; message carries the line number."""


class NotABaseSetError(DataError, ValueError):
    """A set that is already a union, where only base sets (provenance C or I) may go: a pool or a union's parts."""


class GenerationError(DataError, RuntimeError):
    """Internal certification failure: a generated label disagreed with the oracle."""


class _ReadOnFirstUse:
    """Default of a dataclass field whose value may be computed on first read.

    It is a non-data descriptor, so the value ``__init__`` stores on an
    instance shadows it: reading a value stored that way runs no Python
    code.  :func:`_defer` removes a stored value and keeps its
    source instead; the first read then stores ``compute(source)`` on the
    instance, drops the source and returns the value.  The JSONL reader
    defers formulas so that they are parsed only where something reads them.
    """

    def __init__(self, default, compute) -> None:
        self.default, self.compute = default, compute

    def __set_name__(self, owner, name: str) -> None:
        # Interned, so that instances keep their attributes in the class's shared
        # key table: under a fresh string each instance built its own dict (~0.5 KB).
        self.name, self.source = name, sys.intern(f"_{name}_source")

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.default
        value = self.compute(getattr(obj, self.source))
        object.__setattr__(obj, self.name, value)
        object.__delattr__(obj, self.source)
        return value


def _defer(obj, name: str, source) -> None:
    """Drop ``obj``'s value of the :class:`_ReadOnFirstUse` field ``name``; keep ``source``."""
    object.__delattr__(obj, name)
    object.__setattr__(obj, vars(type(obj))[name].source, source)


def _check_statement(kind, text, question, answer) -> None:
    """The rule of a :class:`Statement`'s fields, which the JSONL reader also applies to each statement entry."""
    if kind == SENTENCE:
        if type(text) is not str or not text or question is not None or answer is not None:
            raise ValueError("sentence statements carry a non-empty text string only")
    elif kind == QA:
        if text is not None or type(question) is not str or not question or type(answer) is not str or not answer:
            raise ValueError("qa statements carry a question and a non-empty answer, both strings")
    else:
        raise ValueError(f"unknown statement kind {kind!r}")


def _label(provenance: str) -> str:
    """Consistent iff no part of a set is inconsistent: no ``I`` in its provenance."""
    return INCONSISTENT if "I" in provenance else CONSISTENT


def _check_set(set_id, size: int, provenance, gold) -> None:
    """The rule of a :class:`StatementSet`'s fields, given its number of statements, which the JSONL reader
    also applies to each record."""
    if type(set_id) is not str:
        raise ValueError(f"set id {set_id!r} is not a string")
    if size < 2:
        raise ValueError(f"set {set_id!r}: need at least 2 statements")
    if type(provenance) is not str or not provenance or set(provenance) - {"C", "I"}:
        raise ValueError(f"set {set_id!r}: bad provenance {provenance!r}")
    if gold is not None:
        if not gold:
            raise ValueError(f"set {set_id!r}: gold indices, when given, name at least one statement")
        if _label(provenance) == CONSISTENT:
            raise ValueError(f"set {set_id!r}: a consistent set has no gold inconsistent indices")
        for k, g in enumerate(gold):
            if not 0 <= g < size:
                raise ValueError(f"set {set_id!r}: gold index {g} is not a statement index (0..{size - 1})")
            if g in gold[:k]:
                raise ValueError(f"set {set_id!r}: gold index {g} repeats")


@dataclass(frozen=True)
class Statement:
    """One unit of information: a sentence, or a question-answer pair.

    A loaded statement keeps its formula's text and parses it on first read.
    """

    kind: str
    text: str | None = None
    question: str | None = None
    answer: str | None = None
    semantics: Formula | None = _ReadOnFirstUse(None, lambda text: parse_formula(text))  # the module's, at read time

    def __post_init__(self) -> None:
        _check_statement(self.kind, self.text, self.question, self.answer)


@dataclass
class StatementSet:
    """A provenance-tagged collection of statements, labeled by its provenance.

    A loaded set, and a union, computes its context formulas on first read
    (a union from its parts'); a loaded set keeps its atom namespaces from
    construction, and a union answers with its parts'.  A union keeps its
    parts, and a part keeps its oracle compile (see :func:`compile_formulas`).
    """

    id: str
    statements: list[Statement]
    provenance: str
    rule_id: str | None = None
    difficulty: str = MEDIUM
    gold_inconsistent_indices: tuple[int, ...] | None = None
    context_semantics: tuple[Formula, ...] = _ReadOnFirstUse((), lambda make: make())
    _namespaces = None  # kept by load_jsonl; not a field

    def __post_init__(self) -> None:
        # Not fields: set here, so that every set's instance dict shares its class's key table.
        self._parts = None      # a union's parts, set by compose_union
        self._compiled = None   # a part's oracle compile, set by compile_formulas
        _check_set(self.id, len(self.statements), self.provenance, self.gold_inconsistent_indices)

    @property
    def label(self) -> str:
        """The label its provenance gives (:func:`_label`)."""
        return _label(self.provenance)

    def __len__(self) -> int:
        return len(self.statements)

    def formulas(self) -> list[Formula]:
        """Per-statement formulas; raises if any statement lacks semantics."""
        out = []
        for i, s in enumerate(self.statements):
            if s.semantics is None:
                raise MissingSemanticsError(f"set {self.id!r}: statement {i} has no semantics")
            out.append(s.semantics)
        return out

    def all_formulas(self) -> list[Formula]:
        return self.formulas() + list(self.context_semantics)

    def namespaces(self) -> frozenset[str]:
        """Namespaces (id up to the first ``.``) of the atoms of the statements and context."""
        if self._namespaces is not None:
            return self._namespaces
        if self._parts is not None:
            return frozenset().union(*(part.namespaces() for part in self._parts))
        names: set[str] = set()
        for f in [s.semantics for s in self.statements if s.semantics is not None] + list(self.context_semantics):
            names |= atoms_of(f)
        return frozenset(n.split(".", 1)[0] for n in names)


@dataclass(frozen=True)
class SeedPair:
    """A premise/hypothesis pair with an oracle-certified relation.

    ``axioms`` carry the relation itself as formulas (the entailment
    implication, or the contradiction's mutual exclusion); rules that
    depend on the relation attach them as context.
    """

    premise: Formula
    hypothesis: Formula
    relation: str
    axioms: tuple[Formula, ...]
    atoms: dict[str, Atom]
    namespace: str


@dataclass(frozen=True)
class QAWorld:
    """One object attribute with a true value and implausible distractors."""

    obj: str
    attribute_type: str
    true_value: str
    distractor_values: tuple[str, ...]
    namespace: str

    def __post_init__(self) -> None:
        values = (self.true_value, *self.distractor_values)
        if len(set(values)) != len(values):
            raise ValueError("world values must be distinct")

    def atom_id(self, value: str) -> str:
        return f"{self.namespace}.{value}"

    def context(self) -> tuple[Formula, ...]:
        """Exactly-one-value constraints: an at-least-one chain plus pairwise exclusions."""
        values = [self.true_value, *self.distractor_values]
        refs = [AtomRef(self.atom_id(v)) for v in values]
        at_least_one: Formula = refs[-1]
        for ref in reversed(refs[:-1]):
            at_least_one = Or(ref, at_least_one)
        exclusions: list[Formula] = [
            Implies(a, Not(b)) for a, b in itertools.combinations(refs, 2)
        ]
        return (at_least_one, *exclusions)


SPLIT_NAMES = ("train", "validation1", "validation2", "test")


@dataclass
class DatasetSplit:
    train: list[StatementSet] = field(default_factory=list)
    validation1: list[StatementSet] = field(default_factory=list)
    validation2: list[StatementSet] = field(default_factory=list)
    test: list[StatementSet] = field(default_factory=list)

    def splits(self) -> dict[str, list[StatementSet]]:
        """Each split's sets, by name, in :data:`SPLIT_NAMES` order."""
        return {name: getattr(self, name) for name in SPLIT_NAMES}


def _check_base(set_id: str, provenance: str) -> None:
    """A set whose provenance is not C or I (a union) is a :class:`NotABaseSetError`."""
    if provenance not in ("C", "I"):
        raise NotABaseSetError(f"set {set_id!r} has provenance {provenance!r}; "
                               "unions are composed from base sets (C or I) only")


def pools(sets: Iterable[StatementSet]) -> tuple[list[StatementSet], list[StatementSet]]:
    """Split base sets into the (consistent, inconsistent) pools that unions are composed from, preserving
    order; a set that is already a union is a :class:`NotABaseSetError`."""
    split: dict[str, list[StatementSet]] = {"C": [], "I": []}
    for s in sets:
        _check_base(s.id, s.provenance)
        split[s.provenance].append(s)
    return split["C"], split["I"]


def gen_seed_pair(rng_seed: int, relation: str) -> SeedPair:
    """Deterministic synthetic premise/hypothesis pair of the given relation.

    Entailment and contradiction pairs use two fresh atoms plus an axiom
    recording the relation (``p -> h``; ``p -> not h``).  Neutral pairs
    are two unconstrained atoms.  The relation is certified against the
    oracle before the pair is returned.
    """
    if rng_seed < 0:
        raise ValueError("rng_seed must be non-negative")
    if relation not in (ENTAILMENT, CONTRADICTION, NEUTRAL):
        raise ValueError(f"unknown relation {relation!r}")
    rng = random.Random(f"seed-pair:{relation}:{rng_seed}")
    ns = f"{relation[0]}{rng_seed:x}"
    vp_p, vp_h = rng.sample(wordbank.VERB_PHRASES, 2)
    if relation == NEUTRAL:
        subj_p, subj_h = rng.sample(wordbank.SUBJECTS, 2)
    else:
        subj_p = subj_h = rng.choice(wordbank.SUBJECTS)
    p_atom = Atom(f"{ns}.p", f"{subj_p} {vp_p[0]}", f"{subj_p} {vp_p[1]}")
    h_atom = Atom(f"{ns}.h", f"{subj_h} {vp_h[0]}", f"{subj_h} {vp_h[1]}")
    p, h = AtomRef(p_atom.id), AtomRef(h_atom.id)
    if relation == ENTAILMENT:
        axioms: tuple[Formula, ...] = (Implies(p, h),)
    elif relation == CONTRADICTION:
        axioms = (Implies(p, Not(h)),)
    else:
        axioms = ()
    atoms = {p_atom.id: p_atom, h_atom.id: h_atom}
    pair = SeedPair(
        premise=p,
        hypothesis=h,
        relation=relation,
        axioms=axioms,
        atoms=atoms,
        namespace=ns,
    )
    _certify_seed_pair(pair)
    return pair


def _relation_checks(pair: SeedPair) -> tuple[bool, ...]:
    """Whether (p, h), (p, not h), (not p, h) and (not p, not h) each hold with the axioms.

    All four are subsets of one compile of p, h, their negations and the axioms.
    """
    p, h = pair.premise, pair.hypothesis
    compiled = CompiledFormulas([p, h, negate(p), negate(h)], pair.axioms)
    return tuple(map(compiled.satisfiable, ((0, 1), (0, 3), (2, 1), (2, 3))))


def _certify_seed_pair(pair: SeedPair) -> None:
    joint, p_not_h, not_p_h, not_both = _relation_checks(pair)
    if pair.relation == ENTAILMENT:
        ok = (not p_not_h) and joint and not_p_h and not_both
    elif pair.relation == CONTRADICTION:
        ok = (not joint) and p_not_h and not_p_h and not_both
    else:
        ok = joint and p_not_h and not_p_h and not_both
    if not ok:
        raise GenerationError(f"seed pair {pair.namespace} failed {pair.relation} certification")


def _substitution(seeds: Sequence[SeedPair]) -> dict[str, str]:
    sub = {"p": seeds[0].premise.name, "h": seeds[0].hypothesis.name}
    if len(seeds) > 1:
        sub["p2"] = seeds[1].premise.name
        sub["h2"] = seeds[1].hypothesis.name
    return sub


def _instantiate(f: Formula, sub: dict[str, str]) -> Formula:
    if isinstance(f, AtomRef):
        return AtomRef(sub[f.name])
    if isinstance(f, Not):
        return Not(_instantiate(f.operand, sub))
    if isinstance(f, Or):
        return Or(_instantiate(f.left, sub), _instantiate(f.right, sub))
    if isinstance(f, Implies):
        return Implies(_instantiate(f.antecedent, sub), _instantiate(f.consequent, sub))
    raise TypeError(f"not a formula: {f!r}")


def apply_rule(rule: Rule | str, seeds: SeedPair | Sequence[SeedPair], set_id: str | None = None) -> StatementSet:
    """Instantiate a rule row on certified seed pairs and realize it to text.

    Label and difficulty come from the rule row; the label is re-checked
    against the oracle (with the seed axioms as context where the rule
    requires them) before the set is returned.
    """
    if isinstance(rule, str):
        try:
            rule = RULES_BY_ID[rule]
        except KeyError:
            raise UnknownRuleError(rule) from None
    if isinstance(seeds, SeedPair):
        seeds = [seeds]
    seeds = list(seeds)
    if len(seeds) != rule.seeds_required:
        raise RelationMismatchError(
            f"rule {rule.rule_id} needs {rule.seeds_required} seed pair(s), got {len(seeds)}"
        )
    for seed in seeds:
        if seed.relation != rule.relation:
            raise RelationMismatchError(
                f"rule {rule.rule_id} needs a {rule.relation} seed, got {seed.relation}"
            )
    if len(seeds) == 2 and seeds[0].namespace == seeds[1].namespace:
        raise NamespaceCollisionError(f"two-seed rule {rule.rule_id} got seeds from one namespace")

    sub = _substitution(seeds)
    atom_table: dict[str, Atom] = {}
    for seed in seeds:
        atom_table.update(seed.atoms)
    statements = []
    for template in rule.members:
        f = _instantiate(template, sub)
        statements.append(Statement(kind=SENTENCE, text=realize(f, atom_table), semantics=f))
    context: tuple[Formula, ...] = ()
    if rule.attach_context:
        context = tuple(ax for seed in seeds for ax in seed.axioms)
    out = StatementSet(
        id=set_id or f"{rule.rule_id.lower()}.{'.'.join(s.namespace for s in seeds)}",
        statements=statements,
        provenance="C" if rule.label == CONSISTENT else "I",
        rule_id=rule.rule_id,
        difficulty=rule.difficulty,
        context_semantics=context,
    )
    if not validate_with_oracle(out):
        raise GenerationError(f"rule {rule.rule_id}: oracle disagrees with stated label")
    return out


def gen_qa_world(rng_seed: int, n_distractors: int) -> QAWorld:
    """Deterministic QA world: object phrase, attribute, true value, distractors."""
    if not 1 <= n_distractors <= 8:
        raise ValueError("n_distractors must be in 1..8")
    rng = random.Random(f"qa-world:{rng_seed}")
    obj = f"{rng.choice(wordbank.OBJECT_ADJECTIVES)} {rng.choice(wordbank.OBJECT_NOUNS)}"
    attribute = rng.choice(wordbank.ATTRIBUTE_NAMES)
    plausible, implausible = wordbank.ATTRIBUTES[attribute]
    return QAWorld(
        obj=obj,
        attribute_type=attribute,
        true_value=rng.choice(plausible),
        distractor_values=tuple(rng.sample(implausible, n_distractors)),
        namespace=f"q{rng_seed:x}",
    )


def gen_qa_set(world: QAWorld, set_id: str | None = None) -> StatementSet:
    """Consistent QA set: open question, affirmation, one "no" per distractor."""
    if len(world.distractor_values) < 1:
        raise ValueError("world needs at least one distractor value")
    true_ref = AtomRef(world.atom_id(world.true_value))
    statements = [
        Statement(
            kind=QA,
            question=f"what {world.attribute_type} is {world.obj}?",
            answer=world.true_value,
            semantics=true_ref,
        ),
        Statement(
            kind=QA,
            question=f"is {world.obj} {world.true_value}?",
            answer="yes",
            semantics=true_ref,
        ),
    ]
    for value in world.distractor_values:
        statements.append(
            Statement(
                kind=QA,
                question=f"is {world.obj} {value}?",
                answer="no",
                semantics=Not(AtomRef(world.atom_id(value))),
            )
        )
    out = StatementSet(
        id=set_id or f"qa.{world.namespace}",
        statements=statements,
        provenance="C",
        rule_id=QA_GEN,
        context_semantics=world.context(),
    )
    if not validate_with_oracle(out):
        raise GenerationError(f"qa set {out.id}: generated set is not satisfiable")
    return out


def _qa_flip_candidates(sc: StatementSet, flips: Sequence[str]) -> list[tuple[int, Statement]]:
    candidates: list[tuple[int, Statement]] = []
    # Distractor values, recovered from the "no" statements' negated atoms.
    distractors = [
        s.semantics.operand.name.split(".", 1)[1]
        for s in sc.statements
        if s.answer == "no" and isinstance(s.semantics, Not)
    ]
    for i, s in enumerate(sc.statements):
        if s.answer == "no" and FLIP_NO_TO_YES in flips:
            candidates.append((i, replace(s, answer="yes", semantics=negate(s.semantics))))
        elif s.answer == "yes" and FLIP_YES_TO_NO in flips:
            candidates.append((i, replace(s, answer="no", semantics=negate(s.semantics))))
        elif s.answer not in ("yes", "no") and FLIP_OPEN_REPLACE in flips:
            ns = s.semantics.name.split(".", 1)[0]
            for value in distractors:
                candidates.append((i, replace(s, answer=value, semantics=AtomRef(f"{ns}.{value}"))))
    return candidates


def corrupt_qa(
    sc: StatementSet,
    rng_seed: int,
    flips: Sequence[str] = DEFAULT_FLIPS,
    set_id: str | None = None,
) -> StatementSet:
    """Flip one answer of a consistent QA set, yielding a certified inconsistent set.

    Candidate flips (no->yes on a distractor, yes->no on the
    affirmation, or replacing the open answer with a distractor, per
    ``flips``) are filtered by the oracle: the flipped set must be
    unsatisfiable, removing the flipped statement must restore
    satisfiability, and for sets of size >= 4 that removal must be the
    only one that does.  One valid flip is then chosen at random.  The
    set and every candidate's flipped statement are compiled once,
    together, with candidate ``c`` as statement ``n + c``: each flipped set
    and its leave-one-outs are subsets of that compile.
    """
    if sc.label != CONSISTENT or any(s.kind != QA for s in sc.statements):
        raise ValueError("corrupt_qa needs a consistent QA set")
    formulas = sc.formulas()  # every statement must carry semantics
    candidates = _qa_flip_candidates(sc, flips)
    compiled = CompiledFormulas(formulas + [flipped.semantics for _, flipped in candidates], sc.context_semantics)
    valid: list[tuple[int, Statement]] = []
    n = len(sc.statements)
    for c, (idx, flipped) in enumerate(candidates):
        keep = [n + c if k == idx else k for k in range(n)]
        if compiled.satisfiable(keep):
            continue
        fixes = [j for j in range(n) if compiled.satisfiable(keep[:j] + keep[j + 1:])]
        certified = fixes == [idx] if n >= 4 else idx in fixes
        if certified:
            valid.append((idx, flipped))
    if not valid:
        raise GenerationError(f"set {sc.id!r}: no certified flip under modes {tuple(flips)}")
    rng = random.Random(f"qa-flip:{rng_seed}")
    idx, flipped = valid[rng.randrange(len(valid))]
    statements = list(sc.statements)
    statements[idx] = flipped
    return StatementSet(
        id=set_id or f"{sc.id}.flip",
        statements=statements,
        provenance="I",
        rule_id=QA_FLIP,
        gold_inconsistent_indices=(idx,),
        context_semantics=sc.context_semantics,
    )


def compose_union(
    parts: Sequence[StatementSet],
    set_id: str | None = None,
    shuffle_seed: int = 0,
) -> StatementSet:
    """Merge 2-4 base sets into one, shuffling statements and remapping gold indices.

    Parts must be base sets ("C" or "I" provenance; a union part is a
    :class:`NotABaseSetError`) over pairwise disjoint atom namespaces;
    the union's provenance sorts the part tags (C's first).
    """
    parts = list(parts)
    if not 2 <= len(parts) <= 4:
        raise ValueError("compose_union takes 2-4 parts")
    seen: set[str] = set()
    flat: list[Statement] = []
    gold: list[int] = []
    for part in parts:
        _check_base(part.id, part.provenance)
        ns = part.namespaces()
        if ns & seen:
            raise NamespaceCollisionError(f"union parts share atom namespaces: {sorted(ns & seen)}")
        seen |= ns
        gold.extend(len(flat) + g for g in part.gold_inconsistent_indices or ())
        flat.extend(part.statements)
    order = list(range(len(flat)))
    random.Random(f"union-shuffle:{shuffle_seed}").shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    statements = [flat[old] for old in order]
    remapped = tuple(sorted(position[g] for g in gold))

    has_gold = any(part.gold_inconsistent_indices is not None for part in parts)
    union = StatementSet(
        id=set_id or "u." + ".".join(part.id for part in parts),
        statements=statements,
        provenance="".join(sorted(part.provenance for part in parts)),
        difficulty=EASY if any(p.difficulty == EASY for p in parts) else MEDIUM,
        gold_inconsistent_indices=remapped if has_gold else None,
    )
    union._parts = tuple(parts)
    _defer(union, "context_semantics", partial(_joint_context, parts))
    return union


def _joint_context(parts: Sequence[StatementSet]) -> tuple[Formula, ...]:
    return tuple(f for part in parts for f in part.context_semantics)


def compile_formulas(s: StatementSet) -> CompiledFormulas:
    """``s``'s statements and context, compiled for the oracle.

    A union from :func:`compose_union` joins its parts' compiles
    (:meth:`CompiledFormulas.join`): each part is compiled the first time it
    is met as a part and keeps that compile for as long as it lives.  The
    parts are namespace-disjoint, so each union statement is found in its
    part by identity.  Any other set is compiled afresh and keeps nothing.
    A statement without semantics is ``s``'s own :class:`MissingSemanticsError`;
    a component over the atom budget is reported by the compile of the part
    that holds it (the parts share no atom, so it is a component of ``s``).
    """
    formulas = s.formulas()
    parts = s._parts
    if parts is None:
        return CompiledFormulas(formulas, s.context_semantics)
    where = {id(st): (p, j) for p, part in enumerate(parts) for j, st in enumerate(part.statements)}
    return CompiledFormulas.join([_part_compile(part) for part in parts], [where[id(st)] for st in s.statements])


def _part_compile(part: StatementSet) -> CompiledFormulas:
    if part._compiled is None:
        part._compiled = CompiledFormulas(part.formulas(), part.context_semantics)
    return part._compiled


def derive_pairwise_dataset(
    seeds: Sequence[SeedPair],
    qa_sets: Sequence[StatementSet],
    rng_seed: int = 0,
) -> list[StatementSet]:
    """Size-2 sets for element-wise training and evaluation.

    From each entailment seed: the four inconsistent patterns (premise
    against its negation, hypothesis against its negation, premise with
    negated hypothesis, disjunction with negated hypothesis), each
    carrying the entailment axiom as context, plus consistent 2-subsets
    drawn from a consistent rule instance on the same seed.  From QA
    sets: the (flipped, conflicting) pair of corrupted sets as
    inconsistent, and 2-subsets of consistent sets as consistent.
    """
    rng = random.Random(f"pairwise:{rng_seed}")
    out: list[StatementSet] = []
    consistent_rules = [
        r for r in ALL_RULES
        if r.relation == ENTAILMENT and r.seeds_required == 1
        and r.label == CONSISTENT and len(r.members) >= 3
    ]
    for seed in seeds:
        if seed.relation != ENTAILMENT:
            raise RelationMismatchError("pairwise sentence patterns need entailment seeds")
        out += [apply_rule(rule, seed) for rule in PAIRWISE_INCONSISTENT_RULES]
        donor = apply_rule(rng.choice(consistent_rules), seed)
        subsets = list(itertools.combinations(range(len(donor.statements)), 2))
        rng.shuffle(subsets)
        for n, (i, j) in enumerate(subsets[:4]):
            out.append(
                StatementSet(
                    id=f"ew-c{n}.{seed.namespace}",
                    statements=[donor.statements[i], donor.statements[j]],
                    provenance="C",
                    rule_id=EW_C,
                    context_semantics=donor.context_semantics,
                )
            )
    for qa_set in qa_sets:
        if any(s.kind != QA for s in qa_set.statements):
            raise ValueError(f"set {qa_set.id!r} is not QA-style")
        if qa_set.gold_inconsistent_indices:
            g = qa_set.gold_inconsistent_indices[0]
            formulas = qa_set.formulas()
            context = list(qa_set.context_semantics)
            partner = next(
                j for j in range(len(formulas))
                if j != g and not is_satisfiable([formulas[g], formulas[j]] + context)
            )
            first, second = sorted((g, partner))
            out.append(
                StatementSet(
                    id=f"qa-ew-i.{qa_set.id}",
                    statements=[qa_set.statements[first], qa_set.statements[second]],
                    provenance="I",
                    rule_id=QA_EW,
                    gold_inconsistent_indices=(0 if first == g else 1,),
                    context_semantics=qa_set.context_semantics,
                )
            )
        else:
            i, j = sorted(rng.sample(range(len(qa_set.statements)), 2))
            out.append(
                StatementSet(
                    id=f"qa-ew-c.{qa_set.id}",
                    statements=[qa_set.statements[i], qa_set.statements[j]],
                    provenance="C",
                    rule_id=QA_EW,
                    context_semantics=qa_set.context_semantics,
                )
            )
    return out


def validate_with_oracle(s: StatementSet) -> bool:
    """True iff the stored label agrees with exact satisfiability."""
    return (s.label == CONSISTENT) == is_satisfiable(s.all_formulas())


@dataclass(frozen=True)
class GenConfig:
    """Corpus-generation settings for :func:`build_splits`."""

    style: str = QA                          # "qa" or "snli"
    train_count: int = 2000                  # consistent/inconsistent pairs in train
    eval_count: int = 200                    # pairs in each of validation1/validation2/test
    qa_flips: tuple[str, ...] = DEFAULT_FLIPS

    def __post_init__(self) -> None:
        if self.style not in (QA, "snli"):
            raise ValueError(f"unknown style {self.style!r}")
        if self.train_count < 1 or self.eval_count < 1:
            raise ValueError("counts must be >= 1")
        unknown = [flip for flip in self.qa_flips if flip not in QA_FLIPS]
        if unknown:
            raise ValueError(f"unknown qa flip {unknown[0]!r}; valid flips: {', '.join(QA_FLIPS)}")


def _item_seed(master: int, split_idx: int, item: int) -> int:
    return ((master * 4 + split_idx) * 2_000_003 + item) * 8


def _family(rule: Rule) -> str:
    return rule.rule_id.split("-")[0]


# A sentence-style pair draws a consistent rule, then an inconsistent rule of its family.
_SNLI_CONSISTENT = [r for r in ALL_RULES if r.label == CONSISTENT]
_SNLI_INCONSISTENT = {
    family: [r for r in ALL_RULES if r.label == INCONSISTENT and _family(r) == family]
    for family in dict.fromkeys(map(_family, ALL_RULES))
}
QA_DISTRACTORS = (1, 4)    # distractor values per QA world, an inclusive range


def _gen_snli_pair(itemseed: int, rule_rng: random.Random,
                   split: str, item: int) -> tuple[StatementSet, StatementSet]:
    c_rule = _SNLI_CONSISTENT[rule_rng.randrange(len(_SNLI_CONSISTENT))]
    i_rules = _SNLI_INCONSISTENT[_family(c_rule)]
    i_rule = i_rules[rule_rng.randrange(len(i_rules))]
    seeds = [gen_seed_pair(itemseed, c_rule.relation)]
    if c_rule.seeds_required == 2:
        seeds.append(gen_seed_pair(itemseed + 3, c_rule.relation))
    consistent = apply_rule(c_rule, seeds, set_id=f"{split}-snli-c{item:06d}")
    inconsistent = apply_rule(i_rule, seeds, set_id=f"{split}-snli-i{item:06d}")
    return consistent, inconsistent


def _gen_qa_pair(itemseed: int, size_rng: random.Random, config: GenConfig,
                 split: str, item: int) -> tuple[StatementSet, StatementSet]:
    world = gen_qa_world(itemseed, size_rng.randint(*QA_DISTRACTORS))
    consistent = gen_qa_set(world, set_id=f"{split}-qa-c{item:06d}")
    inconsistent = corrupt_qa(
        consistent, itemseed + 2, flips=config.qa_flips, set_id=f"{split}-qa-i{item:06d}"
    )
    return consistent, inconsistent


def build_splits(config: GenConfig, rng_seed: int) -> DatasetSplit:
    """Deterministic train/validation1/validation2/test corpus.

    Each split holds matched (consistent, inconsistent) pairs
    interleaved in order; evaluation splits therefore contain equal
    counts of both labels.
    """
    out = DatasetSplit()
    for split_idx, split in enumerate(SPLIT_NAMES):
        count = config.train_count if split == "train" else config.eval_count
        bucket = out.splits()[split]
        for item in range(count):
            itemseed = _item_seed(rng_seed, split_idx, item)
            aux_rng = random.Random(f"choices:{rng_seed}:{split_idx}:{item}")
            if config.style == QA:
                c, i = _gen_qa_pair(itemseed, aux_rng, config, split, item)
            else:
                c, i = _gen_snli_pair(itemseed, aux_rng, split, item)
            bucket.append(c)
            bucket.append(i)
    return out


# The keys a set record and its statement entries may hold, in the order the writer below emits them.  The
# reader refuses any other key.
_SET_KEYS = ("id", "statements", "label", "provenance", "difficulty", "rule_id", "gold_inconsistent_indices",
             "context_semantics")
_STATEMENT_KEYS = ("kind", "text", "question", "answer", "semantics")
_KNOWN_SET_KEYS, _KNOWN_STATEMENT_KEYS = frozenset(_SET_KEYS), frozenset(_STATEMENT_KEYS)


def _statement_to_json(s: Statement) -> dict:
    values = (s.kind, s.text, s.question, s.answer, None if s.semantics is None else format_formula(s.semantics))
    return {key: value for key, value in zip(_STATEMENT_KEYS, values) if value is not None}


def set_to_json(s: StatementSet) -> dict:
    gold = s.gold_inconsistent_indices
    values = (s.id, [_statement_to_json(st) for st in s.statements], s.label, s.provenance, s.difficulty,
              s.rule_id, None if gold is None else list(gold), [format_formula(f) for f in s.context_semantics] or None)
    return {key: value for key, value in zip(_SET_KEYS, values) if value is not None}


def _parse_all(texts: Sequence[str]) -> tuple[Formula, ...]:
    return tuple(parse_formula(text) for text in texts)


def _shown(value):
    """A decoded JSON value as ``json.loads`` gives it: each object, which :data:`_decode` leaves as a tuple of
    its (key, value) pairs, as a dict.  Only an error message reads it."""
    if type(value) is tuple:
        return {key: _shown(item) for key, item in value}
    return [_shown(item) for item in value] if type(value) is list else value


def _repeated(pairs: tuple) -> MalformedRecordError:
    """The error that names the first key of an object's ``pairs`` that repeats."""
    seen: set[str] = set()
    return MalformedRecordError(f"field {next(k for k, _ in pairs if k in seen or seen.add(k))!r} repeats")


# Decodes each JSON object to the tuple of its (key, value) pairs, in C: a JSON array is a list, so a tuple is
# always an object.  The reader makes a record and each of its statement entries a dict, refusing a repeated key
# (a dict alone keeps the last value); any other object is a value of the wrong type.
_decode = json.JSONDecoder(object_pairs_hook=tuple).decode

_FIELD_TYPES = {None: "a string", tuple: "a list of objects", int: "a list of integers", str: "a list of strings"}


def _field(record: dict, key: str, item: type | None = None):
    """``record[key]``, None if absent: a JSON string, or a list of JSON ``item`` values given ``item`` (not null)."""
    if key not in record:
        return None
    value = record[key]
    fits = type(value) is str if item is None else type(value) is list and {item}.issuperset(map(type, value))
    if not fits:
        raise MalformedRecordError(f"field {key!r} must be {_FIELD_TYPES[item]}")
    return value


def _known(record: dict, keys: frozenset[str]) -> None:
    """Refuse the first key of ``record`` that is not one of ``keys``."""
    if not record.keys() <= keys:
        raise MalformedRecordError(f"unknown field {next(key for key in record if key not in keys)!r}")


class _Reader:
    """One read of a JSONL file: :meth:`read` checks each decoded record and appends the sets ``keep`` keeps to
    ``sets``.  The read drops it when it ends; ``first_line`` maps each set id met to its line.

    The sets built share equal values, so that each is held once.  ``share(value, value)`` returns the first
    value the read met equal to ``value``: strings, gold tuples and namespace sets, which repeat across the file
    and no two types of which compare equal.  Statements and context lists repeat only in the record just before,
    the other set of a C/I pair, so only that record's are kept: ``statements`` maps each statement entry (its
    :data:`_STATEMENT_KEYS` values) of the last set built to its :class:`Statement`, and ``last_context`` holds
    the last context list checked, as a tuple, its namespaces and the one deferred parse that the sets built with
    it share.  ``check`` parses one formula text of each distinct shape (:class:`FormulaChecker`).
    """

    def __init__(self, keep: Callable[[str, str], bool] | None) -> None:
        self.keep, self.sets, self.first_line = keep, [], {}
        self.check, self.share, self.statements = FormulaChecker(), {}.setdefault, {}
        self.last_context: tuple[tuple[str, ...], frozenset[str], partial | None] = ((), frozenset(), None)

    def read(self, decoded, lineno: int) -> None:
        """Check the decoded record of line ``lineno``, then ask ``keep`` with its id and provenance and build it.

        A repeated or unknown key (one :func:`set_to_json` never writes), a null record or statement field, a
        field of the wrong JSON type, an empty ``context_semantics``, a missing ``difficulty`` or ``statements``,
        a ``difficulty`` not in :data:`~setcoh.rules.DIFFICULTIES` or a ``rule_id`` not in
        :data:`~setcoh.rules.RULE_IDS` is a :class:`MalformedRecordError`; each
        statement entry and the set's fields must pass the rules of :class:`Statement` and
        :class:`StatementSet`, its ``label`` must be the one its provenance gives, each formula text one the
        writer writes, and its id new.  A context list equal to the last one checked is
        not checked again; formula texts are parsed only when a ``semantics`` or ``context_semantics`` is read.
        """
        if type(decoded) is not tuple:
            raise MalformedRecordError("a record must be a JSON object")
        record = dict(decoded)
        if len(record) < len(decoded):
            raise _repeated(decoded)
        _known(record, _KNOWN_SET_KEYS)
        if record.get("statements") is None:
            raise MalformedRecordError("missing field 'statements'")
        entries, texts = [], []
        for i, pairs in enumerate(_field(record, "statements", tuple)):
            try:
                entry = dict(pairs)
                if len(entry) < len(pairs):
                    raise _repeated(pairs)
                if not entry.keys() <= _KNOWN_STATEMENT_KEYS:  # tested inline: a call per entry costs ~2% of a load
                    _known(entry, _KNOWN_STATEMENT_KEYS)
                kind, text, question, answer, semantics = values = (
                    entry.get("kind"), entry.get("text"), entry.get("question"), entry.get("answer"),
                    entry.get("semantics"))
                try:
                    _check_statement(kind, text, question, answer)
                except ValueError:  # again, to print an object-valued kind as the dict it stands for
                    _check_statement(_shown(kind), text, question, answer)
                if None in entry.values():  # a null, which _check_statement reads as absent, is not a string
                    _field(entry, next(key for key, value in entry.items() if value is None))
                _field(entry, "semantics")
            except ValueError as exc:
                raise MalformedRecordError(f"statement {i}: {exc}") from exc
            entries.append(values)
            if semantics is not None:
                texts.append(semantics)
        context = _field(record, "context_semantics", str)
        if context == []:
            raise MalformedRecordError("field 'context_semantics' must hold at least one formula when present")
        gold, rule_id = _field(record, "gold_inconsistent_indices", int), _field(record, "rule_id")
        difficulty = _field(record, "difficulty")
        if difficulty not in DIFFICULTIES:
            if difficulty is None:
                raise MalformedRecordError("missing field 'difficulty'")
            raise MalformedRecordError(f"field 'difficulty' must be {' or '.join(map(repr, DIFFICULTIES))}, "
                                       f"got {difficulty!r}")
        if rule_id is not None and rule_id not in RULE_IDS:
            raise MalformedRecordError(f"field 'rule_id' must name a rule the generator writes, got {rule_id!r}")
        set_id, provenance = record.get("id"), record.get("provenance")
        try:
            _check_set(set_id, len(entries), provenance, gold)
        except ValueError:  # again, to print an object-valued id or provenance as the dict it stands for
            _check_set(_shown(set_id), len(entries), _shown(provenance), gold)
        label = record.get("label")
        if label != _label(provenance):
            raise MalformedRecordError(f"set {set_id!r}: label {_shown(label)!r} contradicts provenance "
                                       f"{provenance!r}")
        namespaces = self.check.namespaces(texts)
        if context:
            context = tuple(context)
            if context != self.last_context[0]:
                self.last_context = context, self.check.namespaces(context), partial(_parse_all, context)
            namespaces |= self.last_context[1]
        if set_id in self.first_line:
            raise MalformedRecordError(f"duplicate set id {set_id!r} (first on line {self.first_line[set_id]})")
        self.first_line[set_id] = lineno
        if self.keep is not None and not self.keep(set_id, provenance):
            return
        share, last, self.statements = self.share, self.statements, {}
        statements = []
        for entry in entries:
            statement = self.statements.get(entry) or last.get(entry)
            if statement is None:
                fields = list(map(share, entry, entry))
                statement = Statement(*fields[:4])
                if entry[4] is not None:
                    _defer(statement, "semantics", fields[4])
            statements.append(self.statements.setdefault(entry, statement))
        gold = gold if gold is None else tuple(gold)
        out = StatementSet(id=set_id, statements=statements, provenance=provenance, rule_id=share(rule_id, rule_id),
                           difficulty=share(difficulty, difficulty), gold_inconsistent_indices=share(gold, gold))
        if context:
            _defer(out, "context_semantics", self.last_context[2])
        out._namespaces = share(namespaces, namespaces)
        self.sets.append(out)


def save_jsonl(sets: Iterable[StatementSet], path) -> None:
    """One StatementSet per line, UTF-8, LF-terminated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in sets:
            fh.write(json.dumps(set_to_json(s)) + "\n")


def load_jsonl(path, keep: Callable[[str, str], bool] | None = None) -> list[StatementSet]:
    """Inverse of :func:`save_jsonl`; reports the file and line of a bad record.

    Every record is decoded and checked by one :class:`_Reader` (a key must
    not repeat in it or in a statement entry).  Set ids must be unique:
    scores, caches and score files refer to sets by id, so a repeated id is
    rejected like any other bad record.  ``keep``, when given, is asked with each checked
    record's id and provenance whether to keep it; only the records it
    returns true for are built into sets (all of them without ``keep``), and
    a ValueError it raises is reported at that record's line, as a bad
    record is.  The sets built share each equal string, gold tuple and
    namespace set, and each statement and context list equal to one of the
    set built before; formulas are parsed where they are read.  Lines are
    those of :func:`~setcoh.logic.read_lines`.
    """
    reader = _Reader(keep)
    for lineno, line in read_lines(path, MalformedRecordError):
        try:
            if line.strip():
                reader.read(_decode(line), lineno)
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedRecordError(f"{path}:{lineno}: {exc}") from exc
    return reader.sets
