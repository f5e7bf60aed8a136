"""Exact propositional semantics for statement sets.

Formulas are built from atoms with three connectives: negation,
disjunction, and material implication (``Implies(a, b)`` is true exactly
when ``Or(Not(a), b)`` is).  There is deliberately no conjunction node:
statement sets express conjunction by listing statements, and keeping
the grammar conjunction-free means a set's shape always mirrors its
statement list.

Satisfiability is decided by exhaustive truth-table enumeration.
Formula collections are first split into connected components over
shared atoms, and the bound of 24 atoms applies to each component, so
collections assembled from independently-named worlds cost the sum of
tiny tables rather than one huge one.  The enumeration itself runs over
bitmask columns (one big integer per atom), which keeps the inner loop
in C.  :class:`CompiledFormulas` walks each formula once for its atoms
and builds its truth mask once, so the subsets of one collection (pairs,
leave-one-out checks) are decided by ANDing masks already built;
:func:`is_satisfiable` is one compile and one check.  Compiles over
disjoint atoms join side by side (:meth:`CompiledFormulas.join`) with no
formula walked again: a union of namespace-disjoint sets is decided from
its parts' compiles.

Atoms carry two English surface templates (affirmative / negated) used
by :func:`realize` to render formulas as sentences.  Rendering is
deterministic and injective as long as atom surfaces are distinct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union


class DataError(Exception):
    """An input cannot be used (a corpus, model, threshold or score file, or what a setting asks of them): exit 3."""


def read_lines(path, error: type[DataError]) -> Iterator[tuple[int, str]]:
    """Each line of the text file ``path`` as it is read, numbered from 1; one that is not UTF-8 raises ``error``.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r``, which it does not keep.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate((raw for chunk in fh for raw in chunk.splitlines()), start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


class MissingAssignmentError(ValueError):
    """A valuation does not assign some atom appearing in the formula."""


class AtomBudgetError(DataError, ValueError):
    """A connected component of a formula collection exceeds the truth-table bound."""


class FormulaSyntaxError(ValueError):
    """A prefix-notation formula string could not be parsed."""


ATOM_BUDGET = 24
DEPTH_BUDGET = 100    # connectives nested in one parsed formula; a generated one nests at most 8

_SYMBOL_RE = re.compile(r"[A-Za-z0-9_.:@-]+")


@dataclass(frozen=True)
class Atom:
    """A propositional symbol with its two sentence surfaces."""

    id: str
    surface_pos: str
    surface_neg: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("atom id must be non-empty")
        if not _SYMBOL_RE.fullmatch(self.id):
            raise ValueError(f"atom id {self.id!r} contains reserved characters")
        if self.surface_pos == self.surface_neg:
            raise ValueError(f"atom {self.id!r}: affirmative and negated surfaces must differ")


@dataclass(frozen=True)
class AtomRef:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    antecedent: "Formula"
    consequent: "Formula"


Formula = Union[AtomRef, Not, Or, Implies]

Valuation = Mapping[str, bool]


def atoms_of(f: Formula) -> frozenset[str]:
    """Atom ids appearing in ``f``."""
    names: list[str] = []
    _gather(f, names)
    return frozenset(names)


def _gather(f: Formula, names: list[str]) -> None:
    """Append the atom id of each leaf of ``f`` to ``names``, left to right."""
    t = type(f)
    if t is AtomRef:
        names.append(f.name)
    elif t is Not:
        _gather(f.operand, names)
    elif t is Or:
        _gather(f.left, names)
        _gather(f.right, names)
    elif t is Implies:
        _gather(f.antecedent, names)
        _gather(f.consequent, names)
    else:
        raise TypeError(f"not a formula: {f!r}")


def evaluate(f: Formula, v: Valuation) -> bool:
    """Truth value of ``f`` under ``v`` (classical semantics)."""
    if isinstance(f, AtomRef):
        try:
            return bool(v[f.name])
        except KeyError:
            raise MissingAssignmentError(f"no assignment for atom {f.name!r}") from None
    if isinstance(f, Not):
        return not evaluate(f.operand, v)
    if isinstance(f, Or):
        return evaluate(f.left, v) or evaluate(f.right, v)
    if isinstance(f, Implies):
        return (not evaluate(f.antecedent, v)) or evaluate(f.consequent, v)
    raise TypeError(f"not a formula: {f!r}")


def negate(f: Formula) -> Formula:
    """Negation with double-negation elimination; no other rewriting."""
    if isinstance(f, Not):
        return f.operand
    return Not(f)


def _column_mask(bit: int, n_atoms: int) -> int:
    # Bit b of the mask is atom-bit `bit` of valuation index b.
    ones = (1 << (1 << bit)) - 1
    unit = ones << (1 << bit)
    period = 1 << (bit + 1)
    reps = (1 << n_atoms) // period
    return unit * (((1 << (period * reps)) - 1) // ((1 << period) - 1))


def _truth_mask(f: Formula, columns: Mapping[str, int], full: int) -> int:
    t = type(f)
    if t is AtomRef:
        return columns[f.name]
    if t is Not:
        return _truth_mask(f.operand, columns, full) ^ full
    if t is Or:
        return _truth_mask(f.left, columns, full) | _truth_mask(f.right, columns, full)
    if t is Implies:
        return (_truth_mask(f.antecedent, columns, full) ^ full) | _truth_mask(f.consequent, columns, full)
    raise TypeError(f"not a formula: {f!r}")


class CompiledFormulas:
    """Statements and context compiled once for satisfiability checks on subsets.

    :meth:`satisfiable` decides a subset of ``statements`` (given by index)
    together with every ``context`` formula.  Construction walks each
    formula once for its atoms, numbers the components of the whole
    collection, and builds every formula's truth mask over its component's
    table and each component's joint context mask.  Dropping statements can
    only split a component, never join two, so a subset is satisfiable iff
    each whole-collection component is.  Raises :class:`AtomBudgetError`
    when a component has more than :data:`ATOM_BUDGET` atoms.
    """

    def __init__(self, statements: Iterable[Formula], context: Iterable[Formula] = ()) -> None:
        self.statements = list(statements)
        formulas = self.statements + list(context)
        atoms = []
        for f in formulas:
            names: list[str] = []
            _gather(f, names)
            atoms.append(names)
        component, members = _components(atoms)
        tables = self._tables = [_table(sorted(names)) for names in members]
        masks = [_truth_mask(f, *tables[c]) for f, c in zip(formulas, component)]
        n = len(self.statements)
        self._component, self._masks = component[:n], masks[:n]
        # Joint mask of each component's context: all ones where it has none.
        self._context = [full for _, full in tables]
        for k in range(n, len(formulas)):
            self._context[component[k]] &= masks[k]

    @classmethod
    def join(cls, parts: Sequence["CompiledFormulas"], order: Sequence[tuple[int, int]]) -> "CompiledFormulas":
        """Compiles over pairwise disjoint atoms, side by side.

        Statement ``k`` of the join is statement ``j`` of ``parts[p]``, where
        ``(p, j)`` is the ``k``-th entry of ``order``; every part's context
        stays in force, in part order.  With no atom shared across parts, each
        part's components, tables and masks are those of compiling the join's
        statements and all the contexts afresh, so every subset is decided
        alike.  Nothing is walked or recomputed.
        """
        joined = cls.__new__(cls)
        offsets: list[int] = []
        joined._tables, joined._context = [], []
        for part in parts:
            offsets.append(len(joined._tables))
            joined._tables += part._tables
            joined._context += part._context
        joined.statements = [parts[p].statements[j] for p, j in order]
        joined._component = [offsets[p] + parts[p]._component[j] for p, j in order]
        joined._masks = [parts[p]._masks[j] for p, j in order]
        return joined

    def satisfiable(self, keep: Iterable[int] | None = None) -> bool:
        """Whether the statements at ``keep`` (default: all) and the context are jointly satisfiable."""
        joint = self._context[:]
        component, masks = self._component, self._masks
        for i in range(len(masks)) if keep is None else keep:
            c = component[i]
            mask = joint[c] & masks[i]
            if not mask:
                return False
            joint[c] = mask
        return all(joint)


def _table(names: list[str]) -> tuple[dict[str, int], int]:
    """Column mask of each atom in ``names`` and the all-ones mask of their truth table."""
    if len(names) > ATOM_BUDGET:
        raise AtomBudgetError(
            f"{len(names)} atoms in one connected component exceed the truth-table bound of {ATOM_BUDGET}"
        )
    columns = {name: _column_mask(i, len(names)) for i, name in enumerate(names)}
    return columns, (1 << (1 << len(names))) - 1


def _components(atoms: list[list[str]]) -> tuple[list[int], list[set[str]]]:
    """Component of each formula (given by its atoms) over shared atoms, and each component's atoms.

    Components are numbered by their first formula; a union-find over atom
    ids, with path halving, joins the atoms of each formula.
    """
    parent: dict[str, str] = {}
    for names in atoms:
        first = None
        for name in names:
            root = parent.setdefault(name, name)
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            if first is None:
                first = root
            elif root != first:
                parent[root] = first
    numbers: dict[str, int] = {}
    component: list[int] = []
    members: list[set[str]] = []
    for names in atoms:
        root = names[0]
        while parent[root] != root:
            root = parent[root]
        c = numbers.setdefault(root, len(numbers))
        if c == len(members):
            members.append(set())
        members[c].update(names)
        component.append(c)
    return component, members


def is_satisfiable(fs: Iterable[Formula]) -> bool:
    """True iff one valuation over the union of atoms makes every formula true.

    The empty collection is vacuously satisfiable.  Raises
    :class:`AtomBudgetError` for a component over :data:`ATOM_BUDGET` atoms.
    """
    return CompiledFormulas(fs).satisfiable()


def _clause(f: Formula, atoms: Mapping[str, Atom]) -> str:
    if isinstance(f, AtomRef):
        return _lower_first(atoms[f.name].surface_pos)
    if isinstance(f, Not):
        if isinstance(f.operand, AtomRef):
            return _lower_first(atoms[f.operand.name].surface_neg)
        return "it is not the case that " + _clause(f.operand, atoms)
    if isinstance(f, Or):
        return f"either {_clause(f.left, atoms)}, or {_clause(f.right, atoms)}"
    if isinstance(f, Implies):
        return f"if {_clause(f.antecedent, atoms)}, then {_clause(f.consequent, atoms)}"
    raise TypeError(f"not a formula: {f!r}")


def _lower_first(text: str) -> str:
    return text[0].lower() + text[1:] if text else text


def realize(f: Formula, atoms: Mapping[str, Atom]) -> str:
    """Deterministic English rendering of ``f`` using the atoms' surfaces."""
    clause = _clause(f, atoms)
    return clause[0].upper() + clause[1:] + "."


def format_formula(f: Formula) -> str:
    """Prefix-notation serialization: ``(implies p h)``, ``(not p)``, ``(or p h)``."""
    if isinstance(f, AtomRef):
        return f.name
    if isinstance(f, Not):
        return f"(not {format_formula(f.operand)})"
    if isinstance(f, Or):
        return f"(or {format_formula(f.left)} {format_formula(f.right)})"
    if isinstance(f, Implies):
        return f"(implies {format_formula(f.antecedent)} {format_formula(f.consequent)})"
    raise TypeError(f"not a formula: {f!r}")


_TOKEN_RE = re.compile(r"\(|\)|[A-Za-z0-9_.:@-]+")


def parse_formula(text: str) -> Formula:
    """Inverse of :func:`format_formula`, for formulas that nest at most :data:`DEPTH_BUDGET` connectives."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens or _TOKEN_RE.sub("", text).strip():
        raise FormulaSyntaxError(f"cannot tokenize formula: {text!r}")
    pos = 0

    def parse(depth: int) -> Formula:
        nonlocal pos
        if pos >= len(tokens):
            raise FormulaSyntaxError(f"unexpected end of formula: {text!r}")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if depth == DEPTH_BUDGET:
                raise FormulaSyntaxError(f"formula nests connectives deeper than {DEPTH_BUDGET}: {text!r}")
            if pos >= len(tokens):
                raise FormulaSyntaxError(f"unexpected end of formula: {text!r}")
            op = tokens[pos]
            pos += 1
            if op == "not":
                node: Formula = Not(parse(depth + 1))
            elif op == "or":
                node = Or(parse(depth + 1), parse(depth + 1))
            elif op == "implies":
                node = Implies(parse(depth + 1), parse(depth + 1))
            else:
                raise FormulaSyntaxError(f"unknown connective {op!r} in {text!r}")
            if pos >= len(tokens) or tokens[pos] != ")":
                raise FormulaSyntaxError(f"missing ')' in {text!r}")
            pos += 1
            return node
        if tok == ")":
            raise FormulaSyntaxError(f"unexpected ')' in {text!r}")
        return AtomRef(tok)

    result = parse(0)
    if pos != len(tokens):
        raise FormulaSyntaxError(f"trailing tokens in {text!r}")
    return result


def _parse_written(text: str) -> Formula:
    """:func:`parse_formula` of a text that :func:`format_formula` writes as it is; any other raises."""
    formula = parse_formula(text)
    if format_formula(formula) != text:
        raise FormulaSyntaxError(f"formula {text!r} is not written as {format_formula(formula)!r}")
    return formula


_DOTTED_TOKEN = re.compile(r"([A-Za-z0-9_:@-]*)\.[A-Za-z0-9_.:@-]*")


class FormulaChecker:
    """Checks the formula texts of many sets, parsing one text of each distinct *shape*.

    Texts that differ only in their dotted tokens (atom ids ``ns.name``)
    share a shape: the text with each dotted token replaced by ``.``.  No
    connective has a dot, so a text and its shape parse alike and have the
    same spacing: a text is accepted iff its shape is (it parses, and
    :func:`format_formula` writes it back unchanged), and its atoms'
    namespaces (ids up to the first ``.``) are those of its dotted tokens
    plus the undotted atoms of its shape, which are those of the first text
    of that shape.  One regex split of a set's joined texts yields both its
    shapes and its dotted namespaces; a corpus has only a handful of shapes.
    """

    def __init__(self) -> None:
        self._shapes: dict[str, frozenset[str]] = {}  # shape -> its undotted atoms

    def namespaces(self, texts: Sequence[str]) -> frozenset[str]:
        """Namespaces of the atoms of ``texts``; a :class:`FormulaSyntaxError` names the first bad text:
        one that does not parse, or that :func:`format_formula` would write otherwise.

        The checker keeps each shape's undotted atoms for its life, and
        nothing of ``texts``.  Each call returns a new frozenset: the JSONL
        reader checks a context list once for the adjacent records that hold
        it (the C and I sets of a pair), and hands every set the first
        namespace set it met equal to the set's own.
        """
        if not texts:
            return frozenset()
        # Text between dotted tokens, alternating with those tokens' namespaces.
        pieces = _DOTTED_TOKEN.split("\0".join(texts))
        shapes = ".".join(pieces[::2]).split("\0")
        if len(shapes) != len(texts):  # a text holds the separator, which no formula may
            for text in texts:
                _parse_written(text)  # raises, for that text or an earlier bad one
        names = set(pieces[1::2])
        for shape, text in zip(shapes, texts):
            undotted = self._shapes.get(shape)
            if undotted is None:  # the text is accepted iff its shape is; its error names the text
                undotted = self._shapes[shape] = frozenset(a for a in atoms_of(_parse_written(text)) if "." not in a)
            names |= undotted
        return frozenset(names)
