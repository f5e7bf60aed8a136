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
in C.  :class:`CompiledFormulas` builds every formula's truth mask once,
so the subsets of one collection (pairs, leave-one-out checks) are
decided by ANDing masks already built; :func:`is_satisfiable` is one
compile and one check.

Atoms carry two English surface templates (affirmative / negated) used
by :func:`realize` to render formulas as sentences.  Rendering is
deterministic and injective as long as atom surfaces are distinct.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union


class MissingAssignmentError(ValueError):
    """A valuation does not assign some atom appearing in the formula."""


class AtomBudgetError(ValueError):
    """A connected component of a formula collection exceeds the truth-table bound."""


class FormulaSyntaxError(ValueError):
    """A prefix-notation formula string could not be parsed."""


ATOM_BUDGET = 24

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
    if isinstance(f, AtomRef):
        return frozenset((f.name,))
    if isinstance(f, Not):
        return atoms_of(f.operand)
    if isinstance(f, (Or, Implies)):
        left, right = _children(f)
        return atoms_of(left) | atoms_of(right)
    raise TypeError(f"not a formula: {f!r}")


def _children(f: Formula) -> tuple[Formula, Formula]:
    if isinstance(f, Or):
        return f.left, f.right
    return f.antecedent, f.consequent  # type: ignore[union-attr]


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
    if isinstance(f, AtomRef):
        return columns[f.name]
    if isinstance(f, Not):
        return _truth_mask(f.operand, columns, full) ^ full
    if isinstance(f, Or):
        return _truth_mask(f.left, columns, full) | _truth_mask(f.right, columns, full)
    if isinstance(f, Implies):
        ante = _truth_mask(f.antecedent, columns, full)
        return (ante ^ full) | _truth_mask(f.consequent, columns, full)
    raise TypeError(f"not a formula: {f!r}")


class CompiledFormulas:
    """Statements and context compiled once for satisfiability checks on subsets.

    :meth:`satisfiable` decides a subset of ``statements`` (given by index)
    together with every ``context`` formula.  Construction collects each
    formula's atoms, numbers the components of the whole collection, and
    builds every formula's truth mask over its component's table and each
    component's joint context mask.  Dropping statements can only split a
    component, never join two, so a subset is satisfiable iff each
    whole-collection component is.  Raises :class:`AtomBudgetError` when a
    component has more than :data:`ATOM_BUDGET` atoms.
    """

    def __init__(self, statements: Iterable[Formula], context: Iterable[Formula] = ()) -> None:
        self.statements = list(statements)
        formulas = self.statements + list(context)
        atoms = [atoms_of(f) for f in formulas]
        self._component = _component_ids(atoms)
        names: list[set[str]] = [set() for _ in range(max(self._component, default=-1) + 1)]
        for c, formula_atoms in zip(self._component, atoms):
            names[c] |= formula_atoms
        self._tables = [_table(sorted(component_names)) for component_names in names]
        self._masks = [_truth_mask(f, *self._tables[c]) for f, c in zip(formulas, self._component)]
        # Joint mask of each component's context: all ones where it has none.
        self._context = [full for _, full in self._tables]
        for k in range(len(self.statements), len(formulas)):
            self._context[self._component[k]] &= self._masks[k]

    def with_statement(self, index: int, statement: Formula) -> "CompiledFormulas | None":
        """This compile with statement ``index`` replaced: one new truth mask, over that statement's component.

        Returns None when ``statement`` has an atom outside the component;
        compile the new collection afresh then.  Without the old statement
        the component may split in two, but one table over both parts
        decides every subset as their separate tables would.
        """
        columns, full = self._tables[self._component[index]]
        if not atoms_of(statement) <= columns.keys():
            return None
        other = copy.copy(self)
        other.statements = [*self.statements[:index], statement, *self.statements[index + 1:]]
        other._masks = [*self._masks[:index], _truth_mask(statement, columns, full), *self._masks[index + 1:]]
        return other

    def satisfiable(self, keep: Iterable[int] | None = None) -> bool:
        """Whether the statements at ``keep`` (default: all) and the context are jointly satisfiable."""
        joint = list(self._context)
        for i in range(len(self.statements)) if keep is None else keep:
            c = self._component[i]
            joint[c] &= self._masks[i]
            if not joint[c]:
                return False
        return all(joint)


def _table(names: list[str]) -> tuple[dict[str, int], int]:
    """Column mask of each atom in ``names`` and the all-ones mask of their truth table."""
    if len(names) > ATOM_BUDGET:
        raise AtomBudgetError(
            f"{len(names)} atoms in one connected component exceed the truth-table bound of {ATOM_BUDGET}"
        )
    columns = {name: _column_mask(i, len(names)) for i, name in enumerate(names)}
    return columns, (1 << (1 << len(names))) - 1


def _component_ids(per_formula: list[frozenset[str]]) -> list[int]:
    """Component number of each formula, over shared atoms, numbered by first appearance."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for atoms in per_formula:
        roots = {find(parent.setdefault(name, name)) for name in atoms}
        first = roots.pop()
        for root in roots:
            parent[root] = first
    numbers: dict[str, int] = {}
    return [numbers.setdefault(find(next(iter(atoms))), len(numbers)) for atoms in per_formula]


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
    """Inverse of :func:`format_formula`."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens or _TOKEN_RE.sub("", text).strip():
        raise FormulaSyntaxError(f"cannot tokenize formula: {text!r}")
    pos = 0

    def parse() -> Formula:
        nonlocal pos
        if pos >= len(tokens):
            raise FormulaSyntaxError(f"unexpected end of formula: {text!r}")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens):
                raise FormulaSyntaxError(f"unexpected end of formula: {text!r}")
            op = tokens[pos]
            pos += 1
            if op == "not":
                operand = parse()
                node: Formula = Not(operand)
            elif op == "or":
                node = Or(parse(), parse())
            elif op == "implies":
                node = Implies(parse(), parse())
            else:
                raise FormulaSyntaxError(f"unknown connective {op!r} in {text!r}")
            if pos >= len(tokens) or tokens[pos] != ")":
                raise FormulaSyntaxError(f"missing ')' in {text!r}")
            pos += 1
            return node
        if tok == ")":
            raise FormulaSyntaxError(f"unexpected ')' in {text!r}")
        return AtomRef(tok)

    result = parse()
    if pos != len(tokens):
        raise FormulaSyntaxError(f"trailing tokens in {text!r}")
    return result


_DOTTED_TOKEN = re.compile(r"([A-Za-z0-9_:@-]*)\.[A-Za-z0-9_.:@-]*")


class FormulaChecker:
    """Checks the formula texts of many sets, parsing each distinct *shape* once.

    Texts that differ only in their dotted tokens (atom ids ``ns.name``)
    share a shape: the text with each dotted token replaced by ``.``.  No
    connective has a dot, so a text and its shape parse alike: a text is
    accepted iff its shape is, and its atoms' namespaces (ids up to the
    first ``.``) are those of its dotted tokens plus the undotted atoms of
    its shape.  One regex split of a set's joined texts yields both its
    shapes and its dotted namespaces; a corpus has only a handful of shapes.
    """

    def __init__(self) -> None:
        self._shapes: dict[str, frozenset[str]] = {}  # shape -> its undotted atoms

    def namespaces(self, texts: list[str]) -> frozenset[str]:
        """Namespaces of the atoms of ``texts``; a :class:`FormulaSyntaxError` names the first bad text."""
        if not texts:
            return frozenset()
        # Text between dotted tokens, alternating with those tokens' namespaces.
        pieces = _DOTTED_TOKEN.split("\0".join(texts))
        shapes = ".".join(pieces[::2]).split("\0")
        if len(shapes) != len(texts):  # a text holds the separator, which no formula may
            for text in texts:
                parse_formula(text)  # raises, for that text or an earlier bad one
        names = set(pieces[1::2])
        for shape, text in zip(shapes, texts):
            undotted = self._shapes.get(shape)
            if undotted is None:
                try:
                    undotted = self._shapes[shape] = atoms_of(parse_formula(shape)) - {"."}
                except FormulaSyntaxError:
                    parse_formula(text)  # raises the same error, naming the text itself
                    raise
            names |= undotted
        return frozenset(names)
