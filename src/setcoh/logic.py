"""Exact propositional semantics for statement sets.

Formulas are built from atoms with three connectives: negation,
disjunction, and material implication (``Implies(a, b)`` is true exactly
when ``Or(Not(a), b)`` is).  There is deliberately no conjunction node:
statement sets express conjunction by listing statements, and keeping
the grammar conjunction-free means a set's shape always mirrors its
statement list.

Satisfiability is decided by exhaustive truth-table enumeration (bounded
at 24 distinct atoms).  Formula collections are first split into
connected components over shared atoms, so collections assembled from
independently-named worlds cost the product of tiny tables rather than
one huge one.  The enumeration itself runs over bitmask columns (one
big integer per atom), which keeps the inner loop in C.
:class:`CompiledFormulas` keeps each formula's truth mask, so the
subsets of one collection (pairs, leave-one-out checks) are decided by
ANDing masks already built; :func:`is_satisfiable` is one compile and
one check.

Atoms carry two English surface templates (affirmative / negated) used
by :func:`realize` to render formulas as sentences.  Rendering is
deterministic and injective as long as atom surfaces are distinct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union


class MissingAssignmentError(ValueError):
    """A valuation does not assign some atom appearing in the formula."""


class AtomBudgetError(ValueError):
    """A formula collection exceeds the truth-table enumeration bound."""


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
    together with every ``context`` formula.  Atoms are collected once per
    formula and the components are those of the whole collection; dropping
    statements can only split a component, never join two, so a subset is
    satisfiable iff each whole-collection component is.  Column masks and
    per-formula truth masks are built on first use and then reused.
    """

    def __init__(self, statements: Iterable[Formula], context: Iterable[Formula] = ()) -> None:
        self.statements = list(statements)
        self.context = list(context)
        everything = self.statements + self.context
        self._atoms = [atoms_of(f) for f in everything]
        self._context_atoms = frozenset().union(*self._atoms[len(self.statements):])
        self._n_atoms = len(frozenset().union(*self._atoms))
        self._component = _component_ids(self._atoms)
        n_components = max(self._component, default=-1) + 1
        names: list[set[str]] = [set() for _ in range(n_components)]
        for c, atoms in zip(self._component, self._atoms):
            names[c] |= atoms
        self._names = [sorted(n) for n in names]
        self._context_by_component: list[list[int]] = [[] for _ in range(n_components)]
        for k in range(len(self.statements), len(everything)):
            self._context_by_component[self._component[k]].append(k)
        self._tables: list[tuple[dict[str, int], int] | None] = [None] * n_components
        self._context_joint: list[int | None] = [None] * n_components
        self._masks: list[int | None] = [None] * len(everything)
        self._everything = everything

    def satisfiable(self, keep: Iterable[int] | None = None) -> bool:
        """Whether the statements at ``keep`` (default: all) and the context are jointly satisfiable.

        Raises :class:`AtomBudgetError` when those formulas have more than
        :data:`ATOM_BUDGET` distinct atoms.
        """
        kept = range(len(self.statements)) if keep is None else list(keep)
        if self._n_atoms > ATOM_BUDGET:
            # Only the subset's own atoms count; its tables are its own.
            n_atoms = len(self._context_atoms.union(*(self._atoms[i] for i in kept)))
            if n_atoms > ATOM_BUDGET:
                raise AtomBudgetError(
                    f"{n_atoms} distinct atoms exceed the truth-table bound of {ATOM_BUDGET}"
                )
            return CompiledFormulas([self.statements[i] for i in kept], self.context).satisfiable()
        # Every component with context is in force, whichever statements are kept.
        members: dict[int, list[int]] = {c: [] for c, ks in enumerate(self._context_by_component) if ks}
        for i in kept:
            members.setdefault(self._component[i], []).append(i)
        for c, ks in members.items():
            joint = self._context_mask(c)
            for k in ks:
                if joint == 0:
                    break
                joint &= self._mask(k)
            if joint == 0:
                return False
        return True

    def _mask(self, k: int) -> int:
        mask = self._masks[k]
        if mask is None:
            columns, full = self._table(self._component[k])
            mask = self._masks[k] = _truth_mask(self._everything[k], columns, full)
        return mask

    def _table(self, c: int) -> tuple[dict[str, int], int]:
        """Component ``c``'s atom columns and its all-ones mask."""
        table = self._tables[c]
        if table is None:
            names = self._names[c]
            columns = {name: _column_mask(i, len(names)) for i, name in enumerate(names)}
            table = self._tables[c] = (columns, (1 << (1 << len(names))) - 1)
        return table

    def _context_mask(self, c: int) -> int:
        """AND of component ``c``'s context masks (all ones when it has none)."""
        joint = self._context_joint[c]
        if joint is None:
            joint = self._table(c)[1]
            for k in self._context_by_component[c]:
                joint &= self._mask(k)
                if joint == 0:
                    break
            self._context_joint[c] = joint
        return joint


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
    :class:`AtomBudgetError` above :data:`ATOM_BUDGET` distinct atoms.
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
