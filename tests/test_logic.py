import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcoh.logic import (
    Atom,
    AtomBudgetError,
    AtomRef,
    CompiledFormulas,
    DataError,
    FormulaSyntaxError,
    Implies,
    MissingAssignmentError,
    Not,
    Or,
    atoms_of,
    evaluate,
    format_formula,
    is_satisfiable,
    negate,
    parse_formula,
    read_lines,
    realize,
)

P, Q, H = AtomRef("p"), AtomRef("q"), AtomRef("h")


def brute_force_satisfiable(formulas):
    """Independent oracle: enumerate assignments with evaluate()."""
    names = sorted(set().union(*(atoms_of(f) for f in formulas)) if formulas else set())
    for bits in itertools.product([False, True], repeat=len(names)):
        v = dict(zip(names, bits))
        if all(evaluate(f, v) for f in formulas):
            return True
    return not formulas


def test_evaluate_disjunction_of_falses():
    assert evaluate(Or(P, Q), {"p": False, "q": False}) is False


def test_evaluate_vacuous_implication():
    assert evaluate(Implies(P, H), {"p": False, "h": False}) is True


def test_evaluate_negation():
    assert evaluate(Not(P), {"p": True}) is False


def test_evaluate_missing_assignment_names_the_atom():
    with pytest.raises(MissingAssignmentError, match="'q'"):
        evaluate(Or(P, Q), {"p": False})


def test_satisfiability_train_example():
    # "Either the train arrives at 8 AM or it arrives at 9 AM" + both denials.
    assert is_satisfiable([Or(P, Q), Not(P), Not(Q)]) is False


def test_satisfiability_modus_tollens():
    assert is_satisfiable([Implies(P, H), Not(H), Not(P)]) is True


def test_satisfiability_empty_collection():
    assert is_satisfiable([]) is True


def test_atom_budget_exceeded():
    # The bound applies per connected component: 25 chained atoms exceed it,
    # 25 independent atoms do not.
    chain = [Implies(AtomRef(f"a{i}"), AtomRef(f"a{i + 1}")) for i in range(24)]
    with pytest.raises(AtomBudgetError, match="25"):
        is_satisfiable(chain)
    assert is_satisfiable([AtomRef(f"a{i}") for i in range(25)]) is True


def test_atom_budget_boundary_ok():
    formulas = [AtomRef(f"a{i}") for i in range(24)]
    assert is_satisfiable(formulas) is True


def test_negate_atom():
    assert negate(P) == Not(P)


def test_negate_double_negation():
    assert negate(Not(P)) == P


def test_negate_disjunction_not_distributed():
    assert negate(Or(P, H)) == Not(Or(P, H))


def test_negate_involution_on_atoms():
    for f in (P, Not(P)):
        assert negate(negate(f)) == f


# Up to 10 atom occurrences: the generators emit at most 5 (a QA world's
# at-least-one chain at 4 distractors; sentence rules use 2), and
# gen_qa_world allows 8 distractors, 9 occurrences.  An unbounded recursion
# spent most of its time drawing and discarding oversized formulas.
formula_strategy = st.recursive(
    st.sampled_from([AtomRef(n) for n in "abcd"]),
    lambda children: st.one_of(
        st.builds(Not, children), st.builds(Or, children, children), st.builds(Implies, children, children)
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(formula_strategy, max_size=5), st.lists(formula_strategy, max_size=2),
       st.lists(st.lists(st.booleans(), min_size=5, max_size=5), max_size=4))
def test_oracle_matches_brute_force_enumeration(formulas, context, masks):
    assert is_satisfiable(formulas) == brute_force_satisfiable(formulas)
    # One compiled collection answers for each of its subsets, context always in force.
    compiled = CompiledFormulas(formulas, context)
    assert compiled.satisfiable() == brute_force_satisfiable(formulas + context)
    for mask in masks:
        keep = [i for i in range(len(formulas)) if mask[i]]
        assert compiled.satisfiable(keep) == brute_force_satisfiable([formulas[i] for i in keep] + context)


@pytest.mark.parametrize("chained", [False, True])
def test_compiled_budget_counts_the_kept_formulas_and_the_context(chained):
    # Statements and context over 28 atoms in all.  Disjoint, every component
    # is within the bound, so every subset is decided; chained, 26 atoms form
    # one component, so the collection cannot be compiled.
    if chained:
        statements = [Implies(AtomRef(f"a{i}"), AtomRef(f"a{i + 1}")) for i in range(0, 26, 2)]
        statements += [Implies(AtomRef(f"a{i}"), AtomRef(f"a{i + 1}")) for i in range(1, 25, 2)]
    else:
        statements = [Or(AtomRef(f"a{i}"), Not(AtomRef(f"b{i}"))) for i in range(13)]
    context = [Not(AtomRef("a0")), Or(AtomRef("c0"), AtomRef("c1"))]
    if chained:
        with pytest.raises(AtomBudgetError, match="26"):
            CompiledFormulas(statements, context)
        return
    compiled = CompiledFormulas(statements, context)
    n = len(statements)
    subsets = [None, [], [0], [0, 1], [0, n - 1], list(range(9)), list(range(10)), list(range(n - 1))]
    for keep in subsets:
        kept = statements if keep is None else [statements[i] for i in keep]
        assert compiled.satisfiable(keep) == is_satisfiable(kept + context)
    assert compiled.satisfiable() is True


block_formula_strategy = st.recursive(
    st.sampled_from([AtomRef(n) for n in "abcdefgh"]),
    lambda children: st.one_of(
        st.builds(Not, children), st.builds(Or, children, children), st.builds(Implies, children, children)
    ),
    max_leaves=6,
)

# Statements and context of one block, over at most 8 atoms.
block_strategy = st.tuples(st.lists(block_formula_strategy, min_size=1, max_size=4),
                           st.lists(block_formula_strategy, max_size=1))


def _prefixed(f, prefix):
    if isinstance(f, AtomRef):
        return AtomRef(prefix + f.name)
    if isinstance(f, Not):
        return Not(_prefixed(f.operand, prefix))
    return type(f)(*(_prefixed(getattr(f, field.name), prefix) for field in dataclasses.fields(f)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(block_strategy, min_size=2, max_size=2), min_size=2, max_size=4), st.data())
def test_compiled_decides_disjoint_collections_over_the_bound_part_by_part(parts, data):
    # 2-4 namespace-disjoint collections of two 8-atom blocks each: 32-64 atoms
    # in all, no component over 8.  Tautologies bring every block to 8 atoms.
    blocks = []
    for i, part in enumerate(parts):
        for j, (statements, context) in enumerate(part):
            prefix = f"p{i}.b{j}"
            statements = [_prefixed(f, prefix) for f in statements]
            context = [_prefixed(f, prefix) for f in context]
            used = frozenset().union(*map(atoms_of, statements + context))
            context += [Or(AtomRef(prefix + n), Not(AtomRef(prefix + n))) for n in "abcdefgh"
                        if prefix + n not in used]
            blocks.append((statements, context))
    statements = [f for block, _ in blocks for f in block]
    context = [f for _, block in blocks for f in block]
    assert len(frozenset().union(*map(atoms_of, statements + context))) > 24
    compiled = CompiledFormulas(statements, context)
    for _ in range(3):
        keep = data.draw(st.sets(st.sampled_from(range(len(statements)))))
        expected, offset = True, 0
        for block_statements, block_context in blocks:
            kept = [f for k, f in enumerate(block_statements) if offset + k in keep]
            expected = expected and brute_force_satisfiable(kept + block_context)
            offset += len(block_statements)
        assert compiled.satisfiable(sorted(keep)) == expected


def test_compiled_unsatisfiable_context_fails_every_subset():
    compiled = CompiledFormulas([Or(P, Q), H], [Not(H)])
    assert [compiled.satisfiable(keep) for keep in ([], [0], [1], [0, 1])] == [True, True, False, False]
    compiled = CompiledFormulas([Or(P, Q)], [Not(P), P])
    assert compiled.satisfiable([]) is False


@settings(max_examples=100, deadline=None)
@given(formula_strategy, formula_strategy, st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()))
def test_material_implication_equivalence(a, b, bits):
    v = dict(zip("abcd", bits))
    assert evaluate(Implies(a, b), v) == evaluate(Or(Not(a), b), v)


@settings(max_examples=100, deadline=None)
@given(st.lists(formula_strategy, min_size=1, max_size=4))
def test_round_trip_prefix_serialization(formulas):
    for f in formulas:
        assert parse_formula(format_formula(f)) == f


COUPLE_ATOMS = {
    "p": Atom("p", "a couple walk hand in hand down a street",
              "no couple walks hand in hand down a street"),
    "h": Atom("h", "a couple is walking together", "no couple is walking together"),
}


def test_realize_implication_surface():
    text = realize(Implies(P, H), COUPLE_ATOMS)
    assert text == ("If a couple walk hand in hand down a street, "
                    "then a couple is walking together.")


def test_realize_negated_atom_uses_negative_surface():
    assert realize(Not(H), COUPLE_ATOMS) == "No couple is walking together."


def test_realize_disjunction_surface():
    text = realize(Or(P, H), COUPLE_ATOMS)
    assert text == ("Either a couple walk hand in hand down a street, "
                    "or a couple is walking together.")


def test_realize_nested_negation():
    text = realize(Not(Or(P, H)), COUPLE_ATOMS)
    assert text.startswith("It is not the case that either ")


def test_realize_injective_over_small_formula_space():
    base = [P, H, Not(P), Not(H)]
    space = list(base)
    for a, b in itertools.product(base, repeat=2):
        space.append(Or(a, b))
        space.append(Implies(a, b))
    rendered = [realize(f, COUPLE_ATOMS) for f in space]
    assert len(set(rendered)) == len(space)


def test_prefix_notation_shapes():
    assert format_formula(Implies(P, H)) == "(implies p h)"
    assert format_formula(Not(P)) == "(not p)"
    assert format_formula(Or(P, H)) == "(or p h)"
    assert parse_formula("(implies p (not (or a b)))") == Implies(P, Not(Or(AtomRef("a"), AtomRef("b"))))


@pytest.mark.parametrize("bad", ["", "(and p q)", "(not p", "(not", ")", "p q", "(or p)"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(bad)


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom("", "a", "b")
    with pytest.raises(ValueError):
        Atom("x", "same", "same")
    with pytest.raises(ValueError):
        Atom("bad id", "a", "b")


def test_a_line_ends_at_lf_crlf_or_cr_only(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes("a\nb\r\nc\rd\x0be\x0cf\x1cg\x85h\u2028i\u2029j\r\r\n\nk".encode("utf-8"))
    assert list(read_lines(path, DataError)) == [
        (1, "a"), (2, "b"), (3, "c"), (4, "d\x0be\x0cf\x1cg\x85h\u2028i\u2029j"), (5, ""), (6, ""), (7, "k")]
