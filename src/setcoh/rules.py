"""Inventory of set-construction rules over seed premise/hypothesis pairs.

Each rule row turns one seed pair (or two, for the dilemma family) into
a statement set with a known consistency label.  Members are written in
prefix notation over the placeholders ``p``/``h`` (and ``p2``/``h2``
for two-seed rules) and instantiated against concrete atoms at
application time.

Labels are propositional: they hold for the member formulas read over
independent atoms.  Two situations need the seed relation itself as a
side condition, carried as context formulas rather than as members:

* the bare "premise with negated hypothesis" row (inconsistent only
  because the premise entails the hypothesis), and
* every contradiction-seed row (the seed's mutual exclusion is world
  knowledge for those sets; only the "disjunction with both sides" row
  strictly needs it, but the relation holds globally for that world).

``difficulty`` is ``easy`` exactly for inconsistent rows that contain a
statement alongside its direct negation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .logic import Formula, parse_formula

ENTAILMENT = "entailment"
CONTRADICTION = "contradiction"
NEUTRAL = "neutral"

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"

# The two difficulties a rule row, and so every set written, may have.
EASY, MEDIUM = DIFFICULTIES = ("easy", "medium")

# The rule ids of the sets the generator builds without a rule row: a QA set, its answer-flipped
# inconsistent copy, a consistent pair from a sentence rule's set, and a QA pair for element-wise training.
QA_GEN, QA_FLIP, EW_C, QA_EW = GENERATOR_RULE_IDS = ("QA-GEN", "QA-FLIP", "EW-C", "QA-EW")


@dataclass(frozen=True)
class Rule:
    rule_id: str
    relation: str           # seed relation the rule applies to
    seeds_required: int     # 1, or 2 for the dilemma family
    members: tuple[Formula, ...]
    label: str
    difficulty: str
    description: str
    attach_context: bool = False  # carry the seed axioms as context formulas


def _rows(prefix: str, relation: str, seeds: int, rows: list[tuple]) -> list[Rule]:
    out = []
    for i, (members, label, difficulty, description, *rest) in enumerate(rows, start=1):
        out.append(
            Rule(
                rule_id=f"{prefix}-{i}",
                relation=relation,
                seeds_required=seeds,
                members=tuple(parse_formula(m) for m in members),
                label=label,
                difficulty=difficulty,
                description=description,
                attach_context=bool(rest[0]) if rest else False,
            )
        )
    return out


C, I, EZ, MED = CONSISTENT, INCONSISTENT, EASY, MEDIUM

SINGLE_ENTAILMENT_RULES = _rows("SE", ENTAILMENT, 1, [
    (["(implies p h)", "(implies (not h) (not p))"], C, MED, "transposition"),
    (["(implies p h)", "(or (not p) h)"], C, MED, "material implication"),
    (["(implies p h)", "h"], C, MED, "implication with its consequent"),
    (["(implies p h)", "(not p)"], C, MED, "implication with negated antecedent"),
    (["(implies p h)", "p", "h"], C, MED, "modus ponens"),
    (["(implies p h)", "(not h)", "(not p)"], C, MED, "modus tollens"),
    (["(or p h)", "(not h)", "p"], C, MED, "disjunctive syllogism, keep left"),
    (["(or p h)", "(not p)", "h"], C, MED, "disjunctive syllogism, keep right"),
    (["(implies p h)", "(implies (not h) (not p))", "(or (not p) h)"], C, MED, "transposition with material implication"),
    (["(implies p h)", "(implies (not h) (not p))", "h"], C, MED, "transposition with consequent"),
    (["(implies p h)", "(implies (not h) (not p))", "(not p)"], C, MED, "transposition with negated antecedent"),
    (["(implies p h)", "(or (not p) h)", "h"], C, MED, "material implication with consequent"),
    (["(implies p h)", "(or (not p) h)", "(not p)"], C, MED, "material implication with negated antecedent"),
    (["(implies p h)", "(not p)", "h"], C, MED, "implication with negated antecedent and consequent"),
    (["(implies p h)", "(implies (not h) (not p))", "p", "h"], C, MED, "transposition with modus ponens"),
    (["(implies p h)", "(implies (not h) (not p))", "(not p)", "(not h)"], C, MED, "transposition with modus tollens"),
    (["(implies p h)", "(or (not p) h)", "p", "h"], C, MED, "material implication with modus ponens"),
    (["(implies p h)", "(or (not p) h)", "(not p)", "(not h)"], C, MED, "material implication with modus tollens"),
    (["(implies p h)", "(or (not p) h)", "(implies (not h) (not p))", "h"], C, MED, "transposition, material implication, consequent"),
    (["(implies p h)", "(or (not p) h)", "(implies (not h) (not p))", "(not p)"], C, MED, "transposition, material implication, negated antecedent"),
    (["(implies p h)", "(implies (not h) (not p))", "(not p)", "h"], C, MED, "transposition with negated antecedent and consequent"),
    (["(implies p h)", "(or (not p) h)", "(not p)", "h"], C, MED, "material implication with negated antecedent and consequent"),
    (["(implies p h)", "(or (not p) h)", "(implies (not h) (not p))", "p", "h"], C, MED, "transposition, material implication, modus ponens"),
    (["(implies p h)", "(or (not p) h)", "(implies (not h) (not p))", "(not p)", "(not h)"], C, MED, "transposition, material implication, modus tollens"),
    (["(implies p h)", "(or (not p) h)", "(implies (not h) (not p))", "(not p)", "h"], C, MED, "transposition, material implication, negated antecedent, consequent"),
    (["p", "(not h)"], I, MED, "premise with negated hypothesis", True),
    (["p", "(not h)", "(implies p h)"], I, MED, "negated hypothesis against explicit implication"),
    (["(or p h)", "(not p)", "(not h)"], I, MED, "disjunction with both sides negated"),
    (["(or p h)", "(implies p h)", "(not h)"], I, MED, "disjunction and implication with negated hypothesis"),
    (["(implies p h)", "(not h)", "(not p)", "p"], I, EZ, "modus tollens plus its negated antecedent's opposite"),
    (["(implies p h)", "(not h)", "(not p)", "h"], I, EZ, "modus tollens plus the negated consequent's opposite"),
    (["(implies p h)", "p", "h", "(not p)"], I, EZ, "modus ponens plus negated antecedent"),
    (["(implies p h)", "p", "h", "(not h)"], I, EZ, "modus ponens plus negated consequent"),
    (["(implies p h)", "(implies (not h) (not p))", "p", "(not h)"], I, MED, "transposition against negated hypothesis"),
    (["(implies p h)", "(or (not p) h)", "p", "(not h)"], I, MED, "material implication against negated hypothesis"),
    (["(implies p h)", "(not h)", "(not p)", "p", "h"], I, EZ, "modus tollens merged with modus ponens"),
])

SINGLE_CONTRADICTION_RULES = _rows("SC", CONTRADICTION, 1, [
    (["(not p)", "h"], C, MED, "negated premise with hypothesis", True),
    (["p", "(not h)"], C, MED, "premise with negated hypothesis", True),
    (["(or p h)", "(not h)", "p"], C, MED, "disjunctive syllogism, keep left", True),
    (["(or p h)", "(not p)", "h"], C, MED, "disjunctive syllogism, keep right", True),
    (["(or p h)", "p", "h"], I, MED, "disjunction with both contradictory sides", True),
    (["(or p h)", "(not p)", "(not h)"], I, MED, "disjunction with both sides negated", True),
])

SINGLE_NEUTRAL_RULES = _rows("SN", NEUTRAL, 1, [
    (["(or p h)", "(not h)", "p"], C, MED, "disjunctive syllogism, keep left"),
    (["(or p h)", "(not p)", "h"], C, MED, "disjunctive syllogism, keep right"),
    (["(or p h)", "(not p)", "(not h)"], I, MED, "disjunction with both sides negated"),
])

DOUBLE_ENTAILMENT_RULES = _rows("DE", ENTAILMENT, 2, [
    (["(implies p h)", "(implies p2 h2)", "(or p p2)", "(or h h2)"], C, MED, "constructive dilemma"),
    (["(implies p h)", "(implies p2 h2)", "(or (not h) (not h2))", "(or (not p) (not p2))"], C, MED, "destructive dilemma"),
    (["(implies p h)", "(implies p2 h2)", "(or p (not h2))", "(or h (not p2))"], C, MED, "bidirectional dilemma"),
    (["(implies p h)", "(implies p2 h2)", "(or p p2)", "(not h)", "(not h2)"], I, MED, "constructive dilemma with negated conclusions"),
    (["(implies p h)", "(implies p2 h2)", "(or (not h) (not h2))", "p", "p2"], I, MED, "destructive dilemma with affirmed premises"),
    (["(implies p h)", "(implies p2 h2)", "(or p (not h2))", "(not h)", "p2"], I, MED, "bidirectional dilemma with negated conclusion"),
])

ALL_RULES: tuple[Rule, ...] = tuple(
    SINGLE_ENTAILMENT_RULES + SINGLE_CONTRADICTION_RULES + SINGLE_NEUTRAL_RULES + DOUBLE_ENTAILMENT_RULES
)

RULES_BY_ID = {rule.rule_id: rule for rule in ALL_RULES}

# Element-wise inconsistency patterns over one entailment seed pair, kept out
# of ALL_RULES.  All four need the entailment as a side condition except the
# first two, which are direct self-contradictions; the condition is attached
# uniformly so downstream oracle checks stay uniform.  Every row is MED, the
# difficulty these sets have always carried, though EW-1 and EW-2 pair a
# statement with its negation, which makes an ALL_RULES row EZ.
PAIRWISE_INCONSISTENT_RULES = _rows("EW", ENTAILMENT, 1, [
    (["p", "(not p)"], I, MED, "premise against its negation", True),
    (["h", "(not h)"], I, MED, "hypothesis against its negation", True),
    (["p", "(not h)"], I, MED, "premise with negated hypothesis", True),
    (["(or p h)", "(not h)"], I, MED, "disjunction with negated hypothesis", True),
])

# Every rule id a written set may carry; a union carries none.
RULE_IDS = frozenset(GENERATOR_RULE_IDS).union(rule.rule_id for rule in [*ALL_RULES, *PAIRWISE_INCONSISTENT_RULES])
