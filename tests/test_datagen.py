import itertools
import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcoh import datagen
from setcoh.datagen import (
    DEFAULT_FLIPS,
    GenConfig,
    MalformedRecordError,
    MissingSemanticsError,
    NamespaceCollisionError,
    NotABaseSetError,
    PROVENANCE_CLASSES,
    QA_FLIPS,
    QAWorld,
    StatementSet,
    apply_rule,
    build_splits,
    compose_union,
    corrupt_qa,
    derive_pairwise_dataset,
    gen_qa_set,
    gen_qa_world,
    gen_seed_pair,
    load_jsonl,
    pools,
    save_jsonl,
    validate_with_oracle,
)
from setcoh.evalkit import build_eval_mixture
from setcoh.logic import (
    AtomRef,
    FormulaChecker,
    FormulaSyntaxError,
    Implies,
    Not,
    Or,
    atoms_of,
    format_formula,
    is_satisfiable,
    negate,
    parse_formula,
)
from setcoh.rules import ALL_RULES


def desk_world(distractors=("pink",)):
    return QAWorld(obj="desk", attribute_type="color", true_value="brown",
                   distractor_values=tuple(distractors), namespace="qtest")


def _sentence_set():
    return derive_pairwise_dataset([gen_seed_pair(530, "entailment")], [])[0]


@pytest.mark.parametrize("call, message", [
    (lambda: gen_seed_pair(-1, "entailment"), "rng_seed must be non-negative"),
    (lambda: gen_seed_pair(0, "synonymy"), "unknown relation 'synonymy'"),
    (lambda: gen_qa_world(0, 0), "n_distractors must be in 1..8"),
    (lambda: gen_qa_world(0, 9), "n_distractors must be in 1..8"),
    (lambda: gen_qa_set(desk_world(())), "world needs at least one distractor value"),
    (lambda: compose_union([gen_qa_set(gen_qa_world(540, 2))]), "compose_union takes 2-4 parts"),
    (lambda: compose_union([gen_qa_set(gen_qa_world(541 + k, 2)) for k in range(5)]), "compose_union takes 2-4 parts"),
    (lambda: derive_pairwise_dataset([], [_sentence_set()]), f"set {_sentence_set().id!r} is not QA-style"),
    (lambda: GenConfig(style="xml"), "unknown style 'xml'"),
    (lambda: GenConfig(train_count=0), "counts must be >= 1"),
    (lambda: GenConfig(eval_count=0), "counts must be >= 1"),
    (lambda: GenConfig(qa_flips=("no-to-yes", "bogus")), "unknown qa flip 'bogus'; valid flips: "),
], ids=["negative-seed", "unknown-relation", "no-distractor", "nine-distractors", "empty-world", "one-part",
        "five-parts", "sentence-set-as-qa", "unknown-style", "train-count-0", "eval-count-0", "unknown-flip"])
def test_a_bad_generator_argument_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


class TestSeedPairs:
    def test_deterministic(self):
        assert gen_seed_pair(3, "entailment") == gen_seed_pair(3, "entailment")

    def test_entailment_certificate(self):
        pair = gen_seed_pair(3, "entailment")
        p, h = pair.premise, pair.hypothesis
        ax = list(pair.axioms)
        assert ax == [Implies(p, h)]
        assert not is_satisfiable([p, negate(h)] + ax)
        assert is_satisfiable([negate(p), h] + ax)

    def test_contradiction_certificate(self):
        pair = gen_seed_pair(4, "contradiction")
        p, h = pair.premise, pair.hypothesis
        assert not is_satisfiable([p, h] + list(pair.axioms))

    def test_neutral_all_four_combinations_satisfiable(self):
        pair = gen_seed_pair(5, "neutral")
        p, h = pair.premise, pair.hypothesis
        for a, b in itertools.product((p, negate(p)), (h, negate(h))):
            assert is_satisfiable([a, b] + list(pair.axioms))

    def test_distinct_relations_get_distinct_namespaces(self):
        assert gen_seed_pair(3, "entailment").namespace != gen_seed_pair(3, "neutral").namespace


class TestApplyRule:
    def test_modus_tollens_shape(self):
        seed = gen_seed_pair(10, "entailment")
        p, h = seed.premise, seed.hypothesis
        out = apply_rule("SE-6", seed)
        assert out.formulas() == [Implies(p, h), Not(h), Not(p)]
        assert (out.label, out.difficulty) == ("consistent", "medium")

    def test_implicit_negated_hypothesis_shape(self):
        seed = gen_seed_pair(11, "entailment")
        p, h = seed.premise, seed.hypothesis
        out = apply_rule("SE-29", seed)
        assert out.formulas() == [Or(p, h), Implies(p, h), Not(h)]
        assert out.label == "inconsistent"

    def test_constructive_dilemma_negated_shape(self):
        s1, s2 = gen_seed_pair(12, "entailment"), gen_seed_pair(13, "entailment")
        p1, h1 = s1.premise, s1.hypothesis
        p2, h2 = s2.premise, s2.hypothesis
        out = apply_rule("DE-4", [s1, s2])
        assert out.formulas() == [Implies(p1, h1), Implies(p2, h2), Or(p1, p2), Not(h1), Not(h2)]
        assert out.label == "inconsistent"

    def test_statement_texts_are_realized_sentences(self):
        out = apply_rule("SE-6", gen_seed_pair(14, "entailment"))
        for statement in out.statements:
            assert statement.kind == "sentence"
            assert statement.text[0].isupper() and statement.text.endswith(".")


class TestQAGeneration:
    def test_desk_example(self):
        out = gen_qa_set(desk_world())
        assert [(s.question, s.answer) for s in out.statements] == [
            ("what color is desk?", "brown"),
            ("is desk brown?", "yes"),
            ("is desk pink?", "no"),
        ]
        assert out.label == "consistent"

    def test_size_is_distractors_plus_two(self):
        for k in (1, 2, 3, 4):
            world = gen_qa_world(100 + k, k)
            assert len(gen_qa_set(world)) == k + 2

    def test_oracle_certifies_generated_set(self):
        out = gen_qa_set(desk_world(("pink", "teal")))
        assert is_satisfiable(out.all_formulas())

    def test_world_rejects_duplicate_values(self):
        with pytest.raises(ValueError):
            QAWorld(obj="desk", attribute_type="color", true_value="brown",
                    distractor_values=("brown",), namespace="q")


class TestCorruptQA:
    def test_paper_flip(self):
        # the single candidate flip turns the "no" into a "yes"
        out = corrupt_qa(gen_qa_set(desk_world()), 0, flips=("no-to-yes",))
        assert (out.statements[2].question, out.statements[2].answer) == ("is desk pink?", "yes")
        assert out.label == "inconsistent"
        assert out.gold_inconsistent_indices == (2,)

    def test_size_preserved(self):
        sc = gen_qa_set(desk_world(("pink", "teal", "violet")))
        assert len(corrupt_qa(sc, 1)) == len(sc)

    def test_removal_of_flipped_restores_satisfiability(self):
        sc = gen_qa_set(desk_world(("pink", "teal")))
        out = corrupt_qa(sc, 2)
        g = out.gold_inconsistent_indices[0]
        formulas = out.formulas()
        assert not is_satisfiable(formulas + list(out.context_semantics))
        rest = [f for i, f in enumerate(formulas) if i != g]
        assert is_satisfiable(rest + list(out.context_semantics))

    def test_exactly_one_removal_fix_for_size_at_least_four(self):
        for seed in range(12):
            world = gen_qa_world(300 + seed, 2 + seed % 3)
            out = corrupt_qa(gen_qa_set(world), seed)
            assert len(out) >= 4
            formulas = out.formulas()
            context = list(out.context_semantics)
            fixes = [
                i for i in range(len(formulas))
                if is_satisfiable([f for j, f in enumerate(formulas) if j != i] + context)
            ]
            assert fixes == list(out.gold_inconsistent_indices)

    def test_yes_to_no_flip_mode(self):
        sc = gen_qa_set(desk_world(("pink", "teal")))
        out = corrupt_qa(sc, 3, flips=("yes-to-no",))
        assert out.statements[1].answer == "no"
        assert validate_with_oracle(out)

    @staticmethod
    def certified_flips(sc):
        """(index, answer) of each flip of ``sc``, under every mode, that ``is_satisfiable`` certifies."""
        formulas, context, n = sc.formulas(), list(sc.context_semantics), len(sc)
        certified = set()
        for idx, flipped in datagen._qa_flip_candidates(sc, QA_FLIPS):
            statements = formulas[:idx] + [flipped.semantics] + formulas[idx + 1:]
            if is_satisfiable(statements + context):
                continue
            fixes = [j for j in range(n) if is_satisfiable(statements[:j] + statements[j + 1:] + context)]
            if (fixes == [idx]) if n >= 4 else (idx in fixes):
                certified.add((idx, flipped.answer))
        return certified

    def test_one_compile_decides_like_is_satisfiable(self, qa_corpus):
        sets = [s for split in (qa_corpus.validation1, qa_corpus.validation2, qa_corpus.test)
                for s in split if s.label == "consistent"]
        # Without the worlds' exclusivity axioms, an open-replace flip's atom lies outside statement 0's component.
        sets += [replace(gen_qa_set(gen_qa_world(500 + k, 1 + k % 4)), context_semantics=()) for k in range(12)]
        modes = [flips for r in range(len(QA_FLIPS) + 1) for flips in itertools.combinations(QA_FLIPS, r)]
        outcomes = set()
        for sc in sets:
            certified = self.certified_flips(sc)
            for flips in modes:
                valid = [(i, f) for i, f in datagen._qa_flip_candidates(sc, flips) if (i, f.answer) in certified]
                for seed in range(3):
                    outcomes.add(bool(valid))
                    if not valid:
                        with pytest.raises(datagen.GenerationError, match="no certified flip"):
                            corrupt_qa(sc, seed, flips)
                        continue
                    idx, flipped = valid[random.Random(f"qa-flip:{seed}").randrange(len(valid))]
                    out = corrupt_qa(sc, seed, flips)
                    assert out.gold_inconsistent_indices == (idx,)
                    assert out.statements == [*sc.statements[:idx], flipped, *sc.statements[idx + 1:]]
        assert outcomes == {False, True}

    def test_requires_consistent_qa_set(self):
        sc = gen_qa_set(desk_world(("pink", "teal")))
        bad = corrupt_qa(sc, 4)
        with pytest.raises(ValueError):
            corrupt_qa(bad, 5)


class TestComposeUnion:
    def make_parts(self, n=2, start=400):
        parts = []
        for i in range(n):
            parts.append(gen_qa_set(gen_qa_world(start + i, 2)))
        return parts

    def test_c_plus_i_is_ci(self):
        c = gen_qa_set(gen_qa_world(410, 2))
        i = corrupt_qa(gen_qa_set(gen_qa_world(411, 2)), 0)
        union = compose_union([c, i], shuffle_seed=1)
        assert union.provenance == "CI"
        assert union.label == "inconsistent"
        assert validate_with_oracle(union)

    def test_c_plus_c_is_cc(self):
        union = compose_union(self.make_parts(2), shuffle_seed=2)
        assert union.provenance == "CC"
        assert union.label == "consistent"

    def test_a_union_is_easy_iff_some_part_is_easy(self):
        a, b, c = self.make_parts(3, start=460)
        assert a.difficulty == b.difficulty == c.difficulty == "medium"
        assert compose_union([a, b, c], shuffle_seed=4).difficulty == "medium"
        assert compose_union([a, replace(b, difficulty="easy"), c], shuffle_seed=4).difficulty == "easy"

    def test_provenance_sorts_c_before_i(self):
        c1, c2 = self.make_parts(2, start=420)
        i = corrupt_qa(gen_qa_set(gen_qa_world(422, 2)), 0)
        union = compose_union([i, c1, c2], shuffle_seed=3)
        assert union.provenance == "CCI"

    def test_gold_indices_remapped_through_shuffle(self):
        c = gen_qa_set(gen_qa_world(430, 3))
        i = corrupt_qa(gen_qa_set(gen_qa_world(431, 3)), 0)
        union = compose_union([c, i], shuffle_seed=9)
        (g,) = union.gold_inconsistent_indices
        formulas = union.formulas()
        context = list(union.context_semantics)
        assert not is_satisfiable(formulas + context)
        assert is_satisfiable([f for j, f in enumerate(formulas) if j != g] + context)

    def test_namespace_collision(self):
        part = gen_qa_set(gen_qa_world(440, 2))
        with pytest.raises(NamespaceCollisionError):
            compose_union([part, part])
        other = gen_qa_set(gen_qa_world(441, 2))
        with pytest.raises(NamespaceCollisionError) as excinfo:
            compose_union([other, part, part])
        assert str(excinfo.value) == f"union parts share atom namespaces: {sorted(part.namespaces())}"

    def test_rejects_non_base_parts(self):
        a, b, c = self.make_parts(3, start=450)
        union = compose_union([a, b], shuffle_seed=0)
        with pytest.raises(ValueError):
            compose_union([union, c])

    def test_fourteen_provenance_classes(self):
        # independent enumeration: multisets over {C, I} of sizes 1..4
        tags = set()
        for size in range(1, 5):
            for combo in itertools.combinations_with_replacement("CI", size):
                tags.add("".join(sorted(combo)))
        assert tags == set(PROVENANCE_CLASSES)
        assert len(PROVENANCE_CLASSES) == 14


class TestPairwiseDataset:
    def test_patterns_from_entailment_seed(self):
        seed = gen_seed_pair(500, "entailment")
        out = derive_pairwise_dataset([seed], [], rng_seed=0)
        by_rule = {s.rule_id: s for s in out}
        p, h = seed.premise, seed.hypothesis
        assert by_rule["EW-3"].formulas() == [p, Not(h)]
        assert by_rule["EW-3"].label == "inconsistent"
        # pattern 4 is satisfiable alone; the recorded axiom makes it inconsistent
        ew4 = by_rule["EW-4"]
        assert ew4.formulas() == [Or(p, h), Not(h)]
        assert is_satisfiable(ew4.formulas())
        assert not is_satisfiable(ew4.all_formulas())
        assert ew4.context_semantics == seed.axioms

    def test_consistent_two_subsets(self):
        seed = gen_seed_pair(501, "entailment")
        out = derive_pairwise_dataset([seed], [], rng_seed=0)
        consistent = [s for s in out if s.label == "consistent"]
        assert consistent
        for s in consistent:
            assert len(s) == 2
            assert validate_with_oracle(s)

    def test_qa_pairs(self):
        sc = gen_qa_set(gen_qa_world(510, 2))
        si = corrupt_qa(sc, 0)
        out = derive_pairwise_dataset([], [sc, si], rng_seed=0)
        inconsistent = [s for s in out if s.label == "inconsistent"]
        consistent = [s for s in out if s.label == "consistent"]
        assert len(inconsistent) == 1 and len(consistent) == 1
        assert len(inconsistent[0]) == 2
        assert not is_satisfiable(inconsistent[0].all_formulas())
        assert inconsistent[0].gold_inconsistent_indices is not None
        assert is_satisfiable(consistent[0].all_formulas())

    def test_rejects_non_entailment_seed(self):
        with pytest.raises(Exception):
            derive_pairwise_dataset([gen_seed_pair(520, "neutral")], [])


class TestBuildSplits:
    def test_eval_splits_balanced(self, small_qa_corpus):
        for split in (small_qa_corpus.validation1, small_qa_corpus.validation2, small_qa_corpus.test):
            cs, is_ = pools(split)
            assert len(cs) == len(is_) == 12

    def test_train_counts(self, small_qa_corpus):
        cs, is_ = pools(small_qa_corpus.train)
        assert len(cs) == len(is_) == 30

    def test_all_generated_sets_pass_the_oracle(self, small_qa_corpus, small_snli_corpus):
        for corpus in (small_qa_corpus, small_snli_corpus):
            for split in corpus.splits().values():
                for s in split:
                    assert validate_with_oracle(s), s.id

    def test_determinism_byte_identical_jsonl(self, tmp_path):
        config = GenConfig(style="snli", train_count=8, eval_count=4)
        paths = []
        for run in (1, 2):
            corpus = build_splits(config, rng_seed=9)
            path = tmp_path / f"run{run}.jsonl"
            save_jsonl(
                corpus.train + corpus.validation1 + corpus.validation2 + corpus.test, path
            )
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_mean_rule_set_size_between_two_and_five(self):
        # independent oracle: enumerate the rule inventory sizes
        sizes = [len(r.members) for r in ALL_RULES]
        assert 2 <= sum(sizes) / len(sizes) <= 5

    def test_pools_keep_each_label_in_order(self, small_qa_corpus):
        mixed = small_qa_corpus.test[::-1] + small_qa_corpus.train[:5]
        cs, is_ = pools(mixed)
        assert cs == [s for s in mixed if s.provenance == "C"]
        assert is_ == [s for s in mixed if s.provenance == "I"]
        assert (len(cs), len(is_)) == (12 + 3, 12 + 2)

    def test_pools_refuse_a_union_naming_it(self, small_qa_corpus):
        union = compose_union(pools(small_qa_corpus.test)[0][:2], set_id="test-cc-x")
        with pytest.raises(NotABaseSetError, match=r"^set 'test-cc-x' has provenance 'CC'; unions are composed "
                                                   r"from base sets \(C or I\) only$"):
            pools(small_qa_corpus.test + [union])

    def test_matched_pairs_share_namespace(self, small_snli_corpus):
        cs, is_ = pools(small_snli_corpus.train)
        for c, i in zip(cs, is_):
            assert c.namespaces() == i.namespaces()

    def test_pairwise_blind_sets_present(self, small_snli_corpus):
        blind_rules = {"SE-28", "SC-6", "SN-3"}
        found = [s for s in small_snli_corpus.train if s.rule_id in blind_rules]
        assert found


class TestJsonl:
    def test_round_trip(self, tmp_path, small_qa_corpus):
        path = tmp_path / "sets.jsonl"
        original = small_qa_corpus.test
        save_jsonl(original, path)
        loaded = load_jsonl(path)
        assert loaded == original

    def test_round_trip_snli(self, tmp_path, small_snli_corpus):
        path = tmp_path / "sets.jsonl"
        save_jsonl(small_snli_corpus.test, path)
        assert load_jsonl(path) == small_snli_corpus.test

    def test_missing_label_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"id": "a", "label": "consistent", "provenance": "C", "difficulty": "medium",
                "statements": [{"kind": "sentence", "text": "x."},
                               {"kind": "sentence", "text": "y."}]}
        bad = {k: v for k, v in good.items() if k != "label"}
        bad["id"] = "b"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(MalformedRecordError, match=":2"):
            load_jsonl(path)

    def test_external_record_without_semantics(self, tmp_path):
        path = tmp_path / "ext.jsonl"
        record = {"id": "x", "label": "consistent", "provenance": "C", "difficulty": "medium",
                  "statements": [{"kind": "qa", "question": "q?", "answer": "a"},
                                 {"kind": "qa", "question": "r?", "answer": "b"}]}
        path.write_text(json.dumps(record) + "\n")
        (loaded,) = load_jsonl(path)
        assert loaded.statements[0].semantics is None
        with pytest.raises(MissingSemanticsError):
            validate_with_oracle(loaded)

    def test_mislabeled_set_fails_oracle(self):
        seed = gen_seed_pair(600, "entailment")
        out = apply_rule("SE-6", seed)
        tampered = StatementSet(
            id="bad", statements=out.statements,
            provenance="I", context_semantics=out.context_semantics,
        )
        assert not validate_with_oracle(tampered)


class TestPairwiseBlindWitness:
    def test_every_two_subset_of_disjunction_witness_is_satisfiable(self):
        out = apply_rule("SE-28", gen_seed_pair(700, "entailment"))
        formulas = out.formulas()
        assert not is_satisfiable(formulas)
        for i, j in itertools.combinations(range(len(formulas)), 2):
            assert is_satisfiable([formulas[i], formulas[j]])

    def test_default_flip_modes(self):
        assert DEFAULT_FLIPS == ("no-to-yes", "open-replace")


def reference_namespaces(formulas):
    """Namespaces of built formulas, from their atoms."""
    return frozenset(name.split(".", 1)[0] for f in formulas for name in atoms_of(f))


def expected_check(text):
    """What the load-time check must give for ``text``: parse_formula's namespaces, or its error, or, for a text
    that format_formula would write otherwise, the error that names both forms."""
    try:
        formula = parse_formula(text)
    except FormulaSyntaxError as exc:
        return str(exc)
    if format_formula(formula) != text:
        return f"formula {text!r} is not written as {format_formula(formula)!r}"
    return reference_namespaces([formula])


def outcome(check, text):
    try:
        return check(text)
    except FormulaSyntaxError as exc:
        return str(exc)


def assert_check_agrees_with_parser(text):
    expected = expected_check(text)
    assert outcome(lambda t: FormulaChecker().namespaces([t]), text) == expected


ATOM_IDS = ["p", "h", "not", "or", "x1", "q1a.brown", "q1a.pink", "e9.p", "a.b.c", ".", "a.", ".b", "ns:x@y-z_1.v"]
TOKENS = ["(", ")", "not", "or", "implies", "and", *ATOM_IDS, "!", "\x00"]
SEPARATORS = ["", " ", "  ", "\t", "\n"]
formula_strategy = st.recursive(
    st.sampled_from(ATOM_IDS).map(AtomRef),
    lambda children: st.one_of(
        children.map(Not),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
    ),
    max_leaves=6,
)
token_soup = st.lists(st.tuples(st.sampled_from(SEPARATORS), st.sampled_from(TOKENS)), max_size=10).map(
    lambda pairs: "".join(sep + tok for sep, tok in pairs))


@st.composite
def formula_texts(draw):
    """Well-formed formulas, the same with one token dropped, added or swapped, and token soup."""
    text = format_formula(draw(formula_strategy))
    tokens = re.findall(r"\(|\)|[^()\s]+", text)
    edit = draw(st.sampled_from(["none", "drop", "insert", "swap", "spaces", "soup"]))
    k = draw(st.integers(0, len(tokens)))
    if edit == "drop" and k < len(tokens):
        del tokens[k]
    elif edit == "insert":
        tokens.insert(k, draw(st.sampled_from(TOKENS)))
    elif edit == "swap" and k < len(tokens):
        tokens[k] = draw(st.sampled_from(TOKENS))
    elif edit == "soup":
        return draw(token_soup)
    sep = draw(st.sampled_from(SEPARATORS[1:])) if edit == "spaces" else " "
    return sep.join(tokens)


@pytest.mark.parametrize("text", [
    "", " ", "p", "q1a.brown", "(not p)", "( not\tp )", "(not(or a.x b))", "(not not)", "not", "a.b.c",
    "(and p q)", "(nand a.b c)", "(not p", "(not p q)", "(or p)", "(implies p)", "((not p))", "(not)",
    ")", "p)", "p q", "(or p q", "(or p q))", "(not p!)", "(not \x00p)", "(", "(.x .y)",
])
def test_load_time_check_on_known_texts(text):
    assert_check_agrees_with_parser(text)


@settings(max_examples=400, deadline=None)
@given(formula_texts())
def test_load_time_check_accepts_exactly_what_the_parser_accepts(text):
    assert_check_agrees_with_parser(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(formula_texts(), min_size=1, max_size=5))
def test_checker_over_a_set_reports_its_first_bad_text(texts):
    # One checker for all examples would carry shapes between them; a set's texts share one.
    results = [expected_check(t) for t in texts]
    errors = [r for r in results if isinstance(r, str)]
    expected = errors[0] if errors else frozenset().union(*results)
    assert outcome(FormulaChecker().namespaces, texts) == expected
    check = FormulaChecker()
    for text in texts:  # shapes parsed for earlier texts decide later ones
        outcome(check.namespaces, [text])
    assert outcome(check.namespaces, texts) == expected


@pytest.fixture(params=["qa_corpus", "snli_corpus"])
def desk_corpus(request, tmp_path_factory):
    """A desk-scale corpus in memory and as loaded back from its JSONL file."""
    corpus = request.getfixturevalue(request.param)
    sets = [s for split in corpus.splits().values() for s in split]
    path = tmp_path_factory.mktemp("desk") / "data.jsonl"
    save_jsonl(sets, path)
    return sets, load_jsonl(path)


class TestLazyReader:
    def test_loaded_formulas_equal_the_generated_ones(self, desk_corpus):
        generated, loaded = desk_corpus
        assert len(loaded) == len(generated)
        for g, s in zip(generated, loaded):
            assert s.id == g.id
            assert [st.semantics for st in s.statements] == [st.semantics for st in g.statements]
            assert s.context_semantics == g.context_semantics
            assert s == g

    def test_namespaces_from_text_equal_those_of_the_formulas(self, desk_corpus, monkeypatch):
        generated, loaded = desk_corpus
        expected = [reference_namespaces(g.all_formulas()) for g in generated]

        def no_parse(text):
            raise AssertionError(f"parsed {text!r}")

        monkeypatch.setattr(datagen, "parse_formula", no_parse)
        assert [s.namespaces() for s in loaded] == expected
        assert [g.namespaces() for g in generated] == expected
        # Unions of loaded parts: every class, composed without parsing.
        test = [s for s in loaded if s.id.startswith("test-")]
        mixture = build_eval_mixture(*pools(test), 6, rng_seed=1).sets
        namespaces = [u.namespaces() for u in mixture]
        monkeypatch.undo()
        assert namespaces == [reference_namespaces(u.all_formulas()) for u in mixture]
        generated_test = [g for g in generated if g.id.startswith("test-")]
        in_memory = build_eval_mixture(*pools(generated_test), 6, rng_seed=1).sets
        assert in_memory == mixture
        assert [u.namespaces() for u in in_memory] == namespaces

    def test_formulas_are_parsed_on_first_read_only(self, tmp_path, small_qa_corpus, monkeypatch):
        path = tmp_path / "sets.jsonl"
        save_jsonl(small_qa_corpus.test[:2], path)
        parsed = []
        monkeypatch.setattr(datagen, "parse_formula", lambda text: parsed.append(text) or parse_formula(text))
        s = load_jsonl(path)[1]
        assert parsed == []
        first = s.statements[0].semantics
        assert s.statements[0].semantics is first and parsed == [format_formula(first)]
        assert s.context_semantics is s.context_semantics
        assert parsed[1:] == [format_formula(f) for f in s.context_semantics]


GOOD = {"id": "a", "label": "consistent", "provenance": "C", "difficulty": "medium",
        "statements": [{"kind": "qa", "question": "q?", "answer": "x", "semantics": "w.x"},
                       {"kind": "qa", "question": "r?", "answer": "yes", "semantics": "w.x"}]}
BAD_BASE = {"id": "b", "label": "inconsistent", "provenance": "I", "difficulty": "medium",
            "gold_inconsistent_indices": [1],
            "statements": [{"kind": "qa", "question": "q?", "answer": "x", "semantics": "v.x"},
                           {"kind": "qa", "question": "r?", "answer": "yes", "semantics": "(not v.x)"}]}
DROP = object()     # a change that removes its field from BAD_BASE


class TestStrictRecords:
    def write(self, path, record):
        path.write_text(json.dumps(GOOD) + "\n" + json.dumps(record) + "\n")
        return path

    @pytest.mark.parametrize("change, message", [
        ({"gold_inconsistent_indices": [99]}, "gold index 99 is not a statement index (0..1)"),
        ({"gold_inconsistent_indices": [1, 1]}, "gold index 1 repeats"),
        ({"gold_inconsistent_indices": []}, "set 'b': gold indices, when given, name at least one statement"),
        ({"label": "consistent", "provenance": "C"}, "a consistent set has no gold inconsistent indices"),
        ({"gold_inconsistent_indices": "01"}, "field 'gold_inconsistent_indices' must be a list of integers"),
        ({"gold_inconsistent_indices": [True]}, "field 'gold_inconsistent_indices' must be a list of integers"),
        ({"context_semantics": "ab"}, "field 'context_semantics' must be a list of strings"),
        ({"statements": "xy"}, "field 'statements' must be a list of objects"),
        ({"id": 7}, "set id 7 is not a string"),
        ({"id": {"a": [{}]}}, "set id {'a': [{}]} is not a string"),
        ({"label": {"x": 1}}, "set 'b': label {'x': 1} contradicts provenance 'I'"),
        ({"provenance": {}}, "set 'b': bad provenance {}"),
        ({"statements": [{**BAD_BASE["statements"][0], "kind": {}}, BAD_BASE["statements"][1]]},
         "statement 0: unknown statement kind {}"),
        ({"context_semantics": ["(nand a b)"]}, "unknown connective 'nand' in '(nand a b)'"),
        ({"label": "consistent"}, "set 'b': label 'consistent' contradicts provenance 'I'"),
        ({"label": "bogus"}, "set 'b': label 'bogus' contradicts provenance 'I'"),
        ({"label": DROP}, "set 'b': label None contradicts provenance 'I'"),
        ({"context_semantic": ["v.x"]}, "unknown field 'context_semantic'"),
        ({"statements": [{**BAD_BASE["statements"][0], "semantic": "v.x"}, BAD_BASE["statements"][1]]},
         "statement 0: unknown field 'semantic'"),
        ({"provenance": "X", "label": "consistent", "gold_inconsistent_indices": DROP}, "set 'b': bad provenance 'X'"),
        ({"statements": None}, "missing field 'statements'"),
        ({"difficulty": DROP}, "missing field 'difficulty'"),
        ({"difficulty": None}, "field 'difficulty' must be a string"),
        ({"difficulty": " medium"}, "field 'difficulty' must be 'easy' or 'medium', got ' medium'"),
        ({"rule_id": None}, "field 'rule_id' must be a string"),
        ({"rule_id": "QA-SWAP"}, "field 'rule_id' must name a rule the generator writes, got 'QA-SWAP'"),
        ({"rule_id": " QA-FLIP"}, "field 'rule_id' must name a rule the generator writes, got ' QA-FLIP'"),
        ({"context_semantics": None}, "field 'context_semantics' must be a list of strings"),
        ({"context_semantics": []}, "field 'context_semantics' must hold at least one formula when present"),
        ({"gold_inconsistent_indices": None}, "field 'gold_inconsistent_indices' must be a list of integers"),
        ({"statements": [{**BAD_BASE["statements"][0], "semantics": None}, BAD_BASE["statements"][1]]},
         "statement 0: field 'semantics' must be a string"),
        ({"statements": [{**BAD_BASE["statements"][0], "text": None}, BAD_BASE["statements"][1]]},
         "statement 0: field 'text' must be a string"),
        ({"statements": [{"kind": "sentence", "text": "V is x.", "question": None, "semantics": "v.x"},
                         BAD_BASE["statements"][1]]},
         "statement 0: field 'question' must be a string"),
        ({"statements": [{**BAD_BASE["statements"][0], "kind": None}, BAD_BASE["statements"][1]]},
         "statement 0: unknown statement kind None"),
        ({"statements": [{**BAD_BASE["statements"][0], "answer": None}, BAD_BASE["statements"][1]]},
         "statement 0: qa statements carry a question and a non-empty answer, both strings"),
        ({"context_semantics": ["(not  v.x)"]}, "formula '(not  v.x)' is not written as '(not v.x)'"),
        ({"statements": [{**BAD_BASE["statements"][0], "semantics": "v.x\t"}, BAD_BASE["statements"][1]]},
         "formula 'v.x\\t' is not written as 'v.x'"),
    ], ids=["gold-out-of-range", "gold-repeated", "gold-empty", "gold-on-consistent", "gold-string", "gold-bool",
            "context-string", "statements-string", "id-int", "id-object", "label-object", "provenance-object",
            "kind-object", "context-syntax", "label-contradicts-provenance", "label-unknown", "label-missing",
            "unknown-set-field", "unknown-statement-field", "provenance-X", "statements-null", "difficulty-missing",
            "difficulty-null", "difficulty-padded", "rule-id-null", "rule-id-unknown", "rule-id-padded",
            "context-null", "context-empty", "gold-null", "semantics-null", "qa-text-null", "sentence-question-null",
            "kind-null", "qa-answer-null", "context-padded", "semantics-padded"])
    def test_bad_record_names_its_line(self, tmp_path, change, message):
        record = {key: value for key, value in {**BAD_BASE, **change}.items() if value is not DROP}
        path = self.write(tmp_path / "bad.jsonl", record)
        with pytest.raises(MalformedRecordError) as excinfo:
            load_jsonl(path)
        assert str(excinfo.value).startswith(f"{path}:2: ")
        assert str(excinfo.value).endswith(message)

    @pytest.mark.parametrize("line, message", [
        (json.dumps(BAD_BASE)[:-1] + ', "label": "inconsistent"}', "field 'label' repeats"),
        (json.dumps(BAD_BASE).replace('"answer": "x"', '"answer": "x", "answer": "x"', 1),
         "statement 0: field 'answer' repeats"),
    ], ids=["in-the-record", "in-a-statement"])
    def test_a_repeated_key_is_refused(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(GOOD) + "\n" + line + "\n")
        with pytest.raises(MalformedRecordError) as excinfo:
            load_jsonl(path)
        assert str(excinfo.value) == f"{path}:2: {message}"

    def test_the_reader_takes_every_key_the_writer_emits(self, small_qa_corpus, small_snli_corpus):
        records = [datagen.set_to_json(s) for s in (*small_qa_corpus.test, *small_snli_corpus.test)]
        assert set().union(*records) == set(datagen._SET_KEYS)
        assert set().union(*(entry for record in records for entry in record["statements"])) == \
            set(datagen._STATEMENT_KEYS)

    @pytest.mark.parametrize("change", [{"answer": 1}, {"answer": ["x"]}, {"semantics": 5}, {"text": "q?"},
                                        {"note": "x"}],
                             ids=["answer-int", "answer-list", "semantics-int", "qa-with-text", "unknown-field"])
    def test_a_repeated_statement_record_is_checked_like_a_new_one(self, tmp_path, change):
        statements = [{**GOOD["statements"][0], **change}, GOOD["statements"][1]]
        bad = {**GOOD, "id": "b", "statements": statements}
        messages = []
        for path, lines, lineno in ((tmp_path / "after.jsonl", [GOOD, bad], 2), (tmp_path / "alone.jsonl", [bad], 1)):
            path.write_text("".join(json.dumps(record) + "\n" for record in lines))
            with pytest.raises(MalformedRecordError) as excinfo:
                load_jsonl(path)
            assert str(excinfo.value).startswith(f"{path}:{lineno}: statement 0: ")
            messages.append(str(excinfo.value).split(": ", 2)[2])
        assert messages[0] == messages[1]

    def test_a_null_formula_is_refused_after_an_equal_entry_without_one(self, tmp_path):
        entry = {"kind": "qa", "question": "q?", "answer": "x"}
        first = {**GOOD, "statements": [entry, entry]}
        path = tmp_path / "sets.jsonl"
        path.write_text(json.dumps(first) + "\n" + json.dumps({**first, "id": "b", "statements": [
            entry, {**entry, "semantics": None}]}) + "\n")
        with pytest.raises(MalformedRecordError) as excinfo:
            load_jsonl(path)
        assert str(excinfo.value) == f"{path}:2: statement 1: field 'semantics' must be a string"

    def test_identical_statement_records_share_one_statement(self, tmp_path, monkeypatch):
        path = tmp_path / "sets.jsonl"
        path.write_text(json.dumps(GOOD) + "\n" + json.dumps({**BAD_BASE, "statements": GOOD["statements"][:1]
                                                                 + BAD_BASE["statements"][1:]}) + "\n")
        parsed = []
        monkeypatch.setattr(datagen, "parse_formula", lambda text: parsed.append(text) or parse_formula(text))
        a, b = load_jsonl(path)
        assert b.statements[0] is a.statements[0]
        assert a.statements[1] is not a.statements[0]      # equal semantics, different question
        assert a.statements[0].semantics is b.statements[0].semantics
        assert parsed == ["w.x"]

    def test_the_memo_holds_only_the_statements_of_the_last_set_built(self, tmp_path, small_qa_corpus, monkeypatch):
        path = tmp_path / "sets.jsonl"
        save_jsonl(small_qa_corpus.test, path)
        read, held = datagen._Reader.read, []

        def spy(reader, record, lineno):
            read(reader, record, lineno)
            held.append((set(map(id, reader.statements.values())), set(map(id, reader.sets[-1].statements))))

        monkeypatch.setattr(datagen._Reader, "read", spy)
        assert len(load_jsonl(path)) == len(held) == len(small_qa_corpus.test)
        assert all(memo == built for memo, built in held)
        assert not hasattr(datagen._Reader(None), "contexts")

    def test_equal_records_share_only_when_adjacent(self, tmp_path):
        context = ["(or u.y v.z)"]
        records = [{**GOOD, "id": name, "context_semantics": context} for name in ("a", "b", "c")]
        records[1] = {**BAD_BASE, "context_semantics": ["(not u.y)"]}
        path = tmp_path / "sets.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in records + [{**records[2], "id": "d"}]))
        sets = load_jsonl(path)
        parses = [vars(s)["_context_semantics_source"] for s in sets]     # each set's deferred context parse
        a, b, c, d = sets
        assert [datagen.set_to_json(s) for s in (a, b, c)] == records
        assert c.statements == a.statements and c.statements[0] is not a.statements[0] and parses[2] is not parses[0]
        assert d.statements[0] is c.statements[0] and parses[3] is parses[2]

    def test_a_set_has_the_namespaces_of_its_statements_and_its_context(self, tmp_path):
        context = ["(or u.y v.z)"]      # namespaces the statements (w.x) do not name
        path = tmp_path / "sets.jsonl"
        path.write_text("".join(json.dumps({**GOOD, "id": name, "context_semantics": context}) + "\n"
                                for name in ("a", "c")))
        a, c = load_jsonl(path)
        assert a.namespaces() == frozenset({"u", "v", "w"})
        assert c.namespaces() is a.namespaces()
        assert c.context_semantics == a.context_semantics == (parse_formula(context[0]),)

    def test_gold_indices_are_checked_on_construction(self):
        statements = gen_qa_set(desk_world()).statements
        for gold, label in (((3,), "inconsistent"), ((0, 0), "inconsistent"), ((0,), "consistent")):
            with pytest.raises(ValueError, match="gold"):
                StatementSet(id="x", statements=statements, provenance=label[0].upper(),
                             gold_inconsistent_indices=gold)
        for provenance in ("I", "C"):
            with pytest.raises(ValueError) as excinfo:
                StatementSet(id="x", statements=statements, provenance=provenance, gold_inconsistent_indices=())
            assert str(excinfo.value) == "set 'x': gold indices, when given, name at least one statement"

