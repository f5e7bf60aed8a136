import copy
import dataclasses
import importlib
import inspect
import itertools
import json
import math
import pkgutil
import re
import struct
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import setcoh
from setcoh import cli, datagen, evalkit, model, trainer, verifier
from setcoh.cli import load_corpus, load_threshold, main
from setcoh.datagen import (QA_FLIPS, SPLIT_NAMES, GenerationError, MalformedRecordError, compose_union, pools,
                            save_jsonl, set_to_json)
from setcoh.logic import AtomRef, DataError, Implies, format_formula, parse_formula
from setcoh.model import HEADS, ModelParams, build_vocabulary, encode, load_params, save_params
from setcoh.rules import DIFFICULTIES, RULE_IDS
from setcoh.trainer import Threshold, TrainerConfig
import reference


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def qa_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("qa")
    assert run("gen", "--style", "qa", "--seed", "5", "--counts", "24,10", "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def snli_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("snli")
    assert run("gen", "--style", "snli", "--seed", "5", "--counts", "30,15", "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, qa_dir):
    out = tmp_path_factory.mktemp("model")
    code = run(
        "train", "--data", qa_dir, "--out", out, "--seed", "5",
        "--epochs", "3", "--dim", "16", "--hidden", "12",
        "--pairs-per-epoch", "24", "--val-per-class", "8",
    )
    assert code == 0
    return out


class TestGen:
    def test_writes_data_and_snapshot(self, qa_dir):
        assert (qa_dir / "data.jsonl").exists()
        snapshot = json.loads((qa_dir / "config.snapshot").read_text())
        assert snapshot["command"] == "gen"
        assert snapshot["args"]["seed"] == 5

    def test_identical_seeds_identical_files(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("gen", "--style", "qa", "--seed", "9", "--counts", "6,3", "--out", out) == 0
            outs.append((out / "data.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_corpus_reloads_into_splits(self, qa_dir):
        corpus = load_corpus(qa_dir)
        assert len(corpus.train) == 48
        assert len(corpus.test) == 20

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SETCOH_SEED", "123")
        from setcoh.cli import build_parser
        args = build_parser().parse_args(["gen", "--style", "qa", "--out", str(tmp_path)])
        assert args.seed == 123


@pytest.fixture(scope="module")
def binary_dir(tmp_path_factory, qa_dir):
    out = tmp_path_factory.mktemp("binary")
    code = run(
        "train", "--data", qa_dir, "--out", out, "--seed", "5", "--arch", "binary",
        "--epochs", "2", "--dim", "12", "--hidden", "8",
        "--pairs-per-epoch", "12", "--val-per-class", "6",
    )
    assert code == 0
    return out


class TestLoadCorpus:
    """A load holds each value that repeats across records once, and keeps only the splits it is asked for."""

    def test_a_pair_shares_its_namespaces_and_context_source(self, qa_dir):
        source = vars(datagen.StatementSet)["context_semantics"].source
        for sets in load_corpus(qa_dir).splits().values():
            for c, i in zip(sets[::2], sets[1::2]):
                assert c.id.replace("-qa-c", "-qa-i") == i.id
                assert c.namespaces() is i.namespaces()
                assert getattr(c, source) is getattr(i, source)

    def test_equal_values_are_one_object(self, qa_dir):
        sets = [s for split in load_corpus(qa_dir).splits().values() for s in split]
        values = [value for s in sets for st in s.statements
                  for value in (st.kind, st.text, st.question, st.answer, vars(st).get("_semantics_source"))]
        values += [value for s in sets
                   for value in (s.rule_id, s.difficulty, s.gold_inconsistent_indices, s.namespaces())]
        values = [value for value in values if value is not None]
        assert len({id(value) for value in values}) == len(set(values))

    def test_only_the_splits_asked_for_are_kept(self, qa_dir):
        full, only_test = load_corpus(qa_dir), load_corpus(qa_dir, ("test",))
        assert [set_to_json(s) for s in only_test.test] == [set_to_json(s) for s in full.test]
        assert only_test.train == only_test.validation1 == only_test.validation2 == []

    def test_records_of_other_splits_are_not_built(self, qa_dir, monkeypatch):
        built = {datagen.Statement: 0, datagen.StatementSet: 0}
        for cls in built:
            def counted(self, check=cls.__post_init__, cls=cls):
                built[cls] += 1
                check(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        test = load_corpus(qa_dir, ("test",)).test
        distinct = {json.dumps(entry, sort_keys=True) for s in test for entry in set_to_json(s)["statements"]}
        assert built == {datagen.Statement: len(distinct), datagen.StatementSet: len(test)}
        assert len(test) < sum(1 for line in (qa_dir / "data.jsonl").read_text().splitlines() if line) / 4


class TestTrain:
    def test_outputs(self, model_dir):
        assert (model_dir / "model.bin").exists()
        threshold = load_threshold(model_dir / "threshold.txt")
        assert isinstance(threshold, Threshold)
        log = (model_dir / "train_log.csv").read_text().splitlines()
        assert log[0].startswith("epoch,mean_hinge_loss,val1_macro_acc,threshold,median_C")
        assert len(log) == 4  # header + 3 epochs

    def test_log_cells_are_numbers(self, model_dir):
        rows = (model_dir / "train_log.csv").read_text().splitlines()[1:]
        for row in rows:
            for cell in row.split(","):
                float(cell)  # raises on a cell such as "np.float64(0.9)"

    def test_binary_arch(self, binary_dir):
        assert load_threshold(binary_dir / "threshold.txt").source == "inconsistent-softmax"

    def test_binary_log_names_its_loss(self, model_dir, binary_dir):
        energy, binary = ((out / "train_log.csv").read_text().splitlines() for out in (model_dir, binary_dir))
        assert binary[0] == energy[0].replace("mean_hinge_loss", "mean_cross_entropy_loss")
        assert len(binary) == 3  # header + 2 epochs
        for row in binary[1:]:
            for cell in row.split(","):
                float(cell)  # a degenerate fit's threshold is inf


class TestHeads:
    """``model.HEADS`` is the one table of threshold sources and the scores they apply to."""

    def test_training_records_a_head(self, model_dir, binary_dir):
        sources = [load_threshold(out / "threshold.txt").source for out in (model_dir, binary_dir)]
        assert sources == ["energy", "inconsistent-softmax"]
        assert set(sources) == set(HEADS) == set(verifier.MODEL_SCORERS)

    def test_load_threshold_accepts_exactly_the_heads(self, tmp_path):
        path = tmp_path / "threshold.txt"
        for source in [*HEADS, "softmax", "Energy", "energy ", "", "binary"]:
            path.write_text(f"0.5\nsource={source}\n")
            if source in HEADS:
                assert load_threshold(path).source == source
            else:
                with pytest.raises(MalformedRecordError, match="unknown source"):
                    load_threshold(path)

    def test_resolve_scorer_builds_the_class_of_the_head(self, tmp_path, qa_dir, model_dir):
        params = load_params(model_dir / "model.bin")
        s = load_corpus(qa_dir).test[0]
        keeps = [range(len(s.statements)), (0, 1)]
        path = tmp_path / "threshold.txt"
        for source, head in HEADS.items():
            path.write_text(f"0.25\nsource={source}\n")
            scorer = cli.resolve_scorer(str(model_dir / "model.bin"), str(path))
            assert type(scorer) is verifier.MODEL_SCORERS[source] and scorer.head == source
            assert scorer.threshold == 0.25
            rows = params.vocab.table.rows(s.statements)
            expected = head(params, encode(params, params.vocab.table.subsets(rows, keeps))[1]).tolist()
            assert scorer.compile(s)(keeps) == expected


class TestVerify:
    def test_oracle_set_level_is_perfect(self, tmp_path, qa_dir):
        out = tmp_path / "v"
        code = run(
            "verify", "--data", qa_dir, "--out", out, "--seed", "5",
            "--scorer", "oracle", "--strategy", "set", "--mixture-per-class", "4",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["macro_f1"] == 1.0
        assert (out / "metrics.csv").read_text().splitlines()[0] == "class,precision,recall,f1,support"

    def test_oracle_elementwise_misses_collective_inconsistencies(self, tmp_path, snli_dir):
        out = tmp_path / "ew"
        code = run(
            "verify", "--data", snli_dir, "--out", out, "--seed", "5",
            "--scorer", "oracle", "--strategy", "elementwise", "--mtr", "0",
            "--mixture-per-class", "10",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["macro_f1"] < 1.0

    def test_model_scorer_and_external_round_trip(self, tmp_path, qa_dir, model_dir):
        # The dump holds every row the strategy reads: the sets, or their pairs.
        for strategy in ("set", "elementwise"):
            out1 = tmp_path / f"m-{strategy}"
            code = run(
                "verify", "--data", qa_dir, "--out", out1, "--seed", "5", "--strategy", strategy,
                "--scorer", model_dir / "model.bin", "--mixture-per-class", "3",
                "--dump-scores",
            )
            assert code == 0
            out2 = tmp_path / f"x-{strategy}"
            code = run(
                "verify", "--data", qa_dir, "--out", out2, "--seed", "5", "--strategy", strategy,
                "--scorer", f"external:{out1 / 'scores.csv'}", "--mixture-per-class", "3",
            )
            assert code == 0
            s1 = json.loads((out1 / "summary.json").read_text())
            s2 = json.loads((out2 / "summary.json").read_text())
            assert s1["macro_f1"] == s2["macro_f1"]
            ids = [line.split(",")[0] for line in (out1 / "scores.csv").read_text().splitlines()[1:]]
            assert all(("#" in set_id) == (strategy == "elementwise") for set_id in ids)


    @pytest.mark.parametrize("strategy", ["set", "elementwise"])
    @pytest.mark.parametrize("scorer", ["model", "oracle"])
    def test_dump_scores_reuses_the_verdicts_scores(self, tmp_path, qa_dir, model_dir, monkeypatch,
                                                    strategy, scorer):
        # One compile per mixture set, and the dump holds what a fresh compile of each set scores.
        spec = model_dir / "model.bin" if scorer == "model" else "oracle"
        cls = type(cli.resolve_scorer(str(spec), None))
        compiled = []
        original = cls.compile
        monkeypatch.setattr(cls, "compile", lambda self, s: compiled.append(s.id) or original(self, s))
        out = tmp_path / "o"
        assert run("verify", "--data", qa_dir, "--out", out, "--seed", "5", "--strategy", strategy,
                   "--scorer", spec, "--mixture-per-class", "3", "--dump-scores") == 0
        mixture = evalkit.build_eval_mixture(*datagen.pools(load_corpus(qa_dir).test), 3, rng_seed=5).sets
        assert sorted(compiled) == sorted(s.id for s in mixture)
        monkeypatch.setattr(cls, "compile", original)
        reference = cli.resolve_scorer(str(spec), None)
        lines = [f"threshold={reference.threshold!r}"]
        for s in mixture:
            n = len(s)
            keeps = [range(n)] if strategy == "set" else list(itertools.combinations(range(n), 2))
            lines += [f"{verifier.subset_id(s, keep)},{value!r}"
                      for keep, value in zip(keeps, reference.compile(s)(keeps))]
        assert (out / "scores.csv").read_text() == "\n".join(lines) + "\n"


class TestLocate:
    def test_oracle_locate_perfect(self, tmp_path, qa_dir):
        out = tmp_path / "loc"
        code = run(
            "locate", "--data", qa_dir, "--out", out, "--seed", "5",
            "--scorer", "oracle", "--mixture-per-class", "3",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["em"] == 1.0
        assert summary["f1"] == 1.0

    def test_missing_gold_is_a_data_error(self, tmp_path, snli_dir):
        out = tmp_path / "locsnli"
        code = run(
            "locate", "--data", snli_dir, "--out", out, "--seed", "5",
            "--scorer", "oracle", "--mixture-per-class", "2", "--min-size", "2",
        )
        assert code == 3

    def test_empty_partner_pool_exit_3(self, tmp_path, qa_dir, capsys):
        # A test split without inconsistent base sets cannot compose a CI union.
        corpus = load_corpus(qa_dir)
        data = tmp_path / "no-i"
        data.mkdir()
        consistent = [s for s in corpus.test if s.label == "consistent"]
        save_jsonl(corpus.train + corpus.validation1 + corpus.validation2 + consistent, data / "data.jsonl")
        code = run("locate", "--data", data, "--out", tmp_path / "o", "--seed", "5",
                   "--scorer", "oracle", "--classes", "CI", "--mixture-per-class", "2")
        assert code == 3
        assert "class 'CI' needs 'I' base sets, and the 'I' pool is empty" in capsys.readouterr().err

    def test_inconsistent_sets_without_gold_exit_3_before_any_locate(self, tmp_path, snli_dir, monkeypatch, capsys):
        # Sentence sets carry no gold indices: a class with an I part cannot be scored, a C-only one can.
        monkeypatch.setattr(verifier, "locate", lambda *args: pytest.fail("locate ran"))
        code = run("locate", "--data", snli_dir, "--out", tmp_path / "o", "--seed", "5", "--scorer", "oracle",
                   "--mixture-per-class", "3", "--min-size", "2")
        assert code == 3
        first = next(s.id for s in datagen.pools(load_corpus(snli_dir).test)[1])
        assert capsys.readouterr().err == (f"error: {snli_dir / 'data.jsonl'}: set {first!r} has no "
                                           "gold_inconsistent_indices for locate to score against\n")
        monkeypatch.undo()
        assert run("locate", "--data", snli_dir, "--out", tmp_path / "c", "--seed", "5", "--scorer", "oracle",
                   "--classes", "C,CC", "--mixture-per-class", "3", "--min-size", "2") == 0

    def test_too_small_partner_pool_names_what_ran_out(self, tmp_path, capsys):
        # A test split of two C sets cannot give a CCC union three namespace-disjoint parts.
        data = tmp_path / "data"
        assert run("gen", "--style", "qa", "--seed", "11", "--counts", "3,2", "--out", data) == 0
        assert run("locate", "--data", data, "--out", tmp_path / "o", "--scorer", "oracle") == 3
        assert ("error: class 'CCC': no namespace-disjoint partner for set 'test-qa-c000000' "
                "in the C pool of size 2 after 200 draws") in capsys.readouterr().err


class TestSweepAndAblate:
    def test_sweep(self, tmp_path, qa_dir):
        out = tmp_path / "sw"
        code = run(
            "sweep", "--data", qa_dir, "--out", out, "--seed", "5",
            "--scorer", "oracle", "--mtr-grid", "0,0.5", "--mixture-per-class", "2",
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mtr,size_bucket,macro_f1,count"
        assert len(lines) == 1 + 2 * 5  # 2 grid points x (4 buckets + all)

    @pytest.mark.parametrize("grid", ["1.5,-1", "nan"])
    def test_mtr_grid_outside_0_1_exit_2(self, tmp_path, qa_dir, grid, capsys):
        out = tmp_path / "sw"
        code = run("sweep", "--data", qa_dir, "--out", out, "--seed", "5",
                   "--scorer", "oracle", "--mtr-grid", grid, "--mixture-per-class", "2")
        assert code == 2
        bad = grid.split(",")[0]
        assert capsys.readouterr().err == f"error: --mtr-grid must be comma-separated numbers in [0, 1], got {bad!r}\n"
        assert not (out / cli.SNAPSHOT_FILE).exists()

    def test_ablate(self, tmp_path, qa_dir):
        out = tmp_path / "ab"
        code = run(
            "ablate", "--data", qa_dir, "--out", out, "--seed", "5",
            "--regimes", "basic,eight", "--epochs", "2", "--dim", "12", "--hidden", "8",
            "--pairs-per-epoch", "8", "--val-per-class", "4", "--mixture-per-class", "2",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"basic", "eight"}
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "regime,provenance,q1,median,q3,count,macro_f1"


class TestExitCodes:
    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--style", "nope", "--out", "/tmp/x"])
        assert excinfo.value.code == 2

    def test_missing_data_dir_exit_3(self, tmp_path):
        code = run("verify", "--data", tmp_path / "absent", "--out", tmp_path / "o",
                   "--scorer", "oracle")
        assert code == 3

    def test_bad_mtr_value_exit_2(self, tmp_path, qa_dir):
        code = run("verify", "--data", qa_dir, "--out", tmp_path / "o",
                   "--scorer", "oracle", "--strategy", "elementwise", "--mtr", "1.5",
                   "--mixture-per-class", "2")
        assert code == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--epochs", "0"),
        ("train", "--epochs", "-1"),
        ("train", "--batch-size", "0"),
        ("train", "--pairs-per-epoch", "0"),
        ("train", "--val-per-class", "0"),
        ("ablate", "--epochs", "0"),
        ("ablate", "--pairs-per-epoch", "0"),
        ("ablate", "--val-per-class", "-2"),
    ])
    def test_training_setting_below_1_exit_2(self, tmp_path, qa_dir, command, flag, value, capsys):
        out = tmp_path / "o"
        assert run(command, "--data", qa_dir, "--out", out, flag, value) == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, field, value", [
        ("--lr", "learning_rate", "nan"),
        ("--lr", "learning_rate", "inf"),
        ("--alpha", "alpha", "nan"),
        ("--alpha", "alpha", "-inf"),
    ])
    def test_non_finite_rate_exit_2(self, tmp_path, qa_dir, flag, field, value, capsys):
        out = tmp_path / "o"
        assert run("train", "--data", qa_dir, "--out", out, f"{flag}={value}") == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be a positive finite number, got {value}\n"
        assert not err.startswith(f"error: {field} ")       # the flag, not TrainerConfig's field
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--dim", "0"),
        ("train", "--hidden", "0"),
        ("train", "--dim", "-3"),
        ("ablate", "--hidden", "0"),
    ])
    def test_width_below_1_exit_2(self, tmp_path, qa_dir, command, flag, value, capsys):
        out = tmp_path / "o"
        assert run(command, "--data", qa_dir, "--out", out, flag, value) == 2
        assert f"error: {flag} must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "locate", "sweep", "ablate"])
    def test_mixture_per_class_below_1_names_the_flag(self, tmp_path, qa_dir, command, capsys):
        out = tmp_path / "o"
        scorer = () if command == "ablate" else ("--scorer", "oracle")
        assert run(command, "--data", qa_dir, "--out", out, *scorer, "--mixture-per-class", "0") == 2
        assert capsys.readouterr().err == "error: --mixture-per-class must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("regimes", ["basic,bogus", "bogus", "basic,,eight"])
    def test_unknown_regime_names_the_flag_before_training(self, tmp_path, qa_dir, regimes, capsys):
        out = tmp_path / "o"
        assert run("ablate", "--data", qa_dir, "--out", out, "--regimes", regimes, "--epochs", "200") == 2
        bad = next(name for name in regimes.split(",") if name not in trainer.REGIMES)
        assert capsys.readouterr().err == f"error: --regimes must name regimes from basic, eight, six, got {bad!r}\n"
        assert not (out / cli.SNAPSHOT_FILE).exists()

    @pytest.mark.parametrize("strategy", ["set", "elementwise"])
    @pytest.mark.parametrize("mtr", ["5", "-0.1", "nan"])
    def test_mtr_outside_0_1_names_the_flag_before_writing(self, tmp_path, qa_dir, strategy, mtr, capsys):
        out = tmp_path / "o"
        assert run("verify", "--data", qa_dir, "--out", out, "--scorer", "oracle", "--strategy", strategy,
                   "--mtr", mtr, "--mixture-per-class", "2") == 2
        assert capsys.readouterr().err == f"error: --mtr must be in [0, 1], got {float(mtr)}\n"
        assert not (out / cli.SNAPSHOT_FILE).exists()

    @pytest.mark.parametrize("grid, bad", [("1.5", "1.5"), ("abc", "abc"), ("0,0.5,2", "2"), ("0,", "")])
    def test_bad_mtr_grid_names_the_flag_before_writing(self, tmp_path, qa_dir, grid, bad, capsys):
        out = tmp_path / "o"
        assert run("sweep", "--data", qa_dir, "--out", out, "--scorer", "oracle", "--mtr-grid", grid,
                   "--mixture-per-class", "2") == 2
        assert capsys.readouterr().err == f"error: --mtr-grid must be comma-separated numbers in [0, 1], got {bad!r}\n"
        assert not (out / cli.SNAPSHOT_FILE).exists()

    @pytest.mark.parametrize("classes, bad", [("bogus", "bogus"), ("C,CI,X", "X"), ("", "")])
    def test_unknown_class_names_the_flag_before_writing(self, tmp_path, qa_dir, classes, bad, capsys):
        out = tmp_path / "o"
        assert run("locate", "--data", qa_dir, "--out", out, "--scorer", "oracle", "--classes", classes,
                   "--mixture-per-class", "2") == 2
        assert capsys.readouterr().err == ("error: --classes must name classes from "
                                           f"{', '.join(datagen.PROVENANCE_CLASSES)}, got {bad!r}\n")
        assert not (out / cli.SNAPSHOT_FILE).exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("locate", "--classes", "CI,CI", "--classes must not repeat an entry, got 'CI' again"),
        ("ablate", "--regimes", "basic,six,basic", "--regimes must not repeat an entry, got 'basic' again"),
        ("sweep", "--mtr-grid", "0.1,0.1", "--mtr-grid must not repeat an entry, got '0.1' again"),
        ("sweep", "--mtr-grid", "0,0.1,0.10", "--mtr-grid must not repeat an entry, got '0.10' again"),
        ("locate", "--min-size", "-3", "--min-size must be >= 0, got -3"),
    ], ids=["classes", "regimes", "mtr-grid", "mtr-grid-equal-value", "min-size"])
    def test_repeated_entry_or_negative_size_exit_2(self, tmp_path, qa_dir, command, flag, value, message, capsys):
        out = tmp_path / "o"
        scorer = () if command == "ablate" else ("--scorer", "oracle")
        assert run(command, "--data", qa_dir, "--out", out, *scorer, flag, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("counts", ["5", "a,b", "1,2,3"])
    def test_malformed_counts_exit_2(self, tmp_path, counts, capsys):
        out = tmp_path / "g"
        assert run("gen", "--style", "qa", "--counts", counts, "--out", out) == 2
        err = capsys.readouterr().err
        assert "--counts" in err and "TRAIN,EVAL" in err and repr(counts) in err
        assert not out.exists()

    def test_too_small_threshold_pool_names_what_ran_out(self, tmp_path, capsys):
        # validation1 holds one C set, which cannot be its own CC partner.
        data = tmp_path / "data"
        assert run("gen", "--style", "qa", "--seed", "11", "--counts", "5,1", "--out", data) == 0
        assert run("train", "--data", data, "--out", tmp_path / "m", "--epochs", "1") == 3
        assert ("error: class 'CC': no namespace-disjoint partner for set 'validation1-qa-c000000' "
                "in the C pool of size 1 after 200 draws") in capsys.readouterr().err

    def test_duplicate_set_id_exit_3(self, tmp_path, qa_dir, capsys):
        lines = (qa_dir / "data.jsonl").read_text().splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[1])
        second["id"] = first["id"]
        lines[1] = json.dumps(second)
        data = tmp_path / "dup"
        data.mkdir()
        (data / "data.jsonl").write_text("\n".join(lines) + "\n")
        code = run("train", "--data", data, "--out", tmp_path / "o", "--epochs", "1")
        assert code == 3
        err = capsys.readouterr().err
        assert f"{data / 'data.jsonl'}:2:" in err
        assert f"duplicate set id {first['id']!r} (first on line 1)" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:1] + [lines[1].replace('"id": "train-', '"id": "holdout-', 1)] + lines[2:],
         ":2: set id 'holdout-qa-i000000' does not start with a split name (train/validation1/validation2/test)"),
        (lambda lines: [line for line in lines if '"id": "test-' not in line], ": split 'test' is empty"),
    ], ids=["no-split-prefix", "empty-split"])
    def test_split_errors_name_the_file(self, tmp_path, qa_dir, edit, message, capsys):
        data = tmp_path / "split"
        data.mkdir()
        (data / "data.jsonl").write_text("\n".join(edit((qa_dir / "data.jsonl").read_text().splitlines())) + "\n")
        assert run("verify", "--data", data, "--out", tmp_path / "o", "--scorer", "oracle") == 3
        assert capsys.readouterr().err == f"error: {data / 'data.jsonl'}{message}\n"

    @pytest.mark.parametrize("label", ["consistent", "inconsistent"])
    @pytest.mark.parametrize("argv, split", [
        (["train"], "train"), (["train", "--arch", "binary"], "train"), (["ablate"], "train"),
        (["train"], "validation1"), (["train", "--arch", "binary"], "validation1"), (["ablate"], "validation1"),
        (["ablate"], "validation2"), (["ablate"], "test"),
    ], ids=["train-train", "binary-train", "ablate-train", "train-validation1", "binary-validation1",
            "ablate-validation1", "ablate-validation2", "ablate-test"])
    def test_a_drawn_split_without_a_label_exit_3_before_training(self, tmp_path, qa_dir, monkeypatch, argv, split,
                                                                  label, capsys):
        monkeypatch.setattr(trainer, "_fit", lambda *a, **k: pytest.fail("training started"))
        lines = [line for line in (qa_dir / "data.jsonl").read_text().splitlines()
                 if not (json.loads(line)["id"].startswith(f"{split}-") and json.loads(line)["label"] == label)]
        data = tmp_path / "data"
        data.mkdir()
        (data / "data.jsonl").write_text("\n".join(lines) + "\n")
        assert run(*argv, "--data", data, "--out", tmp_path / "o", "--epochs", "1") == 3
        assert capsys.readouterr().err == f"error: {data / 'data.jsonl'}: split {split!r} has no {label} sets\n"

    def test_divergence_exit_4_with_one_line(self, tmp_path, qa_dir, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # a numpy warning would print before the error line
            assert run("train", "--data", qa_dir, "--out", tmp_path / "o", "--alpha", "1e308") == 4
        assert capsys.readouterr().err == "error: non-finite loss at epoch 0, step 0\n"

    @pytest.mark.parametrize("split", ["train", "validation1", "validation2", "test"])
    def test_union_in_a_base_split_exit_3(self, tmp_path, qa_dir, split, capsys):
        corpus = load_corpus(qa_dir)
        sets = corpus.splits()[split]
        union = compose_union(pools(sets)[0][:2], set_id=f"{split}-union-0")
        sets.insert(0, union)
        data = tmp_path / "union"
        data.mkdir()
        ordered = corpus.train + corpus.validation1 + corpus.validation2 + corpus.test
        save_jsonl(ordered, data / "data.jsonl")
        if split in ("train", "validation1"):
            commands = [("train", "--arch", arch, "--regime", "basic", "--epochs", "1")
                        for arch in ("energy", "binary")]
        else:   # verify keeps only the test split, and still refuses a union in validation2
            commands = [("verify", "--scorer", "oracle", "--mixture-per-class", "2")]
        for command, *flags in commands:
            assert run(command, "--data", data, "--out", tmp_path / "o", *flags) == 3
            assert capsys.readouterr().err == (
                f"error: {data / 'data.jsonl'}:{ordered.index(union) + 1}: set '{split}-union-0' has provenance "
                "'CC'; unions are composed from base sets (C or I) only\n")

    @pytest.mark.parametrize("command", ["verify", "locate"])
    def test_component_over_the_atom_bound_exit_3(self, tmp_path, qa_dir, command, capsys):
        # Each test set gains a 25-implication chain in its own namespace: one 26-atom component.
        corpus = load_corpus(qa_dir)
        test = []
        for s in corpus.test:
            ns = next(iter(s.namespaces()))
            chain = tuple(Implies(AtomRef(f"{ns}.c{i}"), AtomRef(f"{ns}.c{i + 1}")) for i in range(25))
            test.append(dataclasses.replace(s, context_semantics=s.context_semantics + chain))
        data = tmp_path / "chains"
        data.mkdir()
        save_jsonl(corpus.train + corpus.validation1 + corpus.validation2 + test, data / "data.jsonl")
        code = run(command, "--data", data, "--out", tmp_path / "o", "--scorer", "oracle",
                   "--mixture-per-class", "2")
        assert code == 3
        assert re.search(r"set '[^']+': 26 atoms in one connected component", capsys.readouterr().err)

    @pytest.mark.parametrize("content", [b"", b"abc\nsource=energy\n", b"0.5\nepoch=x\n", b"0.5\nsource=softmax\n",
                                         b"nan\n", b"\xff\n", b"inf\n", b"-inf\n",
                                         b"0.5\nsource=energy\nsource=energy\n"])
    def test_malformed_threshold_file_exit_3(self, tmp_path, qa_dir, model_dir, content, capsys):
        bad = tmp_path / "threshold.txt"
        bad.write_bytes(content)
        code = run("verify", "--data", qa_dir, "--out", tmp_path / "o", "--scorer", model_dir / "model.bin",
                   "--threshold-file", bad, "--mixture-per-class", "2")
        assert code == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (b"-inf\nsource=energy\n", ":1: threshold '-inf' is not finite"),
        (b"0.5\nsource=energy\nepoch=1\nsource=energy\n", ":4: 'source' repeats line 2"),
        (b"0.5\ngarbage line\nsorce=binary\n", ":2: line 'garbage line' is not one of source=, epoch=, degenerate="),
        (b"0.5\nsource=energy\nsorce=binary\n", ":3: line 'sorce=binary' is not one of source=, epoch=, degenerate="),
        (b"0.5\nsource=energy\n\n", ":3: line '' is not one of source=, epoch=, degenerate="),
        (b"0.5\nepoch=3\ndegenerate=yes\n", ":3: degenerate 'yes' is not True or False"),
        (b"inf\ndegenerate=true\n", ":2: degenerate 'true' is not True or False"),
    ])
    def test_threshold_file_errors_name_the_line(self, tmp_path, qa_dir, model_dir, content, message, capsys):
        bad = tmp_path / "threshold.txt"
        bad.write_bytes(content)
        code = run("verify", "--data", qa_dir, "--out", tmp_path / "o", "--scorer", model_dir / "model.bin",
                   "--threshold-file", bad, "--mixture-per-class", "2")
        assert code == 3
        assert capsys.readouterr().err == f"error: {bad}{message}\n"

    @pytest.mark.parametrize("threshold", [
        Threshold(0.25), Threshold(-1.5, 7, "inconsistent-softmax"), Threshold(math.inf, 0, "energy", True),
        Threshold(-math.inf, 3, "inconsistent-softmax", True), Threshold(0.0, 2, "energy", True),
    ])
    def test_every_saved_threshold_loads(self, tmp_path, threshold):
        cli._save_threshold(tmp_path, threshold)
        assert load_threshold(tmp_path / cli.THRESHOLD_FILE) == threshold

    def test_a_degenerate_infinite_threshold_loads(self, tmp_path, qa_dir, model_dir):
        # The form training writes when no finite threshold fits best.
        degenerate = tmp_path / "threshold.txt"
        degenerate.write_text("inf\nsource=energy\nepoch=0\ndegenerate=True\n")
        code = run("verify", "--data", qa_dir, "--out", tmp_path / "o", "--scorer", model_dir / "model.bin",
                   "--threshold-file", degenerate, "--mixture-per-class", "2")
        assert code == 0

    # Bytes 4-27 hold the header (embedding width at 8-11), 28-59 the vocabulary hash; token 0 starts
    # at 64, and the arrays, emb first, fill the end.
    @pytest.mark.parametrize("corrupt", [
        lambda data, emb: data[:-7],
        lambda data, emb: b"NOPE" + data[4:],
        lambda data, emb: data[:28] + bytes([data[28] ^ 0xFF]) + data[29:],
        lambda data, emb: data + b"junk",
        lambda data, emb: data[:emb] + struct.pack("<d", math.nan) + data[emb + 8:],
        lambda data, emb: data[:64] + b"\xff" + data[65:],
        lambda data, emb: data[:8] + struct.pack("<I", 2**31 - 1) + data[12:],
        lambda data, emb: data[:4] + struct.pack("<I", 2) + data[8:],
    ], ids=["truncated", "bad-magic", "hash-mismatch", "trailing-bytes", "nan-entry", "token-not-utf8",
            "huge-width", "format-version-2"])
    def test_corrupt_model_file_exit_3(self, tmp_path, qa_dir, model_dir, corrupt, capsys):
        data = (model_dir / "model.bin").read_bytes()
        floats = sum(arr.size for arr in load_params(model_dir / "model.bin").arrays().values())
        bad = tmp_path / "model.bin"
        bad.write_bytes(corrupt(data, emb=len(data) - 8 * floats))
        code = run("verify", "--data", qa_dir, "--out", tmp_path / "o", "--scorer", bad,
                   "--threshold-file", model_dir / "threshold.txt", "--mixture-per-class", "2")
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

    @pytest.mark.parametrize("listing, reason", [
        ((), "vocabulary listing does not start with '<cls>', '<unk>'"),
        (("<cls>",), "vocabulary listing does not start with '<cls>', '<unk>'"),
        (("<unk>", "<cls>", "a"), "vocabulary listing does not start with '<cls>', '<unk>'"),
        (("<cls>", "<unk>", "a", "a"), "vocabulary token 'a' is listed at 2 and 3"),
    ], ids=["empty", "no-unk", "swapped", "repeated"])
    def test_a_vocabulary_the_model_cannot_use_exit_3(self, tmp_path, qa_dir, model_dir, listing, reason, capsys):
        # Each file is well formed: save_params writes the listing and its hash as given.
        path = tmp_path / "model.bin"
        vocab = model.Vocabulary(tokens=listing, index={t: i for i, t in enumerate(listing)})
        save_params(ModelParams.init(vocab, d=4, h=3), path)
        code = run("verify", "--data", qa_dir, "--out", tmp_path / "o", "--scorer", path,
                   "--threshold-file", model_dir / "threshold.txt", "--mixture-per-class", "2")
        assert (code, capsys.readouterr().err) == (3, f"error: {path}: {reason}\n")

    @pytest.mark.parametrize("flag", ["--data", "--out"])
    def test_a_path_under_a_regular_file_exit_3(self, tmp_path, qa_dir, flag, capsys):
        # --data names the corpus file itself; --out a directory inside it.
        paths = {"--data": qa_dir, "--out": tmp_path / "o"}
        paths[flag] = qa_dir / "data.jsonl" if flag == "--data" else qa_dir / "data.jsonl" / "x"
        code = run("verify", "--data", paths["--data"], "--out", paths["--out"], "--scorer", "oracle",
                   "--mixture-per-class", "2")
        err = capsys.readouterr().err
        assert code == 3
        assert str(qa_dir / "data.jsonl") in err and "Traceback" not in err

    @pytest.mark.parametrize("content, line", [
        (b"threshold=abc\nid1,0.9\n", 1),
        (b"threshold=0.5\nid1,0.9\n\xff\xfe,0.1\n", 3),
        (b"threshold=0.5\nid1,0.9\nid2,nan\n", 3),
        (b"threshold=inf\nid1,0.9\n", 1),
        (b"threshold=0.5\nid1,0.9\nid2,0.1\nid1,0.2\n", 4),
        (b"threshold=0.5\nid1,0.9\nid2 0.1\n", 3),
    ], ids=["threshold-not-a-number", "not-utf8", "nan-score", "inf-threshold", "repeated-id", "row-without-comma"])
    def test_malformed_score_file_exit_3(self, tmp_path, qa_dir, content, line, capsys):
        bad = tmp_path / "scores.csv"
        bad.write_bytes(content)
        code = run("verify", "--data", qa_dir, "--out", tmp_path / "o", "--scorer", f"external:{bad}",
                   "--mixture-per-class", "2")
        assert code == 3
        assert f"{bad}:{line}:" in capsys.readouterr().err

    def test_missing_score_id_exit_3(self, tmp_path, qa_dir, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("threshold=0.5\nnot-a-set,0.1\n")
        code = run("verify", "--data", qa_dir, "--out", tmp_path / "o", "--scorer", f"external:{scores}",
                   "--mixture-per-class", "2")
        assert code == 3
        err = capsys.readouterr().err
        missing = re.fullmatch(rf"error: {re.escape(str(scores))}: no score for set id '([^']+)'\n", err)
        assert missing and missing.group(1) in {s.id for s in load_corpus(qa_dir).test}

    @pytest.mark.parametrize("flags, message", [
        (["--counts", "0,1"], "--counts must be >= 1, got '0,1'"),
        (["--counts", "2,0"], "--counts must be >= 1, got '2,0'"),
        (["--qa-flips", "no-to-yes,no-to-yes"], "--qa-flips must not repeat an entry, got 'no-to-yes' again"),
        (["--qa-flips", "bogus"], "--qa-flips must name qa flips from no-to-yes, yes-to-no, open-replace, got 'bogus'"),
    ], ids=["train-count-0", "eval-count-0", "flip-repeated", "flip-unknown"])
    def test_bad_gen_flag_exit_2_naming_it_before_writing(self, tmp_path, flags, message, capsys):
        out = tmp_path / "g"
        assert run("gen", "--style", "qa", *flags, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["corpus", "threshold", "scores"])
    def test_text_that_is_not_utf8_is_reported_one_way(self, tmp_path, qa_dir, model_dir, reader, capsys):
        # Each file's line 2 holds a byte that no UTF-8 text starts with.
        data, scorer = qa_dir, ["--scorer", "oracle"]
        if reader == "corpus":
            lines = (qa_dir / "data.jsonl").read_bytes().splitlines(keepends=True)
            data = tmp_path / "bad"
            data.mkdir()
            bad = data / "data.jsonl"
            bad.write_bytes(b"".join([lines[0], lines[1].replace(b"what", b"wh\xffat", 1), *lines[2:]]))
        elif reader == "threshold":
            bad = tmp_path / "threshold.txt"
            bad.write_bytes(b"0.5\rsource=\xffenergy\n")          # a carriage return ends line 1 too
            scorer = ["--scorer", model_dir / "model.bin", "--threshold-file", bad]
        else:
            bad = tmp_path / "scores.csv"
            bad.write_bytes(b"threshold=0.5\n\xff\xfe,0.1\n")
            scorer = ["--scorer", f"external:{bad}"]
        code = run("verify", "--data", data, "--out", tmp_path / "o", *scorer, "--mixture-per-class", "2")
        assert code == 3
        assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("content", ["0.5\x0csource=energy", "0.5\u2028epoch=3"],
                             ids=["form-feed", "line-separator"])
    def test_only_lf_crlf_or_cr_end_a_threshold_line(self, tmp_path, qa_dir, model_dir, content, capsys):
        bad = tmp_path / "threshold.txt"
        bad.write_bytes(content.encode("utf-8") + b"\n")
        code = run("verify", "--data", qa_dir, "--out", tmp_path / "o", "--scorer", model_dir / "model.bin",
                   "--threshold-file", bad, "--mixture-per-class", "2")
        assert code == 3
        assert capsys.readouterr().err == f"error: {bad}:1: threshold {content!r} is not a number\n"

    def test_unknown_qa_flip_exit_2(self, tmp_path, capsys):
        out = tmp_path / "g"
        code = run("gen", "--style", "qa", "--counts", "2,1", "--qa-flips", "no-to-yes,bogus", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and all(name in err for name in QA_FLIPS)
        assert not out.exists()

    def test_generation_error_exit_3(self, tmp_path, monkeypatch, capsys):
        def uncertifiable(config, seed):
            raise GenerationError("set 'train-qa-c000000': no certified flip under modes ('yes-to-no',)")

        monkeypatch.setattr(cli, "build_splits", uncertifiable)
        code = run("gen", "--style", "qa", "--counts", "2,1", "--qa-flips", "yes-to-no", "--out", tmp_path / "g")
        assert code == 3
        assert "no certified flip" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, value", [
        (["gen", "--style", "qa"], "-1"),
        (["gen", "--style", "snli"], "-1"),
        (["train"], "-1"),
        (["ablate"], "-1"),
        (["verify", "--scorer", "oracle"], "-3"),
    ])
    def test_negative_seed_exit_2_before_writing(self, tmp_path, qa_dir, argv, value, capsys):
        out = tmp_path / "o"
        data = [] if argv[0] == "gen" else ["--data", qa_dir]
        with pytest.raises(SystemExit) as excinfo:
            run(*argv, *data, "--out", out, "--seed", value)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --seed: must be an integer >= 0, got {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("env", [False, True], ids=["flag", "variable"])
    @pytest.mark.parametrize("argv", [["gen", "--style", "qa"], ["train"], ["verify", "--scorer", "oracle"],
                                      ["locate", "--scorer", "oracle"], ["sweep", "--scorer", "oracle"], ["ablate"]])
    def test_a_seed_beyond_64_bits_exit_2_before_writing(self, tmp_path, qa_dir, monkeypatch, argv, env, capsys):
        value, out = str(2**64), tmp_path / "o"
        data = [] if argv[0] == "gen" else ["--data", qa_dir]
        if env:
            monkeypatch.setenv("SETCOH_SEED", value)
        with pytest.raises(SystemExit) as excinfo:
            run(*argv, *data, "--out", out, *([] if env else ["--seed", value]))
        assert excinfo.value.code == 2
        source = "SETCOH_SEED " if env else ""
        assert capsys.readouterr().err.endswith(
            f"error: argument --seed: {source}must be an integer <= 18446744073709551615, got '{value}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("env", [False, True], ids=["flag", "variable"])
    @pytest.mark.parametrize("value, bound", [
        ("1" * 5000, "<= 18446744073709551615"),
        (" +" + "0" * 5000 + "2" * 20 + "\t", "<= 18446744073709551615"),
        ("-" + "1" * 5000, ">= 0"),
        ("1" * 5000 + "x", ">= 0"),
    ], ids=["long", "long-with-leading-zeros", "long-negative", "long-not-an-integer"])
    def test_a_seed_of_more_digits_than_int_reads_names_its_bound(self, tmp_path, monkeypatch, value, bound, env,
                                                                    capsys):
        # int() refuses base-10 text of more than 4,300 digits, whatever its value.
        out = tmp_path / "o"
        if env:
            monkeypatch.setenv("SETCOH_SEED", value)
        with pytest.raises(SystemExit) as excinfo:
            run("gen", "--style", "qa", "--out", out, *([] if env else ["--seed", value]))
        assert excinfo.value.code == 2
        source = "SETCOH_SEED " if env else ""
        assert capsys.readouterr().err.endswith(f"error: argument --seed: {source}must be an integer {bound}, "
                                                f"got {value!r}\n")
        assert not out.exists()

    def test_the_largest_seed_is_accepted(self, tmp_path):
        args = cli.build_parser().parse_args(["gen", "--style", "qa", "--out", str(tmp_path), "--seed", str(2**64 - 1)])
        assert args.seed == 2**64 - 1
        # Past int()'s digit limit by leading zeros alone, and read exactly.
        args = cli.build_parser().parse_args(["gen", "--style", "qa", "--out", str(tmp_path), "--seed",
                                              "0" * 5000 + str(2**64 - 1)])
        assert args.seed == 2**64 - 1

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
    @pytest.mark.parametrize("argv", [["gen", "--style", "qa"], ["train"], ["verify", "--scorer", "oracle"],
                                      ["locate", "--scorer", "oracle"], ["sweep", "--scorer", "oracle"], ["ablate"]])
    def test_bad_setcoh_seed_exit_2_naming_the_variable(self, tmp_path, qa_dir, monkeypatch, argv, value, capsys):
        monkeypatch.setenv("SETCOH_SEED", value)
        out = tmp_path / "o"
        data = [] if argv[0] == "gen" else ["--data", qa_dir]
        with pytest.raises(SystemExit) as excinfo:
            run(*argv, *data, "--out", out)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --seed: SETCOH_SEED must be an integer >= 0, got {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["train", "--help"]])
    def test_bad_setcoh_seed_keeps_help_and_version(self, monkeypatch, argv, capsys):
        monkeypatch.setenv("SETCOH_SEED", "abc")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr().out

    def test_a_seed_flag_overrides_a_bad_setcoh_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SETCOH_SEED", "abc")
        assert run("gen", "--style", "qa", "--seed", "11", "--counts", "3,2", "--out", tmp_path / "g") == 0

    def test_console_script_version(self):
        proc = subprocess.run([sys.executable, "-m", "setcoh.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0


# The errors that outside input does not cause: a programming or generator fault, or divergence (exit 4).
NON_INPUT_ERRORS = {"FormulaSyntaxError", "MissingAssignmentError", "RelationMismatchError", "UnknownRuleError",
                    "NamespaceCollisionError", "TrainingDivergedError"}


def test_every_error_class_chooses_its_exit_code():
    """An error class of setcoh is a DataError (exit 3) or a listed non-input error, never both."""
    modules = [importlib.import_module(f"setcoh.{info.name}") for info in pkgutil.iter_modules(setcoh.__path__)]
    errors = {value for module in modules for value in vars(module).values()
              if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__}
    data = {cls.__name__ for cls in errors if issubclass(cls, DataError)}
    assert {cls.__name__ for cls in errors} - data == NON_INPUT_ERRORS


def test_no_setcoh_module_has_a_function_of_the_tests_reference():
    """What ``tests/reference.py`` defines belongs to the tests: no setcoh module defines or imports it."""
    defined = [name for name, value in vars(reference).items()
               if inspect.isfunction(value) and value.__module__ == reference.__name__]
    modules = [setcoh, *(importlib.import_module(f"setcoh.{info.name}")
                         for info in pkgutil.iter_modules(setcoh.__path__))]
    assert [f"{m.__name__}.{name}" for m in modules for name in defined if hasattr(m, name)] == []


# The per-stream reference layer in setcoh.model: the tests compare the batched paths against it.
REFERENCE_FUNCTIONS = ("forward", "energy_from_counts", "logits_from_counts",
                       "accumulate_grad_energy", "accumulate_grad_logits", "serialize_set")


def test_no_command_calls_the_reference_layer(tmp_path, monkeypatch, small_qa_corpus):
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} is the tests' reference, and production code called it")
        return call

    modules = [importlib.import_module(f"setcoh.{m}") for m in ("datagen", "model", "trainer", "verifier", "evalkit", "cli")]
    for name in REFERENCE_FUNCTIONS:
        original = getattr(model, name)
        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, bound, refuse(f"model.{name}"))
    monkeypatch.setattr(trainer.CountsCache, "counts", refuse("CountsCache.counts"))

    corpus = small_qa_corpus
    params = ModelParams.init(build_vocabulary(corpus.train), d=8, h=6, seed=1)
    trainer.learn_threshold(params, trainer.build_threshold_mixture(corpus.validation1, per_class=4))
    config = TrainerConfig(epochs=1, pairs_per_epoch=4, l2_anchor="start")
    trainer.fine_tune(params, corpus.train, corpus.validation2, n=4, config=config)

    data, energy, binary = tmp_path / "data", tmp_path / "energy" / "model.bin", tmp_path / "binary" / "model.bin"
    assert run("gen", "--style", "qa", "--seed", "3", "--counts", "16,8", "--out", data) == 0
    widths = ("--dim", "8", "--hidden", "6", "--pairs-per-epoch", "8", "--val-per-class", "4")
    for arch, model_file in (("energy", energy), ("binary", binary)):
        assert run("train", "--arch", arch, "--data", data, "--out", model_file.parent, "--epochs", "2", *widths) == 0
    for k, (command, *flags) in enumerate([
        ("verify", "--scorer", energy),
        ("verify", "--scorer", energy, "--strategy", "elementwise"),
        ("verify", "--scorer", binary, "--strategy", "elementwise"),
        ("verify", "--scorer", "oracle"),
        ("locate", "--scorer", energy),
        ("sweep", "--scorer", energy, "--mtr-grid", "0,0.5"),
        ("ablate", "--regimes", "basic,eight", "--epochs", "1", *widths),
    ]):
        assert run(command, "--data", data, "--out", tmp_path / f"{command}-{k}", "--mixture-per-class", "3", *flags) == 0


@pytest.fixture
def parsed(monkeypatch):
    """The formula texts the reader's lazy fields parse, in order."""
    texts = []

    def spy(text):
        texts.append(text)
        return parse_formula(text)

    monkeypatch.setattr(datagen, "parse_formula", spy)
    return texts


class TestLazyParsing:
    @pytest.mark.parametrize("command", [
        ("train", "--epochs", "1", "--pairs-per-epoch", "8", "--val-per-class", "4", "--dim", "8", "--hidden", "8"),
        ("train", "--arch", "binary", "--epochs", "1", "--pairs-per-epoch", "8", "--val-per-class", "4",
         "--dim", "8", "--hidden", "8"),
        ("verify", "--strategy", "set", "--mixture-per-class", "3"),
        ("verify", "--strategy", "elementwise", "--mixture-per-class", "3"),
        ("locate", "--mixture-per-class", "3"),
        ("sweep", "--mixture-per-class", "2", "--mtr-grid", "0,0.5"),
    ], ids=["train-energy", "train-binary", "verify-set", "verify-elementwise", "locate", "sweep"])
    def test_model_commands_parse_no_formula(self, tmp_path, qa_dir, model_dir, parsed, command):
        name, *flags = command
        if name != "train":
            flags += ["--scorer", model_dir / "model.bin"]
        assert run(name, "--data", qa_dir, "--out", tmp_path / "o", "--seed", "5", *flags) == 0
        assert parsed == []

    def test_oracle_verify_parses_only_its_mixture(self, tmp_path, qa_dir, parsed):
        assert run("verify", "--data", qa_dir, "--out", tmp_path / "o", "--seed", "5",
                   "--scorer", "oracle", "--mixture-per-class", "2") == 0
        seen = list(parsed)
        corpus = load_corpus(qa_dir)
        mixture = evalkit.build_eval_mixture(*datagen.pools(corpus.test), 2, rng_seed=5).sets
        assert set(seen) == {format_formula(f) for s in mixture for f in s.all_formulas()}
        assert len(seen) < sum(len(s.all_formulas()) for split in corpus.splits().values() for s in split) / 2

    def test_syntax_error_in_a_train_set_exit_3(self, tmp_path, qa_dir, model_dir, capsys):
        lines = (qa_dir / "data.jsonl").read_text().splitlines()
        record = json.loads(lines[4])
        assert record["id"].startswith("train-")
        record["statements"][1]["semantics"] = "(nand a b)"
        lines[4] = json.dumps(record)
        data = tmp_path / "bad"
        data.mkdir()
        (data / "data.jsonl").write_text("\n".join(lines) + "\n")
        for command, *flags in [("train", "--epochs", "1"),
                                ("verify", "--scorer", model_dir / "model.bin", "--mixture-per-class", "2")]:
            assert run(command, "--data", data, "--out", tmp_path / "o", *flags) == 3
            assert f"error: {data / 'data.jsonl'}:5: unknown connective 'nand'" in capsys.readouterr().err


def _text_input(qa_dir, reader):
    """The lines of a small well-formed file of ``reader``'s kind, and a function reading such a file."""
    if reader == "corpus":
        return ((qa_dir / "data.jsonl").read_bytes().splitlines()[:6],
                lambda path: [datagen.set_to_json(s) for s in datagen.load_jsonl(path)])
    if reader == "threshold":
        return [b"0.5", b"source=energy", b"epoch=3", b"degenerate=False"], load_threshold
    return ([b"threshold=0.5", b"id1,0.9", b" ", b"id2,0.1"],
            lambda path: dataclasses.replace(verifier.external_scorer_from_file(path), path=""))


@pytest.mark.parametrize("reader", ["corpus", "threshold", "scores"])
def test_a_line_ends_at_lf_crlf_or_cr_in_every_text_input(tmp_path, qa_dir, reader):
    lines, read = _text_input(qa_dir, reader)
    results = []
    for k, end in enumerate([b"\n", b"\r\n", b"\r"]):
        path = tmp_path / f"{k}.txt"
        path.write_bytes(end.join(lines) + end)
        results.append(read(path))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("reader", ["corpus", "threshold", "scores"])
def test_a_byte_that_is_not_utf8_is_reported_at_its_line(tmp_path, qa_dir, reader, end):
    lines, read = _text_input(qa_dir, reader)
    lines[2] = b"\xff" + lines[2]
    path = tmp_path / "bad.txt"
    path.write_bytes(end.join(lines) + end)
    with pytest.raises(DataError) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{path}:3: not UTF-8 text (invalid start byte)"


def _setting(key, value):
    return lambda record: json.dumps({**record, key: value})


def _first_statement(**fields):
    return lambda record: json.dumps({**record, "statements": [{**record["statements"][0], **fields},
                                                               *record["statements"][1:]]})


def _without(key):
    return lambda record: json.dumps({k: value for k, value in record.items() if k != key})


# Line 2 of a generated corpus is an inconsistent set with one gold index; line 3 a consistent set.  Both are in
# the train split.
MALFORMED = [
    (2, lambda record: json.dumps(record).encode("utf-8").replace(b"what", b"wh\xffat", 1)),
    (2, lambda record: json.dumps([record])),
    (2, _setting("statements", "is desk pink?")),
    (2, _setting("statements", ["is desk pink?", "no"])),
    (2, _setting("id", 3)),
    (2, _setting("context_semantics", "ab")),
    (2, _setting("context_semantics", [1])),
    (2, _setting("gold_inconsistent_indices", "01")),
    (2, _setting("gold_inconsistent_indices", [True])),
    (2, _setting("gold_inconsistent_indices", [99])),
    (2, lambda record: json.dumps({**record, "gold_inconsistent_indices": record["gold_inconsistent_indices"] * 2})),
    (2, _setting("gold_inconsistent_indices", [])),
    (3, _setting("gold_inconsistent_indices", [0])),
    (3, _setting("gold_inconsistent_indices", [])),
    (3, lambda record: json.dumps({**record, "statements": record["statements"][:1]})),
    (2, _setting("provenance", "X")),
    (2, _setting("provenance", "CI")),
    (2, _setting("label", "consistent")),
    (2, _first_statement(kind="poem")),
    (2, _first_statement(kind="sentence", text="The desk is pink.")),
    (2, _without("statements")),
    (2, lambda record: b"  \n" + json.dumps({**record, "id": 3}).encode("utf-8")),
    (2, lambda record: json.dumps({"context_semantic" if key == "context_semantics" else key: value
                                   for key, value in record.items()})),
    (3, _first_statement(semantic="desk.pink")),
    # Forms the writer never writes, which the reader once read back as other values.
    (2, _without("difficulty")),
    (3, _first_statement(semantics=None)),
    (3, _setting("context_semantics", [])),
    (2, _setting("gold_inconsistent_indices", None)),
    (2, _first_statement(text=None)),
    (2, lambda record: json.dumps({**record, "statements": [
        {"kind": "sentence", "text": "The desk is pink.", "question": None}, *record["statements"][1:]]})),
    (2, lambda record: json.dumps(record)[:-1] + f', "label": {json.dumps(record["label"])}}}'),
    (3, lambda record: json.dumps({**record, "context_semantics": [
        record["context_semantics"][0].replace(" ", "  ", 1), *record["context_semantics"][1:]]})),
    # A subset's id in a score file is its set's id, '#' and its kept indices.
    (2, lambda record: json.dumps({**record, "id": record["id"] + "#0-1"})),
    (3, _setting("difficulty", "hard")),
    (2, _setting("rule_id", "QA-SWAP")),
    (3, _setting("rule_id", "QA-GEN ")),
]
MALFORMED_IDS = [
    "not-utf8", "not-an-object", "statements-string", "statements-of-strings", "id-int",
    "context-string", "context-of-ints", "gold-string", "gold-bool", "gold-out-of-range",
    "gold-repeated", "gold-empty", "gold-on-consistent", "gold-empty-on-consistent", "one-statement",
    "provenance-X", "union-provenance", "label-contradicts-provenance", "unknown-kind", "sentence-with-question",
    "no-statements", "after-a-blank-line", "unknown-set-field", "unknown-statement-field",
    "no-difficulty", "semantics-null", "context-empty", "gold-null", "qa-text-null", "sentence-question-null",
    "duplicate-key", "formula-padded", "id-with-hash", "difficulty-unknown", "rule-id-unknown", "rule-id-padded",
]


def _edited_corpus(qa_dir, directory, line, edit):
    """``qa_dir``'s corpus with record ``line`` edited, in ``directory``; returns the edited record's line."""
    lines = (qa_dir / "data.jsonl").read_bytes().splitlines()
    record = json.loads(lines[line - 1])
    assert record["id"].startswith("train-")
    assert record["label"] == ("inconsistent" if line == 2 else "consistent")
    bad = edit(record)
    lines[line - 1] = bad if isinstance(bad, bytes) else bad.encode("utf-8")
    directory.mkdir()
    (directory / "data.jsonl").write_bytes(b"\n".join(lines) + b"\n")
    return line + lines[line - 1].count(b"\n")     # an inserted blank line moves the record down, and is skipped


@pytest.mark.parametrize("line, edit", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_record_exit_3(tmp_path, qa_dir, line, edit, capsys):
    data = tmp_path / "bad"
    line = _edited_corpus(qa_dir, data, line, edit)
    # verify and locate keep only the test split, sweep only validation2: each still refuses a train record.
    for command in ("verify", "locate", "sweep"):
        code = run(command, "--data", data, "--out", tmp_path / "o", "--scorer", "oracle", "--mixture-per-class", "2")
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {data / 'data.jsonl'}:{line}: ")
        assert "Traceback" not in err


def _load_outcome(data, splits):
    """The sets of ``load_corpus(data, splits)`` as written records, split by split, or its error's message."""
    try:
        corpus = load_corpus(data, splits)
    except MalformedRecordError as exc:
        return str(exc)
    return {name: [set_to_json(s) for s in sets] for name, sets in corpus.splits().items()}


@pytest.mark.parametrize("line, edit", MALFORMED, ids=MALFORMED_IDS)
def test_a_record_in_an_unread_split_is_refused_as_in_a_read_one(tmp_path, qa_dir, line, edit):
    data = tmp_path / "bad"
    _edited_corpus(qa_dir, data, line, edit)
    full, test_only = _load_outcome(data, SPLIT_NAMES), _load_outcome(data, ("test",))
    assert isinstance(full, str)
    assert test_only == full


# One edit of one key of a record, or of one of its statement entries; "unwritten" sets a record's key to a
# string the writer never writes there.
EDITS = ("drop", "null", "retype", "empty", "rename", "pad", "unwritten")
WRITTEN = {"difficulty": DIFFICULTIES, "rule_id": RULE_IDS}


def _edit(value, how, draw):
    if how == "retype":
        return draw(st.sampled_from([v for v in (7, 1.5, True, "x", [], {}) if type(v) is not type(value)]))
    if how == "pad":    # a space or a tab at either end or doubling a space: of a string, or a list's first item
        if type(value) is list and value:
            return [_edit(value[0], how, draw), *value[1:]]
        pad = draw(st.sampled_from([" ", "\t"]))
        return draw(st.sampled_from([pad + value, value + pad, value.replace(" ", "  ", 1)])) \
            if type(value) is str else value
    return {str: "", int: 0, list: [], dict: {}}.get(type(value), None)    # "empty"


def _unwritten(values):
    """A string not in ``values``: any text, or one of them cased, padded or cut short."""
    near = st.tuples(st.sampled_from(sorted(values)),
                     st.sampled_from([str.lower, str.upper, " {}".format, "{}\t".format, lambda v: v[:-1]]))
    return st.one_of(st.text(), near.map(lambda pair: pair[1](pair[0]))).filter(lambda text: text not in values)


@st.composite
def _record_edits(draw, records):
    """The index of a record of ``records``, that record with one key dropped, nulled, retyped, emptied,
    renamed or padded, or with a ``difficulty`` or ``rule_id`` the writer never writes, and that value or None."""
    index, how = draw(st.integers(0, len(records) - 1)), draw(st.sampled_from(EDITS))
    record = copy.deepcopy(records[index])
    if how == "unwritten":
        key = draw(st.sampled_from(sorted(WRITTEN)))
        record[key] = draw(_unwritten(WRITTEN[key]))
        return index, record, record[key]
    target = record
    if draw(st.booleans()):
        target = draw(st.sampled_from(record["statements"]))
    key = draw(st.sampled_from(sorted(target)))
    if how == "drop":
        del target[key]
    elif how == "rename":
        target[draw(st.sampled_from(sorted({*datagen._SET_KEYS, *datagen._STATEMENT_KEYS, key + "s"})))] = \
            target.pop(key)
    else:
        target[key] = None if how == "null" else _edit(target[key], how, draw)
    return index, record, None


@pytest.fixture(scope="module")
def small_records(tmp_path_factory):
    """The records of a small QA corpus and of a small sentence corpus, each with a file to write edits to."""
    out = []
    for style in ("qa", "snli"):
        data = tmp_path_factory.mktemp(f"small-{style}")
        assert run("gen", "--style", style, "--seed", "3", "--counts", "4,2", "--out", data) == 0
        out.append((data, [json.loads(line) for line in (data / "data.jsonl").read_text().splitlines()]))
    return out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_edited_record_loads_alike_whether_its_split_is_kept_or_not(small_records, data):
    directory, records = data.draw(st.sampled_from(small_records))
    index, record, unwritten = data.draw(_record_edits(records))
    lines = [json.dumps(r) for r in records]
    lines[index] = json.dumps(record)
    (directory / "data.jsonl").write_text("\n".join(lines) + "\n")
    split = records[index]["id"].split("-", 1)[0]
    other = next(name for name in SPLIT_NAMES if name != split)
    full, other_only = _load_outcome(directory, SPLIT_NAMES), _load_outcome(directory, (other,))
    if unwritten is not None:
        assert isinstance(full, str) and full.startswith(f"{directory / 'data.jsonl'}:{index + 1}: ")
        assert full.endswith(f", got {unwritten!r}")
    if isinstance(full, str):
        assert other_only == full
    else:
        assert other_only == {name: full[name] if name == other else [] for name in SPLIT_NAMES}
        # A record the reader takes is one the writer writes back unchanged, the edited one too.
        assert [r for name in SPLIT_NAMES for r in full[name]] == [*records[:index], record, *records[index + 1:]]
