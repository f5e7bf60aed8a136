"""``tests/mutate.py`` finds the operators on the lines it is given and flips one at a time."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

SPEC = importlib.util.spec_from_file_location("mutate", Path(__file__).parent / "mutate.py")
mutate = sys.modules.setdefault(SPEC.name, importlib.util.module_from_spec(SPEC))
SPEC.loader.exec_module(mutate)

SOURCE = "def f(a, b, c):\n    x = a < b <= c\n    y = not (a and b)\n    x += a * b\n    return a - b\n"


def test_mutants_are_the_operators_on_the_given_lines():
    found = [(m.lines.start, m.before, m.after) for m in mutate.mutants(SOURCE, {2, 3})]
    assert sorted(found) == [
        (2, "a < b <= c", "a < b < c"), (2, "a < b <= c", "a <= b <= c"),
        (3, "a and b", "a or b"), (3, "not (a and b)", "a and b"),
    ]
    assert sorted(m.after for m in mutate.mutants(SOURCE, {4, 5})) == ["a + b", "a / b", "x -= a * b"]


def test_each_mutant_changes_one_operator_and_nothing_else():
    original = ast.dump(ast.parse(SOURCE))
    for m in mutate.mutants(SOURCE, set(range(1, 6))):
        mutated = mutate.mutate(SOURCE, m.node, m.slot)
        assert ast.dump(ast.parse(mutated)) != original
        assert mutated.count("\n") == SOURCE.count("\n")
        assert ast.unparse(ast.parse(mutated)).replace(m.after, m.before, 1) == ast.unparse(ast.parse(SOURCE))


def _fake_git(monkeypatch, diff: str, untracked: str = "") -> None:
    outputs = {"diff": diff, "ls-files": untracked}
    monkeypatch.setattr(mutate.subprocess, "run",
                        lambda command, **kwargs: subprocess.CompletedProcess(command, 0, outputs[command[1]]))


def test_touched_lines_read_the_new_side_of_each_hunk(monkeypatch):
    _fake_git(monkeypatch, "+++ b/src/setcoh/verifier.py\n@@ -10,2 +11,3 @@ def f():\n@@ -40 +42 @@\n"
                           "+++ /dev/null\n@@ -1,5 +0,0 @@\n+++ b/src/setcoh/cli.py\n@@ -3,0 +4,2 @@\n")
    assert mutate.touched_lines("base") == {"verifier.py": {11, 12, 13, 42}, "cli.py": {4, 5}}


def test_every_line_of_an_untracked_module_is_touched(monkeypatch, tmp_path):
    (tmp_path / "src" / "setcoh").mkdir(parents=True)
    (tmp_path / "src" / "setcoh" / "fresh.py").write_text(SOURCE)
    (tmp_path / "src" / "setcoh" / "notes.txt").write_text("x\n")
    monkeypatch.setattr(mutate, "ROOT", tmp_path)
    _fake_git(monkeypatch, "+++ b/src/setcoh/cli.py\n@@ -3,0 +4,2 @@\n",
              "src/setcoh/fresh.py\nsrc/setcoh/notes.txt\n")
    touched = mutate.touched_lines("base")
    assert touched == {"fresh.py": {1, 2, 3, 4, 5}, "cli.py": {4, 5}}
    assert len(mutate.mutants(SOURCE, touched["fresh.py"])) == 7


def _one_touched_module(monkeypatch, tmp_path) -> None:
    """A repository whose one module, ``fresh.py`` holding :data:`SOURCE`, has lines 2 and 3 touched, with three
    test files besides ``test_imports.py``."""
    for part in ("src/setcoh", "tests", "bench"):
        (tmp_path / part).mkdir(parents=True)
    (tmp_path / "src" / "setcoh" / "fresh.py").write_text(SOURCE)
    for name in ("test_slow.py", "test_fresh.py", "test_fast.py", "test_imports.py"):
        (tmp_path / "tests" / name).write_text("")
    (tmp_path / "pyproject.toml").write_text("")
    monkeypatch.setattr(mutate, "ROOT", tmp_path)
    monkeypatch.setattr(mutate, "touched_lines", lambda base: {"fresh.py": {2, 3}})


def _report(path, times):
    """A JUnit XML report of one test case per (file, seconds) of ``times``."""
    cases = "".join(f'<testcase classname="c" name="t{i}" file="{name}" time="{seconds}" />'
                    for i, (name, seconds) in enumerate(times))
    path.write_text(f'<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite>{cases}</testsuite></testsuites>')


def test_the_unmutated_tier1_runs_once_then_each_mutant_runs_it(monkeypatch, tmp_path, capsys):
    _one_touched_module(monkeypatch, tmp_path)
    modules, runs = [], []

    def fake_run(tree, tests):      # Tier-1 kills a dropped `not` and `a <= b`, and no other mutant
        module = (tree / "src" / "setcoh" / "fresh.py").read_text()
        modules.append(module)
        runs.append(tests)
        if len(runs) == 1:
            report = next(arg for arg in tests if arg.startswith("--junitxml="))[len("--junitxml="):]
            _report(Path(report), [("tests/test_slow.py", 4.0), ("tests/test_fresh.py", 3.0),
                                   ("tests/test_fast.py", 0.5), ("tests/test_fast.py", 0.25)])
        return "fail" if "not" not in module or "a <= b" in module else "pass"

    monkeypatch.setattr(mutate, "run_tests", fake_run)
    assert mutate.main(["--base", "base"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert sorted(line for line in out if line.startswith(("SURVIVED", "killed"))) == [
        "SURVIVED fresh.py:2: a < b <= c -> a < b < c",
        "SURVIVED fresh.py:3: a and b -> a or b",
        "killed (fail) fresh.py:2: a < b <= c -> a <= b <= c",
        "killed (fail) fresh.py:3: not (a and b) -> a and b",
    ]
    assert out[-1] == "2 of 4 mutants survived"
    assert modules[0] == ast.unparse(ast.parse(SOURCE)) + "\n" and len(modules) == 1 + 4
    assert len(set(modules)) == 5
    assert runs[0][:len(mutate.TIER1)] == mutate.TIER1
    assert runs[1:] == [["tests/test_fresh.py", "tests/test_fast.py", "tests/test_slow.py"]] * 4


def test_a_failing_unmutated_tier1_runs_no_mutant(monkeypatch, tmp_path, capsys):
    _one_touched_module(monkeypatch, tmp_path)
    runs = []
    monkeypatch.setattr(mutate, "run_tests", lambda tree, tests: runs.append(tests) or "fail")
    assert mutate.main(["--base", "base"]) == 2
    assert len(runs) == 1 and runs[0][:len(mutate.TIER1)] == mutate.TIER1
    assert capsys.readouterr().out.splitlines()[-1] == "the unmutated Tier-1 fails; no mutant run"


def test_a_mutant_runs_its_module_s_test_file_first_then_the_others_fastest_first():
    times = {"tests/test_a.py": 3.0, "tests/test_cli.py": 9.0, "tests/test_verifier.py": 5.0,
             "tests/test_b.py": 0.5, "tests/test_c.py": 0.5}
    assert mutate.tier1_order("verifier.py", times) == [
        "tests/test_verifier.py", "tests/test_b.py", "tests/test_c.py", "tests/test_a.py", "tests/test_cli.py"]
    assert mutate.tier1_order("wordbank.py", times) == [     # no test file of its own
        "tests/test_b.py", "tests/test_c.py", "tests/test_a.py", "tests/test_verifier.py", "tests/test_cli.py"]


def test_file_times_come_from_a_real_tier1_report(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_slow.py").write_text(
        "import time\n\ndef test_one():\n    time.sleep(0.2)\n\ndef test_two():\n    time.sleep(0.1)\n")
    (tmp_path / "tests" / "test_quiet.py").write_text("")       # no test case: 0 s
    (tmp_path / "tests" / "test_imports.py").write_text("def test_never_run():\n    raise AssertionError\n")
    report = tmp_path / "tier1.xml"
    assert mutate.run_tier1(tmp_path, report) == "pass"
    times = mutate.file_times(tmp_path, report)
    assert sorted(times) == ["tests/test_quiet.py", "tests/test_slow.py"]
    assert times["tests/test_quiet.py"] == 0 and 0.3 <= times["tests/test_slow.py"] < 5
