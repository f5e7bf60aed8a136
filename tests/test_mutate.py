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
