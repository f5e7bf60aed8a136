"""Operator mutants of the ``src/setcoh`` lines a diff touches, each run against the whole Tier-1.

Usage::

    python tests/mutate.py --base <rev>

For every line of ``src/setcoh/*.py`` that ``git diff <rev>`` adds or
changes (uncommitted edits included), and every line of a module git does
not track yet, each comparison, arithmetic, boolean and ``not`` operator on
it outside a type annotation (which no module evaluates) is flipped, one
mutant at a time, in a copy of ``src/``, ``tests/`` and ``bench/`` in a
temporary directory.  Each module with mutants is written
back from its AST (``ast.unparse``), as its mutants are; the whole Tier-1
(:data:`TIER1`) runs once on those unmutated modules, which times each of
its files, and then once per mutant, with ``pytest -x``, in the order
:func:`tier1_order` gives: the mutated module's own test file first, then
every other file, fastest first.  A mutant is killed iff some Tier-1 test
fails, or the run takes longer than :data:`TIMEOUT` seconds (a flipped loop
condition can hang).  :data:`WORKERS` mutants run at a time, each in its own
copy of the tree and each pytest run with one BLAS thread
(:data:`ONE_THREAD`).  Each mutant is printed on one line, in mutant order
whichever run ends first, ``SURVIVED`` or ``killed`` and then
``module.py:line: original -> mutant``; the exit status is 1 if any survive
(2 if the unmutated Tier-1 fails).

Standard library only.  pytest does not collect this file: its name does
not start with ``test_``.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "setcoh"

# The whole Tier-1, as the unmutated run runs it: every test file but test_imports.py, which reads the import
# lines' comments that ast.unparse drops and that no operator flip changes.
IGNORED = "tests/test_imports.py"
TIER1 = ["tests", f"--ignore={IGNORED}"]

# Seconds one pytest run may take before its mutant counts as killed.
TIMEOUT = 900.0

# The most pytest runs at a time, and the environment each runs with: one BLAS thread, so that two fit two cores.
WORKERS = 2
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# Each operator and the one it is flipped to.
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr, ast.BitXor: ast.BitAnd,
    ast.And: ast.Or, ast.Or: ast.And,
}


@dataclass(frozen=True)
class Mutant:
    node: int           # the node's position in ast.walk order
    slot: int           # which operator of a comparison chain; 0 otherwise
    lines: range        # the source lines the operator sits between
    before: str
    after: str


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def touched_lines(base: str) -> dict[str, set[int]]:
    """Per module file name, the new-side lines ``git diff base`` adds or changes, or all of an untracked one."""
    touched: dict[str, set[int]] = {}
    for path in _git("ls-files", "--others", "--exclude-standard", "--", str(PACKAGE)).splitlines():
        if path.endswith(".py"):
            touched[Path(path).name] = set(range(1, len((ROOT / path).read_text().splitlines()) + 1))
    diff = _git("diff", "-U0", base, "--", str(PACKAGE))
    name = None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            name = Path(line[4:]).name if line[4:] != "/dev/null" else None
        elif line.startswith("@@") and name and name.endswith(".py"):
            start, _, count = re.match(r"@@ -\S+ \+(\d+)(,(\d+))? @@", line).groups()
            first, n = int(start), 1 if count is None else int(count)
            touched.setdefault(name, set()).update(range(first, first + n))
    return touched


def _operators(node: ast.AST):
    """Each flippable operator of ``node``: (slot in a comparison chain, the source lines it sits between)."""
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        for slot, op in enumerate(node.ops):
            yield slot, range(operands[slot].end_lineno, operands[slot + 1].lineno + 1)
    elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in FLIPS:
        first, last = (node.left, node.right) if isinstance(node, ast.BinOp) else (
            (node.target, node.value) if isinstance(node, ast.AugAssign) else (node.values[0], node.values[-1]))
        yield 0, range(first.end_lineno, last.lineno + 1)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield 0, range(node.lineno, node.operand.lineno + 1)


def _flipped(node: ast.AST, slot: int) -> ast.AST:
    """A copy of ``node`` with its operator (``slot`` of a chain) flipped; a ``not`` gives its operand."""
    new = copy.deepcopy(node)
    if isinstance(new, ast.UnaryOp):
        return new.operand
    if isinstance(new, ast.Compare):
        new.ops[slot] = FLIPS[type(new.ops[slot])]()
    else:
        new.op = FLIPS[type(new.op)]()
    return new


def _annotations(tree: ast.AST) -> set[int]:
    """The ids of the nodes inside ``tree``'s type annotations: of arguments, returns and annotated assignments.
    Every module of the package imports ``from __future__ import annotations``, so none is ever evaluated."""
    annotated = (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)
    roots = [node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
             for node in ast.walk(tree) if isinstance(node, annotated)]
    return {id(node) for root in roots if root is not None for node in ast.walk(root)}


def mutants(source: str, lines: set[int]) -> list[Mutant]:
    """Every mutant of ``source`` whose operator sits on one of ``lines`` and outside a type annotation, in
    ``ast.walk`` order."""
    tree = ast.parse(source)
    skipped = _annotations(tree)
    return [Mutant(index, slot, span, _short(ast.unparse(node)), _short(ast.unparse(_flipped(node, slot))))
            for index, node in enumerate(ast.walk(tree)) if id(node) not in skipped
            for slot, span in _operators(node) if lines.intersection(span)]


def mutate(source: str, index: int, slot: int) -> str:
    """``source``, unparsed from its AST, with the operator at walk position ``index`` flipped."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[index]
    for parent in list(ast.walk(tree)):
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, _flipped(node, slot))
            elif isinstance(value, list) and any(item is node for item in value):
                value[:] = [_flipped(node, slot) if item is node else item for item in value]
    return ast.unparse(tree) + "\n"


def _short(text: str, width: int = 90) -> str:
    text = " ".join(text.split())
    return text if len(text) <= width else text[: width - 3] + "..."


def run_tests(tree: Path, tests: list[str]) -> str:
    """``"pass"``, ``"fail"`` or ``"timeout"`` for one pytest run, given ``tests`` as its arguments, in the copy at ``tree``.

    Its temporary directory is ``<tree>-tmp``, so that no two runs share one, and beside the copy rather than in it,
    so that a pytest run a test starts there finds no project file above it."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", **ONE_THREAD)
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", f"--basetemp={tree}-tmp", *tests]
    try:
        proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


def run_tier1(tree: Path, report: Path) -> str:
    """:func:`run_tests` of the whole Tier-1, writing a JUnit XML ``report`` that names each test case's file."""
    return run_tests(tree, [*TIER1, f"--junitxml={report}", "-o", "junit_family=xunit1"])


def file_times(tree: Path, report: Path) -> dict[str, float]:
    """Seconds per Tier-1 test file (``tests/test_<name>.py``) in the copy at ``tree``, from the JUnit XML
    ``report`` of a run of it; a file with no test case in the report takes 0 s."""
    times = defaultdict(float)
    for case in ElementTree.parse(report).iter("testcase"):
        times[case.get("file")] += float(case.get("time"))
    files = sorted(str(path.relative_to(tree)) for path in (tree / "tests").glob("test_*.py"))
    return {name: times[name] for name in files if name != IGNORED}


def tier1_order(module: str, times: dict[str, float]) -> list[str]:
    """The Tier-1 files, as a mutant of ``module`` (``name.py``) runs them: ``tests/test_<name>.py`` first,
    if it is one of them, then every other file of ``times``, fastest first."""
    own = f"tests/test_{Path(module).stem}.py"
    return sorted(times, key=lambda name: (name != own, times[name], name))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision whose diff names the lines to mutate")
    args = parser.parse_args(argv)
    touched = touched_lines(args.base)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="setcoh-mutate-") as temporary:
        tree = Path(temporary) / "tree"
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        jobs = []
        for name, lines in sorted(touched.items()):
            path = tree / PACKAGE / name
            source = path.read_text()
            found = mutants(source, lines)
            print(f"{name}: {len(lines)} touched lines, {len(found)} mutants", flush=True)
            if found:
                path.write_text(ast.unparse(ast.parse(source)) + "\n")
                jobs += [(name, source, mutant) for mutant in found]
        report = Path(temporary) / "tier1.xml"
        if jobs and run_tier1(tree, report) != "pass":
            print("the unmutated Tier-1 fails; no mutant run", flush=True)
            return 2
        times = file_times(tree, report) if jobs else {}

        def run(k: int) -> str:
            name, source, mutant = jobs[k]
            own = Path(temporary) / f"mutant-{k}"
            shutil.copytree(tree, own / "tree", ignore=ignore)
            (own / "tree" / PACKAGE / name).write_text(mutate(source, mutant.node, mutant.slot))
            try:
                return run_tests(own / "tree", tier1_order(name, times))
            finally:
                shutil.rmtree(own)

        survivors = 0
        with ThreadPoolExecutor(WORKERS) as pool:
            for (name, _, mutant), outcome in zip(jobs, pool.map(run, range(len(jobs)))):
                line = f"{name}:{mutant.lines.start}: {mutant.before} -> {mutant.after}"
                survivors += outcome == "pass"
                print(f"SURVIVED {line}" if outcome == "pass" else f"killed ({outcome}) {line}", flush=True)
        print(f"{survivors} of {len(jobs)} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
