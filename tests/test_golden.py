"""The README pipeline at seed 11, pinned to the sha256 of every file it writes.

Criterion 10 compares two runs of the same code; this test compares the
code with a manifest of earlier outputs, so a change that moves any bit of
a corpus, a model, a threshold, a verdict, a score or a report fails here,
however deterministically it moves it.  The commands are the README's, at
its desk-scale flags, on both corpus styles, as the benchmark's desk
workloads run them (``bench/workloads.desk_steps``), plus ``verify
--dump-scores`` with the energy model and with the oracle (every pair score
element-wise verification reads).  They run through :func:`setcoh.cli.main` from one
fixed relative directory, so each ``config.snapshot`` holds the same paths.

The digests hold for one Python, numpy and BLAS; the manifest records them,
and another environment fails the test, naming what differs.  A change meant
to move an output rewrites the manifest, and says in CHANGES.md which files
moved and why::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from setcoh import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (bench/workloads.py, which imports its sibling modules by name)

MANIFEST = Path(__file__).parent / "golden" / "readme-seed11.json"
SEED = 11
RUN_DIR = "golden-run"        # the working directory, under the test's temporary directory


def commands(style: str) -> list[list[str]]:
    """The benchmark's README steps for one corpus style at full size, each writing under ``style/`` (the
    sentence models train for 5 epochs, as ``snli-desk`` trains them), then ``verify --dump-scores`` with
    the energy model and with the oracle, for both strategies."""
    size = workloads.SIZES["full"][f"{style}-desk"]
    steps = [argv for _, argv in workloads.desk_steps(style, SEED, size, Path(style))]
    for name, scorer in (("energy", f"{style}/model/model.bin"), ("oracle", "oracle")):
        for strategy in ("set", "elementwise"):
            steps.append(["verify", "--data", f"{style}/data", "--out", f"{style}/dump_{name}_{strategy}",
                          "--seed", "0", "--scorer", scorer, "--strategy", strategy, "--mixture-per-class", "50",
                          "--dump-scores"])
    return steps


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def run_pipeline(root: Path) -> dict[str, str]:
    """Run every command from ``root``; the sha256 of each file written, by relative path."""
    root.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in commands("qa") + commands("snli"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            assert code == 0, f"{' '.join(argv)} exited {code}"
    finally:
        os.chdir(cwd)
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_readme_pipeline_reproduces_the_golden_digests(tmp_path):
    golden = json.loads(MANIFEST.read_text())
    env = environment()
    differ = {key: (golden["environment"].get(key), value) for key, value in env.items()
              if golden["environment"].get(key) != value}
    assert not differ, f"environment differs from {MANIFEST.name} (manifest, here): {differ}"
    digests = run_pipeline(tmp_path / RUN_DIR)
    moved = sorted(name for name in golden["files"].keys() | digests.keys()
                   if golden["files"].get(name) != digests.get(name))
    assert not moved, f"{len(moved)} of {len(golden['files'])} files differ from {MANIFEST.name}: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = run_pipeline(Path(tmp) / RUN_DIR)
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"environment": environment(), "files": files}, indent=1) + "\n")
    print(f"{MANIFEST}: {len(files)} files", file=sys.stderr)
