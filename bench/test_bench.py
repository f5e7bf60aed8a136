"""The benchmark's own test, at tiny sizes.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from setcoh import datagen, evalkit, logic, trainer, verifier  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--scale", "tiny", "--seconds", "0", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
    # The human-readable lines name each metric with its unit, the stage metrics too.
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    for name in result["metrics"]:
        assert printed[name] == result["metrics"][name]["unit"]
    if not trace:
        stages = {"fail_ratio", "gen_sets_per_s", "train_energy_inst_per_s", "verify_sets_per_s",
                  "ew_pairs_per_s"}
        stages |= {"locate_em"} if workload != "snli-desk" else {"train_binary_ex_per_s"}
        assert stages <= set(printed)
        assert any(line == "fail_ratio 0.0 ratio" for line in lines)


def test_untraced_run_wraps_nothing_and_repeats_its_artifacts(tmp_path):
    for _ in range(2):
        result = workloads.run("qa-desk", 5, 0, False, "tiny", tmp_path, ROOT / "src")
        assert result.failed == 0, result.checks
        assert datagen.is_satisfiable is logic.is_satisfiable
        assert verifier.is_satisfiable is logic.is_satisfiable
    assert result.checks["artifacts_deterministic_across_runs"]


def test_speed_probe_credits_one_reference_per_kernel_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.01) as probe:
        start = probe.sample()
        for _ in range(200):
            speed.reference_kernel()
        wall, refs = probe.measure(start)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.durations) > 3
    assert wall + probe.busy(start, math.inf) == pytest.approx(probe.starts[-1] + probe.durations[-1] - start)
    # Work made of the kernel itself is credited about one reference per kernel run.
    assert 140 < refs < 260


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = (logic.is_satisfiable, datagen.compose_union, datagen.StatementSet.namespaces)
    undo = tracing.install(tracing.Tracer("test"))
    try:
        wrapped = logic.is_satisfiable
        assert wrapped.__wrapped__ is originals[0]
        assert datagen.is_satisfiable is wrapped and verifier.is_satisfiable is wrapped
        assert trainer.compose_union is datagen.compose_union is evalkit.compose_union
        assert trainer.compose_union.__wrapped__ is originals[1]
        assert datagen.StatementSet.namespaces is not originals[2]
    finally:
        tracing.uninstall(undo)
    assert (logic.is_satisfiable, datagen.compose_union, datagen.StatementSet.namespaces) == originals
    assert datagen.is_satisfiable is logic.is_satisfiable


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "qa-desk", "--scale", "tiny", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
