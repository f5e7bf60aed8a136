"""setcoh benchmark: run one named workload and print its metrics.

    python3 bench/run.py --workload qa-desk [--seed 11] [--seconds 10] [--trace 0|1]

Run from a checkout that holds ``src/setcoh``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The lines before it name every metric the
workload measured, with its unit, and record the environment.  Scratch
outputs go under ``.bench_work/`` in the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Single-threaded numerics: set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"


def _blas_threads(np) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minutes-to-seconds sizes for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "setcoh" / "__init__.py").is_file():
        print(f"error: no setcoh sources at {SRC}; run from a setcoh checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import setcoh

    if Path(setcoh.__file__).resolve().parent != SRC / "setcoh":
        print(f"error: imported setcoh from {setcoh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
                           WORK_ROOT, SRC)
    if args.trace:
        units = {name: unit for name, (unit, _) in workloads.tracing.LAYER_METRICS.items()}
    else:
        units = {name: unit for name, (unit, _) in workloads.END_TO_END.items()}
    all_units = {**units, **{k: u for k, (u, _) in workloads.STAGE_METRICS.items()}}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "env": environment(np),
        "metrics": {k: {"value": v, "unit": all_units[k]} for k, v in {**result.metrics, **result.stage}.items()},
        "checks": result.checks, "notes": result.notes,
        "attempted": result.attempted, "failed": result.failed,
    }
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("notes " + json.dumps(result.notes, sort_keys=True, default=str))
    print("checks " + json.dumps(result.checks, sort_keys=True))
    for name, entry in record["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    records = WORK_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
