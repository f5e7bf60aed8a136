"""The names the benchmark's tracer wraps must exist in the package.

``bench/tracing.py`` wraps functions by module and attribute name, and
``bench/test_bench.py`` checks that some of them are bound in more than one
module.  A refactor that renames or rebinds one of them breaks the
benchmark's per-layer counters without failing the package's own tests, so
this module reads the tracer's table (importing ``bench/tracing.py``, which
installs nothing) and checks it against ``setcoh``.
"""

import importlib
import importlib.util
from pathlib import Path

from setcoh import datagen, evalkit, logic, trainer, verifier

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, attr: str) -> bool:
    owner = importlib.import_module(f"setcoh.{module_name}")
    *cls, name = attr.split(".")
    if cls:     # Class.method: the tracer wraps the attribute in the class body
        return callable(vars(getattr(owner, cls[0], object)).get(name))
    return callable(getattr(owner, name, None))


def test_every_wrapped_name_resolves():
    missing = [f"{m}.{a}" for m, a, _ in _tracing().WRAPPED if not _resolves(m, a)]
    assert not missing, f"bench/tracing.py wraps names setcoh does not define: {missing}"


def test_bindings_the_benchmark_checks():
    assert datagen.is_satisfiable is logic.is_satisfiable
    assert verifier.is_satisfiable is logic.is_satisfiable
    assert trainer.compose_union is datagen.compose_union
    assert evalkit.compose_union is datagen.compose_union
