"""Every name a setcoh module imports is used there, or its import says why not (``# noqa: F401 <reason>``).

``__init__`` is exempt: it imports names to re-export them.
"""

import ast
import re
from pathlib import Path

import pytest

import setcoh

MODULES = sorted(p for p in Path(setcoh.__file__).parent.glob("*.py") if p.name != "__init__.py")

# A reason must follow the code: a bare "noqa: F401" does not say why the binding stays.
_KEPT = re.compile(r"#\s*noqa:\s*F401\s*\S")


def unused_imports(source: str) -> list[str]:
    """``name (line n)`` for each imported name that no expression in ``source`` reads and no kept import names."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            kept = any(_KEPT.search(lines[n - 1]) for n in {node.lineno, alias.lineno})
            if name not in used and not kept:
                out.append(f"{name} (line {alias.lineno})")
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used_or_kept_with_a_reason(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_leftover_and_honours_a_reason():
    source = "import copy\nimport re\nfrom .trainer import _draw_partner, train\nre.compile('x')\ntrain()\n"
    assert unused_imports(source) == ["copy (line 1)", "_draw_partner (line 3)"]
    kept = "from .logic import is_satisfiable  # noqa: F401 (a binding the benchmark checks)\n"
    assert unused_imports(kept) == []
    assert unused_imports("from .logic import is_satisfiable  # noqa: F401\n") == ["is_satisfiable (line 1)"]
