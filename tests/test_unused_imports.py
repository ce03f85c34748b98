"""Every module-level import of an ergodec module is referenced in that module.

No linter ships with the project, so this stands in for pyflakes' F401 on
``src/ergodec`` (``__init__.py`` re-exports, so it is left out).
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ergodec"

# Bindings that bench/tracing.py wraps (pinned by test_trace_bindings.py),
# marked ``# noqa: F401`` at their import.
TRACER_BINDINGS = {
    "decomposition.py": {"average_exact", "mc_level_values", "monomial_level_average"},
}


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as "np.ndarray" reference names too
    for n in ast.walk(tree):
        if isinstance(n, (ast.arg, ast.AnnAssign)):
            ann = n.annotation
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = n.returns
        else:
            continue
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {m.id for m in ast.walk(ast.parse(ann.value)) if isinstance(m, ast.Name)}
    return bound - used


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nimport sys\nfrom math import pi, tau\nprint(sys, pi)\n") == {
        "os", "tau"
    }
    assert _unused_imports('import numpy as np\ndef f(a: "np.ndarray"): pass\n') == set()


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_every_module_level_import_is_referenced(module):
    unused = _unused_imports((SRC / module).read_text())
    assert unused == TRACER_BINDINGS.get(module, set())
