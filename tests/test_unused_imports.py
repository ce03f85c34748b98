"""Every module-level import of an ergodec module is referenced in that
module, and every private module-level name is referenced in the package.

No linter ships with the project, so this stands in for pyflakes' F401 on
``src/ergodec`` (``__init__.py`` re-exports, so it is left out) and, for
private names, for vulture: a helper whose last caller is deleted goes too.
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


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module-level statements that bind a private name (one leading
    underscore), by name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update((n, node) for n in names if n.startswith("_") and not n.startswith("__"))
    return out


def _references(nodes) -> set[str]:
    """Names loaded, attributes read and names imported anywhere in nodes."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name)
    return out


def _orphans(sources: dict[str, str]) -> set[str]:
    """Private module-level names that no statement of any module but their
    own definition references; ``module:name``."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    orphans = set()
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree).items():
            others = [node for t in trees.values() for node in t.body if node is not definition]
            if name not in _references(others):
                orphans.add(f"{module}:{name}")
    return orphans


def test_the_check_sees_an_orphaned_private_name():
    sources = {
        "a.py": "_CAP = 3\ndef _rec(n): return _rec(n - 1)\ndef _used(): pass\n",
        "b.py": "from .a import _used\n_used()\ndef f(m): return m._CAP\n",
    }
    assert _orphans(sources) == {"a.py:_rec"}


def test_every_private_module_level_name_is_referenced():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _orphans(sources) == set()
