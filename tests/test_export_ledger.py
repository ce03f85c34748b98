"""Every name ``ergodec/__init__.py`` exports is used by the program.

A name counts as used when another ``src/ergodec`` module or a ``bench/``
file references it. The library's demonstrators that nothing else reaches
either become a ``validate`` verdict or go; the few that stay are listed in
``KEEP`` with their reason.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ergodec"
BENCH = ROOT / "bench"

KEEP = {
    "assemble": "the inverse of decompose; the round-trip tests reassemble with it",
    "ergodicity_test": "the sampled ergodicity criterion, pinned by RECORDED_ERGODICITY_SHA256",
    "ks_statistic": "acceptance criterion 06 compares a continuous decomposition with it",
    "orbital_measure": "the exact orbital measure up to S(8), a documented library entry point",
}


def _exports(source: str) -> set[str]:
    return {
        a.asname or a.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }


def _references(source: str) -> set[str]:
    """Names, attributes, imported names and string constants of a module:
    ``bench/tracing.py`` names the functions it wraps as strings."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {a.name for a in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def _unused_exports() -> set[str]:
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"] + list(BENCH.glob("*.py"))
    used = set().union(*(_references(p.read_text()) for p in files))
    return _exports((SRC / "__init__.py").read_text()) - used


def test_the_check_sees_an_unused_export():
    assert _exports("from .a import f, g as h\nimport os\n") == {"f", "h"}
    assert _references("x = mod.f(g)\nfrom .b import k\nwrap('name')\n") == {
        "x", "mod", "f", "g", "k", "wrap", "name"
    }


def test_every_export_is_used_or_kept_with_a_reason():
    assert _unused_exports() == set(KEEP)
    assert all(reason for reason in KEEP.values())
