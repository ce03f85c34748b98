"""The benchmark (``bench/*.py``) imports ergodec names and reads the CLI's
config schemas; these tests keep those names and keys in place so that a
refactor of ergodec cannot break a benchmark run unnoticed."""
import ast
import importlib
from pathlib import Path

from ergodec.cli import SCHEMAS

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(BENCH.glob("*.py"))}


def _resolve(module: str, name: str):
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    try:
        return importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        raise AssertionError(f"the benchmark imports {module}.{name}, which is gone") from None


def _ergodec_modules(tree) -> dict:
    """Local name -> ergodec module, for every module a file imports."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ergodec":
            for alias in node.names:
                obj = _resolve(node.module, alias.name)
                if type(obj).__name__ == "module":
                    bound[alias.asname or alias.name] = obj
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ergodec.") and alias.asname:
                    bound[alias.asname] = importlib.import_module(alias.name)
    return bound


def test_every_ergodec_name_the_benchmark_imports_resolves():
    imported = 0
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ergodec":
                for alias in node.names:
                    _resolve(node.module, alias.name)  # raises if it is gone
                    imported += 1
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "ergodec":
                        importlib.import_module(alias.name)
                        imported += 1
    assert imported >= 10  # the workloads, the runner and the bench tests


def test_every_attribute_of_an_imported_ergodec_module_resolves():
    checked = 0
    for fname, tree in _trees().items():
        modules = _ergodec_modules(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                module = modules[node.value.id]
                assert hasattr(module, node.attr), f"{fname}: {module.__name__}.{node.attr}"
                checked += 1
    assert checked >= 5  # cli.main, decomposition.decompose, reporting.*


def _schema_reads(tree) -> set:
    """(subcommand, key) for SCHEMAS[sub][key], and for name[key] where
    name = SCHEMAS[sub] in the same function."""
    reads = set()

    def const(node):
        return node.value if isinstance(node, ast.Constant) else None

    def schema_of(node):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "SCHEMAS"):
            return const(node.slice)
        return None

    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.Module)):
            continue
        aliases = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and schema_of(node.value) is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases[target.id] = schema_of(node.value)
        for node in ast.walk(func):
            if not isinstance(node, ast.Subscript):
                continue
            sub = schema_of(node)
            if sub is not None:
                reads.add((sub, None))
            inner = node.value
            if schema_of(inner) is not None:
                reads.add((schema_of(inner), const(node.slice)))
            elif isinstance(inner, ast.Name) and inner.id in aliases:
                reads.add((aliases[inner.id], const(node.slice)))
    return reads


def test_every_schema_key_the_workloads_read_exists():
    reads = set()
    for tree in _trees().values():
        reads |= _schema_reads(tree)
    # the two reads that set up definetti-mixture and cli-suite
    assert {("definetti", "mc_samples"), ("kolmogorov", "samples")} <= reads
    for sub, key in reads:
        assert sub in SCHEMAS, sub
        assert key is None or key in SCHEMAS[sub], f"SCHEMAS[{sub!r}][{key!r}]"
