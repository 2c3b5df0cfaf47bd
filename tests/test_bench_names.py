"""bench/ imports private names and reads attributes off package modules,
so a name deleted from src/ could break the benchmark while every other
test passes.  This parses bench/*.py and resolves each such name."""
import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).parent.parent / "bench"


def package_reads(tree: ast.Module) -> list[tuple[str, list[str]]]:
    """(module, [attr, ...]) for every name imported from the package, and
    for every outermost a.b.c whose a is such a name."""
    reads, bound, inner = [], {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "curvedtwobody":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.module, [alias.name]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "curvedtwobody":
                    reads.append((alias.name, []))
                    bound[alias.asname or "curvedtwobody"] = (
                        alias.name if alias.asname else "curvedtwobody", [])
        elif isinstance(node, ast.Attribute):
            inner.add(id(node.value))
    reads += bound.values()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        attrs, base = [], node
        while isinstance(base, ast.Attribute):
            attrs.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in bound:
            module, prefix = bound[base.id]
            reads.append((module, prefix + attrs[::-1]))
    return reads


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _resolves(module: str, attrs: list[str]) -> bool:
    obj = _module(module)
    if obj is None:
        return False
    for i, attr in enumerate(attrs):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        # a submodule is an attribute of its package only once imported
        elif (obj := _module(".".join([module] + attrs[:i + 1]))) is None:
            return False
    return True


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda path: path.name)
def test_every_package_name_bench_reads_resolves(path):
    reads = package_reads(ast.parse(path.read_text()))
    assert path.name != "tracing.py" or ("curvedtwobody", ["kovacic", "xi"]) in reads
    missing = [".".join([module] + attrs) for module, attrs in reads
               if not _resolves(module, attrs)]
    assert not missing, f"{path.name} reads names the package lacks: {missing}"
