"""The package stays pure stdlib: every import in it is relative or from the
standard library; and every function the perfbench tracer wraps exists."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import ecgraphs


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_imports_are_relative_or_stdlib():
    sources = sorted(Path(ecgraphs.__file__).parent.glob("*.py"))
    assert len(sources) >= 12
    bad = [
        f"{path.name}:{lineno}: {name}"
        for path in sources
        for lineno, name in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert bad == []


def test_perfbench_traced_names_exist():
    # perfbench --trace wraps these functions by name, so a rename or a
    # deletion in the package must fail here first
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name in tracing.BOUNDARIES:
        module, func = name.split(".")
        target = getattr(importlib.import_module(f"ecgraphs.{module}"), func, None)
        if not inspect.isfunction(target) or target.__module__ != f"ecgraphs.{module}":
            missing.append(name)
    assert len(tracing.BOUNDARIES) >= 20 and missing == []
