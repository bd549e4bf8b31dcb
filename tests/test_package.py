"""The package stays pure stdlib: every import in it is relative or from the
standard library; the README Layout table has one row per module; and every
function the perfbench tracer wraps exists."""

import ast
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import ecgraphs

MODULES = {
    "__init__", "canon", "catalog", "cli", "constructions", "ec",
    "graph6", "graphs", "hypergraphs", "planarity", "search",
}


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_imports_are_relative_or_stdlib():
    sources = sorted(Path(ecgraphs.__file__).parent.glob("*.py"))
    assert {path.stem for path in sources} == MODULES
    bad = [
        f"{path.name}:{lineno}: {name}"
        for path in sources
        for lineno, name in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert bad == []


def test_readme_layout_has_one_row_per_module():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `ecgraphs\.(\w+)` \|", layout, re.MULTILINE)
    assert sorted(rows) == sorted(MODULES - {"__init__"})


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
