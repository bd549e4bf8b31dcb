"""The package stays pure stdlib: every import in it is relative or from the
standard library."""

import ast
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
