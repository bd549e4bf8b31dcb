"""The package stays pure stdlib: every import in it is relative or from the
standard library; its public names are pinned, and each has a caller outside
the tests; the README Layout table has one row per module, and its library
tour prints what its comments say; and every function the perfbench tracer
wraps exists."""

import ast
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import ecgraphs

ROOT = Path(__file__).resolve().parent.parent

MODULES = {
    "__init__", "canon", "cli", "constructions", "ec",
    "graph6", "graphs", "hypergraphs", "planarity", "search",
}

PUBLIC = [
    "EcVerdict", "Graph", "Graph6Error", "GraphError", "Hypergraph", "HypergraphError",
    "SearchConstraints", "SearchReport", "canonical_form", "cartesian_product",
    "complete_bipartite", "complete_graph", "complete_multipartite", "cone",
    "cross_join_hypergraphs", "crossing_hypergraph", "cycle_graph", "empty_graph",
    "enumerate_connected", "filter_stream", "format_hypergraph", "is_connected", "is_n_ec",
    "is_n_line_ec", "is_n_line_ec_hyper", "is_planar", "join", "join_independent",
    "line_graph", "parse_graph6", "parse_hypergraph", "paley", "path_graph",
    "run_named_search", "standard_family", "star_dual", "write_graph6", "xi", "xi_line",
]


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


def test_public_names_are_pinned():
    assert ecgraphs.__all__ == PUBLIC
    assert all(hasattr(ecgraphs, name) for name in PUBLIC)


def _reads(tree: ast.AST):
    """(identifier, line) for every name and attribute in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _public_definitions(tree: ast.Module):
    """(qualified name, node) for each public top-level function and class
    and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _perfbench_reads() -> set[str]:
    """What perfbench reads of the package: names and attributes, less its
    own top-level definitions and the attributes of its own modules, plus the
    function of every "module.function" string (the traced names)."""
    scripts = sorted((ROOT / "perfbench").glob("*.py"))
    own_modules = {path.stem for path in scripts}
    out = set()
    for path in scripts:
        tree = ast.parse(path.read_text(), str(path))
        own = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in own:
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in own_modules):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"\w+\.\w+", node.value):
                    out.add(node.value.split(".")[1])
    return out


def test_every_public_definition_has_a_caller_outside_the_tests():
    # a public function, class or method stays only if another part of the
    # package, a README code example or perfbench reads it; a read from
    # inside a definition that has no such caller does not count, so a chain
    # of test-only helpers is found whole
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(ecgraphs.__file__).parent.glob("*.py")) if path.stem != "__init__"}
    reads = [(module, name, line) for module, tree in trees.items() for name, line in _reads(tree)]
    readme = (ROOT / "README.md").read_text()
    outside = _perfbench_reads() | {name for block in re.findall(r"```python\n(.*?)```", readme, re.S)
                                    for name, _ in _reads(ast.parse(block))}
    spans = {(module, qual): range(node.lineno, node.end_lineno + 1)
             for module, tree in trees.items() for qual, node in _public_definitions(tree)}

    def called(key: tuple[str, str], uncalled: set) -> bool:
        name = key[1].rpartition(".")[2]
        skip = [(module, spans[module, qual]) for module, qual in uncalled | {key}]
        return name in outside or any(
            read == name and not any(m == module and line in span for module, span in skip)
            for m, read, line in reads)

    uncalled: set = set()
    while True:  # uncalled only grows, so this ends
        found = {key for key in spans if not called(key, uncalled)}
        if found == uncalled:
            break
        uncalled = found
    assert sorted(f"{module}.{qual}" for module, qual in uncalled) == []


def test_readme_library_tour_prints_what_its_comments_say():
    # each expression in the tour with a trailing comment is evaluated, and
    # its str() must be the comment's first word
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].split()
        if comment:
            assert isinstance(stmt, ast.Expr), lines[stmt.end_lineno - 1]
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert str(value) == comment[0].rstrip(";"), lines[stmt.end_lineno - 1]
            checked.append(str(value))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == ["True", "2", "True", "2", "True", "5"]


def test_readme_layout_has_one_row_per_module():
    readme = (ROOT / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `ecgraphs\.(\w+)` \|", layout, re.MULTILINE)
    assert sorted(rows) == sorted(MODULES - {"__init__"})


def test_perfbench_traced_names_exist():
    # perfbench --trace wraps these functions by name, so a rename or a
    # deletion in the package must fail here first
    path = ROOT / "perfbench" / "tracing.py"
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
