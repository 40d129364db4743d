"""The package's modules import one another without cycles."""

import ast
import graphlib
from pathlib import Path

# read from the source tree, not imported: a cycle may break the import itself
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ionchain"


def package_imports():
    """Module name -> the package modules it imports with ``from .x import``
    (``from . import name`` counts as an import of ``__init__``)."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        graph[path.stem] = {
            node.module or "__init__"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 1
        }
    return graph


def test_import_graph_has_no_cycles():
    graph = package_imports()
    assert set().union(*graph.values()) <= set(graph)  # every import is a package module
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
    # leaves first: errors depends on nothing, the CLI on everything it wraps
    position = {name: k for k, name in enumerate(order)}
    assert position["errors"] < position["chain"] < position["__init__"] < position["cli"]
