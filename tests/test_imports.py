"""The package's modules import one another without cycles, and the package
namespace loads each exported name's module on first use."""

import ast
import graphlib
import importlib
import sys
from pathlib import Path

import pytest

import ionchain

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


# ----------------------------------------------------------------------
# the lazy package namespace
# ----------------------------------------------------------------------

def exported_names():
    """(module, name) for every name ``__init__`` imports for type checkers:
    the names the package has always exported."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.fixture
def unbound(monkeypatch):
    """The package with every exported name unbound, as in a new process, so
    each lookup goes through the package's ``__getattr__``."""
    for name in ionchain.__all__:
        monkeypatch.delitem(vars(ionchain), name, raising=False)
    return ionchain


def test_all_lists_every_exported_name():
    names = [name for _, name in exported_names()]
    assert len(names) == len(set(names)) == 56
    assert sorted(ionchain.__all__) == sorted(names)
    assert set(names) <= set(dir(ionchain))


def test_each_name_is_its_defining_modules_object(unbound):
    for module, name in exported_names():
        defined = getattr(importlib.import_module(f"ionchain.{module}"), name)
        assert getattr(unbound, name) is defined, name
        scope = {}
        exec(f"from ionchain import {name}", scope)
        assert scope[name] is defined, name


def test_star_import_binds_every_exported_name(unbound):
    scope = {}
    exec("from ionchain import *", scope)
    for module, name in exported_names():
        assert scope[name] is getattr(importlib.import_module(f"ionchain.{module}"), name), name


def test_submodules_import_by_name(unbound):
    from ionchain import decoherence

    assert decoherence is sys.modules["ionchain.decoherence"]
    assert unbound.chain is importlib.import_module("ionchain.chain")


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'ionchain' has no attribute 'no_such_name'"):
        ionchain.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from ionchain import no_such_name", {})
