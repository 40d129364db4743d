"""The package's modules import one another without cycles, the package
namespace loads each exported name's module on first use, and the package
or a demo uses every exported name."""

import ast
import graphlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ionchain

# read from the source tree, not imported: a cycle may break the import itself
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ionchain"
DEMOS = PACKAGE.parent.parent / "demos"
GOLDEN_DATA = Path(__file__).resolve().parent / "golden" / "data"


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


def test_fits_and_oracles_run_without_the_chain_solver():
    """Decoherence and heating name ``ModeDecomposition`` in annotations only,
    so calibrating against data never loads (or compiles) ``chain``."""
    code = f"""
import sys
import numpy as np
from ionchain import fitting, gates
from ionchain.decoherence import rabi_trace_monte_carlo

def columns(name):
    return np.loadtxt({str(GOLDEN_DATA)!r} + "/" + name, delimiter=",", skiprows=1).T

x, y = columns("beam.csv")
fitting.fit_beam_profile(x, y)
t, p1, sigma = columns("rabi.csv")
omega, theta = fitting.fit_rabi_trace(t * 1e-6, p1, sigma).params
tw, growth, sigma = columns("theta_growth.csv")
fitting.fit_theta_growth(tw * 1e-3, growth, sigma)
f, rate, sigma = columns("power_law.csv")
fitting.fit_theta_power_law(2 * np.pi * f * 1e3, rate, sigma)
rabi_trace_monte_carlo(omega, [theta], t[::10] * 1e-6, 1000)
gates.gate_fidelity_monte_carlo([theta], [theta], 2, 1000)
assert "ionchain.chain" not in sys.modules, sorted(m for m in sys.modules if m.startswith("ionchain"))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


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


# exported names that only the tests use, each with the reason it stays
TEST_ONLY = {"spacing_deviation": "acceptance check 3a measures a chain's spacing with it"}


def names_read(path: Path) -> set[str]:
    """Every name a source file reads: a bare name or an attribute that is
    loaded (not a ``def``, ``class`` or assignment target), or a string
    (the name ``getattr`` takes; a docstring is never a bare name)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_exported_name_is_used_by_the_package_or_a_demo():
    """A public name kept only for its own tests is code the system does not
    need: each one is read by a package module other than ``__init__`` or by
    a demo, or is listed in ``TEST_ONLY``."""
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    used = set().union(*map(names_read, sources + list(DEMOS.glob("*.py"))))
    assert sorted(set(ionchain.__all__) - used) == sorted(TEST_ONLY)
