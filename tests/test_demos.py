"""The demos import only names that ``ionchain`` provides.

No test runs the demos (they write files and some take seconds), so this
parses each one and checks its ``from ionchain... import`` names instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_ionchain_imports_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ionchain":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{demo.name} imports {missing} from {node.module}"
            imported += len(node.names)
    assert imported > 0


def test_demos_found():
    assert DEMOS
