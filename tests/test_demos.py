"""Every name a demo imports from fragsim exists in the package.

The demos are scripts, not tests, and a few take seconds to run; parsing
them catches a renamed or removed import in milliseconds.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _fragsim_imports(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module is not None
        and (node.module == "fragsim" or node.module.startswith("fragsim."))
        for alias in node.names
    ]


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(path):
    imports = _fragsim_imports(path)
    assert imports, f"{path.name} imports nothing from fragsim"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports missing names: {missing}"
