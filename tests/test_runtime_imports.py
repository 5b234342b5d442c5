"""The package imports only the standard library, numpy and itself.

numpy is the one runtime dependency (pyproject.toml); scipy, mpmath and
hypothesis serve the tests alone. Parsing the sources catches a stray
import without running any of them.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fragsim").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of the modules a file imports, relative imports aside."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_stdlib_numpy_or_relative(path):
    extra = _absolute_imports(path) - ALLOWED
    assert not extra, f"{path.name} imports {sorted(extra)}"
