"""The package imports only the standard library, numpy and itself, and
holds no code that only the tests call.

numpy is the one runtime dependency (pyproject.toml); scipy, mpmath and
hypothesis serve the tests alone. Parsing the sources catches a stray
import, or a public definition nothing in the package, the benchmark or
the demos uses, without running any of them.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "fragsim").glob("*.py"))
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


# Public definitions kept without a caller, each with its reason.
UNCALLED = {
    # ROADMAP item 2 audits the depth windows against the exact laws by
    # these inverses of the window envelopes
    "largest_depth_envelope_inverses",
    "smallest_depth_envelope_inverse",
    # the paper's left-tail exponent, against which the sandwich is read
    "stirling_exponent",
}


def _used_names(statement: ast.AST) -> set[str]:
    """Names a statement uses, as a variable or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(statement)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _defined_names(statement: ast.AST) -> list[str]:
    """Names a top-level statement defines: a function, a class, or the
    constants an assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_every_public_definition_has_a_caller():
    # a definition is a function, a class or a constant; a use counts from
    # any top-level statement of the package (its re-exports in __init__.py
    # aside), the benchmark or the demos, but not from the definition's own
    # statement
    users = [p for p in SOURCES if p.name != "__init__.py"]
    users += sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    uses: dict[str, set[tuple[Path, int]]] = {}
    for path in users:
        for i, statement in enumerate(ast.parse(path.read_text(), filename=str(path)).body):
            for name in _used_names(statement):
                uses.setdefault(name, set()).add((path, i))
    uncalled = set()
    for path in SOURCES:
        for i, statement in enumerate(ast.parse(path.read_text(), filename=str(path)).body):
            for name in _defined_names(statement):
                if not name.startswith("_") and not uses.get(name, set()) - {(path, i)}:
                    uncalled.add(name)
    assert uncalled == UNCALLED
