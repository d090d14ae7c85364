"""The plain-loop references that the differential tests check a solver
against must not import the solver's own module: a reference built from
the code under test agrees with it by construction."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def _imported(path: Path) -> set[str]:
    """The modules a file imports, with ``from a import b`` counted as both
    a and a.b, since b may be a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("reference, module", [
    ("classic_reference.py", "udcover.classic"),
    ("sweep_reference.py", "udcover.sweep"),
    ("reference.py", "udcover.oracle"),
])
def test_reference_does_not_import_the_module_it_checks(reference, module):
    imported = _imported(TESTS / reference)
    assert "udcover.geom" in imported or "udcover" in imported
    assert module not in imported
