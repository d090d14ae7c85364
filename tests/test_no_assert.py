"""Contract checks in the library are ``if ... raise``: ``python -O``
strips ``assert`` statements, so none may stand in ``src/udcover``."""

import ast
from pathlib import Path

import udcover


def test_library_has_no_assert_statements():
    modules = sorted(Path(udcover.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
