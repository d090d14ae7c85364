"""Every top-level name that ``src/udcover`` defines is used by the library
or by perfbench: code that only tests call belongs under ``tests/``."""

import ast
from pathlib import Path

import udcover

SRC = Path(udcover.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _defined(module: ast.Module):
    """The names a module binds at top level by def, class or assignment,
    dunders left out."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _loaded(module: ast.Module):
    """The names a module reads, as a name or as an attribute: imports and
    the strings of ``__all__`` are not reads."""
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_library_defines_no_test_only_names():
    modules = sorted(SRC.glob("*.py"))
    users = modules + sorted(PERFBENCH.glob("*.py"))
    assert len(modules) >= 10 and len(users) > len(modules)
    loaded = {name for path in users for name in _loaded(_parse(path))}
    unused = [f"{path.name}:{name}"
              for path in modules
              for name in _defined(_parse(path))
              if not (name.startswith("__") and name.endswith("__")) and name not in loaded]
    assert unused == []
