"""Every module of the package reads each name it imports.

An AST walk, so the check needs no linter: a name bound by an import must
be read somewhere in its module, or be re-exported through `__all__`.
"""

import ast
from pathlib import Path

import pytest

import fectek

PACKAGE = Path(fectek.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that it never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_keeps_read_or_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from collections.abc import Sequence\n"
        "from .errors import ShapeError as SE\n"
        "from .model import save_model\n"
        "__all__ = ['save_model']\n"
        "def f(x: Sequence[int]):\n"
        "    return os.path.join(*x)\n"
    )
    assert unused_imports(source) == ["SE (line 4)"]
    assert unused_imports("from collections.abc import Sequence\n") == ["Sequence (line 1)"]
