"""Every module of the package reads each name it imports, imports only the
standard library and numpy, and names every function and class it defines;
it writes files only through `write_file` and reads text only through
`open_text`.

AST walks, so the checks need no linter: a name bound by an import must be
read somewhere in its module.
"""

import ast
import sys
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
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of `source` that are neither the standard library,
    `numpy` nor the package itself: the runtime stays numpy-only."""
    allowed = sys.stdlib_module_names | {"numpy", "fectek"}
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return [name for name in modules if name.split(".")[0] not in allowed]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_import_checker_flags_every_third_party_form():
    source = (
        "import os.path, json\n"
        "import numpy as np\n"
        "from numpy.linalg import norm\n"
        "from fectek.errors import ShapeError\n"
        "from . import autograd\n"
        "from .model import new_model\n"
        "import scipy.sparse\n"
        "from pytest_benchmark import plugin\n"
        "def f():\n"
        "    import torch\n"
    )
    assert foreign_imports(source) == ["scipy.sparse", "pytest_benchmark", "torch"]


def test_checker_flags_unused_and_exported_names():
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
    assert unused_imports(source) == ["SE (line 4)", "save_model (line 5)"]
    assert unused_imports("from collections.abc import Sequence\n") == ["Sequence (line 1)"]


# Defined in the package but named only outside it.
UNREFERENCED_OK = {
    "TermWeights.as_dict": "perfbench/workloads.py calls it (ROADMAP item 5)",
    "FecTekModel.encode_ids": "perfbench/workloads.py calls it (ROADMAP item 5)",
}


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Functions, classes and methods of `sources` (dunders aside) whose name
    no `Name`, `Attribute` or import alias in any of them mentions."""
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined: dict[str, str] = {}
    owners: dict[ast.AST, str] = {}
    named: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                owners.update((child, node.name) for child in node.body)
            if isinstance(node, definitions):
                owner = owners.get(node)
                defined[f"{owner}.{node.name}" if owner else node.name] = node.name
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return sorted(
        where
        for where, name in defined.items()
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    )


def test_package_names_everything_it_defines():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_definitions(sources) == sorted(UNREFERENCED_OK)


def test_dead_code_checker_flags_unnamed_definitions_only():
    source = (
        "from .x import helper as h\n"
        "class Box:\n"
        "    def __init__(self): self.size = shape()\n"
        "    def used(self): return h\n"
        "    def unused(self): pass\n"
        "def shape(): return Box().used()\n"
        "def orphan(): pass\n"
        "def helper(): pass\n"
        "class Spare: pass\n"
    )
    assert unreferenced_definitions([source]) == ["Box.unused", "Spare", "orphan"]


# Writes outside `errors.write_file`, by module: each with its reason.
DIRECT_WRITES_OK = {
    ("trainer.py", "open(metrics_path, 'w', encoding='utf-8')"): (
        "metrics.jsonl is a log streamed during training; ROADMAP item 2(a) "
        "(resume) settles how it is written"
    ),
}


def open_modes(call: ast.Call) -> list[ast.expr] | None:
    """The mode arguments of an `open`, `io.open` or `<path>.open` call
    (empty when it gives none), or None for any other call."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        is_io = isinstance(func.value, ast.Name) and func.value.id == "io"
        position = 1 if is_io else 0
    else:
        return None
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    return modes + call.args[position : position + 1]


def is_literal(mode: ast.expr) -> bool:
    return isinstance(mode, ast.Constant) and isinstance(mode.value, str)


def direct_writes(source: str) -> list[str]:
    """Calls in `source` that write a file without `write_file`: `open` or
    `io.open` with a mode that can write (or one that is not a literal),
    `<path>.open` likewise, and any `.write_text` / `.write_bytes`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            found.append(f".{func.attr}(")
            continue
        for mode in open_modes(node) or []:
            if not is_literal(mode) or set(mode.value) & set("wax+"):
                found.append(ast.unparse(node))
    return found


def text_reads(source: str) -> list[str]:
    """Calls in `source` that read a file as text without `open_text`: an
    `open`, `io.open` or `<path>.open` with no mode, a text mode that can
    read or a mode that is not a literal, and any `.read_text`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "read_text":
            found.append(".read_text(")
            continue
        modes = open_modes(node)
        if modes is None:
            continue
        if not modes or any(
            not is_literal(mode) or ("b" not in mode.value and set(mode.value) & set("r+"))
            for mode in modes
        ):
            found.append(ast.unparse(node))
    return found


def test_only_write_file_writes_files():
    writes = {
        (path.name, call)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py"
        for call in direct_writes(path.read_text(encoding="utf-8"))
    }
    assert writes == set(DIRECT_WRITES_OK)


def test_only_open_text_reads_text():
    reads = [
        (path.name, call)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py"
        for call in text_reads(path.read_text(encoding="utf-8"))
    ]
    assert reads == []


def test_text_read_checker_flags_every_text_read_idiom():
    source = (
        "import io\n"
        "from pathlib import Path\n"
        "open(p, 'rb')\n"
        "open(p, 'w', encoding='utf-8')\n"
        "open(p, mode='r+b')\n"
        "Path(p).read_bytes()\n"
        "Path(p).open('ab')\n"
        "open(p)\n"
        "open(p, encoding='utf-8')\n"
        "open(p, 'rt')\n"
        "open(p, mode='w+')\n"
        "io.open(p, 'r', encoding='utf-8')\n"
        "Path(p).open()\n"
        "Path(p).read_text(encoding='utf-8')\n"
        "open(p, m)\n"
    )
    assert text_reads(source) == [
        "open(p)",
        "open(p, encoding='utf-8')",
        "open(p, 'rt')",
        "open(p, mode='w+')",
        "io.open(p, 'r', encoding='utf-8')",
        "Path(p).open()",
        ".read_text(",
        "open(p, m)",
    ]


def test_write_checker_flags_every_write_idiom():
    source = (
        "import io\n"
        "from pathlib import Path\n"
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, encoding='utf-8')\n"
        "Path(p).open()\n"
        "Path(p).read_text()\n"
        "Path(p).write_text('x')\n"
        "Path(p).write_bytes(b'x')\n"
        "open(p, 'w', encoding='utf-8')\n"
        "open(p, mode='ab')\n"
        "open(p, 'r+b')\n"
        "io.open(p, 'x')\n"
        "Path(p).open('w')\n"
        "open(p, m)\n"
    )
    assert direct_writes(source) == [
        ".write_text(",
        ".write_bytes(",
        "open(p, 'w', encoding='utf-8')",
        "open(p, mode='ab')",
        "open(p, 'r+b')",
        "io.open(p, 'x')",
        "Path(p).open('w')",
        "open(p, m)",
    ]
