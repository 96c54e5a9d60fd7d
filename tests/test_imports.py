"""Every name a module of the package imports is used in that module, and only
linalg calls numpy's Hermitian eigensolvers."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "tracelab"


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads as ld\n"
                          "from __future__ import annotations\nprint(dumps)\n") == ["ld", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def direct_eigensolver_calls(source: str) -> list[int]:
    """The lines of source that call np.linalg.eigh or np.linalg.eigvalsh."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("eigh", "eigvalsh")
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == "linalg"
                  and isinstance(node.func.value.value, ast.Name)
                  and node.func.value.value.id in ("np", "numpy"))


def test_the_check_finds_a_direct_eigensolver_call():
    assert direct_eigensolver_calls("import numpy as np\nw = np.linalg.eigvalsh(H)\n"
                                    "w, V = eigh(H)\nnumpy.linalg.eigh(H)\n") == [2, 4]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "linalg.py"))
def test_eigensolvers_run_through_linalg_eigh(module):
    # linalg.eigh turns a solver failure into a MatrixError
    assert direct_eigensolver_calls((SRC / module).read_text()) == []
