"""Every name a module of the package imports is used in that module, only
linalg calls numpy's Hermitian eigensolvers or imports the LAPACK gufuncs
behind them, lab reaches eval_family and its one evaluator _evaluated_pairs
from three functions each, and only lab._blocks reads islice."""

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


def lapack_gufunc_uses(source: str) -> list[int]:
    """The lines of source that import numpy.linalg._umath_linalg (or a name from
    it) or reach it as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.linalg._umath_linalg") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.linalg._umath_linalg") or (
                node.module == "numpy.linalg"
                and any(alias.name == "_umath_linalg" for alias in node.names))
        else:
            hit = isinstance(node, ast.Attribute) and node.attr == "_umath_linalg"
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_finds_each_way_to_the_lapack_gufuncs():
    assert lapack_gufunc_uses(
        "import numpy as np\nfrom numpy.linalg import _umath_linalg\n"
        "from numpy.linalg._umath_linalg import eigh_lo\nimport numpy.linalg._umath_linalg\n"
        "np.linalg._umath_linalg.eigvalsh_lo(H)\nfrom numpy.linalg import eigh\n") == [2, 3, 4, 5]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_linalg_reaches_numpys_lapack_gufuncs(module):
    # linalg.eigh is the one place that calls them, with numpy's error handling
    uses = lapack_gufunc_uses((SRC / module).read_text())
    assert (uses != []) == (module == "linalg.py")


def holders(source: str, name: str) -> list[str]:
    """The top-level functions of source that read name, or an attribute of that
    name, anywhere inside them, sorted; "<module>" for a read outside any
    function."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)):
                found.add(top.name if isinstance(top, ast.FunctionDef) else "<module>")
    return sorted(found)


def test_the_check_finds_each_function_that_reaches_eval_family():
    assert holders(
        "from .families import eval_family\n"
        "def f(A):\n    def g(B):\n        return eval_family(s, B)\n    return g(A)\n"
        "def h(A):\n    return families.eval_family(s, A)\n"
        "def k():\n    return partial(eval_family, s)\n"
        "def m(A):\n    return evaluate(s, A)\n"
        "x = eval_family(s, A)\n", "eval_family") == ["<module>", "f", "h", "k"]


def test_lab_evaluates_families_in_three_functions():
    # the hunt, its stability re-check and replay_certificate share _evaluated_pairs;
    # midpoint trials still evaluate one pair per call, and the curvature scan its rows
    assert holders((SRC / "lab.py").read_text(), "eval_family") == [
        "_curvature_direction", "_evaluated_pairs", "_midpoint_reports"]


def test_lab_reaches_its_one_evaluator_from_three_functions():
    # the hunt's candidates and its stability re-check through _candidate_values,
    # the climb's steps and replay_certificate directly
    assert holders((SRC / "lab.py").read_text(), "_evaluated_pairs") == [
        "_candidate_values", "_hill_climb", "replay_certificate"]


def test_lab_takes_trial_blocks_in_one_function():
    # every randomized trial loop takes its blocks through _blocks
    assert holders((SRC / "lab.py").read_text(), "islice") == ["_blocks"]
