"""Checks on the package source itself, read with the standard library's ast."""

import ast
from pathlib import Path

import pytest

import fracctrl

MODULES = sorted(p for p in Path(fracctrl.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def scipy_imports_run_at_import(source: str) -> list[int]:
    """Lines of the scipy imports that run when the module is imported: every
    one outside a function body."""
    def imports_scipy(node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            return False
        return any(name == "scipy" or name.startswith("scipy.") for name in names)

    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if imports_scipy(child):
                lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return lines


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from math import inf, nan\nx = np.zeros(1) + inf\n")
    assert unused_imports(source) == ["os", "nan"]


def test_checker_finds_a_scipy_import_run_at_import():
    source = ("import scipy\nfrom scipy.linalg import lapack\nimport scipyx\n"
              "if lapack:\n    import scipy.linalg.lapack as lp\n"
              "class C:\n    from scipy import integrate\n"
              "    def f(self):\n        from scipy.integrate import quad\n"
              "def g():\n    import scipy.linalg\n")
    assert scipy_imports_run_at_import(source) == [1, 2, 5, 7]


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.name for p in MODULES + TESTS])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_scipy_only_inside_functions(path):
    # importing fracctrl loads numpy alone: scipy loads where it is first used
    assert scipy_imports_run_at_import(path.read_text()) == []
