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


def imported_modules(node: ast.AST) -> list[str]:
    """The absolute modules an import statement names, a name imported from
    a package counted as its submodule; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def imports_under(node: ast.AST, package: str) -> bool:
    return any(name == package or name.startswith(package + ".")
               for name in imported_modules(node))


def scipy_imports_run_at_import(source: str) -> list[int]:
    """Lines of the scipy imports that run when the module is imported: every
    one outside a function body."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if imports_under(child, "scipy"):
                lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return lines


def scipy_linalg_imports(source: str) -> list[int]:
    """Lines of every import of scipy.linalg or of a module under it, run at
    import or inside a function."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if imports_under(node, "scipy.linalg")]


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


def test_checker_finds_every_scipy_linalg_import():
    source = ("import scipy\nimport scipy.linalg\nfrom scipy import integrate, linalg\n"
              "from scipy.linalg.lapack import dpotrs\nimport scipy.linalgx\n"
              "from scipy.integrate import quad\n"
              "def f():\n    from scipy.linalg import cho_solve\n"
              "    import scipy.linalg.blas as blas\n")
    assert scipy_linalg_imports(source) == [2, 3, 4, 8, 9]


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.name for p in MODULES + TESTS])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_scipy_only_inside_functions(path):
    # importing fracctrl loads numpy alone: scipy loads where it is first used
    assert scipy_imports_run_at_import(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_fracop_imports_scipy_linalg(path):
    # every other module factors and solves through fracop.cho_factor and
    # cholesky_solve, so the Cholesky triangle is chosen in one place
    assert bool(scipy_linalg_imports(path.read_text())) == (path.name == "fracop.py")
