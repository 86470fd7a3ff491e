"""The exact layer stays exact: the exact scalars and polynomials, the datum,
the Bernoulli tables and the transformation polynomials import no
floating-point library."""

import ast
from pathlib import Path

import pytest

import twistlab

PACKAGE = Path(twistlab.__file__).resolve().parent


@pytest.mark.parametrize("module", ["exactpoly", "funceq", "expansion", "bernoulli"])
def test_exact_module_imports_no_mpmath(module):
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "mpmath" not in imported
