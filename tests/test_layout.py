"""The representation of finite quadratic forms is decided in `zlat.forms` alone."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "zlat")


@pytest.mark.parametrize("module", ["exact", "lattice", "gluing", "classify", "stability"])
def test_no_fractions_import(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    assert "fractions" not in imported
