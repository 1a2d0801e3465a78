"""Module structure: every import of the package sits at module level."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "shbif"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [
        f"{path.name}:{node.lineno} in {fn.name}"
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not local
