"""Module structure: every import of the package sits at module level, and none forks."""

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_child_processes(path):
    # the census runs in one process; batch its work instead of forking workers
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    banned = {"multiprocessing", "subprocess", "concurrent"}
    assert not [m for m in modules if m.split(".")[0] in banned]
