"""Module structure: every import of the package sits at module level, none forks, and
every private helper has a caller in the package."""

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


def test_every_private_helper_has_a_src_caller():
    # a private helper that only tests call is code the package does not need
    refs, helpers = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                helpers.append((f"{path.name}:{stmt.name}", stmt))
            refs.append((stmt, {n.id if isinstance(n, ast.Name) else n.attr
                                for n in ast.walk(stmt)
                                if isinstance(n, (ast.Name, ast.Attribute))}))
    unused = [name for name, node in helpers
              if not any(node.name in used for stmt, used in refs if stmt is not node)]
    assert not unused
