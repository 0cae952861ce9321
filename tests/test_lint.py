"""Static checks on the package source that need no linter."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "chambers").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports, at any depth, that the module never references.

    Imports inside functions count too.  A name listed in a literal
    `__all__` counts as referenced (a re-export).
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import ceil, floor\nceil(1)\n") == [
        "line 1: os", "line 2: floor"]
    assert unused_imports("from . import a as b\n__all__ = ['b']\n") == []
    assert unused_imports("def f():\n    import numpy as np\n"
                          "    from scipy import sparse\n    return sparse\n") == ["line 2: np"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
