"""Static checks on the package source that need no linter."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "chambers").glob("*.py"))
REFERRERS = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))


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


def third_party_modules(source: str) -> set[str]:
    """Top-level modules outside the standard library that the source
    imports, at any depth; relative imports are the package's own."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found - sys.stdlib_module_names


def dependency_mismatches(pyproject: str, sources: list[str]) -> list[str]:
    """Names on which the `dependencies` of a pyproject.toml and the
    third-party imports of the sources disagree, each with its side."""
    tomllib = pytest.importorskip("tomllib")
    declared = {re.match(r"[\w.-]+", dep).group()
                for dep in tomllib.loads(pyproject)["project"]["dependencies"]}
    imported = set().union(*map(third_party_modules, sources))
    return sorted([f"{name}: declared, never imported" for name in declared - imported]
                  + [f"{name}: imported, not declared" for name in imported - declared])


def test_detects_a_dependency_mismatch():
    sources = ["import json\ndef f():\n    import numpy as np\n    return np\n",
               "from . import toric\nfrom collections.abc import Callable\n"]
    assert dependency_mismatches('[project]\ndependencies = ["numpy>=1.24", "scipy>=1.10"]\n',
                                 sources) == ["scipy: declared, never imported"]
    assert dependency_mismatches('[project]\ndependencies = []\n',
                                 sources) == ["numpy: imported, not declared"]


def test_dependencies_are_the_third_party_imports():
    sources = [p.read_text() for p in SOURCES]
    assert dependency_mismatches((ROOT / "pyproject.toml").read_text(), sources) == []


def module_level_names(source: str) -> dict[str, int]:
    """Functions, classes and plainly assigned names at a module's top level,
    each with its line; dunder names such as `__all__` are left out."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names.update((name, node.lineno) for name in targets if not name.startswith("__"))
    return names


def referenced_names(source: str) -> set[str]:
    """Names the source reads, reads as an attribute or imports."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
    return refs


def class_member_names(source: str) -> dict[str, int]:
    """Functions and properties defined in the source's classes, at any
    depth, each with its line; dunder methods are left out."""
    names = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            names.update((item.name, item.lineno) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not item.name.startswith("__"))
    return names


def test_detects_an_unreferenced_name():
    source = ("X = 1\nY: int = 2\n__all__ = []\ndef f():\n    return Y\nclass C:\n"
              "    def __init__(self):\n        self.g()\n    def g(self):\n        pass\n"
              "    @property\n    def h(self):\n        pass\n")
    assert module_level_names(source) == {"X": 1, "Y": 2, "f": 4, "C": 6}
    assert class_member_names(source) == {"g": 9, "h": 12}
    refs = referenced_names(source) | referenced_names("from m import C\nimport m\nm.f()\n")
    assert sorted(set(module_level_names(source)) - refs) == ["X"]
    assert sorted(set(class_member_names(source)) - refs) == ["h"]


def unreferenced(defined, referrers=REFERRERS) -> list[str]:
    """'file: name' for each name `defined` finds in the package's sources
    that no file of `referrers` reads."""
    refs = set().union(*(referenced_names(p.read_text()) for p in referrers))
    return [f"{p.name}: {name}" for p in SOURCES
            for name in defined(p.read_text()) if name not in refs]


def test_every_module_level_name_is_referenced():
    assert unreferenced(module_level_names) == []


def test_every_class_member_is_referenced():
    assert unreferenced(class_member_names) == []


# Names in src/ that only tests read, each with the reason it stays.
READ_BY_TESTS_ONLY = {
    "bounds.py: sphere": "the Manifold table states the paper's homological bound "
                         "for every kind it covers, not only RP^d and T^d",
    "bounds.py: orientable_surface": "the Manifold table, as sphere",
    "bounds.py: klein_bottle": "the Manifold table, as sphere",
    "bounds.py: coefficient_group": "the Manifold table, as sphere",
    "projective.py: evaluate_poly": "serves the intersection poset, the tests' reference "
                                    "engine, and goes with it",
    "projective.py: level_sizes": "the intersection poset's, as evaluate_poly",
    "toric.py: load_toric": "pairs with dump_toric, which `chambers gen` writes",
}


def test_no_name_is_read_by_tests_alone():
    package = [p for p in REFERRERS if p.relative_to(ROOT).parts[0] != "tests"]
    found = unreferenced(module_level_names, package) + unreferenced(class_member_names, package)
    assert sorted(found) == sorted(READ_BY_TESTS_ONLY)


def except_clauses_naming(source: str, name: str) -> list[int]:
    """Lines of the `except` clauses whose caught types name `name`, bare, as
    an attribute or in a tuple."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and any(isinstance(n, ast.Name) and n.id == name
                    or isinstance(n, ast.Attribute) and n.attr == name
                    for n in ast.walk(node.type))]


def test_detects_an_except_clause_naming_a_class():
    source = ("try:\n    f()\nexcept gn.PlacementError:\n    pass\n"
              "try:\n    f()\nexcept (KeyError, PlacementError) as exc:\n    pass\n"
              "try:\n    f()\nexcept ValueError:\n    pass\nexcept:\n    pass\n")
    assert except_clauses_naming(source, "PlacementError") == [3, 7]


# Every catalogue recipe builds, so the searches and the battery never catch
# a PlacementError: `spectrum.build_recipe` turns one into an internal error.
@pytest.mark.parametrize("name", ["spectrum.py", "acceptance.py"])
def test_no_placement_error_is_caught(name):
    source = (ROOT / "src" / "chambers" / name).read_text()
    assert except_clauses_naming(source, "PlacementError") == []


# One budget of work, `feasibility.SWEEP_GUARD`, decides what every exact
# engine refuses; the grid's node guard goes when the grid does.  A size
# constant for one engine fails here.
def test_the_only_guards_are_the_work_budget_and_the_grid():
    guards = [f"{p.name}: {name}" for p in SOURCES
              for name in module_level_names(p.read_text()) if name.endswith("_GUARD")]
    assert guards == ["feasibility.py: SWEEP_GUARD", "toric.py: GRID_NODE_GUARD"]


def budget_spenders(source: str) -> list[int]:
    """Lines that subtract in place from an item of `budget`, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub)
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.target.value, ast.Name) and node.target.value.id == "budget"]


def test_detects_a_budget_spender():
    source = "budget[0] -= 5\nbudget[0] += 1\nother[0] -= 1\ndef f():\n    budget[i] -= 2\n"
    assert budget_spenders(source) == [1, 5]


# The work budget is spent in one place, `feasibility.charge`, so that every
# engine refuses by the same rule.  Spending it anywhere else fails here.
def test_only_feasibility_spends_the_work_budget():
    spenders = [f"{p.name}: line {line}" for p in SOURCES
                for line in budget_spenders(p.read_text())]
    assert [s.split(":")[0] for s in spenders] == ["feasibility.py"]
