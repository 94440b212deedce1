"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coaxiom"


def self_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of each call a function makes to itself by name:
    ``f(...)`` inside ``f``, or ``self.f(...)``/``cls.f(...)`` inside
    the method ``f``.  Calls in nested functions count too."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                    and f.value.id in ("self", "cls"):
                called = f.attr
            else:
                called = f.id if isinstance(f, ast.Name) else None
            if called == fn.name:
                out.append((fn.name, node.lineno))
    return out


def test_self_calls_are_found():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\n"
                     "class C:\n    def m(self):\n        return self.m()\n\n"
                     "def g():\n    def go():\n        go()\n    return f(1)\n")
    assert self_calls(tree) == [("f", 2), ("m", 6), ("go", 10)]


def test_no_function_in_the_package_calls_itself():
    # Nesting depth comes from the input, so a recursive walk would end
    # in a RecursionError on deep enough input; every walk keeps its own
    # stack instead.
    found = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for name, line in self_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each name the module imports but neither uses as
    a name nor lists in its ``__all__``.  ``from __future__`` and ``*``
    imports are exempt; ``import a.b`` binds ``a``."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [((a.asname or a.name).split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno)
                         for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in ast.walk(node.value)
                        if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return [(name, line) for name, line in imported if name not in used]


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport sys as system\n"
                     "from typing import Any, Optional\nfrom x import *\n"
                     "from y import Exported\n__all__ = ['Exported']\n"
                     "def f(a: Optional[int]) -> None:\n    return system.exit(a)\n")
    assert unused_imports(tree) == [("os", 2), ("Any", 4)]


def test_every_import_in_the_package_is_used():
    found = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for name, line in unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def product_uses(tree: ast.Module) -> list[int]:
    """Lines that name ``itertools.product``: as an attribute of the
    module under any alias, or imported from it."""
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name == "itertools"}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "product"
            and isinstance(node.value, ast.Name) and node.value.id in aliases
            or isinstance(node, ast.ImportFrom) and node.module == "itertools"
            and any(a.name == "product" for a in node.names)]


def powerset_sites(tree: ast.Module) -> list[int]:
    """Lines that define, assign or import a name ``_powerset``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "_powerset"
            or isinstance(node, ast.Name) and node.id == "_powerset"
            and isinstance(node.ctx, ast.Store)
            or isinstance(node, ast.ImportFrom)
            and any(a.name == "_powerset" for a in node.names)]


def test_product_and_powerset_uses_are_found():
    tree = ast.parse("import itertools as it\nfrom itertools import product\n"
                     "from .common import _powerset\ndef _powerset(): pass\n"
                     "x = it.product(a, b)\n_powerset = 1\ny = other.product\n")
    assert product_uses(tree) == [2, 5]
    assert powerset_sites(tree) == [3, 4, 6]


def test_only_the_site_grounding_takes_a_product():
    # Every generator grounds through gen/common.py's site table, whose
    # product loop is the only one of the package.
    found = [f"{path.relative_to(PACKAGE)}:{line}"
             for path in sorted(PACKAGE.rglob("*.py"))
             if path.relative_to(PACKAGE).as_posix() != "gen/common.py"
             for line in product_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    found = [f"{path.relative_to(PACKAGE)}:{line}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for line in powerset_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def rule_builds(tree: ast.Module) -> list[int]:
    """Lines that name ``Rule`` (as a name, an attribute or an import)
    or call ``System``, in order."""
    return sorted(node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "Rule"
            or isinstance(node, ast.Attribute) and node.attr == "Rule"
            or isinstance(node, ast.ImportFrom) and any(a.name == "Rule" for a in node.names)
            or isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "System"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "System"))


def test_rule_builds_are_found():
    tree = ast.parse("from ..engine import Rule, System\nimport coaxiom.engine as e\n"
                     "def f() -> System:\n    return System([e.Rule(x)])\n"
                     "r: list[Rule] = []\ns = e.System(r)\n")
    assert rule_builds(tree) == [1, 4, 4, 5, 6]


def test_only_the_site_grounding_builds_rules():
    # A generator states its sites; _ground alone makes them rules.
    found = [f"{path.relative_to(PACKAGE)}:{line}"
             for path in sorted((PACKAGE / "gen").glob("*.py"))
             if path.name != "common.py"
             for line in rule_builds(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
