"""No module imports a name it never reads, and no private function,
class or method of the package is left without a caller.

No linter ships with the project, so this test is the check: it parses
every module of the package (except `__init__.py`, whose imports are its
exports) and every test module for unused imports, and every module of
the package for unreferenced private definitions.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gerbekit").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """(line, name) of each imported name the source never reads."""
    imported = {}
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os.path\nfrom typing import Dict, List\n"
                          "x: Dict[str, int] = {}\n") == [(1, "os"),
                                                          (2, "List")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _references(node):
    """Names read and attributes taken anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def unreferenced_private(sources):
    """Names of the private top-level functions and classes, and private
    methods, that no source references outside their own definition."""
    trees = [ast.parse(source) for source in sources]
    defs = []
    for tree in trees:
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + members:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) \
                        and _is_private(d.name):
                    defs.append(d)
    counts = {}
    for tree in trees:
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    return sorted(d.name for d in defs
                  if counts.get(d.name, 0) == list(_references(d)).count(d.name))


def test_the_scan_finds_an_unreferenced_private_definition():
    assert unreferenced_private([
        "def _dead(n):\n    return _dead(n - 1)\n"
        "def _used():\n    pass\n"
        "class K:\n    def _gone(self):\n        pass\n"
        "    def _kept(self):\n        pass\n",
        "from m import _used\n_used()\nK()._kept()\n"]) == ["_dead", "_gone"]


def test_every_private_definition_is_referenced():
    assert unreferenced_private(p.read_text() for p in PACKAGE) == []
