"""No module imports a name it never reads, no private function, class,
method, module-level name or instance attribute of the package is left
unread, no parameter default of the package is one that every caller
leaves as it is, and no module of the package asks an object with
`hasattr` what it is.

No linter ships with the project, so this test is the check: it parses
every module of the package (except `__init__.py`, whose imports are its
exports) and every test module for unused imports, every module of the
package for unreferenced private definitions, and the package, the tests
and the benchmark driver for the calls that override each default.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gerbekit").glob("*.py"))
CALLERS = sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))
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


def _bound_names(node):
    """Names bound by a module-level assignment statement."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _self_attributes(tree, ctx):
    """Attribute names taken in the context (ast.Store, ast.Load); for a
    store, only those set on self."""
    return {sub.attr for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ctx)
            and (ctx is ast.Load or (isinstance(sub.value, ast.Name)
                                     and sub.value.id == "self"))}


def unreferenced_private(sources):
    """Names of the private top-level functions, classes and assigned
    names, and private methods, that no source references outside their
    own definition; and of the private attributes set on self that no
    source reads."""
    trees = [ast.parse(source) for source in sources]
    defs = []
    for tree in trees:
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + members:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) \
                        and _is_private(d.name):
                    defs.append((d.name, d))
            defs += [(name, node) for name in _bound_names(node)
                     if _is_private(name)]
    counts = {}
    for tree in trees:
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    unread = set().union(*(_self_attributes(t, ast.Store) for t in trees)) \
        - set().union(*(_self_attributes(t, ast.Load) for t in trees))
    return sorted([name for name, d in defs
                   if counts.get(name, 0) == list(_references(d)).count(name)]
                  + [name for name in unread if _is_private(name)])


def test_the_scan_finds_an_unreferenced_private_definition():
    assert unreferenced_private([
        "def _dead(n):\n    return _dead(n - 1)\n"
        "def _used():\n    pass\n"
        "class K:\n    def _gone(self):\n        pass\n"
        "    def _kept(self):\n        pass\n",
        "from m import _used\n_used()\nK()._kept()\n"]) == ["_dead", "_gone"]


def test_the_scan_finds_an_unread_private_name_or_attribute():
    assert unreferenced_private([
        "_DROP = 1\n_KEEP: int = 2\n_A, _B = 1, 2\n__all__ = []\n"
        "class K:\n    def __init__(self):\n        self._memo = {}\n"
        "        self._kept = []\n        self.public = 0\n"
        "        other._elsewhere = 1\n"
        "    def get(self):\n        self._kept.append(_B)\n",
        "from m import _KEEP\n"]) == ["_A", "_DROP", "_memo"]


def test_every_private_definition_is_referenced():
    assert unreferenced_private(p.read_text() for p in PACKAGE) == []


def _defaulted(d, method: bool):
    """(position, name) of each parameter of d that has a default, the
    position counting the arguments a call passes (a method's self is not
    passed) and None for a keyword-only parameter."""
    a = d.args
    positional = a.posonlyargs + a.args
    static = any(isinstance(x, ast.Name) and x.id == "staticmethod"
                 for x in d.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(a.defaults)
    return ([(i - skip, p.arg) for i, p in enumerate(positional) if i >= first]
            + [(None, p.arg) for p, v in zip(a.kwonlyargs, a.kw_defaults)
               if v is not None])


def _called_name(call):
    f = call.func
    return (f.id if isinstance(f, ast.Name)
            else f.attr if isinstance(f, ast.Attribute) else None)


def unoverridden_defaults(package, others):
    """(function, parameter) of each parameter default of a function in
    the package sources that no call in the package or the other sources
    overrides.

    A call names the function (or, for `__init__`, its class) and
    overrides a default it passes by position or by keyword; a `*` or
    `**` argument overrides every default.  A call from inside the
    function's own definition does not count.  Calls are matched by name,
    so a call of any function of that name counts.
    """
    trees = [ast.parse(source) for source in list(package) + list(others)]
    defs = []
    for i, tree in enumerate(trees[:len(package)]):
        owner = {id(d): c.name for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for d in c.body}
        for d in ast.walk(tree):
            if isinstance(d, ast.FunctionDef):
                params = _defaulted(d, id(d) in owner)
                if params:
                    defs.append((i, d, owner.get(id(d)), params))
    calls = [(j, c) for j, tree in enumerate(trees) for c in ast.walk(tree)
             if isinstance(c, ast.Call)]
    out = []
    for i, d, cls, params in defs:
        name = cls if d.name == "__init__" else d.name
        left = list(params)
        for j, c in calls:
            if _called_name(c) != name or (
                    j == i and d.lineno <= c.lineno <= d.end_lineno):
                continue
            if any(isinstance(a, ast.Starred) for a in c.args) or any(
                    k.arg is None for k in c.keywords):
                left = []
            named = {k.arg for k in c.keywords}
            left = [(pos, p) for pos, p in left if p not in named
                    and (pos is None or pos >= len(c.args))]
        out += [(d.name if cls is None else f"{cls}.{d.name}", p)
                for _, p in left]
    return out


def test_the_scan_finds_a_default_no_call_overrides():
    assert unoverridden_defaults(
        ["def f(a, b=1, c=2, *, d=3):\n    return f(a, 0, 0, d=0)\n"
         "def g(x=1):\n    pass\n"
         "def h(y=1, z=2):\n    pass\n"
         "class K:\n    def __init__(self, v=0, w=0):\n        pass\n"
         "    def m(self, u=0):\n        pass\n"
         "    @staticmethod\n    def s(t=0):\n        pass\n"],
        ["f(1, c=5)\nh(*args)\nK(1)\nK().m(u=2)\nK.s(1)\n"]) == [
            ("f", "b"), ("f", "d"), ("g", "x"), ("K.__init__", "w")]


def test_every_parameter_default_is_overridden_by_some_call():
    assert unoverridden_defaults([p.read_text() for p in PACKAGE],
                                 [p.read_text() for p in CALLERS]) == []


def hasattr_calls(source: str):
    """Lines of the source's calls of hasattr."""
    return [c.lineno for c in ast.walk(ast.parse(source))
            if isinstance(c, ast.Call) and _called_name(c) == "hasattr"]


def test_the_scan_finds_a_hasattr_call():
    assert hasattr_calls("x = 1\nif hasattr(x, 'real'):\n"
                         "    y = [hasattr(x, a) for a in 'ab']\n"
                         "has = getattr(x, 'hasattr', None)\n") == [2, 3]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_module_of_the_package_calls_hasattr(path):
    # an object says what it is by its type and attributes, not by which
    # attributes it happens to have
    assert hasattr_calls(path.read_text()) == []


# the package's two halves: the forms (the double complex, holonomy,
# fiber integration, Chern-Simons and their files) and the lattices with
# their modular forms; only the battery, the CLI and the exports join them
FORMS = {"trigform", "covers", "cochain", "holonomy", "fiberint", "liecs",
         "serialize"}
LATTICES = {"lattice", "modform"}
JOINS = {"suites", "cli", "__init__"}


def package_imports(source: str):
    """The modules of the package that the source imports, by relative
    import, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module
                         else [a.name for a in node.names])
    return found


def test_the_scan_finds_the_package_imports():
    assert package_imports(
        "import numpy\nfrom . import liecs, serialize\n"
        "from .lattice import builtin\nfrom typing import Dict\n"
        "def f():\n    from .holonomy import holonomy\n") == {
            "liecs", "serialize", "lattice", "holonomy"}


def test_only_the_battery_cli_and_exports_join_the_two_halves():
    imports = {p.stem: package_imports(p.read_text()) for p in PACKAGE}
    assert set(imports) == FORMS | LATTICES | JOINS
    assert {m for m in FORMS if imports[m] & LATTICES} == set()
    assert {m for m in LATTICES if imports[m] & FORMS} == set()
    assert {m for m, got in imports.items()
            if got & FORMS and got & LATTICES} <= JOINS
