"""Every name a module under src/qrs imports is used in that module, every
module-level private name is referenced somewhere in the package, every
public one is referenced by some module other than __init__ (exporting a
name does not use it), every method of a class is called somewhere in the
package, every cache is bounded, and no module but qcore does arithmetic on
packed exponents. The `test` extra of pyproject.toml names every
third-party module that the tests and the bench harness import."""

import ast
import pathlib
import re
import sys
from collections import Counter

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qrs"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom x import y, z\nprint(sys, z)\n") \
        == [(1, "os"), (3, "y")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def _defined(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _top_level(sources: dict):
    """Every top-level statement as (module, node), the names each one
    refers to, and how many statements refer to each name."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    refs = [_referenced(node) for _, node in statements]
    return statements, refs, Counter(name for names in refs for name in names)


def unreferenced_privates(sources: dict) -> list:
    """(module, line, name) of each module-level private function, class or
    constant that no other top-level statement of any module refers to. A
    function decorated by a call to a decorator of its own module (a
    registry such as idverify._case) counts as used."""
    statements, refs, count = _top_level(sources)
    local = {}
    for module, node in statements:
        local.setdefault(module, set()).update(_defined(node))
    found = []
    for (module, node), own in zip(statements, refs):
        registered = any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                         and d.func.id in local[module]
                         for d in getattr(node, "decorator_list", ()))
        found += [(module, node.lineno, name) for name in _defined(node)
                  if name.startswith("_") and not name.startswith("__")
                  and count[name] == (name in own) and not registered]
    return sorted(found)


def test_the_check_sees_an_unreferenced_private():
    sources = {
        "a": "_A = 1\n_B = 2\ndef _f():\n    return _f()\ndef _g():\n    pass\n"
             "def _reg(x):\n    return lambda f: f\n@_reg(1)\ndef _h():\n    pass\n"
             "@property\ndef _p():\n    pass\nprint(_A)\n",
        "b": "from a import _g\n",
    }
    assert unreferenced_privates(sources) == [("a", 2, "_B"), ("a", 3, "_f"), ("a", 13, "_p")]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def dead_publics(sources: dict) -> list:
    """(module, line, name) of each module-level public function, class or
    constant that no other top-level statement of any module refers to.
    Leave the package's __init__ out of `sources`: a name that only it
    imports, to export, has no caller in the package."""
    statements, refs, count = _top_level(sources)
    return sorted((module, node.lineno, name)
                  for (module, node), own in zip(statements, refs)
                  for name in _defined(node)
                  if not name.startswith("_") and count[name] == (name in own))


def test_the_check_sees_a_dead_public_name():
    sources = {
        "a": "A = 1\nB = 2\ndef f():\n    return f()\ndef g():\n    pass\n"
             "class C:\n    pass\ndef h():\n    return A\n",
        "b": "from a import g\n",
    }
    assert dead_publics(sources) == [("a", 2, "B"), ("a", 3, "f"), ("a", 7, "C"), ("a", 9, "h")]


def test_every_public_name_is_referenced_outside_init():
    import qrs
    sources = {p.name: p.read_text() for p in MODULES}
    assert dead_publics(sources) == []
    # so every exported name has a caller in the package, too
    defined = {name for p in MODULES for node in ast.parse(p.read_text()).body
               for name in _defined(node)}
    assert set(qrs.__all__) <= defined


def unused_methods(sources: dict) -> list:
    """(module, line, "Class.method") of each non-dunder method that a class
    defines and that no module loads as an attribute or names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                used.add(node.id)
    return sorted((module, item.lineno, f"{node.name}.{item.name}")
                  for module, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for item in node.body
                  if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not item.name.startswith("__") and item.name not in used)


def test_the_check_sees_an_unused_method():
    sources = {
        "a": "class C:\n    def f(self):\n        return self.g()\n"
             "    def g(self):\n        pass\n    def h(self):\n        pass\n"
             "    def __eq__(self, other):\n        pass\n"
             "    @property\n    def p(self):\n        pass\n",
        "b": "from a import C\nC().f\nx = C.k\n",
    }
    assert unused_methods(sources) == [("a", 6, "C.h"), ("a", 11, "C.p")]


def test_every_method_is_called_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_methods(sources) == []


def unbounded_caches(source: str) -> list:
    """(line, name) of each function cached by `cache`, a bare `lru_cache`
    or an `lru_cache` whose maxsize is None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for d in getattr(node, "decorator_list", ()):
            func = d.func if isinstance(d, ast.Call) else d
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "lru_cache":
                args = d.args + [k.value for k in d.keywords if k.arg == "maxsize"] \
                    if isinstance(d, ast.Call) else []
                bounded = bool(args) and not (isinstance(args[0], ast.Constant)
                                              and args[0].value is None)
            else:
                bounded = name != "cache"
            if not bounded:
                found.append((node.lineno, node.name))
    return found


def test_the_check_sees_an_unbounded_cache():
    source = ("from functools import cache, lru_cache\nimport functools\n"
              "@lru_cache\ndef a(): pass\n@lru_cache(maxsize=None)\ndef b(): pass\n"
              "@functools.lru_cache(None)\ndef c(): pass\n@cache\ndef d(): pass\n"
              "@lru_cache(maxsize=8)\ndef e(): pass\n@functools.lru_cache(N)\ndef f(): pass\n"
              "@property\ndef g(): pass\n")
    assert unbounded_caches(source) == [(4, "a"), (6, "b"), (8, "c"), (10, "d")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_cache_has_a_finite_maxsize(path):
    assert unbounded_caches(path.read_text()) == []


PACKED = {"_FIELD", "_FIELD_MASK", "_unpack", "_moves", "_repack"}


def packed_exponent_uses(source: str) -> list:
    """(line, what) of each name of qcore's packed exponent format in the
    source, and of each << or >>."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else node.attr \
            if isinstance(node, ast.Attribute) else node.name \
            if isinstance(node, ast.alias) else None
        if name in PACKED:
            found.append((node.lineno, name))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, (ast.LShift, ast.RShift)):
            found.append((node.lineno, "<<" if isinstance(node.op, ast.LShift) else ">>"))
    return sorted(found)


def test_the_check_sees_packed_exponent_arithmetic():
    source = ("from .qcore import _FIELD, _pack\nfrom . import qcore\n"
              "x = 1 << qcore._FIELD_MASK\ny = _unpack(x, 2) >> 3\nx <<= 1\nz = x & 1\n")
    assert packed_exponent_uses(source) == [
        (1, "_FIELD"), (3, "<<"), (3, "_FIELD_MASK"), (4, ">>"), (4, "_unpack"), (5, "<<")]


OUTSIDE_QCORE = [p for p in sorted(SRC.glob("*.py")) if p.name != "qcore.py"]


@pytest.mark.parametrize("path", OUTSIDE_QCORE, ids=[p.name for p in OUTSIDE_QCORE])
def test_packed_exponents_stay_in_qcore(path):
    # qcore's `_split` reads coefficients out of a polynomial
    assert packed_exponent_uses(path.read_text()) == []


def third_party_imports(paths) -> set:
    """The top-level modules that the files import from outside the standard
    library, the package and the files themselves."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    local = {path.stem for path in paths} | {"qrs"}
    # tomllib joined the standard library in Python 3.11; on 3.10 the files
    # fall back to tomli, which the extra names for that version
    stdlib = sys.stdlib_module_names | {"tomllib"}
    return {m for m in found - local if m not in stdlib}


def test_the_check_sees_a_third_party_import_on_every_python(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os.path\nfrom numpy import linalg\nimport sample\n"
                    "try:\n    import tomllib\nexcept ModuleNotFoundError:\n"
                    "    import tomli as tomllib\n")
    assert third_party_imports([path]) == {"numpy", "tomli"}


def test_the_test_extra_names_every_module_the_tests_import():
    # each of these modules is installed by a distribution of the same name
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    named = {re.match(r"[\w.-]+", req).group().lower() for req in extra}
    paths = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/*.py"))
    assert third_party_imports(paths) - named == set()
