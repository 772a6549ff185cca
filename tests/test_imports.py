"""Every module-level import of a `src/plancog` module is one the module reads,
and every parameter of a function is one its body reads: an import or a
parameter left behind by a change that stopped using it fails here. Every
import sits at module level, and the modules import one another without a
cycle."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plancog"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unread(source):
    """(name, line) of each import at the top level of `source`, but a
    `from __future__` one, whose bound name the source never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        unread += [(name, node.lineno) for name in names if name not in read]
    return unread


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    assert _unread(path.read_text()) == []


def test_an_unread_import_is_found():
    assert _unread("from __future__ import annotations\nimport itertools\nimport os.path\n"
                   "from re import match as m, sub\nos.sep\nsub = 1\n") == [
        ("itertools", 2), ("m", 4), ("sub", 4)]


def _unread_parameters(source):
    """(function, parameter, line) of each parameter of a `def` in `source`
    whose body never reads it. A method's `self` and a `*` or `**` parameter
    are not asked for: `interpreter._type_error` takes its operands as `*`
    arguments only so that they are evaluated first. Lambdas are not
    checked either, since `kb.pattern_matcher`'s lambdas share one
    signature whether or not they read the variable."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            read = {n.id for statement in node.body for n in ast.walk(statement)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(node.name, a.arg, node.lineno)
                       for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                       if a.arg != "self" and a.arg not in read]
    return unread


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path.read_text()) == []


def test_an_unread_parameter_is_found():
    assert _unread_parameters(
        "def f(a, b, *rest, c=1, **more):\n    return a\n"
        "class K:\n    def m(self, x, /, y):\n        def g(z):\n            return x\n"
        "        return g\n"
        "h = lambda u, v: u\n") == [("f", "b", 1), ("f", "c", 1), ("m", "y", 4), ("g", "z", 5)]


def _nested_imports(source):
    """Line of each import inside a function or class of `source`."""
    return sorted({n.lineno for scope in ast.walk(ast.parse(source))
                   if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   for n in ast.walk(scope) if isinstance(n, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    # so that the module-level imports are all the imports there are, which
    # `test_the_modules_import_one_another_without_a_cycle` reads
    assert _nested_imports(path.read_text()) == []


def test_a_nested_import_is_found():
    assert _nested_imports("import os\ndef f():\n    import re\n"
                           "class K:\n    from . import kb\n    def m(self):\n"
                           "        from .kb import load_kb\n") == [3, 5, 7]


def test_the_modules_import_one_another_without_a_cycle():
    # a module's package imports, from `from . import a` or `from .a import x`
    imports = {}
    for path in _MODULES:
        imports[path.stem] = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imports[path.stem] |= ({node.module} if node.module
                                       else {a.name for a in node.names})
    # take away modules that import only taken ones until none is left
    while imports:
        leaves = {name for name, deps in imports.items() if deps.isdisjoint(imports)}
        assert leaves, f"import cycle among {sorted(imports)}"
        imports = {name: deps for name, deps in imports.items() if name not in leaves}
