"""Every module-level import of a `src/plancog` module is one the module reads:
an import left behind by a change that stopped using it fails here."""

import ast
from pathlib import Path

import pytest

_MODULES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "plancog").glob("*.py")
                  if p.name != "__init__.py")


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
