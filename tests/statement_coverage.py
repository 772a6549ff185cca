"""Statement coverage of every module of plancog by the tier-1 suite.

Run from the root of the repository:

    PYTHONPATH=src python tests/statement_coverage.py

It runs the whole suite in tests/ in-process under `sys.settrace`
(hypothesis with a fixed seed), then prints each statement line of
src/plancog/*.py that no test executed, and each line whose lambda no test
called. A lambda's line runs
when the lambda is made, so a lambda counts only once its own frame starts;
a module keeps at most one lambda per line so that the frame's first line
names it. It exits 1 when the tests fail, when an unexecuted line is not in
UNREACHABLE, when an entry of UNREACHABLE matches no unexecuted line, or
when a line holds two lambdas. The name keeps pytest from collecting it.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "plancog").glob("*.py"))

# (module, stripped line text) -> why no test executes it
UNREACHABLE = {
    ("frontend.py", 'raise TypeError(f"not an expression: {expr!r}")'):
        "the parser makes no other expression",
    ("frontend.py", 'raise TypeError(f"no single-line text for {type(stmt).__name__}")'):
        "the parser makes no other simple statement",
    ("frontend.py", 'raise TypeError(f"not a statement: {stmt!r}")'):
        "the parser makes no other statement",
    ("interpreter.py", 'raise TypeError(f"cannot execute {s!r}")'):
        "the parser makes no other statement",
    ("interpreter.py", 'raise TypeError(f"cannot evaluate {e!r}")'):
        "the parser makes no other expression",
    ("relations.py", 'raise TypeError(f"unexpected statement {s!r}")'):
        "the parser makes no other statement",
}


def statement_lines(tree):
    """The first line of every statement but a docstring."""
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str))}


def lambda_lines(tree):
    """line -> number of lambdas that start on it."""
    return Counter(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Lambda))


def main():
    executed = {str(path): set() for path in MODULES}
    called = {str(path): set() for path in MODULES}

    def line_tracer(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    tracers = {name: line_tracer(lines) for name, lines in executed.items()}

    def calls(frame, event, arg):
        code = frame.f_code
        local = tracers.get(code.co_filename)
        if local is not None and code.co_name == "<lambda>":
            called[code.co_filename].add(code.co_firstlineno)
        return local

    # traced from before the first import of plancog, so that the modules'
    # top-level statements count as executed
    sys.settrace(calls)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                              "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)
    failed = status != 0
    expected = dict(UNREACHABLE)
    lines = covered = lambda_count = 0
    for path in MODULES:
        name, source = path.name, path.read_text()
        text, tree = source.splitlines(), ast.parse(source)
        lambdas = lambda_lines(tree)
        lambda_count += sum(lambdas.values())
        statements = statement_lines(tree)
        lines += len(statements)
        covered += len(statements & executed[str(path)])
        missed = sorted((statements - executed[str(path)])
                        | (lambdas.keys() - called[str(path)]))
        for line in missed:
            stripped = text[line - 1].strip()
            reason = UNREACHABLE.get((name, stripped))
            expected.pop((name, stripped), None)
            print(f"{name}:{line}: {stripped}  ({reason or 'NOT COVERED'})")
            failed |= reason is None
        for line, count in sorted(lambdas.items()):
            if count > 1:
                print(f"{name}:{line}: {count} lambdas on one line cannot be told apart")
                failed = True
    for name, stale in expected:
        print(f"{name}: executed or gone, but listed as unreachable: {stale}")
        failed = True
    print(f"{len(MODULES)} modules: {covered} of {lines} statement lines executed,"
          f" {lambda_count} lambdas")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
