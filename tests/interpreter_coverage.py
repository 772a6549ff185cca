"""Statement coverage of the interpreter by its own tests.

Run from the root of the repository:

    PYTHONPATH=src python tests/interpreter_coverage.py

It runs tests/test_interpreter.py in-process under `sys.settrace` (hypothesis
with a fixed seed), then prints each statement line of
src/plancog/interpreter.py that no test executed, and each line whose lambda
no test called. A lambda's line runs when the lambda is made, so a lambda
counts only once its own frame starts; the module keeps at most one lambda
per line so that the frame's first line names it. It exits 1 when the tests
fail, when an unexecuted line is not in UNREACHABLE, when a line in
UNREACHABLE did execute or no longer exists, or when a line holds two
lambdas. The name keeps pytest from collecting it.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULE = ROOT / "src" / "plancog" / "interpreter.py"

# stripped line text -> why no test executes it
UNREACHABLE = {
    'raise TypeError(f"cannot execute {s!r}")': "the parser makes no other statement",
    'raise TypeError(f"cannot evaluate {e!r}")': "the parser makes no other expression",
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
    executed, called = set(), set()
    filename = str(MODULE)

    def local(frame, event, arg):
        if event == "line":
            executed.add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename != filename:
            return None
        if frame.f_code.co_name == "<lambda>":
            called.add(frame.f_code.co_firstlineno)
        return local

    # traced from before the first import of the module, so that its
    # top-level statements count as executed
    sys.settrace(calls)
    try:
        status = pytest.main([str(ROOT / "tests" / "test_interpreter.py"), "-q",
                              "-p", "no:cacheprovider", "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)
    source = MODULE.read_text()
    text, tree = source.splitlines(), ast.parse(source)
    lambdas = lambda_lines(tree)
    missed = sorted((statement_lines(tree) - executed) | (lambdas.keys() - called))
    failed = status != 0
    expected = dict(UNREACHABLE)
    for line in missed:
        reason = expected.pop(text[line - 1].strip(), None)
        print(f"{MODULE.name}:{line}: {text[line - 1].strip()}"
              f"  ({reason or 'NOT COVERED'})")
        failed |= reason is None
    for line, count in sorted(lambdas.items()):
        if count > 1:
            print(f"{MODULE.name}:{line}: {count} lambdas on one line cannot be told apart")
            failed = True
    for stale in expected:
        print(f"executed or gone, but listed as unreachable: {stale}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
