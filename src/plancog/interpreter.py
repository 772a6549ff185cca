"""Concrete simulation of mini-Pascal programs.

Execution is deterministic: inputs are supplied up front, integer results
and inputs are 64-bit-checked and real results and inputs must stay finite,
and a step budget turns non-termination into an explicit error status
instead of a hang.

A run compiles each top-level statement into Python closures when it first
reaches it (Feeley & Lapalme 1987, "Using closures for code generation"),
so that each variable's key, its declared type's store check, each
operator's function and each statement's line are fixed once instead of
dispatched on every step; a run that stops early compiles no more. The
final store is kept in `ExecutionResult.values`. A trace event per
assignment and READLN is recorded only when `execute` is asked for one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from . import frontend as fe
from .errors import AnalysisError
from .frontend import INT_MAX, INT_MIN

DEFAULT_STEP_BUDGET = 100_000

OK = "ok"
RUNTIME_ERROR = "runtime-error"


@dataclass
class TraceEvent:
    step: int
    line: int
    variable: str
    value: object


@dataclass
class ExecutionResult:
    outputs: list = field(default_factory=list)
    trace: list[TraceEvent] = field(default_factory=list)   # empty unless requested
    status: str = OK
    error_kind: str | None = None
    error_line: int | None = None
    steps: int = 0
    values: dict = field(default_factory=dict)   # lower-cased name -> final value

    def final_value(self, var):
        return self.values.get(var.lower())


class _Halt(Exception):
    def __init__(self, kind, line):
        self.kind = kind
        self.line = line


def _number(value, line):
    """An arithmetic result: integers must fit 64 bits, reals must be
    finite (an infinite or NaN REAL is an overflow, not a value)."""
    if isinstance(value, int):
        if not INT_MIN <= value <= INT_MAX:
            raise _Halt("integer-overflow", line)
    elif not math.isfinite(value):
        raise _Halt("real-overflow", line)
    return value


def _is_number(value):
    return not isinstance(value, bool) and isinstance(value, (int, float))


_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_LOGIC = {"and": operator.and_, "or": operator.or_}


class _Machine:
    """One run: the machine state and the closures compiled over it. Every
    statement closure counts its own steps; `type(x) is int` and the like are
    fast paths in front of the full checks, which an int or float subclass
    among the inputs still reaches."""

    def __init__(self, program, inputs, step_budget, trace):
        self.program = program
        self.inputs = iter(list(inputs))
        self.budget = step_budget
        self.steps = 0
        self.result = ExecutionResult()
        self.values = self.result.values
        self.events = self.result.trace if trace else None
        self.types = {d.name.lower(): d.type for d in program.declarations}

    def run(self):
        try:
            for s in self.program.body:
                # compiled when reached: coherence's simulations mostly end
                # with input-exhausted early in a long generated program
                self.statement(s)()
        except _Halt as halt:
            self.result.status = RUNTIME_ERROR
            self.result.error_kind = halt.kind
            self.result.error_line = halt.line
        self.result.steps = self.steps
        return self.result

    # -- statements -------------------------------------------------------------

    def block(self, stmts):
        compiled = [self.statement(s) for s in stmts]
        if len(compiled) == 1:
            return compiled[0]

        def run():
            for s in compiled:
                s()
        return run

    def statement(self, s):
        m, budget, line = self, self.budget, s.line
        if isinstance(s, fe.Assign):
            expr, store = self.expr(s.expr, line), self.store(s.target, line)

            def run():
                if m.steps >= budget:
                    raise _Halt("step-budget-exceeded", line)
                m.steps += 1
                store(expr())
        elif isinstance(s, fe.Readln):
            store, inputs = self.store(s.var, line), self.inputs
            integer = self.types[s.var.lower()] == "integer"

            def run():
                if m.steps >= budget:
                    raise _Halt("step-budget-exceeded", line)
                m.steps += 1
                try:
                    value = next(inputs)
                except StopIteration:
                    raise _Halt("input-exhausted", line) from None
                if isinstance(value, (int, float)):
                    # an input keeps the bounds of an arithmetic result
                    value = _number(value, line)
                    if integer and isinstance(value, float):
                        if not value.is_integer():
                            raise _Halt("type-error", line)
                        value = _number(int(value), line)
                store(value)
        elif isinstance(s, fe.Writeln):
            expr, outputs = self.expr(s.expr, line), self.result.outputs

            def run():
                if m.steps >= budget:
                    raise _Halt("step-budget-exceeded", line)
                m.steps += 1
                outputs.append(expr())
        elif isinstance(s, fe.Compound):
            return self.block(s.body)
        elif isinstance(s, fe.If):
            cond, then = self.expr(s.cond, line), self.statement(s.then)
            otherwise = None if s.otherwise is None else self.statement(s.otherwise)

            def run():
                if m.steps >= budget:
                    raise _Halt("step-budget-exceeded", line)
                m.steps += 1
                value = cond()
                if value is True:
                    then()
                elif value is not False:
                    raise _Halt("type-error", line)
                elif otherwise is not None:
                    otherwise()
        elif isinstance(s, fe.While):
            cond, body = self.expr(s.cond, line), self.statement(s.body)

            def run():
                while True:
                    if m.steps >= budget:
                        raise _Halt("step-budget-exceeded", line)
                    m.steps += 1
                    value = cond()
                    if value is False:
                        return
                    if value is not True:
                        raise _Halt("type-error", line)
                    body()
        elif isinstance(s, fe.Repeat):
            line = s.until_line
            body, cond = self.block(s.body), self.expr(s.cond, line)

            def run():
                while True:
                    body()
                    if m.steps >= budget:
                        raise _Halt("step-budget-exceeded", line)
                    m.steps += 1
                    value = cond()
                    if value is True:
                        return
                    if value is not False:
                        raise _Halt("type-error", line)
        elif isinstance(s, fe.For):
            return self.for_loop(s)
        elif isinstance(s, fe.Hole):
            def run():
                if m.steps >= budget:
                    raise _Halt("step-budget-exceeded", line)
                m.steps += 1
        else:
            raise TypeError(f"cannot execute {s!r}")
        return run

    def for_loop(self, s):
        m, budget, line, values, events = self, self.budget, s.line, self.values, self.events
        start, stop = self.expr(s.start, line), self.expr(s.stop, line)
        body = self.statement(s.body)
        key = s.var.lower()
        integer = self.types[key] == "integer"

        def run():
            if m.steps >= budget:
                raise _Halt("step-budget-exceeded", line)
            m.steps += 1
            current, last = start(), stop()
            # an INTEGER control variable and INTEGER bounds, checked before
            # the first iteration; the INTEGER store check then always holds
            if (not integer or isinstance(current, bool) or not isinstance(current, int)
                    or isinstance(last, bool) or not isinstance(last, int)):
                raise _Halt("type-error", line)
            while current <= last:
                values[key] = current
                if events is not None:
                    events.append(TraceEvent(m.steps, line, key, current))
                body()
                if m.steps >= budget:
                    raise _Halt("step-budget-exceeded", line)
                m.steps += 1
                current += 1
        return run

    def store(self, name, line):
        """The closure that checks a value against the declared type of
        `name`, stores it and, in a traced run, records it."""
        key = name.lower()
        declared, values = self.types[key], self.values
        if declared == "integer":
            def store(value):
                if type(value) is not int and (isinstance(value, bool)
                                               or not isinstance(value, int)):
                    raise _Halt("type-error", line)
                values[key] = value
        elif declared == "real":
            def store(value):
                if type(value) is not float:
                    if not _is_number(value):
                        raise _Halt("type-error", line)
                    value = float(value)
                values[key] = value
        else:
            def store(value):
                if value is not True and value is not False:
                    raise _Halt("type-error", line)
                values[key] = value
        if self.events is None:
            return store
        m, events, untraced = self, self.events, store

        def store(value):
            untraced(value)
            events.append(TraceEvent(m.steps, line, key, values[key]))
        return store

    # -- expressions ------------------------------------------------------------

    def expr(self, e, line):
        """A closure computing `e`; a fault ends the run on `line`."""
        if isinstance(e, (fe.IntLit, fe.RealLit, fe.BoolLit)):
            value = e.value
            return lambda: value
        if isinstance(e, fe.VarRef):
            key, values = e.name.lower(), self.values

            def load():
                try:
                    return values[key]
                except KeyError:
                    raise _Halt("uninitialized-variable", line) from None
            return load
        if isinstance(e, fe.Unary):
            operand = self.expr(e.operand, line)
            if e.op == "-":
                def negate():
                    value = operand()
                    if not _is_number(value):
                        raise _Halt("type-error", line)
                    return _number(-value, line)
                return negate

            def invert():
                value = operand()
                if value is not True and value is not False:
                    raise _Halt("type-error", line)
                return not value
            return invert
        if isinstance(e, fe.Binary):
            return self.binary(e.op, self.expr(e.left, line), self.expr(e.right, line), line)
        raise TypeError(f"cannot evaluate {e!r}")

    def binary(self, op, lhs, rhs, line):
        # the left operand is evaluated first, then the right one, then the
        # operand types are checked; AND and OR check the left operand before
        # evaluating the right one, and always evaluate both
        if op in _LOGIC:
            fn = _LOGIC[op]

            def logic():
                left = lhs()
                if left is not True and left is not False:
                    raise _Halt("type-error", line)
                right = rhs()
                if right is not True and right is not False:
                    raise _Halt("type-error", line)
                return fn(left, right)
            return logic
        if op in _COMPARISONS:
            fn = _COMPARISONS[op]

            def compare():
                left, right = lhs(), rhs()
                if (type(left) is bool) is not (type(right) is bool):
                    raise _Halt("type-error", line)
                return fn(left, right)
            return compare
        if op in _ARITHMETIC:
            fn = _ARITHMETIC[op]

            def arithmetic():
                left, right = lhs(), rhs()
                if type(left) is int and type(right) is int:
                    value = fn(left, right)
                    if INT_MIN <= value <= INT_MAX:
                        return value
                    raise _Halt("integer-overflow", line)
                if not (_is_number(left) and _is_number(right)):
                    raise _Halt("type-error", line)
                return _number(fn(left, right), line)
            return arithmetic
        if op == "/":
            def divide():
                left, right = lhs(), rhs()
                if not (_is_number(left) and _is_number(right)):
                    raise _Halt("type-error", line)
                if right == 0:
                    raise _Halt("division-by-zero", line)
                return _number(left / right, line)
            return divide
        if op in ("div", "mod"):
            remainder = op == "mod"

            def integer_division():
                left, right = lhs(), rhs()
                if type(left) is not int or type(right) is not int:
                    if (not (_is_number(left) and _is_number(right))
                            or not isinstance(left, int) or not isinstance(right, int)):
                        raise _Halt("type-error", line)
                if right == 0:
                    raise _Halt("division-by-zero", line)
                # Pascal DIV truncates toward zero and MOD takes the sign of
                # the dividend; Python's // and % floor, so a result with
                # operands of opposite signs is moved one step back
                if remainder:
                    value = left % right
                    if value and (left < 0) is not (right < 0):
                        value -= right
                    return value
                value = left // right
                if value < 0 and value * right != left:
                    value += 1
                if value > INT_MAX:
                    raise _Halt("integer-overflow", line)
                return value
            return integer_division
        raise TypeError(f"unknown operator {op!r}")


def execute(program: fe.Program, inputs, step_budget: int = DEFAULT_STEP_BUDGET,
            trace: bool = False) -> ExecutionResult:
    """Run the program against the supplied inputs; with `trace`, record a
    TraceEvent for every assignment and READLN."""
    return _Machine(program, inputs, step_budget, trace).run()


def trace_variable(program: fe.Program, inputs, var: str,
                   step_budget: int = DEFAULT_STEP_BUDGET) -> list[tuple[int, int, object]]:
    """(step, line, value) events for one declared variable."""
    return variable_events(program, execute(program, inputs, step_budget, trace=True), var)


def variable_events(program: fe.Program, result: ExecutionResult,
                    var: str) -> list[tuple[int, int, object]]:
    """(step, line, value) events of one declared variable in a finished run
    made with `trace=True`."""
    if var.lower() not in {d.name.lower() for d in program.declarations}:
        raise AnalysisError(f"unknown variable {var}")
    return [(e.step, e.line, e.value) for e in result.trace if e.variable == var.lower()]


def render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest round-trippable decimal
    return str(value)


@dataclass
class ComparisonEntry:
    inputs: list
    verdict: str       # equal | unequal | equal-by-error | differing-status
    detail: str


@dataclass
class ComparisonReport:
    entries: list[ComparisonEntry]

    @property
    def all_equal(self):
        return all(e.verdict in ("equal", "equal-by-error") for e in self.entries)


def compare_behavior(p1: fe.Program, p2: fe.Program, input_sets,
                     step_budget: int = DEFAULT_STEP_BUDGET,
                     tolerance: float = 1e-9) -> ComparisonReport:
    """Compare observable behavior of two programs over each input set."""
    entries = []
    for inputs in input_sets:
        r1 = execute(p1, inputs, step_budget)
        r2 = execute(p2, inputs, step_budget)
        if r1.status == OK and r2.status == OK:
            if _outputs_equal(r1.outputs, r2.outputs, tolerance):
                entries.append(ComparisonEntry(list(inputs), "equal",
                                               f"outputs {r1.outputs!r}"))
            else:
                entries.append(ComparisonEntry(list(inputs), "unequal",
                                               f"{r1.outputs!r} vs {r2.outputs!r}"))
        elif r1.status != OK and r2.status != OK:
            if r1.error_kind == r2.error_kind:
                entries.append(ComparisonEntry(list(inputs), "equal-by-error",
                                               f"both {r1.error_kind}"))
            else:
                entries.append(ComparisonEntry(list(inputs), "differing-status",
                                               f"{r1.error_kind} vs {r2.error_kind}"))
        else:
            failing = r1 if r1.status != OK else r2
            entries.append(ComparisonEntry(list(inputs), "differing-status",
                                           f"one run failed with {failing.error_kind}"))
    return ComparisonReport(entries)


def _outputs_equal(a, b, tolerance):
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, float) or isinstance(y, float):
            if abs(float(x) - float(y)) > tolerance:
                return False
        elif x != y:
            return False
    return True
