"""Concrete simulation of mini-Pascal programs.

Execution is deterministic: inputs are supplied up front, every assignment
and READLN appends a trace event, integer results and inputs are
64-bit-checked and real results and inputs must stay finite, and a step
budget turns non-termination into an explicit error status instead of a
hang.
"""

from __future__ import annotations

import math
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
    trace: list[TraceEvent] = field(default_factory=list)
    status: str = OK
    error_kind: str | None = None
    error_line: int | None = None
    steps: int = 0

    def final_value(self, var):
        var = var.lower()
        for event in reversed(self.trace):
            if event.variable == var:
                return event.value
        return None


class _Halt(Exception):
    def __init__(self, kind, line):
        self.kind = kind
        self.line = line


class _Machine:
    def __init__(self, program, inputs, step_budget):
        self.program = program
        self.inputs = list(inputs)
        self.cursor = 0
        self.budget = step_budget
        self.result = ExecutionResult()
        self.types = {d.name.lower(): d.type for d in program.declarations}
        self.values = {}

    def tick(self, line):
        if self.result.steps >= self.budget:
            raise _Halt("step-budget-exceeded", line)
        self.result.steps += 1

    def run(self):
        try:
            self.block(self.program.body)
        except _Halt as halt:
            self.result.status = RUNTIME_ERROR
            self.result.error_kind = halt.kind
            self.result.error_line = halt.line
        return self.result

    def block(self, stmts):
        for s in stmts:
            self.statement(s)

    def assign(self, name, value, line):
        key = name.lower()
        declared = self.types[key]
        if declared == "integer":
            if isinstance(value, float):
                raise _Halt("type-error", line)
            if isinstance(value, bool) or not isinstance(value, int):
                raise _Halt("type-error", line)
        elif declared == "real":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _Halt("type-error", line)
            value = float(value)
        elif declared == "boolean" and not isinstance(value, bool):
            raise _Halt("type-error", line)
        self.values[key] = value
        self.result.trace.append(TraceEvent(self.result.steps, line, key, value))

    def statement(self, s):
        if isinstance(s, fe.Assign):
            self.tick(s.line)
            self.assign(s.target, self.eval(s.expr, s.line), s.line)
        elif isinstance(s, fe.Readln):
            self.tick(s.line)
            if self.cursor >= len(self.inputs):
                raise _Halt("input-exhausted", s.line)
            value = self.inputs[self.cursor]
            self.cursor += 1
            if isinstance(value, (int, float)):
                # an input keeps the bounds of an arithmetic result
                value = self.check_number(value, s.line)
            if self.types[s.var.lower()] == "integer" and isinstance(value, float):
                if not value.is_integer():
                    raise _Halt("type-error", s.line)
                value = self.check_number(int(value), s.line)
            self.assign(s.var, value, s.line)
        elif isinstance(s, fe.Writeln):
            self.tick(s.line)
            self.result.outputs.append(self.eval(s.expr, s.line))
        elif isinstance(s, fe.Compound):
            self.block(s.body)
        elif isinstance(s, fe.If):
            self.tick(s.line)
            if self.truth(s.cond, s.line):
                self.statement(s.then)
            elif s.otherwise is not None:
                self.statement(s.otherwise)
        elif isinstance(s, fe.While):
            while True:
                self.tick(s.line)
                if not self.truth(s.cond, s.line):
                    return
                self.statement(s.body)
        elif isinstance(s, fe.Repeat):
            while True:
                self.block(s.body)
                self.tick(s.until_line)
                if self.truth(s.cond, s.until_line):
                    return
        elif isinstance(s, fe.For):
            self.tick(s.line)
            start = self.eval(s.start, s.line)
            stop = self.eval(s.stop, s.line)
            if not isinstance(start, int) or not isinstance(stop, int):
                raise _Halt("type-error", s.line)
            current = start
            while current <= stop:
                self.assign(s.var, current, s.line)
                self.statement(s.body)
                self.tick(s.line)
                current += 1
        elif isinstance(s, fe.Hole):
            self.tick(s.line)
        else:
            raise TypeError(f"cannot execute {s!r}")

    def truth(self, expr, line):
        value = self.eval(expr, line)
        if not isinstance(value, bool):
            raise _Halt("type-error", line)
        return value

    def eval(self, expr, line):
        if isinstance(expr, (fe.IntLit, fe.RealLit, fe.BoolLit)):
            return expr.value
        if isinstance(expr, fe.VarRef):
            key = expr.name.lower()
            if key not in self.values:
                raise _Halt("uninitialized-variable", line)
            return self.values[key]
        if isinstance(expr, fe.Unary):
            value = self.eval(expr.operand, line)
            if expr.op == "-":
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise _Halt("type-error", line)
                return self.check_number(-value, line)
            if not isinstance(value, bool):
                raise _Halt("type-error", line)
            return not value
        if isinstance(expr, fe.Binary):
            return self.binary(expr, line)
        raise TypeError(f"cannot evaluate {expr!r}")

    def binary(self, expr, line):
        op = expr.op
        left = self.eval(expr.left, line)
        if op in ("and", "or"):
            if not isinstance(left, bool):
                raise _Halt("type-error", line)
            right = self.eval(expr.right, line)
            if not isinstance(right, bool):
                raise _Halt("type-error", line)
            return (left and right) if op == "and" else (left or right)
        right = self.eval(expr.right, line)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if isinstance(left, bool) != isinstance(right, bool):
                raise _Halt("type-error", line)
            table = {"=": left == right, "<>": left != right, "<": left < right,
                     "<=": left <= right, ">": left > right, ">=": left >= right}
            return table[op]
        for operand in (left, right):
            if isinstance(operand, bool) or not isinstance(operand, (int, float)):
                raise _Halt("type-error", line)
        if op == "+":
            return self.check_number(left + right, line)
        if op == "-":
            return self.check_number(left - right, line)
        if op == "*":
            return self.check_number(left * right, line)
        if op == "/":
            if right == 0:
                raise _Halt("division-by-zero", line)
            return self.check_number(left / right, line)
        if op in ("div", "mod"):
            if not isinstance(left, int) or not isinstance(right, int):
                raise _Halt("type-error", line)
            if right == 0:
                raise _Halt("division-by-zero", line)
            # Pascal DIV truncates toward zero; exact for every 64-bit operand
            quotient = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                quotient = -quotient
            if op == "div":
                return self.check_number(quotient, line)
            return self.check_number(left - quotient * right, line)
        raise TypeError(f"unknown operator {op!r}")

    def check_number(self, value, line):
        """An arithmetic result: integers must fit 64 bits, reals must be
        finite (an infinite or NaN REAL is an overflow, not a value)."""
        if isinstance(value, int):
            if not INT_MIN <= value <= INT_MAX:
                raise _Halt("integer-overflow", line)
        elif not math.isfinite(value):
            raise _Halt("real-overflow", line)
        return value


def execute(program: fe.Program, inputs, step_budget: int = DEFAULT_STEP_BUDGET) -> ExecutionResult:
    """Run the program against the supplied inputs."""
    return _Machine(program, inputs, step_budget).run()


def trace_variable(program: fe.Program, inputs, var: str,
                   step_budget: int = DEFAULT_STEP_BUDGET) -> list[tuple[int, int, object]]:
    """(step, line, value) events for one declared variable."""
    return variable_events(program, execute(program, inputs, step_budget), var)


def variable_events(program: fe.Program, result: ExecutionResult,
                    var: str) -> list[tuple[int, int, object]]:
    """(step, line, value) events of one declared variable in a finished run."""
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
