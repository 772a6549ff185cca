"""Concrete simulation of mini-Pascal programs.

Execution is deterministic: inputs are supplied up front, integer results
and inputs are 64-bit-checked and real results and inputs must stay finite,
and a step budget turns non-termination into an explicit error status
instead of a hang.

A run compiles each top-level statement into Python closures when it first
reaches it (Feeley & Lapalme 1987, "Using closures for code generation"),
so that each variable's key, each operator's function and each statement's
line are fixed once instead of dispatched on every step; a run that stops
early compiles no more. Each expression node is typed once, from the
declarations, as its closure is made. A well-typed node checks no operand
type at run time, and a variable or integer constant among its operands is
read inside its closure; it keeps the checks for 64-bit and finite results,
division by zero and unset variables. An ill-typed node compiles to a
closure that evaluates its operands and then fails with type-error. The
operand checks can go because every store keeps its variable's declared
type: an assignment stores only a value whose static type fits its target
(an INTEGER is converted for a REAL), and the full checks live in READLN's
store, which a traced run's assignments use as well. The final store is
kept in `ExecutionResult.values`. A trace event per assignment and READLN
is recorded only when `execute` is asked for one.

Some statements do their one operation inside their own closure, with no
call for it. An untraced INTEGER assignment of `+ - *` on a variable and a
variable or integer constant computes, checks 64 bits and stores there. An
IF or UNTIL test that compares a variable with a variable or integer
constant compares there. An untraced READLN into an INTEGER stores an int
input within 64 bits at once; every other input takes the full checks.
WHILE, REPEAT and FOR run the closures of their body in turn themselves.
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
_LITERALS = {fe.IntLit: "integer", fe.RealLit: "real", fe.BoolLit: "boolean"}
_NUMERIC = ("integer", "real")


def _result_type(op, left, right):
    """The static type of `left op right` given its operands' static types;
    None when the node cannot evaluate without a type-error."""
    if op in _LOGIC:
        return "boolean" if left == right == "boolean" else None
    numeric = left in _NUMERIC and right in _NUMERIC
    if op in _COMPARISONS:
        return "boolean" if numeric or left == right == "boolean" else None
    if op in ("div", "mod"):
        return "integer" if left == right == "integer" else None
    if not numeric:
        return None
    return "integer" if op in _ARITHMETIC and left == right == "integer" else "real"


def _type_error(line, *operands):
    """The closure of a node whose operand types never fit: it evaluates the
    operands in order, so that a fault inside one comes first, then fails."""
    def fault():
        for operand in operands:
            operand()
        raise _Halt("type-error", line)
    return fault


def _shape(left, lhs, right, rhs):
    """(shape, a, b): how a fused closure reads its operands. 'v' reads a
    variable by its key, 'c' is an integer constant, 'e' calls the operand's
    closure; (var, var), (var, const), (expr, const) and (expr, var) read
    their leaves inline, every other shape calls two closures."""
    if isinstance(left, fe.VarRef):
        if isinstance(right, fe.VarRef):
            return "vv", left.name.lower(), right.name.lower()
        if isinstance(right, fe.IntLit):
            return "vc", left.name.lower(), right.value
    elif isinstance(right, fe.IntLit):
        return "ec", lhs, right.value
    elif isinstance(right, fe.VarRef):
        return "ev", lhs, right.name.lower()
    return "ee", lhs, rhs


def _unchecked(fn, shape, a, b, values):
    """`fn` on operands whose static types leave nothing to check:
    comparisons, AND and OR."""
    if shape == "vv":
        return lambda: fn(values[a], values[b])
    if shape == "vc":
        return lambda: fn(values[a], b)
    if shape == "ec":
        return lambda: fn(a(), b)
    if shape == "ev":
        return lambda: fn(a(), values[b])
    return lambda: fn(a(), b())


def _integer_arithmetic(fn, shape, a, b, values, line):
    """`fn` on two INTEGER operands, its result checked against 64 bits."""
    if shape == "vv":
        def arithmetic():
            value = fn(values[a], values[b])
            if INT_MIN <= value <= INT_MAX:
                return value
            raise _Halt("integer-overflow", line)
    elif shape == "vc":
        def arithmetic():
            value = fn(values[a], b)
            if INT_MIN <= value <= INT_MAX:
                return value
            raise _Halt("integer-overflow", line)
    elif shape == "ec":
        def arithmetic():
            value = fn(a(), b)
            if INT_MIN <= value <= INT_MAX:
                return value
            raise _Halt("integer-overflow", line)
    elif shape == "ev":
        def arithmetic():
            value = fn(a(), values[b])
            if INT_MIN <= value <= INT_MAX:
                return value
            raise _Halt("integer-overflow", line)
    else:
        def arithmetic():
            value = fn(a(), b())
            if INT_MIN <= value <= INT_MAX:
                return value
            raise _Halt("integer-overflow", line)
    return arithmetic


# Pascal DIV truncates toward zero and MOD takes the sign of the dividend;
# Python's // and % floor, so a result with operands of opposite signs is
# moved one step back. Only INT_MIN DIV -1 leaves 64 bits.

def _quotient(left, right, line):
    if right == 0:
        raise _Halt("division-by-zero", line)
    value = left // right
    if value < 0 and value * right != left:
        value += 1
    if value > INT_MAX:
        raise _Halt("integer-overflow", line)
    return value


def _remainder(left, right, line):
    if right == 0:
        raise _Halt("division-by-zero", line)
    value = left % right
    if value and (left < 0) is not (right < 0):
        value -= right
    return value


def _integer_division(op, shape, a, b, values, line):
    """DIV or MOD on two INTEGER operands. A positive constant divisor (every
    integer literal but 0) divides inline: it needs no check for 0, and its
    quotient stays within 64 bits."""
    if shape in ("vc", "ec") and b > 0:
        if op == "mod" and shape == "vc":
            def division():
                left = values[a]
                value = left % b
                return value - b if value and left < 0 else value
        elif op == "mod":
            def division():
                left = a()
                value = left % b
                return value - b if value and left < 0 else value
        elif shape == "vc":
            def division():
                left = values[a]
                value = left // b
                return value + 1 if value < 0 and value * b != left else value
        else:
            def division():
                left = a()
                value = left // b
                return value + 1 if value < 0 and value * b != left else value
        return division
    fn = _remainder if op == "mod" else _quotient
    if shape == "vv":
        return lambda: fn(values[a], values[b], line)
    if shape == "vc":
        return lambda: fn(values[a], b, line)
    if shape == "ec":
        return lambda: fn(a(), b, line)
    if shape == "ev":
        return lambda: fn(a(), values[b], line)
    return lambda: fn(a(), b(), line)


class _Machine:
    """One run: the machine state and the closures compiled over it. Every
    statement closure counts its own steps, and reports a KeyError from
    its expressions, a read of an unset variable, as uninitialized-variable
    on its line."""

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

    def body(self, s):
        """The closures of a loop body or a block, which it runs in turn."""
        return [self.statement(t) for t in (s.body if isinstance(s, fe.Compound) else [s])]

    def leaves(self, e, ops):
        """(fn, a, right, b) when `e` applies an operator of `ops` to a variable
        `a` and a variable or integer constant `b` (shape vv or vc): its value
        is fn(values[a], right[b]), `right` being the store for a variable and
        {b: b} for a constant, so that one closure reads both shapes inline.
        None for any other `e`."""
        if isinstance(e, fe.Binary) and e.op in ops:
            shape, a, b = _shape(e.left, None, e.right, None)
            if shape == "vv":
                return ops[e.op], a, self.values, b
            if shape == "vc":
                return ops[e.op], a, {b: b}, b
        return None

    def statement(self, s):
        m, budget, line, values = self, self.budget, s.line, self.values
        if isinstance(s, fe.Assign):
            key = s.target.lower()
            expr, typed = self.expr(s.expr, line)
            declared = self.types[key]
            if self.events is not None:
                # the store checks again and records the event
                store = self.store(s.target, line)

                def run():
                    if m.steps >= budget:
                        raise _Halt("step-budget-exceeded", line)
                    m.steps += 1
                    try:
                        store(expr())
                    except KeyError:
                        raise _Halt("uninitialized-variable", line) from None
                return run
            leaves = self.leaves(s.expr, _ARITHMETIC) if typed == declared == "integer" else None
            if leaves is not None:
                fn, a, right, b = leaves

                def run():
                    if m.steps >= budget:
                        raise _Halt("step-budget-exceeded", line)
                    m.steps += 1
                    try:
                        value = fn(values[a], right[b])
                    except KeyError:
                        raise _Halt("uninitialized-variable", line) from None
                    if not INT_MIN <= value <= INT_MAX:
                        raise _Halt("integer-overflow", line)
                    values[key] = value
                return run
            if typed == "integer" and declared == "real":
                integer = expr
                expr = lambda: float(integer())
            elif typed != declared:
                expr = _type_error(line, expr)

            def run():
                if m.steps >= budget:
                    raise _Halt("step-budget-exceeded", line)
                m.steps += 1
                try:
                    values[key] = expr()
                except KeyError:
                    raise _Halt("uninitialized-variable", line) from None
        elif isinstance(s, fe.Readln):
            key, store, inputs = s.var.lower(), self.store(s.var, line), self.inputs
            integer = self.types[key] == "integer"
            inline = integer and self.events is None

            def run():
                if m.steps >= budget:
                    raise _Halt("step-budget-exceeded", line)
                m.steps += 1
                try:
                    value = next(inputs)
                except StopIteration:
                    raise _Halt("input-exhausted", line) from None
                if inline and type(value) is int and INT_MIN <= value <= INT_MAX:
                    values[key] = value
                    return
                if isinstance(value, (int, float)):
                    # an input keeps the bounds of an arithmetic result
                    value = _number(value, line)
                    if integer and isinstance(value, float):
                        if not value.is_integer():
                            raise _Halt("type-error", line)
                        value = _number(int(value), line)
                store(value)
        elif isinstance(s, fe.Writeln):
            expr, outputs = self.expr(s.expr, line)[0], self.result.outputs

            def run():
                if m.steps >= budget:
                    raise _Halt("step-budget-exceeded", line)
                m.steps += 1
                try:
                    outputs.append(expr())
                except KeyError:
                    raise _Halt("uninitialized-variable", line) from None
        elif isinstance(s, fe.Compound):
            body = self.body(s)
            if len(body) == 1:
                return body[0]

            def run():
                for t in body:
                    t()
        elif isinstance(s, fe.If):
            (cond, leaves), then = self.condition(s.cond, line), self.statement(s.then)
            otherwise = None if s.otherwise is None else self.statement(s.otherwise)
            if leaves is not None:
                fn, a, right, b = leaves

                def run():
                    if m.steps >= budget:
                        raise _Halt("step-budget-exceeded", line)
                    m.steps += 1
                    try:
                        value = fn(values[a], right[b])
                    except KeyError:
                        raise _Halt("uninitialized-variable", line) from None
                    if value:
                        then()
                    elif otherwise is not None:
                        otherwise()
                return run

            def run():
                if m.steps >= budget:
                    raise _Halt("step-budget-exceeded", line)
                m.steps += 1
                try:
                    value = cond()
                except KeyError:
                    raise _Halt("uninitialized-variable", line) from None
                if value:
                    then()
                elif otherwise is not None:
                    otherwise()
        elif isinstance(s, fe.While):
            cond, body = self.condition(s.cond, line)[0], self.body(s.body)

            def run():
                while True:
                    if m.steps >= budget:
                        raise _Halt("step-budget-exceeded", line)
                    m.steps += 1
                    try:
                        value = cond()
                    except KeyError:
                        raise _Halt("uninitialized-variable", line) from None
                    if not value:
                        return
                    for t in body:
                        t()
        elif isinstance(s, fe.Repeat):
            line = s.until_line
            body = [self.statement(t) for t in s.body]
            cond, leaves = self.condition(s.cond, line)
            if leaves is not None:
                fn, a, right, b = leaves

                def run():
                    while True:
                        for t in body:
                            t()
                        if m.steps >= budget:
                            raise _Halt("step-budget-exceeded", line)
                        m.steps += 1
                        try:
                            value = fn(values[a], right[b])
                        except KeyError:
                            raise _Halt("uninitialized-variable", line) from None
                        if value:
                            return
                return run

            def run():
                while True:
                    for t in body:
                        t()
                    if m.steps >= budget:
                        raise _Halt("step-budget-exceeded", line)
                    m.steps += 1
                    try:
                        value = cond()
                    except KeyError:
                        raise _Halt("uninitialized-variable", line) from None
                    if value:
                        return
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
        start, first = self.expr(s.start, line)
        stop, last = self.expr(s.stop, line)
        body = self.body(s.body)
        key = s.var.lower()
        if not self.types[key] == first == last == "integer":
            # an INTEGER control variable and INTEGER bounds, or a type-error
            # once both bounds are evaluated, before the first iteration
            stop = _type_error(line, stop)

        def run():
            if m.steps >= budget:
                raise _Halt("step-budget-exceeded", line)
            m.steps += 1
            try:
                current, last = start(), stop()
            except KeyError:
                raise _Halt("uninitialized-variable", line) from None
            while current <= last:
                values[key] = current
                if events is not None:
                    events.append(TraceEvent(m.steps, line, key, current))
                for t in body:
                    t()
                if m.steps >= budget:
                    raise _Halt("step-budget-exceeded", line)
                m.steps += 1
                current += 1
        return run

    def store(self, name, line):
        """The closure that checks a value against the declared type of
        `name`, stores it and, in a traced run, records it: READLN's store,
        and every store of a traced run."""
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

    def condition(self, e, line):
        """(closure, leaves) of the condition `e`: the closure computes True or
        False, or a fault when `e` is not BOOLEAN; `leaves` gives a comparison
        on leaf operands to read inline, else it is None."""
        cond, typed = self.expr(e, line)
        if typed != "boolean":
            return _type_error(line, cond), None
        return cond, self.leaves(e, _COMPARISONS)

    def expr(self, e, line):
        """(closure computing `e`, static type of `e`): every value of `e`
        has that type; None when `e` always ends in a fault on `line`."""
        if type(e) in _LITERALS:
            value = e.value
            return (lambda: value), _LITERALS[type(e)]
        if isinstance(e, fe.VarRef):
            key, values = e.name.lower(), self.values
            return (lambda: values[key]), self.types[key]
        if isinstance(e, fe.Unary):
            operand, typed = self.expr(e.operand, line)
            if e.op == "not" and typed == "boolean":
                return (lambda: not operand()), typed
            if e.op == "-" and typed == "real":
                return (lambda: -operand()), typed
            if e.op == "-" and typed == "integer":
                def negate():
                    value = -operand()
                    if value > INT_MAX:
                        raise _Halt("integer-overflow", line)
                    return value
                return negate, typed
            return _type_error(line, operand), None
        if isinstance(e, fe.Binary):
            return self.binary(e.op, e.left, e.right, line)
        raise TypeError(f"cannot evaluate {e!r}")

    def binary(self, op, left, right, line):
        # the left operand is evaluated first, then the right one; AND and
        # OR evaluate both, but fail on a left operand that is not BOOLEAN
        # before they evaluate the right one
        lhs, ltype = self.expr(left, line)
        rhs, rtype = self.expr(right, line)
        typed = _result_type(op, ltype, rtype)
        if typed is None:
            if op in _LOGIC and ltype != "boolean":
                return _type_error(line, lhs), None
            return _type_error(line, lhs, rhs), None
        shape, a, b = _shape(left, lhs, right, rhs)
        values = self.values
        if op in _LOGIC or op in _COMPARISONS:
            return _unchecked(_LOGIC.get(op) or _COMPARISONS[op], shape, a, b, values), typed
        if typed == "integer" and op in _ARITHMETIC:
            return _integer_arithmetic(_ARITHMETIC[op], shape, a, b, values, line), typed
        if typed == "integer":
            return _integer_division(op, shape, a, b, values, line), typed
        if op == "/":
            def divide():
                left, right = lhs(), rhs()
                if right == 0:
                    raise _Halt("division-by-zero", line)
                return _number(left / right, line)
            return divide, typed
        fn = _ARITHMETIC[op]
        return (lambda: _number(fn(lhs(), rhs()), line)), typed


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
