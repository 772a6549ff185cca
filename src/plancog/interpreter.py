"""Concrete simulation of mini-Pascal programs.

Execution is deterministic: inputs are supplied up front, integer results
and inputs are 64-bit-checked and real results and inputs must stay finite,
and a step budget turns non-termination into an explicit error status
instead of a hang.

Each top-level statement is written and compiled once per parsed program
and trace flag, when a run first reaches it, and every later run of that
program calls the same function: a run that stops early compiles no more,
and a later run that gets further compiles the rest. The functions are kept
on the program (`Program.units`) and go with it, so a program is not
changed once it has run. The statement, its nested statements inline, is
written as the Python source of one function and compiled with `compile`,
so that a step runs as straight-line bytecode instead of a call per node.
The source holds no text of the program: every constant, line and READLN
store is an argument `a<n>` of the generated `make(a0, ...)`, and so is
every variable's key, once per statement. `make` returns the
statement's function `run(m, V, B, E, IN, OUT)`, which takes the state of
one run as arguments. So the source depends on the statement's shape and
on the checks its constants prove dead (below), and `_make` compiles each
such source once per process: programs that differ only in names, constants
and line layout share it when their constants prove the same checks dead.
No two constants share a slot, even when they are equal, so that a chance
equality makes no new shape.

A function keeps each variable it mentions in a Python local `v<n>`,
named by first occurrence. The store V is read and written only where a
function starts and ends. On entry it loads each variable it reads that
the store holds; an unset variable leaves its local unbound. However it
ends, it writes back each variable it assigns that is bound, so
`ExecutionResult.values` holds the final store after a halt too. The step
count is a local too, read from the run's result on entry and written back
the same way.

A step is checked against the budget before it is taken and counted as it
is, a run of steps at once: the consecutive statements at one level that
always execute together, which are the simple statements, the IF or UNTIL
test or FOR header that ends them, and a FOR's per-iteration step, which
joins the run that ends its body. A traced unit's runs are one step long,
since each trace event records the count. Where a run of n steps starts,
one check `s >= _b<n>` halts on the budget unless all n fit, and one
`s += n` counts them; the bound `_b<n> = B - n + 1` is set once per call of
the unit, so that a check makes no new int. Each statement's line is an
argument that holds its site, its own even when it shares its line: the
line, and `ahead`, the steps of its run counted but not yet reached, which a
halt there other than the budget's takes off the count. A budget halt where
the count equals the budget is the one the run's first step makes, as every
budget halt of a traced unit is. Any other is not yet known exactly, since a
statement of the run may halt first: `execute` runs the program again from
the start through the traced units, keeping no trace.

An untraced FOR whose body holds no WHILE, REPEAT or FOR checks the budget
once per loop instead. As the body is written, the writer counts the steps
each iteration always takes, `fixed` (the body's own runs, its IF tests
and the per-iteration step among them), and `most`, `fixed` and the steps of
the longest path through its IF branches. Once the bounds give `_k` trips,
one check refuses the loop unless `s + _k * most` fits the budget, and
`s += _k * fixed` counts the fixed steps; the body checks nothing, and a run
in an IF branch adds its `s += n` when taken. So the count runs ahead of the
steps inside the loop, whose sites, like the refusal's, have no `ahead`: a
halt at any of them, or the refusal, runs the program again through the
traced units, as a budget halt part-way through a run does. Only outside
such a loop does a halt other than the budget's need no second run.

Each expression node is typed once, from the declarations, as its source is
written. A well-typed node checks no operand type at run time. It keeps the
checks for 64-bit and finite results, made inline through one temporary, and
for division by zero; a positive constant divisor divides inline. Each
simple statement and test sits in a `try` turning the NameError of an
unbound local into uninitialized-variable on its line. An ill-typed node
passes its operands to `_type_error`, which fails with type-error once they
are evaluated. The operand checks can go because every variable keeps its
declared type: an assignment stores only a value whose static type fits its
target (an INTEGER is converted for a REAL), and the full checks live in
READLN's checking store, which returns the value to assign; a READLN into
an INTEGER assigns an int input within 64 bits at once. Only a traced unit
writes a trace event per assignment and READLN into its source, and it
makes the event only in a run that keeps its trace, which a second run
does not.

A FOR loop evaluates its bounds once, into `_i<level>` and `_n<level>`, and
runs as the Python loop `for <variable> in range(_i, _n + 1)`, which sets
the variable only as an iteration starts: the body cannot change the trip
count, a loop that makes no trip leaves the variable as it was, and after
the loop the variable holds the value last assigned to it.

An INTEGER node also gets an interval as it is typed, which its values
never leave: a constant's is exact; a FOR control variable's runs from its
start's lowest to its stop's highest value, inside a body that never
assigns it (by assignment, READLN or an inner FOR, as `fe.defined_names`
tells before the body is written); a variable assigned earlier in the same
unit keeps the interval of the value assigned, on the paths where no other
assignment can have come between (not past a loop or branch that may assign
it, nor into an iteration after one that may); any other variable's is the
64 bits every stored INTEGER fits. A `+`, `-` or `*` whose interval fits 64
bits is written without its overflow check, and one whose interval leaves
64 bits on one side only checks that side, as unary `-` does. DIV or MOD by
a positive constant of a dividend never below 0 is Python's `//` or `%`,
without the sign correction.

CPython limits how deeply one function's source nests: 20 blocks, 100
indentation levels and 200 parentheses. A compound statement that would
start deeper than `_MAX_INDENT` levels, or an expression node `_MAX_DEPTH`
nodes down, is written as a function of its own, defined where `run`
starts, once the variables are loaded, and called in place; CPython counts
its nesting apart. It shares the locals of `run` by closure. A statement's
function declares `s` and each variable it assigns `nonlocal`, in the order
of their locals, and `run` loads each of them, which binds the name there.
It is written with the intervals known where it is called, as if it stood
there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import frontend as fe
from .errors import AnalysisError
from .frontend import INT_MAX, INT_MIN

DEFAULT_STEP_BUDGET = 100_000
OUTPUT_TOLERANCE = 1e-9    # how far apart two outputs may be, one a REAL, and be equal

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
    def __init__(self, kind, site):
        self.kind = kind
        self.site = site


class _Site:
    """Where a statement of a unit halts: its `line`, and `ahead`, the steps
    of its run that were counted where the run starts but lie after the
    statement, which a halt there gives back; None inside a check-free FOR
    loop, which counts its steps before it runs them. Each statement has its
    own, even when two share a line."""

    __slots__ = ("line", "ahead")

    def __init__(self, line, ahead=0):
        self.line = line
        self.ahead = ahead


# Where a check-free FOR loop refuses to run. Like every site inside such a
# loop it has no `ahead`: a halt there runs the program again through the
# traced units.
_AGAIN = _Site(None, None)


def _number(value, site):
    """An arithmetic result: integers must fit 64 bits, reals must be
    finite (an infinite or NaN REAL is an overflow, not a value)."""
    if isinstance(value, int):
        if not INT_MIN <= value <= INT_MAX:
            raise _Halt("integer-overflow", site)
    elif not math.isfinite(value):
        raise _Halt("real-overflow", site)
    return value


def _is_number(value):
    return not isinstance(value, bool) and isinstance(value, (int, float))


# operators as Python writes them
_COMPARISONS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITHMETIC = ("+", "-", "*")
_LOGIC = {"and": "&", "or": "|"}
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


# The interval of an INTEGER node's values, (lowest, highest). Every INTEGER
# value in the store fits 64 bits; a checked result is clipped to them. An
# interval whose lowest exceeds its highest holds no value: its node never
# yields one, so what is written for the nodes above it never runs.
_INT64 = (INT_MIN, INT_MAX)


def _span(op, left, right):
    """The interval of `left op right` for + - * on operand intervals."""
    (a, b), (c, d) = left, right
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - d, b - c
    products = (a * c, a * d, b * c, b * d)
    return min(products), max(products)


def _assigned(stmts):
    """The keys of the variables that `stmts` and the statements nested in
    them assign."""
    return {name.lower() for t in fe.walk_statements(stmts) for name, _ in fe.defined_names(t)}


def _truncated(left, right):
    """`left DIV right` for a positive `right`: the quotient toward zero."""
    return left // right if left >= 0 else -(-left // right)


# Helpers the generated source calls. Each takes its operands as arguments,
# so they are evaluated in order before it runs.

def _type_error(site, *operands):
    """A node whose operand types never fit: a fault inside an operand comes
    first, then this one."""
    raise _Halt("type-error", site)


def _overflow(site):
    raise _Halt("integer-overflow", site)


# Pascal DIV truncates toward zero and MOD takes the sign of the dividend;
# Python's // and % floor, so a result with operands of opposite signs is
# moved one step back. Only INT_MIN DIV -1 leaves 64 bits.

def _quotient(left, right, site):
    if right == 0:
        raise _Halt("division-by-zero", site)
    value = left // right
    if value < 0 and value * right != left:
        value += 1
    if value > INT_MAX:
        raise _Halt("integer-overflow", site)
    return value


def _remainder(left, right, site):
    if right == 0:
        raise _Halt("division-by-zero", site)
    value = left % right
    if value and (left < 0) is not (right < 0):
        value -= right
    return value


def _divide(left, right, site):
    if right == 0:
        raise _Halt("division-by-zero", site)
    return _number(left / right, site)


# The function of a unit. `make` takes the unit's arguments and returns
# `run(m, V, B, E, IN, OUT)`, which takes the run's state: m is the run's
# ExecutionResult, whose `steps` the statement reads into the local `s` on
# entry and writes back on exit; V is the store, B the step budget, E appends
# a trace event (None when no trace is kept), IN returns the next input and OUT
# appends an output. Next to `s`, `run` sets the bound `_b<n> = B - n + 1` of
# each length n of run of statements it counts together (below), once per
# call, so that a check makes no new int.
_HEAD = "def make({}):\n    def run(m, V, B, E, IN, OUT):"
_BASE = 3            # the indentation level of `run`'s try body and a nested function's
# CPython's nesting limits, with room to spare: a loop is one block and one
# level, and each checked operator two parentheses
_MAX_INDENT = 12
_MAX_DEPTH = 30
_BUDGET = "step-budget-exceeded"


@functools.lru_cache(maxsize=1024)
def _make(source):
    """The `make` function of a unit's source, compiled once per shape."""
    namespace = {}
    exec(compile(source, "<plancog unit>", "exec"), globals(), namespace)
    return namespace["make"]


class _Unit:
    """The source lines of one unit being written, and the values of its
    arguments: `a<n>` is args[n]. Each variable is the local `v<n>`, named
    by first occurrence, and its key is one argument."""

    def __init__(self):
        self.lines = []
        self.functions = []    # the lines of the nested functions
        self.args = []
        self.names = {}        # variable key -> (argument of the key, local)
        self.reads = set()     # keys loaded from the store on entry
        self.writes = set()    # keys written back to it on exit
        # the interval of each INTEGER variable that is known where the next
        # line is written; a unit starts with none
        self.ranges = {}
        # the run being written: (index of the line its check goes before,
        # its indentation, the argument of its first site, the site of each
        # of its steps); None between runs
        self.run = None
        self.bounds = set()    # the lengths of its runs of more than one step
        # in the body of a check-free FOR loop, the number of IF branches
        # around what is written, and the steps an iteration always counts
        # and counts on its longest path so far; None elsewhere
        self.free = None
        self.fixed = self.most = 0

    def arg(self, value):
        self.args.append(value)
        return f"a{len(self.args) - 1}"

    def var(self, key, keys):
        """The local of variable `key`, noting `key` in `keys`."""
        if key not in self.names:
            self.names[key] = self.arg(key), f"v{len(self.names)}"
        keys.add(key)
        return self.names[key][1]

    def forget(self, keys):
        """Drop the interval of each of `keys`, which may now hold any value."""
        self.ranges = {key: span for key, span in self.ranges.items() if key not in keys}

    def function(self, body):
        """The name of a function with the lines `body`, defined where `run`
        starts."""
        name = f"f{len(self.functions)}"
        self.functions.append([f"        def {name}():", *body])
        return name

    def loads(self, keys, pad):
        """Lines setting the local of each of `keys` that the store holds."""
        return [f"{pad}if {a} in V: {v} = V[{a}]"
                for key, (a, v) in self.names.items() if key in keys]

    def stores(self, keys, pad):
        """Lines writing the local of each of `keys` that is set to the store."""
        return [line for key, (a, v) in self.names.items() if key in keys
                for line in (f"{pad}try: V[{a}] = {v}", f"{pad}except NameError: pass")]


class _Writer:
    """The units of one program, traced or not: each top-level statement's
    function, written and compiled when a run first reaches it and kept for
    every later run. A unit holds no state of a run, which it takes as
    arguments."""

    def __init__(self, program, traced):
        self.traced = traced
        self.types = {d.name.lower(): d.type for d in program.declarations}
        self.units = [None] * len(program.body)

    def statement(self, s):
        """The function that runs statement `s`."""
        unit = _Unit()
        self.block(unit, s, _BASE)
        params = ", ".join([f"a{n}" for n in range(len(unit.args))])
        source = "\n".join([_HEAD.format(params), "        s = m.steps",
                            *(f"        _b{n} = B - {n - 1}" for n in sorted(unit.bounds)),
                            *unit.loads(unit.reads, "        "),
                            *(line for lines in unit.functions for line in lines),
                            "        try:", *unit.lines, "        finally:",
                            "            m.steps = s", *unit.stores(unit.writes, " " * 12),
                            "    return run\n"])
        return _make(source)(*unit.args)

    # -- steps ------------------------------------------------------------------

    def site(self, unit, line):
        """(the argument of a new statement's site on `line`, the site)."""
        held = _Site(line)
        return unit.arg(held), held

    def step(self, unit, pad, name, held):
        """Count a step at `pad` whose site is the argument `name`, holding
        `held`; None for a FOR's per-iteration step, which halts on nothing
        but the budget. The step joins the open run, or opens one here; a
        traced unit closes it at once, since its trace events record the
        count."""
        if unit.run is None:
            unit.run = len(unit.lines), pad, name, []
        unit.run[3].append(held)
        if self.traced:
            self.end_run(unit)

    def end_run(self, unit):
        """Close the open run, if any: its one check and count go where it
        starts, and each of its sites learns how many of the run's steps lie
        after it. What follows starts a run of its own."""
        if unit.run is None:
            return
        at, pad, name, sites = unit.run
        unit.run = None
        n = len(sites)
        free = unit.free is not None
        for ahead, site in enumerate(reversed(sites)):
            if site is not None:
                site.ahead = None if free else ahead
        if free:
            # inside a check-free loop, a run that every iteration makes is
            # counted before the loop, and one in an IF branch unchecked
            unit.most += n
            if unit.free:
                unit.lines.insert(at, f"{pad}s += {n}")
            else:
                unit.fixed += n
            return
        bound = "B"
        if n > 1:
            bound = f"_b{n}"
            unit.bounds.add(n)
        unit.lines[at:at] = (f"{pad}if s >= {bound}: raise _Halt('{_BUDGET}', {name})",
                             f"{pad}s += {n}")

    # -- statements -------------------------------------------------------------

    def block(self, unit, s, level):
        """Statement `s` at indentation `level`, or `pass` if it writes
        nothing: a BEGIN/END block may be empty. Inside a check-free FOR
        loop, it is an IF branch."""
        start = len(unit.lines)
        free = unit.free is not None
        if free:
            unit.free += 1
        self.emit(unit, s, level)
        self.end_run(unit)
        if free:
            unit.free -= 1
        if len(unit.lines) == start:
            unit.lines.append("    " * level + "pass")

    def emit(self, unit, s, level):
        """Write statement `s` at indentation `level`. A simple statement
        leaves its run open; a compound one ends the run of its test or
        header, and every run inside it."""
        lines, pad = unit.lines, "    " * level
        kind = type(s)
        if kind is fe.Compound:
            for t in s.body:
                self.emit(unit, t, level)
            return
        if level > _MAX_INDENT and kind not in fe.SIMPLE_KINDS:
            # a function of its own, called here, which shares the locals of
            # `run`: those it assigns are nonlocal, so `run` loads them to
            # bind them
            self.end_run(unit)
            unit.lines = []
            self.emit(unit, s, _BASE)
            body, unit.lines = unit.lines, lines
            assigned = _assigned([s])
            unit.reads |= assigned
            shared = ", ".join(["s", *(v for key, (_, v) in unit.names.items()
                                        if key in assigned)])
            lines.append(f"{pad}{unit.function([f'            nonlocal {shared}', *body])}()")
            return
        if kind in (fe.Repeat, fe.While):
            # each iteration starts a run
            self.end_run(unit)
            if unit.ranges:
                # an iteration may start with the values an earlier one assigned
                unit.forget(_assigned(s.body if kind is fe.Repeat else [s.body]))
        if kind is fe.Repeat:
            lines.append(f"{pad}while True:")
            for t in s.body:
                self.emit(unit, t, level + 1)
            pad += "    "
            site, held = self.site(unit, s.until_line)
        else:
            if kind is fe.While:
                lines.append(f"{pad}while True:")
                pad += "    "
            site, held = self.site(unit, s.line)
        self.step(unit, pad, site, held)
        if kind is fe.Assign:
            key = s.target.lower()
            target = unit.var(key, unit.writes)
            value, typed, span = self.expr(unit, s.expr, site, 0)
            declared = self.types[key]
            if typed == "integer" and declared == "real":
                value = f"float({value})"
            elif typed != declared:
                value = f"_type_error({site}, {value})"
            self.guard(unit, pad, site, f"{target} = {value}")
            self.event(unit, pad, site, key)
            # the value's interval, read only if `key` is an INTEGER
            unit.ranges = {**unit.ranges, key: span or _INT64}
        elif kind is fe.Readln:
            key = s.var.lower()
            target = unit.var(key, unit.writes)
            store = unit.arg(self.store(key, held))
            lines += (f"{pad}try:", f"{pad}    _v = IN()", f"{pad}except StopIteration:",
                      f"{pad}    raise _Halt('input-exhausted', {site}) from None")
            if self.types[key] == "integer":
                lines += (f"{pad}if type(_v) is int and INT_MIN <= _v <= INT_MAX:",
                          f"{pad}    {target} = _v", f"{pad}else:",
                          f"{pad}    {target} = {store}(_v)")
            else:
                lines.append(f"{pad}{target} = {store}(_v)")
            self.event(unit, pad, site, key)
            unit.forget({key})
        elif kind is fe.Writeln:
            value = self.expr(unit, s.expr, site, 0)[0]
            self.guard(unit, pad, site, f"OUT({value})")
        elif kind is fe.If:
            self.test(unit, pad, site, s.cond)
            lines.append(f"{pad}if _c:")
            before, most = unit.ranges, unit.most
            self.block(unit, s.then, level + 1)
            then, unit.ranges = unit.ranges, before
            most, unit.most = unit.most, most
            if s.otherwise is not None:
                lines.append(f"{pad}else:")
                self.block(unit, s.otherwise, level + 1)
            # what holds after either branch, and the longer of them
            unit.ranges = {key: span for key, span in then.items()
                           if unit.ranges.get(key) == span}
            unit.most = max(unit.most, most)
        elif kind is fe.While:
            self.test(unit, pad, site, s.cond)
            lines += (f"{pad}if not _c:", f"{pad}    break")
            # the loop ends where its test fails
            test = unit.ranges
            self.emit(unit, s.body, level + 1)
            self.end_run(unit)
            unit.ranges = test
        elif kind is fe.Repeat:
            self.test(unit, pad, site, s.cond)
            lines += (f"{pad}if _c:", f"{pad}    break")
        elif kind is fe.For:
            self.for_loop(unit, s, level, site)
        elif kind is not fe.Hole:
            raise TypeError(f"cannot execute {s!r}")

    def for_loop(self, unit, s, level, site):
        lines, pad = unit.lines, "    " * level
        key = s.var.lower()
        target = unit.var(key, unit.writes)
        start, first, low = self.expr(unit, s.start, site, 0)
        stop, last, high = self.expr(unit, s.stop, site, 0)
        # what holds as each iteration starts and once the loop ends, which
        # may be before the first iteration
        assigned = _assigned([s.body])
        unit.forget(assigned | {key})
        ranges = unit.ranges
        if not self.types[key] == first == last == "integer":
            # an INTEGER control variable and INTEGER bounds, or a type-error
            # once both bounds are evaluated, before the first iteration
            stop = f"_type_error({site}, {stop})"
        elif key not in assigned:
            # each iteration sets the variable to a value between the bounds,
            # which the body keeps
            unit.ranges = {**ranges, key: (low[0], high[1])}
        # the bounds, evaluated once, have names of their own at each loop
        # level; `range` sets the variable as each iteration starts, so the
        # body cannot change the trip count
        lower, upper = f"_i{level}", f"_n{level}"
        self.guard(unit, pad, site, f"{lower}, {upper} = {start}, {stop}")
        # the header ends its run, and each iteration's step ends the body's
        # last run
        self.end_run(unit)
        # an untraced loop whose body holds no loop checks its budget once,
        # for the most steps all its iterations can take
        free = not self.traced and not any(isinstance(t, fe.LOOP_KINDS)
                                           for t in fe.walk_statements([s.body]))
        if free:
            unit.free, unit.fixed, unit.most = 0, 0, 0
        at = len(lines)
        lines.append(f"{pad}for {target} in range({lower}, {upper} + 1):")
        self.event(unit, pad + "    ", site, key)
        self.emit(unit, s.body, level + 1)
        unit.ranges = ranges
        self.step(unit, pad + "    ", site, None)
        self.end_run(unit)
        if free:
            unit.free = None
            if len(lines) == at + 1:
                lines.append(f"{pad}    pass")
            lines[at:at] = (f"{pad}_k = {upper} - {lower} + 1 if {upper} >= {lower} else 0",
                            f"{pad}if s + _k * {unit.most} > B: raise _Halt('{_BUDGET}', _AGAIN)",
                            f"{pad}s += _k * {unit.fixed}")

    def test(self, unit, pad, site, cond):
        """The test `cond` into `_c`, which ends its run: what follows
        branches on it."""
        self.guard(unit, pad, site, f"_c = {self.condition(unit, cond, site)}")
        self.end_run(unit)

    def guard(self, unit, pad, site, code):
        """`code` at `pad`, inside a try that reports an unset variable as
        uninitialized-variable at `site`. It never holds a nested
        statement."""
        unit.lines += (f"{pad}try:", f"{pad}    {code}", f"{pad}except NameError:",
                       f"{pad}    raise _Halt('uninitialized-variable', {site}) from None")

    def event(self, unit, pad, site, key):
        """In a traced unit, the trace event of a store to `key`, made only
        when the run keeps its trace."""
        if self.traced:
            a, v = unit.names[key]
            unit.lines.append(f"{pad}if E is not None: E(TraceEvent(s, {site}.line, {a}, {v}))")

    def store(self, key, site):
        """READLN's store: the closure that checks an input against the
        bounds of an arithmetic result and the declared type of `key`, and
        returns the value to store; it halts at `site`, the value of the
        READLN's site argument."""
        declared = self.types[key]

        def store(value):
            if isinstance(value, (int, float)):
                # an input keeps the bounds of an arithmetic result
                value = _number(value, site)
                if declared == "integer" and isinstance(value, float):
                    if not value.is_integer():
                        raise _Halt("type-error", site)
                    value = _number(int(value), site)
            if declared == "integer":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise _Halt("type-error", site)
            elif declared == "real":
                if not _is_number(value):
                    raise _Halt("type-error", site)
                value = float(value)
            elif value is not True and value is not False:
                raise _Halt("type-error", site)
            return value
        return store

    # -- expressions ------------------------------------------------------------

    def condition(self, unit, e, site):
        """The source of the condition `e`: True or False, or a type-error
        when `e` is not BOOLEAN."""
        cond, typed, _ = self.expr(unit, e, site, 0)
        return cond if typed == "boolean" else f"_type_error({site}, {cond})"

    def expr(self, unit, e, site, depth):
        """(source of `e`, static type of `e`, interval of `e`), `e` being
        `depth` nodes down in a statement whose site is the argument `site`:
        every value of `e` has that type, None when `e` always ends in a
        fault, and an INTEGER value lies in that interval, None for any other
        type."""
        kind = type(e)
        if kind in _LITERALS:
            span = (e.value, e.value) if kind is fe.IntLit else None
            return unit.arg(e.value), _LITERALS[kind], span
        if kind is fe.VarRef:
            key = e.name.lower()
            typed = self.types[key]
            return (unit.var(key, unit.reads), typed,
                    unit.ranges.get(key, _INT64) if typed == "integer" else None)
        if depth == _MAX_DEPTH:
            # a function of its own, called here, which reads the locals of
            # `run`
            value, typed, span = self.expr(unit, e, site, 0)
            return f"{unit.function([f'            return {value}'])}()", typed, span
        if kind is fe.Unary:
            operand, typed, span = self.expr(unit, e.operand, site, depth + 1)
            if e.op == "not" and typed == "boolean":
                return f"(not {operand})", typed, None
            if e.op == "-" and typed == "real":
                return f"(-{operand})", typed, None
            if e.op == "-" and typed == "integer":
                if span[0] > INT_MIN:
                    return f"(-{operand})", typed, (-span[1], -span[0])
                return (f"(_t if (_t := -{operand}) <= INT_MAX else _overflow({site}))", typed,
                        (-span[1], INT_MAX))
            return f"_type_error({site}, {operand})", None, None
        if kind is fe.Binary:
            return self.binary(unit, e, site, depth)
        raise TypeError(f"cannot evaluate {e!r}")

    def binary(self, unit, e, site, depth):
        # the left operand is evaluated first, then the right one; AND and
        # OR evaluate both, but fail on a left operand that is not BOOLEAN
        # before they evaluate the right one
        op = e.op
        left, ltype, lspan = self.expr(unit, e.left, site, depth + 1)
        right, rtype, rspan = self.expr(unit, e.right, site, depth + 1)
        typed = _result_type(op, ltype, rtype)
        if typed is None:
            if op in _LOGIC and ltype != "boolean":
                return f"_type_error({site}, {left})", None, None
            return f"_type_error({site}, {left}, {right})", None, None
        if op in _LOGIC:
            return f"({left} {_LOGIC[op]} {right})", typed, None
        if op in _COMPARISONS:
            return f"({left} {_COMPARISONS[op]} {right})", typed, None
        if op == "/":
            return f"_divide({left}, {right}, {site})", typed, None
        if typed == "real":
            return f"_number({left} {op} {right}, {site})", typed, None
        if op in _ARITHMETIC:
            lo, hi = span = _span(op, lspan, rspan)
            below, above = lo < INT_MIN, hi > INT_MAX
            if not (below or above):
                return f"({left} {op} {right})", typed, span
            # a check on each side where the result can leave 64 bits
            test = f"(_t := {left} {op} {right})"
            if below:
                test = f"INT_MIN <= {test}"
            if above:
                test += " <= INT_MAX"
            return (f"(_t if {test} else _overflow({site}))", typed,
                    (max(lo, INT_MIN), min(hi, INT_MAX)))
        python = "//" if op == "div" else "%"
        if type(e.right) is fe.IntLit and e.right.value > 0:
            # a positive constant divisor: no check for 0, and the quotient
            # stays within 64 bits; a dividend that may be negative divides
            # by its magnitude
            divisor = e.right.value
            lo, hi = lspan
            if op == "div":
                span = _truncated(lo, divisor), _truncated(hi, divisor)
            else:
                span = 0 if lo >= 0 else 1 - divisor, divisor - 1
            if lo >= 0:
                return f"({left} {python} {right})", typed, span
            return (f"(_t {python} {right} if (_t := {left}) >= 0"
                    f" else -(-_t {python} {right}))"), typed, span
        return (f"{'_quotient' if op == 'div' else '_remainder'}({left}, {right}, {site})",
                typed, _INT64)


def execute(program: fe.Program, inputs, step_budget: int = DEFAULT_STEP_BUDGET,
            trace: bool = False) -> ExecutionResult:
    """Run the program against the supplied inputs; with `trace`, record a
    TraceEvent for every assignment and READLN."""
    check_step_budget(step_budget)
    return _run(program, list(inputs), step_budget, trace, trace)


def _run(program, inputs, step_budget, traced, keep_trace):
    """Run the program through its traced or untraced units; a traced run
    whose trace is not kept makes no trace event."""
    writer = program.units.get(traced)
    if writer is None:
        writer = program.units[traced] = _Writer(program, traced)
    result = ExecutionResult()
    events = result.trace.append if keep_trace else None
    state = (result, result.values, step_budget, events, iter(inputs).__next__,
             result.outputs.append)
    units = writer.units
    try:
        for n, s in enumerate(program.body):
            run = units[n]
            if run is None:
                # written when first reached: coherence's simulations mostly
                # end with input-exhausted early in a long generated program;
                # two threads that race here write equal units, and either
                # is kept
                run = units[n] = writer.statement(s)
            run(*state)
    except _Halt as halt:
        budget = halt.kind == _BUDGET
        if halt.site.ahead is None or budget and result.steps < step_budget:
            # a check-free loop counted its steps before it ran them, or
            # refused to run; or a run's check found fewer steps left than
            # the run counts. Whether a statement halts first, and how, shows
            # only statement by statement, as the traced units count them
            return _run(program, inputs, step_budget, True, False)
        result.status = RUNTIME_ERROR
        result.error_kind = halt.kind
        result.error_line = halt.site.line
        # a budget halt is the run's first step finding the budget spent
        result.steps -= 0 if budget else halt.site.ahead
    return result


def check_step_budget(step_budget):
    """A step budget is a count of 0 or more: a budget of 0 halts on the
    first statement, and a negative one is refused."""
    if step_budget < 0:
        raise AnalysisError(f"negative step budget: {step_budget}")


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
                     step_budget: int = DEFAULT_STEP_BUDGET) -> ComparisonReport:
    """Compare observable behavior of two programs over each input set."""
    entries = []
    for inputs in input_sets:
        r1 = execute(p1, inputs, step_budget)
        r2 = execute(p2, inputs, step_budget)
        if r1.status == OK and r2.status == OK:
            if _outputs_equal(r1.outputs, r2.outputs):
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


def _outputs_equal(a, b):
    """Equal outputs: a BOOLEAN equals only the same BOOLEAN, and an INTEGER
    and a REAL are equal within OUTPUT_TOLERANCE."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, bool) is not isinstance(y, bool):
            return False
        if isinstance(x, float) or isinstance(y, float):
            if abs(float(x) - float(y)) > OUTPUT_TOLERANCE:
                return False
        elif x != y:
            return False
    return True
