import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import benchmark_programs, tree_walk_execute
from plancog import frontend as fe
from plancog import interpreter as run
from plancog.errors import AnalysisError
from test_frontend import _TYPED_NAMES, _program, _stmt


def test_grey_average_of_three(grey):
    # hand trace: (1 + 2 + 3) / 3
    result = run.execute(grey, [1, 2, 3, 99999])
    assert result.status == run.OK
    assert result.outputs == [2.0]
    assert result.final_value("Sum") == 6
    assert result.final_value("Count") == 3


def test_orange_compensates(orange):
    # hand trace: Sum = -99999+1+2+3+99999, Count = -1+4
    result = run.execute(orange, [1, 2, 3, 99999])
    assert result.outputs == [2.0]
    assert result.final_value("Sum") == 6
    assert result.final_value("Count") == 3


def test_grey_empty_sequence_divides_by_zero(grey):
    result = run.execute(grey, [99999])
    assert result.status == run.RUNTIME_ERROR
    assert result.error_kind == "division-by-zero"
    assert result.error_line == 15


def test_trace_grey_count(grey):
    events = run.trace_variable(grey, [5, 99999], "Count")
    assert [(line, value) for _, line, value in events] == [(6, 0), (12, 1)]


def test_trace_orange_count_updates_for_sentinel(orange):
    events = run.trace_variable(orange, [5, 99999], "Count")
    assert [value for _, _, value in events] == [-1, 0, 1]


def test_trace_unused_variable(grey):
    program = fe.parse("PROGRAM P(input,output); VAR X, Y: INTEGER;"
                       " BEGIN X := 1; END.")
    assert run.trace_variable(program, [], "Y") == []


def test_trace_unknown_variable(grey):
    with pytest.raises(AnalysisError):
        run.trace_variable(grey, [], "Ghost")


def test_trace_events_ordered_and_declared(grey):
    result = run.execute(grey, [4, 7, 99999], trace=True)
    declared = {d.name.lower() for d in grey.declarations}
    steps = [e.step for e in result.trace]
    assert steps
    assert steps == sorted(steps)
    assert all(e.variable in declared for e in result.trace)


def test_trace_is_recorded_only_on_request(grey):
    result = run.execute(grey, [1, 2, 3, 99999])
    assert result.trace == []
    assert (result.final_value("Sum"), result.final_value("Count")) == (6, 3)


def test_compare_equal_outputs(grey, orange):
    report = run.compare_behavior(grey, orange, [[1, 2, 3, 99999]])
    assert report.entries[0].verdict == "equal"
    assert report.all_equal


def test_compare_equal_by_error(grey, orange):
    report = run.compare_behavior(grey, orange, [[99999]])
    assert report.entries[0].verdict == "equal-by-error"


def test_compare_reflexive(grey):
    report = run.compare_behavior(grey, grey, [[1, 99999], [7, 8, 99999]])
    assert report.all_equal


def test_compensation_property(grey, orange):
    rng = random.Random(0)
    sets = []
    for _ in range(100):
        n = rng.randint(1, 20)
        sets.append([rng.randint(-1000, 1000) for _ in range(n)] + [99999])
    report = run.compare_behavior(grey, orange, sets)
    assert all(e.verdict == "equal" for e in report.entries)


def test_trace_completeness(grey, orange):
    rng = random.Random(1)
    for _ in range(10):
        values = [rng.randint(-50, 50) for _ in range(rng.randint(0, 8))]
        inputs = values + [99999]
        grey_events = run.trace_variable(grey, inputs, "Count")
        orange_events = run.trace_variable(orange, inputs, "Count")
        assert len(grey_events) == 1 + len(values)
        assert len(orange_events) == 1 + len(inputs)


def test_determinism(grey):
    a = run.execute(grey, [3, 4, 99999])
    b = run.execute(grey, [3, 4, 99999])
    assert a == b


def test_input_exhausted(grey):
    result = run.execute(grey, [])
    assert result.error_kind == "input-exhausted"
    assert result.error_line == 8


def test_step_budget_stops_infinite_loop():
    program = fe.parse("PROGRAM P(input,output); VAR X: INTEGER;"
                       " BEGIN X := 0; WHILE X = 0 DO X := 0; END.")
    result = run.execute(program, [], step_budget=250)
    assert result.error_kind == "step-budget-exceeded"
    assert result.steps <= 250


def test_uninitialized_read_is_an_error():
    program = fe.parse("PROGRAM P(input,output); VAR X, Y: INTEGER;"
                       " BEGIN Y := X + 1; END.")
    result = run.execute(program, [])
    assert result.error_kind == "uninitialized-variable"


def test_integer_overflow():
    program = fe.parse(
        "PROGRAM P(input,output);\nVAR X: INTEGER;\nBEGIN\n"
        "    X := 2000000000;\n    X := X * X;\n    X := X * X;\nEND.")
    result = run.execute(program, [])
    assert result.error_kind == "integer-overflow"


@pytest.mark.parametrize("target, value, kind", [
    ("X", 2 ** 63, "integer-overflow"),
    ("X", -(2 ** 63) - 1, "integer-overflow"),
    ("X", 1e19, "integer-overflow"),
    ("R", 2 ** 63, "integer-overflow"),
    ("X", float("inf"), "real-overflow"),
    ("R", float("-inf"), "real-overflow"),
    ("R", float("nan"), "real-overflow"),
    ("X", 2 ** 63 - 1, None),
    ("X", -(2 ** 63), None),
    ("X", True, "type-error"),
    ("X", 2.0, None),
    ("X", 2.5, "type-error"),
])
def test_readln_keeps_arithmetic_bounds(target, value, kind):
    # an input outside 64 bits or not finite ends the run where it is read;
    # an INTEGER input that is not a 64-bit int takes READLN's full checks
    program = fe.parse("PROGRAM P(input,output);\nVAR X: INTEGER; R: REAL;\nBEGIN\n"
                       f"    X := 0;\n    READLN({target})\nEND.")
    result = run.execute(program, [value])
    assert (result.error_kind, result.error_line, result.steps) == (kind, kind and 5, 2)
    if kind is None:
        assert _typed(result.final_value(target)) == _typed(int(value))
    _assert_runs_like_tree_walk(program, [value])


def test_integer_division_semantics():
    program = fe.parse(
        "PROGRAM P(input,output);\nVAR A, B: INTEGER;\nVAR R: REAL;\nBEGIN\n"
        "    A := 7 DIV 2;\n    B := 7 MOD 2;\n    R := 7 / 2;\n"
        "    WRITELN(A);\n    WRITELN(B);\n    WRITELN(R);\nEND.")
    result = run.execute(program, [])
    assert result.outputs == [3, 1, 3.5]
    assert isinstance(result.outputs[2], float)


@pytest.mark.parametrize("left, right, quotient, remainder", [
    (4611686018427387905, 3, 1537228672809129301, 2),  # beyond a double's precision
    (-7, 2, -3, -1),
    (7, -2, -3, 1),
    (-7, -2, 3, -1),
])
def test_div_mod_are_exact_and_truncate_toward_zero(left, right, quotient, remainder):
    program = fe.parse(
        "PROGRAM P(input,output);\nVAR A, B: INTEGER;\nBEGIN\n"
        "    READLN(A);\n    READLN(B);\n"
        "    WRITELN(A DIV B);\n    WRITELN(A MOD B);\nEND.")
    assert run.execute(program, [left, right]).outputs == [quotient, remainder]


def test_slash_on_integers_yields_real(grey):
    result = run.execute(grey, [5, 99999])
    assert isinstance(result.outputs[0], float)
    assert result.outputs[0] == 5.0


def test_for_loop_and_booleans():
    program = fe.parse(
        "PROGRAM P(input,output);\nVAR I, S: INTEGER;\nVAR F: BOOLEAN;\nBEGIN\n"
        "    S := 0;\n    FOR I := 1 TO 4 DO\n        S := S + I;\n"
        "    F := S = 10;\n    WRITELN(F);\nEND.")
    result = run.execute(program, [])
    assert result.outputs == [True]
    assert result.final_value("S") == 10


def test_statements_after_a_halt_are_not_compiled(monkeypatch):
    program = fe.parse(_RUNTIME_HEAD + "    READLN(I);\n    WRITELN(I + 1);\n"
                       "    WHILE I > 0 DO I := I - 1\nEND.\n")
    compiled = []
    statement = run._Machine.statement

    def counting(machine, s):
        compiled.append(s)
        return statement(machine, s)
    monkeypatch.setattr(run._Machine, "statement", counting)
    result = run.execute(program, [])
    assert (result.error_kind, result.error_line) == ("input-exhausted", 4)
    top_level = [s for s in compiled if any(s is t for t in program.body)]
    assert top_level == [program.body[0]]


def test_render_value_formats():
    assert run.render_value(2.0) == "2.0"
    assert run.render_value(0.1) == "0.1"
    assert run.render_value(7) == "7"
    assert run.render_value(True) == "true"
    assert float(run.render_value(1 / 3)) == 1 / 3


# --- every runtime path, through execute --------------------------------------
# Each program's statements start on line 4; `hole` names a line that
# blank_line replaces with a hole before the run.

_RUNTIME_HEAD = "PROGRAM P(input, output);\nVAR I, Y: INTEGER; R: REAL; B: BOOLEAN;\nBEGIN\n"
_OK, _FAIL = run.OK, run.RUNTIME_ERROR


@pytest.mark.parametrize("statements, inputs, hole, expected", [
    (["B := NOT (1 > 2)", "WRITELN(B AND (2 > 1))", "WRITELN(B AND FALSE)",
      "WRITELN(FALSE OR B)", "WRITELN(FALSE OR FALSE)", "WRITELN(NOT B)"], [], None,
     (_OK, None, None, 6, ["true", "false", "true", "false", "false"])),
    (["I := 0", "WHILE I < 3 DO I := I + 1", "WRITELN(I)"], [], None,
     (_OK, None, None, 9, ["3"])),
    (["IF 1 > 2 THEN WRITELN(1) ELSE WRITELN(2)", "IF 1 < 2 THEN WRITELN(3) ELSE WRITELN(4)"],
     [], None, (_OK, None, None, 4, ["2", "3"])),
    (["WRITELN(1)", "WRITELN(2)"], [], 4, (_OK, None, None, 2, ["2"])),
    (["R := 2", "WRITELN(R)", "READLN(I)", "WRITELN(I)"], [3.0], None,
     (_OK, None, None, 4, ["2.0", "3"])),
    (["I := 1", "I := 1.5"], [], None, (_FAIL, "type-error", 5, 2, [])),
    (["I := TRUE"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["R := FALSE"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["B := 1"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["B := 1.0"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["WRITELN(1)", "READLN(I)"], [1.5], None, (_FAIL, "type-error", 5, 2, ["1"])),
    (["FOR I := 1 TO 2.5 DO WRITELN(I)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["FOR I := 0.5 TO 2 DO WRITELN(I)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["FOR I := FALSE TO TRUE DO WRITELN(I)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["FOR B := FALSE TO TRUE DO WRITELN(B)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["FOR R := 1 TO 2 DO WRITELN(R)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["IF 1 THEN WRITELN(1)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["I := 0", "WHILE I DO I := 1"], [], None, (_FAIL, "type-error", 5, 2, [])),
    (["REPEAT I := 1 UNTIL 2.0"], [], None, (_FAIL, "type-error", 4, 2, [])),
    (["B := TRUE", "WRITELN(-B)"], [], None, (_FAIL, "type-error", 5, 2, [])),
    (["WRITELN(NOT 1)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["WRITELN(1 AND TRUE)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["WRITELN(TRUE OR 1)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["B := FALSE AND (Y = 1)"], [], None, (_FAIL, "uninitialized-variable", 4, 1, [])),
    (["WRITELN(1 AND (Y = 1))"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["WRITELN(TRUE = 1)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["WRITELN(0.5 < FALSE)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["WRITELN(TRUE + 1)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["WRITELN(2.0 * FALSE)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["WRITELN(2.0 DIV 1)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["WRITELN(5 MOD 2.0)"], [], None, (_FAIL, "type-error", 4, 1, [])),
    (["WRITELN(5 DIV 0)"], [], None, (_FAIL, "division-by-zero", 4, 1, [])),
    (["WRITELN(5 MOD 0)"], [], None, (_FAIL, "division-by-zero", 4, 1, [])),
    (["WRITELN(1.0 / 0)"], [], None, (_FAIL, "division-by-zero", 4, 1, [])),
    (["WRITELN((Y + TRUE) * 2)"], [], None, (_FAIL, "uninitialized-variable", 4, 1, [])),
    (["Y := 1", "WRITELN((Y + TRUE) * 2)"], [], None, (_FAIL, "type-error", 5, 2, [])),
    (["WRITELN(TRUE + (9223372036854775807 + 1))"], [], None,
     (_FAIL, "integer-overflow", 4, 1, [])),
    (["I := 7 DIV 0 + TRUE"], [], None, (_FAIL, "division-by-zero", 4, 1, [])),
    (["READLN(R)", "WRITELN(R * R + TRUE)"], [1e308], None, (_FAIL, "real-overflow", 5, 2, [])),
    (["Y := 1", "I := 2.0 + Y"], [], None, (_FAIL, "type-error", 5, 2, [])),
    (["WHILE 1 + Y DO Y := 1"], [], None, (_FAIL, "uninitialized-variable", 4, 1, [])),
    (["FOR I := Y TO TRUE DO WRITELN(I)"], [], None, (_FAIL, "uninitialized-variable", 4, 1, [])),
    (["Y := 3", "FOR I := 1 TO Y DO Y := Y - 1", "WRITELN(I)", "WRITELN(Y)"], [], None,
     (_OK, None, None, 10, ["3", "0"])),
    (["READLN(B)", "WRITELN(NOT B)"], [True], None, (_OK, None, None, 2, ["false"])),
    (["READLN(R)", "WRITELN(R)"], [2], None, (_OK, None, None, 2, ["2.0"])),
    (["READLN(B)"], [1], None, (_FAIL, "type-error", 4, 1, [])),
    (["READLN(I)"], [True], None, (_FAIL, "type-error", 4, 1, [])),
    (["READLN(R)"], [False], None, (_FAIL, "type-error", 4, 1, [])),
    (["IF Y = 1 THEN I := 1"], [], None, (_FAIL, "uninitialized-variable", 4, 1, [])),
    (["REPEAT I := 1 UNTIL Y = 1"], [], None, (_FAIL, "uninitialized-variable", 4, 2, [])),
    (["R := 1.5", "WRITELN(-R)"], [], None, (_OK, None, None, 2, ["-1.5"])),
    (["READLN(I)", "WRITELN(-I)"], [-(2 ** 63)], None, (_FAIL, "integer-overflow", 5, 2, [])),
    # statements that read their leaf operands inline: v := v op v, v := v op c,
    # and IF and UNTIL tests comparing a variable with a variable or integer
    # constant; WHILE runs the same kind of test through its closure
    (["I := 3", "Y := I * I", "Y := Y - 2", "WRITELN(Y)"], [], None,
     (_OK, None, None, 4, ["7"])),
    (["I := 1", "Y := I + Y"], [], None, (_FAIL, "uninitialized-variable", 5, 2, [])),
    (["Y := Y - 1"], [], None, (_FAIL, "uninitialized-variable", 4, 1, [])),
    (["I := 9223372036854775807", "Y := I + I"], [], None, (_FAIL, "integer-overflow", 5, 2, [])),
    (["I := -9223372036854775807", "Y := I - 2"], [], None, (_FAIL, "integer-overflow", 5, 2, [])),
    (["I := 1", "Y := 2", "IF I < Y THEN WRITELN(I) ELSE WRITELN(Y)"], [], None,
     (_OK, None, None, 4, ["1"])),
    (["I := 1", "IF I >= Y THEN WRITELN(I)"], [], None,
     (_FAIL, "uninitialized-variable", 5, 2, [])),
    (["R := 0.5", "IF R > 0 THEN WRITELN(1) ELSE WRITELN(0)"], [], None,
     (_OK, None, None, 3, ["1"])),
    (["R := 0.5", "WHILE R < 3 DO R := R + 1", "WRITELN(R)"], [], None,
     (_OK, None, None, 9, ["3.5"])),
    (["WHILE R < 1 DO R := R + 1"], [], None, (_FAIL, "uninitialized-variable", 4, 1, [])),
    (["I := 0", "WHILE I < Y DO I := I + 1"], [], None,
     (_FAIL, "uninitialized-variable", 5, 2, [])),
    (["I := 9223372036854775806", "WHILE I > 0 DO I := I + 1"], [], None,
     (_FAIL, "integer-overflow", 5, 5, [])),
    (["REPEAT I := 1 UNTIL I = Y"], [], None, (_FAIL, "uninitialized-variable", 4, 2, [])),
    (["I := 9223372036854775806", "REPEAT I := I + 1 UNTIL I < 0"], [], None,
     (_FAIL, "integer-overflow", 5, 4, [])),
    # the same statements on operands that are not leaves
    (["I := 0", "WHILE I + 1 < 3 DO I := I + 1", "WRITELN(I)"], [], None,
     (_OK, None, None, 7, ["2"])),
    (["REPEAT I := 1 UNTIL Y + 1 = 1"], [], None, (_FAIL, "uninitialized-variable", 4, 2, [])),
], ids=["not-and-or", "while-exits", "if-else", "hole", "integer-into-real",
        "real-into-integer", "boolean-into-integer", "boolean-into-real",
        "integer-into-boolean", "real-into-boolean", "fractional-read",
        "real-for-stop", "real-for-start", "boolean-for-bounds",
        "boolean-for-variable", "real-for-variable", "if-on-integer",
        "while-on-integer", "until-on-real", "minus-boolean", "not-integer",
        "and-integer-left", "or-integer-right", "and-evaluates-both", "and-tests-left-first",
        "boolean-equals-integer", "real-below-boolean", "boolean-plus",
        "real-times-boolean", "div-real", "mod-real", "div-zero", "mod-zero",
        "slash-zero", "ill-typed-operand-reads-first", "ill-typed-operand",
        "overflow-under-ill-typed", "division-by-zero-under-ill-typed",
        "real-overflow-under-ill-typed", "real-into-integer-sum", "while-reads-first",
        "for-reads-first", "for-bound-evaluated-once", "boolean-read", "integer-read-into-real",
        "integer-read-into-boolean", "boolean-read-into-integer", "boolean-read-into-real",
        "if-reads-first", "until-reads-first", "minus-real", "minus-overflow", "inline-arithmetic",
        "inline-vv-reads-first", "inline-vc-reads-first", "inline-vv-overflow",
        "inline-vc-overflow", "inline-if", "inline-if-reads-first", "inline-if-real",
        "while-leaf-real", "while-leaf-real-reads-first", "while-leaf-reads-first",
        "while-leaf-body-overflow", "inline-until-reads-first", "inline-until-body-overflow",
        "while-on-expression", "until-on-expression-reads-first"])
def test_runtime_paths(statements, inputs, hole, expected):
    source = _RUNTIME_HEAD + ";\n".join(f"    {s}" for s in statements) + "\nEND.\n"
    program = fe.parse(source) if hole is None else fe.blank_line(source, hole).context
    result = run.execute(program, inputs)
    outputs = [run.render_value(v) for v in result.outputs]
    assert (result.status, result.error_kind, result.error_line, result.steps, outputs) == expected
    _assert_runs_like_tree_walk(program, inputs)


@pytest.mark.parametrize("statement, hole, line", [
    ("WRITELN(I)", None, 5),
    ("WHILE I = 0 DO I := 1", None, 5),
    ("READLN(Y)", None, 5),
    ("IF I = 0 THEN I := 1", None, 5),
    ("REPEAT\n    UNTIL I = 0", None, 6),
    ("FOR Y := 1 TO 2 DO I := 1", None, 5),
    ("Y := 1", 5, 5),
    ("Y := I + I", None, 5),
    ("Y := I * 2", None, 5),
    ("IF R > 0 THEN I := 1", None, 5),
    ("IF I + 1 = 0 THEN I := 1", None, 5),
    ("WHILE I + 1 = 0 DO I := 1", None, 5),
    ("REPEAT\n    UNTIL I + 1 = 0", None, 6),
], ids=["writeln", "while", "readln", "if", "until", "for", "hole", "inline-vv", "inline-vc",
        "inline-if-real", "if-on-expression", "while-on-expression", "until-on-expression"])
def test_step_budget_is_checked_by_each_statement_kind(statement, hole, line):
    # the first assignment takes the only step, so the next statement to run
    # finds the budget spent
    source = _RUNTIME_HEAD + f"    I := 0;\n    {statement}\nEND.\n"
    program = fe.parse(source) if hole is None else fe.blank_line(source, hole).context
    result = run.execute(program, [7], step_budget=1)
    assert (result.status, result.error_kind, result.error_line, result.steps) == \
        (_FAIL, "step-budget-exceeded", line, 1)
    _assert_runs_like_tree_walk(program, [7], step_budget=1)


def _writes(*expressions):
    writes = "".join(f";\n    WRITELN({e})" for e in expressions)
    return fe.parse("PROGRAM P(input, output);\nVAR X: INTEGER;\nBEGIN\n"
                    f"    READLN(X){writes}\nEND.\n")


@pytest.mark.parametrize("first, second, inputs, verdict, detail", [
    ("X", ("X + 1",), [1], "unequal", "[1] vs [2]"),
    ("X", ("X", "X"), [1], "unequal", "[1] vs [1, 1]"),
    ("X", ("X * 0.1 * 3 / 0.3",), [1], "equal", "outputs [1]"),
    ("X", ("X / 3 * 3 + 0.1",), [1], "unequal", "[1] vs [1.1]"),
    ("X", ("X DIV 0",), [1], "differing-status", "one run failed with division-by-zero"),
    ("X DIV 0", ("X",), [1], "differing-status", "one run failed with division-by-zero"),
    ("X DIV 0", ("X * 9223372036854775807 * 2",), [1], "differing-status",
     "division-by-zero vs integer-overflow"),
    ("X", ("X DIV 0",), [], "equal-by-error", "both input-exhausted"),
], ids=["unequal", "more-outputs", "within-tolerance", "beyond-tolerance", "second-fails",
        "first-fails", "different-errors", "same-error"])
def test_compare_behavior_verdicts(first, second, inputs, verdict, detail):
    report = run.compare_behavior(_writes(first), _writes(*second), [inputs])
    assert [(e.inputs, e.verdict, e.detail) for e in report.entries] == \
        [(inputs, verdict, detail)]
    assert report.all_equal is (verdict in ("equal", "equal-by-error"))


# --- the compiled interpreter against the tree walker --------------------------

def _typed(value):
    return type(value).__name__, repr(value)


def _observed(result):
    return (result.status, result.error_kind, result.error_line, result.steps,
            [_typed(v) for v in result.outputs])


def _events(result):
    return [(e.step, e.line, e.variable, _typed(e.value)) for e in result.trace]


def _last_traced(result, var):
    values = [e.value for e in result.trace if e.variable == var.lower()]
    return values[-1] if values else None


def _assert_runs_like_tree_walk(program, inputs, step_budget=run.DEFAULT_STEP_BUDGET):
    want = tree_walk_execute(program, inputs, step_budget)
    for trace in (False, True):
        got = run.execute(program, inputs, step_budget, trace=trace)
        assert _observed(got) == _observed(want)
        assert _events(got) == (_events(want) if trace else [])
        for d in program.declarations:
            assert _typed(got.final_value(d.name)) == _typed(_last_traced(want, d.name))


class _Int(int):
    """An int that is not of type int: READLN must store what it checked."""


class _Float(float):
    """A float that is not of type float."""


_INPUT = st.one_of(
    st.sampled_from([2 ** 63 - 1, 2 ** 63, -(2 ** 63), -(2 ** 63) - 1, True, 1e308, 99999,
                     _Int(2 ** 63 - 1), _Int(-(2 ** 63)), _Float(1e308), _Float(-4.0)]),
    st.integers(-1000, 1000), st.floats(), st.integers(-1000, 1000).map(_Int),
    st.floats().map(_Float))


# initial values for every variable, so that most runs get past the first use
_PRELUDE = st.tuples(st.lists(st.integers(-3, 5), min_size=4, max_size=4),
                     st.sampled_from(["0.5", "-2", "123456789012.5"]),
                     st.sampled_from(["TRUE", "FALSE"])).map(
    lambda t: [f"{name} := {value}" for name, value in zip(_TYPED_NAMES, [*t[0], *t[1:]])])


# statements that read their leaf operands inline: v := v op v or c, and IF
# and UNTIL tests comparing a variable with a variable or integer constant,
# over names of every type; WHILE takes the same tests through its closure
_NAME = st.sampled_from(_TYPED_NAMES)
_LEAF = st.one_of(_NAME, st.sampled_from(["0", "3", "9223372036854775807"]))
_TEST = st.tuples(_NAME, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), _LEAF).map(" ".join)
_INLINE = st.one_of(
    st.tuples(_NAME, _NAME, st.sampled_from(["+", "-", "*"]), _LEAF).map(
        lambda t: f"{t[0]} := {t[1]} {t[2]} {t[3]}"),
    st.tuples(_TEST, _stmt(1, _TYPED_NAMES)).map(lambda t: f"IF {t[0]} THEN BEGIN {t[1]}; END"),
    st.tuples(_TEST, _stmt(1, _TYPED_NAMES)).map(lambda t: f"WHILE {t[0]} DO BEGIN {t[1]}; END"),
    st.tuples(_stmt(1, _TYPED_NAMES), _TEST).map(lambda t: f"REPEAT {t[0]}; UNTIL {t[1]}"))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just([]), _PRELUDE),
       st.lists(st.one_of(_stmt(2, _TYPED_NAMES), _INLINE), min_size=1, max_size=6),
       st.lists(_INPUT, max_size=8), st.integers(1, 400))
def test_generated_runs_match_tree_walk(prelude, stmts, inputs, step_budget):
    program = fe.parse(_program(prelude + stmts))
    _assert_runs_like_tree_walk(program, inputs, step_budget)


_INT64 = st.one_of(st.integers(fe.INT_MIN, fe.INT_MAX),
                   st.sampled_from([fe.INT_MIN, fe.INT_MIN + 1, -1, 0, 1, fe.INT_MAX]))


@settings(max_examples=300, deadline=None)
@given(_INT64, _INT64)
def test_integer_arithmetic_matches_tree_walk(left, right):
    program = fe.parse("PROGRAM P(input, output);\nVAR A, B: INTEGER;\nBEGIN\n"
                       "    READLN(A);\n    READLN(B);\n    WRITELN(A DIV B);\n"
                       "    WRITELN(A MOD B);\n    WRITELN(-A);\n    WRITELN(A * B);\n"
                       "    WRITELN(A + B - B);\nEND.\n")
    _assert_runs_like_tree_walk(program, [left, right])


# every operand shape the compiler reads apart: (var, var), (var, const),
# (expr, const), (expr, var), two closures, and constant divisors of 0; R
# is a REAL variable
_SHAPES = ("A {} B", "A {} 3", "(A - 1) {} 3", "(A - 1) {} B", "(A - 1) {} (B + 1)",
           "2 {} B", "A {} 0", "(A + 1) {} 0", "R {} 3", "R {} B")
_PAIRS = ((7, 2), (-7, 2), (7, -2), (-7, -2), (6, 3), (-6, -3), (0, 0), (fe.INT_MIN, -1),
          (fe.INT_MAX, 1), (fe.INT_MIN, 2), (fe.INT_MAX, fe.INT_MAX), (-2, fe.INT_MAX))
# each shape as an expression, a stored value and the test of every
# conditional statement; the loops stop at the step budget if not before
_STATEMENTS = ("WRITELN({})", "C := {}", "IF {} THEN WRITELN(1) ELSE WRITELN(0)",
               "WHILE {} DO A := A - 1", "REPEAT A := A + 1 UNTIL {}")


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "DIV", "MOD", "=", "<>", "<", "<=", ">",
                                ">="])
def test_operand_shapes_match_tree_walk(op):
    for shape, statement in itertools.product(_SHAPES, _STATEMENTS):
        program = fe.parse("PROGRAM P(input, output);\nVAR A, B, C: INTEGER; R: REAL;\nBEGIN\n"
                           "    READLN(A);\n    READLN(B);\n    READLN(R);\n"
                           f"    {statement.format(shape.format(op))}\nEND.\n")
        for a, b in _PAIRS:
            _assert_runs_like_tree_walk(program, [a, b, a / 4], step_budget=30)


def test_corpus_and_benchmark_runs_match_tree_walk(corpus_sources):
    pg = benchmark_programs()
    rng = random.Random(5)
    inputs = [[1, 2, 3, 99999], [99999], [], [5, -7, 2.5, 99999],
              pg.sentinel_inputs(rng, 200, 99999)]
    for source in corpus_sources.values():
        for values in inputs:
            _assert_runs_like_tree_walk(fe.parse(source), values)
    for name in ("grey", "orange"):
        program = fe.parse(pg.corpus_program(f"{name}.mp").source)
        for values in inputs:
            for step_budget in (40, run.DEFAULT_STEP_BUDGET):
                _assert_runs_like_tree_walk(program, values, step_budget)
    names = {"sum": "Total", "row": "Row", "col": "Col", "part": "Part"}
    for rows, cols, offset in ((6, 7, -12), (9, 4, 31)):
        block = pg.nested_block(names, rows, cols, offset, rng.randint(5, 97), rng.randint(1, 7))
        program = fe.parse(pg.render("Grid", [block]).source)
        for step_budget in (57, run.DEFAULT_STEP_BUDGET):
            _assert_runs_like_tree_walk(program, [], step_budget)
