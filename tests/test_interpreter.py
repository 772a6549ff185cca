import gc
import itertools
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import benchmark_programs, tree_walk_execute
from plancog import frontend as fe
from plancog import interpreter as run
from plancog.errors import AnalysisError, ParseError
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


def test_a_budget_re_run_makes_no_trace_event(monkeypatch):
    # the untraced run's check trips part-way through the loop body, so the
    # program runs again through the traced units, keeping no trace
    program = fe.parse("PROGRAM P(input,output); VAR X, Y: INTEGER; BEGIN X := 0;"
                       " WHILE X = 0 DO BEGIN X := 0; Y := 1; Y := 2 END END.")
    kept = run.execute(program, [], trace=True)
    assert len(kept.trace) > 1000
    made = []

    class Counted(run.TraceEvent):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(run, "TraceEvent", Counted)
    rerun = run.execute(program, [])
    assert made == []
    assert rerun.trace == []
    assert ((rerun.status, rerun.error_kind, rerun.error_line, rerun.steps, rerun.values)
            == (kept.status, kept.error_kind, kept.error_line, kept.steps, kept.values)
            == (run.RUNTIME_ERROR, "step-budget-exceeded", 1, run.DEFAULT_STEP_BUDGET,
                {"x": 0, "y": 1}))


def test_a_negative_step_budget_is_an_analysis_error(grey):
    for call in (lambda: run.execute(grey, [1, 99999], -5),
                 lambda: run.trace_variable(grey, [1, 99999], "Sum", -1),
                 lambda: run.compare_behavior(grey, grey, [[1, 99999]], -1)):
        with pytest.raises(AnalysisError, match="negative step budget"):
            call()
    result = run.execute(grey, [1, 99999], 0)
    assert (result.error_kind, result.error_line, result.steps) == ("step-budget-exceeded", 5, 0)


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
    statement = run._Writer.statement

    def counting(writer, s):
        compiled.append(s)
        return statement(writer, s)
    monkeypatch.setattr(run._Writer, "statement", counting)
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
    (["BEGIN END", "IF 1 < 2 THEN BEGIN END ELSE BEGIN END", "WRITELN(1)"], [], None,
     (_OK, None, None, 2, ["1"])),
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
        "while-on-expression", "until-on-expression-reads-first", "empty-blocks"])
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
    ("X = 1", ("X",), [1], "unequal", "[True] vs [1]"),
    ("X = 1", ("X / 1",), [1], "unequal", "[True] vs [1.0]"),
], ids=["unequal", "more-outputs", "within-tolerance", "beyond-tolerance", "second-fails",
        "first-fails", "different-errors", "same-error", "boolean-and-integer",
        "boolean-and-real"])
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
    _assert_run_like_tree_walk(program, inputs, step_budget)
    # a second run reuses the units of the first, with the inputs reversed
    # and half the step budget
    _assert_run_like_tree_walk(program, inputs[::-1], step_budget // 2)


def _assert_run_like_tree_walk(program, inputs, step_budget):
    """An untraced and a traced run of `program` match the tree walker's."""
    want = tree_walk_execute(program, inputs, step_budget)
    for trace in (False, True):
        got = run.execute(program, inputs, step_budget, trace=trace)
        assert _observed(got) == _observed(want)
        assert _events(got) == (_events(want) if trace else [])
        for d in program.declarations:
            assert _typed(got.final_value(d.name)) == _typed(_last_traced(want, d.name))
        assert _store(got) == _store(want)


def _store(result):
    return {key: _typed(value) for key, value in result.values.items()}


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


# --- generated units: CPython's nesting limits and shared shapes -------------

def _nested_programs():
    """Programs nested exactly frontend.MAX_DEPTH deep, one per statement
    kind and a parenthesised expression, each with the same program one
    level deeper, which does not parse."""
    def shapes(levels):
        loops = levels - 3      # the innermost statement, its expression and its leaves
        return {
            "while": "WHILE I < 9 DO " * loops + "I := I + 1",
            "for": "FOR I := 1 TO 2 DO " * loops + "Y := Y + I",
            "if": "IF I > 0 THEN " * loops + "I := I - 1",
            "if-else": "IF I > 0 THEN I := I - 1 ELSE " * loops + "Y := Y - 1",
            "repeat": "REPEAT " * loops + "I := I + 1" + " UNTIL I > 3" * loops,
            # a right-nested chain: every pair of parentheses is a node
            "parentheses": "Y := " + "I + (" * (levels - 2) + "Y" + ")" * (levels - 2),
        }
    source = _RUNTIME_HEAD + "    I := 1;\n    Y := 2;\n    {}\nEND.\n"
    deeper = shapes(fe.MAX_DEPTH + 1)
    return [pytest.param(source.format(text), source.format(deeper[kind]), id=kind)
            for kind, text in shapes(fe.MAX_DEPTH).items()]


@pytest.mark.parametrize("source, deeper", _nested_programs())
def test_programs_at_the_nesting_bound_run_like_tree_walk(source, deeper):
    # nested deeper than one generated function may be, so deep statements
    # and expressions run as functions nested in their statement's
    program = fe.parse(source)
    with pytest.raises(ParseError):
        fe.parse(deeper)
    _assert_runs_like_tree_walk(program, [], 3000)
    _assert_runs_like_tree_walk_at_every_step_budget(program, [], most=40)
    # Y unset, and Y close to overflowing
    _assert_runs_like_tree_walk(fe.parse(source.replace("Y := 2", "I := I")), [])
    _assert_runs_like_tree_walk(fe.parse(source.replace("Y := 2", "Y := 9223372036854775800")),
                                [])


# state shared with a nested function (a unit, in the ids): the statement
# sets X, which a deep statement's function (the IF chain) or a deep
# expression's (the long sum) reads; in the last, the deep statement's
# function sets Y and then halts on its step budget
_BOUNDARIES = {
    "statement-unit": ("X := 5; " + "IF X > 0 THEN " * 14 + "Y := X + 1; WRITELN(Y)",
                       run.OK, [6], {"x": 5, "y": 6}),
    "expression-unit": ("X := 5; Y := X" + " + 1" * 40 + "; WRITELN(Y)",
                        run.OK, [45], {"x": 5, "y": 45}),
    "halt-in-unit": ("Y := 1; " + "IF Y > 0 THEN " * 14 + "BEGIN Y := 7; WHILE TRUE DO X := Y END",
                     run.RUNTIME_ERROR, [], {"x": 7, "y": 7}),
}


@pytest.mark.parametrize("body, status, outputs, values", _BOUNDARIES.values(),
                         ids=_BOUNDARIES)
def test_state_crosses_unit_boundaries_like_tree_walk(body, status, outputs, values):
    program = fe.parse("PROGRAM P(input, output);\nVAR X, Y: INTEGER;\nBEGIN\n"
                       f"    IF TRUE THEN BEGIN {body}; END\nEND.\n")
    want = tree_walk_execute(program, [], 60)
    assert (want.status, want.outputs, want.values) == (status, outputs, values)
    _assert_runs_like_tree_walk(program, [], 60)


# --- value ranges: checks that FOR bounds and assignments prove dead ----------
# Each program's fault, if any, is the one a check that was wrongly left out
# would miss. The bounds sit at the 64-bit edges; the control variable is
# changed inside the body, in a nested function, or read by one. A
# variable assigned a small value earlier in the same statement is assigned
# a large one on a path the writer must not take for granted: in a branch,
# later in a loop, in a loop that makes no trip, or in a nested function. A
# check that one side of 64 bits can never need is written for the other
# side only.

_LOOP_HEAD = "PROGRAM P(input, output);\nVAR I, J, K, Y: INTEGER;\nBEGIN\n"
_MAX, _MIN = "9223372036854775807", "-9223372036854775807 - 1"
_DEEP = "IF TRUE THEN " * 14      # past _MAX_INDENT inside a FOR body
_OVERFLOW = "integer-overflow"
_RANGES = {
    "plus-overflows-last": (f"FOR I := 9223372036854775806 TO {_MAX} DO Y := I + 1",
                            [], _OVERFLOW),
    "plus-fits-at-the-edge": ("FOR I := 9223372036854775805 TO 9223372036854775806 DO"
                              " WRITELN(I + 1)", [], None),
    "minus-overflows-first": (f"FOR I := {_MIN} TO 0 DO Y := I - 1", [], _OVERFLOW),
    "minus-fits-at-the-edge": (f"FOR I := {_MIN} + 1 TO {_MIN} + 2 DO WRITELN(I - 1)",
                               [], None),
    "difference-overflows-last": (f"FOR I := 0 TO 1 DO FOR J := -{_MAX} TO -9223372036854775806"
                                  " DO WRITELN(I - J)", [], _OVERFLOW),
    "times-overflows-last": ("FOR I := 4611686018427387903 TO 4611686018427387904 DO"
                             " Y := I * 2", [], _OVERFLOW),
    "times-fits-at-the-edge": ("FOR I := -4611686018427387904 TO -4611686018427387903 DO"
                               " WRITELN(I * 2)", [], None),
    # J takes 0 and 2 ** 62, bounded by K, so the extremes of I * J mix signs
    "product-overflows-last": ("FOR I := -3 TO -2 DO FOR K := 0 TO 1 DO"
                               " FOR J := K * 4611686018427387904 TO K * 4611686018427387904"
                               " DO WRITELN(I * J)", [], _OVERFLOW),
    "square-overflows-last": ("FOR I := 3037000499 TO 3037000500 DO WRITELN(I * I)",
                              [], _OVERFLOW),
    "negation-overflows-first": (f"FOR I := {_MIN} TO 3 DO Y := -I", [], _OVERFLOW),
    "negation-fits-at-the-edge": (f"FOR I := -{_MAX} TO -9223372036854775806 DO WRITELN(-I)",
                                  [], None),
    "assigned-in-the-body": (f"FOR I := 1 TO 3 DO BEGIN I := {_MAX}; Y := I + 1 END",
                             [], _OVERFLOW),
    "read-in-the-body": ("FOR I := 1 TO 3 DO BEGIN READLN(I); WRITELN(I * 2) END",
                         [5, int(_MAX)], _OVERFLOW),
    "assigned-in-another-case": (f"FOR I := 1 TO 3 DO BEGIN i := {_MAX}; Y := i + 1 END",
                                 [], _OVERFLOW),
    "read-in-another-case": ("FOR I := 1 TO 3 DO BEGIN READLN(i); WRITELN(I * 2) END",
                             [5, int(_MAX)], _OVERFLOW),
    "inner-for-of-the-variable": (f"FOR I := 1 TO 2 DO BEGIN FOR I := 9223372036854775806"
                                  f" TO {_MAX} DO WRITELN(I - 1); WRITELN(I + 1) END",
                                  [], _OVERFLOW),
    "assigned-after-in-a-loop": (f"FOR I := 1 TO 2 DO REPEAT WRITELN(I + 1); I := {_MAX}"
                                 " UNTIL FALSE", [], _OVERFLOW),
    "assigned-in-an-inner-loop": (f"FOR I := 1 TO 2 DO FOR J := 1 TO 2 DO BEGIN"
                                  f" WRITELN(I * 2); I := 4611686018427387904 END",
                                  [], _OVERFLOW),
    "zero-trip": (f"I := {_MAX}; FOR I := {_MAX} TO 9223372036854775806 DO WRITELN(I + 1);"
                  " WRITELN(I)", [], None),
    "negative-dividend": ("FOR I := -7 TO 7 DO BEGIN WRITELN(I DIV 3); WRITELN(I MOD 3);"
                          " WRITELN((I + 7) MOD 4 DIV 3); WRITELN((I - 1) MOD 5 DIV 2);"
                          " WRITELN(I DIV 2 MOD 3) END",
                          [], None),
    "bounds-from-the-outer-variable": ("FOR I := 9223372036854775805 TO 9223372036854775807 DO"
                                       " FOR J := I - 1 TO I DO WRITELN(J + 1)",
                                       [], _OVERFLOW),
    "signs-from-the-outer-variable": ("FOR I := -2 TO 2 DO FOR J := I TO I + 2 DO"
                                      " WRITELN(J DIV 2 + J MOD 2)", [], None),
    "read-past-max-indent": (f"FOR I := 9223372036854775806 TO {_MAX} DO {_DEEP}WRITELN(I + 1)",
                             [], _OVERFLOW),
    "assigned-past-max-indent": (f"FOR I := 1 TO 2 DO BEGIN {_DEEP}I := {_MAX};"
                                 " WRITELN(I + 1) END", [], _OVERFLOW),
    "for-past-max-indent": (f"{_DEEP}FOR I := 9223372036854775805 TO {_MAX} DO"
                            " FOR J := 1 TO 2 DO WRITELN(I + J)", [], _OVERFLOW),
    "read-past-max-depth": (f"FOR I := 9223372036854775806 TO {_MAX} DO WRITELN("
                            + "0 + (" * 32 + "I + 1" + ")" * 32 + ")", [], _OVERFLOW),
    "increment-overflows-above": ("READLN(Y); Y := Y + 1", [fe.INT_MAX], _OVERFLOW),
    "increment-fits-below": ("READLN(Y); Y := Y + 1", [fe.INT_MIN], None),
    "decrement-overflows-below": ("READLN(Y); Y := Y - 1", [fe.INT_MIN], _OVERFLOW),
    "decrement-fits-above": ("READLN(Y); Y := Y - 1", [fe.INT_MAX], None),
    "minus-for-variable-overflows-below": ("READLN(Y); FOR I := 1 TO 5 DO WRITELN(Y - I)",
                                           [fe.INT_MIN + 3], _OVERFLOW),
    "times-for-variable-overflows-above": ("READLN(Y); FOR I := -1 TO 2 DO WRITELN(Y * I)",
                                           [fe.INT_MIN], _OVERFLOW),
    "times-for-variable-overflows-below": ("READLN(Y); FOR I := -1 TO 2 DO WRITELN(Y * I)",
                                           [-4611686018427387905], _OVERFLOW),
    "assigned-then-read": ("BEGIN Y := 4611686018427387903; WRITELN(Y * 2 + 1);"
                           " Y := Y + 1; WRITELN(Y * 2) END", [], _OVERFLOW),
    "assigned-in-a-branch": (f"BEGIN Y := 0; IF TRUE THEN Y := {_MAX}; WRITELN(Y + 1) END",
                             [], _OVERFLOW),
    "assigned-in-the-other-branch": (f"BEGIN Y := 0; IF FALSE THEN Y := 1 ELSE Y := {_MAX};"
                                     " WRITELN(Y + 1) END", [], _OVERFLOW),
    "assigned-later-in-a-repeat": ("BEGIN Y := 1; J := 0; REPEAT J := J + 1; WRITELN(Y * 2);"
                                   " Y := 4611686018427387904 UNTIL J = 2 END", [], _OVERFLOW),
    "assigned-later-in-a-while": ("BEGIN Y := 1; WHILE TRUE DO BEGIN WRITELN(Y * 2);"
                                  " Y := 4611686018427387904 END END", [], _OVERFLOW),
    "assigned-later-in-a-for": ("BEGIN Y := 1; FOR I := 1 TO 2 DO BEGIN WRITELN(Y * 2);"
                                " Y := 4611686018427387904 END END", [], _OVERFLOW),
    "assigned-in-a-for": (f"BEGIN Y := 0; FOR I := 1 TO 2 DO Y := {_MAX}; WRITELN(Y + 1) END",
                          [], _OVERFLOW),
    "while-without-a-trip": (f"BEGIN Y := {_MAX}; WHILE Y < 0 DO Y := 0; WRITELN(Y + 1) END",
                             [], _OVERFLOW),
    "assigned-by-readln": ("BEGIN Y := 0; READLN(Y); WRITELN(Y + 1) END", [fe.INT_MAX],
                           _OVERFLOW),
    "assigned-in-a-nested-unit": (f"BEGIN Y := 0; {_DEEP}Y := {_MAX}; WRITELN(Y + 1) END",
                                  [], _OVERFLOW),
}


@pytest.mark.parametrize("statements, inputs, fault", _RANGES.values(), ids=_RANGES)
def test_checks_that_for_bounds_prove_dead_are_the_only_ones_left_out(statements, inputs,
                                                                       fault):
    program = fe.parse(f"{_LOOP_HEAD}    {statements}\nEND.\n")
    assert tree_walk_execute(program, inputs).error_kind == fault
    # a generous step budget, and one that stops inside the loop
    for step_budget in (run.DEFAULT_STEP_BUDGET, 3):
        _assert_runs_like_tree_walk(program, inputs, step_budget)


_FOR_GRID = ("Y := 0; FOR I := 1 TO 3 DO FOR J := 1 TO 4 DO IF (I + J) MOD 2 = 0 THEN"
             " Y := Y + I * J; WRITELN(Y); WRITELN(I + J)")


@pytest.mark.parametrize("statements, inputs", [
    (_FOR_GRID, []),
    ("FOR I := 1 TO 3 DO BEGIN END; WRITELN(I); I := 7; FOR I := 2 TO 1 DO BEGIN END;"
     " WRITELN(I)", []),
    ("FOR I := 1 TO 3 DO BEGIN WRITELN(I); I := I + 10; WRITELN(I) END; WRITELN(I)", []),
    ("FOR I := 9223372036854775805 TO 9223372036854775807 DO WRITELN(I); WRITELN(I)", []),
    # a start bound that READLN stored as an int of a subclass
    ("READLN(K); FOR I := K TO K + 1 DO WRITELN(I)", [_Int(5)]),
    # a branch taken on one iteration of six: the loop's 14 steps fit
    # budgets that its 6 longest iterations (24 steps) do not
    ("Y := 0; FOR I := 1 TO 6 DO IF I = 4 THEN BEGIN Y := Y + I; WRITELN(Y) END; WRITELN(Y)",
     []),
], ids=["grid-with-if", "empty-body", "assigns-its-variable", "at-the-64-bit-edge",
        "start-of-an-int-subclass", "branch-on-one-iteration"])
def test_a_for_loop_runs_like_tree_walk_at_every_step_budget(statements, inputs):
    # each budget runs out on a different step: a header's, the first body
    # statement's, or none
    program = fe.parse(f"{_LOOP_HEAD}    {statements}\nEND.\n")
    full = tree_walk_execute(program, inputs)
    assert full.status == _OK
    _assert_runs_like_tree_walk_at_every_step_budget(program, inputs)
    # and budgets that the whole run fits, but an untraced loop may refuse
    # for the most steps its iterations could take
    for step_budget in range(full.steps + 1, full.steps + 10):
        _assert_run_like_tree_walk(program, inputs, step_budget)


def _assert_runs_like_tree_walk_at_every_step_budget(program, inputs,
                                                     most=run.DEFAULT_STEP_BUDGET):
    """Untraced and traced runs match the tree walker's at every step budget
    from 0 to the steps of the whole run, or to `most`."""
    full = tree_walk_execute(program, inputs, most)
    for step_budget in range(full.steps + 1):
        _assert_run_like_tree_walk(program, inputs, step_budget)


def test_corpus_runs_like_tree_walk_at_every_step_budget(corpus_sources):
    # the inputs of the golden `simulate` requests
    for source in corpus_sources.values():
        _assert_runs_like_tree_walk_at_every_step_budget(fe.parse(source), [1, 2, 3, 99999])


# Simple statements over X, Y and U (INTEGER) and R (REAL), which the prelude
# sets but for U; each may halt, on its input or its type, an overflow, a
# division by zero or U unset. Runs of three or more of them end in an IF or
# UNTIL test, or in a FOR's per-iteration step.
_RUN_HEAD = ("PROGRAM P(input, output);\nVAR I, X, Y, U: INTEGER; R: REAL;\nBEGIN\n"
             f"    X := 1;\n    Y := 2;\n    R := 1{'0' * 100}.0;\n")
_IN_A_RUN = st.sampled_from([
    "X := X + 1", "Y := Y - X", "WRITELN(X)", "READLN(Y)", "READLN(X)", "Y := Y DIV X",
    "X := X * Y", "R := R * R", "WRITELN(R / X)", "U := Y MOD X", "WRITELN(U)"])
_RUN_TEST = st.sampled_from(["X < 2", "Y > X", "X = 0"])


def _runs(depth):
    """Statements whose straight-line runs are 3 to 5 statements long, with
    compound statements nested up to `depth` deep."""
    simple = st.lists(_IN_A_RUN, min_size=3, max_size=5).map("; ".join)
    if depth == 0:
        return simple
    inner = _runs(depth - 1)
    return st.one_of(
        simple,
        st.tuples(simple, _RUN_TEST, inner, inner).map(
            lambda t: f"{t[0]}; IF {t[1]} THEN BEGIN {t[2]} END ELSE BEGIN {t[3]} END"),
        st.tuples(inner, simple, _RUN_TEST).map(lambda t: f"REPEAT {t[0]}; {t[1]} UNTIL {t[2]}"),
        st.tuples(st.sampled_from(["0", "X", "-1"]), inner, simple).map(
            lambda t: f"FOR I := 1 TO {t[0]} + 2 DO BEGIN {t[1]}; {t[2]} END"))


@settings(max_examples=40, deadline=None)
@given(st.lists(_runs(2), min_size=1, max_size=2),
       st.lists(st.sampled_from([0, 1, -2, 3, 2.5, fe.INT_MAX, 4611686018427387904]),
                max_size=6))
def test_generated_runs_match_tree_walk_at_every_step_budget(statements, inputs):
    program = fe.parse(_RUN_HEAD + "".join(f"    BEGIN {s} END;\n" for s in statements)
                       + "END.\n")
    _assert_runs_like_tree_walk_at_every_step_budget(program, inputs, most=120)


# one run of four statements, from line 5 on, that halts at its second or
# third: the run's steps are counted where it starts, and the halt gives
# back those it did not reach
@pytest.mark.parametrize("statements, inputs, kind, line, steps", [
    ("I := 1;\n    WRITELN(I);\n    Y := Y + I", [], "uninitialized-variable", 7, 3),
    ("I := 0;\n    Y := 5 DIV I;\n    WRITELN(Y)", [], "division-by-zero", 6, 2),
    ("READLN(Y);\n    I := Y + 1;\n    WRITELN(I)", [fe.INT_MAX], "integer-overflow", 6, 2),
    (f"R := 1{'0' * 200}.0;\n    R := R * R;\n    WRITELN(R)", [], "real-overflow", 6, 2),
    ("WRITELN(1);\n    READLN(I);\n    WRITELN(I)", [2.5], "type-error", 6, 2),
    ("READLN(I);\n    READLN(Y);\n    WRITELN(I + Y)", [1], "input-exhausted", 6, 2),
    # the second of two statements on one line has a site of its own
    ("I := 0; Y := 5 DIV I;\n    WRITELN(Y)", [], "division-by-zero", 5, 2),
], ids=["uninitialized-variable", "division-by-zero", "integer-overflow", "real-overflow",
        "type-error", "input-exhausted", "two-on-one-line"])
def test_a_halt_inside_a_run_counts_the_steps_it_reached(monkeypatch, statements, inputs,
                                                           kind, line, steps):
    program = fe.parse(f"{_RUNTIME_HEAD}    BEGIN\n    {statements};\n    WRITELN(0)\n    END\n"
                       "END.\n")
    sources, make = [], run._make
    monkeypatch.setattr(run, "_make", lambda source: sources.append(source) or make(source))
    result = run.execute(program, inputs)
    assert (result.status, result.error_kind, result.error_line, result.steps) == \
        (_FAIL, kind, line, steps)
    assert [re.findall(r"s \+= \d+", source) for source in sources] == [["s += 4"]]
    # a halt other than the budget's outside a check-free loop needs no
    # second run
    assert list(program.units) == [False]
    _assert_runs_like_tree_walk(program, inputs)


# an innermost FOR on line 4 whose body halts: Y unset, I MOD K with K = 0
# in the branch taken on the third iteration, Y past 64 bits on the fourth,
# and READLN on the third, given a REAL or nothing; or the loop ends normally
_READ_LOOP = "FOR I := 1 TO 5 DO BEGIN READLN(Y); WRITELN(Y * I) END"
_FREE_HALTS = {
    "uninitialized-variable": ("FOR I := 1 TO 5 DO BEGIN WRITELN(I); Y := Y + I END", []),
    "division-by-zero": ("K := 0; FOR I := 1 TO 5 DO IF I = 3 THEN WRITELN(I MOD K)"
                         " ELSE WRITELN(I)", []),
    "integer-overflow": ("Y := 9223372036854775800; FOR I := 1 TO 5 DO BEGIN Y := Y + I;"
                         " WRITELN(Y) END", []),
    "type-error": (_READ_LOOP, [4, 5, 2.5]),
    "input-exhausted": (_READ_LOOP, [4, 5]),
    None: (_READ_LOOP, [4, 5, 6, 7, 8]),
}


@pytest.mark.parametrize("kind", _FREE_HALTS, ids=lambda kind: kind or "ends-normally")
def test_a_halt_inside_a_check_free_loop_runs_again_step_by_step(kind):
    # the untraced loop counted its steps before it ran them, so a halt
    # inside it runs the program again through the traced units
    statements, inputs = _FREE_HALTS[kind]
    program = fe.parse(f"{_LOOP_HEAD}    {statements}\nEND.\n")
    result = run.execute(program, inputs)
    assert (result.error_kind, result.error_line) == (kind, kind and 4)
    assert list(program.units) == ([False, True] if kind else [False])
    _assert_runs_like_tree_walk(program, inputs)


_SPENT = (f"{_RUNTIME_HEAD}    BEGIN\n    I := 1;\n    Y := I + 1;\n    WRITELN(Y)\n    END\n"
          "END.\n")


def test_a_budget_spent_inside_a_run_runs_again_step_by_step():
    # the run's check finds 2 steps left of the 3 it counts; the statements
    # run again one step at a time through the traced units, whose trace is
    # not kept
    program = fe.parse(_SPENT)
    untraced = run.execute(program, [], 2)
    assert list(program.units) == [False, True]
    assert (untraced.status, untraced.error_kind, untraced.error_line, untraced.steps,
            untraced.trace) == (_FAIL, "step-budget-exceeded", 7, 2, [])
    traced = run.execute(program, [], 2, trace=True)
    assert [(e.line, e.variable) for e in traced.trace] == [(5, "i"), (6, "y")]
    traced.trace = []
    assert untraced == traced
    # a budget spent where a run starts is exact at once, and a run that
    # just fits its budget runs once
    program = fe.parse(_SPENT)
    result = run.execute(program, [], 0)
    assert (result.error_kind, result.error_line, result.steps) == ("step-budget-exceeded", 5, 0)
    result = run.execute(program, [], 3)
    assert (result.status, result.steps, result.outputs) == (_OK, 3, [2])
    assert list(program.units) == [False]


def test_a_traced_run_never_runs_again(monkeypatch, corpus_sources):
    # each step of a traced unit is a run of its own, so its budget halts
    # are exact at once; `_run` calls itself by its global name, so the spy
    # sees a second run too
    calls, first = [], run._run
    monkeypatch.setattr(run, "_run", lambda *args: calls.append(args) or first(*args))
    programs = [(fe.parse(source), [1, 2, 3, 99999]) for source in corpus_sources.values()]
    programs.append((fe.parse(f"{_LOOP_HEAD}    {_FOR_GRID}\nEND.\n"), []))
    for program, inputs in programs:
        for step_budget in range(run.execute(program, inputs, trace=True).steps + 1):
            calls.clear()
            run.execute(program, inputs, step_budget, trace=True)
            assert len(calls) == 1, step_budget
    # an untraced run whose budget runs out inside a run of statements runs
    # again
    calls.clear()
    run.execute(fe.parse(_SPENT), [], 2)
    assert len(calls) == 2


def test_a_for_body_is_written_once(monkeypatch):
    # ten nested loops whose innermost body assigns every control variable:
    # whether a body assigns its loop's variable is known before it is
    # written, so no loop writes its body a second time
    names = [f"I{n}" for n in range(10)]
    body = "BEGIN " + "; ".join(f"{name} := 1" for name in names) + " END"
    loops = "".join(f"FOR {name} := 1 TO 2 DO " for name in names)
    program = fe.parse(f"PROGRAM P(input, output);\nVAR {', '.join(names)}: INTEGER;\n"
                       f"BEGIN\n    {loops}{body}\nEND.\n")
    written, emit = [], run._Writer.emit
    monkeypatch.setattr(run._Writer, "emit",
                        lambda writer, unit, s, level: written.append(s)
                        or emit(writer, unit, s, level))
    _assert_run_like_tree_walk(program, [], 300)
    innermost = program.body[0]
    for _ in names[1:]:
        innermost = innermost.body
    # once per trace flag
    assert sum(s is innermost.body for s in written) == 2


def test_a_grid_keeps_only_the_running_totals_overflow_check(monkeypatch):
    # perfbench's nested_block with a dividend that is never negative: its
    # row and column are FOR variables, the part is assigned a value in
    # [0, 12] earlier in the body, and only the total is unbounded
    pg = benchmark_programs()
    names = {"sum": "Total", "row": "Row", "col": "Col", "part": "Part"}
    program = fe.parse(pg.render("Grid", [pg.nested_block(names, 120, 150, 23, 37, 3)]).source)
    sources, make = [], run._make
    monkeypatch.setattr(run, "_make", lambda source: sources.append(source) or make(source))
    result = run.execute(program, [])
    assert (result.status, result.outputs) == (_OK, [51383])
    grid = sources[1]     # the statement after the total's first assignment
    assert "while " not in grid
    assert len(re.findall(r"^ *for v\d+ in range\(", grid, re.M)) == 2
    # one check, of an assignment that adds to the local it assigns, on the
    # only side the sum can leave 64 bits
    overflows = [line.strip() for line in grid.splitlines() if "_overflow" in line]
    assert len(overflows) == 1
    assert re.match(r"(v\d+) = \(_t if \(_t := \1 \+ v\d+\) <= INT_MAX else", overflows[0])
    assert "INT_MIN" not in overflows[0]
    # and no DIV or MOD of a dividend that may be negative
    assert "-(-_t" not in grid and "_quotient" not in grid and "_remainder" not in grid
    # the inner loop checks its budget once, for 4 steps an iteration, and
    # counts the 3 each iteration makes before it runs: the part, the IF test
    # and the per-iteration step. Only its branch counts, and checks nothing.
    # The outer loop holds a loop, so it checks as each iteration starts
    outer, inner = re.findall(r"^( *)for v\d+ in range\(", grid, re.M)
    head, body = re.split(rf"^{inner}for v\d+ in range\(.*\n", grid, flags=re.M)
    body = re.match(rf"(?:{inner} .*\n)*", body)[0]
    assert head.splitlines()[-3:] == [
        f"{inner}_k = _n4 - _i4 + 1 if _n4 >= _i4 else 0",
        f"{inner}if s + _k * 4 > B: raise _Halt('step-budget-exceeded', _AGAIN)",
        f"{inner}s += _k * 3"]
    assert "step-budget-exceeded" not in body
    assert re.findall(r"s \+= .*", body) == ["s += 1"]
    assert re.search(rf"^{outer}    if s >= B: raise _Halt\('step-budget-exceeded', a\d+\)\n"
                     rf"{outer}    s \+= 1\n", head, re.M)


_SHAPE = ("PROGRAM P(input, output);\nVAR {a}, {b}: INTEGER; {r}: REAL;\nBEGIN\n"
          "    READLN({a}); {b} := {a} * {k} + {j};\n"
          "    WHILE {b} > {k} DO {b} := {b} DIV {j};\n"
          "    {r} := {b} / {k} + {x};\n    WRITELN({r} > {x})\nEND.\n")


def test_programs_that_differ_in_names_constants_and_layout_share_their_units():
    first = fe.parse(_SHAPE.format(a="Alpha", b="Beta", r="Ratio", k=3, j=7, x="2.5"))
    second = fe.parse(_SHAPE.format(a="Gamma", b="Delta", r="Mean", k=11, j=11, x="0.125")
                      .replace("; ", ";\n\n    "))
    run.execute(first, [40], trace=True)
    before = run._make.cache_info()
    result = run.execute(second, [40], trace=True)
    after = run._make.cache_info()
    assert (result.status, result.outputs) == (_OK, [True])
    assert after.misses == before.misses
    assert after.hits - before.hits == len(second.body)


def test_generated_source_holds_no_program_text(monkeypatch):
    sources, make = [], run._make
    monkeypatch.setattr(run, "_make", lambda source: sources.append(source) or make(source))
    source = _SHAPE.format(a="Quux", b="Zorp", r="Frob", k=4242, j=31337, x="271.828")
    program = fe.parse(source.replace("WRITELN(Frob > 271.828)", "WRITELN(" + "-(" * 41
                                      + "Zorp + 4243" + ")" * 41 + ")"))
    for trace in (False, True):
        assert run.execute(program, [10 ** 5], trace=trace).outputs == [-4243]
    # the deep expression is a function inside its statement's source
    assert len(sources) == 2 * len(program.body)
    text = "\n".join(sources).lower()
    for word in ("quux", "zorp", "frob", "4242", "4243", "31337", "271", "828"):
        assert word not in text


# the first runs halt on READLN and compile only it; the next one runs the
# rest, and the one after halts inside the loop on its step budget
_LAZY = (_RUNTIME_HEAD + "    READLN(I);\n    Y := I * 2;\n"
         "    WHILE I > 0 DO BEGIN Y := Y + I; I := I - 1 END;\n    WRITELN(Y)\nEND.\n")


def test_a_later_run_compiles_what_an_earlier_one_did_not_reach():
    program = fe.parse(_LAZY)
    for trace in (False, True):
        assert run.execute(program, [], trace=trace).error_kind == "input-exhausted"
        assert [u is not None for u in program.units[trace].units] == [True, False, False, False]
    for inputs, step_budget in (([4], 100), ([5], 6), ([], 100), ([3, 1], 0)):
        _assert_run_like_tree_walk(program, inputs, step_budget)
    for trace in (False, True):
        assert None not in program.units[trace].units


def _programs_with_nested_units():
    """Programs with a nested function each: a deep statement's, a deep
    expression's, and a deep statement's that halts."""
    head = "PROGRAM P(input, output);\nVAR X, Y: INTEGER;\nBEGIN\n    READLN(X);\n"
    return [fe.parse(f"{head}    IF TRUE THEN BEGIN {body}; END\nEND.\n")
            for body, *_ in _BOUNDARIES.values()]


def test_a_second_run_writes_no_source(monkeypatch):
    programs = _programs_with_nested_units()
    firsts = [[run.execute(p, [5], 60, trace) for trace in (False, True)] for p in programs]
    written = []
    statement = run._Writer.statement
    monkeypatch.setattr(run, "_make", lambda source: written.append(source))
    monkeypatch.setattr(run._Writer, "statement",
                        lambda *args: written.append(args) or statement(*args))
    for program, first in zip(programs, firsts):
        again = [run.execute(program, [5], 60, trace) for trace in (False, True)]
        assert [(_observed(r), _events(r), _store(r)) for r in again] == \
            [(_observed(r), _events(r), _store(r)) for r in first]
    assert written == []


@pytest.mark.parametrize("first", [False, True], ids=["untraced-first", "traced-first"])
def test_a_run_program_runs_with_either_trace_flag(grey_src, first):
    program = fe.parse(grey_src)
    run.execute(program, [1, 99999], trace=first)
    want = tree_walk_execute(program, [4, 6, 99999], run.DEFAULT_STEP_BUDGET)
    for trace in (not first, first):
        got = run.execute(program, [4, 6, 99999], trace=trace)
        assert _observed(got) == _observed(want)
        assert _events(got) == (_events(want) if trace else [])


def test_a_run_program_is_freed_with_its_units():
    program = _programs_with_nested_units()[0]
    for trace in (False, True):
        assert run.execute(program, [5], trace=trace).outputs == [6]
    refs = [weakref.ref(program), weakref.ref(program.units[True].units[-1])]
    del program
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
