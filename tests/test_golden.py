"""Golden outputs: the output of every subcommand on the fixture corpus,
compared byte for byte with tests/golden/<program>.json (--json mode) and
tests/golden/<program>.text.json (text mode), and the Python sources that
the interpreter writes for a set of runs, compared with
tests/golden/units.txt.

The files pin behaviour that refactorings must keep. After an intended
change of output or of the generated sources, regenerate them from the
repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

from oracles import benchmark_programs
from plancog import cli, frontend, interpreter
from plancog.activation import DEFAULT_SIMULATION_INPUTS
from test_interpreter import _BOUNDARIES

GOLDEN = Path(__file__).parent / "golden"
UNITS = GOLDEN / "units.txt"
SIMULATION_INPUT = "1,2,3,99999"


def requests(name, source):
    """argv lists (without --json) covering every subcommand on one program;
    relations and fill-blank are asked on every line of the file, and
    simulate --trace on every declared variable."""
    lines = [str(n) for n in range(1, len(source.splitlines()) + 1)]
    out = [["parse", name], ["recognize", name, "--trace"]]
    out += [["relations", name, "--line", line, "--kind", kind]
            for line in lines for kind in ("data", "control")]
    out.append(["planliness", name])
    out += [["fill-blank", name, "--line", line, "--strategy", strategy]
            for line in lines for strategy in ("plan", "control")]
    out += [["chunk", name, "--mode", mode] for mode in ("plan", "control")]
    out.append(["simulate", name, "--input", SIMULATION_INPUT])
    out += [["simulate", name, "--input", SIMULATION_INPUT, "--trace", d.name]
            for d in frontend.parse(source).declarations]
    return out


def capture(name, argvs, mode="json"):
    """{argv text: outcome} for each request of `argvs` on one program in
    output mode `mode`: the exit code and stdout, plus stderr in "text" mode.
    Run from the corpus directory so that outputs naming the file are
    portable."""
    flags = ["--json"] if mode == "json" else []
    results = {}
    cwd = os.getcwd()
    os.chdir(Path(cli.corpus_path(name)).parent)
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, *flags])
            outcome = {"exit": code, "stdout": out.getvalue()}
            if mode == "text":
                outcome["stderr"] = err.getvalue()
            results[" ".join(argv)] = outcome
    finally:
        os.chdir(cwd)
    return results


def golden_path(name, mode="json"):
    return GOLDEN / (Path(name).stem + (".json" if mode == "json" else ".text.json"))


def check_golden(name, source, mode):
    expected = json.loads(golden_path(name, mode).read_text(encoding="utf-8"))
    actual = capture(name, requests(name, source), mode)
    assert list(actual) == list(expected)
    differing = [request for request in expected if actual[request] != expected[request]]
    assert differing == []


def unit_runs():
    """(label, source, inputs) of each program run for its generated sources:
    the corpus, the benchmark's grid with a dividend that is never negative
    and one that may be, one of its generated programs at scale, an innermost
    FOR whose IF branches differ in length, and the programs nested past what
    one generated function may hold."""
    pg, inputs = benchmark_programs(), list(DEFAULT_SIMULATION_INPUTS)
    runs = [(name, source, inputs) for name, source in cli.corpus()]
    names = {"sum": "Total", "row": "Row", "col": "Col", "part": "Part"}
    for offset in (5, -5):
        block = pg.nested_block(names, 3, 4, offset, 7, 2)
        runs.append((f"grid with offset {offset}", pg.render("Grid", [block]).source, []))
    runs.append(("scale program", pg.scale_program(random.Random(11), 8, 11).source, inputs))
    runs.append(("for with unequal branches", "PROGRAM P(input, output);\nVAR I, Y: INTEGER;\n"
                 "BEGIN\n    Y := 0;\n    FOR I := 1 TO 5 DO\n        IF I MOD 2 = 0 THEN\n"
                 "            Y := Y + I\n        ELSE\n        BEGIN\n            Y := Y - 1;\n"
                 "            WRITELN(Y)\n        END\nEND.\n", []))
    for kind in ("statement-unit", "expression-unit"):
        body = _BOUNDARIES[kind][0]
        runs.append((kind, "PROGRAM P(input, output);\nVAR X, Y: INTEGER;\nBEGIN\n"
                     f"    IF TRUE THEN BEGIN {body}; END\nEND.\n", []))
    return runs


def unit_sources():
    """The distinct sources that `interpreter._make` receives over the unit
    runs, untraced and traced, in first-written order, each headed by the
    run that first wrote it."""
    written, make = {}, interpreter._make
    label = None

    def spy(source):
        written.setdefault(source, label)
        return make(source)

    interpreter._make = spy
    try:
        for name, source, inputs in unit_runs():
            program = frontend.parse(source)
            for trace in (False, True):
                label = f"{name}, {'traced' if trace else 'untraced'}"
                interpreter.execute(program, inputs, trace=trace)
    finally:
        interpreter._make = make
    return "\n".join(f"### {label}\n{source}" for source, label in written.items())


def test_generated_sources_match_golden():
    assert unit_sources() == UNITS.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", cli.CORPUS_FILES)
def test_outputs_match_golden(name, corpus_sources):
    check_golden(name, corpus_sources[name], "json")


@pytest.mark.parametrize("name", cli.CORPUS_FILES)
def test_text_outputs_match_golden(name, corpus_sources):
    check_golden(name, corpus_sources[name], "text")


def test_indented_documents_need_no_pure_python_encoder(monkeypatch, corpus_sources):
    # json encodes in pure Python only when asked for an indent, through
    # _make_iterencode; the CLI's writer must not fall back to it
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for name in cli.CORPUS_FILES:
        indented = [argv for argv in requests(name, corpus_sources[name])
                    if argv[0] in ("parse", "recognize")]
        expected = json.loads(golden_path(name).read_text(encoding="utf-8"))
        actual = capture(name, indented)
        assert actual == {request: expected[request] for request in actual}
        assert len(actual) == 2


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for file, text in cli.corpus():
        for mode in ("json", "text"):
            golden_path(file, mode).write_text(
                json.dumps(capture(file, requests(file, text), mode), indent=1) + "\n", encoding="utf-8")
    UNITS.write_text(unit_sources(), encoding="utf-8")
    sys.exit(0)
