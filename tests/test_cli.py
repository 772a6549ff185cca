import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from plancog import cli, kb as kblib
from plancog.frontend import MAX_DEPTH
from plancog.cli import corpus, corpus_path, main
from test_frontend import _TYPED_NAMES, _program, _stmt


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entry_exits_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["plancog", "parse", corpus_path("grey.mp")])
    with pytest.raises(SystemExit) as done:
        cli.entry()
    assert done.value.code == 0
    assert capsys.readouterr().out == dict(corpus())["grey.mp"]


def test_fill_blank_grey(capsys):
    code, out, _ = run_cli(capsys, "fill-blank", corpus_path("grey.mp"),
                           "--line", "6", "--strategy", "plan")
    assert code == 0
    first = out.strip().splitlines()[0]
    assert first.startswith("1.")
    assert "count:=0" in first.replace(" ", "").lower()


def test_simulate_orange(capsys):
    code, out, _ = run_cli(capsys, "simulate", corpus_path("orange.mp"),
                           "--input", "1,2,3,99999")
    assert code == 0
    assert out.strip() == "2.0"


def test_simulate_trace(capsys):
    code, out, _ = run_cli(capsys, "simulate", corpus_path("grey.mp"),
                           "--input", "5,99999", "--trace", "Count")
    assert code == 0
    assert "line 6" in out and "line 12" in out


@pytest.mark.parametrize("item", ["abc", "1e400", "1.5.5", "1_000", "1_0.5", "\u0661",
                                  "\u0661.\u0665", "\uff15"])
def test_simulate_input_that_is_not_a_number_is_a_usage_error(capsys, item):
    # each of these ended in a ValueError traceback
    for mode in ([], ["--json"]):
        code, out, err = run_cli(capsys, "simulate", corpus_path("grey.mp"),
                                 "--input", f"1, {item},2", *mode)
        assert (code, out) == (2, "")
        assert f"argument --input: not a number: '{item}'" in err


def test_simulate_input_forms(capsys):
    code, out, _ = run_cli(capsys, "simulate", corpus_path("grey.mp"), "--input=1,2,3,99999")
    assert (code, out) == (0, "2.0\n")
    code, out, _ = run_cli(capsys, "simulate", corpus_path("grey.mp"), "--input", "", "--json")
    assert json.loads(out)["error"] == {"kind": "input-exhausted", "line": 8}
    code, out, _ = run_cli(capsys, "simulate", corpus_path("grey.mp"), "--json")
    assert json.loads(out)["error"] == {"kind": "input-exhausted", "line": 8}
    # a blank item is skipped: `1,,3` reads 1 then 3, and a trailing comma
    # adds nothing
    code, out, _ = run_cli(capsys, "simulate", corpus_path("grey.mp"),
                           "--input=1,,3, ,99999,", "--trace", "Num", "--json")
    doc = json.loads(out)
    assert (code, doc["status"], doc["outputs"]) == (0, "ok", ["2.0"])
    assert [event["value"] for event in doc["trace"]] == ["1", "3", "99999"]
    code, out, _ = run_cli(capsys, "simulate", corpus_path("grey.mp"), "--input=,", "--json")
    assert json.loads(out)["error"] == {"kind": "input-exhausted", "line": 8}


@pytest.mark.parametrize("step, line", [
    ("X := X * 10.0", 6),
    ("X := X + X", 6),
    ("BEGIN Y := 0.0 - X;\n        X := X - Y END", 7),
    ("X := X / 0.01", 6),
], ids=["times", "plus", "minus", "divide"])
def test_real_overflow_is_a_runtime_error(tmp_path, capsys, step, line):
    # unchecked, this program printed [inf, nan] with status ok
    path = tmp_path / "overflow.mp"
    path.write_text("PROGRAM P(input, output);\nVAR X, Y: REAL; I: INTEGER;\nBEGIN\n"
                    "    X := 10.0;\n    FOR I := 1 TO 1100 DO\n"
                    f"        {step};\n    WRITELN(X);\n    WRITELN(X - X)\nEND.\n")
    code, out, _ = run_cli(capsys, "simulate", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "runtime-error"
    assert doc["error"] == {"kind": "real-overflow", "line": line}
    assert doc["outputs"] == []
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert out == f"runtime error: real-overflow at line {line}\n"


def test_kb_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.kb"
    bad.write_text('schema A kind problem\n  desc "a"\n  kindof Missing\n')
    code, out, _ = run_cli(capsys, "kb", "validate", str(bad))
    assert code == 1
    assert "dangling-link" in out


def test_kb_validate_good_file(tmp_path, capsys):
    good = tmp_path / "good.kb"
    good.write_text(kblib.dump_kb(kblib.builtin_kb()))
    code, out, _ = run_cli(capsys, "kb", "validate", str(good))
    assert code == 0


def test_loop_slot_expectation_is_checked_against_the_instance_own_loop(tmp_path, capsys):
    # the WHILE loop's test (line 5) does not compare with a constant; the
    # REPEAT loop's (line 9) does, and must not verify the WHILE plan's
    library = tmp_path / "sentinel.kb"
    library.write_text('schema Sentinel_Loop kind control\n'
                       '  desc "runs until its test meets a sentinel"\n'
                       '  slot body mandatory\n    filler "iteration"\n'
                       '  slot test\n'
                       'rule U1 data: if loop=while then activate Sentinel_Loop, '
                       'bind test="<w>=<int>"\n')
    program = tmp_path / "two.mp"
    program.write_text("PROGRAM Two(input, output);\nVAR X, N: INTEGER;\nBEGIN\n"
                       "    X := 0;\n    WHILE X < 5 DO\n        X := X + 1;\n"
                       "    REPEAT\n        READLN(N)\n    UNTIL N = 0\nEND.\n")
    code, out, _ = run_cli(capsys, "recognize", str(program), "--kb", str(library), "--json")
    assert code == 0
    assert json.loads(out)["expectations"] == [
        {"instance": "Sentinel_Loop[@5]", "slot": "test", "pattern": "<w>=<int>",
         "state": "violated", "line": 5},
        {"instance": "Sentinel_Loop[@7]", "slot": "test", "pattern": "<w>=<int>",
         "state": "verified", "line": 9},
    ]


def test_variable_plan_loop_slot_expectation_is_checked_against_its_context_loop(
        tmp_path, capsys):
    # a variable plan holds its loop in `context`: X's update runs in the
    # WHILE loop, whose test (line 5) does not compare with a constant, and
    # the REPEAT loop's test (line 9) must not verify it
    library = tmp_path / "limit.kb"
    library.write_text('schema Limit_Variable kind variable\n'
                       '  desc "counts up to a limit"\n'
                       '  slot update mandatory\n    filler "<v>:=<v>+1"\n'
                       '  slot context\n    filler "iteration"\n'
                       '  slot test\n'
                       'rule U1 data: if update~"<v>:=<v>+1" then activate Limit_Variable, '
                       'bind test="<w>=<int>"\n')
    program = tmp_path / "two.mp"
    program.write_text("PROGRAM Two(input, output);\nVAR X, N: INTEGER;\nBEGIN\n"
                       "    X := 0;\n    WHILE X < 5 DO\n        X := X + 1;\n"
                       "    REPEAT\n        READLN(N)\n    UNTIL N = 0\nEND.\n")
    code, out, _ = run_cli(capsys, "recognize", str(program), "--kb", str(library), "--json")
    assert code == 0
    assert json.loads(out)["expectations"] == [
        {"instance": "Limit_Variable[x]", "slot": "test", "pattern": "<w>=<int>",
         "state": "violated", "line": 5},
    ]


_KB = ('schema A kind variable\n  desc "a"\n  slot name mandatory\n    filler "<v>"\n'
       'schema B kind variable\n  desc "b"\n  slot name mandatory\n    filler "<v>"\n')
_RULE = 'rule R1 data: if name~"<v>" then activate A'


def test_kb_validate_documents(tmp_path, capsys):
    path = tmp_path / "lib.kb"
    path.write_text(_KB)
    assert run_cli(capsys, "kb", "validate", str(path)) == (0, "ok: 2 schemas, 0 rules\n", "")
    code, out, _ = run_cli(capsys, "kb", "validate", str(path), "--json")
    assert (code, json.loads(out)) == (0, {"valid": True, "schemas": ["A", "B"]})
    path.write_text(_KB + "  slot name\n  kindof Missing\n")
    code, out, _ = run_cli(capsys, "kb", "validate", str(path))
    assert (code, out) == (1, "duplicate-slot [B.name]: slot declared twice\n"
                              "dangling-link [B->Missing]: link endpoint does not exist\n")


@pytest.mark.parametrize("text, expected", [
    (_KB + "schema A kind variable\n  slot name mandatory\n", [("duplicate-schema", "A")]),
    (_KB + "  slot name\n", [("duplicate-slot", "B.name")]),
    (_KB + '    filler "<v>:=0" proto\n    filler "<v>:=1" proto\n',
     [("double-prototypical", "B.name")]),
    (_KB + '    filler "<nope>"\n', [("bad-pattern", "B.name")]),
    (_KB + "  controlled-by nope\n", [("unknown-slot", "B.nope")]),
    (_KB + "schema C kind control\n  slot body\n", [("no-mandatory-slot", "C")]),
    (_KB + "  kindof Missing\n", [("dangling-link", "B->Missing")]),
    (_KB + "  uses Missing as name\n", [("dangling-link", "B->Missing")]),
    (_KB + "  uses A as nope\n", [("unknown-slot", "B.nope")]),
    (_KB + "schema C kind problem\n  kindof D\nschema D kind problem\n  kindof C\n",
     [("cycle", "C -> D")]),
    (_KB + 'discourse D1 check nope "x"\n', [("bad-check", "D1")]),
    (_KB + f"{_RULE}\n{_RULE}\n", [("duplicate-rule", "R1")]),
    (_KB + 'rule R1 data: if name~"<v>" then activate Nope\n', [("unknown-schema", "R1")]),
    (_KB + f'{_RULE}, bind nope="x"\n', [("unknown-slot", "R1.nope")]),
    (_KB + "rule R1 concept: if schema=Nope then activate A\n", [("unknown-schema", "R1")]),
    (_KB + 'rule R1 data: if init~"<nope>" then activate A\n', [("bad-pattern", "R1")]),
    (_KB + f'{_RULE}, bind name="<nope>"\n', [("bad-pattern", "R1")]),
    (_KB + "  slot name\n  kindof Missing\n",
     [("duplicate-slot", "B.name"), ("dangling-link", "B->Missing")]),
    ("schema A\n", "kb line 1: expected: schema <Name> kind <kind>"),
    ("schema A kind weird\n", "kb line 1: unknown schema kind 'weird'"),
    ('desc "a"\n', "kb line 1: desc outside a schema or malformed"),
    (_KB + "  goal a b\n", "kb line 9: expected: goal <name> inside a schema"),
    ("names a\n", "kb line 1: expected: names <stem>... inside a schema"),
    ("slot name\n", "kb line 1: slot outside a schema"),
    (_KB + "  slot a b c\n", "kb line 9: expected: slot <name> [mandatory]"),
    ('schema A kind variable\n  filler "<v>"\n', "kb line 2: filler outside a slot or malformed"),
    (_KB + "  kindof\n", "kb line 9: expected: kindof <ParentName>"),
    (_KB + "  uses A for name\n", "kb line 9: expected: uses <ChildName> as <slotname>"),
    (_KB + "discourse D1 check\n", "kb line 9: malformed discourse rule"),
    (_KB + "rule R1 data: activate A\n", "kb line 9: malformed production rule"),
    (_KB + f'{_RULE}, bind name="<v>" junk\n', "kb line 9: malformed production rule"),
    (_KB + 'rule R1 data: if name~"<v>" then activate A-B\n',
     "kb line 9: malformed production rule"),
    (_KB + f'{_RULE} bind name="<v>"\n', "kb line 9: malformed production rule"),
    (_KB + f'{_RULE}, bind a.b="<v>"\n', "kb line 9: malformed production rule"),
    (_KB + 'rule R1 data: if colour~"red" then activate A\n',
     "kb line 9: bad cue 'colour~\"red\"'"),
    (_KB + "frobnicate\n", "kb line 9: unrecognized directive 'frobnicate'"),
], ids=["duplicate-schema", "duplicate-slot", "double-prototypical", "bad-filler",
        "controlled-by-unknown-slot", "no-mandatory-slot", "dangling-link",
        "uses-dangling-link", "uses-unknown-slot", "cycle", "bad-check", "duplicate-rule",
        "rule-unknown-schema", "binding-unknown-slot", "cue-unknown-schema",
        "bad-cue-pattern", "bad-binding-pattern", "two-diagnostics", "schema-line",
        "schema-kind", "desc-outside", "goal-line", "names-outside", "slot-outside",
        "slot-line", "filler-outside", "kindof-line", "uses-line", "discourse-line",
        "rule-line", "text-after-bindings", "activated-schema-dash", "bind-without-comma",
        "bound-slot-dot", "cue-kind", "directive"])
def test_kb_validate_json_reports_each_fault(tmp_path, capsys, text, expected):
    # a diagnostic list, or the error document of a format error
    path = tmp_path / "lib.kb"
    path.write_text(text)
    code, out, err = run_cli(capsys, "kb", "validate", str(path), "--json")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    if isinstance(expected, str):
        assert doc == {"error": expected}
    else:
        assert list(doc) == ["valid", "diagnostics"] and doc["valid"] is False
        assert [(d["code"], d["subject"]) for d in doc["diagnostics"]] == expected
        assert all(list(d) == ["code", "subject", "message"] for d in doc["diagnostics"])


def test_parse_json_writes_else_branches(tmp_path, capsys):
    path = tmp_path / "p.mp"
    path.write_text("PROGRAM P;\nVAR x: INTEGER;\nBEGIN\n    x := 1;\n"
                    "    IF x > 0 THEN\n        WRITELN(x)\n    ELSE\n        WRITELN(0)\n"
                    "END.\n")
    code, out, _ = run_cli(capsys, "parse", str(path), "--json")
    assert code == 0
    assert json.loads(out)["statements"][1] == {
        "line": 5, "kind": "if", "cond": "x>0",
        "then": [{"line": 6, "kind": "writeln", "text": "writeln(x)"}],
        "else": [{"line": 8, "kind": "writeln", "text": "writeln(0)"}]}


def test_kb_dump_builtin(capsys):
    code, out, _ = run_cli(capsys, "kb", "dump-builtin")
    assert code == 0
    assert out == kblib.dump_kb(kblib.builtin_kb())


def test_kb_dump_builtin_prints_the_shipped_file(capsys):
    code, out, _ = run_cli(capsys, "kb", "dump-builtin")
    assert code == 0
    assert out.encode("utf-8") == (resources.files("plancog") / "builtin.kb").read_bytes()


def test_kb_dump_builtin_json_is_one_document(capsys):
    code, out, _ = run_cli(capsys, "kb", "dump-builtin", "--json")
    assert code == 0
    assert json.loads(out) == {"kb": kblib.dump_kb(kblib.builtin_kb())}


def test_usage_errors_exit_2(capsys):
    assert main(["bogus"]) == 2
    assert main(["relations", corpus_path("grey.mp")]) == 2   # missing flags
    assert main(["--nonsense"]) == 2
    assert main(["--seed", "1", "parse", corpus_path("grey.mp")]) == 2


def test_one_parser_serves_every_call(capsys):
    assert cli.build_parser() is cli.build_parser()
    missing = run_cli(capsys, "relations", corpus_path("grey.mp"))
    assert missing[0] == 2 and "required" in missing[2]
    # flags of one call do not carry over to the next
    code, out, _ = run_cli(capsys, "--json", "relations", corpus_path("grey.mp"),
                           "--line", "12", "--kind", "data", "--step-budget", "5")
    assert code == 0 and json.loads(out)["related"] == [6, 15]
    code, out, _ = run_cli(capsys, "relations", corpus_path("grey.mp"),
                           "--line", "12", "--kind", "data")
    assert (code, out) == (0, "data relations of line 12: 6, 15\n")
    assert run_cli(capsys, "relations", corpus_path("grey.mp")) == missing


def test_analysis_error_exits_1(tmp_path, capsys):
    broken = tmp_path / "broken.mp"
    broken.write_text("PROGRAM ;")
    code, out, err = run_cli(capsys, "parse", str(broken))
    assert code == 1
    assert "error" in err.lower()


def test_json_error_is_single_document(tmp_path, capsys):
    broken = tmp_path / "broken.mp"
    broken.write_text("PROGRAM ;")
    code, out, _ = run_cli(capsys, "parse", str(broken), "--json")
    assert code == 1
    doc = json.loads(out)
    assert "error" in doc


def test_recognize_json_shape(capsys):
    code, out, _ = run_cli(capsys, "recognize", corpus_path("grey.mp"), "--json")
    assert code == 0
    doc = json.loads(out)
    tree = doc["goal_tree"]
    assert tree["goal"] == "report-average"
    assert [c["goal"] for c in tree["children"]] == \
        ["enter-data", "compute-average", "output-average"]
    for inst in doc["instances"]:
        assert inst["lines"] == sorted(inst["lines"])
    counter = next(i for i in doc["instances"]
                   if i["schema"] == "Counter_Variable")
    assert counter["delocalization"] == 6


def test_recognize_trace_lists_rule_firings(capsys):
    code, out, _ = run_cli(capsys, "recognize", corpus_path("search.mp"),
                           "--trace", "--json")
    assert code == 0
    doc = json.loads(out)
    rules = [entry["rule"] for entry in doc["trace"]]
    assert "R2" in rules and "R3" in rules
    assert rules.index("R2") < rules.index("R3")


def test_relations_json_sorted(capsys):
    code, out, _ = run_cli(capsys, "relations", corpus_path("grey.mp"),
                           "--line", "12", "--kind", "data", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["related"] == [6, 15]


def test_text_and_json_agree_on_planliness(capsys):
    code, text_out, _ = run_cli(capsys, "planliness", corpus_path("orange.mp"))
    assert code == 0
    code, json_out, _ = run_cli(capsys, "planliness", corpus_path("orange.mp"),
                                "--json")
    assert code == 0
    doc = json.loads(json_out)
    assert f"score: {doc['score']:.4f}" in text_out
    assert f"coverage: {doc['coverage']:.4f}" in text_out
    lines = doc["violations"][0]["lines"]
    assert ", ".join(map(str, lines)) in text_out


def test_global_flags_accepted_before_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--json", "relations", corpus_path("grey.mp"),
                           "--line", "8", "--kind", "control")
    assert code == 0
    assert json.loads(out)["related"] == [6, 9, 14]


def test_chunk_command(capsys):
    code, out, _ = run_cli(capsys, "chunk", corpus_path("grey.mp"),
                           "--mode", "control", "--json")
    assert code == 0
    doc = json.loads(out)
    assert {"label": "iteration", "lines": [7, 14]} in doc["chunks"]


def test_parse_pretty_prints(capsys, grey_src):
    code, out, _ = run_cli(capsys, "parse", corpus_path("grey.mp"))
    assert code == 0
    assert out == grey_src


def test_parse_json_writes_for_bounds(tmp_path, capsys):
    path = tmp_path / "p.mp"
    path.write_text("PROGRAM P;\nVAR i, n: INTEGER;\nBEGIN\n"
                    "    FOR i := n DIV 2 TO n + 1 DO\n        WRITELN(i)\nEND.\n")
    code, out, _ = run_cli(capsys, "parse", str(path), "--json")
    assert code == 0
    assert json.loads(out)["statements"] == [
        {"line": 4, "kind": "for", "var": "i", "start": "n div 2", "stop": "n+1",
         "body": [{"line": 5, "kind": "writeln", "text": "writeln(i)"}]}]


def test_corpus_contents():
    fixtures = corpus()
    names = [name for name, _ in fixtures]
    assert names == ["grey.mp", "orange.mp", "search.mp", "flag.mp"]
    for _, src in fixtures:
        assert src.strip().startswith("PROGRAM")


def test_custom_kb_flag(tmp_path, capsys):
    path = tmp_path / "custom.kb"
    path.write_text(kblib.dump_kb(kblib.builtin_kb()))
    code, out, _ = run_cli(capsys, "recognize", corpus_path("grey.mp"),
                           "--kb", str(path), "--json")
    assert code == 0
    assert json.loads(out)["goal_tree"]["goal"] == "report-average"


def test_step_budget_flag(capsys, tmp_path):
    looping = tmp_path / "loop.mp"
    looping.write_text("PROGRAM L(input,output);\nVAR X: INTEGER;\nBEGIN\n"
                       "    X := 0;\n    WHILE X = 0 DO X := 0;\nEND.\n")
    code, out, _ = run_cli(capsys, "simulate", str(looping),
                           "--step-budget", "100", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "runtime-error"
    assert doc["error"]["kind"] == "step-budget-exceeded"


@pytest.mark.parametrize("budget, message", [("-5", "negative: '-5'"),
                                             ("-1", "negative: '-1'"),
                                             ("ten", "not an integer: 'ten'")])
def test_step_budget_that_is_not_a_count_is_a_usage_error(capsys, budget, message):
    # a negative budget used to run, reporting step-budget-exceeded at 0 steps
    for mode in ([], ["--json"]):
        code, out, err = run_cli(capsys, "simulate", corpus_path("grey.mp"),
                                 "--step-budget", budget, *mode)
        assert (code, out) == (2, "")
        assert f"argument --step-budget: {message}" in err


def test_a_step_budget_of_zero_halts_on_the_first_statement(capsys):
    code, out, _ = run_cli(capsys, "simulate", corpus_path("grey.mp"),
                           "--step-budget", "0", "--json")
    doc = json.loads(out)
    assert (code, doc["steps"], doc["error"]) == (0, 0, {"kind": "step-budget-exceeded",
                                                          "line": 5})


def _unreadable_inputs(tmp_path):
    latin = tmp_path / "latin.mp"
    latin.write_bytes("PROGRAM P; { café } BEGIN END.".encode("latin-1"))
    return [str(tmp_path / "missing.mp"), str(tmp_path), str(latin)]


def test_files_with_a_byte_order_mark_are_read(tmp_path, capsys, grey_src):
    program, library = tmp_path / "grey.mp", tmp_path / "builtin.kb"
    program.write_text("\ufeff" + grey_src, encoding="utf-8")
    library.write_text("\ufeff" + kblib.dump_kb(kblib.builtin_kb()), encoding="utf-8")
    code, out, _ = run_cli(capsys, "parse", str(program), "--json")
    assert (code, out) == run_cli(capsys, "parse", corpus_path("grey.mp"), "--json")[:2]
    assert run_cli(capsys, "kb", "validate", str(library))[0] == 0


def test_unreadable_program_file_is_an_error(tmp_path, capsys):
    for path in _unreadable_inputs(tmp_path):
        code, out, err = run_cli(capsys, "recognize", path)
        assert code == 1
        assert out == "" and err.startswith(f"error: cannot read {path}: ")
        code, out, _ = run_cli(capsys, "recognize", path, "--json")
        assert code == 1
        assert list(json.loads(out)) == ["error"]


def test_unreadable_kb_file_is_an_error(tmp_path, capsys):
    for path in _unreadable_inputs(tmp_path):
        code, out, _ = run_cli(capsys, "recognize", corpus_path("grey.mp"),
                               "--kb", path, "--json")
        assert code == 1
        doc = json.loads(out)
        assert list(doc) == ["error"]
        assert doc["error"].startswith(f"cannot read {path}: ")
        code, out, _ = run_cli(capsys, "kb", "validate", path, "--json")
        assert code == 1
        assert list(json.loads(out)) == ["error"]


def test_simulate_trace_executes_once(capsys, monkeypatch):
    from plancog import interpreter
    runs = []
    execute = interpreter.execute

    def counted(*args, **kwargs):
        runs.append(args)
        return execute(*args, **kwargs)

    monkeypatch.setattr(interpreter, "execute", counted)
    for mode in ([], ["--json"]):
        runs.clear()
        code, _, _ = run_cli(capsys, "simulate", corpus_path("grey.mp"),
                             "--input", "5,99999", "--trace", "Count", *mode)
        assert code == 0
        assert len(runs) == 1


@pytest.mark.parametrize("command", [["recognize"], ["planliness"], ["chunk", "--mode", "plan"]])
def test_recognition_simulates_within_the_step_budget(capsys, monkeypatch, command):
    from plancog import interpreter
    budgets = []
    execute = interpreter.execute

    def spied(program, inputs, step_budget, **kwargs):
        budgets.append(step_budget)
        return execute(program, inputs, step_budget, **kwargs)

    monkeypatch.setattr(interpreter, "execute", spied)
    code, _, _ = run_cli(capsys, command[0], corpus_path("grey.mp"), *command[1:],
                         "--step-budget", "10", "--json")
    assert (code, budgets) == (0, [10])


def test_fill_blank_lexes_its_program_once(capsys, monkeypatch):
    from plancog import frontend
    sources = []
    tokenize = frontend.tokenize

    def counted(source):
        sources.append(source)
        return tokenize(source)

    monkeypatch.setattr(frontend, "tokenize", counted)
    code, out, _ = run_cli(capsys, "fill-blank", corpus_path("grey.mp"),
                           "--line", "6", "--json")
    assert code == 0 and json.loads(out)["candidates"]
    assert len(sources) == 1


def test_simulate_trace_unknown_variable(capsys):
    code, out, err = run_cli(capsys, "simulate", corpus_path("orange.mp"),
                             "--input", "1,2,3,99999", "--trace", "Ghost")
    assert code == 1
    assert out == "2.0\n"
    assert err == "error: unknown variable Ghost\n"
    code, out, _ = run_cli(capsys, "simulate", corpus_path("orange.mp"),
                           "--input", "1,2,3,99999", "--trace", "Ghost", "--json")
    assert code == 1
    assert json.loads(out) == {"error": "unknown variable Ghost"}


# --- programs the front end must reject, not crash on ---------------------------

_HEAD = "PROGRAM P(input, output);\nVAR x: INTEGER;\nBEGIN\n"


def _nested(depth):
    """Programs whose deepest nesting is exactly `depth` levels, with the
    innermost assignment's line."""
    inner = depth - 2                  # levels around the assignment and its literal
    return {
        "parentheses": (_HEAD + "x := " + "(" * (depth - 1) + "1" + ")" * (depth - 1)
                        + "\nEND.\n", 4),
        "blocks": (_HEAD + "BEGIN\n" * inner + "x := 1\n" + "END\n" * inner + "END.\n",
                   4 + inner),
        "loops": (_HEAD + "WHILE x < 1 DO\n" * inner + "x := 1\nEND.\n", 4 + inner),
        "chain": (_HEAD + "x := " + "+".join(["1"] * (depth - 1)) + "\nEND.\n", 4),
    }


def _every_subcommand(path, line):
    return [["parse", path], ["recognize", path, "--trace"], ["planliness", path],
            ["relations", path, "--line", line, "--kind", "data"],
            ["relations", path, "--line", line, "--kind", "control"],
            ["fill-blank", path, "--line", line, "--strategy", "plan"],
            ["fill-blank", path, "--line", line, "--strategy", "control"],
            ["chunk", path, "--mode", "plan"], ["chunk", path, "--mode", "control"],
            ["simulate", path, "--input", "1"]]


def test_every_subcommand_runs_at_the_nesting_bound(tmp_path, capsys):
    for shape, (source, line) in _nested(MAX_DEPTH).items():
        path = tmp_path / f"{shape}.mp"
        path.write_text(source)
        for argv in _every_subcommand(str(path), str(line)):
            code, out, _ = run_cli(capsys, *argv, "--json")
            assert code == 0, (shape, argv, out)
            json.loads(out)


@pytest.mark.parametrize("source", [
    _HEAD + "x := ²\nEND.\n",
    "PROGRAM P(input, output);\nVAR é: INTEGER;\nBEGIN\n    é := 1\nEND.\n",
    *(source for source, _ in _nested(MAX_DEPTH + 1).values()),
    _HEAD + "x := " + "(" * 250 + "1" + ")" * 250 + "\nEND.\n",
    _HEAD + "BEGIN " * 500 + "x := 1" + " END" * 500 + "\nEND.\n",
    _HEAD + "WHILE x < 1 DO " * 500 + "x := 1\nEND.\n",
    _HEAD + "x := " + "+".join(["1"] * 600) + "\nEND.\n",
], ids=["superscript", "accent", "parentheses", "blocks", "loops", "chain",
        "250-parentheses", "500-blocks", "500-loops", "600-terms"])
def test_unparsable_programs_exit_1_with_one_json_document(tmp_path, capsys, source):
    path = tmp_path / "p.mp"
    path.write_text(source, encoding="utf-8")
    for argv in _every_subcommand(str(path), "4"):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 1, argv
        assert list(json.loads(out)) == ["error"]


@pytest.mark.parametrize("literal", [
    "9223372036854775808", "99999999999999999999999", "1" * 5000, "9" * 400 + ".0",
], ids=["int-max-plus-1", "23-digits", "5000-digits", "400-digit-real"])
def test_out_of_range_literals_are_syntax_errors(tmp_path, capsys, literal):
    # unchecked, 23 digits and a 400-digit REAL simulated to
    # ["99999999999999999999999", "inf"] with status ok; 5000 digits crashed
    path = tmp_path / "p.mp"
    path.write_text(_HEAD + f"    x := 1;\n    x := {literal}\nEND.\n")
    for command in ("parse", "simulate"):
        code, out, _ = run_cli(capsys, command, str(path), "--json")
        assert code == 1
        assert list(json.loads(out)) == ["error"]
        assert json.loads(out)["error"].startswith("line 5: ")
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 5: ")


def test_largest_integer_literal_parses(tmp_path, capsys):
    path = tmp_path / "p.mp"
    path.write_text(_HEAD + "    x := -9223372036854775807 - 1;\n    WRITELN(x);\n"
                    "    x := 9223372036854775807;\n    WRITELN(x)\nEND.\n")
    code, out, _ = run_cli(capsys, "simulate", str(path), "--json")
    assert code == 0
    assert json.loads(out)["outputs"] == ["-9223372036854775808", "9223372036854775807"]


_READS = ("PROGRAM P(input, output);\nVAR x: INTEGER; r: REAL;\nBEGIN\n"
          "    READLN(r);\n    READLN(x);\n    WRITELN(x)\nEND.\n")


@pytest.mark.parametrize("inputs, error", [
    ("1.5,9223372036854775807", None),
    ("1.5,-9223372036854775808", None),
    ("1.5,9223372036854775808", ("integer-overflow", 5)),
    ("1.5,-9223372036854775809", ("integer-overflow", 5)),
    ("1.5,10000000000000000000.0", ("integer-overflow", 5)),
    ("99999999999999999999,1", ("integer-overflow", 4)),
    ("1.5e400,1", ("real-overflow", 4)),
    ("1.5," + "9" * 25, ("integer-overflow", 5)),
    ("1.5," + "9" * 5000, ("integer-overflow", 5)),
    ("1.5,-" + "0" * 30 + "9" * 5000, ("integer-overflow", 5)),
    ("1" * 5000 + ",1", ("integer-overflow", 4)),
], ids=["int-max", "int-min", "int-max-plus-1", "int-min-minus-1", "integral-real",
        "long-int-into-real", "infinite-real", "25-digits", "5000-digits",
        "5000-digits-negative", "5000-digits-into-real"])
def test_simulate_inputs_keep_arithmetic_bounds(tmp_path, capsys, inputs, error):
    # unchecked, READLN stored each of these values and the run ended ok
    path = tmp_path / "reads.mp"
    path.write_text(_READS)
    code, out, _ = run_cli(capsys, "simulate", str(path), "--input", inputs, "--json")
    assert code == 0
    doc = json.loads(out)
    if error is None:
        assert (doc["status"], doc["outputs"]) == ("ok", [inputs.split(",")[1]])
    else:
        assert doc["status"] == "runtime-error"
        assert doc["error"] == {"kind": error[0], "line": error[1]}


# --- the indented-JSON writer ------------------------------------------------------

class _Str(str):
    pass


class _Int(int):
    pass


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028é€😀')),
                max_size=8)
_LEAVES = st.one_of(
    _TEXT, _TEXT.map(_Str),
    st.integers(), st.integers(-2 ** 200, 2 ** 200), st.integers().map(_Int),
    st.booleans(), st.none(),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]))
_KEYS = st.one_of(st.integers(), st.floats(), st.booleans(), st.none())
_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_TEXT, inner, max_size=4),
    st.dictionaries(st.one_of(_TEXT, _KEYS), inner, max_size=4)), max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
@example({"a": [1, "s", None, True, False, 0.5, {}, [], ()], "b": {"c": (2, {3: 4})}, 5: 6})
@example([None, True, False, {"k": [[], {}]}, 2 ** 70, _Int(3), _Str("x")])
def test_indented_writer_is_json_dumps_with_indent(value):
    assert cli._indented(value) == json.dumps(value, indent=2)


def _comment(text):
    return st.text(st.characters(blacklist_characters="{}", blacklist_categories=("Cs",)),
                   max_size=12).map(lambda c: f"{text} {{{c}}}")


@settings(max_examples=40, deadline=None)
@given(st.lists(_stmt(2, _TYPED_NAMES).flatmap(
    lambda s: st.one_of(st.just(s), _comment(s))), min_size=1, max_size=6))
def test_indented_documents_of_generated_programs(tmp_path_factory, stmts):
    # a statement may carry a comment of any text, non-ASCII included
    path = tmp_path_factory.mktemp("program") / "p.mp"
    path.write_text(_program(stmts), encoding="utf-8")
    for argv in (["parse", str(path)], ["recognize", str(path), "--trace"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--json"]) == 0
        assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2) + "\n"
