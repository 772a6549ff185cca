import json

from plancog import kb as kblib
from plancog.cli import corpus, corpus_path, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_kb_dump_builtin(capsys):
    code, out, _ = run_cli(capsys, "kb", "dump-builtin")
    assert code == 0
    assert out == kblib.dump_kb(kblib.builtin_kb())


def test_kb_dump_builtin_json_is_one_document(capsys):
    code, out, _ = run_cli(capsys, "kb", "dump-builtin", "--json")
    assert code == 0
    assert json.loads(out) == {"kb": kblib.dump_kb(kblib.builtin_kb())}


def test_usage_errors_exit_2(capsys):
    assert main(["bogus"]) == 2
    assert main(["relations", corpus_path("grey.mp")]) == 2   # missing flags
    assert main(["--nonsense"]) == 2
    assert main(["--seed", "1", "parse", corpus_path("grey.mp")]) == 2


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
