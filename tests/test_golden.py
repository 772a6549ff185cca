"""Golden outputs: the output of every subcommand on the fixture corpus,
compared byte for byte with tests/golden/<program>.json (--json mode) and
tests/golden/<program>.text.json (text mode).

The files pin behaviour that refactorings must keep. After an intended
change of output, regenerate them from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from plancog import cli, frontend

GOLDEN = Path(__file__).parent / "golden"
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


def capture(name, source, mode="json"):
    """{argv text: outcome} for every request on one program in output mode
    `mode`: the exit code and stdout, plus stderr in "text" mode. Run from the
    corpus directory so that outputs naming the file are portable."""
    flags = ["--json"] if mode == "json" else []
    results = {}
    cwd = os.getcwd()
    os.chdir(Path(cli.corpus_path(name)).parent)
    try:
        for argv in requests(name, source):
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
    actual = capture(name, source, mode)
    assert list(actual) == list(expected)
    differing = [request for request in expected if actual[request] != expected[request]]
    assert differing == []


@pytest.mark.parametrize("name", cli.CORPUS_FILES)
def test_outputs_match_golden(name, corpus_sources):
    check_golden(name, corpus_sources[name], "json")


@pytest.mark.parametrize("name", cli.CORPUS_FILES)
def test_text_outputs_match_golden(name, corpus_sources):
    check_golden(name, corpus_sources[name], "text")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for file, text in cli.corpus():
        for mode in ("json", "text"):
            golden_path(file, mode).write_text(
                json.dumps(capture(file, text, mode), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
