"""Golden outputs: the --json output of every subcommand on the fixture
corpus, compared byte for byte with tests/golden/<program>.json.

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

from plancog import cli

GOLDEN = Path(__file__).parent / "golden"
SIMULATION_INPUT = "1,2,3,99999"


def requests(name, source):
    """argv lists (without --json) covering every subcommand on one program;
    relations and fill-blank are asked on every line of the file."""
    lines = [str(n) for n in range(1, len(source.splitlines()) + 1)]
    out = [["parse", name], ["recognize", name, "--trace"]]
    out += [["relations", name, "--line", line, "--kind", kind]
            for line in lines for kind in ("data", "control")]
    out.append(["planliness", name])
    out += [["fill-blank", name, "--line", line, "--strategy", strategy]
            for line in lines for strategy in ("plan", "control")]
    out += [["chunk", name, "--mode", mode] for mode in ("plan", "control")]
    out.append(["simulate", name, "--input", SIMULATION_INPUT])
    return out


def capture(name, source):
    """{argv text: {"exit", "stdout"}} for every request on one program; run
    from the corpus directory so that outputs naming the file are portable."""
    results = {}
    cwd = os.getcwd()
    os.chdir(Path(cli.corpus_path(name)).parent)
    try:
        for argv in requests(name, source):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*argv, "--json"])
            results[" ".join(argv)] = {"exit": code, "stdout": out.getvalue()}
    finally:
        os.chdir(cwd)
    return results


def golden_path(name):
    return GOLDEN / (Path(name).stem + ".json")


@pytest.mark.parametrize("name", cli.CORPUS_FILES)
def test_outputs_match_golden(name, corpus_sources):
    expected = json.loads(golden_path(name).read_text(encoding="utf-8"))
    actual = capture(name, corpus_sources[name])
    assert list(actual) == list(expected)
    differing = [request for request in expected if actual[request] != expected[request]]
    assert differing == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for file, text in cli.corpus():
        golden_path(file).write_text(json.dumps(capture(file, text), indent=1) + "\n",
                                     encoding="utf-8")
    sys.exit(0)
