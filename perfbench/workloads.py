"""The benchmark's three workloads.

Each workload builds its requests and their expected answers from the seed,
grouped in rounds of fixed composition (only the seeded content varies):
in `prepare`, or for recognize_scale one round at a time as it is played.
`setup` does the work plancog needs before the first request, such as
building the library or parsing reused programs. `run` sends one request,
and `check` compares its response with the oracle in `programs`, returning
None or a failure reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time

import programs as pg

from plancog import analysis, cli, frontend, interpreter, kb as kblib

# failure reasons that hold at the commit the benchmark was written against;
# they are counted in `failed` but do not make a run incorrect
KNOWN_FAILURES = {
    "kb dump-builtin: stdout is not one JSON document":
        "`kb dump-builtin --json` prints the library in KB text format",
}


class Workload:
    """What run.py needs from a workload: `prepare` makes the requests, which
    `round` hands out a round at a time; `setup` readies plancog; `run`
    sends one request; `check` returns None or a failure reason."""

    name = ""
    rounds: list

    def round(self, index):
        """The requests of round `index`; the prepared rounds repeat in turn."""
        return self.rounds[index % len(self.rounds)]

    def setup(self):
        """plancog's own work before the first request (none by default)."""

    def warmup(self):
        """Requests that end a set-up: one per kind of the first round, the
        smallest of each by steps, then lines."""
        smallest = {}
        for request in sorted(self.round(0), key=lambda r: (self.steps(r), r.lines),
                              reverse=True):
            smallest[request.kind] = request
        return list(smallest.values())

    def steps(self, request):
        """Interpreter steps the request is known to take (0 if none)."""
        return 0

    def recognize_seconds(self, outcome):
        """Time recognize took inside the request, where it is timed."""
        return None


class Request:
    __slots__ = ("kind", "lines", "data")

    def __init__(self, kind, lines, **data):
        self.kind = kind
        self.lines = lines
        self.data = data


# --- corpus_cli --------------------------------------------------------------------

CORPUS_KINDS = (
    "parse", "recognize", "relations-data", "relations-control", "planliness",
    "fill-blank-plan", "fill-blank-control", "chunk-plan", "chunk-control",
    "simulate", "kb-dump-builtin", "kb-validate", "recognize-kbfile",
    "planliness-kbfile", "chunk-plan-kbfile", "fill-blank-plan-kbfile",
    "malformed-source", "malformed-kb")
KBFILE = "-kbfile"      # the request passes `--kb` with a dump of the built-in library
VARIANTS_PER_FILE = 6
CORPUS_ROUNDS = 84


class CorpusCli(Workload):
    """In-process `cli.main([..., "--json"])` over the corpus files
    and seeded variants of them."""

    name = "corpus_cli"

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        files = []      # (path, Program model)
        for file in pg.DEFAULT_NAMES:
            files.append((os.path.join("src", "plancog", "corpus", file),
                          pg.corpus_program(file)))
            for i in range(VARIANTS_PER_FILE):
                program = pg.corpus_variant(rng, file)
                path = os.path.join(workdir, f"v{i}_{file}")
                _write(path, program.source)
                files.append((path, program))
        malformed = []
        for i in range(8):
            _, program = rng.choice(files)
            path = os.path.join(workdir, f"bad{i}.mp")
            source = pg.malformed(rng, program)
            _write(path, source)
            malformed.append((path, source.count("\n") + 1))
        dumped = kblib.dump_kb(kblib.builtin_kb())
        self.kb_path = os.path.join(workdir, "builtin.kb")
        _write(self.kb_path, dumped)
        self.broken_kb_path = os.path.join(workdir, "broken.kb")
        _write(self.broken_kb_path, dumped.replace("uses Counter_Variable as counter",
                                                   "uses Missing_Plan as counter"))
        # every kind visits the files in turn, so each seed sends the same
        # mix of programs; the seed varies the variants and the choices
        self.rounds = []
        for r in range(CORPUS_ROUNDS):
            batch = [self._request(rng, kind, r + k, files, malformed)
                     for k, kind in enumerate(CORPUS_KINDS)]
            rng.shuffle(batch)
            self.rounds.append(batch)

    def _request(self, rng, kind, turn, files, malformed):
        base = kind.removesuffix(KBFILE)
        kb_args = ["--kb", self.kb_path] if base != kind else []
        if kind == "kb-dump-builtin":
            return Request(kind, 0, argv=["kb", "dump-builtin", "--json"])
        if kind == "kb-validate":
            return Request(kind, 0, argv=["kb", "validate", self.kb_path, "--json"])
        if kind == "malformed-kb":
            return Request(kind, 0, argv=["kb", "validate", self.broken_kb_path, "--json"])
        if kind == "malformed-source":
            path, lines = malformed[turn % len(malformed)]
            command = rng.choice(("parse", "recognize", "planliness", "chunk"))
            extra = ["--mode", "plan"] if command == "chunk" else []
            return Request(kind, lines, argv=[command, path, *extra, "--json"])
        if base.startswith("fill-blank"):
            blankable = [f for f in files if f[1].blocks[0].shape in pg.FILL_BLANK]
            path, program = blankable[turn % len(blankable)]
            block = program.blocks[0]
            role = rng.choice(sorted(pg.FILL_BLANK[block.shape]))
            line = program.line_of[0][role]
            strategy = base.rsplit("-", 1)[1]
            var = block.var(pg.FILL_BLANK[block.shape][role])
            return Request(kind, program.lines, program=program, role=role, var=var,
                           argv=[*kb_args, "fill-blank", path, "--line", str(line),
                                 "--strategy", strategy, "--json"])
        path, program = files[turn % len(files)]
        shape = program.blocks[0].shape
        if base.startswith("relations"):
            role = rng.choice(sorted(pg.RELATIONS[shape]))
            relation = base.split("-")[1]
            return Request(kind, program.lines, program=program, role=role,
                           relation=relation,
                           argv=["relations", path, "--line",
                                 str(program.line_of[0][role]), "--kind", relation,
                                 "--json"])
        if base == "simulate":
            inputs = _simulation_inputs(rng, program)
            text = ",".join(str(v) for v in inputs)
            return Request(kind, program.lines, program=program, inputs=inputs,
                           argv=["simulate", path, f"--input={text}", "--json"])
        argv = {"parse": ["parse", path],
                "recognize": ["recognize", path, "--trace"],
                "planliness": ["planliness", path],
                "chunk-plan": ["chunk", path, "--mode", "plan"],
                "chunk-control": ["chunk", path, "--mode", "control"]}[base]
        return Request(kind, program.lines, program=program,
                       argv=[*kb_args, *argv, "--json"])

    def run(self, request):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(request.data["argv"])
        return code, out.getvalue()

    def check(self, request, outcome):
        code, text = outcome
        kind = request.kind
        want_code = 1 if kind.startswith("malformed") else 0
        if code != want_code:
            return f"{kind}: exit code {code}, expected {want_code}"
        try:
            doc = json.loads(text)
        except ValueError:
            if kind != "kb-dump-builtin":
                return f"{kind}: stdout is not one JSON document"
            if any(f"schema {name} kind " not in text for name in pg.BUILTIN_SCHEMAS):
                return "kb dump-builtin: a built-in schema is missing from the dump"
            return "kb dump-builtin: stdout is not one JSON document"
        return _CORPUS_CHECKS[kind.removesuffix(KBFILE)](request, doc)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _simulation_inputs(rng, program):
    block = program.blocks[0]
    if block.shape == "search":
        return pg.search_inputs(rng, rng.randint(1, 25))
    if rng.random() < 0.1:
        return [block.consts["X"]]          # empty data: division by zero
    return pg.sentinel_inputs(rng, rng.randint(1, 25), block.consts["X"])


def _statements(nodes):
    for node in nodes:
        yield node["line"], node["kind"]
        for key in ("body", "then", "else"):
            yield from _statements(node.get(key, []))


def _plans(doc_instances):
    return {(i["schema"], i["variable"], i["status"], tuple(i["lines"]))
            for i in doc_instances}


def _leaves(node):
    if "plan" in node:
        yield node
    for child in node.get("children", []):
        yield from _leaves(child)


def _check_parse(request, doc):
    p = request.data["program"]
    got = [(d["name"], d["type"], d["line"]) for d in doc["declarations"]]
    if doc["program"] != p.name or got != p.decl_lines:
        return "parse: program name or declarations differ"
    if sorted(_statements(doc["statements"])) != sorted(p.stmt_kinds):
        return "parse: statement lines or kinds differ"
    if [(c["line"], c["text"]) for c in doc["comments"]] != p.comments:
        return "parse: comments differ"
    return None


def _check_recognition(p, doc):
    """Shared by corpus_cli recognize and recognize_scale."""
    want = p.plan_set()
    if _plans(doc["instances"]) != want:
        return "recognize: instances differ from the planted plans"
    leaves = [leaf["plan"] for leaf in _leaves(doc["goal_tree"])]
    if len(leaves) != len(want) or _plans(leaves) != want:
        return "recognize: goal-tree leaves differ from the planted plans"
    return None


def _check_recognize(request, doc):
    p = request.data["program"]
    failure = _check_recognition(p, doc)
    if failure:
        return failure
    block = p.blocks[0]
    roles = p.line_of[0]
    tree = doc["goal_tree"]
    if block.shape in ("averaging", "compensating"):
        avg = block.var("avg").lower()
        if tree["goal"] != f"report-{avg}" or [c["goal"] for c in tree["children"]] != [
                "enter-data", f"compute-{avg}", f"output-{avg}"]:
            return "recognize: averaging goal tree differs"
        for leaf in _leaves(tree):
            plan = leaf["plan"]
            if plan["schema"] not in (pg.RT, pg.COUNTER):
                continue
            if block.shape == "averaging":
                role = "count" if plan["schema"] == pg.COUNTER else "sum"
                init = plan["bindings"].get("initialization", {}).get("line")
                upd = plan["bindings"].get("update", {}).get("line")
                if (init, upd) != (roles[f"{role}_init"], roles[f"{role}_upd"]):
                    return "recognize: plan bindings differ"
            elif leaf.get("flags") != ["partial", "incoherent"]:
                return "recognize: compensating plans not flagged partial, incoherent"
    states = {(e["instance"], e["slot"]): (e["state"], e["line"])
              for e in doc["expectations"]}
    for schema, var_role, state, role in pg.INIT_EXPECTATIONS.get(block.shape, []):
        label = f"{schema}[{block.var(var_role).lower()}]"
        if states.get((label, "initialization")) != (state, roles[role]):
            return "recognize: initialization expectation differs"
    trace = doc.get("trace")
    if not trace or any(set(f) != {"rule", "schema", "cues"} for f in trace):
        return "recognize: rule-firing trace missing"
    if any(a["schema"] not in pg.BUILTIN_SCHEMAS for a in doc["activations"]):
        return "recognize: unknown schema activated"
    return None


def _check_relations(request, doc):
    p = request.data["program"]
    roles = p.line_of[0]
    data, control = pg.RELATIONS[p.blocks[0].shape][request.data["role"]]
    want = data if request.data["relation"] == "data" else control
    if doc["related"] != sorted(roles[r] for r in want):
        return f"relations-{request.data['relation']}: related lines differ"
    return None


def _check_planliness(request, doc):
    score, coverage, violations = pg.expected_planliness(request.data["program"])
    if abs(doc["score"] - score) > 1e-9 or abs(doc["coverage"] - coverage) > 1e-9:
        return "planliness: score or coverage differs"
    if [(v["rule"], v["lines"]) for v in doc["violations"]] != violations:
        return "planliness: violations differ"
    return None


def _check_fill_blank(request, doc):
    candidates = doc["candidates"]
    want = f"{request.data['var']} := 0"
    if not candidates or candidates[0]["rank"] != 1 or candidates[0]["text"] != want:
        return "fill-blank: rank-1 candidate differs"
    return None


def _check_chunk_plan(request, doc):
    got = [(c["label"], c["lines"]) for c in doc["chunks"]]
    if doc["mode"] != "plan" or got != pg.expected_chunks(request.data["program"]):
        return "chunk-plan: chunks differ"
    return None


def _check_chunk_control(request, doc):
    p = request.data["program"]
    roles = p.line_of[0]
    want = [(label, sorted(roles[r] for r in members))
            for label, members in pg.CONTROL_CHUNKS[p.blocks[0].shape]]
    if doc["mode"] != "control" or [(c["label"], c["lines"]) for c in doc["chunks"]] != want:
        return "chunk-control: chunks differ"
    return None


def _check_simulate(request, doc):
    outputs, steps, error = pg.reference_run(request.data["program"], request.data["inputs"])
    status = "ok" if error is None else "runtime-error"
    if doc["outputs"] != outputs or doc["status"] != status or doc["steps"] != steps:
        return "simulate: outputs, status or steps differ"
    if error is not None and doc.get("error", {}).get("kind") != error:
        return "simulate: runtime error differs"
    return None


def _check_kb_dump(request, doc):
    # reached only once the dump is a JSON document; it must still carry
    # every built-in schema
    if any(name not in json.dumps(doc) for name in pg.BUILTIN_SCHEMAS):
        return "kb dump-builtin: a built-in schema is missing from the dump"
    return None


def _check_kb_validate(request, doc):
    if doc.get("valid") is not True or sorted(doc["schemas"]) != sorted(pg.BUILTIN_SCHEMAS):
        return "kb-validate: dumped library does not validate to the built-in schemas"
    return None


def _check_malformed_source(request, doc):
    if list(doc) != ["error"] or not isinstance(doc["error"], str):
        return "malformed-source: not exactly one error document"
    return None


def _check_malformed_kb(request, doc):
    codes = {(d["code"], d["subject"]) for d in doc.get("diagnostics", [])}
    if doc.get("valid") is not False or ("dangling-link",
                                         "Linear_Search->Missing_Plan") not in codes:
        return "malformed-kb: dangling link not diagnosed"
    return None


_CORPUS_CHECKS = {
    "parse": _check_parse, "recognize": _check_recognize,
    "relations-data": _check_relations, "relations-control": _check_relations,
    "planliness": _check_planliness, "fill-blank-plan": _check_fill_blank,
    "fill-blank-control": _check_fill_blank, "chunk-plan": _check_chunk_plan,
    "chunk-control": _check_chunk_control, "simulate": _check_simulate,
    "kb-dump-builtin": _check_kb_dump, "kb-validate": _check_kb_validate,
    "malformed-source": _check_malformed_source, "malformed-kb": _check_malformed_kb,
}


# --- recognize_scale ----------------------------------------------------------------

# blocks per program, about 55 to 590 lines. Sorted, a round has 6 smaller
# programs, 8 of one size around the median (ranks 7-14 of 20), 2 larger, 3
# of one size around the 90th percentile (ranks 17-19) and the largest, so
# that each percentile falls well inside a group, not between two sizes.
SCALE_LADDER = (5, 5, 6, 7, 8, 10, 13, 13, 13, 13, 13, 13, 13, 13, 18, 24, 32, 32, 32, 56)


class RecognizeScale(Workload):
    """Library recognition of generated programs, then goal tree,
    plan-likeness and plan chunks from that one recognition."""

    name = "recognize_scale"

    def prepare(self, seed, workdir):
        self.seed = seed
        self.made = (None, [])

    def round(self, index):
        # every round has programs of its own, made when it is first played
        # so that memory holds one round of them: a program's second
        # recognition is faster than its first, and how many a run repeated
        # would depend on how many rounds it plays
        made, batch = self.made
        if made != index:
            rng = random.Random(f"{self.seed}:{index}")
            programs = [pg.scale_program(rng, k, f"{index}x{i}")
                        for i, k in enumerate(SCALE_LADDER)]
            rng.shuffle(programs)
            batch = [Request("recognize", p.lines, program=p) for p in programs]
            self.made = (index, batch)
        return batch

    def setup(self):
        self.kb = kblib.builtin_kb()

    def warmup(self):
        # the same program whatever the seed, one block of each shape, so
        # that set-up time does not depend on the seed
        program = pg.scale_program(random.Random(0), len(pg.SCALE_SHAPES), "Warmup")
        return [Request("recognize", program.lines, program=program)]

    def run(self, request):
        kb = self.kb
        program = frontend.parse(request.data["program"].source)
        start = time.perf_counter()
        rec = analysis.recognize(program, kb)
        recognized = time.perf_counter()
        tree = analysis.goal_tree(rec.instances, kb, rec.coherence)
        report = analysis.planliness(program, kb, recognition=rec)
        chunks = analysis.chunk(program, kb, "plan", recognition=rec)
        return rec, tree, report, chunks, recognized - start

    def recognize_seconds(self, outcome):
        return outcome[4]

    def check(self, request, outcome):
        rec, tree, report, chunks, _ = outcome
        p = request.data["program"]
        doc = {"instances": [_instance_doc(i) for i in rec.instances],
               "goal_tree": _tree_doc(tree)}
        failure = _check_recognition(p, doc)
        if failure:
            return failure
        score, coverage, violations = pg.expected_planliness(p)
        if (abs(report.score - score) > 1e-9 or abs(report.coverage - coverage) > 1e-9
                or [(v.rule_id, v.lines) for v in report.violations] != violations):
            return "planliness: report differs"
        if [(c.label, c.lines) for c in chunks] != pg.expected_chunks(p):
            return "chunk-plan: chunks differ"
        return None


def _instance_doc(inst):
    return {"schema": inst.schema, "variable": inst.variable, "status": inst.status,
            "lines": inst.part_lines()}


def _tree_doc(node):
    doc = {"children": [_tree_doc(c) for c in node.children]}
    if node.plan is not None:
        doc["plan"] = _instance_doc(node.plan)
    return doc


# --- simulate_long ------------------------------------------------------------------

# one round of simulate_long: (kind, program, size). execute-grey/orange
# take an input length, compare an input length for both, grid (rows,
# columns) of a nested-FOR program. Sorted by cost the round has 6 short
# requests, 8 alike around the median (ranks 7-14 of 20), 2 longer ones, 3
# alike around the 90th percentile (ranks 17-19) and the longest; each group
# costs at least 1.7 times the one below it.
SIMULATE_ROUND = (
    ("execute", "grey", 200), ("execute", "orange", 200), ("execute", "grey", 400),
    ("execute", "orange", 400), ("compare", None, 200), ("grid", None, (15, 20)),
    *[("execute", "grey", 1000)] * 8,
    ("compare", None, 1000), ("execute", "orange", 3000),
    ("grid", None, (120, 150)), ("grid", None, (120, 150)), ("grid", None, (120, 150)),
    ("grid", None, (200, 250)),
)
SIMULATE_ROUNDS = 4
STEP_BUDGET = 10 ** 8


class SimulateLong(Workload):
    """Long concrete executions: grey and orange over long sentinel-terminated
    inputs, their behavioural comparison, and compute-bound nested loops."""

    name = "simulate_long"

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        models = {name: pg.corpus_program(f"{name}.mp") for name in ("grey", "orange")}
        self.sources = [m.source for m in models.values()]
        self.rounds = []
        for r in range(SIMULATE_ROUNDS):
            batch = []
            for kind, name, size in SIMULATE_ROUND:
                if kind == "execute":
                    model, inputs = models[name], pg.sentinel_inputs(rng, size, 99999)
                    batch.append(Request(kind, model.lines, source=model.source,
                                         inputs=inputs,
                                         want=pg.reference_run(model, inputs)))
                elif kind == "compare":
                    inputs = pg.sentinel_inputs(rng, size, 99999)
                    want = [pg.reference_run(models[name], inputs)
                            for name in ("grey", "orange")]
                    # grey and orange compute the same average
                    assert want[0][0] == want[1][0] and want[0][2] is want[1][2] is None
                    batch.append(Request(kind, models["grey"].lines + models["orange"].lines,
                                         inputs=inputs, want=want))
                else:
                    names = {role: rng.choice(pg.NAMES[role])
                             for role in ("sum", "row", "col", "part")}
                    block = pg.nested_block(names, *size, rng.randint(-50, 50),
                                            rng.randint(5, 97), rng.randint(1, 7))
                    model = pg.render(f"Grid{r}", [block])
                    self.sources.append(model.source)
                    batch.append(Request("grid", model.lines, source=model.source,
                                         inputs=[], want=pg.reference_run(model, [])))
            rng.shuffle(batch)
            self.rounds.append(batch)
        self.grey, self.orange = models["grey"].source, models["orange"].source

    def setup(self):
        self.parsed = {source: frontend.parse(source) for source in self.sources}

    def run(self, request):
        if request.kind == "compare":
            return interpreter.compare_behavior(
                self.parsed[self.grey], self.parsed[self.orange],
                [request.data["inputs"]], step_budget=STEP_BUDGET)
        return interpreter.execute(self.parsed[request.data["source"]],
                                   request.data["inputs"], STEP_BUDGET)

    def steps(self, request):
        if request.kind == "compare":
            return sum(want[1] for want in request.data["want"])
        return request.data["want"][1]

    def check(self, request, outcome):
        if request.kind == "compare":
            return self._check_compare(request, outcome)
        outputs, steps, error = request.data["want"]
        got = [interpreter.render_value(v) for v in outcome.outputs]
        if got != outputs or outcome.steps != steps or outcome.error_kind != error:
            return f"{request.kind}: outputs, steps or status differ"
        return None

    def _check_compare(self, request, outcome):
        outputs = request.data["want"][0][0]
        if ([(e.verdict, e.detail) for e in outcome.entries]
                != [("equal", f"outputs [{', '.join(outputs)}]")]):
            return "compare: verdict or outputs differ from the reference"
        # the steps credited to sim_steps_per_s are the reference's; check
        # them once per request against plancog's own runs, outside the timing
        if not request.data.get("steps_checked"):
            for source, want in zip((self.grey, self.orange), request.data["want"]):
                result = interpreter.execute(self.parsed[source], request.data["inputs"],
                                             STEP_BUDGET)
                got = [interpreter.render_value(v) for v in result.outputs]
                if (got, result.steps, result.error_kind) != want:
                    return "compare: a program's outputs or steps differ from the reference"
            request.data["steps_checked"] = True
        return None


WORKLOADS = {w.name: w for w in (CorpusCli, RecognizeScale, SimulateLong)}

