import random

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from oracles import (benchmark_programs, brute_force_def_use, chunk_universe,
                     dynamic_def_use, enclosing_loops, round_robin_def_use,
                     self_referential, simple_statements)
from plancog import frontend as fe
from plancog import relations as rel
from plancog.errors import AnalysisError
from plancog.interpreter import DEFAULT_STEP_BUDGET
from test_frontend import _NAMES, _TYPED_NAMES, _program, _stmt


def _reachable(cfg, start, forward=True):
    adjacency = {}
    for src, dst, _ in cfg.edges:
        a, b = (src, dst) if forward else (dst, src)
        adjacency.setdefault(a, set()).add(b)
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in adjacency.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _nodes_at(cfg, line):
    """Every node on `line` or standing for it, in creation order: a
    repeat's condition node also stands for the REPEAT keyword's line."""
    return [n for n in cfg.nodes if line in (n.line, getattr(n.stmt, "line", None))]


def test_grey_repeat_loop_back_edge(grey):
    cfg = rel.build_cfg(grey)
    until = _nodes_at(cfg, 14)[0]
    readln = _nodes_at(cfg, 8)[0]
    assert until.kind == rel.COND
    assert (until.id, readln.id, rel.LOOP_BACK) in cfg.edges


def test_empty_program_single_edge():
    cfg = rel.build_cfg(fe.parse("PROGRAM P(input,output); BEGIN END."))
    assert len(cfg.nodes) == 2
    assert cfg.edges == [(cfg.entry, cfg.exit, rel.SEQ)]


def test_orange_loop_has_no_if_nodes(orange):
    cfg = rel.build_cfg(orange)
    if_nodes = [n for n in cfg.nodes if n.kind == rel.COND and isinstance(n.stmt, fe.If)]
    assert if_nodes == []


def test_cfg_reachability_invariants(corpus_sources):
    for src in corpus_sources.values():
        cfg = rel.build_cfg(fe.parse(src))
        ids = {n.id for n in cfg.nodes}
        assert _reachable(cfg, cfg.entry, forward=True) == ids
        assert _reachable(cfg, cfg.exit, forward=False) == ids


def test_if_nodes_have_true_and_false_edges(grey):
    cfg = rel.build_cfg(grey)
    for node in cfg.nodes:
        if node.kind == rel.COND and isinstance(node.stmt, fe.If):
            labels = sorted(label for src, _, label in cfg.edges if src == node.id)
            assert labels == ["false", "true"]


def test_loop_conditions_have_one_loop_back_path(corpus_sources):
    for src in corpus_sources.values():
        cfg = rel.build_cfg(fe.parse(src))
        for node in cfg.nodes:
            if node.kind != rel.COND or not isinstance(node.stmt, fe.LOOP_KINDS):
                continue
            incident = [e for e in cfg.edges
                        if rel.LOOP_BACK == e[2] and node.id in (e[0], e[1])]
            assert len(incident) == 1


# --- primes -----------------------------------------------------------------

def test_grey_prime_decomposition(grey):
    # frozen hand decomposition of the normalized fixture
    tree = rel.decompose_primes(grey)
    assert tree.kind == "sequence"
    kinds = [(c.kind, c.lines) for c in tree.children]
    assert kinds == [("sequence", [5, 6]), ("iteration", [7, 14]),
                     ("sequence", [15, 16])]
    body = tree.children[1].children[0]
    assert [(c.kind, c.lines) for c in body.children] == [
        ("sequence", [8]), ("conditional", [9])]
    assert body.children[1].children[0].lines == [11, 12]


def test_single_assignment_prime_tree():
    program = fe.parse("PROGRAM P(input,output); VAR X: INTEGER; BEGIN X := 1; END.")
    tree = rel.decompose_primes(program)
    assert tree.is_leaf() and tree.lines == [1]


def test_orange_iteration_is_pure_sequence(orange):
    tree = rel.decompose_primes(orange)
    iteration = next(n for n in tree.walk() if n.kind == "iteration")
    body = iteration.children[0]
    assert body.is_leaf()
    assert body.lines == [8, 9, 10]


def test_prime_leaves_partition_simple_statements(corpus_sources):
    for src in corpus_sources.values():
        program = fe.parse(src)
        tree = rel.decompose_primes(program)
        leaf_lines = [line for leaf in tree.leaves() for line in leaf.lines]
        expected = sorted(s.line for s in simple_statements(program))
        assert sorted(leaf_lines) == expected
        assert len(leaf_lines) == len(set(leaf_lines))


def test_iteration_and_conditional_counts(corpus_sources):
    for src in corpus_sources.values():
        program = fe.parse(src)
        tree = rel.decompose_primes(program)
        statements = list(fe.walk_statements(program.body))
        loops = sum(isinstance(s, fe.LOOP_KINDS) for s in statements)
        conds = sum(isinstance(s, fe.If) for s in statements)
        assert sum(n.kind == "iteration" for n in tree.walk()) == loops
        assert sum(n.kind == "conditional" for n in tree.walk()) == conds


# --- def-use ------------------------------------------------------------------

def test_grey_sum_chain(grey):
    # expected set computed by the exhaustive path oracle, then frozen
    du = rel.def_use(grey, rel.build_cfg(grey))
    assert du.chains[("sum", 5)] == {11, 15}


def test_use_before_definition_flagged():
    program = fe.parse("PROGRAM P(input,output); VAR X, Y: INTEGER;"
                       " BEGIN Y := X; END.")
    du = rel.def_use(program, rel.build_cfg(program))
    assert ("x", 1) in du.possibly_uninitialized


def test_orange_counter_updates_unconditionally(orange):
    du = rel.def_use(orange, rel.build_cfg(orange))
    assert 10 in du.chains[("count", 6)]


def test_grey_readln_definition_and_writeln_use(grey):
    du = rel.def_use(grey, rel.build_cfg(grey))
    assert ("num", 8) in du.definitions
    assert ("average", 16) in du.uses


def test_query_data_relation_grey(grey):
    # frozen from the fixture's def-use chains
    assert rel.query_relation("data", grey, 12) == {6, 15}


def test_query_control_relation_grey(grey):
    # frozen from build_cfg on the fixture
    assert rel.query_relation("control", grey, 8) == {6, 9, 14}


def test_query_data_single_statement():
    program = fe.parse("PROGRAM P(input,output); VAR X: INTEGER; BEGIN X := 1; END.")
    assert rel.query_relation("data", program, 1) == set()


def test_query_bad_line(grey):
    with pytest.raises(AnalysisError):
        rel.query_relation("control", grey, 999)


def test_query_unknown_relation_kind(grey):
    with pytest.raises(AnalysisError, match="unknown relation kind 'flow'"):
        rel.query_relation("flow", grey, 8)


def test_chains_match_brute_force_oracle(corpus_sources):
    for src in corpus_sources.values():
        program = fe.parse(src)
        assert len(simple_statements(program)) <= 12
        cfg = rel.build_cfg(program)
        du = rel.def_use(program, cfg)
        chains, uninit = brute_force_def_use(cfg)
        assert du.chains == chains
        assert set(du.possibly_uninitialized) == uninit


def _unchained_pairs(program, inputs, step_budget=DEFAULT_STEP_BUDGET):
    """The def-use pairs a run of `program` exercised that def_use does not
    chain, as (variable, definition line, use line), and how many it saw."""
    cfg = rel.build_cfg(program)
    chains = rel.def_use(program, cfg).chains
    seen = dynamic_def_use(program, cfg, inputs, step_budget)
    lines = {(var, cfg.nodes[d].line, cfg.nodes[u].line) for var, d, u in seen}
    return {(var, d, u) for var, d, u in lines if u not in chains[(var, d)]}, len(seen)


def test_executed_pairs_are_chained(corpus_sources):
    # dynamic def-use pairs are a subset of the static chains: on the
    # corpus, a one-line REPEAT, and generated programs with every block fed
    pg = benchmark_programs()
    rng = random.Random(11)
    runs = [(fe.parse(src), pg.search_inputs(rng, 4) if name == "search.mp"
             else pg.sentinel_inputs(rng, 5, 99999)) for name, src in corpus_sources.items()]
    runs.append((fe.parse("PROGRAM P(input, output);\nVAR X, Y: INTEGER;\nBEGIN\n"
                          "    X := 0; Y := 1;\n    REPEAT X := X + Y UNTIL X > 3;\n"
                          "    WRITELN(X)\nEND.\n"), []))
    for seed in range(30):
        program = pg.scale_program(random.Random(seed), 6, seed)
        inputs = []
        for block in program.blocks:
            if block.shape == "search":
                inputs += pg.search_inputs(rng, rng.randint(2, 5))
            elif block.shape != "nested":
                inputs += pg.sentinel_inputs(rng, rng.randint(1, 5), block.consts["X"])
        runs.append((fe.parse(program.source), inputs))
    seen = 0
    for program, inputs in runs:
        # printed, every CFG node has a line of its own, so that the chains
        # of a line that holds several nodes are compared node by node
        for form in (program, fe.parse(fe.pretty_print(program))):
            unchained, count = _unchained_pairs(form, inputs)
            assert unchained == set()
            seen += count
    assert seen > 2000


# initial values for the INTEGER variables, so that most runs get past the
# first use
_PRELUDE = st.lists(st.integers(-3, 5), min_size=4, max_size=4).map(
    lambda values: [f"{name} := {value}" for name, value in zip(_NAMES, values)])


@seed(18)
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just([]), _PRELUDE),
       st.lists(_stmt(2, _TYPED_NAMES), min_size=1, max_size=6),
       st.lists(st.integers(-3, 5), max_size=8))
# a FOR header assigns its variable only when it enters the body: after a
# FOR that runs zero times the earlier definition reaches the read, also
# when the FOR ends an enclosing loop's body, and after a body that
# redefines the variable, the body's definition does
@example(["Alpha := 5"], ["FOR Alpha := 2 TO 1 DO BEGIN WRITELN(Alpha); END",
                          "WRITELN(Alpha)"], [])
@example(["Alpha := 5", "Beta := 0"],
         ["WHILE Beta < 2 DO BEGIN WRITELN(Alpha); Alpha := Beta; Beta := Beta + 1;"
          " FOR Alpha := 2 TO 1 DO WRITELN(Beta); END"], [])
@example([], ["REPEAT FOR Alpha := 0 TO 0 DO BEGIN Alpha := 0; END; UNTIL Alpha = 0"], [])
def test_executed_pairs_of_generated_programs_are_chained(prelude, stmts, inputs):
    program = fe.parse(_program(prelude + stmts))
    for form in (program, fe.parse(fe.pretty_print(program))):
        # a generated loop that never ends would walk the default 100,000 steps
        assert _unchained_pairs(form, inputs, step_budget=2000)[0] == set()


def test_every_use_chained_or_flagged(corpus_sources):
    sources = list(corpus_sources.values())
    sources.append("PROGRAM P(input,output); VAR X, Y: INTEGER; BEGIN Y := X; END.")
    for src in sources:
        program = fe.parse(src)
        du = rel.def_use(program, rel.build_cfg(program))
        chained = {(var, use) for (var, _), uses in du.chains.items()
                   for use in uses}
        flagged = set(du.possibly_uninitialized)
        for var, line in du.uses:
            assert (var, line) in chained or (var, line) in flagged


def test_determinism(corpus_sources):
    for src in corpus_sources.values():
        program = fe.parse(src)
        first = rel.def_use(program, rel.build_cfg(program))
        second = rel.def_use(fe.parse(src), rel.build_cfg(fe.parse(src)))
        assert first.chains == second.chains
        assert first.definitions == second.definitions
        one = rel.decompose_primes(program)
        two = rel.decompose_primes(fe.parse(src))
        assert [(n.kind, n.lines) for n in one.walk()] == \
               [(n.kind, n.lines) for n in two.walk()]


# --- repeat loops (hand-written: the path oracle shares the CFG) ---------------

NESTED_REPEAT = """PROGRAM P(input, output);
VAR x: INTEGER;
BEGIN
    REPEAT
        REPEAT
            x := 5
        UNTIL TRUE;
        WRITELN(x);
        x := 7
    UNTIL x > 5
END.
"""


def test_outer_repeat_loops_back_into_inner_body():
    # the outer loop-back enters x := 5, so x := 7 never reaches WRITELN(x)
    program = fe.parse(NESTED_REPEAT)
    du = rel.def_use(program, rel.build_cfg(program))
    assert du.chains == {("x", 6): {8}, ("x", 9): {10}}


EMPTY_REPEAT = ("PROGRAM P(input, output);\nVAR x: INTEGER;\nBEGIN\n"
                "    x := 9;\n    REPEAT {body}\n    UNTIL x > 5\nEND.\n")


@pytest.mark.parametrize("body", ["", "BEGIN END"])
def test_empty_repeat_body_loops_on_its_condition(body):
    program = fe.parse(EMPTY_REPEAT.format(body=body))
    cfg = rel.build_cfg(program)
    until = _nodes_at(cfg, 6)[0]
    assert (until.id, until.id, rel.LOOP_BACK) in cfg.edges
    assert rel.def_use(program, cfg).chains == {("x", 4): {6}}


ONE_LINE_REPEAT = """PROGRAM P(input, output);
VAR x: INTEGER;
BEGIN
    x := 0;
    REPEAT x := x + 1 UNTIL x > 3;
    WRITELN(x)
END.
"""


def test_line_with_several_nodes_relates_through_all_of_them():
    # line 5 holds the assignment and the UNTIL condition
    program = fe.parse(ONE_LINE_REPEAT)
    assert len(_nodes_at(rel.build_cfg(program), 5)) == 2
    assert rel.query_relation("control", program, 5) == {4, 6}
    assert rel.query_relation("data", program, 5) == {4, 6}


@pytest.mark.parametrize("kind, expected", [("data", {8}), ("control", {8, 9, 12, 15})])
def test_repeat_keyword_line_answers_for_its_condition(grey, kind, expected):
    # grey's REPEAT is on line 7 and its condition node on the UNTIL line 14
    assert rel.query_relation(kind, grey, 7) == expected
    assert rel.query_relation(kind, grey, 14) == expected
    program = fe.parse("PROGRAM P(input, output);\nVAR x: INTEGER;\nBEGIN\n"
                       "    x := 9;\n    REPEAT BEGIN END\n    UNTIL x > 5\nEND.\n")
    assert rel.query_relation(kind, program, 5) == rel.query_relation(kind, program, 6) == {4}


# --- the worklist solver against the round-robin reference --------------------

REPEAT_CASES = [NESTED_REPEAT, ONE_LINE_REPEAT,
                EMPTY_REPEAT.format(body=""), EMPTY_REPEAT.format(body="BEGIN END")]


def _assert_same_def_use(src):
    program = fe.parse(src)
    cfg = rel.build_cfg(program)
    assert rel.def_use(program, cfg) == round_robin_def_use(program, cfg)


def test_def_use_matches_round_robin_on_corpus(corpus_sources):
    for src in corpus_sources.values():
        _assert_same_def_use(src)


@pytest.mark.parametrize("src", REPEAT_CASES)
def test_def_use_matches_round_robin_on_repeat_cases(src):
    _assert_same_def_use(src)


# --- statement records ------------------------------------------------------------

def _assert_records_match_walks(program):
    """Each statement's record, made while the CFG is built, says what
    walking the tree says of that statement."""
    cfg = rel.build_cfg(program)
    enclosing = enclosing_loops(program)
    statements = [s for s in fe.walk_statements(program.body)
                  if not isinstance(s, fe.Compound)]
    node_of = {id(n.stmt): n for n in cfg.nodes if n.stmt is not None}
    assert sorted(node_of[id(s)].id for s in statements) == \
        [n.id for n in cfg.nodes if n.stmt is not None]
    for s in statements:
        node = node_of[id(s)]
        assert node.stmt is s
        assert node.defs == tuple(name.lower() for name, _ in fe.defined_names(s))
        assert node.uses == tuple(sorted({name.lower() for name, _ in fe.used_names(s)}))
        assert [id(loop) for loop in node.loops] == [id(loop) for loop in enclosing[id(s)]]
        assert node.text == (fe.node_text(s) if isinstance(s, fe.SIMPLE_KINDS) else None)
        assert node.reads_own == self_referential(s)
    # the loops' nodes in preorder, though a REPEAT's is made after its body's
    assert [id(node) for node in cfg.loops] == \
        [id(node_of[id(s)]) for s in statements if isinstance(s, fe.LOOP_KINDS)]
    assert cfg.lines() == chunk_universe(program)


def test_statement_records_match_walks_on_corpus(corpus_sources):
    for src in corpus_sources.values():
        program = fe.parse(src)
        _assert_records_match_walks(program)
        # and with each statement that can be blanked left as a hole
        for s in simple_statements(program):
            _assert_records_match_walks(fe.blank_line(src, s.line).context)


@settings(max_examples=100, deadline=None)
@given(st.lists(_stmt(3), min_size=1, max_size=6))
def test_statement_records_match_walks_on_generated_programs(stmts):
    _assert_records_match_walks(fe.parse(_program(stmts)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_statement_records_match_walks_on_benchmark_programs(seed):
    pg = benchmark_programs()
    _assert_records_match_walks(
        fe.parse(pg.scale_program(random.Random(seed), 12, f"t{seed}").source))


def _assert_queries_match_references(program):
    """`query_relation` on every line: `control` relates the lines of the
    edge neighbours of the line's nodes, and `data` the lines the
    round-robin chains link to the line's, each less the line's own; a line
    with no node raises."""
    cfg = rel.build_cfg(program)
    chains = round_robin_def_use(program, cfg).chains
    last = max([n.line for n in cfg.nodes if n.line is not None], default=0)
    for line in range(last + 2):
        nodes = _nodes_at(cfg, line)
        if not nodes:
            for kind in ("control", "data"):
                with pytest.raises(AnalysisError, match=f"no statement at line {line}$"):
                    rel.query_relation(kind, program, line)
            continue
        ids = {n.id for n in nodes}
        own = {line, *(n.line for n in nodes)}
        control = {cfg.nodes[b if a in ids else a].line
                   for a, b, _ in cfg.edges if a in ids or b in ids}
        assert rel.query_relation("control", program, line) == control - own - {None}
        data = set()
        for (_, def_line), use_lines in chains.items():
            if def_line in own:
                data |= use_lines
            if own & use_lines:
                data.add(def_line)
        assert rel.query_relation("data", program, line) == data - own


@settings(max_examples=100, deadline=None)
@given(st.lists(_stmt(3), min_size=1, max_size=6))
def test_relation_queries_match_references_on_generated_programs(stmts):
    _assert_queries_match_references(fe.parse(_program(stmts)))


def _corpus_and_scale_sources(corpus_sources):
    pg = benchmark_programs()
    return [*corpus_sources.values(),
            *(pg.scale_program(random.Random(seed), 12, f"t{seed}").source
              for seed in (1, 2, 3))]


def test_relation_queries_match_references_on_corpus_and_benchmark_programs(corpus_sources):
    for src in _corpus_and_scale_sources(corpus_sources):
        _assert_queries_match_references(fe.parse(src))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_relation_queries_shift_with_blank_lines_before_the_program(corpus_sources, k):
    # k blank lines before PROGRAM move every statement k lines down, and so
    # every related line and every line with no statement
    for src in _corpus_and_scale_sources(corpus_sources):
        program, shifted = fe.parse(src), fe.parse("\n" * k + src)
        for line in range(1, k + 1):
            with pytest.raises(AnalysisError, match=f"no statement at line {line}$"):
                rel.query_relation("control", shifted, line)
        for line in range(1, src.count("\n") + 2):
            for kind in ("control", "data"):
                try:
                    related = rel.query_relation(kind, program, line)
                except AnalysisError as error:
                    assert str(error) == f"no statement at line {line}"
                    with pytest.raises(AnalysisError,
                                       match=f"no statement at line {line + k}$"):
                        rel.query_relation(kind, shifted, line + k)
                else:
                    assert rel.query_relation(kind, shifted, line + k) == \
                        {related_line + k for related_line in related}
