"""Acceptance criteria, one test per criterion. Each prints a PASS line when
its assertions hold (run with `pytest -s tests/test_acceptance.py` to see
them). The last test checks criteria 1-5 again on generated pairs of
plan-like and unplan-like programs."""

import random
import time

from hypothesis import given, seed, settings, strategies as st
from oracles import benchmark_programs, brute_force_def_use, simple_statements

from plancog import activation as act
from plancog import analysis as an
from plancog import frontend as fe
from plancog import interpreter as run
from plancog import kb as kblib
from plancog import relations as rel
from plancog.errors import KbValidationError
from plancog.kb import Cue


def _timed(budget):
    start = time.perf_counter()

    def check(label):
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeds {budget}s"
        print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")

    return check


def test_criterion_1_goal_tree_reproduction(grey, builtin):
    check = _timed(1.0)
    rec = an.recognize(grey, builtin)
    tree = an.goal_tree(rec.instances, builtin, rec.coherence)
    assert tree.goal == "report-average"
    assert [c.goal for c in tree.children] == \
        ["enter-data", "compute-average", "output-average"]
    counters = [leaf for leaf in tree.leaves()
                if leaf.plan.schema == "Counter_Variable"]
    assert len(counters) == 1
    plan = counters[0].plan
    assert plan.bindings["initialization"].line == 6
    assert plan.bindings["initialization"].text.lower() == "count:=0"
    assert plan.bindings["update"].line == 12
    assert plan.bindings["update"].text.lower() == "count:=count+1"
    check("1 goal-tree reproduction")


def test_criterion_2_fill_blank_plan_like(grey_src, builtin):
    check = _timed(1.0)
    candidates = an.fill_blank(fe.blank_line(grey_src, 6), builtin, "plan")
    assert candidates[0].rank == 1
    assert candidates[0].text.replace(" ", "").lower() == "count:=0"
    check("2 fill-blank plan-like")


def test_criterion_3_predicted_expert_error(orange_src, builtin):
    check = _timed(1.0)
    candidates = an.fill_blank(fe.blank_line(orange_src, 6), builtin, "plan")
    top = candidates[0].text.replace(" ", "").lower()
    assert candidates[0].rank == 1
    assert top == "count:=0"
    assert top != "count:=-1"     # the program's actual line
    check("3 predicted expert error")


def test_criterion_4_discourse_detection(grey, orange, builtin):
    check = _timed(1.0)
    orange_report = an.planliness(orange, builtin)
    double_duty = [v for v in orange_report.violations if v.rule_id == "D2"]
    assert len(double_duty) == 1
    assert double_duty[0].lines == [5, 6]
    grey_report = an.planliness(grey, builtin)
    assert grey_report.score > orange_report.score
    check("4 discourse detection")


def test_criterion_5_compensation_property(grey, orange):
    check = _timed(5.0)
    rng = random.Random(0)
    input_sets = []
    for _ in range(100):
        n = rng.randint(1, 20)
        input_sets.append([rng.randint(-1000, 1000) for _ in range(n)] + [99999])
    report = run.compare_behavior(grey, orange, input_sets)
    verdicts = [e.verdict for e in report.entries]
    assert verdicts.count("equal") == 100
    empty = run.compare_behavior(grey, orange, [[99999]])
    assert empty.entries[0].verdict == "equal-by-error"
    both = [run.execute(p, [99999]) for p in (grey, orange)]
    assert all(r.error_kind == "division-by-zero" for r in both)
    check("5 compensation property 100/100")


def test_criterion_6_activation_determinism_and_monotonicity(corpus_sources, builtin):
    check = _timed(5.0)
    rng = random.Random(0)
    for src in corpus_sources.values():
        program = fe.parse(src)
        cues = act.extract_beacons(act.ProgramIndex(program), builtin)
        baseline = {a.schema for a in act.activate(builtin, cues)}
        for _ in range(20):
            shuffled = cues[:]
            rng.shuffle(shuffled)
            rules = list(builtin.rules)
            rng.shuffle(rules)
            permuted_kb = kblib.KnowledgeBase(builtin.schemas, builtin.links,
                                              builtin.discourse_rules, tuple(rules))
            result = {a.schema for a in act.activate(permuted_kb, shuffled)}
            assert result == baseline
        extended = cues + [Cue("comment", "counter", 1)]
        assert baseline <= {a.schema for a in act.activate(builtin, extended)}
    check("6 activation determinism and monotonicity")


def test_criterion_7_relations_oracle(corpus_sources):
    check = _timed(5.0)
    for src in corpus_sources.values():
        program = fe.parse(src)
        assert len(simple_statements(program)) <= 12
        cfg = rel.build_cfg(program)
        defuse = rel.def_use(program, cfg)
        chains, uninit = brute_force_def_use(cfg, max_unrollings=2)
        assert defuse.chains == chains
        assert set(defuse.possibly_uninitialized) == uninit
        tree = rel.decompose_primes(program)
        leaf_lines = [line for leaf in tree.leaves() for line in leaf.lines]
        simple = [s.line for s in simple_statements(program)]
        assert sorted(leaf_lines) == sorted(simple)
        assert len(leaf_lines) == len(set(leaf_lines))
    check("7 relations oracle")


def test_criterion_8_delocalization_and_chunking(grey, builtin):
    check = _timed(1.0)
    rec = an.recognize(grey, builtin)
    counter = next(i for i in rec.instances if i.schema == "Counter_Variable")
    assert an.delocalization(counter) == 6
    plan = {tuple(c.lines) for c in an.chunk(grey, builtin, "plan")
            if c.label != "(residue)"}
    control = {tuple(c.lines) for c in an.chunk(grey, builtin, "control")}
    jaccard = len(plan & control) / len(plan | control)
    assert jaccard < 1
    check("8 delocalization and chunking")


def test_criterion_9_kb_round_trip_and_diagnostics(builtin):
    check = _timed(1.0)
    first = kblib.dump_kb(builtin)
    second = kblib.dump_kb(kblib.load_kb(first))
    assert first == second     # byte identical

    fixtures = {
        "cycle": ('schema A kind problem\n  desc "a"\n  kindof B\n'
                  'schema B kind problem\n  desc "b"\n  kindof A\n'),
        "dangling-link": 'schema A kind problem\n  desc "a"\n  kindof Missing\n',
        "double-prototypical": ('schema A kind variable\n  desc "a"\n'
                                '  slot s mandatory\n'
                                '    filler "<v>:=0" proto\n'
                                '    filler "<v>:=1" proto\n'),
    }
    for expected_code, text in fixtures.items():
        try:
            kblib.load_kb(text)
            raise AssertionError(f"{expected_code} fixture loaded cleanly")
        except KbValidationError as err:
            assert [d.code for d in err.diagnostics] == [expected_code]
    check("9 KB round-trip and diagnostics")


# --- criteria 1-5 on generated plan-like/unplan-like pairs ----------------------------

def _pair_facts(program, builtin):
    """(recognition, planliness report) of a rendered benchmark program."""
    parsed = fe.parse(program.source)
    rec = an.recognize(parsed, builtin)
    return rec, an.planliness(parsed, builtin, recognition=rec)


def _bindings(rec, roles):
    """Every binding of every plan, its variable given by role."""
    return sorted((inst.schema, roles.get(inst.variable), slot, b.line)
                  for inst in rec.instances for slot, b in inst.bindings.items())


@settings(max_examples=100, deadline=None)
@seed(19)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_generated_plan_like_and_unplan_like_pairs(builtin, pair_seed):
    # the benchmark's averaging (grey-shaped) and compensating
    # (orange-shaped) blocks, with the same seeded names and sentinel
    pg = benchmark_programs()
    rng = random.Random(pair_seed)
    taken = set()
    names = {role: pg._pick(rng, role, taken) for role in ("sum", "count", "num", "avg")}
    sentinel = rng.choice(pg.SENTINELS)
    plan = pg.render("Grey", [pg.averaging_block(names, sentinel)])
    unplan = pg.render("Orange", [pg.compensating_block(names, sentinel)])
    count = names["count"]

    # criterion 5: the compensation keeps the behaviour
    input_sets = [pg.sentinel_inputs(rng, rng.randint(1, 20), sentinel) for _ in range(10)]
    report = run.compare_behavior(fe.parse(plan.source), fe.parse(unplan.source), input_sets)
    assert [e.verdict for e in report.entries] == ["equal"] * len(input_sets)

    # criterion 4: one double-duty violation, on the two initializations
    plan_rec, plan_report = _pair_facts(plan, builtin)
    _, unplan_report = _pair_facts(unplan, builtin)
    assert plan_report.violations == []
    assert plan_report.score > unplan_report.score
    init_lines = sorted(unplan.line_of[0][role] for role in ("sum_init", "count_init"))
    assert [(v.rule_id, v.lines) for v in unplan_report.violations] == [("D2", init_lines)]

    # criteria 2 and 3: the plan's filler first, whatever the program wrote
    for program in (plan, unplan):
        blanked = fe.blank_line(program.source, program.line_of[0]["count_init"])
        top = an.fill_blank(blanked, builtin, "plan")[0]
        assert top.text.replace(" ", "").lower() == f"{count.lower()}:=0"

    # criterion 1: report / enter-data / compute / output
    avg = names["avg"].lower()
    tree = an.goal_tree(plan_rec.instances, builtin, plan_rec.coherence)
    assert tree.goal == f"report-{avg}"
    assert [c.goal for c in tree.children] == ["enter-data", f"compute-{avg}", f"output-{avg}"]

    # a second rule of discourse: a counter named for another role draws
    # one name-reflects-function violation and moves no binding
    renamed = dict(names, count=pg._pick(rng, rng.choice(("avg", "flag")), taken))
    renamed_plan = pg.render("Grey", [pg.averaging_block(renamed, sentinel)])
    renamed_rec, renamed_report = _pair_facts(renamed_plan, builtin)
    assert [v.rule_id for v in renamed_report.violations] == ["D1"]
    assert _bindings(renamed_rec, {n.lower(): role for role, n in renamed.items()}) == \
        _bindings(plan_rec, {n.lower(): role for role, n in names.items()})
