"""Acceptance criteria, one test per criterion. Each prints a PASS line when
its assertions hold (run with `pytest -s tests/test_acceptance.py` to see
them)."""

import random
import time

from oracles import brute_force_def_use, simple_statements

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
    report = run.compare_behavior(grey, orange, input_sets, tolerance=1e-9)
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
            rules = builtin.rules[:]
            rng.shuffle(rules)
            permuted_kb = kblib.KnowledgeBase(builtin.schemas, builtin.links,
                                              builtin.discourse_rules, rules)
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
