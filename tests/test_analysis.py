import pytest

from oracles import chunk_universe
from plancog import analysis as an
from plancog import frontend as fe
from plancog import kb as kblib
from plancog.errors import AnalysisError


def _goal_names(tree):
    return [c.goal for c in tree.children]


def _find_leaf(tree, schema):
    return [leaf for leaf in tree.leaves() if leaf.plan.schema == schema]


def test_grey_goal_tree(grey, builtin):
    rec = an.recognize(grey, builtin)
    tree = an.goal_tree(rec.instances, builtin, rec.coherence)
    assert tree.goal == "report-average"
    assert _goal_names(tree) == ["enter-data", "compute-average", "output-average"]
    counter = _find_leaf(tree, "Counter_Variable")
    assert len(counter) == 1
    bindings = counter[0].plan.bindings
    assert bindings["initialization"].line == 6
    assert bindings["update"].line == 12


def test_grey_goal_tree_placement(grey, builtin):
    rec = an.recognize(grey, builtin)
    tree = an.goal_tree(rec.instances, builtin, rec.coherence)
    by_goal = {c.goal: {leaf.plan.schema for leaf in c.leaves()}
               for c in tree.children}
    assert by_goal["enter-data"] == {"New_Value_Controlled_Running_Total_Loop",
                                     "Read_Variable"}
    assert by_goal["compute-average"] == {"Running_Total_Variable",
                                          "Counter_Variable", "Quotient_Variable"}
    assert by_goal["output-average"] == {"Output_Value"}


def test_goal_tree_leaf_count_matches_complete_instances(grey, builtin):
    rec = an.recognize(grey, builtin)
    tree = an.goal_tree(rec.instances, builtin, rec.coherence)
    complete_leaves = [l for l in tree.leaves() if l.plan.complete]
    complete_instances = [i for i in rec.instances if i.complete]
    assert len(complete_leaves) == len(complete_instances)
    labels = [l.plan.label for l in tree.leaves()]
    assert len(labels) == len(set(labels))     # each instance in exactly one leaf


def test_single_assignment_goal_tree(builtin):
    program = fe.parse("PROGRAM P(input,output); VAR I: INTEGER; BEGIN I := 1; END.")
    rec = an.recognize(program, builtin)
    tree = an.goal_tree(rec.instances, builtin, rec.coherence)
    assert len(list(tree.leaves())) == 1


def test_orange_goal_tree_flags_incoherence(orange, builtin):
    rec = an.recognize(orange, builtin)
    tree = an.goal_tree(rec.instances, builtin, rec.coherence)
    assert _goal_names(tree) == ["enter-data", "compute-average", "output-average"]
    compute = tree.children[1]
    flagged = [leaf for leaf in compute.leaves() if "incoherent" in leaf.flags]
    assert {leaf.plan.schema for leaf in flagged} == {"Counter_Variable",
                                                      "Running_Total_Variable"}


def test_planliness_grey(grey, builtin):
    report = an.planliness(grey, builtin)
    assert report.violations == []
    assert report.coverage == 1.0
    assert report.score == 1.0


def test_planliness_ordering(grey, orange, builtin):
    assert an.planliness(grey, builtin).score > an.planliness(orange, builtin).score


def test_orange_no_double_duty_cites_both_initializations(orange, builtin):
    report = an.planliness(orange, builtin)
    double_duty = [v for v in report.violations if v.rule_id == "D2"]
    assert len(double_duty) == 1
    assert double_duty[0].lines == [5, 6]


def test_name_reflects_function_violation(builtin):
    program = fe.parse(
        "PROGRAM P(input,output);\nVAR X, Num: INTEGER;\nBEGIN\n"
        "    X := 0;\n    REPEAT\n        READLN(Num);\n        X := X + 1;\n"
        "    UNTIL Num = 99999;\n    WRITELN(X);\nEND.")
    report = an.planliness(program, builtin)
    named = [v for v in report.violations if v.rule_id == "D1"]
    assert len(named) == 1
    assert 4 in named[0].lines and 7 in named[0].lines
    assert "x" in named[0].explanation.lower()


TALLY_VARIABLE = """schema Tally_Variable kind variable
  desc "counts in steps of two"
  goal tally-up
  names TALLY
  slot update mandatory
    filler "<v>:=<v>+2" proto
rule T1 data: if update~"<v>:=<v>+2" then activate Tally_Variable
"""


@pytest.mark.parametrize("name, violations", [("Steps", 1), ("Tally", 0)])
def test_user_schema_names_and_goal(builtin, name, violations):
    kb = kblib.load_kb(kblib.dump_kb(builtin) + TALLY_VARIABLE)
    program = fe.parse(
        f"PROGRAM P(input,output);\nVAR {name}: INTEGER;\nBEGIN\n"
        f"    REPEAT\n        {name} := {name} + 2;\n    UNTIL {name} > 10;\nEND.")
    rec = an.recognize(program, kb)
    named = [v for v in an.planliness(program, kb, recognition=rec).violations
             if v.rule_id == "D1"]
    assert [v.lines for v in named] == [[2, 5]] * violations
    tree = an.goal_tree(rec.instances, kb, rec.coherence)
    assert [leaf.plan.schema for leaf in tree.children[0].leaves()] == ["Tally_Variable"]
    assert _goal_names(tree) == ["tally-up"]


def test_no_unused_plan_part_predicate():
    import dataclasses
    builtin = kblib.builtin_kb()
    kb = dataclasses.replace(builtin, discourse_rules=(
        *builtin.discourse_rules,
        kblib.DiscourseRule("D3", "no-unused-plan-part",
                            "every plan part should feed some other part")))
    assert kblib.validate_kb(kb) == []
    counted_but_unused = fe.parse(
        "PROGRAM P(input,output);\nVAR Count, Num: INTEGER;\nBEGIN\n"
        "    Count := 0;\n    REPEAT\n        READLN(Num);\n"
        "        Count := Count + 1;\n    UNTIL Num = 99999;\nEND.")
    report = an.planliness(counted_but_unused, kb)
    unused = [v for v in report.violations if v.rule_id == "D3"]
    assert len(unused) == 1
    assert unused[0].lines == [4, 7]
    grey_report = an.planliness(
        fe.parse(open_fixture("grey.mp")), kb)
    assert not [v for v in grey_report.violations if v.rule_id == "D3"]


def open_fixture(name):
    from plancog.cli import corpus
    return dict(corpus())[name]


def test_score_formula(orange, builtin):
    report = an.planliness(orange, builtin)
    expected = report.coverage * (1 - 0.25 * min(4, len(report.violations)))
    assert report.score == pytest.approx(expected)


def test_fill_blank_grey_plan(grey_src, builtin):
    blanked = fe.blank_line(grey_src, 6)
    candidates = an.fill_blank(blanked, builtin, "plan")
    assert candidates[0].rank == 1
    assert candidates[0].text.replace(" ", "").lower() == "count:=0"
    ranks = [c.rank for c in candidates]
    assert ranks == list(range(1, len(ranks) + 1))


def test_fill_blank_orange_predicts_plan_like_answer(orange_src, builtin):
    blanked = fe.blank_line(orange_src, 6)
    candidates = an.fill_blank(blanked, builtin, "plan")
    assert candidates[0].text.replace(" ", "").lower() == "count:=0"
    # the plan answer differs from the program's actual line
    actual = "count:=-1"
    assert candidates[0].text.replace(" ", "").lower() != actual


def test_fill_blank_invariance_between_versions(grey_src, orange_src, builtin):
    grey_top = an.fill_blank(fe.blank_line(grey_src, 6), builtin, "plan")[0]
    orange_top = an.fill_blank(fe.blank_line(orange_src, 6), builtin, "plan")[0]
    assert grey_top.text.replace(" ", "").lower() == \
        orange_top.text.replace(" ", "").lower()


def test_fill_blank_no_plans(builtin):
    src = ("PROGRAM P(input,output);\nVAR X, Y: INTEGER;\nBEGIN\n"
           "    X := 5;\n    Y := Y + X;\nEND.")
    blanked = fe.blank_line(src, 4)
    assert an.fill_blank(blanked, builtin, "plan") == []
    control = an.fill_blank(blanked, builtin, "control")
    assert control
    assert control[0].rank == 1
    assert ":=" in control[0].text


def test_fill_blank_control_on_grey(grey_src, builtin):
    blanked = fe.blank_line(grey_src, 6)
    control = an.fill_blank(blanked, builtin, "control")
    assert control[0].text.replace(" ", "").lower() == "count:=0"


def test_chunk_control_matches_primes(grey, builtin):
    chunks = an.chunk(grey, builtin, "control")
    assert [(c.label, c.lines) for c in chunks] == [
        ("sequence", [5, 6]),
        ("iteration", [7, 14]),
        ("sequence", [8]),
        ("conditional", [9]),
        ("sequence", [11, 12]),
        ("sequence", [15, 16]),
    ]


def test_chunk_control_partitions_universe(corpus_sources, builtin):
    for src in corpus_sources.values():
        program = fe.parse(src)
        chunks = an.chunk(program, builtin, "control")
        lines = [l for c in chunks for l in c.lines]
        assert sorted(lines) == sorted(chunk_universe(program))
        assert len(lines) == len(set(lines))


def test_chunk_control_one_line_repeat_lists_its_line_once():
    # line 5 holds the REPEAT, its body and its UNTIL: the iteration owns it
    # and the body's sequence, left empty, is dropped
    program = fe.parse("PROGRAM P(input, output);\nVAR x: INTEGER;\nBEGIN\n"
                       "    x := 0;\n    REPEAT x := x + 1 UNTIL x > 3;\n"
                       "    WRITELN(x)\nEND.\n")
    chunks = an.chunk(program, mode="control")
    assert [(c.label, c.lines) for c in chunks] == [
        ("sequence", [4]), ("iteration", [5]), ("sequence", [6])]


def test_chunk_plan_counter_is_noncontiguous(grey, builtin):
    chunks = an.chunk(grey, builtin, "plan")
    counter = next(c for c in chunks if c.label == "Counter_Variable")
    assert counter.lines == [6, 12]


def test_chunk_plan_residue(grey, builtin):
    chunks = an.chunk(grey, builtin, "plan")
    residue = [c for c in chunks if c.label == "(residue)"]
    assert len(residue) == 1
    assert residue[0].lines == [9]        # the guard belongs to no single plan
    union = set()
    for c in chunks:
        union |= set(c.lines)
    assert union == chunk_universe(grey)


def test_chunk_plan_within_universe(corpus_sources, builtin):
    for src in corpus_sources.values():
        program = fe.parse(src)
        universe = chunk_universe(program)
        for c in an.chunk(program, builtin, "plan"):
            assert set(c.lines) <= universe


def test_plan_and_control_chunks_differ(grey, builtin):
    plan = {tuple(c.lines) for c in an.chunk(grey, builtin, "plan")
            if c.label != "(residue)"}
    control = {tuple(c.lines) for c in an.chunk(grey, builtin, "control")}
    jaccard = len(plan & control) / len(plan | control)
    assert jaccard < 1


def test_delocalization_grey_counter(grey, builtin):
    rec = an.recognize(grey, builtin)
    counter = next(i for i in rec.instances if i.schema == "Counter_Variable")
    assert an.delocalization(counter) == 6


def test_delocalization_adjacent_lines(builtin):
    program = fe.parse("PROGRAM P(input,output);\nVAR I: INTEGER;\nBEGIN\n"
                       "    I := 0;\n    I := I + 1;\nEND.")
    rec = an.recognize(program, builtin)
    counter = next(i for i in rec.instances if i.schema == "Counter_Variable")
    assert an.delocalization(counter) == 1


def test_delocalization_single_line_errors(builtin):
    program = fe.parse("PROGRAM P(input,output);\nVAR A: REAL;\nVAR S, N: INTEGER;\n"
                       "BEGIN\n    S := 4;\n    N := 2;\n    A := S / N;\nEND.")
    rec = an.recognize(program, builtin)
    quotient = next(i for i in rec.instances if i.schema == "Quotient_Variable")
    assert quotient.part_lines() == [7]
    assert an.delocalization(quotient) is None


def test_no_double_duty_needs_the_update_in_a_loop(builtin):
    # coherence flags both initialization candidates, but without a loop
    # the initialization serves no second purpose
    program = fe.parse("PROGRAM P(input,output);\nVAR N, Count: INTEGER;\nBEGIN\n"
                       "    READLN(N);\n    Count := N;\n    Count := Count + 1;\n"
                       "    WRITELN(Count)\nEND.")
    rec = an.recognize(program, builtin)
    assert sorted(e.line for e in rec.coherence.internal
                  if e.constraint == "initialization-filler") == [5, 6]
    report = an.planliness(program, builtin, recognition=rec)
    assert [v for v in report.violations if v.rule_id == "D2"] == []


def _count_indexes(monkeypatch):
    from plancog import activation as act
    built = []

    class Counted(act.ProgramIndex):
        def __init__(self, program):
            built.append(program)
            super().__init__(program)

    monkeypatch.setattr(an, "ProgramIndex", Counted)
    monkeypatch.setattr(act, "ProgramIndex", Counted)
    return built


def test_recognition_builds_one_program_index(grey, builtin, monkeypatch):
    built = _count_indexes(monkeypatch)
    rec = an.recognize(grey, builtin)
    an.planliness(grey, builtin, recognition=rec)
    assert built == [grey]


def test_fill_blank_builds_one_program_index(grey_src, builtin, monkeypatch):
    built = _count_indexes(monkeypatch)
    assert an.fill_blank(fe.blank_line(grey_src, 6), builtin, "plan")
    assert len(built) == 1


# --- goal trees, fill-blank and chunks off the corpus shapes ---------------------

def test_goal_tree_puts_plans_outside_the_average_under_the_root(grey_src, builtin):
    program = fe.parse(grey_src.replace("    WRITELN(Average);\n",
                                        "    WRITELN(Average);\n    WRITELN(Sum);\n"))
    rec = an.recognize(program, builtin)
    tree = an.goal_tree(rec.instances, builtin, rec.coherence)
    assert [c.goal for c in tree.children] == \
        ["enter-data", "compute-average", "output-average", "output-result"]
    assert [leaf.plan.label for leaf in tree.children[-1].leaves()] == ["Output_Value[sum]"]


@pytest.mark.parametrize("quotient, library", [
    # the total over a value that no plan counts
    ("Sum / Num", None),
    # a library whose quotient divides by a constant
    ("Sum / 2", ('"<v>:=<w>/<w>"', '"<v>:=<w>/<int>"')),
])
def test_goal_tree_averages_only_a_total_over_a_counter(grey_src, builtin, quotient, library):
    kb = builtin
    if library is not None:
        kb = kblib.load_kb(kblib.dump_kb(builtin).replace(*library))
    program = fe.parse(grey_src.replace("Sum / Count", quotient))
    rec = an.recognize(program, kb)
    assert any(i.schema == "Quotient_Variable" and i.complete for i in rec.instances)
    tree = an.goal_tree(rec.instances, kb, rec.coherence)
    assert tree.goal == "report-average"
    assert "compute-average" not in [c.goal for c in tree.children]


@pytest.mark.parametrize("step_budget", [-1, -5])
def test_a_negative_step_budget_is_an_analysis_error(grey, builtin, step_budget):
    with pytest.raises(AnalysisError, match=f"negative step budget: {step_budget}"):
        an.recognize(grey, builtin, step_budget=step_budget)
    assert an.recognize(grey, builtin, step_budget=0).instances


def test_unknown_strategy_and_chunk_mode_are_analysis_errors(grey, grey_src, builtin):
    with pytest.raises(AnalysisError, match="unknown strategy 'guess'"):
        an.fill_blank(fe.blank_line(grey_src, 6), builtin, "guess")
    with pytest.raises(AnalysisError, match="unknown chunk mode 'lines'"):
        an.chunk(grey, builtin, "lines")


ECHO_VARIABLE = """schema Echo_Variable kind variable
  desc "is doubled, read and written back"
  slot update mandatory
    filler "<v>:=<v>*2" proto
  slot read mandatory
    filler "readln(<v>)" proto
  slot output mandatory
    filler "writeln(<v>)" proto
  slot type mandatory
    filler "boolean"
rule E1 data: if update~"<v>:=<v>*2" then activate Echo_Variable
"""


def test_fill_blank_renders_every_filler_form(builtin):
    kb = kblib.load_kb(kblib.dump_kb(builtin) + ECHO_VARIABLE)
    source = ("PROGRAM P(input,output);\nVAR X, Y: INTEGER;\nBEGIN\n"
              "    Y := 1;\n    X := 1;\n    X := X * 2;\nEND.")
    candidates = an.fill_blank(fe.blank_line(source, 4), kb, "plan")
    assert [(c.rank, c.text) for c in candidates] == \
        [(1, "WRITELN(X)"), (2, "READLN(X)"), (3, "boolean")]


STEP_VARIABLE = """schema Step_Variable kind variable
  desc "steps by one from zero"
  slot initialization mandatory
    filler "<v>:=0" proto
  slot update mandatory
    filler "<v>:=<v>+1" proto
rule S1 data: if update~"<v>:=<v>+1" then activate Step_Variable
"""


def test_fill_blank_offers_a_filler_once(builtin):
    kb = kblib.load_kb(kblib.dump_kb(builtin) + STEP_VARIABLE)
    source = ("PROGRAM P(input,output);\nVAR X, Y: INTEGER;\nBEGIN\n    Y := 1;\n"
              "    REPEAT\n        X := X + 1;\n    UNTIL X > 3;\nEND.")
    # the counter and the step on X both lack `X := 0`
    partial = sorted(i.schema for i in an.recognize(fe.parse(source), kb).instances
                     if i.variable == "x" and not i.complete)
    assert partial == ["Counter_Variable", "Step_Variable"]
    candidates = an.fill_blank(fe.blank_line(source, 4), kb, "plan")
    assert [c.text for c in candidates].count("X := 0") == 1


TALLY_LOOP = """schema Tally_Loop kind control
  desc "a loop that counts"
  slot tally mandatory
  uses Counter_Variable as tally
rule U1 data: if schema=Counter_Variable, loop=while then activate Tally_Loop
"""


def test_a_complete_plan_without_part_lines_makes_no_chunk(search, builtin):
    kb = kblib.load_kb(kblib.dump_kb(builtin) + TALLY_LOOP)
    rec = an.recognize(search, kb)
    tally = next(i for i in rec.instances if i.schema == "Tally_Loop")
    assert tally.complete and not tally.bindings
    # anchored at its counter's initialization, the first line of its child
    assert tally.part_lines() == [] and tally.anchor_line == 6
    assert tally.label == "Tally_Loop[@6]"
    chunks = an.chunk(search, kb, recognition=rec)
    assert "Tally_Loop" not in [c.label for c in chunks]
    assert chunks == an.chunk(search, builtin)
