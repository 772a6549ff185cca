"""Instantiation against the per-plan oracle, and a library compiled once."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import benchmark_programs, per_plan_instantiate
from plancog import activation as act
from plancog import analysis as an
from plancog import frontend as fe
from plancog.cli import corpus
from plancog.kb import builtin_kb, dump_kb, load_kb
from test_frontend import _TYPED_NAMES, _program, _stmt

# a rule appended to the dumped library: Linear_Search on every WHILE loop,
# expecting a `loop` filling that none of the library's fillers is
_APPENDED_RULE = ('rule U1 data: if loop=while then activate Linear_Search, '
                  'bind loop="while <w> < <w>"\n')

# a loop plan whose test slot's fillers use <v>, the variable of its counter,
# and one whose mandatory test slot a counter fills when no test does
_VARIABLE_TEST = '''schema Bounded_Loop kind control
  desc "a loop whose exit test reads its counter"
  slot counter mandatory
  slot body mandatory
    filler "iteration"
  slot test
    filler "<v><<w>"
    filler "<v><<int>"
    filler "<v>=<int>"
  uses Counter_Variable as counter
schema Counted_Test_Loop kind control
  desc "a loop whose mandatory test a counter may fill in place of a test"
  slot test mandatory
    filler "<w>=<int>"
  slot body
    filler "iteration"
  uses Counter_Variable as test
rule U2 data: if schema=Counter_Variable, loop=while then activate Bounded_Loop
rule U3 data: if schema=Counter_Variable, loop=repeat then activate Bounded_Loop
rule U6 data: if schema=Counter_Variable, loop=while then activate Counted_Test_Loop
'''

# a loop plan replaced by its controlled-by child, whose body and test slots
# have other fillers than the root's
_SWAPPED = '''schema Sum_Loop kind control
  desc "adds values into a total inside a loop"
  slot total mandatory
  slot body mandatory
    filler "iteration"
  slot test
    filler "<w>=<int>"
    filler "<w><<int>"
  uses Running_Total_Variable as total
schema Total_Tested_Sum_Loop kind control
  desc "a sum loop whose exit test reads the total"
  slot total mandatory
  slot body mandatory
    filler "repeat"
  slot test mandatory
    filler "<w>=<int>"
  kindof Sum_Loop
  controlled-by total
  uses Running_Total_Variable as total
rule U4 data: if schema=Running_Total_Variable, loop=while then activate Sum_Loop
rule U5 data: if schema=Running_Total_Variable, loop=repeat then activate Sum_Loop
'''

# a loop plan whose mandatory test slot's filler fits no exit test of the
# programs below, followed by an optional slot of the same name whose
# fillers fit most; a library that loads repeats no slot name, so the
# second is renamed in memory
_RETESTED = '''schema Retested_Loop kind control
  desc "a loop whose mandatory test only a later slot of that name fills"
  slot test mandatory
    filler "<w>>=<int>"
  slot body mandatory
    filler "iteration"
  slot retest
    filler "<w>=<int>"
    filler "<w><<int>"
rule U7 data: if loop=while then activate Retested_Loop
rule U8 data: if loop=repeat then activate Retested_Loop
'''

# a loop plan whose mandatory uses slot also has a filler: a read variable
# working in the loop fills its body, and so does a REPEAT loop
_READ_BODY = '''schema Read_Loop kind control
  desc "a loop that reads its values, or any REPEAT loop"
  slot body mandatory
    filler "repeat"
  slot test
    filler "<w>=<int>"
  uses Read_Variable as body
rule U9 data: if loop=while then activate Read_Loop
rule U10 data: if loop=repeat then activate Read_Loop
'''


def _slot_renamed(kb, schema, old, new):
    """`kb` with the slot `old` of `schema` named `new`."""
    return dataclasses.replace(kb, schemas=tuple(
        dataclasses.replace(s, slots=tuple(dataclasses.replace(slot, name=new)
                                           if slot.name == old else slot
                                           for slot in s.slots))
        if s.name == schema else s for s in kb.schemas))


_LIBRARY = dump_kb(builtin_kb())
_KBS = {
    "builtin": builtin_kb(),
    "appended-rule": load_kb(_LIBRARY + _APPENDED_RULE),
    "variable-test": load_kb(_LIBRARY + _VARIABLE_TEST),
    "swapped": load_kb(_LIBRARY + _SWAPPED),
    "repeated-slot": _slot_renamed(load_kb(_LIBRARY + _RETESTED),
                                   "Retested_Loop", "retest", "test"),
    "filled-uses": load_kb(_LIBRARY + _READ_BODY),
}

# the total is tested in a WHILE loop, so Sum_Loop gives way to
# Total_Tested_Sum_Loop, whose body and test fillers this loop does not match
_TOTAL_TESTED = """PROGRAM Upto(input, output);
VAR Total, Num: INTEGER;
BEGIN
    Total := 0;
    WHILE Total < 100 DO
    BEGIN
        READLN(Num);
        Total := Total + Num
    END;
    WRITELN(Total)
END.
"""

_TALLY = """PROGRAM Tally(input, output);
VAR K, Num: INTEGER;
BEGIN
    K := 0;
    WHILE K < 10 DO
    BEGIN
        READLN(Num);
        K := K + 1
    END
END.
"""

# the first initialization of S does not reach its update
_REINITIALIZED = """PROGRAM Again(input, output);
VAR S, N: INTEGER;
BEGIN
    S := 0;
    S := 5;
    REPEAT
        READLN(N);
        S := S + N
    UNTIL N = 0;
    WRITELN(S)
END.
"""

_EVEN = """PROGRAM Even(input, output);
VAR I: INTEGER;
BEGIN
    I := 0;
    REPEAT
        I := I + 2
    UNTIL I = 10
END.
"""

_PROGRAMS = [_TOTAL_TESTED, _TALLY, _REINITIALIZED, _EVEN]


def _instance_facts(inst):
    return (inst.schema, inst.kind, inst.variable, inst.mandatory, inst.status,
            inst.part_lines(),
            [(slot, b.line, b.text, b.category) for slot, b in inst.bindings.items()],
            [(slot, child.label) for slot, child in inst.children])


def _facts(instantiate, program, kb):
    """Instances, expectations before verification, and the coherence
    report of one recognition bound by `instantiate`."""
    index = act.ProgramIndex(program)
    activations = act.activate(kb, act.extract_beacons(index))
    instances, expectations = instantiate(kb, index, activations)
    return ([_instance_facts(i) for i in instances],
            [(e.instance.label, e.slot, e.pattern, e.state, e.resolved_line)
             for e in expectations],
            act.evaluate_coherence(instances, index, kb, step_budget=2000))


def _assert_binds_like_per_plan(program):
    for name, kb in _KBS.items():
        assert _facts(act.instantiate, program, kb) == \
            _facts(per_plan_instantiate, program, kb), name


def test_instantiate_matches_per_plan_oracle_on_corpus():
    for source in [source for _, source in corpus()] + _PROGRAMS:
        _assert_binds_like_per_plan(fe.parse(source))


def test_swapped_child_slots_are_matched_again_by_coherence():
    # the oracle comparison above is only as strong as the cases it meets:
    # on this program the child's own fillers reject the root's bindings
    program = fe.parse(_TOTAL_TESTED)
    _, _, report = _facts(act.instantiate, program, _KBS["swapped"])
    assert [(e.slot, e.ok) for e in report.internal
            if e.instance == "Total_Tested_Sum_Loop[@5]"] == [("body", False), ("test", False)]


def test_variable_test_slot_binds_the_counter_test():
    instances, _, _ = _facts(act.instantiate, fe.parse(_TALLY), _KBS["variable-test"])
    assert [(i[2], i[6]) for i in instances if i[0] == "Bounded_Loop"] == [
        ("k", [("body", 5, "while", "loop"), ("test", 5, "K<10", "cond")])]


def test_a_repeated_mandatory_slot_name_is_filled_by_its_later_slot():
    # the oracle comparison covers this only if the later slot does bind
    instances, _, _ = _facts(act.instantiate, fe.parse(_TALLY), _KBS["repeated-slot"])
    assert [(i[4], i[6]) for i in instances if i[0] == "Retested_Loop"] == [
        ("complete", [("body", 5, "while", "loop"), ("test", 5, "K<10", "cond")])]


def test_a_mandatory_uses_slot_is_filled_by_a_child_or_its_filler():
    # grey's REPEAT body binds by the filler (a read variable also works in
    # it); _TALLY's WHILE loop reads Num, a read variable, and binds none
    for source, body, child in ((corpus()[0][1], [("body", 7, "repeat", "loop")],
                                 [("body", "Read_Variable[num]")]),
                                (_TALLY, [], [("body", "Read_Variable[num]")])):
        instances, _, _ = _facts(act.instantiate, fe.parse(source), _KBS["filled-uses"])
        assert [(i[4], i[6][:1], i[7]) for i in instances if i[0] == "Read_Loop"] == [
            ("complete", body, child)]


@settings(max_examples=60, deadline=None)
@given(st.lists(_stmt(2, _TYPED_NAMES), min_size=1, max_size=6))
def test_instantiate_matches_per_plan_oracle_on_generated_programs(stmts):
    _assert_binds_like_per_plan(fe.parse(_program(stmts)))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_instantiate_matches_per_plan_oracle_on_benchmark_programs(seed):
    # 4 to 24 blocks, each program larger than the last
    pg = benchmark_programs()
    program = fe.parse(pg.scale_program(random.Random(seed), 4 * seed, f"t{seed}").source)
    _assert_binds_like_per_plan(program)


# --- a library is compiled once ------------------------------------------------------

def test_kb_changes_between_recognitions_are_bound():
    # a changed library is a new one, loaded and compiled on its own: the
    # built-in library, then one with a rule added, then one with a filler
    # added to that
    program = fe.parse(_EVEN)
    with_rule = _LIBRARY + ('rule U1 data: if update~"<v>:=<v>+<int>" '
                            'then activate Running_Total_Variable\n')
    # the first prototypical `<v>:=<v>+1` filler is Counter_Variable's update
    with_filler = with_rule.replace('    filler "<v>:=<v>+1" proto\n',
                                    '    filler "<v>:=<v>+1" proto\n    filler "<v>:=<v>+2"\n', 1)

    def plans(kb):
        return {(i.schema, i.variable): sorted(i.bindings)
                for i in an.recognize(program, kb).instances}

    assert plans(builtin_kb()) == {("Counter_Variable", "i"): ["context", "initialization",
                                                               "name", "type"]}
    assert plans(load_kb(with_rule))[("Running_Total_Variable", "i")] == [
        "context", "initialization", "name", "type"]
    assert plans(load_kb(with_filler)) == {("Counter_Variable", "i"): [
        "context", "initialization", "name", "type", "update"]}
