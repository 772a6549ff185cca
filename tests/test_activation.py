import random

from plancog import activation as act
from plancog import frontend as fe
from plancog import relations as rel
from plancog.kb import Cue, dump_kb, load_kb, pattern_matches


def _recognize(program, kb):
    cues = act.extract_beacons(program, kb)
    activations = act.activate(kb, cues)
    defuse = rel.def_use(program, rel.build_cfg(program))
    return act.instantiate(kb, program, activations, defuse)


def _instance(instances, schema, variable=None):
    found = [i for i in instances if i.schema == schema
             and (variable is None or i.variable == variable)]
    assert len(found) == 1, f"{schema}: {[i.label for i in found]}"
    return found[0]


# --- beacons -----------------------------------------------------------------

def test_grey_beacons(grey, builtin):
    cues = act.extract_beacons(grey, builtin)
    assert any(c.kind == "init" and c.payload == "Count:=0" and c.line == 6
               for c in cues)
    assert any(c.kind == "loop" and c.payload == "repeat" for c in cues)
    assert any(c.kind == "loopform" and c.payload == "repeat Num=99999"
               for c in cues)


def test_declaration_beacons(builtin):
    program = fe.parse("PROGRAM P(input,output); VAR I: INTEGER; BEGIN I := 1; END.")
    cues = act.extract_beacons(program, builtin)
    assert any(c.kind == "name" and c.payload == "I" for c in cues)
    assert any(c.kind == "type" and c.payload == "integer" for c in cues)


def test_comment_beacon(builtin):
    program = fe.parse("PROGRAM P(input,output); VAR S: INTEGER;"
                       " BEGIN {running total} S := 0; END.")
    cues = act.extract_beacons(program, builtin)
    assert any(c.kind == "comment" and c.payload == "running total" for c in cues)


def test_beacon_sources_exist(corpus_sources, builtin):
    for src in corpus_sources.values():
        program = fe.parse(src)
        lines = {t.line for t in fe.tokenize(src)}
        for cue in act.extract_beacons(program, builtin):
            assert cue.line in lines


# --- activation ---------------------------------------------------------------

def test_r1_counter_from_name_and_type(builtin):
    program = fe.parse("PROGRAM P(input,output); VAR I: INTEGER; BEGIN I := 1; END.")
    activations = act.activate(builtin, act.extract_beacons(program, builtin))
    counter = next(a for a in activations if a.schema == "Counter_Variable")
    assert "R1" in counter.rule_ids
    assert counter.direction == "data-driven"
    assert counter.cues


def test_r3_linear_search_needs_counter_and_while(search, builtin):
    activations = act.activate(builtin, act.extract_beacons(search, builtin))
    names = {a.schema for a in activations}
    assert "Linear_Search" in names
    search_act = next(a for a in activations if a.schema == "Linear_Search")
    assert "R3" in search_act.rule_ids


def test_r1_requires_same_variable(builtin):
    # integer type on one variable, counter-ish name on another: R1 must not fire
    program = fe.parse("PROGRAM P(input,output);\nVAR I: REAL;\n    Sum: INTEGER;\n"
                       "BEGIN\n    Sum := 0;\nEND.")
    activations = act.activate(builtin, act.extract_beacons(program, builtin))
    for a in activations:
        assert "R1" not in a.rule_ids


def test_empty_cues_no_activations(builtin):
    assert act.activate(builtin, []) == []


def test_fixpoint_escalates_to_superstructures(grey, builtin):
    activations = act.activate(builtin, act.extract_beacons(grey, builtin))
    names = {a.schema for a in activations}
    assert "Running_Total_Loop" in names                       # via schema= cue
    assert "New_Value_Controlled_Running_Total_Loop" in names  # downward expansion
    loop = next(a for a in activations
                if a.schema == "New_Value_Controlled_Running_Total_Loop")
    assert loop.direction == "conceptually-driven"


def test_activation_order_independence(corpus_sources, builtin):
    rng = random.Random(7)
    for src in corpus_sources.values():
        program = fe.parse(src)
        cues = act.extract_beacons(program, builtin)
        baseline = {a.schema for a in act.activate(builtin, cues)}
        for _ in range(5):
            shuffled = cues[:]
            rng.shuffle(shuffled)
            rules = builtin.rules[:]
            rng.shuffle(rules)
            kb2 = type(builtin)(builtin.schemas, builtin.links,
                                builtin.discourse_rules, rules)
            assert {a.schema for a in act.activate(kb2, shuffled)} == baseline


def test_data_driven_activations_carry_cues(corpus_sources, builtin):
    for src in corpus_sources.values():
        program = fe.parse(src)
        for a in act.activate(builtin, act.extract_beacons(program, builtin)):
            if a.direction == "data-driven":
                assert a.cues
                assert a.rule_ids


def test_activation_monotonicity(grey, builtin):
    cues = act.extract_beacons(grey, builtin)
    small = {a.schema for a in act.activate(builtin, cues[: len(cues) // 2])}
    full = {a.schema for a in act.activate(builtin, cues)}
    assert small <= full
    extended = cues + [Cue("comment", "counter", 1)]
    assert full <= {a.schema for a in act.activate(builtin, extended)}


# --- instantiation --------------------------------------------------------------

def test_grey_counter_instance(grey, builtin):
    instances, _ = _recognize(grey, builtin)
    counter = _instance(instances, "Counter_Variable")
    assert counter.variable == "count"
    assert counter.bindings["initialization"].line == 6
    assert counter.bindings["update"].line == 12
    assert counter.bindings["context"].line == 7
    assert counter.bindings["context"].text == "repeat"
    assert counter.complete


def test_grey_new_value_controlled_loop(grey, builtin):
    instances, _ = _recognize(grey, builtin)
    loop = _instance(instances, "New_Value_Controlled_Running_Total_Loop")
    assert loop.complete
    children = dict((slot, child.schema) for slot, child in loop.children)
    assert children["New_Value"] == "Read_Variable"
    assert children["Running_total"] == "Running_Total_Variable"
    assert children["Counter"] == "Counter_Variable"
    assert loop.bindings["test"].line == 14


def test_grey_instance_census(grey, builtin):
    # exactly one complete Counter, Running_Total, Read and loop instance
    instances, _ = _recognize(grey, builtin)
    complete = [(i.schema, i.status) for i in instances]
    assert complete.count(("Counter_Variable", "complete")) == 1
    assert complete.count(("Running_Total_Variable", "complete")) == 1
    assert sum(1 for i in instances if i.schema == "Read_Variable") == 1
    assert complete.count(("New_Value_Controlled_Running_Total_Loop",
                           "complete")) == 1


def test_partial_counter_with_open_update_expectation(builtin):
    program = fe.parse("PROGRAM P(input,output); VAR I: INTEGER; BEGIN I := 1; END.")
    instances, expectations = _recognize(program, builtin)
    counter = _instance(instances, "Counter_Variable")
    assert counter.status == "partial"
    assert "update" not in counter.bindings
    exp = next(e for e in expectations
               if e.instance is counter and e.slot == "update")
    assert exp.pattern == "I:=I+1"     # inferred by R2
    verified = act.verify_expectations(expectations, program)
    assert next(e for e in verified if e.slot == "update").state == act.OPEN


def test_update_expectation_verified(search, builtin):
    instances, expectations = _recognize(search, builtin)
    expectations = act.verify_expectations(expectations, search)
    exp = next(e for e in expectations
               if e.instance.schema == "Counter_Variable" and e.slot == "update")
    assert exp.state == act.VERIFIED
    assert exp.resolved_line == 9


def test_flag_while_expectation_violated(flag, builtin):
    instances, expectations = _recognize(flag, builtin)
    expectations = act.verify_expectations(expectations, flag)
    exp = next(e for e in expectations
               if e.instance.schema == "Flag_Variable" and e.slot == "context")
    assert exp.pattern == "while"
    assert exp.state == act.VIOLATED
    assert exp.resolved_line == 6          # the REPEAT line


def test_binding_soundness(corpus_sources, builtin):
    # every binding's matched text matches some filler pattern of its slot
    for src in corpus_sources.values():
        program = fe.parse(src)
        instances, _ = _recognize(program, builtin)
        for inst in instances:
            schema = builtin.schema(inst.schema)
            for slot_name, binding in inst.bindings.items():
                slot = schema.slot(slot_name)
                assert any(pattern_matches(f.pattern, binding.text,
                                           var=inst.variable)
                           for f in slot.fillers), (inst.label, slot_name)


def test_expectation_resolution_is_conservative(corpus_sources, builtin):
    for src in corpus_sources.values():
        program = fe.parse(src)
        instances, expectations = _recognize(program, builtin)
        for exp in act.verify_expectations(expectations, program):
            if exp.state == act.VERIFIED:
                index = act._Index(program)
                texts = [t for _, line, t, _ in
                         act._slot_candidates(index, exp.instance, exp.slot)
                         if line == exp.resolved_line]
                assert any(pattern_matches(exp.pattern, t,
                                           var=exp.instance.variable)
                           for t in texts)


# --- coherence --------------------------------------------------------------------

def test_grey_counter_total_interaction_is_simulated(grey, builtin):
    instances, _ = _recognize(grey, builtin)
    defuse = rel.def_use(grey, rel.build_cfg(grey))
    report = act.evaluate_coherence(instances, defuse, grey, builtin)
    entry = next(e for e in report.external
                 if set(e.instances) == {"Counter_Variable[count]",
                                         "Running_Total_Variable[sum]"})
    assert entry.evidence == "simulated"
    assert entry.inputs == [1, 2, 3, 99999]
    assert report.incoherent_instances() == set()


def test_orange_init_mismatch_is_internal_incoherence(orange, builtin):
    instances, _ = _recognize(orange, builtin)
    defuse = rel.def_use(orange, rel.build_cfg(orange))
    report = act.evaluate_coherence(instances, defuse, orange, builtin)
    failures = [e for e in report.internal if not e.ok]
    assert {(e.instance, e.slot, e.line) for e in failures} == {
        ("Counter_Variable[count]", "initialization", 6),
        ("Running_Total_Variable[sum]", "initialization", 5),
    }


def test_flag_instance_is_internally_coherent(flag, builtin):
    # a flag's update writes a constant; init consistency must not demand a
    # def-use chain into it
    instances, _ = _recognize(flag, builtin)
    defuse = rel.def_use(flag, rel.build_cfg(flag))
    report = act.evaluate_coherence(instances, defuse, flag, builtin)
    assert report.incoherent_instances() == set()


def test_isolated_plan_has_no_external_entries(builtin):
    program = fe.parse("PROGRAM P(input,output); VAR I: INTEGER;"
                       " BEGIN I := 0; I := I + 1; END.")
    instances, _ = _recognize(program, builtin)
    defuse = rel.def_use(program, rel.build_cfg(program))
    report = act.evaluate_coherence(instances, defuse, program, builtin)
    assert report.external == []


def test_simulated_entries_name_their_inputs(corpus_sources, builtin):
    for src in corpus_sources.values():
        program = fe.parse(src)
        instances, _ = _recognize(program, builtin)
        defuse = rel.def_use(program, rel.build_cfg(program))
        report = act.evaluate_coherence(instances, defuse, program, builtin)
        for entry in report.external:
            if entry.evidence == "simulated":
                assert entry.inputs


# --- plans from a user library ---------------------------------------------------

COUNTING_LOOP = """schema Counting_Loop kind control
  desc "counts the passes through a loop"
  slot body mandatory
    filler "while"
  slot tally mandatory
  uses Counter_Variable as tally
rule U1 data: if schema=Counter_Variable, loop=while then activate Counting_Loop
"""


def test_user_loop_plan_binds_its_uses_slot(search, builtin):
    kb = load_kb(dump_kb(builtin) + COUNTING_LOOP)
    instances, _ = _recognize(search, kb)
    loop = _instance(instances, "Counting_Loop")
    assert loop.complete
    assert loop.bindings["body"].line == 7
    assert [(slot, child.schema, child.variable) for slot, child in loop.children] == \
        [("tally", "Counter_Variable", "i")]
