import dataclasses
import gc
import random
import re
import weakref

from hypothesis import given, settings, strategies as st

from oracles import all_pairs_interactions, benchmark_programs, per_variable_pattern_matches
from plancog import activation as act
from plancog import analysis as an
from plancog import frontend as fe
from plancog import interpreter as run
from plancog import kb as kblib
from plancog.cli import corpus
from plancog.kb import Cue, dump_kb, load_kb, pattern_matches


def _recognize(program, kb):
    index = act.ProgramIndex(program)
    activations = act.activate(kb, act.extract_beacons(index))
    return act.instantiate(kb, index, activations)


def _instance(instances, schema, variable=None):
    found = [i for i in instances if i.schema == schema
             and (variable is None or i.variable == variable)]
    assert len(found) == 1, f"{schema}: {[i.label for i in found]}"
    return found[0]


# --- beacons -----------------------------------------------------------------

def test_grey_beacons(grey):
    cues = act.extract_beacons(act.ProgramIndex(grey))
    assert any(c.kind == "init" and c.payload == "Count:=0" and c.line == 6
               for c in cues)
    assert any(c.kind == "loop" and c.payload == "repeat" for c in cues)
    assert any(c.kind == "loopform" and c.payload == "repeat Num=99999"
               for c in cues)


def test_declaration_beacons():
    program = fe.parse("PROGRAM P(input,output); VAR I: INTEGER; BEGIN I := 1; END.")
    cues = act.extract_beacons(act.ProgramIndex(program))
    assert any(c.kind == "name" and c.payload == "I" for c in cues)
    assert any(c.kind == "type" and c.payload == "integer" for c in cues)


def test_comment_beacon():
    program = fe.parse("PROGRAM P(input,output); VAR S: INTEGER;"
                       " BEGIN {running total} S := 0; END.")
    cues = act.extract_beacons(act.ProgramIndex(program))
    assert any(c.kind == "comment" and c.payload == "running total" for c in cues)


def test_beacon_sources_exist(corpus_sources):
    for src in corpus_sources.values():
        program = fe.parse(src)
        lines = {t.line for t in fe.tokenize(src)}
        for cue in act.extract_beacons(act.ProgramIndex(program)):
            assert cue.line in lines


# --- activation ---------------------------------------------------------------

def test_r1_counter_from_name_and_type(builtin):
    program = fe.parse("PROGRAM P(input,output); VAR I: INTEGER; BEGIN I := 1; END.")
    activations = act.activate(builtin, act.extract_beacons(act.ProgramIndex(program)))
    counter = next(a for a in activations if a.schema == "Counter_Variable")
    assert "R1" in counter.rule_ids
    assert counter.direction == "data-driven"


def test_r3_linear_search_needs_counter_and_while(search, builtin):
    activations = act.activate(builtin, act.extract_beacons(act.ProgramIndex(search)))
    names = {a.schema for a in activations}
    assert "Linear_Search" in names
    search_act = next(a for a in activations if a.schema == "Linear_Search")
    assert "R3" in search_act.rule_ids


def test_r1_requires_same_variable(builtin):
    # integer type on one variable, counter-ish name on another: R1 must not fire
    program = fe.parse("PROGRAM P(input,output);\nVAR I: REAL;\n    Sum: INTEGER;\n"
                       "BEGIN\n    Sum := 0;\nEND.")
    activations = act.activate(builtin, act.extract_beacons(act.ProgramIndex(program)))
    for a in activations:
        assert "R1" not in a.rule_ids


def test_empty_cues_no_activations(builtin):
    assert act.activate(builtin, []) == []


def test_fixpoint_escalates_to_superstructures(grey, builtin):
    activations = act.activate(builtin, act.extract_beacons(act.ProgramIndex(grey)))
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
        cues = act.extract_beacons(act.ProgramIndex(program))
        baseline = {a.schema for a in act.activate(builtin, cues)}
        for _ in range(5):
            shuffled = cues[:]
            rng.shuffle(shuffled)
            rules = list(builtin.rules)
            rng.shuffle(rules)
            kb2 = type(builtin)(builtin.schemas, builtin.discourse_rules, tuple(rules))
            assert {a.schema for a in act.activate(kb2, shuffled)} == baseline


def test_data_driven_activations_carry_cues(corpus_sources, builtin):
    # the supporting cues live on the firings of the rules that activated
    # a schema, not on its activation
    for src in corpus_sources.values():
        program = fe.parse(src)
        activations, firings = act.activate_with_trace(
            builtin, act.extract_beacons(act.ProgramIndex(program)))
        for a in activations:
            fired = [f for f in firings if f.schema == a.schema and f.rule_id != "-"]
            assert a.rule_ids == sorted(f.rule_id for f in fired)
            if a.direction == "data-driven":
                assert any(f.cues for f in fired)


def test_activation_monotonicity(grey, builtin):
    cues = act.extract_beacons(act.ProgramIndex(grey))
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
    verified = act.verify_expectations(expectations, act.ProgramIndex(program))
    assert next(e for e in verified if e.slot == "update").state == act.OPEN


def test_update_expectation_verified(search, builtin):
    instances, expectations = _recognize(search, builtin)
    expectations = act.verify_expectations(expectations, act.ProgramIndex(search))
    exp = next(e for e in expectations
               if e.instance.schema == "Counter_Variable" and e.slot == "update")
    assert exp.state == act.VERIFIED
    assert exp.resolved_line == 9


def test_flag_while_expectation_violated(flag, builtin):
    instances, expectations = _recognize(flag, builtin)
    expectations = act.verify_expectations(expectations, act.ProgramIndex(flag))
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
        for exp in act.verify_expectations(expectations, act.ProgramIndex(program)):
            if exp.state == act.VERIFIED:
                index = act.ProgramIndex(program)
                texts = [t for _, line, t, _ in
                         act._slot_candidates(index, exp.instance, exp.slot)
                         if line == exp.resolved_line]
                assert any(pattern_matches(exp.pattern, t,
                                           var=exp.instance.variable)
                           for t in texts)


def test_resolved_expectations_are_kept(flag, builtin):
    index = act.ProgramIndex(flag)
    _, expectations = _recognize(flag, builtin)
    first = [(e.state, e.resolved_line) for e in act.verify_expectations(expectations, index)]
    assert (act.VIOLATED, 6) in first
    again = [(e.state, e.resolved_line) for e in act.verify_expectations(expectations, index)]
    assert again == first


# --- coherence --------------------------------------------------------------------

def test_grey_counter_total_interaction_is_simulated(grey, builtin):
    instances, _ = _recognize(grey, builtin)
    report = act.evaluate_coherence(instances, act.ProgramIndex(grey), builtin)
    entry = next(e for e in report.external
                 if set(e.instances) == {"Counter_Variable[count]",
                                         "Running_Total_Variable[sum]"})
    assert entry.evidence == "simulated"
    assert entry.inputs == [1, 2, 3, 99999]
    assert report.incoherent_instances() == set()


def test_orange_init_mismatch_is_internal_incoherence(orange, builtin):
    instances, _ = _recognize(orange, builtin)
    report = act.evaluate_coherence(instances, act.ProgramIndex(orange), builtin)
    failures = [e for e in report.internal if not e.ok]
    assert {(e.instance, e.slot, e.line) for e in failures} == {
        ("Counter_Variable[count]", "initialization", 6),
        ("Running_Total_Variable[sum]", "initialization", 5),
    }


def test_flag_instance_is_internally_coherent(flag, builtin):
    # a flag's update writes a constant; init consistency must not demand a
    # def-use chain into it
    instances, _ = _recognize(flag, builtin)
    report = act.evaluate_coherence(instances, act.ProgramIndex(flag), builtin)
    assert report.incoherent_instances() == set()


def test_isolated_plan_has_no_external_entries(builtin):
    program = fe.parse("PROGRAM P(input,output); VAR I: INTEGER;"
                       " BEGIN I := 0; I := I + 1; END.")
    instances, _ = _recognize(program, builtin)
    report = act.evaluate_coherence(instances, act.ProgramIndex(program), builtin)
    assert report.external == []


def test_coherence_checks_no_binding_of_a_schema_the_library_lacks(grey, builtin):
    index = act.ProgramIndex(grey)
    instances, _ = _recognize(grey, builtin)
    other = load_kb('schema Other kind problem\n  desc "another library"\n')
    report = act.evaluate_coherence(instances, index, other)
    assert report.internal == []
    assert report.external == act.evaluate_coherence(instances, index, builtin).external


def test_a_rule_that_activates_no_schema_leaves_recognition_as_it_was(grey, builtin):
    # an unvalidated library: R12 activates a name that no schema has, which
    # expansion passes by
    kb = dataclasses.replace(builtin, rules=tuple(
        dataclasses.replace(r, activates="Missing") if r.id == "R12" else r
        for r in builtin.rules))
    instances, _ = _recognize(grey, kb)
    assert [(i.schema, i.variable) for i in instances] == [
        (i.schema, i.variable) for i in _recognize(grey, builtin)[0]]
    assert len(instances) == 6


def test_a_root_that_uses_a_missing_schema_binds_as_it_was(grey, orange, builtin):
    # an unvalidated library: Running_Total_Loop uses a schema it lacks,
    # which its loop plans pass by
    kb = dataclasses.replace(builtin, schemas=tuple(
        dataclasses.replace(s, uses=(*s.uses, ("Missing", "body")))
        if s.name == "Running_Total_Loop" else s
        for s in builtin.schemas))

    def facts(instances):
        return [(i.label, i.status, i.part_lines(),
                 [(slot, child.label) for slot, child in i.children]) for i in instances]

    for program in (grey, orange):
        assert facts(_recognize(program, kb)[0]) == facts(_recognize(program, builtin)[0])


# a library whose Counter_Variable is a loop plan: a simulated pair of two
# plans without a variable reports the outputs
LOOP_COUNTER = """schema Counter_Variable kind control
  desc "a loop taken as a counter"
  slot body mandatory
    filler "repeat"
schema Echo_Loop kind control
  desc "a loop that echoes"
  slot body mandatory
    filler "repeat"
rule L1 data: if loop=repeat then activate Counter_Variable
rule L2 data: if loop=repeat then activate Echo_Loop
"""


def test_a_simulated_pair_without_variables_reports_the_outputs(builtin):
    program = fe.parse("PROGRAM P(input,output);\nVAR N: INTEGER;\nBEGIN\n"
                       "    REPEAT\n        READLN(N);\n        WRITELN(N);\n"
                       "    UNTIL N = 99999;\nEND.")
    kb = load_kb(LOOP_COUNTER)
    instances, _ = _recognize(program, kb)
    report = act.evaluate_coherence(instances, act.ProgramIndex(program), kb)
    assert [(e.instances, e.description, e.evidence) for e in report.external] == [
        (("Counter_Variable[@4]", "Echo_Loop[@4]"),
         "parts run in the same loop; outputs [1, 2, 3, 99999]", "simulated")]


def test_simulated_entries_name_their_inputs(corpus_sources, builtin):
    for src in corpus_sources.values():
        program = fe.parse(src)
        instances, _ = _recognize(program, builtin)
        report = act.evaluate_coherence(instances, act.ProgramIndex(program), builtin)
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


# --- indexed coherence pairing against the all-pairs reference -------------------

def _pairs_and_reference(program, kb):
    rec = an.recognize(program, kb)
    loops = {id(inst): act._instance_loops(inst) for inst in rec.instances}
    return (act._interaction_pairs(rec.instances, rec.index.defuse, loops),
            all_pairs_interactions(rec.instances, rec.index.defuse, loops))


# Num is read before the loop whose total it feeds, so the later instance
# (Read_Variable, line 5) reaches a part of the earlier one (line 7)
READ_BEFORE_LOOP = """PROGRAM P(input, output);
VAR Sum, Num, I: INTEGER;
BEGIN
    Sum := 0;
    READLN(Num);
    FOR I := 1 TO 3 DO
        Sum := Sum + Num;
    WRITELN(Sum)
END.
"""


def test_interaction_pairs_match_all_pairs_on_corpus(corpus_sources, builtin):
    for src in corpus_sources.values():
        pairs, reference = _pairs_and_reference(fe.parse(src), builtin)
        assert pairs == reference


def test_interaction_pairs_find_a_later_instance_reaching_an_earlier_one(builtin):
    pairs, reference = _pairs_and_reference(fe.parse(READ_BEFORE_LOOP), builtin)
    assert pairs == reference
    assert [(l.label, r.label) for l, r, how in pairs if how == "linked by a def-use chain"] == [
        ("Running_Total_Variable[sum]", "Read_Variable[num]"),
        ("Running_Total_Variable[sum]", "Output_Value[sum]")]


def _blocks_program(parts):
    """One program running corpus bodies in turn. A part is (file, suffix,
    wrapped): the suffix renames the file's variables, so parts with the
    same suffix share them, and a wrapped part runs inside a FOR loop."""
    sources = dict(corpus())
    decls = {"Outer": "integer"}
    body = []
    for file, suffix, wrapped in parts:
        src = sources[file]
        declarations = fe.parse(src).declarations
        names = [d.name for d in declarations]
        decls.update({d.name + suffix: d.type for d in declarations})
        text = src[src.index("BEGIN") + len("BEGIN"):src.rindex("END.")]
        text = re.sub(r"\b(%s)\b" % "|".join(names), lambda m: m.group(0) + suffix, text)
        text = text.strip().rstrip(";")
        body.append(f"FOR Outer := 1 TO 2 DO BEGIN\n{text}\nEND" if wrapped else text)
    return ("PROGRAM Blocks(input, output);\nVAR "
            + "; ".join(f"{name}: {type_}" for name, type_ in decls.items())
            + ";\nBEGIN\n" + ";\n".join(body) + "\nEND.\n")


_PARTS = st.lists(st.tuples(st.sampled_from(["grey.mp", "orange.mp", "search.mp", "flag.mp"]),
                            st.sampled_from(["", "1", "2"]), st.booleans()),
                  min_size=2, max_size=5)


@settings(max_examples=40, deadline=None)
@given(_PARTS)
def test_interaction_pairs_match_all_pairs_on_multi_loop_programs(builtin, parts):
    pairs, reference = _pairs_and_reference(fe.parse(_blocks_program(parts)), builtin)
    assert pairs == reference


# --- work and memory of instantiation ----------------------------------------------

def test_variable_plans_are_bound_only_where_a_code_slot_can_fill(grey, builtin,
                                                                 monkeypatch):
    # one call per (schema, variable) binding attempt
    calls = []
    bind = act._bind_variable_plan

    def counted(schema, var, index, first):
        calls.append((schema.name, var))
        return bind(schema, var, index, first)

    monkeypatch.setattr(act, "_bind_variable_plan", counted)
    rec = an.recognize(grey, builtin)
    index = act.ProgramIndex(grey)
    active = {a.schema for a in rec.activations}
    expected, pairs = [], 0
    for schema in builtin.schemas:
        code_slots = [s for s in schema.slots if s.name in act._CODE_SLOTS]
        if schema.name not in active or schema.kind not in ("variable", "control") \
                or not code_slots:
            continue
        for var in sorted(index.decls):
            pairs += 1
            probe = act.PlanInstance(schema.name, schema.kind, var)
            if any(per_variable_pattern_matches(f.pattern, text, var)
                   for slot in code_slots
                   for _, _, text, _ in act._slot_candidates(index, probe, slot.name)
                   for f in slot.fillers):
                expected.append((schema.name, var))
    assert calls == expected
    assert len(calls) < pairs


def _module_cache_sizes():
    """Entries held by each module-level cache or container of kb,
    activation and interpreter."""
    sizes = {}
    for module in (kblib, act, run):
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                sizes[module.__name__, name] = value.cache_info().currsize
            elif isinstance(value, (dict, list, set)):
                sizes[module.__name__, name] = len(value)
    return sizes


def test_a_library_is_compiled_once(monkeypatch, grey):
    made = {"binders": 0, "matchers": 0}
    slot_matcher = act._slot_matcher

    class Counted(act._Binder):
        def __init__(self, schema):
            made["binders"] += 1
            super().__init__(schema)

    def counted(slot):
        made["matchers"] += 1
        return slot_matcher(slot)

    monkeypatch.setattr(act, "_Binder", Counted)
    monkeypatch.setattr(act, "_slot_matcher", counted)
    kb = load_kb(dump_kb(kblib.builtin_kb()))    # a library no recognition has compiled
    an.recognize(grey, kb)
    first = dict(made)
    assert first["binders"] and first["matchers"]
    rec = an.recognize(grey, kb)
    act.evaluate_coherence(rec.instances, rec.index, kb)
    assert made == first


def test_no_module_level_cache_grows_with_libraries(grey):
    # fifty distinct libraries, each the built-in one with a schema of its
    # own, loaded and used one after another in one process
    dumped = dump_kb(kblib.builtin_kb())

    def library(k):
        return load_kb(dumped + f'schema Extra_{k} kind problem\n  desc "library {k}"\n')

    assert an.recognize(grey, library(0)).instances
    sizes = _module_cache_sizes()
    refs = []
    # with the cycle collector off, each library is freed once it is
    # dropped: its compiled form holds no reference cycle
    gc.disable()
    try:
        for k in range(1, 50):
            kb = library(k)
            assert an.recognize(grey, kb).instances
            refs.append(weakref.ref(kb.schema("Counter_Variable")))
        del kb
        assert not [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert _module_cache_sizes() == sizes


def test_no_module_level_cache_grows_with_program_content(builtin):
    # every program declares variables no earlier one had
    programs = [fe.parse(_blocks_program([("grey.mp", f"a{k}", False),
                                          ("search.mp", f"b{k}", True),
                                          ("flag.mp", f"c{k}", False)]))
                for k in range(21)]
    an.recognize(programs[0], builtin)
    sizes = _module_cache_sizes()
    assert any(name == "pattern_matcher" for _, name in sizes)
    for program in programs[1:]:
        assert an.recognize(program, builtin).instances
    assert _module_cache_sizes() == sizes


def test_a_dropped_recognition_leaves_no_cyclic_garbage(builtin):
    # with the cycle collector off, reference counting alone frees all of it
    pg = benchmark_programs()
    programs = [fe.parse(pg.scale_program(random.Random(seed), 6, f"t{seed}").source)
                for seed in (4, 5)]
    an.recognize(programs[0], builtin)
    gc.collect()
    gc.disable()
    try:
        rec = an.recognize(programs[1], builtin)
        assert rec.coherence.external
        del rec
        assert gc.collect() == 0
    finally:
        gc.enable()
