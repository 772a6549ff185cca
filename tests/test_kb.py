import pytest

from plancog import kb as kblib
from plancog.errors import KbFormatError, KbValidationError


def _slot(kb, schema, name):
    return kb.schema(schema).slot(name)


def test_builtin_validates_clean(builtin):
    assert kblib.validate_kb(builtin) == []


def test_builtin_counter_variable(builtin):
    counter = builtin.schema("Counter_Variable")
    assert counter.kind == "variable"
    init = counter.slot("initialization")
    assert init.mandatory
    assert [f.pattern for f in init.fillers if f.prototypical] == ["<v>:=0"]
    assert any(f.pattern == "<v>:=<int>" for f in init.fillers)
    update = counter.slot("update")
    assert update.prototypical().pattern == "<v>:=<v>+1"
    assert [f.pattern for f in counter.slot("type").fillers] == ["integer"]
    assert [f.pattern for f in counter.slot("context").fillers] == ["iteration"]


def test_builtin_flag_context_prototype(builtin):
    context = _slot(builtin, "Flag_Variable", "context")
    assert {f.pattern for f in context.fillers} == {"repeat", "while"}
    assert context.prototypical().pattern == "while"


def test_builtin_loop_family(builtin):
    loop = builtin.schema("Running_Total_Loop")
    names = {s.name for s in loop.slots}
    assert {"Counter", "Running_total", "New_Value", "setup", "body"} <= names
    assert not loop.slot("Counter").mandatory   # optional counting
    uses = dict(kblib.implementations(builtin, "Running_Total_Loop"))
    assert uses == {"Counter_Variable": "Counter",
                    "Running_Total_Variable": "Running_total",
                    "New_Value_Variable": "New_Value"}


def test_builtin_for_loop_is_implementation_technique(builtin):
    assert builtin.schema("For_Loop").kind == "implementation"
    impls = kblib.implementations(builtin, "Counter_Controlled_Running_Total_Loop")
    assert ("For_Loop", "implementation") in impls


def test_builtin_misc_schemas(builtin):
    assert builtin.schema("Linear_Search").kind == "algorithm"
    stock = builtin.schema("Stock_Management")
    assert stock.kind == "problem"
    assert {f.pattern for f in stock.slot("functions").fillers} == \
        {"allocation", "destruction", "search"}
    assert stock.slot("data-structure") is not None
    assert builtin.schema("New_Value_Variable") is not None


def test_builtin_discourse_rules(builtin):
    checks = {d.check for d in builtin.discourse_rules}
    assert checks == {"name-reflects-function", "no-double-duty"}


def test_builtin_rule_r1(builtin):
    r1 = builtin.rule("R1")
    assert r1.direction == "data-driven"
    assert [(c.kind, c.payload) for c in r1.conditions] == \
        [("name", "I"), ("type", "integer")]
    assert r1.activates == "Counter_Variable"
    assert ("context", "iteration") in r1.bindings


def test_builtin_rule_r2(builtin):
    r2 = builtin.rule("R2")
    assert [(c.kind, c.payload) for c in r2.conditions] == [("init", "I:=1")]
    assert r2.activates == "Counter_Variable"
    assert r2.bindings == [("update", "I:=I+1")]


def test_builtin_rule_r3(builtin):
    r3 = builtin.rule("R3")
    kinds = [(c.kind, c.payload) for c in r3.conditions]
    assert ("schema", "Counter_Variable") in kinds
    assert any(kind == "loopform" and kblib.pattern_matches(payload, "while a<>b")
               for kind, payload in kinds)
    assert r3.activates == "Linear_Search"
    assert r3.bindings == [("counter-update", "I:=I+1")]


def test_dump_load_round_trip_builtin(builtin):
    text = kblib.dump_kb(builtin)
    loaded = kblib.load_kb(text)
    assert loaded == builtin
    assert kblib.dump_kb(loaded) == text


def test_builtin_dump_carries_plan_shapes(builtin):
    lines = kblib.dump_kb(builtin).splitlines()
    assert "  uses Counter_Variable as counter" in lines
    assert "  goal process-values-in-loop" in lines
    assert "  names counter count cnt ctr index idx i j k n" in lines
    assert [line for line in lines if line.startswith("  controlled-by ")] == [
        "  controlled-by Running_total", "  controlled-by Counter",
        "  controlled-by New_Value"]


def test_load_dump_identity_custom():
    text = (
        'schema Swap_Pair kind variable\n'
        '  desc "exchanges two values"\n'
        '  goal exchange-values\n'
        '  names tmp temp swap\n'
        '  slot temp mandatory\n'
        '    filler "<v>:=<w>" proto\n'
        'rule S1 data: if init~"<v>:=<w>" then activate Swap_Pair, bind temp="<v>:=<w>"\n'
    )
    loaded = kblib.load_kb(text)
    assert loaded.schema("Swap_Pair").goal == "exchange-values"
    assert loaded.schema("Swap_Pair").names == ("tmp", "temp", "swap")
    assert kblib.load_kb(kblib.dump_kb(loaded)) == loaded
    assert kblib.dump_kb(loaded) == text


def test_controlled_by_unknown_slot_diagnostic():
    text = ('schema A kind problem\n  desc "a"\n'
            'schema B kind problem\n  desc "b"\n  kindof A\n  controlled-by nope\n')
    with pytest.raises(KbValidationError) as err:
        kblib.load_kb(text)
    assert [(d.code, d.subject) for d in err.value.diagnostics] == [("unknown-slot", "B.nope")]


@pytest.mark.parametrize("line", ["goal", "goal a b", "names", "controlled-by"])
def test_malformed_schema_line(line):
    with pytest.raises(KbFormatError) as err:
        kblib.load_kb(f'schema A kind problem\n  desc "a"\n  {line}\n')
    assert err.value.line == 3


def test_dangling_link_diagnostic():
    with pytest.raises(KbValidationError) as err:
        kblib.load_kb('schema A kind problem\n  desc "a"\n  kindof Missing\n')
    assert [d.code for d in err.value.diagnostics] == ["dangling-link"]


def test_cycle_diagnostic_is_single():
    text = ('schema A kind problem\n  desc "a"\n  kindof B\n'
            'schema B kind problem\n  desc "b"\n  kindof A\n')
    with pytest.raises(KbValidationError) as err:
        kblib.load_kb(text)
    assert [d.code for d in err.value.diagnostics] == ["cycle"]


def test_double_prototypical_diagnostic():
    text = ('schema A kind variable\n  desc "a"\n  slot s mandatory\n'
            '    filler "<v>:=0" proto\n    filler "<v>:=1" proto\n')
    with pytest.raises(KbValidationError) as err:
        kblib.load_kb(text)
    assert [d.code for d in err.value.diagnostics] == ["double-prototypical"]


def test_rule_binding_unknown_slot_diagnostic(builtin):
    kb = kblib.load_kb(kblib.dump_kb(builtin))
    kb.rules.append(kblib.ProductionRule("RX", kblib.DATA_DRIVEN,
                                         [kblib.Cue("type", "integer")],
                                         "Counter_Variable", [("nope", "<v>:=0")]))
    codes = [d.code for d in kblib.validate_kb(kb)]
    assert codes == ["unknown-slot"]


def test_rule_activating_unknown_schema_diagnostic(builtin):
    kb = kblib.load_kb(kblib.dump_kb(builtin))
    kb.rules.append(kblib.ProductionRule("RX", kblib.DATA_DRIVEN,
                                         [kblib.Cue("type", "integer")], "Ghost"))
    assert "unknown-schema" in [d.code for d in kblib.validate_kb(kb)]


def test_missing_mandatory_slot_diagnostic():
    kb = kblib.KnowledgeBase(schemas=[kblib.Schema("A", "variable", "a",
                                                   [kblib.Slot("s", False)])])
    assert "no-mandatory-slot" in [d.code for d in kblib.validate_kb(kb)]


def test_malformed_kb_line_reports_position():
    with pytest.raises(KbFormatError) as err:
        kblib.load_kb("schema A kind problem\n  desc \"a\"\nwibble\n")
    assert err.value.line == 3


def test_specializations(builtin):
    assert kblib.specializations(builtin, "New_Value_Variable") == \
        ["Counter_Variable", "Read_Variable"]
    assert kblib.specializations(builtin, "Running_Total_Loop") == [
        "Counter_Controlled_Running_Total_Loop",
        "New_Value_Controlled_Running_Total_Loop",
        "Total_Controlled_Running_Total_Loop",
    ]
    assert kblib.specializations(builtin, "For_Loop") == []


def test_specializations_unknown_schema(builtin):
    with pytest.raises(KbValidationError):
        kblib.specializations(builtin, "Ghost")


def test_comments_and_blank_lines_ignored(builtin):
    text = "# header\n\n" + kblib.dump_kb(builtin)
    assert kblib.load_kb(text) == builtin


def test_link_queries_follow_link_order(builtin):
    assert builtin.children("New_Value_Variable") == ["Read_Variable", "Counter_Variable"]
    assert builtin.children("Running_Total_Loop") == [
        "Total_Controlled_Running_Total_Loop",
        "Counter_Controlled_Running_Total_Loop",
        "New_Value_Controlled_Running_Total_Loop",
    ]
    assert builtin.parents("Counter_Variable") == ["New_Value_Variable"]
    assert builtin.parents("Running_Total_Loop") == []
    assert builtin.uses("Counter_Controlled_Running_Total_Loop") == [
        ("Counter_Variable", "Counter"),
        ("Running_Total_Variable", "Running_total"),
        ("New_Value_Variable", "New_Value"),
        ("For_Loop", "implementation"),
    ]
    assert builtin.uses("Counter_Variable") == []
