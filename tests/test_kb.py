import dataclasses
import re
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from oracles import per_variable_pattern_matches
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


def test_implementations_of_an_unknown_schema(builtin):
    with pytest.raises(KbValidationError) as err:
        kblib.implementations(builtin, "No_Such_Schema")
    assert [(d.code, d.subject) for d in err.value.diagnostics] == \
        [("unknown-schema", "No_Such_Schema")]


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
    assert r2.bindings == (("update", "I:=I+1"),)


def test_builtin_rule_r3(builtin):
    r3 = builtin.rule("R3")
    kinds = [(c.kind, c.payload) for c in r3.conditions]
    assert ("schema", "Counter_Variable") in kinds
    assert any(kind == "loopform" and kblib.pattern_matches(payload, "while a<>b")
               for kind, payload in kinds)
    assert r3.activates == "Linear_Search"
    assert r3.bindings == (("counter-update", "I:=I+1"),)


def test_dump_load_round_trip_builtin(builtin):
    text = kblib.dump_kb(builtin)
    loaded = kblib.load_kb(text)
    assert loaded == builtin
    assert kblib.dump_kb(loaded) == text


def test_builtin_kb_is_one_library():
    assert kblib.builtin_kb() is kblib.builtin_kb()


def test_builtin_file_round_trips():
    text = (resources.files("plancog") / "builtin.kb").read_text(encoding="utf-8")
    assert kblib.dump_kb(kblib.load_kb(text)) == text


def test_library_and_its_records_are_frozen(builtin):
    # the library and one record of each kind it holds
    schema = builtin.schema("Counter_Variable")
    slot = schema.slot("update")
    rule = builtin.rule("R3")
    for record in (builtin, schema, slot, slot.fillers[0], builtin.discourse_rules[0],
                   rule, rule.conditions[0]):
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            assert not isinstance(value, (list, dict, set))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, value)


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
        'rule S1 data: if init~"<v>:=<w>", comment~"counter, index",'
        ' comment~"x then activate A" then activate Swap_Pair, bind temp="<v>:=<w>"\n'
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


@pytest.mark.parametrize("links, cycles", [
    ({"A": "B", "B": "A", "C": "A"}, ["A -> B"]),
    ({"A": "B", "B": "A", "C": "A", "D": "C"}, ["A -> B"]),
    ({"A": "B", "B": "C", "C": "A", "D": "B"}, ["A -> B -> C"]),
    ({"A": "B", "B": "A", "C": "D", "D": "C"}, ["A -> B", "C -> D"]),
    ({"A": "A", "B": "A"}, ["A"]),
    ({"A": "B", "C": "B"}, []),
])
def test_cycle_diagnostic_names_only_schemas_on_the_cycle(links, cycles):
    kb = kblib.KnowledgeBase(schemas=[kblib.Schema(name, "problem", kind_of=(
        (links[name],) if name in links else ())) for name in "ABCD"])
    assert [(d.code, d.subject) for d in kblib.validate_kb(kb)] == [
        ("cycle", cycle) for cycle in cycles]


_replace = dataclasses.replace


@pytest.mark.parametrize("fault, expected", [
    (lambda kb: _replace(kb, schemas=(_replace(kb.schemas[0], kind="weird"), *kb.schemas[1:])),
     ("bad-kind", "A")),
    (lambda kb: _replace(kb, rules=(_replace(kb.rules[0], conditions=(
        *kb.rules[0].conditions, kblib.Cue("colour", "red"))),)), ("bad-cue", "R1")),
    (lambda kb: _replace(kb, schemas=(_replace(kb.schemas[0], uses=(("B", ""),)),
                                      *kb.schemas[1:])), ("missing-slot", "A->B")),
    (lambda kb: _replace(kb, rules=(_replace(kb.rules[0], direction="weird"),)),
     ("bad-direction", "R1")),
    (lambda kb: _replace(kb, rules=(_replace(kb.rules[0], conditions=(
        kblib.Cue("name", "<v>", line=5),)),)), ("placed-cue", "R1")),
    (lambda kb: _replace(kb, rules=(_replace(kb.rules[0], conditions=(
        kblib.Cue("name", "<v>", node=object()),)),)), ("placed-cue", "R1")),
    # text that the file format, which has no escape, cannot write
    (lambda kb: _replace(kb, schemas=(_replace(kb.schemas[0], description='an "a"'),
                                      *kb.schemas[1:])), ("unwritable-text", "A")),
    (lambda kb: _replace(kb, schemas=(_replace(kb.schemas[0], description="a\nb"),
                                      *kb.schemas[1:])), ("unwritable-text", "A")),
    (lambda kb: _replace(kb, schemas=(_replace(kb.schemas[0], slots=(kblib.Slot(
        "name", True, (kblib.Filler('<v>:="x"'),)),)), *kb.schemas[1:])),
     ("unwritable-text", "A.name")),
    (lambda kb: _replace(kb, rules=(_replace(kb.rules[0], conditions=(
        kblib.Cue("comment", 'a "b"'),)),)), ("unwritable-text", "R1")),
    (lambda kb: _replace(kb, rules=(_replace(kb.rules[0], bindings=(
        ("name", '<v>:="x"'),)),)), ("unwritable-text", "R1")),
    (lambda kb: _replace(kb, discourse_rules=(kblib.DiscourseRule(
        "D1", "no-double-duty", "one\r\ntwo"),)), ("unwritable-text", "D1")),
    # names and cue payloads that a rule line cannot spell
    (lambda kb: _replace(kb, rules=(_replace(kb.rules[0], conditions=(
        kblib.Cue("type", "Integer"),)),)), ("unwritable-text", "R1")),
    (lambda kb: _replace(kb, rules=(_replace(kb.rules[0], conditions=(
        kblib.Cue("loop", "until"),)),)), ("unwritable-text", "R1")),
    (lambda kb: _replace(kb, rules=(_replace(kb.rules[0], id="R 1"),)),
     ("unwritable-text", "R 1")),
    (lambda kb: _replace(kb, schemas=(_replace(kb.schemas[0], name="A-B"), *kb.schemas[1:]),
                         rules=(_replace(kb.rules[0], activates="A-B"),)),
     ("unwritable-text", "R1")),
    (lambda kb: _replace(kb, schemas=(_replace(kb.schemas[0], slots=(
        *kb.schemas[0].slots, kblib.Slot("a.b"))), *kb.schemas[1:]),
                         rules=(_replace(kb.rules[0], bindings=(("a.b", "<v>"),)),)),
     ("unwritable-text", "R1")),
    # names that a word line cannot write back
    (lambda kb: _replace(kb, schemas=(_replace(kb.schemas[0], names=("Sum",)),
                                      *kb.schemas[1:])), ("unwritable-text", "A")),
    (lambda kb: _replace(kb, schemas=(_replace(kb.schemas[0], slots=(
        *kb.schemas[0].slots, kblib.Slot("a b"))), *kb.schemas[1:])),
     ("unwritable-text", "A.a b")),
    (lambda kb: _replace(kb, schemas=(_replace(kb.schemas[0], goal="x y"), *kb.schemas[1:])),
     ("unwritable-text", "A")),
    (lambda kb: _replace(kb, discourse_rules=(kblib.DiscourseRule(
        "D 1", "no-double-duty", "x"),)), ("unwritable-text", "D 1")),
], ids=["bad-kind", "bad-cue", "missing-slot", "bad-direction", "cue-line", "cue-node",
        "quote-in-desc", "line-break-in-desc", "quote-in-filler", "quote-in-cue",
        "quote-in-bind", "line-break-in-statement", "type-cue-capitals", "loop-cue-until",
        "rule-id-blank", "activated-schema-dash", "bound-slot-dot", "stem-capitals",
        "slot-name-blank", "goal-blank", "discourse-id-blank"])
def test_diagnostics_load_kb_cannot_produce(fault, expected):
    # the file format rejects these before validation, so they are made in
    # memory, as a new library built from a loaded one
    kb = fault(kblib.load_kb('schema A kind variable\n  desc "a"\n  slot name mandatory\n'
                             'schema B kind variable\n  desc "b"\n  slot name mandatory\n'
                             'rule R1 data: if name~"<v>" then activate A\n'))
    assert [(d.code, d.subject) for d in kblib.validate_kb(kb)] == [expected]
    if expected[0] in ("unwritable-text", "bad-direction", "placed-cue"):
        # its dump does not load, or loads as another library
        try:
            reloaded = kblib.load_kb(kblib.dump_kb(kb))
        except KbFormatError:
            reloaded = None
        assert reloaded != kb


# what names and texts are made of: characters and words that a KB line reads
_PIECES = ["a", "B", "c_d", "<v>", " ", '"', ",", "-", ".", "\n", "=", "then activate", "bind"]
_IDENTIFIERS = ["a", "B", "c_d"]


def _strings(pieces, min_size):
    return st.lists(st.sampled_from(pieces), min_size=min_size, max_size=3).map("".join)


@st.composite
def _libraries(draw):
    """A small library. Its names are made of a few pieces drawn for it or
    of identifiers, which a rule line can spell, and its texts of a few
    other pieces drawn for it; so either all its names, or texts, fit where
    they are written, or many do not. Each schema's first slot is mandatory
    and its kind-of links go to earlier schemas, so that few libraries fail
    on structure alone. A rule may have a direction that is neither, and a
    condition a line."""
    some_pieces = st.lists(st.sampled_from(_PIECES), min_size=1, max_size=3)
    words = _strings(draw(some_pieces | st.just(_IDENTIFIERS)), 1)
    texts = _strings(draw(some_pieces), 0)
    names = draw(st.lists(words, min_size=1, max_size=2, unique=True))
    schemas = []
    for i, name in enumerate(names):
        slots = tuple(kblib.Slot(slot, j == 0 or draw(st.booleans()),
                                 tuple(kblib.Filler(pattern, draw(st.booleans()))
                                       for pattern in draw(st.lists(texts, max_size=1))))
                      for j, slot in enumerate(draw(st.lists(words, min_size=1, max_size=2,
                                                             unique=True))))
        slot_names = [slot.name for slot in slots]
        schemas.append(kblib.Schema(
            name, draw(st.sampled_from(kblib.SCHEMA_KINDS)), draw(texts), slots,
            goal=draw(st.none() | words), names=tuple(draw(st.lists(words, max_size=2))),
            controlled_by=draw(st.none() | st.sampled_from(slot_names)),
            kind_of=tuple(draw(st.lists(st.sampled_from(names[:i]), max_size=2)) if i else ()),
            uses=tuple(draw(st.lists(st.tuples(st.sampled_from(names),
                                               st.sampled_from(slot_names)), max_size=2)))))
    discourse_rules = draw(st.lists(st.builds(kblib.DiscourseRule, words, st.sampled_from(
        kblib.DISCOURSE_CHECKS), texts), max_size=1))
    rules = []
    for _ in range(draw(st.integers(0, 2))):
        schema = draw(st.sampled_from(schemas))
        conditions = tuple(kblib.Cue(kind, draw(st.sampled_from([*names, "integer", "while"])
                                                | texts), draw(st.sampled_from([0, 3])))
                           for kind in draw(st.lists(st.sampled_from(kblib.CUE_KINDS),
                                                     max_size=2)))
        bindings = tuple((draw(st.sampled_from(schema.slots)).name, draw(texts))
                         for _ in range(draw(st.integers(0, 1))))
        rules.append(kblib.ProductionRule(
            draw(words), draw(st.sampled_from([kblib.DATA_DRIVEN, kblib.CONCEPTUALLY_DRIVEN,
                                               "sideways"])),
            conditions, schema.name, bindings))
    return kblib.KnowledgeBase(tuple(schemas), tuple(discourse_rules), tuple(rules))


@settings(max_examples=300, deadline=None)
@given(_libraries())
def test_a_library_that_validates_loads_back_from_its_dump(kb):
    if kblib.validate_kb(kb) == []:
        assert kblib.load_kb(kblib.dump_kb(kb)) == kb


def test_double_prototypical_diagnostic():
    text = ('schema A kind variable\n  desc "a"\n  slot s mandatory\n'
            '    filler "<v>:=0" proto\n    filler "<v>:=1" proto\n')
    with pytest.raises(KbValidationError) as err:
        kblib.load_kb(text)
    assert [d.code for d in err.value.diagnostics] == ["double-prototypical"]


def test_rule_binding_unknown_slot_diagnostic(builtin):
    kb = _replace(builtin, rules=(*builtin.rules, kblib.ProductionRule(
        "RX", kblib.DATA_DRIVEN, (kblib.Cue("type", "integer"),), "Counter_Variable",
        (("nope", "<v>:=0"),))))
    codes = [d.code for d in kblib.validate_kb(kb)]
    assert codes == ["unknown-slot"]


def test_rule_activating_unknown_schema_diagnostic(builtin):
    kb = _replace(builtin, rules=(*builtin.rules, kblib.ProductionRule(
        "RX", kblib.DATA_DRIVEN, (kblib.Cue("type", "integer"),), "Ghost")))
    assert "unknown-schema" in [d.code for d in kblib.validate_kb(kb)]


def test_missing_mandatory_slot_diagnostic():
    kb = kblib.KnowledgeBase(schemas=[kblib.Schema("A", "variable", "a",
                                                   [kblib.Slot("s", False)])])
    assert "no-mandatory-slot" in [d.code for d in kblib.validate_kb(kb)]


# lines that load_kb skips: blank, whitespace-only and indented comments;
# `\v` and `\f` end a line as str.splitlines does, so these are nine lines
_SKIPPED = "\n   \n\t\n \v\f \n  # a comment\n\t# another\n#\n"
# the lines before the malformed one
_CONTEXTS = {"top": "", "schema": 'schema A kind problem\n  desc "a"\n',
             "slot": 'schema A kind problem\n  desc "a"\n  slot s\n',
             "discourse": 'schema A kind problem\n  desc "a"\ndiscourse D1 check c "t"\n'}


@pytest.mark.parametrize("context, line, message", [
    ("top", "slot s", "slot outside a schema"),
    ("schema", "slot", "expected: slot <name> [mandatory]"),
    ("schema", "slot a b", "expected: slot <name> [mandatory]"),
    ("schema", "slot a mandatory x", "expected: slot <name> [mandatory]"),
    ("schema", 'filler "<v>:=0"', "filler outside a slot or malformed"),
    ("slot", "filler x", "filler outside a slot or malformed"),
    ("top", 'desc "a"', "desc outside a schema or malformed"),
    ("schema", "desc x", "desc outside a schema or malformed"),
    ("top", "schema A", "expected: schema <Name> kind <kind>"),
    ("top", "schema A kind nope", "unknown schema kind 'nope'"),
    ("schema", "goal", "expected: goal <name> inside a schema"),
    ("schema", "goal a b", "expected: goal <name> inside a schema"),
    ("schema", "controlled-by", "expected: controlled-by <name> inside a schema"),
    ("schema", "controlled-by a b", "expected: controlled-by <name> inside a schema"),
    ("schema", "names", "expected: names <stem>... inside a schema"),
    ("schema", "kindof", "expected: kindof <ParentName>"),
    ("schema", "uses A of b", "expected: uses <ChildName> as <slotname>"),
    ("schema", 'rule R1 data: if name~"x" activate A', "malformed production rule"),
    ("schema", "rule R1 data: if name~x then activate A", "bad cue 'name~x'"),
    ("schema", "discourse D1 check nope", "malformed discourse rule"),
    ("discourse", "slot s", "slot outside a schema"),
    ("schema", "wibble", "unrecognized directive 'wibble'"),
])
def test_format_errors_name_their_line(context, line, message):
    text = _CONTEXTS[context] + _SKIPPED + "  " + line + "\n" + _SKIPPED
    lineno = _CONTEXTS[context].count("\n") + 10
    with pytest.raises(KbFormatError) as err:
        kblib.load_kb(text)
    assert (str(err.value), err.value.line) == (f"kb line {lineno}: {message}", lineno)


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


def test_a_schema_holds_its_links_and_children_follow_schema_order(builtin):
    assert builtin.children("New_Value_Variable") == ["Read_Variable", "Counter_Variable"]
    assert builtin.children("Running_Total_Loop") == [
        "Total_Controlled_Running_Total_Loop",
        "Counter_Controlled_Running_Total_Loop",
        "New_Value_Controlled_Running_Total_Loop",
    ]
    assert builtin.schema("Counter_Variable").kind_of == ("New_Value_Variable",)
    assert builtin.schema("Running_Total_Loop").kind_of == ()
    assert builtin.schema("Counter_Controlled_Running_Total_Loop").uses == (
        ("Counter_Variable", "Counter"),
        ("Running_Total_Variable", "Running_total"),
        ("New_Value_Variable", "New_Value"),
        ("For_Loop", "implementation"),
    )
    assert builtin.schema("Counter_Variable").uses == ()


# --- pattern matching -------------------------------------------------------------

def _library_patterns(kb):
    """Every filler, pattern cue and rule binding pattern of a library."""
    patterns = {f.pattern for s in kb.schemas for slot in s.slots for f in slot.fillers}
    patterns |= {c.payload for r in kb.rules for c in r.conditions
                 if c.kind in ("init", "update", "loopform")}
    patterns |= {pattern for r in kb.rules for _, pattern in r.bindings}
    return sorted(patterns)


_NAMES = st.one_of(st.sampled_from(["x", "x1", "x11", "x111", "i", "I", "Sum", "a_b", "_t",
                                    "count", "while", "for1"]),
                   st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True))
_INTS = st.from_regex(r"[0-9]{1,3}", fullmatch=True)


@st.composite
def _text_for(draw, pattern):
    """Text made from a pattern: wildcards replaced by names and numbers, the
    `<v>` occurrences mostly by one name; sometimes one character dropped or
    added."""
    v = draw(_NAMES)
    out = []
    for piece in re.split(r"(<v>|<w>|<int>)", pattern):
        if piece == "<v>":
            out.append(v if draw(st.integers(0, 5)) else draw(_NAMES))
        elif piece == "<w>":
            out.append(draw(_NAMES))
        elif piece == "<int>":
            out.append(draw(_INTS))
        else:
            out.append(piece)
    text = "".join(out)
    edit = draw(st.integers(0, 4))
    if text and edit == 0:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + text[at + 1:]
    elif edit == 1:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("x1_ :=+")) + text[at:]
    return text


_PATTERNS = st.lists(st.sampled_from(["<v>", "<w>", "<int>", "x", "1", "_", "a", "9",
                                      ":=", "+", "-", "*", "/", "(", ")", "<>", "<",
                                      "=", " ", "readln", "while"]),
                     min_size=1, max_size=6).map("".join)


@st.composite
def _matching_case(draw, patterns):
    pattern = draw(patterns)
    text = draw(st.one_of(_text_for(pattern),
                          st.text("ax1_:=+<>() ", max_size=8)))
    var = draw(st.one_of(st.none(), _NAMES))
    # the variable is often a prefix of an identifier in the text
    if var is not None and draw(st.booleans()):
        names = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)
        if names:
            name = draw(st.sampled_from(names))
            var = name[:draw(st.integers(1, len(name)))]
    return pattern, text, var


@settings(max_examples=400, deadline=None)
@given(_matching_case(st.sampled_from(_library_patterns(kblib.builtin_kb()))))
def test_library_patterns_match_as_per_variable_compilation(case):
    pattern, text, var = case
    assert kblib.pattern_matches(pattern, text, var) == \
        per_variable_pattern_matches(pattern, text, var)


@settings(max_examples=600, deadline=None)
@given(_matching_case(_PATTERNS))
def test_generated_patterns_match_as_per_variable_compilation(case):
    pattern, text, var = case
    assert kblib.pattern_matches(pattern, text, var) == \
        per_variable_pattern_matches(pattern, text, var)


@pytest.mark.parametrize("pattern, text, var, expected", [
    ("<v>1", "x11", "x1", True),
    ("<v>1", "x11", "x", False),
    ("<v>1<int>", "x111", "x", True),      # the first `<v>` tried is x1
    ("<v>1<int>", "x111", "x1", True),
    ("<v><w>", "ab", "ab", False),
    ("<v>:=<v>+1", "X1:=x1+1", "X1", True),
    ("<v>:=<v>+1", "x1:=x11+1", "x1", False),
    ("<v>:=0", "1x:=0", "1x", True),      # a variable that is no identifier
    ("<w>:=<int>", "count:=10", "anything", True),
])
def test_ambiguous_variable_splits(pattern, text, var, expected):
    assert kblib.pattern_matches(pattern, text, var) is expected
    assert per_variable_pattern_matches(pattern, text, var) is expected


def test_patterns_compile_once_whatever_the_variable():
    kblib.pattern_matches("<v>:=<v>+<w>", "n:=n+k")
    before = kblib._compile.cache_info().currsize
    for i in range(50):
        assert kblib.pattern_matches("<v>:=<v>+<w>", f"v{i}:=v{i}+k", f"v{i}")
    assert kblib._compile.cache_info().currsize == before
