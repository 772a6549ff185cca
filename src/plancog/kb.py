"""Frame-based plan knowledge: schemas with slots and fillers, specialization
and implementation links, discourse rules and production rules.

Filler and cue patterns are a small pattern language over normalized
statement text (lowercased, whitespace removed):

* plain characters match literally,
* ``<v>`` matches the plan variable; every occurrence in one pattern must be
  the same identifier,
* ``<w>`` matches any identifier, occurrences independent,
* ``<int>`` matches an unsigned integer literal,
* the bare words ``iteration``, ``repeat``, ``while`` and ``for`` match loop
  statements by their loop keyword (``iteration`` matches all three).

``~`` cues use substring matching for names and comments and whole-text
pattern matching for initialization/update/loop forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import KbFormatError, KbValidationError

VARIABLE = "variable"
CONTROL = "control"
ALGORITHM = "algorithm"
IMPLEMENTATION = "implementation"
PROBLEM = "problem"
SCHEMA_KINDS = (VARIABLE, CONTROL, ALGORITHM, IMPLEMENTATION, PROBLEM)

DATA_DRIVEN = "data-driven"
CONCEPTUALLY_DRIVEN = "conceptually-driven"

CUE_KINDS = ("name", "type", "init", "update", "loop", "loopform", "comment", "schema")
LOOP_WORDS = ("iteration", "repeat", "while", "for")
DISCOURSE_CHECKS = ("name-reflects-function", "no-double-duty", "no-unused-plan-part")


# --- pattern language ----------------------------------------------------

def normalize(text: str) -> str:
    return re.sub(r"\s+", "", text).lower()


_PATTERN_TOKEN = re.compile(r"<v>|<w>|<int>")
_IDENT_RX = r"[a-z_][a-z0-9_]*"


def pattern_ok(pattern: str) -> bool:
    """True when every <word> wildcard is a known one (bare `<`, `<=` and the
    `<>` operator are literal characters)."""
    return all(m.group(1) in ("v", "w", "int")
               for m in re.finditer(r"<([a-z]+)>", normalize(pattern)))


@lru_cache(maxsize=None)
def _compile(pattern: str, var: str | None) -> re.Pattern:
    pattern = normalize(pattern)
    out = []
    pos = 0
    seen_v = False
    for m in _PATTERN_TOKEN.finditer(pattern):
        out.append(re.escape(pattern[pos:m.start()]))
        tok = m.group()
        if tok == "<v>":
            if var is not None:
                out.append(re.escape(var.lower()))
            elif not seen_v:
                out.append(f"(?P<v>{_IDENT_RX})")
                seen_v = True
            else:
                out.append(r"(?P=v)")
        elif tok == "<w>":
            out.append(_IDENT_RX)
        else:
            out.append(r"\d+")
        pos = m.end()
    out.append(re.escape(pattern[pos:]))
    return re.compile("".join(out) + r"\Z")


def pattern_matches(pattern: str, text: str, var: str | None = None) -> bool:
    """Whole-text match of a filler/cue pattern against normalized text."""
    if pattern in LOOP_WORDS:
        word = re.match(r"[a-z]*", normalize(text)).group()
        if pattern == "iteration":
            return word in ("repeat", "while", "for")
        return word == pattern
    return _compile(pattern, var.lower() if var else None).match(normalize(text)) is not None


def instantiate_pattern(pattern: str, var: str) -> str | None:
    """Concrete text for a pattern, or None when free wildcards remain."""
    if "<w>" in pattern or "<int>" in pattern or pattern in LOOP_WORDS:
        return None
    return pattern.replace("<v>", var)


# --- domain types ---------------------------------------------------------

@dataclass
class Filler:
    pattern: str
    prototypical: bool = False


@dataclass
class Slot:
    name: str
    mandatory: bool = False
    fillers: list[Filler] = field(default_factory=list)

    def prototypical(self) -> Filler | None:
        for f in self.fillers:
            if f.prototypical:
                return f
        return None


@dataclass
class Schema:
    name: str
    kind: str
    description: str = ""
    slots: list[Slot] = field(default_factory=list)
    goal: str | None = None            # goal-tree node name; default derived from name
    names: tuple[str, ...] = ()        # name stems that reflect the plan's function
    controlled_by: str | None = None   # slot whose child variable the exit test reads

    def slot(self, name) -> Slot | None:
        for s in self.slots:
            if s.name == name:
                return s
        return None


@dataclass
class Link:
    relation: str          # kind-of | uses
    source: str
    target: str
    as_slot: str | None = None


@dataclass
class DiscourseRule:
    id: str
    check: str
    statement: str


@dataclass
class Cue:
    kind: str
    payload: str
    line: int = 0
    node: object = None

    def __str__(self):
        if self.kind in ("loop", "type", "schema"):
            return f"{self.kind}={self.payload}"
        return f'{self.kind}~"{self.payload}"'


@dataclass
class ProductionRule:
    id: str
    direction: str
    conditions: list[Cue]
    activates: str
    bindings: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class KnowledgeBase:
    schemas: list[Schema] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    discourse_rules: list[DiscourseRule] = field(default_factory=list)
    rules: list[ProductionRule] = field(default_factory=list)

    def schema(self, name) -> Schema | None:
        for s in self.schemas:
            if s.name == name:
                return s
        return None

    def rule(self, rule_id) -> ProductionRule | None:
        for r in self.rules:
            if r.id == rule_id:
                return r
        return None


@dataclass
class Diagnostic:
    code: str
    subject: str
    message: str

    def __str__(self):
        return f"{self.code} [{self.subject}]: {self.message}"


# --- built-in library -----------------------------------------------------

def _schema(name, kind, desc, slots, goal=None, names="", controlled_by=None):
    return Schema(name, kind, desc, [
        Slot(sname, mand, [Filler(p, proto) for p, proto in fills])
        for sname, mand, fills in slots
    ], goal, tuple(names.split()), controlled_by)


# slot order breaks ties when the exit test reads several children's variables
_LOOP_SLOTS = [
    ("New_Value", True, []),
    ("Counter", False, []),
    ("Running_total", True, []),
    ("setup", False, []),
    ("body", True, [("iteration", False)]),
]
_LOOP_TEST = ("test", True, [("<w>=<int>", False), ("<w><><int>", False)])
_LOOP_GOAL = "process-values-in-loop"
_LOOP_USES = [("Counter_Variable", "Counter"),
              ("Running_Total_Variable", "Running_total"),
              ("New_Value_Variable", "New_Value")]


def builtin_kb() -> KnowledgeBase:
    """The built-in plan library: variable plans, the running-total loop
    family, a linear-search algorithm plan, a flag plan, the stock-management
    problem schema, two discourse rules and the production rules R1..R15."""
    kb = KnowledgeBase()
    kb.schemas = [
        _schema("New_Value_Variable", VARIABLE,
                "holds each new value produced by a generator for other plans to consume",
                [("name", False, [("<v>", False)]),
                 ("source", True, [])]),
        _schema("Read_Variable", VARIABLE,
                "receives and holds each value read from the input",
                [("name", False, [("<v>", False)]),
                 ("read", True, [("readln(<v>)", True)]),
                 ("context", False, [("iteration", False)])],
                goal="enter-data",
                names="num number value val item data input entry ch a b x"),
        _schema("Counter_Variable", VARIABLE,
                "counts the occurrences of an action",
                [("name", False, [("<v>", False)]),
                 ("type", False, [("integer", False)]),
                 ("initialization", True, [("<v>:=0", True), ("<v>:=<int>", False)]),
                 ("update", True, [("<v>:=<v>+1", True)]),
                 ("context", False, [("iteration", False)])],
                goal="count-occurrences",
                names="counter count cnt ctr index idx i j k n"),
        _schema("Running_Total_Variable", VARIABLE,
                "accumulates a running total one contribution at a time",
                [("name", False, [("<v>", False)]),
                 ("type", False, [("integer", False), ("real", False)]),
                 ("initialization", True, [("<v>:=0", True), ("<v>:=<int>", False)]),
                 ("update", True, [("<v>:=<v>+<w>", True)]),
                 ("context", False, [("iteration", False)])],
                goal="accumulate-total", names="sum total tot acc accum result"),
        _schema("Flag_Variable", VARIABLE,
                "records that a condition of interest has occurred",
                [("name", False, [("<v>", False)]),
                 ("type", False, [("boolean", False)]),
                 ("initialization", True, [("<v>:=false", True), ("<v>:=true", False)]),
                 ("update", True, [("<v>:=true", True), ("<v>:=false", False)]),
                 ("context", False, [("repeat", False), ("while", True)])],
                goal="track-condition", names="flag done found stop finished ok seen"),
        _schema("Quotient_Variable", VARIABLE,
                "holds the ratio of two accumulated results",
                [("name", False, [("<v>", False)]),
                 ("result", True, [("<v>:=<w>/<w>", True)])],
                goal="compute-ratio", names="average avg mean ratio quotient rate"),
        _schema("Output_Value", CONTROL,
                "reports a computed value on the output stream",
                [("name", False, [("<v>", False)]),
                 ("output", True, [("writeln(<v>)", True)])],
                goal="output-result"),
        _schema("Running_Total_Loop", CONTROL,
                "accumulates values into a running total inside a loop, optionally counting iterations",
                _LOOP_SLOTS + [("test", False, _LOOP_TEST[2])], goal=_LOOP_GOAL),
        _schema("Total_Controlled_Running_Total_Loop", CONTROL,
                "running-total loop whose exit test examines the running total",
                _LOOP_SLOTS + [_LOOP_TEST], goal=_LOOP_GOAL, controlled_by="Running_total"),
        _schema("Counter_Controlled_Running_Total_Loop", CONTROL,
                "running-total loop whose exit test examines the counter",
                _LOOP_SLOTS + [_LOOP_TEST, ("implementation", False, [("for", False)])],
                goal=_LOOP_GOAL, controlled_by="Counter"),
        _schema("New_Value_Controlled_Running_Total_Loop", CONTROL,
                "running-total loop whose exit test examines the newly read value",
                _LOOP_SLOTS + [_LOOP_TEST], goal=_LOOP_GOAL, controlled_by="New_Value"),
        _schema("For_Loop", IMPLEMENTATION,
                "counted loop construct that initializes, tests and increments its control variable",
                [("header", False, [("for", False)])], goal="counted-loop"),
        _schema("Linear_Search", ALGORITHM,
                "scans candidates one at a time, counting the position, until the target is met",
                [("loop", True, [("while <w> <> <w>", True)]),
                 ("counter", True, []),
                 ("counter-update", False, [("<v>:=<v>+1", True)])], goal="search-items"),
        _schema("Stock_Management", PROBLEM,
                "inventory bookkeeping task domain",
                [("data-structure", False, [("record", False)]),
                 ("functions", False, [("allocation", False), ("destruction", False),
                                       ("search", False)])]),
    ]
    # declared in dump order: per schema, kind-of links then uses links
    kb.links = [
        Link("kind-of", "Read_Variable", "New_Value_Variable"),
        Link("kind-of", "Counter_Variable", "New_Value_Variable"),
        *[Link("uses", "Running_Total_Loop", tgt, slot) for tgt, slot in _LOOP_USES],
        Link("kind-of", "Total_Controlled_Running_Total_Loop", "Running_Total_Loop"),
        *[Link("uses", "Total_Controlled_Running_Total_Loop", tgt, slot)
          for tgt, slot in _LOOP_USES],
        Link("kind-of", "Counter_Controlled_Running_Total_Loop", "Running_Total_Loop"),
        *[Link("uses", "Counter_Controlled_Running_Total_Loop", tgt, slot)
          for tgt, slot in _LOOP_USES],
        Link("uses", "Counter_Controlled_Running_Total_Loop", "For_Loop", "implementation"),
        Link("kind-of", "New_Value_Controlled_Running_Total_Loop", "Running_Total_Loop"),
        *[Link("uses", "New_Value_Controlled_Running_Total_Loop", tgt, slot)
          for tgt, slot in _LOOP_USES],
        Link("uses", "Linear_Search", "Counter_Variable", "counter"),
    ]
    kb.discourse_rules = [
        DiscourseRule("D1", "name-reflects-function",
                      "the name of a variable should reflect what the variable accomplishes"),
        DiscourseRule("D2", "no-double-duty",
                      "an initialization should not quietly serve a second purpose"),
    ]
    kb.rules = [
        ProductionRule("R1", DATA_DRIVEN,
                       [Cue("name", "I"), Cue("type", "integer")],
                       "Counter_Variable", [("context", "iteration")]),
        ProductionRule("R2", DATA_DRIVEN,
                       [Cue("init", "I:=1")],
                       "Counter_Variable", [("update", "I:=I+1")]),
        ProductionRule("R3", DATA_DRIVEN,
                       [Cue("schema", "Counter_Variable"), Cue("loopform", "while <w> <> <w>")],
                       "Linear_Search", [("counter-update", "I:=I+1")]),
        ProductionRule("R4", DATA_DRIVEN,
                       [Cue("update", "<v>:=<v>+1")],
                       "Counter_Variable", [("initialization", "<v>:=0")]),
        ProductionRule("R5", DATA_DRIVEN,
                       [Cue("update", "<v>:=<v>+<w>")],
                       "Running_Total_Variable", [("initialization", "<v>:=0")]),
        ProductionRule("R6", DATA_DRIVEN,
                       [Cue("update", "readln(<v>)")],
                       "Read_Variable"),
        ProductionRule("R7", DATA_DRIVEN,
                       [Cue("schema", "Running_Total_Variable"), Cue("loop", "repeat")],
                       "Running_Total_Loop"),
        ProductionRule("R8", DATA_DRIVEN,
                       [Cue("schema", "Running_Total_Variable"), Cue("loop", "while")],
                       "Running_Total_Loop"),
        ProductionRule("R9", DATA_DRIVEN,
                       [Cue("schema", "Running_Total_Variable"), Cue("loop", "for")],
                       "Running_Total_Loop"),
        ProductionRule("R10", DATA_DRIVEN,
                       [Cue("type", "boolean")],
                       "Flag_Variable", [("context", "while")]),
        ProductionRule("R11", DATA_DRIVEN,
                       [Cue("init", "<v>:=<w>/<w>")],
                       "Quotient_Variable"),
        ProductionRule("R12", DATA_DRIVEN,
                       [Cue("update", "writeln(<v>)")],
                       "Output_Value"),
        ProductionRule("R13", DATA_DRIVEN,
                       [Cue("comment", "counter")],
                       "Counter_Variable"),
        ProductionRule("R14", DATA_DRIVEN,
                       [Cue("comment", "total")],
                       "Running_Total_Variable"),
        ProductionRule("R15", CONCEPTUALLY_DRIVEN,
                       [Cue("schema", "Running_Total_Loop")],
                       "Output_Value", [("output", "writeln(<v>)")]),
    ]
    return kb


# --- validation -----------------------------------------------------------

def validate_kb(kb: KnowledgeBase) -> list[Diagnostic]:
    """Empty list iff every structural invariant holds."""
    out = []
    names = {}
    for s in kb.schemas:
        if s.name in names:
            out.append(Diagnostic("duplicate-schema", s.name, "schema declared twice"))
        names[s.name] = s
        if s.kind not in SCHEMA_KINDS:
            out.append(Diagnostic("bad-kind", s.name, f"unknown kind {s.kind!r}"))
        seen_slots = set()
        for slot in s.slots:
            if slot.name in seen_slots:
                out.append(Diagnostic("duplicate-slot", f"{s.name}.{slot.name}",
                                      "slot declared twice"))
            seen_slots.add(slot.name)
            protos = [f for f in slot.fillers if f.prototypical]
            if len(protos) > 1:
                out.append(Diagnostic("double-prototypical", f"{s.name}.{slot.name}",
                                      "more than one prototypical filler"))
            for f in slot.fillers:
                if not pattern_ok(f.pattern):
                    out.append(Diagnostic("bad-pattern", f"{s.name}.{slot.name}",
                                          f"unparseable pattern {f.pattern!r}"))
        if s.controlled_by is not None and s.slot(s.controlled_by) is None:
            out.append(Diagnostic("unknown-slot", f"{s.name}.{s.controlled_by}",
                                  "controlled-by names a slot the schema lacks"))
        if s.kind in (VARIABLE, CONTROL, ALGORITHM) and not any(x.mandatory for x in s.slots):
            out.append(Diagnostic("no-mandatory-slot", s.name,
                                  "variable/control/algorithm plans need a mandatory slot"))

    for link in kb.links:
        if link.source not in names or link.target not in names:
            out.append(Diagnostic("dangling-link", f"{link.source}->{link.target}",
                                  "link endpoint does not exist"))
            continue
        if link.relation == "uses":
            if not link.as_slot:
                out.append(Diagnostic("missing-slot", f"{link.source}->{link.target}",
                                      "uses link without a slot"))
            elif names[link.source].slot(link.as_slot) is None:
                out.append(Diagnostic("unknown-slot", f"{link.source}.{link.as_slot}",
                                      "uses link names a slot the schema lacks"))

    # nodes left after repeatedly trimming parentless ones lie on kind-of cycles;
    # one diagnostic per cycle component
    parents = {}
    for link in kb.links:
        if link.relation == "kind-of" and link.source in names and link.target in names:
            parents.setdefault(link.source, set()).add(link.target)
    remaining = {n: set(ps) for n, ps in parents.items()}
    trimmed = True
    while trimmed:
        trimmed = False
        for node in list(remaining):
            if not (remaining[node] & remaining.keys()):
                del remaining[node]
                trimmed = True
    reported = set()
    for node in sorted(remaining):
        if node in reported:
            continue
        component = {node}
        frontier = [node]
        while frontier:
            for nxt in remaining.get(frontier.pop(), ()):
                if nxt in remaining and nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        reported |= component
        out.append(Diagnostic("cycle", " -> ".join(sorted(component)),
                              "kind-of relation is cyclic"))

    for d in kb.discourse_rules:
        if d.check not in DISCOURSE_CHECKS:
            out.append(Diagnostic("bad-check", d.id, f"unknown predicate {d.check!r}"))

    seen_rules = set()
    for r in kb.rules:
        if r.id in seen_rules:
            out.append(Diagnostic("duplicate-rule", r.id, "rule id declared twice"))
        seen_rules.add(r.id)
        if r.activates not in names:
            out.append(Diagnostic("unknown-schema", r.id,
                                  f"rule activates unknown schema {r.activates!r}"))
        else:
            for slot, _ in r.bindings:
                if names[r.activates].slot(slot) is None:
                    out.append(Diagnostic("unknown-slot", f"{r.id}.{slot}",
                                          "rule binds a slot the schema lacks"))
        for c in r.conditions:
            if c.kind not in CUE_KINDS:
                out.append(Diagnostic("bad-cue", r.id, f"unknown cue kind {c.kind!r}"))
            elif c.kind == "schema" and c.payload not in names:
                out.append(Diagnostic("unknown-schema", r.id,
                                      f"condition names unknown schema {c.payload!r}"))
            elif c.kind in ("init", "update", "loopform") and not pattern_ok(c.payload):
                out.append(Diagnostic("bad-pattern", r.id,
                                      f"unparseable pattern {c.payload!r}"))
        for _, pat in r.bindings:
            if not pattern_ok(pat):
                out.append(Diagnostic("bad-pattern", r.id, f"unparseable pattern {pat!r}"))
    return out


# --- link queries ----------------------------------------------------------

def specializations(kb: KnowledgeBase, schema: str) -> list[str]:
    """Transitive kind-of descendants, alphabetical."""
    if kb.schema(schema) is None:
        raise KbValidationError([Diagnostic("unknown-schema", schema, "no such schema")])
    children = {}
    for link in kb.links:
        if link.relation == "kind-of":
            children.setdefault(link.target, []).append(link.source)
    out = set()
    frontier = [schema]
    while frontier:
        node = frontier.pop()
        for c in children.get(node, []):
            if c not in out:
                out.add(c)
                frontier.append(c)
    return sorted(out)


def implementations(kb: KnowledgeBase, schema: str) -> list[tuple[str, str]]:
    """Direct uses links as (target schema, slot) pairs."""
    if kb.schema(schema) is None:
        raise KbValidationError([Diagnostic("unknown-schema", schema, "no such schema")])
    return [(l.target, l.as_slot) for l in kb.links
            if l.relation == "uses" and l.source == schema]


# --- file format ------------------------------------------------------------

def dump_kb(kb: KnowledgeBase) -> str:
    """Canonical serialization; load_kb(dump_kb(kb)) == kb."""
    lines = []
    for s in kb.schemas:
        lines.append(f"schema {s.name} kind {s.kind}")
        lines.append(f'  desc "{s.description}"')
        if s.goal is not None:
            lines.append(f"  goal {s.goal}")
        if s.names:
            lines.append(f"  names {' '.join(s.names)}")
        for slot in s.slots:
            lines.append(f"  slot {slot.name} mandatory" if slot.mandatory
                         else f"  slot {slot.name}")
            for f in slot.fillers:
                lines.append(f'    filler "{f.pattern}" proto' if f.prototypical
                             else f'    filler "{f.pattern}"')
        for link in kb.links:
            if link.source == s.name and link.relation == "kind-of":
                lines.append(f"  kindof {link.target}")
        if s.controlled_by is not None:
            lines.append(f"  controlled-by {s.controlled_by}")
        for link in kb.links:
            if link.source == s.name and link.relation == "uses":
                lines.append(f"  uses {link.target} as {link.as_slot}")
    for d in kb.discourse_rules:
        lines.append(f'discourse {d.id} check {d.check} "{d.statement}"')
    for r in kb.rules:
        direction = "data" if r.direction == DATA_DRIVEN else "concept"
        cues = ", ".join(str(c) for c in r.conditions)
        text = f"rule {r.id} {direction}: if {cues} then activate {r.activates}"
        for slot, pat in r.bindings:
            text += f', bind {slot}="{pat}"'
        lines.append(text)
    return "\n".join(lines) + "\n"


_CUE_RX = re.compile(
    r'(?P<kind>name|init|update|loopform|comment)~"(?P<pat>[^"]*)"'
    r"|type=(?P<type>[a-z]+)"
    r"|loop=(?P<loop>while|repeat|for)"
    r"|schema=(?P<schema>[A-Za-z_][A-Za-z0-9_]*)")


def _parse_cue(text, lineno):
    m = _CUE_RX.fullmatch(text.strip())
    if not m:
        raise KbFormatError(f"bad cue {text.strip()!r}", lineno)
    if m.group("kind"):
        return Cue(m.group("kind"), m.group("pat"))
    if m.group("type"):
        return Cue("type", m.group("type"))
    if m.group("loop"):
        return Cue("loop", m.group("loop"))
    return Cue("schema", m.group("schema"))


_RULE_RX = re.compile(
    r"rule\s+(?P<id>\S+)\s+(?P<dir>data|concept):\s*if\s+(?P<cues>.*?)"
    r"\s+then\s+activate\s+(?P<schema>[A-Za-z_][A-Za-z0-9_]*)(?P<binds>.*)$")
_BIND_RX = re.compile(r'bind\s+(?P<slot>[A-Za-z_][A-Za-z0-9_-]*)="(?P<pat>[^"]*)"')
_DISCOURSE_RX = re.compile(
    r'discourse\s+(?P<id>\S+)\s+check\s+(?P<check>\S+)\s+"(?P<stmt>[^"]*)"$')


def _split_cues(text):
    # cue patterns never contain commas, so a plain split is safe
    return [part for part in (p.strip() for p in text.split(",")) if part]


def load_kb(text: str) -> KnowledgeBase:
    """Parse the line-oriented KB format and validate the result."""
    kb = KnowledgeBase()
    schema = None
    slot = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        words = stripped.split()
        head = words[0]
        if head == "schema":
            if len(words) != 4 or words[2] != "kind":
                raise KbFormatError("expected: schema <Name> kind <kind>", lineno)
            if words[3] not in SCHEMA_KINDS:
                raise KbFormatError(f"unknown schema kind {words[3]!r}", lineno)
            schema = Schema(words[1], words[3])
            kb.schemas.append(schema)
            slot = None
        elif head == "desc":
            m = re.fullmatch(r'desc\s+"(?P<d>[^"]*)"', stripped)
            if not m or schema is None:
                raise KbFormatError("desc outside a schema or malformed", lineno)
            schema.description = m.group("d")
        elif head in ("goal", "controlled-by"):
            if len(words) != 2 or schema is None:
                raise KbFormatError(f"expected: {head} <name> inside a schema", lineno)
            if head == "goal":
                schema.goal = words[1]
            else:
                schema.controlled_by = words[1]
        elif head == "names":
            if len(words) < 2 or schema is None:
                raise KbFormatError("expected: names <stem>... inside a schema", lineno)
            # stems are matched against lowercased variable names
            schema.names = tuple(w.lower() for w in words[1:])
        elif head == "slot":
            if schema is None:
                raise KbFormatError("slot outside a schema", lineno)
            if len(words) == 3 and words[2] == "mandatory":
                slot = Slot(words[1], True)
            elif len(words) == 2:
                slot = Slot(words[1], False)
            else:
                raise KbFormatError("expected: slot <name> [mandatory]", lineno)
            schema.slots.append(slot)
        elif head == "filler":
            m = re.fullmatch(r'filler\s+"(?P<p>[^"]*)"(?P<proto>\s+proto)?', stripped)
            if not m or slot is None:
                raise KbFormatError("filler outside a slot or malformed", lineno)
            slot.fillers.append(Filler(m.group("p"), bool(m.group("proto"))))
        elif head == "kindof":
            if len(words) != 2 or schema is None:
                raise KbFormatError("expected: kindof <ParentName>", lineno)
            kb.links.append(Link("kind-of", schema.name, words[1]))
        elif head == "uses":
            if len(words) != 4 or words[2] != "as" or schema is None:
                raise KbFormatError("expected: uses <ChildName> as <slotname>", lineno)
            kb.links.append(Link("uses", schema.name, words[1], words[3]))
        elif head == "discourse":
            m = _DISCOURSE_RX.fullmatch(stripped)
            if not m:
                raise KbFormatError("malformed discourse rule", lineno)
            kb.discourse_rules.append(DiscourseRule(m.group("id"), m.group("check"),
                                                    m.group("stmt")))
            schema = slot = None
        elif head == "rule":
            m = _RULE_RX.fullmatch(stripped)
            if not m:
                raise KbFormatError("malformed production rule", lineno)
            direction = DATA_DRIVEN if m.group("dir") == "data" else CONCEPTUALLY_DRIVEN
            conditions = [_parse_cue(c, lineno) for c in _split_cues(m.group("cues"))]
            bindings = [(b.group("slot"), b.group("pat"))
                        for b in _BIND_RX.finditer(m.group("binds"))]
            kb.rules.append(ProductionRule(m.group("id"), direction, conditions,
                                           m.group("schema"), bindings))
            schema = slot = None
        else:
            raise KbFormatError(f"unrecognized directive {head!r}", lineno)
    diagnostics = validate_kb(kb)
    if diagnostics:
        raise KbValidationError(diagnostics)
    return kb
