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

Each pattern is compiled once per process, whatever the variable, into one
matcher function (`pattern_matcher`): the first ``<v>`` is a captured group,
later ones repeat it, and a match with a plan variable succeeds when the
captured identifier is that variable. When the capture is another
identifier (``<v>1<int>`` captures ``x1`` in ``x111`` where the variable is
``x``), the pattern is matched once more with the variable's own text in
place of ``<v>``; that regular expression is not kept here, so nothing held
grows with the variables seen.

``~`` cues use substring matching for names and comments and whole-text
pattern matching for initialization/update/loop forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

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
_QUOTED_CUE_KINDS = ("name", "init", "update", "loopform", "comment")   # written kind~"..."
LOOP_WORDS = ("iteration", "repeat", "while", "for")
DISCOURSE_CHECKS = ("name-reflects-function", "no-double-duty", "no-unused-plan-part")


# --- pattern language ----------------------------------------------------

def normalize(text: str) -> str:
    # str.split splits at exactly the characters that `\s` matches
    return "".join(text.split()).lower()


_PATTERN_TOKEN = re.compile(r"<v>|<w>|<int>")
_IDENT_RX = r"[a-z_][a-z0-9_]*"


@lru_cache(maxsize=1024)
def pattern_ok(pattern: str) -> bool:
    """True when every <word> wildcard is a known one (bare `<`, `<=` and the
    `<>` operator are literal characters)."""
    return all(m.group(1) in ("v", "w", "int")
               for m in re.finditer(r"<([a-z]+)>", normalize(pattern)))


def _regex(pattern: str, var: str | None) -> str:
    """Regular expression for a normalized pattern. With a variable, `<v>`
    is that variable's text; without one, the first `<v>` captures an
    identifier as group `v` and later ones must repeat it."""
    out = []
    pos = 0
    seen_v = False
    for m in _PATTERN_TOKEN.finditer(pattern):
        out.append(re.escape(pattern[pos:m.start()]))
        tok = m.group()
        if tok == "<v>":
            if var is not None:
                out.append(re.escape(var))
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
    return "".join(out) + r"\Z"


# keyed by pattern alone, so it holds one entry per library pattern whatever
# the programs matched against them
@lru_cache(maxsize=1024)
def _compile(pattern: str) -> re.Pattern:
    return re.compile(_regex(normalize(pattern), None))


_IDENT = re.compile(_IDENT_RX + r"\Z")
_WORD = re.compile(r"[a-z]*")


@lru_cache(maxsize=1024)
def pattern_matcher(pattern: str):
    """`pattern_matches` for one pattern, as a function of the normalized
    text and the lowercased variable (or None), specialized to the pattern's
    form: a loop word reads the leading word, and a pattern without `<v>`
    ignores the variable."""
    if pattern in LOOP_WORDS:
        words = ("repeat", "while", "for") if pattern == "iteration" else (pattern,)
        return lambda text, var=None: _WORD.match(text).group() in words
    rx = _compile(pattern)
    match = rx.match
    if "v" not in rx.groupindex:
        return lambda text, var=None: match(text) is not None

    def matches(text, var=None):
        m = match(text)
        if var is None or (m is None and _IDENT.match(var)):
            return m is not None
        if m is not None and m.group("v") == var:
            return True
        # the capture is another identifier (`<v>1<int>` on `x111` captures
        # `x1`, yet var `x` fits too), or var is no identifier: write var in
        return re.match(_regex(normalize(pattern), var), text) is not None
    return matches


def pattern_matches(pattern: str, text: str, var: str | None = None) -> bool:
    """Whole-text match of a filler/cue pattern against statement text,
    normalized here. `<v>` must be `var` when one is given."""
    return pattern_matcher(pattern)(normalize(text), var.lower() if var else None)


def instantiate_pattern(pattern: str, var: str) -> str | None:
    """Concrete text for a pattern, or None when free wildcards remain."""
    if "<w>" in pattern or "<int>" in pattern or pattern in LOOP_WORDS:
        return None
    return pattern.replace("<v>", var)


# --- domain types ---------------------------------------------------------

@dataclass(frozen=True)
class Filler:
    pattern: str
    prototypical: bool = False


@dataclass(frozen=True)
class Slot:
    name: str
    mandatory: bool = False
    fillers: tuple[Filler, ...] = ()

    def prototypical(self) -> Filler | None:
        return next((f for f in self.fillers if f.prototypical), None)


@dataclass(frozen=True)
class Schema:
    name: str
    kind: str
    description: str = ""
    slots: tuple[Slot, ...] = ()
    goal: str | None = None            # goal-tree node name; default derived from name
    names: tuple[str, ...] = ()        # name stems that reflect the plan's function
    controlled_by: str | None = None   # slot whose child variable the exit test reads

    def slot(self, name) -> Slot | None:
        return next((s for s in self.slots if s.name == name), None)

    @cached_property
    def binder(self):
        """The schema compiled for recognition (`activation._Binder`), built
        by the first recognition that needs it and kept with the schema."""
        from .activation import _Binder     # activation imports this module
        return _Binder(self)


@dataclass(frozen=True)
class Link:
    relation: str          # kind-of | uses
    source: str
    target: str
    as_slot: str | None = None


@dataclass(frozen=True)
class DiscourseRule:
    id: str
    check: str
    statement: str


@dataclass(frozen=True)
class Cue:
    kind: str
    payload: str
    line: int = 0
    node: object = None    # a beacon's declaration or statement record (CFG node)

    def __str__(self):
        if self.kind in ("loop", "type", "schema"):
            return f"{self.kind}={self.payload}"
        return f'{self.kind}~"{self.payload}"'


@dataclass(frozen=True)
class ProductionRule:
    id: str
    direction: str
    conditions: tuple[Cue, ...]
    activates: str
    bindings: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class KnowledgeBase:
    """A plan library. It and every record it holds are frozen dataclasses
    whose sequences are tuples, so one library can be shared by all its
    callers. Lookups read one map, and the rules by direction and each
    schema's binder are compiled for recognition, each built on first use.
    Building a library validates nothing: `load_kb` validates, and
    `validate_kb` reports on any library."""
    schemas: tuple[Schema, ...] = ()
    links: tuple[Link, ...] = ()
    discourse_rules: tuple[DiscourseRule, ...] = ()
    rules: tuple[ProductionRule, ...] = ()

    @cached_property
    def _index(self):
        """("schema", name) and ("rule", id) -> the first of that name; in link
        order, ("children", name) -> sources of kind-of links to a schema,
        ("parents", name) -> their targets from it, ("uses", name) -> (target,
        slot) pairs of its uses links."""
        out = {}
        for s in reversed(self.schemas):
            out["schema", s.name] = s
        for r in reversed(self.rules):
            out["rule", r.id] = r
        for l in self.links:
            if l.relation == "kind-of":
                out.setdefault(("children", l.target), []).append(l.source)
                out.setdefault(("parents", l.source), []).append(l.target)
            elif l.relation == "uses":
                out.setdefault(("uses", l.source), []).append((l.target, l.as_slot))
        return out

    @cached_property
    def rules_by_direction(self) -> dict[str, tuple[ProductionRule, ...]]:
        """The production rules of each direction, in library order."""
        return {d: tuple(r for r in self.rules if r.direction == d)
                for d in (DATA_DRIVEN, CONCEPTUALLY_DRIVEN)}

    def schema(self, name) -> Schema | None:
        return self._index.get(("schema", name))

    def rule(self, rule_id) -> ProductionRule | None:
        return self._index.get(("rule", rule_id))

    def children(self, name) -> list[str]:
        """Direct kind-of specializations of a schema, in link order."""
        return list(self._index.get(("children", name), ()))

    def parents(self, name) -> list[str]:
        """Schemas a schema is a kind of, in link order."""
        return list(self._index.get(("parents", name), ()))

    def uses(self, name) -> list[tuple[str, str]]:
        """Direct uses links of a schema as (target, slot) pairs, in link order."""
        return list(self._index.get(("uses", name), ()))


@dataclass
class Diagnostic:
    code: str
    subject: str
    message: str

    def __str__(self):
        return f"{self.code} [{self.subject}]: {self.message}"


# --- built-in library -----------------------------------------------------

@lru_cache(maxsize=None)
def builtin_kb() -> KnowledgeBase:
    """The built-in plan library: variable plans, the running-total loop
    family, a linear-search algorithm plan, a flag plan, the stock-management
    problem schema, two discourse rules and the production rules R1..R15. It
    is read from `builtin.kb` beside this module on the first call; every
    call returns that one library."""
    return load_kb((resources.files(__package__) / "builtin.kb").read_text(encoding="utf-8"))


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
        if _UNWRITABLE.search(s.description):
            out.append(_unwritable(s.name, "desc", s.description))
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
                if _UNWRITABLE.search(f.pattern):
                    out.append(_unwritable(f"{s.name}.{slot.name}", "filler", f.pattern))
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

    # a schema lies on a kind-of cycle when it is its own ancestor; one
    # diagnostic per cycle, naming the schemas that are each other's ancestors
    ancestors = {}
    for node in names:
        seen, frontier = set(), [node]
        while frontier:
            for parent in kb.parents(frontier.pop()):
                if parent in names and parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        ancestors[node] = seen
    reported = set()
    for node in sorted(n for n, seen in ancestors.items() if n in seen):
        if node not in reported:
            cycle = {a for a in ancestors[node] if node in ancestors.get(a, ())}
            reported |= cycle
            out.append(Diagnostic("cycle", " -> ".join(sorted(cycle)),
                                  "kind-of relation is cyclic"))

    for d in kb.discourse_rules:
        if d.check not in DISCOURSE_CHECKS:
            out.append(Diagnostic("bad-check", d.id, f"unknown predicate {d.check!r}"))
        if _UNWRITABLE.search(d.statement):
            out.append(_unwritable(d.id, "statement", d.statement))

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
            if c.kind in _QUOTED_CUE_KINDS and _UNWRITABLE.search(c.payload):
                out.append(_unwritable(r.id, "cue", c.payload))
        for _, pat in r.bindings:
            if not pattern_ok(pat):
                out.append(Diagnostic("bad-pattern", r.id, f"unparseable pattern {pat!r}"))
            if _UNWRITABLE.search(pat):
                out.append(_unwritable(r.id, "bind pattern", pat))
    return out


# what a quoted field of the file format cannot hold, as the format has no
# escape: a quote, or a character at which `str.splitlines` ends a line
_UNWRITABLE = re.compile('["\n\r\v\f\x1c-\x1e\x85\u2028\u2029]')


def _unwritable(subject, what, text):
    return Diagnostic("unwritable-text", subject, f"{what} {text!r} holds a quote or a line break")


# --- link queries ----------------------------------------------------------

def specializations(kb: KnowledgeBase, schema: str) -> list[str]:
    """Transitive kind-of descendants, alphabetical."""
    if kb.schema(schema) is None:
        raise KbValidationError([Diagnostic("unknown-schema", schema, "no such schema")])
    out = set()
    frontier = [schema]
    while frontier:
        node = frontier.pop()
        for c in kb.children(node):
            if c not in out:
                out.add(c)
                frontier.append(c)
    return sorted(out)


def implementations(kb: KnowledgeBase, schema: str) -> list[tuple[str, str]]:
    """Direct uses links as (target schema, slot) pairs."""
    if kb.schema(schema) is None:
        raise KbValidationError([Diagnostic("unknown-schema", schema, "no such schema")])
    return kb.uses(schema)


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
        for parent in kb.parents(s.name):
            lines.append(f"  kindof {parent}")
        if s.controlled_by is not None:
            lines.append(f"  controlled-by {s.controlled_by}")
        for target, as_slot in kb.uses(s.name):
            lines.append(f"  uses {target} as {as_slot}")
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
    rf'(?P<kind>{"|".join(_QUOTED_CUE_KINDS)})~"(?P<pat>[^"]*)"'
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
_DESC_RX = re.compile(r'desc\s+"(?P<d>[^"]*)"')
_FILLER_RX = re.compile(r'filler\s+"(?P<p>[^"]*)"(?P<proto>\s+proto)?')
_DISCOURSE_RX = re.compile(
    r'discourse\s+(?P<id>\S+)\s+check\s+(?P<check>\S+)\s+"(?P<stmt>[^"]*)"$')


def _split_cues(text):
    """The cues of a rule's conditions: `text` split at each comma outside
    quotes, as a cue pattern may hold commas."""
    cues = []
    for part in text.split(","):
        if cues and cues[-1].count('"') % 2:
            cues[-1] += "," + part      # a quote is open: the comma is in a pattern
        else:
            cues.append(part)
    return [cue for cue in map(str.strip, cues) if cue]


def load_kb(text: str) -> KnowledgeBase:
    """Parse the line-oriented KB format and validate the result."""
    # per schema, its fields and its slots as [name, mandatory, fillers] as
    # they are read; the records are made once the text is read
    specs, links, discourse_rules, rules = [], [], [], []
    schema = slots = slot = None
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
            schema, slots, slot = {"name": words[1], "kind": words[3]}, [], None
            specs.append((schema, slots))
        elif head == "desc":
            m = _DESC_RX.fullmatch(stripped)
            if not m or schema is None:
                raise KbFormatError("desc outside a schema or malformed", lineno)
            schema["description"] = m.group("d")
        elif head in ("goal", "controlled-by"):
            if len(words) != 2 or schema is None:
                raise KbFormatError(f"expected: {head} <name> inside a schema", lineno)
            schema[head.replace("-", "_")] = words[1]
        elif head == "names":
            if len(words) < 2 or schema is None:
                raise KbFormatError("expected: names <stem>... inside a schema", lineno)
            # stems are matched against lowercased variable names
            schema["names"] = tuple(w.lower() for w in words[1:])
        elif head == "slot":
            if schema is None:
                raise KbFormatError("slot outside a schema", lineno)
            if len(words) == 3 and words[2] == "mandatory":
                slot = [words[1], True, []]
            elif len(words) == 2:
                slot = [words[1], False, []]
            else:
                raise KbFormatError("expected: slot <name> [mandatory]", lineno)
            slots.append(slot)
        elif head == "filler":
            m = _FILLER_RX.fullmatch(stripped)
            if not m or slot is None:
                raise KbFormatError("filler outside a slot or malformed", lineno)
            slot[2].append(Filler(m.group("p"), bool(m.group("proto"))))
        elif head == "kindof":
            if len(words) != 2 or schema is None:
                raise KbFormatError("expected: kindof <ParentName>", lineno)
            links.append(Link("kind-of", schema["name"], words[1]))
        elif head == "uses":
            if len(words) != 4 or words[2] != "as" or schema is None:
                raise KbFormatError("expected: uses <ChildName> as <slotname>", lineno)
            links.append(Link("uses", schema["name"], words[1], words[3]))
        elif head == "discourse":
            m = _DISCOURSE_RX.fullmatch(stripped)
            if not m:
                raise KbFormatError("malformed discourse rule", lineno)
            discourse_rules.append(DiscourseRule(m.group("id"), m.group("check"),
                                                 m.group("stmt")))
            schema = slot = None
        elif head == "rule":
            m = _RULE_RX.fullmatch(stripped)
            if not m:
                raise KbFormatError("malformed production rule", lineno)
            direction = DATA_DRIVEN if m.group("dir") == "data" else CONCEPTUALLY_DRIVEN
            conditions = tuple([_parse_cue(c, lineno) for c in _split_cues(m.group("cues"))])
            bindings = tuple([(b.group("slot"), b.group("pat"))
                              for b in _BIND_RX.finditer(m.group("binds"))])
            rules.append(ProductionRule(m.group("id"), direction, conditions,
                                        m.group("schema"), bindings))
            schema = slot = None
        else:
            raise KbFormatError(f"unrecognized directive {head!r}", lineno)
    schemas = tuple([Schema(**fields, slots=tuple([Slot(name, mandatory, tuple(fillers))
                                                   for name, mandatory, fillers in slots]))
                     for fields, slots in specs])
    kb = KnowledgeBase(schemas, tuple(links), tuple(discourse_rules), tuple(rules))
    diagnostics = validate_kb(kb)
    if diagnostics:
        raise KbValidationError(diagnostics)
    return kb
