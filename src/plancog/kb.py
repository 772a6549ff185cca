"""Frame-based plan knowledge: schemas with slots, fillers and their
specialization and implementation links, discourse rules and production rules.

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


_IDENT = re.compile(_IDENT_RX + r"\Z")
_LEADING_WORD = re.compile(r"[a-z]*")


# keyed by pattern alone, so it holds one entry per library pattern whatever
# the programs matched against them
@lru_cache(maxsize=1024)
def pattern_matcher(pattern: str):
    """`pattern_matches` for one pattern, as a function of the normalized
    text and the lowercased variable (or None), specialized to the pattern's
    form: a loop word reads the leading word, and a pattern without `<v>`
    ignores the variable."""
    if pattern in LOOP_WORDS:
        words = ("repeat", "while", "for") if pattern == "iteration" else (pattern,)
        return lambda text, var=None: _LEADING_WORD.match(text).group() in words
    rx = re.compile(_regex(normalize(pattern), None))
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
    kind_of: tuple[str, ...] = ()      # schemas this one specializes
    uses: tuple[tuple[str, str], ...] = ()     # (schema, slot): a schema filling a slot

    def slot(self, name) -> Slot | None:
        return next((s for s in self.slots if s.name == name), None)

    @cached_property
    def binder(self):
        """The schema compiled for recognition (`activation._Binder`), built
        by the first recognition that needs it and kept with the schema."""
        from .activation import _Binder     # activation imports this module
        return _Binder(self)


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
    discourse_rules: tuple[DiscourseRule, ...] = ()
    rules: tuple[ProductionRule, ...] = ()

    @cached_property
    def _index(self):
        """("schema", name) and ("rule", id) -> the first of that name;
        ("children", name) -> the schemas that are a kind of it, in schema order."""
        out = {}
        for s in reversed(self.schemas):
            out["schema", s.name] = s
        for r in reversed(self.rules):
            out["rule", r.id] = r
        for s in self.schemas:
            for parent in s.kind_of:
                out.setdefault(("children", parent), []).append(s.name)
        return out

    @cached_property
    def rules_by_direction(self) -> dict[str, tuple[ProductionRule, ...]]:
        """The production rules of each direction, in library order."""
        return {d: tuple(r for r in self.rules if r.direction == d)
                for d in (DATA_DRIVEN, CONCEPTUALLY_DRIVEN)}

    @cached_property
    def _loop_roots(self) -> dict:
        return {}                         # id(schema) -> `loop_root(schema)`

    def loop_root(self, schema):
        """`schema`, a plan bound per loop, compiled against this library
        (`activation._LoopRoot`) when a recognition first binds it, so that
        a library loaded for one request compiles only the roots it binds."""
        plan = self._loop_roots.get(id(schema))
        if plan is None:
            from .activation import _LoopRoot   # activation imports this module
            plan = self._loop_roots[id(schema)] = _LoopRoot(self, schema)
        return plan

    def schema(self, name) -> Schema | None:
        return self._index.get(("schema", name))

    def rule(self, rule_id) -> ProductionRule | None:
        return self._index.get(("rule", rule_id))

    def children(self, name) -> list[str]:
        """Direct kind-of specializations of a schema, in schema order."""
        return list(self._index.get(("children", name), ()))


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
    """Empty list iff every structural invariant holds and every name and text
    fits its line of the file format, so that the library loads from its dump."""
    return _check_structure(kb) + [
        Diagnostic("unwritable-text", subject, f"{what} {text!r} cannot be written in a KB line")
        for subject, what, text, fits in _fields(kb) if not fits(text)]


def _check_structure(kb):
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

    for s in kb.schemas:
        for target in (*s.kind_of, *(target for target, _ in s.uses)):
            if target not in names:
                out.append(Diagnostic("dangling-link", f"{s.name}->{target}",
                                      "link endpoint does not exist"))
        for target, slot in s.uses:
            if target in names and not slot:
                out.append(Diagnostic("missing-slot", f"{s.name}->{target}",
                                      "uses link without a slot"))
            elif target in names and s.slot(slot) is None:
                out.append(Diagnostic("unknown-slot", f"{s.name}.{slot}",
                                      "uses link names a slot the schema lacks"))

    # a schema lies on a kind-of cycle when it is its own ancestor; one
    # diagnostic per cycle, naming the schemas that are each other's ancestors
    ancestors = {}
    for node in names:
        seen, frontier = set(), [node]
        while frontier:
            for parent in names[frontier.pop()].kind_of:
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

    seen_rules = set()
    for r in kb.rules:
        if r.id in seen_rules:
            out.append(Diagnostic("duplicate-rule", r.id, "rule id declared twice"))
        seen_rules.add(r.id)
        if r.direction not in (DATA_DRIVEN, CONCEPTUALLY_DRIVEN):
            out.append(Diagnostic("bad-direction", r.id,
                                  f"unknown direction {r.direction!r}"))
        if r.activates not in names:
            out.append(Diagnostic("unknown-schema", r.id,
                                  f"rule activates unknown schema {r.activates!r}"))
        else:
            for slot, _ in r.bindings:
                if names[r.activates].slot(slot) is None:
                    out.append(Diagnostic("unknown-slot", f"{r.id}.{slot}",
                                          "rule binds a slot the schema lacks"))
        for c in r.conditions:
            if (c.line, c.node) != (0, None):
                out.append(Diagnostic("placed-cue", r.id,
                                      f"condition {c} holds a program line or node"))
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


def _fields(kb):
    """(subject, what, text, fits) for each name and text of a library, where
    `fits` tells whether its line can hold the text; `load_kb` reads no other."""
    for s in kb.schemas:
        yield s.name, "schema name", s.name, _is_word
        yield s.name, "desc", s.description, _is_text
        if s.goal is not None:
            yield s.name, "goal", s.goal, _is_word
        for stem in s.names:        # stems are read lowercased
            yield s.name, "stem", stem, lambda x: x == x.lower() and _is_word(x)
        for slot in s.slots:
            yield f"{s.name}.{slot.name}", "slot name", slot.name, _is_word
            for f in slot.fillers:
                yield f"{s.name}.{slot.name}", "filler", f.pattern, _is_text
    for d in kb.discourse_rules:
        yield d.id, "discourse id", d.id, _is_word
        yield d.id, "statement", d.statement, _is_text
    for r in kb.rules:
        yield r.id, "rule id", r.id, _is_word
        yield r.id, "activated schema", r.activates, _is_name
        for c in r.conditions:
            if c.kind in CUE_KINDS:         # another kind is a bad-cue
                yield r.id, "cue", str(c), _CUE_RX.fullmatch
        for slot, pat in r.bindings:
            yield r.id, "bound slot", slot, _is_slot
            yield r.id, "bind pattern", pat, _is_text


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
    return list(kb.schema(schema).uses)


# --- file format ------------------------------------------------------------

# What a line can hold, as the format has no escape: the line patterns are
# built from these. A word line's names are `str.split` words, `\S+` runs.
_TEXT = '[^"\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*'   # quoted: no quote, nothing ends a line
_WORD = r"\S+"
_NAME = "[A-Za-z_][A-Za-z0-9_]*"     # a schema in a rule line
_SLOT = "[A-Za-z_][A-Za-z0-9_-]*"    # a slot in a rule line's binding
_is_text, _is_word, _is_name, _is_slot = (re.compile(f).fullmatch
                                          for f in (_TEXT, _WORD, _NAME, _SLOT))


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
        for parent in s.kind_of:
            lines.append(f"  kindof {parent}")
        if s.controlled_by is not None:
            lines.append(f"  controlled-by {s.controlled_by}")
        for target, as_slot in s.uses:
            lines.append(f"  uses {target} as {as_slot}")
    for d in kb.discourse_rules:
        lines.append(f'discourse {d.id} check {d.check} "{d.statement}"')
    for r in kb.rules:
        direction = "data" if r.direction == DATA_DRIVEN else "concept"
        cues = ", ".join(str(c) for c in r.conditions)
        binds = "".join(f', bind {slot}="{pat}"' for slot, pat in r.bindings)
        lines.append(f"rule {r.id} {direction}: if {cues} then activate {r.activates}{binds}")
    return "\n".join(lines) + "\n"


# a cue's payload is the group named after its kind
_CUE_RX = re.compile("|".join([f'{kind}~"(?P<{kind}>{_TEXT})"' for kind in _QUOTED_CUE_KINDS] + [
    "type=(?P<type>[a-z]+)", "loop=(?P<loop>while|repeat|for)", f"schema=(?P<schema>{_NAME})"]))
# the conditions end at the `then activate` outside quotes that the line's rest follows
_RULE_RX = re.compile(
    rf'rule\s+(?P<id>{_WORD})\s+(?P<dir>data|concept):\s*if\s+'
    rf'(?P<cues>(?:[^"]*"{_TEXT}")*?[^"]*?)\s+then\s+activate\s+(?P<schema>{_NAME})'
    rf'(?P<binds>(?:\s*,\s*bind\s+{_SLOT}="{_TEXT}")*)')
# a condition: from a non-blank to the next comma outside quotes, less trailing blanks
_CONDITION_RX = re.compile(r'(?=[^,\s])[^,"]*(?:"[^"]*"[^,"]*)*(?<!\s)')
_BIND_RX = re.compile(rf'bind\s+({_SLOT})="({_TEXT})"')
_DESC_RX = re.compile(rf'desc\s+"(?P<d>{_TEXT})"')
_FILLER_RX = re.compile(rf'filler\s+"(?P<p>{_TEXT})"(?P<proto>\s+proto)?')
_DISCOURSE_RX = re.compile(rf'discourse\s+({_WORD})\s+check\s+({_WORD})\s+"({_TEXT})"')


def _parse_cue(text, lineno):
    m = _CUE_RX.fullmatch(text)
    if not m:
        raise KbFormatError(f"bad cue {text!r}", lineno)
    return Cue(m.lastgroup, m[m.lastgroup])


def load_kb(text: str) -> KnowledgeBase:
    """Parse the line-oriented KB format and validate the result."""
    # per schema, its fields and its slots as [name, mandatory, fillers] as
    # they are read; the records are made once the text is read
    specs, discourse_rules, rules = [], [], []
    schema = slots = slot = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a blank line has no words, and a comment's first word starts with
        # `#`; the directives are tested in the order of how often the
        # built-in library uses them
        words = raw.split()
        if not words or words[0][0] == "#":
            continue
        head = words[0]
        if head == "slot":
            if schema is None:
                raise KbFormatError("slot outside a schema", lineno)
            arity = len(words)
            if arity != 2 and (arity != 3 or words[2] != "mandatory"):
                raise KbFormatError("expected: slot <name> [mandatory]", lineno)
            slot = [words[1], arity == 3, []]
            slots.append(slot)
        elif head == "filler":
            m = _FILLER_RX.fullmatch(raw.strip())
            if not m or slot is None:
                raise KbFormatError("filler outside a slot or malformed", lineno)
            slot[2].append(Filler(m.group("p"), bool(m.group("proto"))))
        elif head == "schema":
            if len(words) != 4 or words[2] != "kind":
                raise KbFormatError("expected: schema <Name> kind <kind>", lineno)
            if words[3] not in SCHEMA_KINDS:
                raise KbFormatError(f"unknown schema kind {words[3]!r}", lineno)
            schema = {"name": words[1], "kind": words[3], "kind_of": (), "uses": ()}
            slots, slot = [], None
            specs.append((schema, slots))
        elif head == "desc":
            m = _DESC_RX.fullmatch(raw.strip())
            if not m or schema is None:
                raise KbFormatError("desc outside a schema or malformed", lineno)
            schema["description"] = m.group("d")
        elif head == "uses":
            if len(words) != 4 or words[2] != "as" or schema is None:
                raise KbFormatError("expected: uses <ChildName> as <slotname>", lineno)
            schema["uses"] += ((words[1], words[3]),)
        elif head == "rule":
            m = _RULE_RX.fullmatch(raw.strip())
            if not m:
                raise KbFormatError("malformed production rule", lineno)
            direction = DATA_DRIVEN if m["dir"] == "data" else CONCEPTUALLY_DRIVEN
            conditions = tuple([_parse_cue(c, lineno) for c in _CONDITION_RX.findall(m["cues"])])
            rules.append(ProductionRule(m["id"], direction, conditions, m["schema"],
                                        tuple(_BIND_RX.findall(m["binds"]))))
            schema = slot = None
        elif head in ("goal", "controlled-by"):
            if len(words) != 2 or schema is None:
                raise KbFormatError(f"expected: {head} <name> inside a schema", lineno)
            schema[head.replace("-", "_")] = words[1]
        elif head == "names":
            if len(words) < 2 or schema is None:
                raise KbFormatError("expected: names <stem>... inside a schema", lineno)
            # stems are matched against lowercased variable names
            schema["names"] = tuple(w.lower() for w in words[1:])
        elif head == "kindof":
            if len(words) != 2 or schema is None:
                raise KbFormatError("expected: kindof <ParentName>", lineno)
            schema["kind_of"] += (words[1],)
        elif head == "discourse":
            m = _DISCOURSE_RX.fullmatch(raw.strip())
            if not m:
                raise KbFormatError("malformed discourse rule", lineno)
            discourse_rules.append(DiscourseRule(*m.groups()))
            schema = slot = None
        else:
            raise KbFormatError(f"unrecognized directive {head!r}", lineno)
    schemas = tuple([Schema(**fields, slots=tuple([Slot(name, mandatory, tuple(fillers))
                                                   for name, mandatory, fillers in slots]))
                     for fields, slots in specs])
    kb = KnowledgeBase(schemas, tuple(discourse_rules), tuple(rules))
    diagnostics = _check_structure(kb)     # every name and text was read by its line
    if diagnostics:
        raise KbValidationError(diagnostics)
    return kb
