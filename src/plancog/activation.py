"""Schema activation and instantiation.

The pipeline mirrors how an expert reader is modeled: surface beacons are
extracted from the code, data-driven production rules fire to a fixpoint
(newly active schemas can satisfy schema= conditions of further rules),
conceptually-driven expansion then walks kind-of and uses links downward,
and finally active schemas are instantiated by binding their slots to the
code. An activation names the rules that activated its schema; the cues
that support it are held by those rules' firings. A statement binding holds
the statement's record (its CFG node, see `relations`), a declaration
binding the declaration, and a loop binding the loop statement. Values a
rule merely infers become Expectations that are verified against the code
afterwards; coherence evaluation rechecks every binding and probes plan
interactions, concretely simulating whenever a counter works inside a loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import frontend as fe
from . import interpreter as run
from . import relations as rel
from .kb import (CONCEPTUALLY_DRIVEN, CONTROL, DATA_DRIVEN, VARIABLE, Cue,
                 KnowledgeBase, Slot, normalize, pattern_matcher)

DEFAULT_SIMULATION_INPUTS = (1, 2, 3, 99999)

OPEN = "open"
VERIFIED = "verified"
VIOLATED = "violated"

# slots bound to statements defining the plan variable
_CODE_SLOTS = {"initialization", "update", "read", "result", "output"}
# slots bound to a loop statement or its exit test
_LOOP_SLOTS = ("body", "loop", "header", "test")
# slots whose binding names an instance's own loop, in the order they are asked
_OWN_LOOP_SLOTS = (*_LOOP_SLOTS, "context")


@dataclass
class Activation:
    schema: str
    rule_ids: list[str]
    direction: str


@dataclass
class Firing:
    rule_id: str
    schema: str
    cues: list[Cue]

    def __str__(self):
        payload = ", ".join(str(c) for c in self.cues) or "(expansion)"
        return f"{self.rule_id}: {payload} => {self.schema}"


@dataclass
class Binding:
    node: object
    line: int
    text: str
    category: str  # decl | stmt | loop | cond
    slot: Slot | None = None           # the slot whose filler matched the text


@dataclass
class PlanInstance:
    schema: str
    kind: str
    variable: str | None = None
    bindings: dict[str, Binding] = field(default_factory=dict)
    children: list[tuple[str, "PlanInstance"]] = field(default_factory=list)
    mandatory: tuple[str, ...] = ()
    # fixed by `close` once binding ends
    complete: bool = field(default=False, init=False)
    _lines: tuple[int, ...] = field(default=(), init=False, repr=False)

    def close(self):
        """Fix completeness and part lines from the bindings and children."""
        filled = set(self.bindings) | {slot for slot, _ in self.children}
        self.complete = all(m in filled for m in self.mandatory)
        self._lines = tuple(sorted({b.line for slot, b in self.bindings.items()
                                    if b.category != "decl" and slot != "context"}))

    @property
    def status(self) -> str:
        return "complete" if self.complete else "partial"

    @property
    def label(self) -> str:
        suffix = self.variable if self.variable else f"@{self.anchor_line}"
        return f"{self.schema}[{suffix}]"

    def part_lines(self) -> list[int]:
        """Statement-bound slot lines, the plan's own code parts (declaration
        bindings and the context slot are environment, not parts)."""
        return list(self._lines)

    @property
    def anchor_line(self) -> int:
        if self._lines:
            return self._lines[0]
        return min([b.line for b in self.bindings.values()]
                   + [child.anchor_line for _, child in self.children], default=0)


@dataclass
class Expectation:
    instance: PlanInstance
    slot: str
    pattern: str
    state: str = OPEN
    resolved_line: int | None = None


@dataclass
class InternalEntry:
    instance: str
    slot: str
    constraint: str
    ok: bool
    line: int | None = None


@dataclass
class ExternalEntry:
    instances: tuple[str, str]
    description: str
    evidence: str                      # static | simulated
    inputs: list | None = None


@dataclass
class CoherenceReport:
    internal: list[InternalEntry] = field(default_factory=list)
    external: list[ExternalEntry] = field(default_factory=list)

    def incoherent_instances(self) -> set[str]:
        return {e.instance for e in self.internal if not e.ok}


# --- beacons ---------------------------------------------------------------

def extract_beacons(index: ProgramIndex) -> list[Cue]:
    """Surface cues: declared names and types, initialization and update
    forms, loop forms, comments. A statement's cue holds its record (its
    CFG node), a declaration's the declaration."""
    program, cfg = index.program, index.cfg
    cues = []
    for d in program.declarations:
        cues.append(Cue("name", d.name, d.line, d))
        cues.append(Cue("type", d.type, d.line, d))
    # the CFG makes simple statements' nodes in source order and lists loops
    # in preorder, so cues that sort equal stay in source order
    for node in cfg.nodes:
        s = node.stmt
        if isinstance(s, fe.Assign):
            cues.append(Cue("update" if node.reads_own else "init", node.text, node.line, node))
        elif isinstance(s, (fe.Readln, fe.Writeln)):
            cues.append(Cue("update", node.text, node.line, node))
    for node in cfg.loops:
        loop = node.stmt
        cues.append(Cue("loop", fe.loop_keyword(loop), loop.line, node))
        cues.append(Cue("loopform", fe.loop_form(loop), loop.line, node))
    for line, text in program.comments:
        cues.append(Cue("comment", text, line))
    cues.sort(key=lambda c: (c.line, c.kind, c.payload))
    return cues


def _cue_subject(cue: Cue) -> str | None:
    """The variable a variable-attribute cue is about: a declaration's name,
    the variable a statement defines, or else the one variable it reads."""
    node = cue.node
    if isinstance(node, fe.Decl):
        return node.name.lower()
    names = node.defs or node.uses
    return names[0] if len(names) == 1 else None


# cue kinds compared by substring or equality of the lowercased payload; the
# other kinds match a pattern against the normalized payload
_LITERAL_CUES = ("name", "comment", "type", "loop")
# cue kinds about one variable, which conditions of a rule must share
_VAR_ATTR = ("name", "type", "init", "update")


def _cue_table(cues):
    """Cues by kind, in order, as (cue, compared payload, subject) triples:
    each payload is lowercased or normalized once per activation."""
    table = {}
    for c in cues:
        text = c.payload.lower() if c.kind in _LITERAL_CUES else normalize(c.payload)
        subject = _cue_subject(c) if c.kind in _VAR_ATTR else None
        table.setdefault(c.kind, []).append((c, text, subject))
    return table


def _cue_satisfies(condition: Cue, text: str) -> bool:
    """Whether a cue of the condition's kind, with payload compared as
    `text`, meets the condition."""
    if condition.kind in ("name", "comment"):
        return condition.payload.lower() in text
    if condition.kind in ("type", "loop"):
        return condition.payload.lower() == text
    return pattern_matcher(condition.payload)(text)


# --- activation -------------------------------------------------------------

def _rule_fires(rule, table, active):
    """Return the supporting cues when every condition is met, else None.
    Variable-attribute conditions must be satisfied by one common variable."""
    support = []
    var_conditions = []
    for cond in rule.conditions:
        if cond.kind == "schema":
            if cond.payload not in active:
                return None
            continue
        matches = [entry for entry in table.get(cond.kind, ())
                   if _cue_satisfies(cond, entry[1])]
        if not matches:
            return None
        if cond.kind in _VAR_ATTR:
            var_conditions.append(matches)
        else:
            support.extend(c for c, _, _ in matches)
    if var_conditions:
        subjects = None
        for matches in var_conditions:
            here = {subject for _, _, subject in matches} - {None}
            subjects = here if subjects is None else subjects & here
        if not subjects:
            return None
        for matches in var_conditions:
            support.extend(c for c, _, subject in matches if subject in subjects)
    return support


def activate(kb: KnowledgeBase, cues) -> list[Activation]:
    """Fire data-driven rules to fixpoint, then expand conceptually."""
    activations, _ = activate_with_trace(kb, cues)
    return activations


def activate_with_trace(kb: KnowledgeBase, cues):
    table = _cue_table(cues)
    active: dict[str, set[str]] = {}   # schema -> ids of the rules that activated it
    data_driven = set()                # schemas a data-driven rule activated
    firings: list[Firing] = []

    def run_rules(direction):
        rules = [r for r in kb.rules if r.direction == direction]
        fired = {f.rule_id for f in firings}
        progressed = True
        while progressed:
            progressed = False
            for rule in rules:
                if rule.id in fired:
                    continue
                support = _rule_fires(rule, table, active)
                if support is None:
                    continue
                fired.add(rule.id)
                firings.append(Firing(rule.id, rule.activates, support))
                active.setdefault(rule.activates, set()).add(rule.id)
                if direction == DATA_DRIVEN:
                    data_driven.add(rule.activates)
                progressed = True

    run_rules(DATA_DRIVEN)

    # downward expansion across kind-of children and uses targets, joint
    # fixpoint with conceptually-driven rules
    expanded = set()
    while True:
        frontier = sorted(set(active) - expanded)
        if not frontier:
            before = len(active)
            run_rules(CONCEPTUALLY_DRIVEN)
            if len(active) == before:
                break
            continue
        for name in frontier:
            expanded.add(name)
            schema = kb.schema(name)       # None for a name a rule activates and no schema has
            for nxt in kb.children(name) + [t for t, _ in (schema.uses if schema else ())]:
                if nxt not in active:
                    active[nxt] = set()
                    firings.append(Firing("-", nxt, []))

    return [Activation(schema, sorted(active[schema]),
                       DATA_DRIVEN if schema in data_driven else CONCEPTUALLY_DRIVEN)
            for schema in sorted(active)], firings


# --- program index -----------------------------------------------------------

class ProgramIndex:
    """Per-program lookup tables, built once per recognition and read by
    every stage from beacon extraction on: with the program's CFG (`cfg`),
    whose nodes are the statements' records (see `relations`), and def-use
    chains (`defuse`).

    Slot candidates are built in one pass over the records; callers share
    the lists and do not change them. `normal[text]` is the text
    normalized, at most once per recognition."""

    def __init__(self, program: fe.Program):
        self.program = program
        self.cfg = rel.build_cfg(program)
        self.defuse = rel.def_use(program, self.cfg)
        self.decls = {d.name.lower(): d for d in program.declarations}
        self.defs = {}        # var -> records of its defining simple statements
        writes = []
        for node in self.cfg.nodes:
            if node.kind == rel.STMT:
                for var in node.defs:
                    self.defs.setdefault(var, []).append(node)
                if isinstance(node.stmt, fe.Writeln):
                    writes.append(node)
        self.candidates = self._variable_candidates(writes)
        self.loop_candidates = self._loop_candidates()
        self.normal = _Normalized()

    def _variable_candidates(self, writes):
        """{slot category: {var: [(node, line, text, category)] by line}},
        the node a statement's record or a declaration. A variable's first
        assignment, and any outside a loop, may initialize it; a later one,
        and any inside a loop, may update it; a WRITELN outputs the variable
        when it reads that one alone."""
        out = {name: {} for name in ("name", "type", "initialization", "update",
                                     "read", "result", "output")}
        for var, d in self.decls.items():
            out["name"][var] = [(d, d.line, d.name, "decl")]
            out["type"][var] = [(d, d.line, d.type, "decl")]
        for var, defs in self.defs.items():
            for i, node in enumerate(defs):
                cand = (node, node.line, node.text, "stmt")
                if isinstance(node.stmt, fe.Readln):
                    out["read"].setdefault(var, []).append(cand)
                    continue
                if i == 0 or not node.loops:
                    out["initialization"].setdefault(var, []).append(cand)
                if i > 0 or node.loops:
                    out["update"].setdefault(var, []).append(cand)
                out["result"].setdefault(var, []).append(cand)
        for node in writes:
            if len(node.uses) == 1:
                out["output"].setdefault(node.uses[0], []).append(
                    (node, node.line, node.text, "stmt"))
        for by_var in out.values():
            for cands in by_var.values():
                cands.sort(key=_line)
        return out

    def _loop_candidates(self):
        """{loop slot: [(loop, line, text, category)] by line}."""
        loops = [node.stmt for node in self.cfg.loops]
        out = {
            "body": [(l, l.line, fe.loop_keyword(l), "loop") for l in loops],
            "loop": [(l, l.line, fe.loop_form(l), "loop") for l in loops],
            "test": [(l, fe.test_line(l), fe.expr_text(l.cond), "cond")
                     for l in loops if isinstance(l, (fe.Repeat, fe.While))],
            "header": [(l, l.line, "for", "loop") for l in loops if isinstance(l, fe.For)],
        }
        for cands in out.values():
            cands.sort(key=_line)
        return out


class _Normalized(dict):
    """text -> normalized text, filled in as texts are looked up."""

    def __missing__(self, text):
        norm = self[text] = normalize(text)
        return norm


def _line(candidate):
    return candidate[1]


def _innermost_loops(records):
    """The innermost loop around each statement record inside one, each
    loop once, in the order first met."""
    loops = []
    for node in records:
        if node.loops and node.loops[-1] not in loops:
            loops.append(node.loops[-1])
    return loops


def _slot_candidates(index: ProgramIndex, instance: PlanInstance, slot_name: str):
    """Candidate (node, line, text, category) tuples a slot may bind to, by
    line."""
    var = instance.variable
    if slot_name == "context":
        loops = _innermost_loops(b.node for b in instance.bindings.values()
                                 if b.category == "stmt")
        if not loops and var:
            loops = _innermost_loops(index.defs.get(var, ()))
        return sorted(((l, l.line, fe.loop_keyword(l), "loop") for l in loops), key=_line)
    if slot_name in _LOOP_SLOTS:
        # the instance's own loop once a loop slot holds it, or else the
        # context slot, where a variable plan holds its loop
        candidates = index.loop_candidates[slot_name]
        bindings = instance.bindings
        own = next((bindings[name].node for name in _OWN_LOOP_SLOTS if name in bindings),
                   None)
        return candidates if own is None else [c for c in candidates if c[0] is own]
    if slot_name == "counter-update":
        slot_name = "update"
    if var and slot_name in index.candidates:
        return index.candidates[slot_name].get(var, [])
    return []


# --- instantiation ------------------------------------------------------------

def _slot_matcher(slot: Slot):
    """Whether some filler of the slot matches a normalized text for a
    lowercased variable (or None): the fillers' matchers, read once."""
    matchers = [pattern_matcher(f.pattern) for f in slot.fillers]
    if len(matchers) == 1:
        return matchers[0]

    def accepts(text, var):
        for match in matchers:
            if match(text, var):
                return True
        return False
    return accepts


# code slots first: a plan none of them fills is not bound at all, so the
# other slots only ever join a code binding
_BIND_ORDER = ("update", "read", "result", "initialization", "output",
               "context", "name", "type")


def _bind_order(entry):
    name = entry[0].name
    return _BIND_ORDER.index(name) if name in _BIND_ORDER else len(_BIND_ORDER)


class _CompiledSchema:
    """A schema compiled against its library for recognition, built when a
    recognition first binds it and kept in the library's `compiled` (see
    `_compiled`): its name, kind and mandatory slots; its slots in schema
    order, each as (slot, matcher, the mandatory names whose last slot it
    is), and so in bind order and by name; and, for a plan bound per loop,
    its uses slots that a variable plan fills, mandatory ones first, each
    with the schemas whose instance may fill it (the target, then its
    kind-of children), whether some filler mentions <v>, and the first
    kind-of child controlled by each slot as (name, kind, mandatory slots).
    It holds no reference to the library, which holds it, so that a library
    is freed without the cycle collector."""

    def __init__(self, kb, schema):
        self.name, self.kind = schema.name, schema.kind
        self.mandatory = tuple(s.name for s in schema.slots if s.mandatory)
        last = {slot.name: i for i, slot in enumerate(schema.slots)}
        settled = [()] * len(schema.slots)
        for name in dict.fromkeys(self.mandatory):
            settled[last[name]] += (name,)
        self.slots = [(slot, _slot_matcher(slot), names)
                      for slot, names in zip(schema.slots, settled)]
        self.order = sorted(self.slots, key=_bind_order)
        self.code_slots = [entry for entry in self.order if entry[0].name in _CODE_SLOTS]
        # reversed, so that the first of two slots with one name wins
        self.by_name = {entry[0].name: entry for entry in reversed(self.slots)}
        # a library that is not validated may use a schema it lacks
        self.uses = sorted(((slot, (target, *kb.children(target)))
                            for target, slot in schema.uses
                            if (used := kb.schema(target)) is not None
                            and used.kind == VARIABLE),
                           key=lambda u: u[0] not in self.mandatory)
        self.takes_variable = any("<v>" in f.pattern for s in schema.slots for f in s.fillers)
        self.controllers = {}
        for name in kb.children(schema.name):
            child = kb.schema(name)
            self.controllers.setdefault(child.controlled_by, (
                child.name, child.kind, tuple(s.name for s in child.slots if s.mandatory)))


def _compiled(kb, schema) -> _CompiledSchema:
    """`schema` compiled against `kb`, on the first call for the pair."""
    plan = kb.compiled.get(id(schema))
    if plan is None:
        plan = kb.compiled[id(schema)] = _CompiledSchema(kb, schema)
    return plan


def instantiate(kb: KnowledgeBase, index: ProgramIndex, activations):
    """Bind activated schemas to AST nodes; return (instances, expectations).
    Variable plans are bound per declared variable that one of their code
    slots can fill; every other active schema without a kind-of parent is
    bound per loop. Each instance's completeness and part lines are fixed
    once it is bound."""
    active = {a.schema: a for a in activations}
    instances: list[PlanInstance] = []
    roots = []
    for schema in kb.schemas:
        if schema.name not in active:
            continue
        plan = _compiled(kb, schema)
        if schema.kind in (VARIABLE, CONTROL) and plan.code_slots:
            first = {id(slot): _first_fillings(index, slot, match)
                     for slot, match, _ in plan.code_slots}
            for var in sorted(set().union(*first.values())):
                instances.append(_bind_variable_plan(plan, var, index, first))
        elif schema.kind != VARIABLE and not schema.kind_of:
            roots.append(plan)

    instances = _drop_shadowed(instances)
    instances.extend(_loop_plans(index, roots, instances))
    instances.sort(key=lambda i: (i.anchor_line, i.schema, i.variable or ""))

    expectations = _expectations(kb, active, instances)
    return instances, expectations


def _first_fillings(index, slot, match):
    """{declared variable: position of the first of its candidates the code
    slot accepts}, for the variables it can fill: each (slot, variable) pair
    is walked once."""
    normal, decls = index.normal, index.decls
    out = {}
    for var, candidates in index.candidates[slot.name].items():
        if var in decls:
            for pos, (_, _, text, _) in enumerate(candidates):
                if match(normal[text], var):
                    out[var] = pos
                    break
    return out


def _bind_variable_plan(plan, var, index, first):
    """The instance of the compiled `plan` on `var`, whose code slots' first
    fillings are in `first` (see `_first_fillings`). Some code slot fills
    `var`, and code slots bind first, so every other slot joins a code
    binding."""
    inst = PlanInstance(plan.name, plan.kind, var, mandatory=plan.mandatory)
    for slot, match, _ in plan.order:
        if slot.name not in _CODE_SLOTS:
            bound = _first_filling(index, slot, match,
                                   _slot_candidates(index, inst, slot.name), var)
        else:
            pos = first[id(slot)].get(var)
            if pos is None:
                continue
            candidates = index.candidates[slot.name][var]
            bound = Binding(*candidates[pos], slot)
            update = inst.bindings.get("update")
            if (slot.name == "initialization" and update is not None
                    and update.node.reads_own):
                # when the update reads the variable, the initializing def
                # must reach it along some def-clear path
                chains = index.defuse.chains
                bound = _first_filling(
                    index, slot, match,
                    [c for c in candidates[pos:]
                     if update.line in chains.get((var, c[1]), ())], var)
        if bound is not None:
            inst.bindings[slot.name] = bound
    inst.close()
    return inst


def _first_filling(index, slot, match, candidates, var):
    """Binding for the first candidate, by line, that the slot accepts."""
    normal = index.normal
    for candidate in candidates:
        if match(normal[candidate[2]], var):
            return Binding(*candidate, slot)
    return None


def _drop_shadowed(instances):
    """A partial instance adds nothing when a complete one on the same
    variable already covers its code lines."""
    complete_lines = {}                # variable -> part lines of each complete instance
    for inst in instances:
        if inst.complete:
            complete_lines.setdefault(inst.variable, []).append(set(inst._lines))
    keep = []
    for inst in instances:
        if inst.complete or not any(other.issuperset(inst._lines)
                                    for other in complete_lines.get(inst.variable, ())):
            keep.append(inst)
    return keep


def _loop_plans(index, roots, var_instances):
    """One instance per loop and compiled root schema. Loop slots bind to
    the loop; a uses slot targeting a variable plan takes the first instance
    of the target, or of one of its kind-of children, with a statement
    binding other than its initialization inside the loop. Mandatory uses
    slots fill first, a child fills at most one slot, and a plan whose
    fillers mention <v> takes its first child's variable. The kind-of child
    whose controlled-by slot holds a variable the exit test reads replaces
    the root, ties broken by the root's slot order."""
    if not roots:
        return []
    working = {}                       # id(loop) -> {id(instance): instance}
    for inst in var_instances:
        for slot, b in inst.bindings.items():
            if b.category == "stmt" and slot != "initialization":
                for loop in b.node.loops:
                    working.setdefault(id(loop), {})[id(inst)] = inst
    loop_candidates = {name: {id(c[0]): [c] for c in index.loop_candidates[name]}
                       for name in _LOOP_SLOTS}
    out = []
    for plan in roots:
        for node in index.cfg.loops:
            inst = _bind_loop_plan(plan, index, node,
                                   working.get(id(node.stmt), {}).values(), loop_candidates)
            if inst is not None:
                out.append(inst)
    return out


def _bind_loop_plan(plan, index, node, group, loop_candidates):
    """The complete instance of the compiled `plan` on the loop whose CFG
    node is `node`, whose working variable plans are `group`, or None.
    Binding stops at the first mandatory name that its last slot leaves
    unfilled, since the plan cannot then be complete."""
    inst = PlanInstance(plan.name, plan.kind, mandatory=plan.mandatory)
    for slot_name, names in plan.uses:
        child = next((i for name in names for i in group if i.schema == name), None)
        if child is not None and all(child is not c for _, c in inst.children):
            inst.children.append((slot_name, child))
    if plan.takes_variable and inst.children:
        inst.variable = inst.children[0][1].variable
    bindings = inst.bindings
    by_child = {slot for slot, _ in inst.children}
    for slot, match, settled in plan.slots:
        candidates = (loop_candidates[slot.name].get(id(node.stmt), [])
                      if slot.name in _LOOP_SLOTS
                      else _slot_candidates(index, inst, slot.name))
        bound = _first_filling(index, slot, match, candidates, inst.variable)
        if bound is not None:
            bindings[slot.name] = bound
        for name in settled:
            if name not in bindings and name not in by_child:
                return None
    # every mandatory name is filled, so the plan is complete
    if not (bindings or inst.children):
        return None
    inst.close()
    if plan.controllers:
        # a FOR header defines its control variable, which it tests; a WHILE
        # or UNTIL test defines nothing and reads its condition
        test_vars = node.defs or node.uses
        children = dict(inst.children)
        for slot, _, _ in plan.slots:
            child = children.get(slot.name)
            if (slot.name in plan.controllers and child is not None
                    and child.variable in test_vars):
                inst.schema, inst.kind, inst.mandatory = plan.controllers[slot.name]
                inst.close()
                break
    return inst


def _expectations(kb, active, instances):
    fired_rules = {}
    for activation in active.values():
        for rid in activation.rule_ids:
            rule = kb.rule(rid)
            if rule is not None and rule.bindings:
                fired_rules.setdefault(rule.activates, []).append(rule)
    out = []
    seen = set()

    def add(inst, slot, pattern):
        key = (id(inst), slot, pattern)
        if key not in seen:
            seen.add(key)
            out.append(Expectation(inst, slot, pattern))

    for inst in instances:
        for rule in fired_rules.get(inst.schema, []):
            for slot, pattern in rule.bindings:
                add(inst, slot, pattern)
        schema = kb.schema(inst.schema)
        filled = set(inst.bindings) | {slot for slot, _ in inst.children}
        for slot in schema.slots:
            if slot.mandatory and slot.name not in filled:
                proto = slot.prototypical()
                if proto is not None:
                    add(inst, slot.name, proto.pattern)
    return out


# --- expectation verification --------------------------------------------------

def verify_expectations(expectations, index: ProgramIndex):
    """Resolve each open expectation against the code: verified on a matching
    line, violated on the nearest same-slot non-matching line, otherwise left
    open."""
    for exp in expectations:
        if exp.state != OPEN:
            continue
        candidates = _slot_candidates(index, exp.instance, exp.slot)
        if not candidates:
            continue
        match = pattern_matcher(exp.pattern)
        matching = [line for _, line, text, _ in candidates
                    if match(index.normal[text], exp.instance.variable)]
        if matching:
            exp.state = VERIFIED
            exp.resolved_line = min(matching)
        else:
            anchor = exp.instance.anchor_line
            exp.state = VIOLATED
            exp.resolved_line = min((line for _, line, _, _ in candidates),
                                    key=lambda l: (abs(l - anchor), l))
    return expectations


# --- coherence ------------------------------------------------------------------

def evaluate_coherence(instances, index: ProgramIndex, kb: KnowledgeBase,
                       step_budget: int = run.DEFAULT_STEP_BUDGET) -> CoherenceReport:
    """Internal checks per binding plus cross-plan interaction entries. A
    binding made by the schema's own slot is known to match; one that is
    not, as after a controlled-by child replaced the root, is matched
    again."""
    report = CoherenceReport()
    normal = index.normal
    for inst in instances:
        schema = kb.schema(inst.schema)
        if schema is None:
            continue
        plan = _compiled(kb, schema)
        label = inst.label
        for slot_name, binding in sorted(inst.bindings.items()):
            slot, match, _ = plan.by_name.get(slot_name, (None, None, None))
            ok = slot is not None and (slot is binding.slot
                                       or match(normal[binding.text], inst.variable))
            report.internal.append(InternalEntry(label, slot_name,
                                                 "filler-match", ok, binding.line))
        if "initialization" in inst.bindings and "update" in inst.bindings:
            update = inst.bindings["update"]
            # only meaningful when the update reads the variable
            if update.node.reads_own:
                chain = index.defuse.chains.get((inst.variable,
                                                 inst.bindings["initialization"].line),
                                                set())
                report.internal.append(InternalEntry(
                    label, "initialization", "def-use-chain",
                    update.line in chain,
                    inst.bindings["initialization"].line))
        if (inst.kind == VARIABLE and "initialization" in inst.mandatory
                and "initialization" not in inst.bindings and inst.variable):
            _, match, _ = plan.by_name["initialization"]
            for _, line, text, _ in index.candidates["initialization"].get(
                    inst.variable, ()):
                if not match(normal[text], inst.variable):
                    report.internal.append(InternalEntry(
                        label, "initialization", "initialization-filler",
                        False, line))

    simulation = None
    loops = {id(inst): _instance_loops(inst) for inst in instances}
    for left, right, how in _interaction_pairs(instances, index.defuse, loops):
        counter_in_loop = any(
            inst.schema == "Counter_Variable" and loops[id(inst)]
            for inst in (left, right))
        if counter_in_loop:
            if simulation is None:
                simulation = run.execute(index.program, DEFAULT_SIMULATION_INPUTS,
                                         step_budget)
            detail = _simulated_detail(left, right, simulation)
            report.external.append(ExternalEntry((left.label, right.label),
                                                 f"{how}; {detail}", "simulated",
                                                 list(DEFAULT_SIMULATION_INPUTS)))
        else:
            report.external.append(ExternalEntry((left.label, right.label),
                                                 how, "static"))
    return report


def _instance_loops(inst):
    loops = set()
    for b in inst.bindings.values():
        if b.category == "loop":
            loops.add(id(b.node))
        elif b.category == "stmt" and b.node.loops:
            loops.add(id(b.node.loops[-1]))
    return loops


def _interaction_pairs(instances, defuse, loops):
    """(left, right, how) for instance pairs, neither a descendant of the
    other, whose parts share a loop or are linked by a def-use chain, in
    instance order. Candidates come from indexes by loop and by part line,
    so unrelated pairs are never visited."""
    uses_of_def = {}                   # def line -> every line it reaches
    for (_, def_line), use_lines in defuse.chains.items():
        uses_of_def.setdefault(def_line, set()).update(use_lines)
    lines, reached = [], []
    by_loop, by_line = {}, {}          # loop id / part line -> instance positions
    for i, inst in enumerate(instances):
        lines.append(set(inst.part_lines()))
        reached.append(set().union(*(uses_of_def.get(l, ()) for l in lines[i])))
        for loop in loops[id(inst)]:
            by_loop.setdefault(loop, []).append(i)
        for line in lines[i]:
            by_line.setdefault(line, []).append(i)

    candidates = set()
    for i, inst in enumerate(instances):
        for loop in loops[id(inst)]:
            candidates.update((i, j) for j in by_loop[loop] if j > i)
        for line in reached[i]:
            candidates.update((min(i, j), max(i, j)) for j in by_line.get(line, ()) if j != i)
    related = []
    for i, j in sorted(candidates):
        left, right = instances[i], instances[j]
        # a plan's children are plans bound per variable, which have no
        # children of their own (see `_loop_plans`): a descendant is a child
        if (any(c is right for _, c in left.children)
                or any(c is left for _, c in right.children)):
            continue
        if loops[id(left)] & loops[id(right)]:
            related.append((left, right, "parts run in the same loop"))
        else:
            related.append((left, right, "linked by a def-use chain"))
    return related


def _simulated_detail(left, right, result):
    if result.status != run.OK:
        return f"simulation failed with {result.error_kind} at line {result.error_line}"
    parts = []
    for inst in (left, right):
        if inst.variable:
            parts.append(f"final {inst.variable}={result.final_value(inst.variable)!r}")
    if not parts:
        parts.append(f"outputs {result.outputs!r}")
    return ", ".join(parts)
