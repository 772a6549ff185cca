"""Schema activation and instantiation.

The pipeline mirrors how an expert reader is modeled: surface beacons are
extracted from the code, data-driven production rules fire to a fixpoint
(newly active schemas can satisfy schema= conditions of further rules),
conceptually-driven expansion then walks kind-of and uses links downward,
and finally active schemas are instantiated by binding their slots to AST
nodes. Values a rule merely infers become Expectations that are verified
against the code afterwards; coherence evaluation rechecks every binding
and probes plan interactions, concretely simulating whenever a counter
works inside a loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import frontend as fe
from . import interpreter as run
from . import relations as rel
from .kb import (CONCEPTUALLY_DRIVEN, CONTROL, DATA_DRIVEN, VARIABLE, Cue,
                 KnowledgeBase, pattern_matches)

DEFAULT_SIMULATION_INPUTS = (1, 2, 3, 99999)

OPEN = "open"
VERIFIED = "verified"
VIOLATED = "violated"

# slots bound to statements defining the plan variable
_CODE_SLOTS = {"initialization", "update", "read", "result", "output"}
# slots bound to a loop statement or its exit test
_LOOP_SLOTS = ("body", "loop", "header", "test")


@dataclass
class Activation:
    schema: str
    rule_ids: list[str]
    direction: str
    cues: list[Cue]


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


@dataclass
class PlanInstance:
    schema: str
    kind: str
    variable: str | None = None
    bindings: dict[str, Binding] = field(default_factory=dict)
    children: list[tuple[str, "PlanInstance"]] = field(default_factory=list)
    mandatory: tuple[str, ...] = ()
    diagnostics: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        filled = set(self.bindings) | {slot for slot, _ in self.children}
        return all(m in filled for m in self.mandatory)

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
        return sorted({b.line for slot, b in self.bindings.items()
                       if b.category != "decl" and slot != "context"})

    @property
    def anchor_line(self) -> int:
        lines = self.part_lines()
        if lines:
            return lines[0]
        return min((b.line for b in self.bindings.values()), default=0)


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

def extract_beacons(program: fe.Program, kb: KnowledgeBase) -> list[Cue]:
    """Surface cues: declared names and types, initialization and update
    forms, loop forms, comments."""
    cues = []
    for d in program.declarations:
        cues.append(Cue("name", d.name, d.line, d))
        cues.append(Cue("type", d.type, d.line, d))
    for s in fe.walk_statements(program.body):
        if isinstance(s, fe.Assign):
            kind = "update" if _self_referential(s) else "init"
            cues.append(Cue(kind, fe.node_text(s), s.line, s))
        elif isinstance(s, fe.Readln):
            cues.append(Cue("update", fe.node_text(s), s.line, s))
        elif isinstance(s, fe.Writeln):
            cues.append(Cue("update", fe.node_text(s), s.line, s))
        elif isinstance(s, fe.Repeat):
            cues.append(Cue("loop", "repeat", s.line, s))
            cues.append(Cue("loopform", f"repeat {fe.expr_text(s.cond)}", s.line, s))
        elif isinstance(s, fe.While):
            cues.append(Cue("loop", "while", s.line, s))
            cues.append(Cue("loopform", f"while {fe.expr_text(s.cond)}", s.line, s))
        elif isinstance(s, fe.For):
            cues.append(Cue("loop", "for", s.line, s))
            cues.append(Cue("loopform",
                            f"for {s.var}:={fe.expr_text(s.start)} to {fe.expr_text(s.stop)}",
                            s.line, s))
    for line, text in program.comments:
        cues.append(Cue("comment", text, line))
    cues.sort(key=lambda c: (c.line, c.kind, c.payload))
    return cues


def _self_referential(assign: fe.Assign) -> bool:
    rhs = {name.lower() for name, _ in fe._expr_identifiers(assign.expr)}
    return assign.target.lower() in rhs


def _cue_subject(cue: Cue) -> str | None:
    if cue.kind == "name":
        return cue.payload.lower()
    node = cue.node
    if isinstance(node, fe.Decl):
        return node.name.lower()
    if isinstance(node, fe.Assign):
        return node.target.lower()
    if isinstance(node, fe.Readln):
        return node.var.lower()
    if isinstance(node, fe.Writeln):
        names = {n.lower() for n, _ in fe._expr_identifiers(node.expr)}
        return names.pop() if len(names) == 1 else None
    return None


def _cue_satisfies(condition: Cue, cue: Cue) -> bool:
    if condition.kind != cue.kind:
        return False
    if condition.kind in ("name", "comment"):
        return condition.payload.lower() in cue.payload.lower()
    if condition.kind in ("type", "loop"):
        return condition.payload.lower() == cue.payload.lower()
    return pattern_matches(condition.payload, cue.payload)


# --- activation -------------------------------------------------------------

_VAR_ATTR = ("name", "type", "init", "update")


def _rule_fires(rule, cues, active):
    """Return the supporting cues when every condition is met, else None.
    Variable-attribute conditions must be satisfied by one common variable."""
    support = []
    var_conditions = []
    for cond in rule.conditions:
        if cond.kind == "schema":
            if cond.payload not in active:
                return None
            continue
        matches = [c for c in cues if _cue_satisfies(cond, c)]
        if not matches:
            return None
        if cond.kind in _VAR_ATTR:
            var_conditions.append(matches)
        else:
            support.extend(matches)
    if var_conditions:
        subjects = None
        for matches in var_conditions:
            here = {_cue_subject(c) for c in matches} - {None}
            subjects = here if subjects is None else subjects & here
        if not subjects:
            return None
        for matches in var_conditions:
            support.extend(c for c in matches if _cue_subject(c) in subjects)
    return support


def activate(kb: KnowledgeBase, cues) -> list[Activation]:
    """Fire data-driven rules to fixpoint, then expand conceptually."""
    activations, _ = activate_with_trace(kb, cues)
    return activations


def activate_with_trace(kb: KnowledgeBase, cues):
    cues = list(cues)
    active: dict[str, Activation] = {}
    firings: list[Firing] = []

    def record(schema, rule_id, direction, support):
        entry = active.get(schema)
        if entry is None:
            active[schema] = Activation(schema, [rule_id] if rule_id else [],
                                        direction, list(support))
        else:
            if rule_id and rule_id not in entry.rule_ids:
                entry.rule_ids.append(rule_id)
            if direction == DATA_DRIVEN:
                entry.direction = DATA_DRIVEN
            known = {id(c) for c in entry.cues}
            entry.cues.extend(c for c in support if id(c) not in known)

    def run_rules(direction):
        fired = {f.rule_id for f in firings}
        progressed = True
        while progressed:
            progressed = False
            for rule in kb.rules:
                if rule.direction != direction or rule.id in fired:
                    continue
                support = _rule_fires(rule, cues, active)
                if support is None:
                    continue
                fired.add(rule.id)
                firings.append(Firing(rule.id, rule.activates, support))
                record(rule.activates, rule.id, direction, support)
                progressed = True

    run_rules(DATA_DRIVEN)

    # downward expansion across kind-of children and uses targets, joint
    # fixpoint with conceptually-driven rules
    children = {}
    uses = {}
    for link in kb.links:
        if link.relation == "kind-of":
            children.setdefault(link.target, []).append(link.source)
        else:
            uses.setdefault(link.source, []).append(link.target)
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
            for nxt in children.get(name, []) + uses.get(name, []):
                if nxt not in active:
                    record(nxt, None, CONCEPTUALLY_DRIVEN, [])
                    firings.append(Firing("-", nxt, []))

    out = sorted(active.values(), key=lambda a: a.schema)
    for a in out:
        a.rule_ids.sort()
        a.cues.sort(key=lambda c: (c.line, c.kind, c.payload))
    return out, firings


# --- program index -----------------------------------------------------------

class _Index:
    """Per-program lookup tables shared by instantiation and verification."""

    def __init__(self, program: fe.Program):
        self.program = program
        self.decls = {d.name.lower(): d for d in program.declarations}
        self.loops = [s for s in fe.walk_statements(program.body)
                      if isinstance(s, fe.LOOP_KINDS)]
        self.enclosing = fe.enclosing_loops(program)
        self.defs = {}        # var -> [(stmt, first?, in_loop)]
        self.writelns = []
        for s in fe.walk_statements(program.body):
            if isinstance(s, fe.Assign):
                self._add_def(s.target, s)
            elif isinstance(s, fe.Readln):
                self._add_def(s.var, s)
            elif isinstance(s, fe.Writeln):
                self.writelns.append(s)

    def _add_def(self, name, stmt):
        self.defs.setdefault(name.lower(), []).append(stmt)

    def loop_of(self, stmt):
        stack = self.enclosing.get(id(stmt), [])
        return stack[-1] if stack else None

    def init_candidates(self, var):
        defs = self.defs.get(var, [])
        out = []
        for i, s in enumerate(defs):
            if isinstance(s, fe.Assign) and (i == 0 or self.loop_of(s) is None):
                out.append(s)
        return out

    def update_candidates(self, var):
        defs = self.defs.get(var, [])
        out = []
        for i, s in enumerate(defs):
            if isinstance(s, fe.Assign) and (i > 0 or self.loop_of(s) is not None):
                out.append(s)
        return out

    def read_candidates(self, var):
        return [s for s in self.defs.get(var, []) if isinstance(s, fe.Readln)]

    def output_candidates(self, var):
        out = []
        for s in self.writelns:
            names = {n.lower() for n, _ in fe._expr_identifiers(s.expr)}
            if names == {var}:
                out.append(s)
        return out

    def loop_cond_text(self, loop):
        if isinstance(loop, fe.Repeat):
            return f"repeat {fe.expr_text(loop.cond)}", loop.until_line
        if isinstance(loop, fe.While):
            return f"while {fe.expr_text(loop.cond)}", loop.line
        return (f"for {loop.var}:={fe.expr_text(loop.start)} to {fe.expr_text(loop.stop)}",
                loop.line)

    def loop_keyword(self, loop):
        return {fe.Repeat: "repeat", fe.While: "while", fe.For: "for"}[type(loop)]

    def exit_condition_vars(self, loop):
        if isinstance(loop, (fe.Repeat, fe.While)):
            return {n.lower() for n, _ in fe._expr_identifiers(loop.cond)}
        return {loop.var.lower()}


def _slot_candidates(index: _Index, instance: PlanInstance, slot_name: str):
    """Candidate (node, line, text, category) tuples a slot may bind to."""
    var = instance.variable
    if slot_name == "name" and var:
        d = index.decls.get(var)
        return [(d, d.line, d.name, "decl")] if d else []
    if slot_name == "type" and var:
        d = index.decls.get(var)
        return [(d, d.line, d.type, "decl")] if d else []
    if slot_name == "initialization" and var:
        return [(s, s.line, fe.node_text(s), "stmt") for s in index.init_candidates(var)]
    if slot_name in ("update", "counter-update") and var:
        return [(s, s.line, fe.node_text(s), "stmt") for s in index.update_candidates(var)]
    if slot_name == "read" and var:
        return [(s, s.line, fe.node_text(s), "stmt") for s in index.read_candidates(var)]
    if slot_name == "result" and var:
        return [(s, s.line, fe.node_text(s), "stmt")
                for s in index.defs.get(var, []) if isinstance(s, fe.Assign)]
    if slot_name == "output" and var:
        return [(s, s.line, fe.node_text(s), "stmt") for s in index.output_candidates(var)]
    if slot_name == "context":
        loops = []
        for b in instance.bindings.values():
            if b.category == "stmt":
                loop = index.loop_of(b.node)
                if loop is not None and loop not in loops:
                    loops.append(loop)
        if not loops and var:
            for s in index.defs.get(var, []):
                loop = index.loop_of(s)
                if loop is not None and loop not in loops:
                    loops.append(loop)
        return [(l, l.line, index.loop_keyword(l), "loop") for l in loops]
    if slot_name in _LOOP_SLOTS:
        return _loop_slot_candidates(index, slot_name)
    return []


def _loop_slot_candidates(index: _Index, slot_name: str):
    if slot_name == "body":
        return [(l, l.line, index.loop_keyword(l), "loop") for l in index.loops]
    if slot_name == "loop":
        return [(l, l.line, index.loop_cond_text(l)[0], "loop") for l in index.loops]
    if slot_name == "test":
        return [(l, index.loop_cond_text(l)[1], fe.expr_text(l.cond), "cond")
                for l in index.loops if isinstance(l, (fe.Repeat, fe.While))]
    return [(l, l.line, "for", "loop") for l in index.loops if isinstance(l, fe.For)]


# --- instantiation ------------------------------------------------------------

def instantiate(kb: KnowledgeBase, program: fe.Program, activations,
                defuse: rel.DefUse):
    """Bind activated schemas to AST nodes; return (instances, expectations).
    Variable plans are bound per declared variable; every other active
    schema without a kind-of parent is bound per loop."""
    index = _Index(program)
    active = {a.schema: a for a in activations}
    instances: list[PlanInstance] = []
    specialized = {l.source for l in kb.links if l.relation == "kind-of"}
    roots = []
    for schema in kb.schemas:
        if schema.name not in active:
            continue
        if schema.kind in (VARIABLE, CONTROL) and _CODE_SLOTS & {s.name for s in schema.slots}:
            for var in sorted(index.decls):
                inst = _bind_variable_plan(kb, schema, var, index, defuse)
                if inst is not None:
                    instances.append(inst)
        elif schema.kind != VARIABLE and schema.name not in specialized:
            roots.append(schema)

    instances = _drop_shadowed(instances)
    instances.extend(_loop_plans(kb, index, roots, instances))
    instances.sort(key=lambda i: (i.anchor_line, i.schema, i.variable or ""))

    expectations = _expectations(kb, active, instances)
    return instances, expectations


def _bind_variable_plan(kb, schema, var, index, defuse):
    inst = PlanInstance(schema.name, schema.kind, var,
                        mandatory=tuple(s.name for s in schema.slots if s.mandatory))
    order = ("update", "read", "result", "initialization", "output",
             "context", "name", "type")
    slots = sorted(schema.slots, key=lambda s: order.index(s.name)
                   if s.name in order else len(order))
    for slot in slots:
        candidates = _slot_candidates(index, inst, slot.name)
        update = inst.bindings.get("update")
        if (slot.name == "initialization" and update is not None
                and isinstance(update.node, fe.Assign) and _self_referential(update.node)):
            # when the update reads the variable, the initializing def must
            # reach it along some def-clear path
            candidates = [c for c in candidates
                          if update.line in defuse.chains.get((var, c[1]), set())]
        bound = _first_filling(slot, candidates, var)
        if bound is not None:
            inst.bindings[slot.name] = bound
    if not (_CODE_SLOTS & set(inst.bindings)):
        return None
    return inst


def _first_filling(slot, candidates, var):
    """Binding for the first candidate, by line, that matches a filler."""
    for node, line, text, category in sorted(candidates, key=lambda c: c[1]):
        if any(pattern_matches(f.pattern, text, var=var) for f in slot.fillers):
            return Binding(node, line, text, category)
    return None


def _drop_shadowed(instances):
    """A partial instance adds nothing when a complete one on the same
    variable already covers its code lines."""
    keep = []
    for inst in instances:
        lines = set(inst.part_lines())
        shadowed = any(
            other is not inst and other.variable == inst.variable
            and other.complete and not inst.complete
            and lines <= set(other.part_lines())
            for other in instances)
        if not shadowed:
            keep.append(inst)
    return keep


def _loop_plans(kb, index, roots, var_instances):
    """One instance per loop and root schema. Loop slots bind to the loop;
    a uses slot targeting a variable plan takes the first instance of the
    target, or of one of its kind-of children, with a statement binding
    other than its initialization inside the loop. Mandatory uses slots
    fill first, a child fills at most one slot, and a plan whose fillers
    mention <v> takes its first child's variable. The kind-of child whose
    controlled-by slot holds a variable the exit test reads replaces the
    root, ties broken by the root's slot order."""
    if not roots:
        return []
    schemas = {s.name: s for s in kb.schemas}
    kind_of_children = {}
    for link in kb.links:
        if link.relation == "kind-of":
            kind_of_children.setdefault(link.target, []).append(link.source)
    working = {}                       # id(loop) -> {id(instance): instance}
    for inst in var_instances:
        for slot, b in inst.bindings.items():
            if b.category == "stmt" and slot != "initialization":
                for loop in index.enclosing.get(id(b.node), ()):
                    working.setdefault(id(loop), {})[id(inst)] = inst
    loop_candidates = {name: {id(c[0]): [c] for c in _loop_slot_candidates(index, name)}
                       for name in _LOOP_SLOTS}
    out = []
    for root in roots:
        mandatory = tuple(s.name for s in root.slots if s.mandatory)
        # (slot, acceptable child schemas) per uses link to a variable plan
        uses = [(l.as_slot, [l.target] + kind_of_children.get(l.target, []))
                for l in kb.links if l.relation == "uses" and l.source == root.name
                and schemas[l.target].kind == VARIABLE]
        uses.sort(key=lambda u: u[0] not in mandatory)
        takes_variable = any("<v>" in f.pattern for s in root.slots for f in s.fillers)
        controllers = {}               # slot -> first kind-of child controlled by it
        for name in kind_of_children.get(root.name, []):
            controllers.setdefault(schemas[name].controlled_by, schemas[name])
        for loop in index.loops:
            inst = PlanInstance(root.name, root.kind, mandatory=mandatory)
            group = working.get(id(loop), {}).values()
            for slot_name, names in uses:
                child = next((i for name in names for i in group if i.schema == name), None)
                if child is not None and all(child is not c for _, c in inst.children):
                    inst.children.append((slot_name, child))
            if takes_variable and inst.children:
                inst.variable = inst.children[0][1].variable
            for slot in root.slots:
                candidates = (loop_candidates[slot.name].get(id(loop), [])
                              if slot.name in _LOOP_SLOTS
                              else _slot_candidates(index, inst, slot.name))
                bound = _first_filling(slot, candidates, inst.variable)
                if bound is not None:
                    inst.bindings[slot.name] = bound
            if not (inst.bindings or inst.children) or not inst.complete:
                continue
            test_vars = index.exit_condition_vars(loop)
            children = dict(inst.children)
            for slot in root.slots:
                child = children.get(slot.name)
                if (slot.name in controllers and child is not None
                        and child.variable in test_vars):
                    chosen = controllers[slot.name]
                    inst.schema, inst.kind = chosen.name, chosen.kind
                    inst.mandatory = tuple(s.name for s in chosen.slots if s.mandatory)
                    break
            out.append(inst)
    return out


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

def verify_expectations(expectations, program: fe.Program):
    """Resolve each open expectation against the code: verified on a matching
    line, violated on the nearest same-slot non-matching line, otherwise left
    open."""
    index = _Index(program)
    for exp in expectations:
        if exp.state != OPEN:
            continue
        candidates = _slot_candidates(index, exp.instance, exp.slot)
        if not candidates:
            continue
        matching = [line for _, line, text, _ in candidates
                    if pattern_matches(exp.pattern, text, var=exp.instance.variable)]
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

def evaluate_coherence(instances, defuse: rel.DefUse, program: fe.Program,
                       kb: KnowledgeBase | None = None,
                       inputs=DEFAULT_SIMULATION_INPUTS,
                       step_budget: int = run.DEFAULT_STEP_BUDGET) -> CoherenceReport:
    """Internal checks per binding plus cross-plan interaction entries."""
    from .kb import builtin_kb
    kb = kb or builtin_kb()
    index = _Index(program)
    report = CoherenceReport()

    for inst in instances:
        schema = kb.schema(inst.schema)
        if schema is None:
            continue
        for slot_name, binding in sorted(inst.bindings.items()):
            slot = schema.slot(slot_name)
            ok = slot is not None and any(
                pattern_matches(f.pattern, binding.text, var=inst.variable)
                for f in slot.fillers)
            report.internal.append(InternalEntry(inst.label, slot_name,
                                                 "filler-match", ok, binding.line))
        if "initialization" in inst.bindings and "update" in inst.bindings:
            update = inst.bindings["update"]
            # only meaningful when the update reads the variable
            if isinstance(update.node, fe.Assign) and _self_referential(update.node):
                chain = defuse.chains.get((inst.variable,
                                           inst.bindings["initialization"].line),
                                          set())
                report.internal.append(InternalEntry(
                    inst.label, "initialization", "def-use-chain",
                    update.line in chain,
                    inst.bindings["initialization"].line))
        if (inst.kind == VARIABLE and "initialization" in inst.mandatory
                and "initialization" not in inst.bindings and inst.variable):
            slot = schema.slot("initialization")
            for cand in index.init_candidates(inst.variable):
                text = fe.node_text(cand)
                if not any(pattern_matches(f.pattern, text, var=inst.variable)
                           for f in slot.fillers):
                    report.internal.append(InternalEntry(
                        inst.label, "initialization", "initialization-filler",
                        False, cand.line))

    simulation = None
    pairs = _interaction_pairs(instances, defuse, index)
    for left, right, how in pairs:
        counter_in_loop = any(
            inst.schema == "Counter_Variable" and _instance_loops(inst, index)
            for inst in (left, right))
        if counter_in_loop:
            if simulation is None:
                simulation = run.execute(program, list(inputs), step_budget)
            detail = _simulated_detail(left, right, simulation)
            report.external.append(ExternalEntry((left.label, right.label),
                                                 f"{how}; {detail}", "simulated",
                                                 list(inputs)))
        else:
            report.external.append(ExternalEntry((left.label, right.label),
                                                 how, "static"))
    return report


def _instance_loops(inst, index):
    loops = set()
    for b in inst.bindings.values():
        if b.category == "loop":
            loops.add(id(b.node))
        elif b.category == "stmt":
            loop = index.loop_of(b.node)
            if loop is not None:
                loops.add(id(loop))
    return loops


def _interaction_pairs(instances, defuse, index):
    related = []
    descendants = {}

    def collect(inst):
        if id(inst) in descendants:
            return descendants[id(inst)]
        out = set()
        for _, child in inst.children:
            out.add(id(child))
            out |= collect(child)
        descendants[id(inst)] = out
        return out

    for inst in instances:
        collect(inst)
    for i, left in enumerate(instances):
        for right in instances[i + 1:]:
            if id(right) in descendants[id(left)] or id(left) in descendants[id(right)]:
                continue
            shared_loop = _instance_loops(left, index) & _instance_loops(right, index)
            if shared_loop:
                related.append((left, right, "parts run in the same loop"))
                continue
            if _share_chain(left, right, defuse):
                related.append((left, right, "linked by a def-use chain"))
    return related


def _share_chain(left, right, defuse):
    left_lines = set(left.part_lines())
    right_lines = set(right.part_lines())
    for (_, def_line), use_lines in defuse.chains.items():
        if def_line in left_lines and use_lines & right_lines:
            return True
        if def_line in right_lines and use_lines & left_lines:
            return True
    return False


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
