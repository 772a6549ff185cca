"""Comprehension tasks built on recognition: goal trees, plan-likeness
scoring with discourse checks, fill-in-the-blank prediction, chunking and
the delocalization metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import frontend as fe
from . import interpreter as run
from . import relations as rel
from .activation import (PlanInstance, ProgramIndex, activate_with_trace,
                         evaluate_coherence, extract_beacons, instantiate,
                         verify_expectations)
from .errors import AnalysisError
from .kb import VARIABLE, KnowledgeBase, builtin_kb, instantiate_pattern


@dataclass
class Recognition:
    kb: KnowledgeBase
    cues: list
    activations: list
    firings: list
    instances: list[PlanInstance]
    expectations: list
    coherence: object
    index: ProgramIndex


def recognize(program: fe.Program, kb: KnowledgeBase | None = None, *,
              step_budget: int = run.DEFAULT_STEP_BUDGET) -> Recognition:
    """Full pipeline: beacons, activation, instantiation, verification and
    coherence evaluation."""
    run.check_step_budget(step_budget)
    kb = kb or builtin_kb()
    index = ProgramIndex(program)
    cues = extract_beacons(index, kb)
    activations, firings = activate_with_trace(kb, cues)
    instances, expectations = instantiate(kb, index, activations)
    expectations = verify_expectations(expectations, index)
    coherence = evaluate_coherence(instances, index, kb, step_budget=step_budget)
    return Recognition(kb, cues, activations, firings, instances, expectations,
                       coherence, index)


# --- goal tree ----------------------------------------------------------------

@dataclass
class GoalNode:
    goal: str | None = None
    plan: PlanInstance | None = None
    flags: list[str] = field(default_factory=list)
    children: list["GoalNode"] = field(default_factory=list)

    def leaves(self):
        if self.plan is not None:
            yield self
        for c in self.children:
            yield from c.leaves()


def goal_tree(instances, kb: KnowledgeBase, coherence=None) -> GoalNode:
    """Hierarchical goals with plan instances at the leaves. Average-shaped
    programs (a quotient of a running total by a counter feeding a write)
    get the report/enter/compute/output decomposition; anything else gets
    one subgoal per top-level instance."""
    flagged = coherence.incoherent_instances() if coherence is not None else set()

    def goal(inst):
        schema = kb.schema(inst.schema)
        return (schema and schema.goal) or inst.schema.lower().replace("_", "-")

    def leaf(inst, nested=()):
        flags = []
        if not inst.complete:
            flags.append("partial")
        if inst.label in flagged:
            flags.append("incoherent")
        return GoalNode(plan=inst, flags=flags, children=list(nested))

    average = _average_shape(instances)
    if average is not None:
        loop, reader, total, counter, quotient, output = average
        out = output.variable
        placed = {id(x) for x in (loop, reader, total, counter, quotient, output)}
        root = GoalNode(goal=f"report-{out}", children=[
            GoalNode(goal="enter-data", children=[leaf(loop), leaf(reader)]),
            GoalNode(goal=f"compute-{out}",
                     children=[leaf(total), leaf(counter), leaf(quotient)]),
            GoalNode(goal=f"output-{out}", children=[leaf(output)]),
        ])
        for inst in instances:
            if id(inst) not in placed:
                root.children.append(GoalNode(goal=goal(inst), children=[leaf(inst)]))
        return root

    child_ids = set()
    for inst in instances:
        for _, child in inst.children:
            child_ids.add(id(child))
    top = [i for i in instances if id(i) not in child_ids]
    outputs = [i for i in top if i.schema == "Output_Value" and i.variable]
    root_name = f"report-{outputs[0].variable}" if outputs else "understand-program"
    groups: dict[str, list] = {}
    order = []
    for inst in top:
        name = goal(inst)
        if name not in groups:
            groups[name] = []
            order.append(name)
        nested = [leaf(child) for _, child in inst.children]
        groups[name].append(leaf(inst, nested))
    return GoalNode(goal=root_name,
                    children=[GoalNode(goal=name, children=groups[name])
                              for name in order])


def _average_shape(instances):
    quotients = [i for i in instances if i.schema == "Quotient_Variable"
                 and "result" in i.bindings]
    loops = [(i, child) for i in instances for slot, child in i.children
             if slot == "New_Value"]
    outputs = {i.variable: i for i in instances if i.schema == "Output_Value"}
    by_var = {}
    for i in instances:
        if i.variable and i.kind == VARIABLE:
            by_var.setdefault(i.variable, {})[i.schema] = i
    for q in quotients:
        expr = q.bindings["result"].node.expr
        if not (isinstance(expr, fe.Binary) and expr.op == "/"
                and isinstance(expr.left, fe.VarRef) and isinstance(expr.right, fe.VarRef)):
            continue
        total = by_var.get(expr.left.name.lower(), {}).get("Running_Total_Variable")
        counter = by_var.get(expr.right.name.lower(), {}).get("Counter_Variable")
        output = outputs.get(q.variable)
        if total is None or counter is None or output is None or not loops:
            continue
        loop, reader = loops[0]
        return loop, reader, total, counter, q, output
    return None


# --- plan-likeness -------------------------------------------------------------

@dataclass
class Violation:
    rule_id: str
    lines: list[int]
    explanation: str


@dataclass
class PlanlinessReport:
    score: float
    coverage: float
    violations: list[Violation]


def planliness(program: fe.Program, kb: KnowledgeBase | None = None,
               recognition: Recognition | None = None) -> PlanlinessReport:
    """Coverage by complete plan instances, discounted per discourse-rule
    violation: score = coverage * (1 - 0.25 * min(4, violations))."""
    kb = kb or builtin_kb()
    rec = recognition or recognize(program, kb)
    simple_lines = {node.line for node in rec.index.cfg.nodes
                    if node.kind == rel.STMT and not isinstance(node.stmt, fe.Hole)}
    covered = set()
    for inst in rec.instances:
        if inst.complete:
            covered |= set(inst.part_lines())
    coverage = len(covered & simple_lines) / len(simple_lines) if simple_lines else 1.0
    violations = []
    for rule in kb.discourse_rules:
        found = _DISCOURSE_PREDICATES[rule.check](rec)
        for lines, explanation in found:
            violations.append(Violation(rule.id, sorted(lines), explanation))
    score = coverage * (1 - 0.25 * min(4, len(violations)))
    return PlanlinessReport(score, coverage, violations)


def _check_name_reflects_function(rec: Recognition):
    out = []
    for inst in rec.instances:
        stems = rec.kb.schema(inst.schema).names
        if not stems or not inst.variable:
            continue
        name = inst.variable
        # one- and two-letter stems must match exactly, longer stems match
        # as substrings
        if any(name == s if len(s) <= 2 else s in name for s in stems):
            continue
        decl = rec.index.decls.get(name)
        lines = set(inst.part_lines()) | ({decl.line} if decl else set())
        out.append((lines, f"name {inst.variable!r} does not suggest "
                           f"{inst.schema.replace('_', ' ').lower()}"))
    return out


def _check_no_double_duty(rec: Recognition):
    """Coherence's initialization-filler failures of plans whose update runs
    in a loop."""
    looped = {inst.label: inst.variable for inst in rec.instances
              if "update" in inst.bindings
              and rec.index.loop_of(inst.bindings["update"].node) is not None}
    lines = set()
    culprits = set()
    for entry in rec.coherence.internal:
        if entry.constraint == "initialization-filler" and entry.instance in looped:
            lines.add(entry.line)
            culprits.add(looped[entry.instance])
    if not lines:
        return []
    return [(lines, "initialization of " + ", ".join(sorted(culprits))
             + " carries a non-obvious second purpose (value departs from every"
               " initialization filler while the loop updates unconditionally)")]


def _check_no_unused_plan_part(rec: Recognition):
    uses = {}                          # variable -> lines that read it
    for var, line in rec.index.defuse.uses:
        uses.setdefault(var, set()).add(line)
    out = []
    for inst in rec.instances:
        if inst.kind != VARIABLE or not inst.variable or not inst.complete:
            continue
        own = set(inst.part_lines())
        if own and uses.get(inst.variable, set()) <= own:
            out.append((own, f"value of {inst.variable!r} never leaves the plan"))
    return out


_DISCOURSE_PREDICATES = {
    "name-reflects-function": _check_name_reflects_function,
    "no-double-duty": _check_no_double_duty,
    "no-unused-plan-part": _check_no_unused_plan_part,
}


# --- fill in the blank -----------------------------------------------------------

@dataclass
class Candidate:
    text: str
    rank: int
    justification: str


def fill_blank(blanked: fe.BlankedProgram, kb: KnowledgeBase | None = None,
               strategy: str = "plan") -> list[Candidate]:
    """Predict the erased line. The plan strategy proposes prototypical (then
    other) fillers of unbound mandatory slots, preferring plans whose variable
    lacks any definition in the blanked context; the control strategy proposes
    definitions for variables used after the hole without one."""
    kb = kb or builtin_kb()
    context = blanked.context
    index = ProgramIndex(context)
    hole = blanked.blank_line

    if strategy == "control":
        scored = []
        uninit = {}
        for var, line in index.defuse.possibly_uninitialized:
            if line >= hole:
                uninit.setdefault(var, line)
        for var, first_use in sorted(uninit.items(), key=lambda kv: (kv[1], kv[0])):
            display = index.decls[var].name if var in index.decls else var
            scored.append(((first_use, var),
                           Candidate(f"{display} := 0", 0,
                                     f"control template: definition of {display} "
                                     f"used at line {first_use}")))
        return _ranked(scored)

    if strategy != "plan":
        raise AnalysisError(f"unknown strategy {strategy!r}")

    cues = extract_beacons(index, kb)
    activations, _ = activate_with_trace(kb, cues)
    instances, _ = instantiate(kb, index, activations)
    undefined = {var for var, _ in index.defuse.possibly_uninitialized}
    scored = []
    for inst in instances:
        schema = kb.schema(inst.schema)
        filled = set(inst.bindings) | {slot for slot, _ in inst.children}
        lines = inst.part_lines() or [inst.anchor_line]
        distance = min(abs(l - hole) for l in lines)
        for slot in schema.slots:
            if not slot.mandatory or slot.name in filled:
                continue
            for filler in slot.fillers:
                display = (index.decls[inst.variable].name
                           if inst.variable in index.decls else inst.variable)
                text = instantiate_pattern(filler.pattern, display or "")
                if text is None:
                    continue
                key = (0 if filler.prototypical else 1,
                       0 if inst.variable in undefined else 1,
                       distance, inst.anchor_line, inst.schema, slot.name)
                proto = "prototypical " if filler.prototypical else ""
                scored.append((key, Candidate(_render_line(text), 0,
                                              f"{proto}filler of {inst.label}.{slot.name}")))
    return _ranked(scored)


def _render_line(text: str) -> str:
    if text.lower().startswith(("readln(", "writeln(")):
        head, rest = text.split("(", 1)
        return f"{head.upper()}({rest}"
    if ":=" in text:
        target, expr = text.split(":=", 1)
        return f"{target.strip()} := {expr.strip()}"
    return text


def _ranked(scored):
    scored.sort(key=lambda pair: pair[0])
    out = []
    seen = set()
    for _, cand in scored:
        norm = cand.text.replace(" ", "").lower()
        if norm in seen:
            continue
        seen.add(norm)
        cand.rank = len(out) + 1
        out.append(cand)
    return out


# --- chunking ---------------------------------------------------------------------

@dataclass
class Chunk:
    lines: list[int]
    label: str


def chunk(program: fe.Program, kb: KnowledgeBase | None = None,
          mode: str = "plan", recognition: Recognition | None = None) -> list[Chunk]:
    """Control chunks partition the chunk universe (simple-statement lines
    plus loop/if header and loop-condition lines) along the prime tree; plan
    chunks are complete instances' part lines, with the rest of the
    universe reported last as residue."""
    if mode == "control":
        # a line shared by several prime nodes (a one-line loop or two
        # statements on a line) goes to the outermost; emptied chunks drop
        chunks = []
        owned = set()
        level = [rel.decompose_primes(program)]
        while level:
            for node in level:
                lines = sorted(set(node.lines) - owned)
                owned.update(lines)
                if lines:
                    chunks.append(Chunk(lines, node.kind))
            level = [c for node in level for c in node.children]
        chunks.sort(key=lambda c: c.lines[0])
        return chunks
    if mode != "plan":
        raise AnalysisError(f"unknown chunk mode {mode!r}")
    kb = kb or builtin_kb()
    rec = recognition or recognize(program, kb)
    chunks = []
    covered = set()
    for inst in rec.instances:
        if not inst.complete:
            continue
        lines = inst.part_lines()
        if not lines:
            continue
        chunks.append(Chunk(lines, inst.schema))
        covered |= set(lines)
    chunks.sort(key=lambda c: (c.lines[0], c.label))
    residue = sorted(rec.index.cfg.lines() - covered)
    if residue:
        chunks.append(Chunk(residue, "(residue)"))
    return chunks


# --- delocalization -----------------------------------------------------------------

def delocalization(instance: PlanInstance) -> int | None:
    """Maximum pairwise line distance among the instance's bound part lines;
    None below two lines."""
    lines = instance.part_lines()
    return max(lines) - min(lines) if len(lines) > 1 else None
