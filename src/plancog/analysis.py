"""Comprehension tasks built on recognition: goal trees, plan-likeness
scoring with discourse checks, fill-in-the-blank prediction, chunking and
the delocalization metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import frontend as fe
from . import interpreter as run
from . import relations as rel
from .activation import (DEFAULT_SIMULATION_INPUTS, PlanInstance, _Index,
                         activate_with_trace, evaluate_coherence, extract_beacons,
                         instantiate, verify_expectations)
from .errors import AnalysisError
from .kb import VARIABLE, KnowledgeBase, builtin_kb, instantiate_pattern, pattern_matches


@dataclass
class Recognition:
    program: fe.Program
    kb: KnowledgeBase
    cues: list
    activations: list
    firings: list
    instances: list[PlanInstance]
    expectations: list
    coherence: object
    defuse: rel.DefUse
    cfg: rel.Cfg


def recognize(program: fe.Program, kb: KnowledgeBase | None = None, *,
              inputs=DEFAULT_SIMULATION_INPUTS,
              step_budget: int = run.DEFAULT_STEP_BUDGET) -> Recognition:
    """Full pipeline: beacons, activation, instantiation, verification and
    coherence evaluation."""
    kb = kb or builtin_kb()
    cues = extract_beacons(program, kb)
    activations, firings = activate_with_trace(kb, cues)
    cfg = rel.build_cfg(program)
    defuse = rel.def_use(program, cfg)
    instances, expectations = instantiate(kb, program, activations, defuse)
    expectations = verify_expectations(expectations, program)
    coherence = evaluate_coherence(instances, defuse, program, kb,
                                   inputs=inputs, step_budget=step_budget)
    return Recognition(program, kb, cues, activations, firings, instances,
                       expectations, coherence, defuse, cfg)


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
    simple_lines = {s.line for s in fe.simple_statements(program)
                    if not isinstance(s, fe.Hole)}
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
        decl_line = rec.program and next(
            (d.line for d in rec.program.declarations if d.name.lower() == name), None)
        lines = set(inst.part_lines()) | ({decl_line} if decl_line else set())
        out.append((lines, f"name {inst.variable!r} does not suggest "
                           f"{inst.schema.replace('_', ' ').lower()}"))
    return out


def _check_no_double_duty(rec: Recognition):
    index = _Index(rec.program)
    lines = set()
    culprits = []
    for inst in rec.instances:
        if inst.kind != VARIABLE or not inst.variable:
            continue
        if "initialization" not in inst.mandatory or "initialization" in inst.bindings:
            continue
        update = inst.bindings.get("update")
        if update is None or index.loop_of(update.node) is None:
            continue
        schema = rec.kb.schema(inst.schema)
        slot = schema.slot("initialization")
        for cand in index.init_candidates(inst.variable):
            text = fe.node_text(cand)
            if not any(pattern_matches(f.pattern, text, var=inst.variable)
                       for f in slot.fillers):
                lines.add(cand.line)
                culprits.append(inst.variable)
    if not lines:
        return []
    return [(lines, "initialization of " + ", ".join(sorted(set(culprits)))
             + " carries a non-obvious second purpose (value departs from every"
               " initialization filler while the loop updates unconditionally)")]


def _check_no_unused_plan_part(rec: Recognition):
    out = []
    for inst in rec.instances:
        if inst.kind != VARIABLE or not inst.variable or not inst.complete:
            continue
        own = set(inst.part_lines())
        uses = set(rec.defuse.uses_of(inst.variable))
        if own and uses <= own:
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
    cfg = rel.build_cfg(context)
    defuse = rel.def_use(context, cfg)
    index = _Index(context)
    hole = blanked.blank_line

    if strategy == "control":
        scored = []
        uninit = {}
        for var, line in defuse.possibly_uninitialized:
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

    cues = extract_beacons(context, kb)
    activations, _ = activate_with_trace(kb, cues)
    instances, _ = instantiate(kb, context, activations, defuse)
    undefined = {var for var, _ in defuse.possibly_uninitialized}
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
    mode: str              # plan | control
    lines: list[int]
    label: str


def chunk_universe(program: fe.Program) -> set[int]:
    """Simple-statement lines plus loop/if header and loop-condition lines."""
    lines = set()
    for s in fe.walk_statements(program.body):
        if isinstance(s, fe.SIMPLE_KINDS) or isinstance(s, (fe.While, fe.For, fe.If)):
            lines.add(s.line)
        elif isinstance(s, fe.Repeat):
            lines.add(s.line)
            lines.add(s.until_line)
    return lines


def chunk(program: fe.Program, kb: KnowledgeBase | None = None,
          mode: str = "plan", recognition: Recognition | None = None) -> list[Chunk]:
    """Control chunks partition the chunk universe along the prime tree; plan
    chunks are complete instances' part lines, with residue reported last."""
    if mode == "control":
        tree = rel.decompose_primes(rel.build_cfg(program))
        chunks = [Chunk("control", sorted(node.lines), node.kind)
                  for node in tree.walk() if node.lines]
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
        chunks.append(Chunk("plan", lines, inst.schema))
        covered |= set(lines)
    chunks.sort(key=lambda c: (c.lines[0], c.label))
    residue = sorted(chunk_universe(program) - covered)
    if residue:
        chunks.append(Chunk("plan", residue, "(residue)"))
    return chunks


# --- delocalization -----------------------------------------------------------------

def delocalization(instance: PlanInstance) -> int:
    """Maximum pairwise line distance among the instance's bound part lines."""
    lines = instance.part_lines()
    if len(lines) < 2:
        raise AnalysisError("delocalization needs at least two line-bound slots")
    return max(lines) - min(lines)
