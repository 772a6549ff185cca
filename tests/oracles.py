"""Independent oracles used by the tests.

The path oracle enumerates every CFG path from entry to exit, taking each
loop-back edge at most twice, and collects def-clear definition-to-use
pairs by replaying the path. It shares no code with the fixpoint analysis
it checks.

The reference oracles are the straightforward versions of eight optimised
steps, kept to compare against on every program: reaching definitions by
round-robin passes over sets, coherence pairing over all instance pairs,
filler matching with one regular expression per (pattern, variable), a
character-by-character lexer, depth and declaration checks that walk the
parsed tree, an interpreter that walks the AST, instantiation that
matches every slot filling afresh for each plan it binds, and statement
facts (names, enclosing loops, self-reference, chunk universe) found by
walking the tree each time they are asked for.
"""

import importlib.util
import math
import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from plancog import frontend as fe
from plancog.activation import _CODE_SLOTS, _LOOP_SLOTS, Binding, Expectation
from plancog.errors import LexError, ParseError
from plancog.frontend import (COMMENT, IDENT, INT, INT_MAX, INT_MIN, KEYWORDS, KW, OP, PUNCT,
                              REALLIT, Token)
from plancog.interpreter import (DEFAULT_STEP_BUDGET, RUNTIME_ERROR, ExecutionResult,
                                 TraceEvent)
from plancog.kb import CONTROL, LOOP_WORDS, VARIABLE, normalize, pattern_matches
from plancog.relations import LOOP_BACK, DefUse


def benchmark_programs():
    """perfbench/programs.py, the benchmark's program generator, loaded by
    path and only read."""
    path = Path(__file__).parents[1] / "perfbench" / "programs.py"
    spec = importlib.util.spec_from_file_location("perfbench_programs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _skips_body(cfg, nid, nxt):
    """Whether the step from node `nid` to node `nxt` leaves a FOR header
    without entering its body, so that the header assigns nothing: `nxt` is
    neither inside the loop nor, for an empty body, the header again."""
    loop = cfg.nodes[nid].stmt
    return (isinstance(loop, fe.For) and nxt != nid
            and not any(outer is loop for outer in cfg.nodes[nxt].loops))


def brute_force_def_use(cfg, max_unrollings=2):
    """Return (chains, possibly_uninitialized) from exhaustive path walks."""
    succs = {n.id: [] for n in cfg.nodes}
    for src, dst, label in cfg.edges:
        succs[src].append((dst, label, (src, dst)))
    by_id = {n.id: n for n in cfg.nodes}
    # each node's facts once: a program has thousands of paths through it
    uses = {n.id: n.uses for n in cfg.nodes}
    defs = {n.id: n.defs for n in cfg.nodes}
    chains = {}
    uninit = set()

    def replay(path):
        live = {}
        for i, nid in enumerate(path):
            line = by_id[nid].line
            for var in uses[nid]:
                if var in live:
                    chains.setdefault((var, by_id[live[var]].line), set()).add(line)
                else:
                    uninit.add((var, line))
            if nid != cfg.exit and _skips_body(cfg, nid, path[i + 1]):
                continue
            for var in defs[nid]:
                live[var] = nid

    def walk(node, path, back_counts):
        path.append(node)
        if node == cfg.exit:
            replay(path)
        else:
            for dst, label, edge in succs[node]:
                if label == LOOP_BACK:
                    taken = back_counts.get(edge, 0)
                    if taken >= max_unrollings:
                        continue
                    back_counts[edge] = taken + 1
                    walk(dst, path, back_counts)
                    back_counts[edge] = taken
                else:
                    walk(dst, path, back_counts)
        path.pop()

    walk(cfg.entry, [], {})
    for node in cfg.nodes:
        for var in node.defs:
            chains.setdefault((var, node.line), set())
    return chains, uninit


def round_robin_def_use(program, cfg):
    """Reaching definitions by round-robin passes over sets of (variable,
    node id) pairs until nothing changes; the reference for `def_use`."""
    node_def = [n.defs for n in cfg.nodes]
    node_use = [n.uses for n in cfg.nodes]
    defs = [(v, n.line) for n in cfg.nodes for v in node_def[n.id]]
    uses = [(v, n.line) for n in cfg.nodes for v in node_use[n.id]]

    # IN[n] = union of OUT[p], but of IN[p] for a FOR header p left without
    # entering its body; OUT[n] = gen(n) | (IN[n] - kill(n)).
    # A synthetic entry definition (id None) per variable makes "possibly
    # uninitialized" mean: some path carries no real definition to the use.
    reach_in = {n.id: set() for n in cfg.nodes}
    reach_out = {n.id: set() for n in cfg.nodes}
    reach_out[cfg.entry] = {(d.name.lower(), None) for d in program.declarations}
    preds = {n.id: [] for n in cfg.nodes}
    for src, dst, _ in cfg.edges:
        preds[dst].append(src)
    changed = True
    while changed:
        changed = False
        for n in cfg.nodes:
            new_in = set()
            for p in preds[n.id]:
                new_in |= reach_in[p] if _skips_body(cfg, p, n.id) else reach_out[p]
            gen = {(v, n.id) for v in node_def[n.id]}
            killed = set(node_def[n.id])
            new_out = gen | {(v, d) for v, d in new_in if v not in killed}
            if n.id == cfg.entry:
                new_out |= reach_out[cfg.entry]
            if new_in != reach_in[n.id] or new_out != reach_out[n.id]:
                reach_in[n.id] = new_in
                reach_out[n.id] = new_out
                changed = True

    chains = {}
    uninit = set()
    for n in cfg.nodes:
        for v in node_use[n.id]:
            reaching = [d for dv, d in reach_in[n.id] if dv == v]
            if None in reaching:
                uninit.add((v, n.line))
            for d in reaching:
                if d is None:
                    continue
                key = (v, cfg.nodes[d].line)
                chains.setdefault(key, set()).add(n.line)
    for key in defs:
        chains.setdefault(key, set())
    return DefUse(sorted(defs, key=lambda t: (t[1], t[0])),
                  sorted(uses, key=lambda t: (t[1], t[0])),
                  chains,
                  sorted(uninit, key=lambda t: (t[1], t[0])))


def all_pairs_interactions(instances, defuse, loops):
    """(left, right, how) for instance pairs, neither a descendant of the
    other, whose parts share a loop or are linked by a def-use chain, found
    by testing every pair; the reference for coherence pairing."""
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

    uses_of_def = {}                   # def line -> every line it reaches
    for (_, def_line), use_lines in defuse.chains.items():
        uses_of_def.setdefault(def_line, set()).update(use_lines)
    lines = {}
    reached = {}
    for inst in instances:
        collect(inst)
        lines[id(inst)] = set(inst.part_lines())
        reached[id(inst)] = set().union(*(uses_of_def.get(l, ()) for l in lines[id(inst)]))
    for i, left in enumerate(instances):
        for right in instances[i + 1:]:
            if id(right) in descendants[id(left)] or id(left) in descendants[id(right)]:
                continue
            if loops[id(left)] & loops[id(right)]:
                related.append((left, right, "parts run in the same loop"))
            elif reached[id(left)] & lines[id(right)] or reached[id(right)] & lines[id(left)]:
                related.append((left, right, "linked by a def-use chain"))
    return related


_PATTERN_TOKEN = re.compile(r"<v>|<w>|<int>")
_IDENT_RX = r"[a-z_][a-z0-9_]*"


@lru_cache(maxsize=None)
def _per_variable_compile(pattern, var):
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


def per_variable_pattern_matches(pattern, text, var=None):
    """Whole-text match of a filler/cue pattern against normalized text, with
    `<v>` compiled as the variable's own text: one regular expression per
    (pattern, variable); the reference for `kb.pattern_matches`."""
    if pattern in LOOP_WORDS:
        word = re.match(r"[a-z]*", normalize(text)).group()
        if pattern == "iteration":
            return word in ("repeat", "while", "for")
        return word == pattern
    return _per_variable_compile(pattern, var.lower() if var else None).match(
        normalize(text)) is not None


# --- lexing one character at a time ------------------------------------------

# identifiers and numbers are ASCII only: str.isdigit also accepts "²",
# which int() rejects, and the KB's name patterns match no other letters
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | _DIGITS
_TWO_CHAR_OPS = (":=", "<>", "<=", ">=")
_ONE_CHAR_OPS = "+-*/=<>"
_PUNCT = "(),;:."


def char_loop_tokenize(source: str) -> list[Token]:
    """Turn source text into tokens; comments become COMMENT tokens with the
    interior text stripped of surrounding whitespace."""
    tokens = []
    i, line = 0, 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c == "{" or source.startswith("(*", i):
            closer = "}" if c == "{" else "*)"
            start, start_line = i, line
            j = source.find(closer, i + (1 if c == "{" else 2))
            if j < 0:
                raise LexError("unterminated comment", start_line)
            body = source[i + (1 if c == "{" else 2):j]
            line += body.count("\n")
            i = j + len(closer)
            tokens.append(Token(COMMENT, body.strip(), start_line, start, i))
            continue
        if c in _IDENT_START:
            j = i
            while j < n and source[j] in _IDENT_CHARS:
                j += 1
            text = source[i:j]
            kind = KW if text.upper() in KEYWORDS else IDENT
            tokens.append(Token(kind, text, line, i, j))
            i = j
            continue
        if c in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n - 1 and source[j] == "." and source[j + 1] in _DIGITS:
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
                tokens.append(Token(REALLIT, source[i:j], line, i, j))
            else:
                tokens.append(Token(INT, source[i:j], line, i, j))
            i = j
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(OP, two, line, i, i + 2))
            i += 2
            continue
        if c in _ONE_CHAR_OPS:
            tokens.append(Token(OP, c, line, i, i + 1))
            i += 1
            continue
        if c in _PUNCT:
            tokens.append(Token(PUNCT, c, line, i, i + 1))
            i += 1
            continue
        raise LexError(f"illegal character {c!r}", line)
    return tokens


# --- statement facts by walking the tree -----------------------------------------

def simple_statements(program):
    """Assignments, READLNs, WRITELNs and holes, in preorder."""
    return [s for s in fe.walk_statements(program.body) if isinstance(s, fe.SIMPLE_KINDS)]


def enclosing_loops(program) -> dict:
    """Map id(stmt) -> enclosing loop statements, innermost last."""
    out = {}

    def visit(stmts, stack):
        for s in stmts:
            out[id(s)] = list(stack)
            visit(fe.substatements(s), stack + [s] if isinstance(s, fe.LOOP_KINDS) else stack)

    visit(program.body, [])
    return out


def self_referential(stmt) -> bool:
    """Whether the statement reads a variable it defines (`x := x + 1`)."""
    defined = {name.lower() for name, _ in fe.defined_names(stmt)}
    return any(name.lower() in defined for name, _ in fe.used_names(stmt))


def chunk_universe(program) -> set:
    """Simple-statement lines plus loop/if header and loop-condition lines."""
    lines = set()
    for s in fe.walk_statements(program.body):
        if not isinstance(s, fe.Compound):
            lines.add(s.line)
        if isinstance(s, fe.LOOP_KINDS):
            lines.add(fe.test_line(s))
    return lines


# --- checking depth and declarations after parsing -----------------------------

def two_pass_parse(source: str):
    """Parse source text with the front end's parser, which raises syntax
    errors only, then check the finished tree in two walks: depth, then
    declarations (every identifier used in the body declared exactly once).
    The reference for `frontend.parse`, which makes both checks while it
    parses."""
    tokens = fe.tokenize(source)
    program = fe._Parser(tokens).program()
    _check_depth(program)
    program.comments = [(t.line, t.text) for t in tokens if t.kind == COMMENT]
    seen = {}
    for d in program.declarations:
        key = d.name.lower()
        if key in seen:
            raise ParseError(f"duplicate declaration of {d.name}", d.line)
        seen[key] = d
    for stmt in fe.walk_statements(program.body):
        for name, line in fe.defined_names(stmt) + fe.used_names(stmt):
            if name.lower() not in seen:
                raise ParseError(f"undeclared identifier {name}", line)
    return program


def _check_depth(program):
    """Reject a tree deeper than MAX_DEPTH, walking it without recursion."""
    stack = [(s, 1) for s in program.body]
    while stack:
        node, depth = stack.pop()
        if depth > fe.MAX_DEPTH:
            raise ParseError(f"nesting deeper than {fe.MAX_DEPTH} levels", node.line)
        if isinstance(node, fe.Binary):
            children = [node.left, node.right]
        elif isinstance(node, fe.Unary):
            children = [node.operand]
        else:
            children = fe._expressions(node) + fe.substatements(node)
        stack.extend((child, depth + 1) for child in children)


class _Halt(Exception):
    def __init__(self, kind, line):
        self.kind = kind
        self.line = line


class _TreeWalker:
    def __init__(self, program, inputs, step_budget):
        self.program = program
        self.inputs = list(inputs)
        self.cursor = 0
        self.budget = step_budget
        self.result = ExecutionResult()
        self.types = {d.name.lower(): d.type for d in program.declarations}
        self.values = {}

    def tick(self, line):
        if self.result.steps >= self.budget:
            raise _Halt("step-budget-exceeded", line)
        self.result.steps += 1

    def run(self):
        try:
            self.block(self.program.body)
        except _Halt as halt:
            self.result.status = RUNTIME_ERROR
            self.result.error_kind = halt.kind
            self.result.error_line = halt.line
        return self.result

    def block(self, stmts):
        for s in stmts:
            self.statement(s)

    def assign(self, name, value, line):
        key = name.lower()
        declared = self.types[key]
        if declared == "integer":
            if isinstance(value, float):
                raise _Halt("type-error", line)
            if isinstance(value, bool) or not isinstance(value, int):
                raise _Halt("type-error", line)
        elif declared == "real":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _Halt("type-error", line)
            value = float(value)
        elif declared == "boolean" and not isinstance(value, bool):
            raise _Halt("type-error", line)
        self.values[key] = value
        self.result.trace.append(TraceEvent(self.result.steps, line, key, value))

    def statement(self, s):
        if isinstance(s, fe.Assign):
            self.tick(s.line)
            self.assign(s.target, self.eval(s.expr, s.line), s.line)
        elif isinstance(s, fe.Readln):
            self.tick(s.line)
            if self.cursor >= len(self.inputs):
                raise _Halt("input-exhausted", s.line)
            value = self.inputs[self.cursor]
            self.cursor += 1
            if isinstance(value, (int, float)):
                # an input keeps the bounds of an arithmetic result
                value = self.check_number(value, s.line)
            if self.types[s.var.lower()] == "integer" and isinstance(value, float):
                if not value.is_integer():
                    raise _Halt("type-error", s.line)
                value = self.check_number(int(value), s.line)
            self.assign(s.var, value, s.line)
        elif isinstance(s, fe.Writeln):
            self.tick(s.line)
            self.result.outputs.append(self.eval(s.expr, s.line))
        elif isinstance(s, fe.Compound):
            self.block(s.body)
        elif isinstance(s, fe.If):
            self.tick(s.line)
            if self.truth(s.cond, s.line):
                self.statement(s.then)
            elif s.otherwise is not None:
                self.statement(s.otherwise)
        elif isinstance(s, fe.While):
            while True:
                self.tick(s.line)
                if not self.truth(s.cond, s.line):
                    return
                self.statement(s.body)
        elif isinstance(s, fe.Repeat):
            while True:
                self.block(s.body)
                self.tick(s.until_line)
                if self.truth(s.cond, s.until_line):
                    return
        elif isinstance(s, fe.For):
            self.tick(s.line)
            start = self.eval(s.start, s.line)
            stop = self.eval(s.stop, s.line)
            # an INTEGER control variable and INTEGER bounds, checked before
            # the first iteration
            if (self.types[s.var.lower()] != "integer"
                    or isinstance(start, bool) or not isinstance(start, int)
                    or isinstance(stop, bool) or not isinstance(stop, int)):
                raise _Halt("type-error", s.line)
            # the variable takes the loop's own INTEGER values, not the
            # start bound's object, which may be an int of a subclass
            current = int(start)
            while current <= stop:
                self.assign(s.var, current, s.line)
                self.statement(s.body)
                self.tick(s.line)
                current += 1
        elif isinstance(s, fe.Hole):
            self.tick(s.line)
        else:
            raise TypeError(f"cannot execute {s!r}")

    def truth(self, expr, line):
        value = self.eval(expr, line)
        if not isinstance(value, bool):
            raise _Halt("type-error", line)
        return value

    def eval(self, expr, line):
        if isinstance(expr, (fe.IntLit, fe.RealLit, fe.BoolLit)):
            return expr.value
        if isinstance(expr, fe.VarRef):
            key = expr.name.lower()
            if key not in self.values:
                raise _Halt("uninitialized-variable", line)
            return self.values[key]
        if isinstance(expr, fe.Unary):
            value = self.eval(expr.operand, line)
            if expr.op == "-":
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise _Halt("type-error", line)
                return self.check_number(-value, line)
            if not isinstance(value, bool):
                raise _Halt("type-error", line)
            return not value
        if isinstance(expr, fe.Binary):
            return self.binary(expr, line)
        raise TypeError(f"cannot evaluate {expr!r}")

    def binary(self, expr, line):
        op = expr.op
        left = self.eval(expr.left, line)
        if op in ("and", "or"):
            if not isinstance(left, bool):
                raise _Halt("type-error", line)
            right = self.eval(expr.right, line)
            if not isinstance(right, bool):
                raise _Halt("type-error", line)
            return (left and right) if op == "and" else (left or right)
        right = self.eval(expr.right, line)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if isinstance(left, bool) != isinstance(right, bool):
                raise _Halt("type-error", line)
            table = {"=": left == right, "<>": left != right, "<": left < right,
                     "<=": left <= right, ">": left > right, ">=": left >= right}
            return table[op]
        for operand in (left, right):
            if isinstance(operand, bool) or not isinstance(operand, (int, float)):
                raise _Halt("type-error", line)
        if op == "+":
            return self.check_number(left + right, line)
        if op == "-":
            return self.check_number(left - right, line)
        if op == "*":
            return self.check_number(left * right, line)
        if op == "/":
            if right == 0:
                raise _Halt("division-by-zero", line)
            return self.check_number(left / right, line)
        if op in ("div", "mod"):
            if not isinstance(left, int) or not isinstance(right, int):
                raise _Halt("type-error", line)
            if right == 0:
                raise _Halt("division-by-zero", line)
            # Pascal DIV truncates toward zero; exact for every 64-bit operand
            quotient = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                quotient = -quotient
            if op == "div":
                return self.check_number(quotient, line)
            return self.check_number(left - quotient * right, line)
        raise TypeError(f"unknown operator {op!r}")

    def check_number(self, value, line):
        """An arithmetic result: integers must fit 64 bits, reals must be
        finite (an infinite or NaN REAL is an overflow, not a value)."""
        if isinstance(value, int):
            if not INT_MIN <= value <= INT_MAX:
                raise _Halt("integer-overflow", line)
        elif not math.isfinite(value):
            raise _Halt("real-overflow", line)
        return value


class _DefUseWalker(_TreeWalker):
    """The tree walker noting (variable, defining node, reading node) at
    every read of a set variable; a statement stands for its CFG node, so a
    line that holds several nodes keeps them apart."""

    def __init__(self, program, inputs, cfg, step_budget):
        super().__init__(program, inputs, step_budget)
        self.cfg, self.node, self.defined, self.pairs = cfg, None, {}, set()

    def statement(self, s):
        outer = self.node
        if not isinstance(s, fe.Compound):
            self.node = self.cfg.node_of(s).id
        super().statement(s)
        self.node = outer

    def assign(self, name, value, line):
        super().assign(name, value, line)
        self.defined[name.lower()] = self.node

    def eval(self, expr, line):
        if isinstance(expr, fe.VarRef) and expr.name.lower() in self.defined:
            key = expr.name.lower()
            self.pairs.add((key, self.defined[key], self.node))
        return super().eval(expr, line)


def dynamic_def_use(program, cfg, inputs, step_budget=DEFAULT_STEP_BUDGET):
    """{(variable, defining node id, reading node id)} seen in one run of
    `program` on `inputs`: the def-use pairs its execution exercised."""
    walker = _DefUseWalker(program, inputs, cfg, step_budget)
    walker.run()
    return walker.pairs


def tree_walk_execute(program, inputs, step_budget=DEFAULT_STEP_BUDGET):
    """Run `program` by walking its AST, dispatching on the node type at
    every step; the reference for `interpreter.execute`. It always records
    the trace, and keeps its final store in `values`."""
    walker = _TreeWalker(program, inputs, step_budget)
    result = walker.run()
    result.values = walker.values
    return result


# --- instantiation one plan at a time ------------------------------------------

@dataclass
class PerCallPlanInstance:
    """A plan instance whose completeness and part lines are computed on
    every call, from its bindings as they are then."""
    schema: str
    kind: str
    variable: str | None = None
    bindings: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    mandatory: tuple = ()

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

    def part_lines(self) -> list:
        return sorted({b.line for slot, b in self.bindings.items()
                       if b.category != "decl" and slot != "context"})

    @property
    def anchor_line(self) -> int:
        lines = self.part_lines()
        if lines:
            return lines[0]
        return min([b.line for b in self.bindings.values()]
                   + [child.anchor_line for _, child in self.children], default=0)


def _accepts(slot, text, var=None):
    """True when some filler pattern of the slot matches the text."""
    return any(pattern_matches(f.pattern, text, var) for f in slot.fillers)


def _program_wide_slot_candidates(index, instance, slot_name):
    """Candidate (node, line, text, category) tuples a slot may bind to, by
    line; a loop slot's candidates are those of every loop in the program."""
    var = instance.variable
    if slot_name == "context":
        enclosing = enclosing_loops(index.program)

        def innermost(stmt):
            around = enclosing[id(stmt)]
            return around[-1] if around else None

        loops = []
        for b in instance.bindings.values():
            if b.category == "stmt":
                loop = innermost(b.node.stmt)
                if loop is not None and loop not in loops:
                    loops.append(loop)
        if not loops and var:
            for node in index.defs.get(var, []):
                loop = innermost(node.stmt)
                if loop is not None and loop not in loops:
                    loops.append(loop)
        return sorted(((l, l.line, fe.loop_keyword(l), "loop") for l in loops),
                      key=lambda c: c[1])
    if slot_name in _LOOP_SLOTS:
        return index.loop_candidates[slot_name]
    if slot_name == "counter-update":
        slot_name = "update"
    if var and slot_name in index.candidates:
        return index.candidates[slot_name].get(var, [])
    return []


def per_plan_instantiate(kb, index, activations):
    """Bind activated schemas to AST nodes; return (instances, expectations).
    Each (schema, variable) pair is matched from scratch: which variables a
    code slot can fill, then each slot's first filling, a filler matched
    again wherever it is asked; the reference for `activation.instantiate`.
    Bindings record no slot, so coherence rechecks every one of them."""
    active = {a.schema: a for a in activations}
    instances = []
    roots = []
    for schema in kb.schemas:
        if schema.name not in active:
            continue
        code_slots = [s for s in schema.slots if s.name in _CODE_SLOTS]
        if schema.kind in (VARIABLE, CONTROL) and code_slots:
            for var in sorted(_fillable(index, code_slots)):
                inst = _bind_variable_plan(kb, schema, var, index)
                if inst is not None:
                    instances.append(inst)
        elif schema.kind != VARIABLE and not schema.kind_of:
            roots.append(schema)

    instances = _drop_shadowed(instances)
    instances.extend(_loop_plans(kb, index, roots, instances))
    instances.sort(key=lambda i: (i.anchor_line, i.schema, i.variable or ""))

    expectations = _expectations(kb, active, instances)
    return instances, expectations


def _fillable(index, code_slots):
    out = set()
    for slot in code_slots:
        for var, candidates in index.candidates[slot.name].items():
            if var not in out and var in index.decls and any(
                    _accepts(slot, text, var) for _, _, text, _ in candidates):
                out.add(var)
    return out


_BIND_ORDER = ("update", "read", "result", "initialization", "output",
               "context", "name", "type")


def _bind_order(slot):
    return _BIND_ORDER.index(slot.name) if slot.name in _BIND_ORDER else len(_BIND_ORDER)


def _bind_variable_plan(kb, schema, var, index):
    inst = PerCallPlanInstance(schema.name, schema.kind, var,
                               mandatory=tuple(s.name for s in schema.slots if s.mandatory))
    for slot in sorted(schema.slots, key=_bind_order):
        if not inst.bindings and slot.name not in _CODE_SLOTS:
            return None
        candidates = _program_wide_slot_candidates(index, inst, slot.name)
        update = inst.bindings.get("update")
        if (slot.name == "initialization" and update is not None
                and self_referential(update.node.stmt)):
            candidates = [c for c in candidates
                          if update.line in index.defuse.chains.get((var, c[1]), set())]
        bound = _first_filling(slot, candidates, var)
        if bound is not None:
            inst.bindings[slot.name] = bound
    return inst if inst.bindings else None


def _first_filling(slot, candidates, var):
    for node, line, text, category in candidates:
        if _accepts(slot, text, var):
            return Binding(node, line, text, category)
    return None


def _drop_shadowed(instances):
    complete_lines = {}
    for inst in instances:
        if inst.complete:
            complete_lines.setdefault(inst.variable, []).append(set(inst.part_lines()))
    keep = []
    for inst in instances:
        lines = set(inst.part_lines())
        if inst.complete or not any(lines <= other
                                    for other in complete_lines.get(inst.variable, ())):
            keep.append(inst)
    return keep


def _loop_plans(kb, index, roots, var_instances):
    if not roots:
        return []
    working = {}
    enclosing = enclosing_loops(index.program)
    for inst in var_instances:
        for slot, b in inst.bindings.items():
            if b.category == "stmt" and slot != "initialization":
                for loop in enclosing[id(b.node.stmt)]:
                    working.setdefault(id(loop), {})[id(inst)] = inst
    loop_candidates = {name: {id(c[0]): [c] for c in index.loop_candidates[name]}
                       for name in _LOOP_SLOTS}
    out = []
    for root in roots:
        mandatory = tuple(s.name for s in root.slots if s.mandatory)
        uses = [(slot, [target] + kb.children(target))
                for target, slot in root.uses
                if kb.schema(target) is not None and kb.schema(target).kind == VARIABLE]
        uses.sort(key=lambda u: u[0] not in mandatory)
        takes_variable = any("<v>" in f.pattern for s in root.slots for f in s.fillers)
        controllers = {}
        for name in kb.children(root.name):
            child = kb.schema(name)
            controllers.setdefault(child.controlled_by, child)
        for loop in index.loops:
            inst = PerCallPlanInstance(root.name, root.kind, mandatory=mandatory)
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
                              else _program_wide_slot_candidates(index, inst, slot.name))
                bound = _first_filling(slot, candidates, inst.variable)
                if bound is not None:
                    inst.bindings[slot.name] = bound
            if not (inst.bindings or inst.children) or not inst.complete:
                continue
            test_vars = ({loop.var.lower()} if isinstance(loop, fe.For)
                         else {name.lower() for name, _ in fe.used_names(loop)})
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
