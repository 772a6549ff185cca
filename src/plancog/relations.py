"""Structural program relations: control-flow graph, prime-structure tree and
def-use chains.

The CFG keeps one node per simple statement plus one condition node per loop
or if statement (a repeat's condition node carries the UNTIL line). So every
statement but a BEGIN/END block has one node, which is also its record: made
once when the graph is built, and read by every later stage instead of
taking the statement apart again. The prime tree decomposes the structured
statement language into sequence, iteration and conditional nodes whose
leaves partition the simple statements.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from . import frontend as fe
from .errors import AnalysisError

ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
COND = "cond"

SEQ = "seq"
TRUE = "true"
FALSE = "false"
LOOP_BACK = "loop-back"


@dataclass
class CfgNode:
    """A node, and for a statement what the statement itself defines and
    reads, the loops around it and, for a simple statement, its text."""
    id: int
    kind: str            # entry | exit | stmt | cond
    line: int | None
    stmt: object = None  # AST statement for stmt nodes, loop/if for cond nodes
    defs: tuple[str, ...] = ()     # lowercased names it defines (a FOR header its variable)
    uses: tuple[str, ...] = ()     # lowercased names it reads, sorted, each once
    loops: tuple = ()              # enclosing loop statements, innermost last
    text: str | None = None        # a simple statement's `fe.node_text`
    reads_own: bool = False        # reads a name it defines (`x := x + 1`)


@dataclass
class Cfg:
    """Nodes are indexed by id; `edges` lists (src, dst, label) in creation
    order."""
    nodes: list[CfgNode] = field(default_factory=list)
    edges: list[tuple[int, int, str]] = field(default_factory=list)
    entry: int = 0
    exit: int = 0
    # the loops' nodes in preorder, though a repeat's is made after its body's
    loops: list[CfgNode] = field(default_factory=list)

    def add_node(self, kind, line, stmt=None, loops=()) -> CfgNode:
        if stmt is None:
            node = CfgNode(len(self.nodes), kind, line)
        else:
            defs = tuple([name.lower() for name, _ in fe.defined_names(stmt)])
            uses = tuple(sorted({name.lower() for name, _ in fe.used_names(stmt)}))
            node = CfgNode(len(self.nodes), kind, line, stmt, defs, uses, loops,
                           fe.node_text(stmt) if kind == STMT else None,
                           not set(defs).isdisjoint(uses))
        self.nodes.append(node)
        return node

    def lines(self) -> set[int]:
        """Every line a statement's node sits on or stands for."""
        return {at for node in self.nodes if node.stmt is not None
                for at in (node.line, node.stmt.line)}


def build_cfg(program: fe.Program) -> Cfg:
    cfg = Cfg()
    entry = cfg.add_node(ENTRY, None)
    cfg.entry = entry.id
    tails = _chain(cfg, program.body, [(entry.id, SEQ)], ())
    exit_node = cfg.add_node(EXIT, None)
    cfg.exit = exit_node.id
    _connect(cfg, tails, exit_node.id)
    return cfg


def _connect(cfg, pending, nid):
    cfg.edges.extend([(src, nid, lbl) for src, lbl in pending])


def _chain(cfg, stmts, pending, loops):
    for s in stmts:
        pending = _statement(cfg, s, pending, loops)
    return pending


def _statement(cfg, s, pending, loops):
    """Add the nodes and edges of statement `s`, entered from the `pending`
    (node, label) exits, inside the `loops`; return its exits."""
    if isinstance(s, fe.SIMPLE_KINDS):
        node = cfg.add_node(STMT, s.line, s, loops)
        _connect(cfg, pending, node.id)
        return [(node.id, SEQ)]
    if isinstance(s, fe.Compound):
        return _chain(cfg, s.body, pending, loops)
    if isinstance(s, fe.If):
        cond = cfg.add_node(COND, s.line, s, loops)
        _connect(cfg, pending, cond.id)
        out = _statement(cfg, s.then, [(cond.id, TRUE)], loops)
        if s.otherwise is None:
            out = out + [(cond.id, FALSE)]
        else:
            out = out + _statement(cfg, s.otherwise, [(cond.id, FALSE)], loops)
        return out
    if not isinstance(s, fe.LOOP_KINDS):
        raise TypeError(f"unexpected statement {s!r}")
    inner = (*loops, s)
    if isinstance(s, fe.Repeat):
        # the loop keeps its preorder place in `loops`, though its node is
        # made after its body's, so that only loop-back edges run to a lower
        # id; that edge enters the first node the body creates, or the
        # condition itself when the body creates none
        place, first = len(cfg.loops), len(cfg.nodes)
        cfg.loops.append(None)
        body_out = _chain(cfg, s.body, pending, inner)
        cond = cfg.loops[place] = cfg.add_node(COND, s.until_line, s, loops)
        _connect(cfg, body_out, cond.id)
        cfg.edges.append((cond.id, first, LOOP_BACK))
        return [(cond.id, TRUE)]
    head = cfg.add_node(COND, s.line, s, loops)
    cfg.loops.append(head)
    _connect(cfg, pending, head.id)
    body_out = _statement(cfg, s.body, [(head.id, TRUE)], inner)
    _connect(cfg, [(src, LOOP_BACK) for src, _ in body_out], head.id)
    return [(head.id, FALSE)]


# --- prime structures ----------------------------------------------------

@dataclass
class PrimeNode:
    kind: str                 # sequence | iteration | conditional
    lines: list[int]          # own lines: leaf span, or header/condition lines
    children: list = field(default_factory=list)

    def is_leaf(self):
        return self.kind == "sequence" and not self.children

    def leaves(self):
        if self.is_leaf():
            yield self
        for c in self.children:
            yield from c.leaves()

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


def decompose_primes(program: fe.Program) -> PrimeNode:
    return _sequence(program.body)


def _flatten(stmts):
    for s in stmts:
        if isinstance(s, fe.Compound):
            yield from _flatten(s.body)
        else:
            yield s


def _sequence(stmts):
    items = []
    run = []
    for s in _flatten(stmts):
        if isinstance(s, fe.SIMPLE_KINDS):
            run.append(s.line)
            continue
        if run:
            items.append(PrimeNode("sequence", run))
            run = []
        items.append(_structure(s))
    if run:
        items.append(PrimeNode("sequence", run))
    if len(items) == 1 and items[0].kind == "sequence":
        return items[0]
    return PrimeNode("sequence", [], items)


def _structure(s):
    if isinstance(s, fe.If):
        return PrimeNode("conditional", [s.line],
                         [_sequence([branch]) for branch in fe.substatements(s)])
    lines = [s.line, s.until_line] if isinstance(s, fe.Repeat) else [s.line]
    return PrimeNode("iteration", lines, [_sequence(fe.substatements(s))])


# --- def-use -------------------------------------------------------------

@dataclass
class DefUse:
    definitions: list[tuple[str, int]]
    uses: list[tuple[str, int]]
    chains: dict[tuple[str, int], set[int]]
    possibly_uninitialized: list[tuple[str, int]]


def def_use(program: fe.Program, cfg: Cfg) -> DefUse:
    """Reaching definitions over the CFG, solved by a worklist over bit
    vectors (Kildall 1973); a chain maps a definition to every use a
    def-clear path can reach."""
    defs = [(v, n.line) for n in cfg.nodes for v in n.defs]
    uses = [(v, n.line) for n in cfg.nodes for v in n.uses]

    # One bit per definition site: first a synthetic entry definition per
    # declared variable, so "possibly uninitialized" means some path carries
    # no real definition to the use, then one per (node, variable defined).
    site_line = []                        # bit -> definition line (None: entry)
    kill = {}                             # variable -> bits of all its sites

    def site(var, line):
        bit = 1 << len(site_line)
        site_line.append(line)
        kill[var] = kill.get(var, 0) | bit
        return bit

    gen = [0] * len(cfg.nodes)
    for d in program.declarations:
        gen[cfg.entry] |= site(d.name.lower(), None)
    for n in cfg.nodes:
        for v in n.defs:
            gen[n.id] |= site(v, n.line)
    keep = [-1] * len(cfg.nodes)          # all ones: kills nothing
    for n in cfg.nodes:
        for v in n.defs:
            keep[n.id] &= ~kill[v]

    # IN[n] = OR of OUT[p]; OUT[n] = gen(n) | (IN[n] & keep(n)). But a FOR
    # header assigns its variable only on entering the body (its TRUE edge,
    # or its edge to itself when the body is empty), so its exit edge, FALSE
    # or, ending an enclosing loop's body, LOOP_BACK, carries IN[header].
    # Every edge but a loop-back edge runs from a lower node id to a higher
    # one, so taking the lowest queued id first settles a loop before the
    # code after it: each node is visited about once per enclosing loop,
    # plus once.
    preds, succs = [[] for _ in cfg.nodes], [[] for _ in cfg.nodes]
    passed, exits = [[] for _ in cfg.nodes], [[] for _ in cfg.nodes]   # FOR exit edges
    for src, dst, label in cfg.edges:
        if label != TRUE and src != dst and isinstance(cfg.nodes[src].stmt, fe.For):
            passed[dst].append(src)
            exits[src].append(dst)
        else:
            preds[dst].append(src)
            succs[src].append(dst)
    reach_in = [0] * len(cfg.nodes)
    reach_out = gen[:]
    queued = [True] * len(cfg.nodes)
    work = list(range(len(cfg.nodes)))   # a heap of node ids
    while work:
        nid = heapq.heappop(work)
        queued[nid] = False
        new_in = 0
        for p in preds[nid]:
            new_in |= reach_out[p]
        for p in passed[nid]:
            new_in |= reach_in[p]
        if new_in != reach_in[nid]:
            reach_in[nid] = new_in
            for s in exits[nid]:
                if not queued[s]:
                    queued[s] = True
                    heapq.heappush(work, s)
        new_out = gen[nid] | (new_in & keep[nid])
        if new_out != reach_out[nid]:
            reach_out[nid] = new_out
            for s in succs[nid]:
                if not queued[s]:
                    queued[s] = True
                    heapq.heappush(work, s)

    chains = {}
    uninit = set()
    for n in cfg.nodes:
        for v in n.uses:
            reaching = reach_in[n.id] & kill.get(v, 0)
            while reaching:
                low = reaching & -reaching
                reaching ^= low
                line = site_line[low.bit_length() - 1]
                if line is None:
                    uninit.add((v, n.line))
                else:
                    chains.setdefault((v, line), set()).add(n.line)
    for key in defs:
        chains.setdefault(key, set())
    return DefUse(sorted(defs, key=lambda t: (t[1], t[0])),
                  sorted(uses, key=lambda t: (t[1], t[0])),
                  chains,
                  sorted(uninit, key=lambda t: (t[1], t[0])))


def query_relation(kind: str, program: fe.Program, line: int) -> set[int]:
    """Lines control- or data-related to the statement at `line`. The line of
    a REPEAT keyword answers for the loop's condition node."""
    if kind not in ("control", "data"):
        raise AnalysisError(f"unknown relation kind {kind!r}")
    cfg = build_cfg(program)
    # a repeat's condition node sits on the UNTIL line and also stands for
    # the REPEAT keyword's line, which has no node of its own
    nodes = {n.id for n in cfg.nodes if n.stmt is not None and line in (n.line, n.stmt.line)}
    if not nodes:
        raise AnalysisError(f"no statement at line {line}")
    own = {line} | {cfg.nodes[nid].line for nid in nodes}
    related = set()
    if kind == "control":
        for src, dst, _ in cfg.edges:
            if src in nodes:
                related.add(cfg.nodes[dst].line)
            if dst in nodes:
                related.add(cfg.nodes[src].line)
        related.discard(None)
    else:
        for (_, def_line), use_lines in def_use(program, cfg).chains.items():
            if def_line in own:
                related |= use_lines
            if own & use_lines:
                related.add(def_line)
    return related - own
