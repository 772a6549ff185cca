"""Seeded mini-Pascal program generator and the benchmark's own oracle.

Every program is built from templates of the four corpus shapes (averaging
loop, linear search, flag-controlled REPEAT) plus a compute-bound nested FOR
block. A template knows, independently of plancog, which plans it plants
(schema, variable, lines), how its statements parse, and what it prints for
given inputs and in how many interpreter steps. Those records are the
benchmark's oracle; plancog's answers are checked against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# plan schema names as the built-in library calls them
RT = "Running_Total_Variable"
COUNTER = "Counter_Variable"
READ = "Read_Variable"
FLAG = "Flag_Variable"
QUOTIENT = "Quotient_Variable"
OUTPUT = "Output_Value"
NV_LOOP = "New_Value_Controlled_Running_Total_Loop"
SEARCH = "Linear_Search"
FOR_LOOP = "For_Loop"

BUILTIN_SCHEMAS = (
    "New_Value_Variable", "Read_Variable", "Counter_Variable",
    "Running_Total_Variable", "Flag_Variable", "Quotient_Variable",
    "Output_Value", "Running_Total_Loop", "Total_Controlled_Running_Total_Loop",
    "Counter_Controlled_Running_Total_Loop",
    "New_Value_Controlled_Running_Total_Loop", "For_Loop", "Linear_Search",
    "Stock_Management")

# plan-like name stems per role (all reflect the variable's function, so a
# renamed program keeps its plans and draws no naming violation)
NAMES = {
    "sum": ("Sum", "Total", "Tot", "Acc", "Accum"),
    "count": ("Count", "Counter", "Cnt", "Ctr"),
    "num": ("Num", "Number", "Value", "Val", "Item", "Data", "Entry"),
    "avg": ("Average", "Avg", "Mean", "Ratio"),
    "item": ("A", "Item", "Entry", "Value"),
    "key": ("B", "Data", "Input", "Val"),
    "idx": ("I", "Idx", "Index", "Counter"),
    "flag": ("Done", "Found", "Stop", "Finished", "Seen"),
    "row": ("Row", "Outer"),
    "col": ("Col", "Inner"),
    "part": ("Part", "Piece"),
}
SENTINELS = (99999, 9999, 999, 4242, 77777, 31337)
COMMENT_CUES = ("count the values", "running total", "read the next value",
                "sentinel loop", "report the result", "search the items")


# --- template lines --------------------------------------------------------------

@dataclass
class Line:
    level: int
    text: str              # format string over the block's names and constants
    role: str | None       # name the oracle tables refer to
    kind: str              # assign | readln | writeln | repeat | until | while |
                           # for | if | begin | end


@dataclass
class Block:
    shape: str
    names: dict
    consts: dict
    decls: list            # [(role list, type)]
    lines: list[Line]
    plans: list            # [(schema, var role | None, status, [line roles])]

    def var(self, role):
        return self.names[role]


def averaging_block(names, sentinel):
    lines = [
        Line(0, "{sum} := 0;", "sum_init", "assign"),
        Line(0, "{count} := 0;", "count_init", "assign"),
        Line(0, "REPEAT", "loop", "repeat"),
        Line(1, "READLN({num});", "read", "readln"),
        Line(1, "IF {num} <> {X} THEN", "guard", "if"),
        Line(2, "BEGIN", "begin", "begin"),
        Line(3, "{sum} := {sum} + {num};", "sum_upd", "assign"),
        Line(3, "{count} := {count} + 1;", "count_upd", "assign"),
        Line(2, "END;", None, "end"),
        Line(0, "UNTIL {num} = {X};", "until", "until"),
        Line(0, "{avg} := {sum} / {count};", "avg", "assign"),
        Line(0, "WRITELN({avg});", "out", "writeln"),
    ]
    plans = [
        (RT, "sum", "complete", ["sum_init", "sum_upd"]),
        (COUNTER, "count", "complete", ["count_init", "count_upd"]),
        (NV_LOOP, None, "complete", ["loop", "until"]),
        (READ, "num", "complete", ["read"]),
        (QUOTIENT, "avg", "complete", ["avg"]),
        (OUTPUT, "avg", "complete", ["out"]),
    ]
    return Block("averaging", names, {"X": sentinel},
                 [(["sum", "count", "num"], "INTEGER"), (["avg"], "REAL")],
                 lines, plans)


def compensating_block(names, sentinel):
    """The orange shape: initial values compensate for an unguarded loop."""
    lines = [
        Line(0, "{sum} := -{X};", "sum_init", "assign"),
        Line(0, "{count} := -1;", "count_init", "assign"),
        Line(0, "REPEAT", "loop", "repeat"),
        Line(1, "READLN({num});", "read", "readln"),
        Line(1, "{sum} := {sum} + {num};", "sum_upd", "assign"),
        Line(1, "{count} := {count} + 1;", "count_upd", "assign"),
        Line(0, "UNTIL {num} = {X};", "until", "until"),
        Line(0, "{avg} := {sum} / {count};", "avg", "assign"),
        Line(0, "WRITELN({avg});", "out", "writeln"),
    ]
    plans = [
        (NV_LOOP, None, "complete", ["loop", "until"]),
        (READ, "num", "complete", ["read"]),
        (RT, "sum", "partial", ["sum_upd"]),
        (COUNTER, "count", "partial", ["count_upd"]),
        (QUOTIENT, "avg", "complete", ["avg"]),
        (OUTPUT, "avg", "complete", ["out"]),
    ]
    return Block("compensating", names, {"X": sentinel},
                 [(["sum", "count", "num"], "INTEGER"), (["avg"], "REAL")],
                 lines, plans)


def search_block(names):
    lines = [
        Line(0, "READLN({item});", "read_item", "readln"),
        Line(0, "READLN({key});", "read_key", "readln"),
        Line(0, "{idx} := 1;", "idx_init", "assign"),
        Line(0, "WHILE {item} <> {key} DO", "loop", "while"),
        Line(1, "BEGIN", "begin", "begin"),
        Line(2, "{idx} := {idx} + 1;", "idx_upd", "assign"),
        Line(2, "READLN({item});", "read_next", "readln"),
        Line(1, "END;", None, "end"),
        Line(0, "WRITELN({idx});", "out", "writeln"),
    ]
    plans = [
        (READ, "item", "complete", ["read_item"]),
        (READ, "key", "complete", ["read_key"]),
        (COUNTER, "idx", "complete", ["idx_init", "idx_upd"]),
        (SEARCH, "idx", "complete", ["loop", "idx_upd"]),
        (OUTPUT, "idx", "complete", ["out"]),
    ]
    return Block("search", names, {}, [(["item", "key", "idx"], "INTEGER")],
                 lines, plans)


def flag_block(names, sentinel):
    lines = [
        Line(0, "{flag} := FALSE;", "flag_init", "assign"),
        Line(0, "REPEAT", "loop", "repeat"),
        Line(1, "READLN({num});", "read", "readln"),
        Line(1, "IF {num} = {X} THEN", "guard", "if"),
        Line(2, "{flag} := TRUE;", "flag_set", "assign"),
        Line(0, "UNTIL {flag};", "until", "until"),
    ]
    plans = [
        (FLAG, "flag", "complete", ["flag_init", "flag_set"]),
        (READ, "num", "complete", ["read"]),
    ]
    return Block("flag", names, {"X": sentinel},
                 [(["num"], "INTEGER"), (["flag"], "BOOLEAN")], lines, plans)


def nested_block(names, rows, cols, offset, modulus, divisor):
    """Compute-bound block: nested FOR loops with MOD, DIV and IF. The IF
    takes its branch on every other column, so a block's step count and
    trace length depend on its size alone."""
    lines = [
        Line(0, "{sum} := 0;", "sum_init", "assign"),
        Line(0, "FOR {row} := 1 TO {R} DO", "outer", "for"),
        Line(1, "FOR {col} := 1 TO {C} DO", "inner", "for"),
        Line(2, "BEGIN", "begin", "begin"),
        Line(3, "{part} := ({row} * {col} {Ks}) MOD {M} DIV {D};", "part", "assign"),
        Line(3, "IF {col} MOD 2 = 0 THEN", "guard", "if"),
        Line(4, "{sum} := {sum} + {part};", "sum_upd", "assign"),
        Line(2, "END;", None, "end"),
        Line(0, "WRITELN({sum});", "out", "writeln"),
    ]
    plans = [
        (RT, "sum", "complete", ["sum_init", "sum_upd"]),
        (FOR_LOOP, None, "complete", ["outer"]),
        (FOR_LOOP, None, "complete", ["inner"]),
        (OUTPUT, "sum", "complete", ["out"]),
    ]
    consts = {"R": rows, "C": cols, "K": offset, "M": modulus, "D": divisor,
              "Ks": f"- {-offset}" if offset < 0 else f"+ {offset}"}
    return Block("nested", names, consts,
                 [(["sum", "row", "col", "part"], "INTEGER")], lines, plans)


# --- assembled programs --------------------------------------------------------

@dataclass
class Program:
    """Rendered source plus everything the oracle knows about it."""
    name: str
    source: str
    blocks: list
    line_of: list          # per block: {role: absolute line}
    decl_lines: list       # [(name, type, line)]
    stmt_kinds: list       # [(line, parse kind)] in source order
    comments: list         # [(line, text)]
    simple_lines: set      # lines of assignments, READLN and WRITELN
    universe: set          # chunk universe: simple, header and UNTIL lines
    lines: int = 0
    plans: list = field(default_factory=list)   # [(schema, var, status, lines)]

    def plan_set(self):
        return {(s, v, st, tuple(ls)) for s, v, st, ls in self.plans}


_PARSE_KIND = {"assign": "assign", "readln": "readln", "writeln": "writeln",
               "repeat": "repeat", "while": "while", "for": "for", "if": "if",
               "begin": "compound"}


def render(name, blocks, inserted=None, trailing=None):
    """Render blocks into one program.

    `inserted` maps (block index, line index) to the text of a `{...}`
    comment line put before that line; `trailing` maps positions to a
    `{...}` comment appended to the line."""
    inserted, trailing = inserted or {}, trailing or {}
    out = [f"PROGRAM {name}(input, output);"]
    decl_lines = []
    first = True
    for block in blocks:
        for roles, typ in block.decls:
            names = [block.var(r) for r in roles]
            prefix = "VAR " if first else "    "
            first = False
            out.append(f"{prefix}{', '.join(names)}: {typ};")
            decl_lines.extend((n, typ.lower(), len(out)) for n in names)
    out.append("BEGIN")
    line_of, stmt_kinds, comments = [], [], []
    simple, universe = set(), set()
    for b, block in enumerate(blocks):
        roles = {}
        fields = {**block.names, **block.consts}
        for i, line in enumerate(block.lines):
            if (b, i) in inserted:
                text = inserted[(b, i)]
                out.append("    " * (line.level + 1) + "{ " + text + " }")
                comments.append((len(out), text))
            text = "    " * (line.level + 1) + line.text.format(**fields)
            if (b, i) in trailing:
                text += " { " + trailing[(b, i)] + " }"
                comments.append((len(out) + 1, trailing[(b, i)]))
            out.append(text)
            number = len(out)
            if line.role:
                roles[line.role] = number
            if line.kind in _PARSE_KIND:
                stmt_kinds.append((number, _PARSE_KIND[line.kind]))
            if line.kind in ("assign", "readln", "writeln"):
                simple.add(number)
            if line.kind in ("assign", "readln", "writeln", "repeat", "until",
                             "while", "for", "if"):
                universe.add(number)
        line_of.append(roles)
    out.append("END.")
    program = Program(name, "\n".join(out) + "\n", list(blocks), line_of,
                      decl_lines, stmt_kinds, comments, simple, universe,
                      lines=len(out))
    for b, block in enumerate(blocks):
        for schema, var_role, status, roles in block.plans:
            var = block.var(var_role).lower() if var_role else None
            program.plans.append((schema, var, status,
                                  sorted(line_of[b][r] for r in roles)))
    return program


# --- the four corpus programs -------------------------------------------------------

DEFAULT_NAMES = {
    "grey.mp": {"sum": "Sum", "count": "Count", "num": "Num", "avg": "Average"},
    "orange.mp": {"sum": "Sum", "count": "Count", "num": "Num", "avg": "Average"},
    "search.mp": {"item": "A", "key": "B", "idx": "I"},
    "flag.mp": {"num": "Num", "flag": "Done"},
}
PROGRAM_NAMES = {"grey.mp": "Grey", "orange.mp": "Orange", "search.mp": "Search",
                 "flag.mp": "Watch"}


def corpus_block(file, names, sentinel=99999):
    if file == "grey.mp":
        return averaging_block(names, sentinel)
    if file == "orange.mp":
        return compensating_block(names, sentinel)
    if file == "search.mp":
        return search_block(names)
    return flag_block(names, sentinel)


def corpus_program(file):
    """The corpus file as shipped, with its oracle records."""
    return render(PROGRAM_NAMES[file], [corpus_block(file, DEFAULT_NAMES[file])])


def _pick(rng, role, taken):
    options = [n for n in NAMES[role] if n.lower() not in taken]
    name = rng.choice(options)
    taken.add(name.lower())
    return rng.choice((name, name.upper(), name.lower()))


def corpus_variant(rng, file):
    """A seeded variant of a corpus file: renamed variables, another
    sentinel and added comment cues."""
    taken = set()
    names = {role: _pick(rng, role, taken) for role in DEFAULT_NAMES[file]}
    sentinel = rng.choice(SENTINELS)
    block = corpus_block(file, names, sentinel)
    n = len(block.lines)
    inserted = {(0, rng.randrange(n)): rng.choice(COMMENT_CUES)
                for _ in range(rng.randint(0, 2))}
    trailing = {(0, rng.randrange(n)): rng.choice(COMMENT_CUES)
                for _ in range(rng.randint(0, 2))}
    return render(PROGRAM_NAMES[file], [block], inserted, trailing)


def malformed(rng, program):
    """Break a program so that it cannot parse; returns the broken source."""
    lines = program.source.split("\n")
    body = [i for i in range(2, len(lines) - 1)
            if lines[i].endswith(";") and (":=" in lines[i] or "READLN(" in lines[i]
                                           or "WRITELN(" in lines[i])]
    # a semicolon is a separator: dropping it is an error only when another
    # statement follows
    separated = [i for i in body if not lines[i + 1].strip().upper().startswith(
        ("UNTIL", "END", "{"))]
    how = rng.choice(("semicolon", "character", "end", "undeclared"))
    if how == "semicolon" and separated:
        i = rng.choice(separated)
        lines[i] = lines[i][:-1]
    elif how == "character":
        i = rng.choice(body)
        lines[i] = lines[i] + " @"
    elif how == "end":
        lines = [t for t in lines if t != "END."]
    else:
        i = rng.choice(body)
        lines[i] = "    Undeclared_Name := 1;"
    return "\n".join(lines)


# --- generated programs for recognition at scale ---------------------------------

SCALE_SHAPES = ("averaging", "search", "flag", "nested")


def scale_program(rng, blocks_wanted, tag):
    """Join `blocks_wanted` seeded blocks, the four shapes in equal shares
    and seeded order, each with its own variables."""
    shapes = [SCALE_SHAPES[i % len(SCALE_SHAPES)] for i in range(blocks_wanted)]
    rng.shuffle(shapes)
    blocks = []
    for b, shape in enumerate(shapes, start=1):
        def name(role):
            # a numbered name keeps its stem only when the stem is longer
            # than two letters (short stems must match exactly)
            return rng.choice([n for n in NAMES[role] if len(n) > 2]) + str(b)
        if shape == "averaging":
            blocks.append(averaging_block(
                {r: name(r) for r in ("sum", "count", "num", "avg")},
                rng.choice(SENTINELS)))
        elif shape == "search":
            blocks.append(search_block({r: name(r) for r in ("item", "key", "idx")}))
        elif shape == "flag":
            blocks.append(flag_block({r: name(r) for r in ("num", "flag")},
                                     rng.choice(SENTINELS)))
        else:
            blocks.append(nested_block(
                {r: name(r) for r in ("sum", "row", "col", "part")},
                rng.randint(2, 6), rng.randint(2, 6), rng.randint(-9, 9),
                rng.randint(5, 13), rng.randint(1, 3)))
    return render(f"Scale{tag}", blocks)


# --- reference semantics -------------------------------------------------------------

class RuntimeFault(Exception):
    def __init__(self, kind):
        self.kind = kind


def _trunc_div(a, b):
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _trunc_mod(a, b):
    return a - _trunc_div(a, b) * b


def render_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Run:
    """Template-level execution state. Steps count as the language defines
    them: one per assignment, READLN, WRITELN, IF test, WHILE test and UNTIL
    test, one per FOR header and one after each FOR iteration; a statement's
    step is taken before it runs, so a faulting statement counts."""

    def __init__(self, inputs):
        self.inputs = list(inputs)
        self.cursor = 0
        self.steps = 0
        self.outputs = []

    def step(self, n=1):
        self.steps += n

    def read(self):
        self.steps += 1
        if self.cursor >= len(self.inputs):
            raise RuntimeFault("input-exhausted")
        self.cursor += 1
        return self.inputs[self.cursor - 1]

    def write(self, value):
        self.steps += 1
        self.outputs.append(render_value(value))


def _run_block(block, m):
    c = block.consts
    if block.shape in ("averaging", "compensating"):
        guarded = block.shape == "averaging"
        total, count = (0, 0) if guarded else (-c["X"], -1)
        m.step(2)
        while True:
            value = m.read()
            if guarded:
                m.step()
                if value != c["X"]:
                    total, count = total + value, count + 1
                    m.step(2)
            else:
                total, count = total + value, count + 1
                m.step(2)
            m.step()
            if value == c["X"]:
                break
        m.step()
        if count == 0:
            raise RuntimeFault("division-by-zero")
        m.write(total / count)
    elif block.shape == "search":
        item, key = m.read(), m.read()
        idx = 1
        m.step()
        while True:
            m.step()
            if item == key:
                break
            idx += 1
            m.step()
            item = m.read()
        m.write(idx)
    elif block.shape == "flag":
        done = False
        m.step()
        while True:
            value = m.read()
            m.step()
            if value == c["X"]:
                done = True
                m.step()
            m.step()
            if done:
                break
    else:
        total = 0
        m.step(2)
        for row in range(1, c["R"] + 1):
            m.step()
            for col in range(1, c["C"] + 1):
                part = _trunc_div(_trunc_mod(row * col + c["K"], c["M"]), c["D"])
                m.step(2)
                if col % 2 == 0:
                    total += part
                    m.step()
                m.step()
            m.step()
        m.write(total)


def reference_run(program, inputs):
    """(outputs, steps, error kind or None) of a generated program."""
    m = _Run(inputs)
    try:
        for block in program.blocks:
            _run_block(block, m)
    except RuntimeFault as fault:
        return m.outputs, m.steps, fault.kind
    return m.outputs, m.steps, None


def sentinel_inputs(rng, length, sentinel, low=-1000, high=1000):
    values = []
    while len(values) < length:
        v = rng.randint(low, high)
        if v != sentinel:
            values.append(v)
    return values + [sentinel]


def search_inputs(rng, length):
    """Item stream where the key first appears at position `length`."""
    key = rng.randint(-1000, 1000)
    items = []
    while len(items) < length - 1:
        v = rng.randint(-1000, 1000)
        if v != key:
            items.append(v)
    return [items[0] if items else key, key] + items[1:] + [key]


# --- hand-derived answers for the corpus shapes -----------------------------------
# Relations follow from the statements' definitions and uses along the
# control flow (a REPEAT's condition node sits on its UNTIL line); control
# relations are a statement's flow-graph neighbours.

RELATIONS = {
    "averaging": {
        "sum_init": (["sum_upd", "avg"], ["count_init"]),
        "count_init": (["count_upd", "avg"], ["sum_init", "read"]),
        "read": (["guard", "sum_upd", "until"], ["count_init", "guard", "until"]),
        "guard": (["read"], ["read", "sum_upd", "until"]),
        "sum_upd": (["sum_init", "read", "avg"], ["guard", "count_upd"]),
        "count_upd": (["count_init", "avg"], ["sum_upd", "until"]),
        "avg": (["sum_init", "count_init", "sum_upd", "count_upd", "out"],
                ["until", "out"]),
        "out": (["avg"], ["avg"]),
    },
    "compensating": {
        "sum_init": (["sum_upd"], ["count_init"]),
        "count_init": (["count_upd"], ["sum_init", "read"]),
        "read": (["sum_upd", "until"], ["count_init", "sum_upd", "until"]),
        "sum_upd": (["sum_init", "read", "avg"], ["read", "count_upd"]),
        "count_upd": (["count_init", "avg"], ["sum_upd", "until"]),
        "avg": (["sum_upd", "count_upd", "out"], ["until", "out"]),
        "out": (["avg"], ["avg"]),
    },
    "search": {
        "read_item": (["loop"], ["read_key"]),
        "read_key": (["loop"], ["read_item", "idx_init"]),
        "idx_init": (["idx_upd", "out"], ["read_key", "loop"]),
        "loop": (["read_item", "read_key", "read_next"],
                 ["idx_init", "idx_upd", "read_next", "out"]),
        "idx_upd": (["idx_init", "out"], ["loop", "read_next"]),
        "read_next": (["loop"], ["loop", "idx_upd"]),
        "out": (["idx_init", "idx_upd"], ["loop"]),
    },
    "flag": {
        "flag_init": (["until"], ["read"]),
        "read": (["guard"], ["flag_init", "guard", "until"]),
        "guard": (["read"], ["read", "flag_set", "until"]),
        "flag_set": (["until"], ["guard", "until"]),
    },
}

# prime-structure chunks: maximal statement sequences, loops and conditionals
CONTROL_CHUNKS = {
    "averaging": [("sequence", ["sum_init", "count_init"]),
                  ("iteration", ["loop", "until"]), ("sequence", ["read"]),
                  ("conditional", ["guard"]), ("sequence", ["sum_upd", "count_upd"]),
                  ("sequence", ["avg", "out"])],
    "compensating": [("sequence", ["sum_init", "count_init"]),
                     ("iteration", ["loop", "until"]),
                     ("sequence", ["read", "sum_upd", "count_upd"]),
                     ("sequence", ["avg", "out"])],
    "search": [("sequence", ["read_item", "read_key", "idx_init"]),
               ("iteration", ["loop"]), ("sequence", ["idx_upd", "read_next"]),
               ("sequence", ["out"])],
    "flag": [("sequence", ["flag_init"]), ("iteration", ["loop", "until"]),
             ("sequence", ["read"]), ("conditional", ["guard"]),
             ("sequence", ["flag_set"])],
}

# blanked initialization line -> the variable whose plan-like "<v> := 0" is
# the rank-1 answer under both strategies (the counter and running total
# initialize to zero, even where the program wrote otherwise)
FILL_BLANK = {
    "averaging": {"count_init": "count", "sum_init": "sum"},
    "compensating": {"count_init": "count", "sum_init": "sum"},
    "search": {"idx_init": "idx"},
}

# discourse violations: the compensating initializations do double duty
VIOLATIONS = {"compensating": [("D2", ["sum_init", "count_init"])]}

# expectations on initialization slots: verified where the code initializes
# to zero, violated where it compensates
INIT_EXPECTATIONS = {
    "averaging": [(RT, "sum", "verified", "sum_init"),
                  (COUNTER, "count", "verified", "count_init")],
    "compensating": [(RT, "sum", "violated", "sum_init"),
                     (COUNTER, "count", "violated", "count_init")],
}


def expected_chunks(program):
    """Plan-mode chunks: complete planted plans, then the residue."""
    chunks, covered = [], set()
    for schema, _, status, lines in program.plans:
        if status == "complete" and lines:
            chunks.append((schema, list(lines)))
            covered |= set(lines)
    chunks.sort(key=lambda c: (c[1][0], c[0]))
    residue = sorted(program.universe - covered)
    if residue:
        chunks.append(("(residue)", residue))
    return chunks


def expected_planliness(program):
    """(score, coverage, [(rule, lines)]) by the documented formula."""
    covered = set()
    for _, _, status, lines in program.plans:
        if status == "complete":
            covered |= set(lines)
    coverage = len(covered & program.simple_lines) / len(program.simple_lines)
    violations = []
    for b, block in enumerate(program.blocks):
        for rule, roles in VIOLATIONS.get(block.shape, []):
            violations.append((rule, sorted(program.line_of[b][r] for r in roles)))
    score = coverage * (1 - 0.25 * min(4, len(violations)))
    return score, coverage, violations
