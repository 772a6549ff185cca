"""Lexer, parser, pretty printer and line blanking for the mini-Pascal subset.

The language covers exactly what the fixture corpus needs: one PROGRAM with
scalar VAR declarations (integer/real/boolean) and a statement body built
from assignment, READLN, WRITELN, REPEAT/UNTIL, WHILE/DO, FOR/TO, IF/THEN
[/ELSE] and BEGIN/END blocks. Keywords and identifiers are case-insensitive;
identifiers keep their spelling. Comments `{...}` and `(*...*)` are kept as
tokens and collected per program.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, is_dataclass
from decimal import Decimal
from typing import NamedTuple

from .errors import AnalysisError, LexError, ParseError

KEYWORDS = frozenset({
    "PROGRAM", "VAR", "BEGIN", "END", "REPEAT", "UNTIL", "WHILE", "DO",
    "FOR", "TO", "IF", "THEN", "ELSE", "READLN", "WRITELN",
    "INTEGER", "REAL", "BOOLEAN", "NOT", "AND", "OR", "DIV", "MOD",
    "TRUE", "FALSE",
})

KW = "keyword"
IDENT = "identifier"
INT = "integer-literal"
REALLIT = "real-literal"
OP = "operator"
PUNCT = "punctuation"
COMMENT = "comment"

# One match per token: the whitespace before it (group 1), then one
# alternative per token class, tried in this order. `end` takes the end of
# the source, so the whitespace group never gives back a character, and
# `bad` any character no other alternative starts with.
# Identifiers and numbers are ASCII only: str.isdigit also accepts "²", which
# int() rejects, and the KB's name patterns match no other letters. `\s`
# accepts exactly the characters str.isspace accepts.
_TOKEN = re.compile(r"""
    (\s*)
    (?: \{(?P<brace>[^}]*)\}
      | \(\*(?P<star>.*?)\*\)
      | (?P<opener>\{|\(\*)
      | (?P<identifier>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<real>[0-9]+\.[0-9]+)
      | (?P<integer>[0-9]+)
      | (?P<operator>:=|<>|<=|>=|[-+*/=<>])
      | (?P<punctuation>[(),;:.])
      | (?P<end>\Z)
      | (?P<bad>.)
    )
""", re.VERBOSE | re.DOTALL)
# the token kind of each group, by group number (None: not a plain token)
_TOKEN_KINDS = [None] * (_TOKEN.groups + 1)
for _group, _kind in (("identifier", IDENT), ("real", REALLIT), ("integer", INT),
                      ("operator", OP), ("punctuation", PUNCT)):
    _TOKEN_KINDS[_TOKEN.groupindex[_group]] = _kind


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    start: int
    end: int


def tokenize(source: str) -> list[Token]:
    """Turn source text into tokens; comments become COMMENT tokens with the
    interior text stripped of surrounding whitespace."""
    tokens = []
    append = tokens.append
    new = tuple.__new__             # Token's own __new__ is a Python function
    line = 1
    for match in _TOKEN.finditer(source):
        space = match[1]
        if space:
            line += space.count("\n")
        group = match.lastindex
        kind = _TOKEN_KINDS[group]
        if kind is not None:
            text = match[group]
            if kind is IDENT and text.upper() in KEYWORDS:
                kind = KW
            append(new(Token, (kind, text, line, match.end(1), match.end())))
            continue
        name = match.lastgroup
        if name == "end":
            break
        if name == "bad":
            raise LexError(f"illegal character {match[group]!r}", line)
        if name == "opener":
            raise LexError("unterminated comment", line)
        text = match[group]
        append(new(Token, (COMMENT, text.strip(), line, match.end(1), match.end())))
        line += text.count("\n")
    return tokens


# --- AST ---------------------------------------------------------------

@dataclass
class IntLit:
    value: int
    line: int


@dataclass
class RealLit:
    value: float
    line: int


@dataclass
class BoolLit:
    value: bool
    line: int


@dataclass
class VarRef:
    name: str
    line: int


@dataclass
class Unary:
    op: str
    operand: object
    line: int


@dataclass
class Binary:
    op: str
    left: object
    right: object
    line: int


@dataclass
class Assign:
    target: str
    expr: object
    line: int


@dataclass
class Readln:
    var: str
    line: int


@dataclass
class Writeln:
    expr: object
    line: int


@dataclass
class Repeat:
    body: list
    cond: object
    line: int
    until_line: int


@dataclass
class While:
    cond: object
    body: object
    line: int


@dataclass
class For:
    var: str
    start: object
    stop: object
    body: object
    line: int


@dataclass
class If:
    cond: object
    then: object
    otherwise: object
    line: int


@dataclass
class Compound:
    body: list
    line: int


@dataclass
class Hole:
    """Placeholder left by blank_line; never produced by parse()."""
    line: int


@dataclass
class Decl:
    name: str
    type: str  # integer | real | boolean
    line: int


@dataclass
class Program:
    name: str
    params: list[str]
    declarations: list[Decl]
    body: list
    comments: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class BlankedProgram:
    blank_line: int
    context: Program


SIMPLE_KINDS = (Assign, Readln, Writeln, Hole)
LOOP_KINDS = (Repeat, While, For)

# The INTEGER range. A literal outside it is a syntax error (so the smallest
# value can only be computed), and the interpreter ends a run whose values
# leave it.
INT_MIN = -(2 ** 63)
INT_MAX = 2 ** 63 - 1

# Binary operators by precedence, loosest level first; every level is
# left-associative. The parser and the renderer both read it. Unary `-` and
# NOT bind tighter than any of them.
_BINARY_LEVELS = (
    frozenset({"=", "<>", "<", "<=", ">", ">="}),
    frozenset({"+", "-", "or"}),
    frozenset({"*", "/", "div", "mod", "and"}),
)
_PRECEDENCE = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

# The deepest nesting a program may have. The parser counts statements,
# parentheses and unary operators it enters; the tree it returns counts
# statements and expression nodes, every operator of a chain `1+1+...+1` one
# level. Later stages recurse over the tree, and at this depth every
# subcommand stays within Python's default recursion limit.
MAX_DEPTH = 100

# the kind of the token the parser appends after the last one
_END_OF_INPUT = "end-of-input"


# --- parser ------------------------------------------------------------

class _Parser:
    """Recursive descent over one program's tokens. It raises syntax errors
    only; the checks that follow them read what it notes along the way."""

    def __init__(self, tokens):
        self.tokens = [t for t in tokens if t.kind != COMMENT]
        # one end-of-input token on the last token's line, where errors at
        # the end are reported
        line, end = (self.tokens[-1].line, self.tokens[-1].end) if self.tokens else (1, 0)
        self.tokens.append(Token(_END_OF_INPUT, "", line, end, end))
        self.pos = 0
        self.tok = self.tokens[0]  # the current token
        self.depth = 0    # statements, parentheses and unary operators entered
        self.too_deep = False     # an expression takes the tree past MAX_DEPTH
        self.declared = set()     # lower-cased declared names
        self.duplicate = None     # the first name token declared a second time
        self.statements = 0       # statements begun, so each one's preorder number
        self.current = 0          # preorder number of the statement whose names are read
        self.undeclared = None    # (preorder number, name, line) first in walk order

    def enter(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"nesting deeper than {MAX_DEPTH} levels")

    def check_declared(self, text, line):
        """Note a name the current statement defines or reads if it is
        undeclared and comes first in walk order: statements in preorder, each
        one's defined name before the names its expressions read."""
        if text.lower() not in self.declared and (
                self.undeclared is None or self.current < self.undeclared[0]):
            self.undeclared = (self.current, text, line)

    def fail(self, message, expected=()):
        raise ParseError(message, self.tok.line, expected)

    def advance(self):
        """Move past the current token, which is not the end of input, and
        return it."""
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def at_keyword(self, *words):
        tok = self.tok
        return tok.kind == KW and tok.text.upper() in words

    def expect_keyword(self, word):
        if not self.at_keyword(word):
            self.fail(f"expected {word}", {word})
        return self.advance()

    def expect(self, kind, text=None):
        tok = self.tok
        if tok.kind != kind or (text is not None and tok.text != text):
            self.fail("unexpected token" if tok.kind == _END_OF_INPUT
                      else f"unexpected {tok.text!r}", {text or kind})
        return self.advance()

    def accept(self, kind, text=None):
        tok = self.tok
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def program(self):
        self.expect_keyword("PROGRAM")
        name = self.expect(IDENT).text
        params = []
        if self.accept(PUNCT, "("):
            params.append(self.expect(IDENT).text)
            while self.accept(PUNCT, ","):
                params.append(self.expect(IDENT).text)
            self.expect(PUNCT, ")")
        self.expect(PUNCT, ";")
        decls = self.declarations()
        self.expect_keyword("BEGIN")
        body = self.statement_list({"END"})
        self.expect_keyword("END")
        self.expect(PUNCT, ".")
        if self.tok.kind != _END_OF_INPUT:
            self.fail("trailing input after final '.'")
        return Program(name, params, decls, body)

    def declarations(self):
        decls = []
        while self.at_keyword("VAR"):
            self.advance()
            while self.tok.kind == IDENT:
                names = [self.advance()]
                while self.accept(PUNCT, ","):
                    names.append(self.expect(IDENT))
                self.expect(PUNCT, ":")
                if not self.at_keyword("INTEGER", "REAL", "BOOLEAN"):
                    self.fail("expected a type name", {"INTEGER", "REAL", "BOOLEAN"})
                ty = self.advance().text.lower()
                self.expect(PUNCT, ";")
                for tok in names:
                    key = tok.text.lower()
                    if key in self.declared and self.duplicate is None:
                        self.duplicate = tok
                    self.declared.add(key)
                    decls.append(Decl(tok.text, ty, tok.line))
        return decls

    def statement_list(self, terminators):
        stmts = []
        while True:
            while self.accept(PUNCT, ";"):
                pass
            if self.tok.kind == _END_OF_INPUT:
                self.fail("unterminated statement list", terminators)
            if self.at_keyword(*terminators):
                return stmts
            stmts.append(self.statement())
            if self.at_keyword(*terminators):
                return stmts
            self.expect(PUNCT, ";")

    def statement(self):
        self.enter()
        self.statements += 1
        self.current = self.statements
        stmt = self._statement()
        self.depth -= 1
        return stmt

    def _statement(self):
        tok = self.tok
        if tok.kind == _END_OF_INPUT:
            self.fail("expected a statement")
        if tok.kind == IDENT:
            self.advance()
            self.expect(OP, ":=")
            self.check_declared(tok.text, tok.line)
            return Assign(tok.text, self.expression(), tok.line)
        if tok.kind != KW:
            self.fail(f"unexpected {tok.text!r}", {"statement"})
        word = tok.text.upper()
        if word == "READLN":
            self.advance()
            self.expect(PUNCT, "(")
            var = self.expect(IDENT)
            self.expect(PUNCT, ")")
            self.check_declared(var.text, tok.line)
            return Readln(var.text, tok.line)
        if word == "WRITELN":
            self.advance()
            self.expect(PUNCT, "(")
            expr = self.expression()
            self.expect(PUNCT, ")")
            return Writeln(expr, tok.line)
        if word == "REPEAT":
            self.advance()
            number = self.current
            body = self.statement_list({"UNTIL"})
            until = self.expect_keyword("UNTIL")
            # the condition's names come before the body's in walk order
            self.current = number
            cond = self.expression()
            return Repeat(body, cond, tok.line, until.line)
        if word == "WHILE":
            self.advance()
            cond = self.expression()
            self.expect_keyword("DO")
            return While(cond, self.statement(), tok.line)
        if word == "FOR":
            self.advance()
            var = self.expect(IDENT)
            self.check_declared(var.text, tok.line)
            self.expect(OP, ":=")
            start = self.expression()
            self.expect_keyword("TO")
            stop = self.expression()
            self.expect_keyword("DO")
            return For(var.text, start, stop, self.statement(), tok.line)
        if word == "IF":
            self.advance()
            cond = self.expression()
            self.expect_keyword("THEN")
            then = self.statement()
            otherwise = None
            if self.at_keyword("ELSE"):
                self.advance()
                otherwise = self.statement()
            return If(cond, then, otherwise, tok.line)
        if word == "BEGIN":
            self.advance()
            body = self.statement_list({"END"})
            self.expect_keyword("END")
            return Compound(body, tok.line)
        self.fail(f"unexpected keyword {tok.text}", {"statement"})

    def expression(self):
        """A statement's expression. The statement's depth plus the
        expression's height is the depth of its deepest node."""
        expr, height = self.binary(0)
        if self.depth + height > MAX_DEPTH:
            self.too_deep = True
        return expr

    def binary(self, level):
        """Binary operators of precedence `level` and tighter, left-associative,
        over factors; with the height of the tree."""
        left, height = self.factor()
        while True:
            # no identifier, literal, punctuation or the end spells an operator
            op = self.tok.text.lower()
            op_level = _PRECEDENCE.get(op, -1)
            if op_level < level:
                return left, height
            self.advance()
            right, right_height = self.binary(op_level + 1)
            left = Binary(op, left, right, left.line)
            height = 1 + max(height, right_height)

    def factor(self):
        """A literal, variable, unary operation or parenthesized expression,
        with its height."""
        tok = self.tok
        if tok.kind == _END_OF_INPUT:
            self.fail("expected an expression")
        if tok.kind == IDENT:
            self.advance()
            self.check_declared(tok.text, tok.line)
            return VarRef(tok.text, tok.line), 1
        if (tok.kind == OP and tok.text == "-") or self.at_keyword("NOT"):
            self.advance()
            self.enter()
            operand, height = self.factor()
            self.depth -= 1
            return Unary("-" if tok.text == "-" else "not", operand, tok.line), height + 1
        if tok.kind == INT:
            # 20 digits exceed INT_MAX, and int() refuses far longer ones
            value = int(tok.text) if len(tok.text.lstrip("0")) < 20 else INT_MAX + 1
            if value > INT_MAX:
                self.fail("integer literal outside 64 bits")
            self.advance()
            return IntLit(value, tok.line), 1
        if tok.kind == REALLIT:
            value = float(tok.text)
            if math.isinf(value):
                self.fail("real literal too large")
            self.advance()
            return RealLit(value, tok.line), 1
        if self.at_keyword("TRUE", "FALSE"):
            self.advance()
            return BoolLit(tok.text.upper() == "TRUE", tok.line), 1
        if tok.kind == PUNCT and tok.text == "(":
            self.advance()
            self.enter()
            expr, height = self.binary(0)
            self.depth -= 1
            self.expect(PUNCT, ")")
            return expr, height
        self.fail(f"unexpected {tok.text!r}", {"expression"})


def parse(source: str) -> Program:
    """Parse source text and check declarations: every identifier used in the
    body must be declared exactly once."""
    return _parse_tokens(tokenize(source))


def _parse_tokens(tokens: list[Token]) -> Program:
    """Parse, then raise what the parser noted: a node deeper than MAX_DEPTH,
    a duplicate declaration, the first undeclared name in walk order."""
    parser = _Parser(tokens)
    program = parser.program()
    if parser.too_deep:
        _check_depth(program)
    if parser.duplicate is not None:
        raise ParseError(f"duplicate declaration of {parser.duplicate.text}",
                         parser.duplicate.line)
    if parser.undeclared is not None:
        _, name, line = parser.undeclared
        raise ParseError(f"undeclared identifier {name}", line)
    program.comments = [(t.line, t.text) for t in tokens if t.kind == COMMENT]
    return program


def _check_depth(program: Program):
    """Raise at the node of a too-deep tree that a last-in first-out walk
    meets first, walking without recursion."""
    stack = [(s, 1) for s in program.body]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", node.line)
        if isinstance(node, Binary):
            children = [node.left, node.right]
        elif isinstance(node, Unary):
            children = [node.operand]
        else:
            children = _expressions(node) + substatements(node)
        stack.extend((child, depth + 1) for child in children)


# --- statement facts ---------------------------------------------------------
# What a statement nests, defines and reads, and what a loop's header says.
# Every other module asks these functions instead of taking statements apart.

def substatements(stmt) -> list:
    """The statements nested directly in `stmt`, in source order."""
    if isinstance(stmt, (Repeat, Compound)):
        return list(stmt.body)
    if isinstance(stmt, (While, For)):
        return [stmt.body]
    if isinstance(stmt, If):
        return [stmt.then] if stmt.otherwise is None else [stmt.then, stmt.otherwise]
    return []


def defined_names(stmt) -> list[tuple[str, int]]:
    """(name, line) of the variable `stmt` itself assigns: the target of an
    assignment or READLN, or a FOR loop's control variable."""
    if isinstance(stmt, Assign):
        return [(stmt.target, stmt.line)]
    if isinstance(stmt, (Readln, For)):
        return [(stmt.var, stmt.line)]
    return []


def used_names(stmt) -> list[tuple[str, int]]:
    """(name, line) of every variable `stmt`'s own expressions read, in source
    order; nested statements are not included. A FOR header reads its bounds."""
    out = []
    for expr in _expressions(stmt):
        _collect_names(expr, out)
    return out


def _expressions(stmt) -> list:
    """The expressions `stmt` itself evaluates, in source order."""
    if isinstance(stmt, (Assign, Writeln)):
        return [stmt.expr]
    if isinstance(stmt, (Repeat, While, If)):
        return [stmt.cond]
    if isinstance(stmt, For):
        return [stmt.start, stmt.stop]
    return []


def _collect_names(expr, out):
    """Append (name, line) of every variable `expr` reads, in source order."""
    if isinstance(expr, VarRef):
        out.append((expr.name, expr.line))
    elif isinstance(expr, Binary):
        _collect_names(expr.left, out)
        _collect_names(expr.right, out)
    elif isinstance(expr, Unary):
        _collect_names(expr.operand, out)


_LOOP_KEYWORDS = {Repeat: "repeat", While: "while", For: "for"}


def loop_keyword(loop) -> str:
    """`repeat`, `while` or `for`."""
    return _LOOP_KEYWORDS[type(loop)]


def loop_form(loop) -> str:
    """The loop's header as cue text: `repeat <cond>`, `while <cond>` or
    `for <var>:=<start> to <stop>`."""
    if isinstance(loop, For):
        return f"for {loop.var}:={expr_text(loop.start)} to {expr_text(loop.stop)}"
    return f"{loop_keyword(loop)} {expr_text(loop.cond)}"


def test_line(loop) -> int:
    """The line of the loop's exit test: a REPEAT's UNTIL line, otherwise the
    header line."""
    return loop.until_line if isinstance(loop, Repeat) else loop.line


def walk_statements(stmts):
    """Yield every statement, depth first, including structured ones."""
    for s in stmts:
        yield s
        nested = substatements(s)
        if nested:
            yield from walk_statements(nested)


def statement_at(program: Program, line: int):
    for s in walk_statements(program.body):
        if s.line == line:
            return s
    return None


# --- text rendering ----------------------------------------------------

def expr_text(expr) -> str:
    """Compact, case-preserving rendering used for cue payloads and display."""
    return _render(expr, False)


def _render(expr, canonical):
    """An expression as compact cue text (`a+b div 2`, `not done`) or, when
    `canonical`, in the pretty printer's layout (`a + b DIV 2`, `NOT done`);
    operands are parenthesized only where precedence requires it."""
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Binary):
        left = _render(expr.left, canonical)
        right = _render(expr.right, canonical)
        level = _PRECEDENCE[expr.op]
        if isinstance(expr.left, Binary) and _PRECEDENCE[expr.left.op] < level:
            left = f"({left})"
        if isinstance(expr.right, Binary) and _PRECEDENCE[expr.right.op] <= level:
            right = f"({right})"
        if canonical:
            return f"{left} {expr.op.upper()} {right}"
        return f"{left} {expr.op} {right}" if expr.op.isalpha() else f"{left}{expr.op}{right}"
    if isinstance(expr, Unary):
        inner = _render(expr.operand, canonical)
        if isinstance(expr.operand, Binary):
            inner = f"({inner})"
        if expr.op == "-":
            return f"-{inner}"
        return f"NOT {inner}" if canonical else f"not {inner}"
    if isinstance(expr, BoolLit):
        text = "true" if expr.value else "false"
        return text.upper() if canonical else text
    if isinstance(expr, RealLit):
        # shortest round-trip digits, positional: the lexer reads no exponent
        text = format(Decimal(repr(expr.value)), "f")
        return text if "." in text else text + ".0"
    raise TypeError(f"not an expression: {expr!r}")


def node_text(stmt) -> str:
    """One-line rendering of a simple statement (payload form, no spaces)."""
    if isinstance(stmt, Assign):
        return f"{stmt.target}:={expr_text(stmt.expr)}"
    if isinstance(stmt, Readln):
        return f"readln({stmt.var})"
    if isinstance(stmt, Writeln):
        return f"writeln({expr_text(stmt.expr)})"
    if isinstance(stmt, Hole):
        return "(blank)"
    raise TypeError(f"no single-line text for {type(stmt).__name__}")


# --- pretty printer ----------------------------------------------------

def pretty_print(program: Program) -> str:
    """Render a program in the canonical layout; reparsing the result yields a
    structurally identical program (holes render as comments and are the one
    exception)."""
    head = f"PROGRAM {program.name}"
    if program.params:
        head += "(" + ", ".join(program.params) + ")"
    lines = [head + ";"]
    groups = []
    for d in program.declarations:
        if groups and groups[-1][1] == d.type:
            groups[-1][0].append(d.name)
        else:
            groups.append(([d.name], d.type))
    for i, (names, ty) in enumerate(groups):
        prefix = "VAR " if i == 0 else "    "
        lines.append(f"{prefix}{', '.join(names)}: {ty.upper()};")
    if not program.body:
        lines.append("BEGIN END.")
        return "\n".join(lines) + "\n"
    lines.append("BEGIN")
    for s in program.body:
        lines.extend(_stmt_lines(s, 4, ";"))
    lines.append("END.")
    return "\n".join(lines) + "\n"


def _stmt_lines(stmt, indent, terminator):
    pad = " " * indent
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.target} := {_render(stmt.expr, True)}{terminator}"]
    if isinstance(stmt, Readln):
        return [f"{pad}READLN({stmt.var}){terminator}"]
    if isinstance(stmt, Writeln):
        return [f"{pad}WRITELN({_render(stmt.expr, True)}){terminator}"]
    if isinstance(stmt, Hole):
        return [f"{pad}{{ blank }}"]
    if isinstance(stmt, Repeat):
        out = [f"{pad}REPEAT"]
        for s in stmt.body:
            out.extend(_stmt_lines(s, indent + 4, ";"))
        out.append(f"{pad}UNTIL {_render(stmt.cond, True)}{terminator}")
        return out
    if isinstance(stmt, While):
        out = [f"{pad}WHILE {_render(stmt.cond, True)} DO"]
        out.extend(_stmt_lines(stmt.body, indent + 4, terminator))
        return out
    if isinstance(stmt, For):
        out = [f"{pad}FOR {stmt.var} := {_render(stmt.start, True)} TO {_render(stmt.stop, True)} DO"]
        out.extend(_stmt_lines(stmt.body, indent + 4, terminator))
        return out
    if isinstance(stmt, If):
        out = [f"{pad}IF {_render(stmt.cond, True)} THEN"]
        if stmt.otherwise is None:
            out.extend(_stmt_lines(stmt.then, indent + 4, terminator))
        else:
            out.extend(_stmt_lines(stmt.then, indent + 4, ""))
            out.append(f"{pad}ELSE")
            out.extend(_stmt_lines(stmt.otherwise, indent + 4, terminator))
        return out
    if isinstance(stmt, Compound):
        out = [f"{pad}BEGIN"]
        for s in stmt.body:
            out.extend(_stmt_lines(s, indent + 4, ";"))
        out.append(f"{pad}END{terminator}")
        return out
    raise TypeError(f"not a statement: {stmt!r}")


# --- structural equality ------------------------------------------------

_POSITIONS = frozenset({"line", "until_line", "comments"})


def structurally_equal(a, b) -> bool:
    """Node-for-node equality of node types and dataclass fields, ignoring
    line numbers, comments and the case of names; a literal equals only a
    literal of the same kind and value."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(structurally_equal, a, b))
    if is_dataclass(a):
        return all(structurally_equal(getattr(a, f.name), getattr(b, f.name))
                   for f in fields(a) if f.name not in _POSITIONS)
    if isinstance(a, str):
        return a.lower() == b.lower()
    return a == b


# --- blanking -----------------------------------------------------------

def blank_line(source: str, line: int) -> BlankedProgram:
    """Replace the simple statement on `line` with a hole; everything else is
    kept as parsed."""
    tokens = tokenize(source)
    program = _parse_tokens(tokens)
    # a program has at least one token; lines after the last one are out of range
    if line < 1 or line > tokens[-1].line:
        raise AnalysisError(f"line {line} out of range")
    target = statement_at(program, line)
    if not isinstance(target, (Assign, Readln, Writeln)):
        raise AnalysisError(f"line {line} is not a blankable statement")
    # the tree was parsed for this call alone, so the hole goes in in place
    hole = Hole(line)
    for parent in (program, *walk_statements(program.body)):
        for name in ("body", "then", "otherwise"):
            child = getattr(parent, name, None)
            if child is target:
                setattr(parent, name, hole)
            elif isinstance(child, list):
                child[:] = [hole if s is target else s for s in child]
    return BlankedProgram(line, program)
