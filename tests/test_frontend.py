import copy

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (brute_force_def_use, char_loop_tokenize, chunk_universe,
                     round_robin_def_use, two_pass_parse)
from plancog import analysis as an
from plancog import frontend as fe
from plancog import relations as rel
from plancog.errors import AnalysisError, LexError, ParseError

SPEC_KEYWORDS = {
    "PROGRAM", "VAR", "BEGIN", "END", "REPEAT", "UNTIL", "WHILE", "DO",
    "FOR", "TO", "IF", "THEN", "ELSE", "READLN", "WRITELN",
    "INTEGER", "REAL", "BOOLEAN", "NOT", "AND", "OR", "DIV", "MOD",
    "TRUE", "FALSE",
}


def test_keyword_set_is_exact():
    assert fe.KEYWORDS == frozenset(SPEC_KEYWORDS)


def test_tokenize_single_statement():
    kinds = [(t.kind, t.text) for t in fe.tokenize("Count:=0;")]
    assert kinds == [("identifier", "Count"), ("operator", ":="),
                     ("integer-literal", "0"), ("punctuation", ";")]


def test_tokenize_grey_has_repeat_keyword(grey_src):
    tokens = fe.tokenize(grey_src)
    assert any(t.kind == "keyword" and t.text.upper() == "REPEAT" for t in tokens)


def test_tokenize_comment_only():
    tokens = fe.tokenize("{sum}")
    assert len(tokens) == 1
    assert tokens[0].kind == "comment"
    assert tokens[0].text == "sum"


def test_tokenize_brace_and_paren_star_comments():
    tokens = fe.tokenize("(* running total *) {x}")
    assert [t.text for t in tokens if t.kind == "comment"] == ["running total", "x"]


def test_token_lines_non_decreasing(corpus_sources):
    for src in corpus_sources.values():
        lines = [t.line for t in fe.tokenize(src)]
        assert lines == sorted(lines)


def test_token_spans_reconstruct_source(corpus_sources):
    # concatenating token spans with the whitespace between them reproduces
    # the source exactly
    for src in corpus_sources.values():
        tokens = fe.tokenize(src)
        cursor = 0
        for t in tokens:
            assert src[cursor:t.start].strip() == ""
            cursor = t.end
        assert src[cursor:].strip() == ""


def test_tokenize_unterminated_comment():
    with pytest.raises(LexError) as err:
        fe.tokenize("BEGIN { never closed")
    assert err.value.line == 1


def test_tokenize_illegal_character():
    with pytest.raises(LexError) as err:
        fe.tokenize("x\n@")
    assert err.value.line == 2


# fragments that sit on the lexer's boundaries: comment delimiters, a REAL
# point without digits after it, non-ASCII digits, letters and spaces, line
# breaks of both conventions, and characters either side of `\s` (a NUL, a
# form feed, a Unicode line separator)
_LEX_FRAGMENTS = ["{", "}", "(*", "*)", "(", ")", "*", "1..2", "1.5", "3.", ".7",
                  "²", "١", "é", "\u00a0", "\r\n", "\n", " ", "\t", ":=", ":",
                  "<>", "<=", ">=", "<", ">", "=", "+", "-", "/", ";", ",", ".",
                  "x", "_a1", "Div", "BEGIN", "0", "42", "@", "'", "\x00", "\x0c",
                  "\u2028"]


def _lex_outcome(tokenize, source):
    try:
        return tokenize(source)
    except LexError as err:
        return ("LexError", str(err), err.line)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_LEX_FRAGMENTS), max_size=30).map("".join),
                 st.text(alphabet="".join(_LEX_FRAGMENTS), max_size=40)))
def test_tokenize_matches_character_loop(source):
    assert _lex_outcome(fe.tokenize, source) == _lex_outcome(char_loop_tokenize, source)


def test_tokenize_matches_character_loop_on_corpus(corpus_sources):
    for src in corpus_sources.values():
        assert fe.tokenize(src) == char_loop_tokenize(src)


# binary operators by precedence level, loosest first, as the language defines them
_LEVEL = {"=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
          "+": 2, "-": 2, "OR": 2,
          "*": 3, "/": 3, "DIV": 3, "MOD": 3, "AND": 3}


def _assigned(expr_source):
    source = f"PROGRAM P;\nVAR a, b, c, x: INTEGER;\nBEGIN\n    x := {expr_source}\nEND.\n"
    return fe.parse(source).body[0].expr


def _shape(expr):
    """The grouping of an expression as nested tuples of operators and names."""
    if isinstance(expr, fe.Binary):
        return (_shape(expr.left), expr.op, _shape(expr.right))
    if isinstance(expr, fe.Unary):
        return (expr.op, _shape(expr.operand))
    return expr.name


def test_binary_operator_precedence_and_associativity():
    for op1 in _LEVEL:
        for op2 in _LEVEL:
            first, second = op1.lower(), op2.lower()
            if _LEVEL[op2] > _LEVEL[op1]:
                expected = ("a", first, ("b", second, "c"))
            else:
                expected = (("a", first, "b"), second, "c")
            assert _shape(_assigned(f"a {op1} b {op2} c")) == expected, (op1, op2)
            # the printers parenthesize exactly where the grouping needs it
            left = _assigned(f"(a {op1} b) {op2} c")
            right = _assigned(f"a {op1} (b {op2} c)")
            left_parens = _LEVEL[op1] < _LEVEL[op2]
            right_parens = _LEVEL[op2] <= _LEVEL[op1]
            assert ("(" in fe.expr_text(left)) == left_parens, (op1, op2)
            assert ("(" in fe.expr_text(right)) == right_parens, (op1, op2)
            assert _shape(_assigned(fe.expr_text(left))) == _shape(left)
            assert _shape(_assigned(fe.expr_text(right))) == _shape(right)


@pytest.mark.parametrize("op", list(_LEVEL))
def test_unary_operators_bind_tighter_than_binary(op):
    low = op.lower()
    assert _shape(_assigned(f"-a {op} b")) == (("-", "a"), low, "b")
    assert _shape(_assigned(f"NOT a {op} b")) == (("not", "a"), low, "b")
    assert _shape(_assigned(f"a {op} -b")) == ("a", low, ("-", "b"))
    assert _shape(_assigned(f"a {op} NOT NOT b")) == ("a", low, ("not", ("not", "b")))
    assert _shape(_assigned(f"-(a {op} b)")) == ("-", ("a", low, "b"))
    assert fe.expr_text(_assigned(f"-(a {op} b)")).startswith("-(")


def test_parse_grey(grey):
    assert grey.name == "Grey"
    assert [d.name for d in grey.declarations] == ["Sum", "Count", "Num", "Average"]
    assert [d.type for d in grey.declarations] == ["integer"] * 3 + ["real"]
    assert isinstance(grey.body[2], fe.Repeat)


def test_parse_orange_loop_has_no_if(orange):
    assert orange.name == "Orange"
    loop = next(s for s in orange.body if isinstance(s, fe.Repeat))
    assert not any(isinstance(s, fe.If) for s in fe.walk_statements(loop.body))


def test_parse_empty_program():
    program = fe.parse("PROGRAM P(input,output); BEGIN END.")
    assert program.name == "P"
    assert program.body == []


def test_parse_statement_lines(grey):
    lines = {type(s).__name__: s.line for s in fe.walk_statements(grey.body)
             if not isinstance(s, (fe.Compound,))}
    by_line = sorted(s.line for s in fe.walk_statements(grey.body)
                     if isinstance(s, fe.SIMPLE_KINDS))
    assert by_line == [5, 6, 8, 11, 12, 15, 16]
    assert lines["Repeat"] == 7
    assert lines["If"] == 9
    repeat = next(s for s in fe.walk_statements(grey.body) if isinstance(s, fe.Repeat))
    assert repeat.until_line == 14


def test_parse_syntax_error_carries_line_and_expected():
    with pytest.raises(ParseError) as err:
        fe.parse("PROGRAM P(input,output);\nBEGIN\n    X 0;\nEND.")
    assert err.value.line == 3
    assert err.value.expected


_HEAD = "PROGRAM P;\nVAR x: INTEGER;\nBEGIN\n"


@pytest.mark.parametrize("source, message, line", [
    # at end of input an error is reported on the last non-comment token's
    # line, or on line 1 when there is none
    ("", "expected PROGRAM (expected PROGRAM)", 1),
    ("{ no program }\n\n", "expected PROGRAM (expected PROGRAM)", 1),
    ("PROGRAM P;\nVAR x: INTEGER;\n\n", "expected BEGIN (expected BEGIN)", 2),
    (_HEAD + "END", "unexpected token (expected .)", 4),
    (_HEAD + "END\n{ no final dot }\n\n", "unexpected token (expected .)", 4),
    (_HEAD + "REPEAT x := 1\n", "unexpected token (expected ;)", 4),
    ("PROGRAM P;\nVAR x:\n", "expected a type name (expected BOOLEAN, INTEGER, REAL)", 2),
    (_HEAD + "x := 1;\n\n", "unterminated statement list (expected END)", 4),
    (_HEAD + "REPEAT\n  x := 1;", "unterminated statement list (expected UNTIL)", 5),
    (_HEAD + "WHILE x < 1 DO\n", "expected a statement", 4),
    (_HEAD + "IF x = 1 THEN x := 2 ELSE", "expected a statement", 4),
    (_HEAD + "x :=", "expected an expression", 4),
    (_HEAD + "x := 1 +\n", "expected an expression", 4),
    (_HEAD + "x := -", "expected an expression", 4),
    # mid-file an error is reported on the offending token's line
    (_HEAD + "END.\n\nEND.", "trailing input after final '.'", 6),
    ("PROGRAM P;\nVAR x: STRING;\nBEGIN\nEND.",
     "expected a type name (expected BOOLEAN, INTEGER, REAL)", 2),
    (_HEAD + "  THEN\nEND.", "unexpected keyword THEN (expected statement)", 4),
    (_HEAD + "x := 1;\nUNTIL x = 1\nEND.", "unexpected keyword UNTIL (expected statement)", 5),
    (_HEAD + "  := 1\nEND.", "unexpected ':=' (expected statement)", 4),
    (_HEAD + "  x\n 1\nEND.", "unexpected '1' (expected :=)", 5),
    (_HEAD + "x := )\nEND.", "unexpected ')' (expected expression)", 4),
    ("PROGRAM P;\nVAR x: INTEGER;\nREPEAT\nEND.", "expected BEGIN (expected BEGIN)", 3),
], ids=["empty", "comment-only", "eof-keyword", "eof-token", "eof-after-comment",
        "eof-separator", "eof-type-name", "eof-list", "eof-repeat-list", "eof-statement",
        "eof-else", "eof-expression", "eof-operand", "eof-unary", "trailing-input",
        "type-name", "keyword", "until-keyword", "statement-token", "token",
        "expression-token", "missing-begin"])
def test_parse_syntax_error_message_and_line(source, message, line):
    with pytest.raises(ParseError) as err:
        fe.parse(source)
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


def test_parse_undeclared_identifier():
    with pytest.raises(ParseError, match="undeclared"):
        fe.parse("PROGRAM P(input,output); BEGIN X := 1; END.")


def test_parse_duplicate_declaration():
    with pytest.raises(ParseError, match="duplicate"):
        fe.parse("PROGRAM P(input,output); VAR X: INTEGER; X: REAL; BEGIN END.")


def test_deleted_keyword_fails_with_located_error(grey_src):
    broken = grey_src.replace("UNTIL ", "")
    with pytest.raises(ParseError) as err:
        fe.parse(broken)
    assert err.value.line >= 1
    broken = grey_src.replace(" THEN", "")
    with pytest.raises(ParseError):
        fe.parse(broken)


def test_corpus_parses_cleanly(corpus_sources):
    for name, src in corpus_sources.items():
        fe.parse(src)


def test_statement_lines_match_first_tokens(corpus_sources):
    # line fidelity: a statement's recorded line is the line of its first token
    for src in corpus_sources.values():
        program = fe.parse(src)
        first_token_on = {}
        for t in fe.tokenize(src):
            first_token_on.setdefault(t.line, t)
        for stmt in fe.walk_statements(program.body):
            head = first_token_on[stmt.line]
            if isinstance(stmt, fe.Assign):
                assert head.text == stmt.target
            elif isinstance(stmt, fe.Readln):
                assert head.text.upper() == "READLN"
            elif isinstance(stmt, fe.Writeln):
                assert head.text.upper() == "WRITELN"
            elif isinstance(stmt, (fe.Repeat, fe.While, fe.For, fe.If, fe.Compound)):
                assert head.kind == "keyword"


def test_pretty_print_round_trip(corpus_sources):
    for src in corpus_sources.values():
        program = fe.parse(src)
        again = fe.parse(fe.pretty_print(program))
        assert fe.structurally_equal(program, again)


def test_pretty_print_is_canonical_for_corpus(corpus_sources):
    # the shipped fixtures are exactly what the printer produces
    for src in corpus_sources.values():
        assert fe.pretty_print(fe.parse(src)) == src


def test_pretty_print_empty_body_two_lines():
    text = fe.pretty_print(fe.parse("PROGRAM P(input,output); BEGIN END."))
    assert text == "PROGRAM P(input, output);\nBEGIN END.\n"
    assert len(text.strip().splitlines()) == 2


@pytest.mark.parametrize("literal, text", [
    ("10000000000000000.0", "10000000000000000.0"),
    ("0.00001", "0.00001"),
    ("123456789012345678901.5", "123456789012345680000.0"),
    ("2.50", "2.5"),
])
def test_real_literals_print_positionally(literal, text):
    # shortest round-trip digits, never an exponent, which the lexer rejects
    program = fe.parse(f"PROGRAM P;\nVAR r: REAL;\nBEGIN\n    r := {literal}\nEND.\n")
    assert fe.expr_text(program.body[0].expr) == text
    printed = fe.pretty_print(program)
    assert f"    r := {text};\n" in printed
    assert fe.parse(printed).body[0].expr.value == program.body[0].expr.value


def test_pretty_print_orange_preserves_structure(orange, orange_src):
    # structural-equality oracle comparing ASTs node by node
    printed = fe.pretty_print(orange)
    assert fe.structurally_equal(fe.parse(printed), fe.parse(orange_src))


def test_structural_equality_ignores_case_and_lines():
    a = fe.parse("PROGRAM P(input,output);\nVAR X: INTEGER;\nBEGIN\nX := 1;\nEND.")
    b = fe.parse("PROGRAM p(INPUT,OUTPUT); VAR x: integer; BEGIN x := 1; END.")
    assert fe.structurally_equal(a, b)
    c = fe.parse("PROGRAM p(input,output); VAR x: integer; BEGIN x := 2; END.")
    assert not fe.structurally_equal(a, c)


_EQ_HEAD = "PROGRAM P;\nVAR x: INTEGER; r: REAL; b: BOOLEAN;\nBEGIN\n"


@pytest.mark.parametrize("left, right, equal", [
    ("b := TRUE", "b := 1", False),
    ("x := 2", "x := 2.0", False),
    ("x := 1 + 2", "x := 2 + 1", False),
    ("WRITELN(x)", "WRITELN(r)", False),
    ("r := 2.0", "r := 2.00", True),
    ("b := NOT TRUE", "B := not true", True),
    ("x := x DIV 2", "X := x div 2", True),
    ("x := 2", "\n\n    x := 2 { two }", True),
    ("REPEAT x := 1 UNTIL b", "REPEAT\n    x := 1\nUNTIL\n    b", True),
])
def test_structural_equality_cases(left, right, equal):
    # literals differ by kind as well as value; case, lines and comments do
    # not count
    a = fe.parse(f"{_EQ_HEAD}{left}\nEND.")
    b = fe.parse(f"{_EQ_HEAD}{right}\nEND.")
    assert fe.structurally_equal(a, b) is equal


def test_blank_line_grey(grey_src):
    blanked = fe.blank_line(grey_src, 6)
    assert blanked.blank_line == 6
    holes = [s for s in fe.walk_statements(blanked.context.body)
             if isinstance(s, fe.Hole)]
    assert [h.line for h in holes] == [6]
    untouched = [s.line for s in fe.walk_statements(blanked.context.body)
                 if isinstance(s, fe.SIMPLE_KINDS) and not isinstance(s, fe.Hole)]
    assert untouched == [5, 8, 11, 12, 15, 16]


def test_blank_line_orange(orange_src):
    blanked = fe.blank_line(orange_src, 6)
    assert any(isinstance(s, fe.Hole) and s.line == 6
               for s in fe.walk_statements(blanked.context.body))


def test_blank_line_rejects_non_statements(grey_src):
    with pytest.raises(AnalysisError):
        fe.blank_line(grey_src, 4)     # BEGIN
    with pytest.raises(AnalysisError):
        fe.blank_line(grey_src, 2)     # declaration
    with pytest.raises(AnalysisError):
        fe.blank_line(grey_src, 99)    # out of range


_BLANKABLE = "PROGRAM P;\nVAR x: INTEGER;\nBEGIN\n    x := 1\nEND.\n"


@pytest.mark.parametrize("source, line, error", [
    (_BLANKABLE, 0, "line 0 out of range"),
    (_BLANKABLE, -1, "line -1 out of range"),
    (_BLANKABLE + "\n\n", 5, "line 5 is not a blankable statement"),
    (_BLANKABLE + "\n\n", 6, "line 6 out of range"),
    (_BLANKABLE + "{ a trailing\n  comment }\n", 6, "line 6 is not a blankable statement"),
    (_BLANKABLE + "{ a trailing\n  comment }\n", 7, "line 7 out of range"),
], ids=["zero", "negative", "last-token", "after-blank-lines", "comment-start",
        "inside-comment"])
def test_blank_line_range_ends_at_the_last_token_line(source, line, error):
    # a line is in range from 1 to the line on which the last token, a
    # comment included, starts
    assert fe.blank_line(source, 4).blank_line == 4
    with pytest.raises(AnalysisError, match=f"^{error}$"):
        fe.blank_line(source, line)


# --- generated round-trip property ------------------------------------------

_NAMES = ["Alpha", "Beta", "Gamma", "Delta"]
_WIDE_NAMES = _NAMES + ["Eps", "Zeta", "Eta", "Theta", "Iota", "Kappa"]
_TYPED_NAMES = _NAMES + ["Ratio", "Done"]    # _program declares Ratio REAL, Done BOOLEAN

_BINARY_OPS = ["+", "-", "*", "/", "DIV", "MOD", "AND", "OR",
               "=", "<>", "<", "<=", ">", ">="]

# REAL literals as written in source, including values of at least 1e16 and at
# most 1e-5, whose shortest repr uses an exponent
_REAL = st.tuples(
    st.one_of(st.integers(0, 999), st.integers(10 ** 16, 10 ** 24)),
    st.one_of(st.text("0123456789", min_size=1, max_size=6),
              st.tuples(st.integers(5, 12), st.integers(1, 999))
                .map(lambda t: "0" * t[0] + str(t[1]))),
).map(lambda t: f"{t[0]}.{t[1]}")


def _expr(depth, names=_NAMES):
    """Source text of an expression of any form, nested up to `depth`;
    operands are parenthesized or not, so precedence decides the tree."""
    leaf = st.one_of(st.integers(0, 999).map(str), st.sampled_from(names),
                     st.sampled_from(["TRUE", "FALSE"]), _REAL)
    if depth <= 0:
        return leaf
    sub = _expr(depth - 1, names)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["-", "NOT "]), sub, st.booleans()).map(
            lambda t: f"{t[0]}({t[1]})" if t[2] else f"{t[0]}{t[1]}"),
        st.tuples(sub, st.sampled_from(_BINARY_OPS), sub, st.booleans()).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})" if t[3] else f"{t[0]} {t[1]} {t[2]}"),
    )


def _stmt(depth, names=_NAMES):
    """A statement of any kind nested up to `depth` deep, over `names`
    (which include Alpha and Beta); nested statements share a line."""
    name = st.sampled_from(names)
    simple = st.one_of(
        st.tuples(name, _expr(1, names)).map(lambda t: f"{t[0]} := {t[1]}"),
        name.map(lambda n: f"READLN({n})"),
        st.tuples(name).map(lambda t: f"WRITELN({t[0]})"),
    )
    if depth <= 0:
        return simple
    inner = _stmt(depth - 1, names)
    cond = _expr(0, names)
    return st.one_of(
        simple,
        st.tuples(inner, cond).map(
            lambda t: f"REPEAT {t[0]}; UNTIL Alpha = {t[1]}"),
        st.tuples(cond, inner).map(
            lambda t: f"IF Alpha <> {t[0]} THEN BEGIN {t[1]}; END"),
        st.tuples(cond, inner).map(
            lambda t: f"WHILE Alpha < {t[0]} DO BEGIN {t[1]}; END"),
        st.tuples(name, cond, cond, inner).map(
            lambda t: f"FOR {t[0]} := {t[1]} TO {t[2]} DO BEGIN {t[3]}; END"),
        st.tuples(cond, inner, inner).map(
            lambda t: f"IF Beta > {t[0]} THEN BEGIN {t[1]}; END ELSE {t[2]}"),
    )


def _program(stmts, names=_NAMES):
    body = ";\n    ".join(stmts)
    return ("PROGRAM Rand(input, output);\n"
            f"VAR {', '.join(names)}: INTEGER;\n"
            "    Ratio: REAL;\n"
            "    Done: BOOLEAN;\n"
            "BEGIN\n    " + body + ";\nEND.")


@settings(max_examples=60, deadline=None)
@given(st.lists(_stmt(2, _TYPED_NAMES), min_size=1, max_size=6))
def test_generated_programs_round_trip(stmts):
    program = fe.parse(_program(stmts))
    printed = fe.pretty_print(program)
    again = fe.parse(printed)
    assert fe.structurally_equal(again, program)
    # canonical form is a fixpoint of the printer
    assert fe.pretty_print(again) == printed


@settings(max_examples=100, deadline=None)
@given(st.lists(_stmt(2), min_size=1, max_size=4))
def test_generated_def_use_matches_path_oracle(stmts):
    # the def-use analysis reads every statement kind's defined and used
    # names; the path oracle replays the same facts along every path
    program = fe.parse(_program(stmts))
    cfg = rel.build_cfg(program)
    du = rel.def_use(program, cfg)
    chains, uninit = brute_force_def_use(cfg)
    assert du.chains == chains
    assert set(du.possibly_uninitialized) == uninit


@settings(max_examples=100, deadline=None)
@given(st.lists(_stmt(3, _WIDE_NAMES), min_size=1, max_size=12))
def test_generated_def_use_matches_round_robin(stmts):
    # larger programs than the path oracle can enumerate
    program = fe.parse(_program(stmts, _WIDE_NAMES))
    cfg = rel.build_cfg(program)
    assert rel.def_use(program, cfg) == round_robin_def_use(program, cfg)


@settings(max_examples=60, deadline=None)
@given(st.lists(_stmt(2), min_size=1, max_size=6))
def test_generated_control_chunks_partition_universe(stmts):
    # nested statements share their line with the enclosing statement
    program = fe.parse(_program(stmts))
    lines = [line for c in an.chunk(program, mode="control") for line in c.lines]
    assert len(lines) == len(set(lines))
    assert set(lines) == chunk_universe(program)


# --- depth and declarations checked while parsing ------------------------------

_GHOSTS = ["Ghost", "Phantom"]    # names _program never declares
_SYNTAX_ERRORS = ["Alpha := (1", "Alpha := 1 +", "IF Alpha THEN", "Alpha 1", "UNTIL Alpha"]


def _tall(height, shape, sep, parens):
    """Source of an expression whose tree is `height` nodes tall: a
    left-associative chain, a right-nested chain or unary operators, inside
    `parens` parentheses, its operands separated by `sep`."""
    if shape == "chain":
        text = f"{sep}+ ".join(["1"] * height)
    elif shape == "right":
        text = f"{sep}- (".join(["1"] * height) + ")" * (height - 1)
    else:
        text = f"-{sep}" * (height - 1) + "1"
    return "(" * parens + text + ")" * parens


@st.composite
def _deep_statement(draw):
    """An assignment nested in REPEAT, IF, FOR and WHILE statements, one line
    each; every expression is a name or reaches depth MAX_DEPTH - 1,
    MAX_DEPTH or MAX_DEPTH + 1 in the tree."""
    wrappers = draw(st.lists(st.sampled_from(["REPEAT", "IF", "FOR", "WHILE"]), max_size=3))
    name = st.sampled_from(_NAMES[:1] + _GHOSTS)

    def expr(depth):
        if draw(st.booleans()):
            return draw(name)
        target = draw(st.sampled_from([fe.MAX_DEPTH - 1, fe.MAX_DEPTH, fe.MAX_DEPTH + 1]))
        return _tall(target - depth, draw(st.sampled_from(["chain", "right", "unary"])),
                     draw(st.sampled_from([" ", "\n"])), draw(st.integers(0, 2)))

    text = f"{draw(name)} := {expr(len(wrappers) + 1)}"
    for depth in range(len(wrappers), 0, -1):
        kind = wrappers[depth - 1]
        if kind == "REPEAT":
            text = f"REPEAT\n{text}\nUNTIL {expr(depth)}"
        elif kind == "IF":
            text = f"IF {expr(depth)} THEN\n{text}\nELSE\n{draw(name)} := {expr(depth + 1)}"
        elif kind == "FOR":
            text = f"FOR {draw(name)} := {expr(depth)} TO {expr(depth)} DO\n{text}"
        else:
            text = f"WHILE {expr(depth)} DO\n{text}"
    return text


_CHECKED_STATEMENT = st.one_of(_stmt(2, _NAMES + _GHOSTS), _deep_statement())


@st.composite
def _checked_program(draw):
    """A program with undeclared names anywhere, and perhaps duplicate
    declarations, a syntax error and statements nested about MAX_DEPTH deep."""
    stmts = draw(st.lists(_CHECKED_STATEMENT, min_size=1, max_size=5))
    if draw(st.booleans()):
        stmts.insert(draw(st.integers(0, len(stmts))), draw(st.sampled_from(_SYNTAX_ERRORS)))
    return _redeclaring(_program(stmts), *draw(st.lists(st.sampled_from(_NAMES), max_size=2)))


def _redeclaring(source, *names):
    """`source` with each of `names` declared once more, on a line of its own."""
    return source.replace("BEGIN\n", "".join(f"VAR {n}: REAL;\n" for n in names) + "BEGIN\n", 1)


def _parse_outcome(parse, source):
    try:
        return parse(source)
    except (LexError, ParseError) as err:
        return (type(err).__name__, str(err), err.line)


@settings(max_examples=300, deadline=None)
@given(_checked_program())
@example(_program(["REPEAT\nGhost := 1\nUNTIL Phantom = 1"]))
@example(_redeclaring(_program(["Alpha := 1", "Alpha := (1"]), "Beta", "Alpha"))
@example(_program(["REPEAT\nAlpha := " + _tall(99, "chain", "\n", 0)
                   + "\nUNTIL " + _tall(100, "right", "\n", 0)]))
@example(_program(["Alpha := " + _tall(100, "right", " ", 0)]))
def test_parse_matches_two_pass_parse(source):
    assert _parse_outcome(fe.parse, source) == _parse_outcome(two_pass_parse, source)


@pytest.mark.parametrize("stmts, duplicate, error", [
    # the UNTIL condition's names come before its body's in walk order
    (["REPEAT\nGhost := 1\nUNTIL Phantom = 1"], None, ("undeclared identifier Phantom", 8)),
    (["Ghost := 1", "REPEAT\nAlpha := 1\nUNTIL Phantom = 1"], None,
     ("undeclared identifier Ghost", 6)),
    # a defined name is reported on its statement's line
    (["READLN(\nGhost)"], None, ("undeclared identifier Ghost", 6)),
    (["FOR\nGhost := Phantom TO 1 DO Alpha := 1"], None, ("undeclared identifier Ghost", 6)),
    # a REPEAT's body is searched for the too-deep node before its condition
    (["REPEAT\nAlpha := " + _tall(99, "chain", " ", 0) + "\nUNTIL " + _tall(100, "chain", " ", 0)],
     None, ("nesting deeper than 100 levels", 7)),
    (["Alpha := " + _tall(99, "chain", "\n", 0)], None, None),
    (["Ghost := " + _tall(100, "unary", " ", 0)], "Alpha", ("nesting deeper than 100 levels", 7)),
    (["Alpha := (1"], "Alpha", ("unexpected ';' (expected ))", 7)),
    (["Ghost := 1"], "Alpha", ("duplicate declaration of Alpha", 5)),
])
def test_parse_reports_the_first_error_in_check_order(stmts, duplicate, error):
    # syntax errors first, then depth, duplicates, undeclared names
    source = _program(stmts)
    if duplicate is not None:
        source = _redeclaring(source, duplicate)
    if error is None:
        fe.parse(source)
        return
    with pytest.raises(ParseError) as err:
        fe.parse(source)
    message, line = error
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


def test_parse_lexes_once_through_tokenize(monkeypatch, grey_src):
    # the benchmark counts tokens by wrapping the module-level tokenize
    sources = []
    tokenize = fe.tokenize

    def counted(source):
        sources.append(source)
        return tokenize(source)

    monkeypatch.setattr(fe, "tokenize", counted)
    fe.parse(grey_src)
    assert sources == [grey_src]


def test_valid_programs_are_checked_without_walking_the_tree(monkeypatch, corpus_sources):
    def refuse(*args):
        raise AssertionError("walked the parsed tree")

    for walk in ("_check_depth", "walk_statements", "defined_names", "used_names"):
        monkeypatch.setattr(fe, walk, refuse)
    deepest = _program(["REPEAT\nAlpha := " + _tall(98, "right", " ", 0)
                        + "\nUNTIL " + _tall(99, "unary", " ", 0)])
    for source in [*corpus_sources.values(), deepest]:
        fe.parse(source)


# --- statement facts ----------------------------------------------------------

_FACTS_SOURCE = """PROGRAM P(input, output);
VAR a, b, i: INTEGER;
BEGIN
    a := a + b * a;
    READLN(b);
    WRITELN(a - b);
    REPEAT
        b := 1
    UNTIL b > a;
    WHILE a < b DO
        a := 2;
    FOR i := a TO b + 1 DO
        b := i;
    IF a = 0 THEN
        a := 3
    ELSE
        b := 4;
    BEGIN
        a := 5
    END
END.
"""


@pytest.mark.parametrize("line", [4, 5, 6, 8, 11, 13, 15, 17, 19])
def test_blank_line_replaces_nested_statements(line):
    # a loop, IF or block body is blanked in place, and nothing else changes
    before = list(fe.walk_statements(fe.parse(_FACTS_SOURCE).body))
    after = list(fe.walk_statements(fe.blank_line(_FACTS_SOURCE, line).context.body))
    assert [s.line for s in after] == [s.line for s in before]
    for old, new in zip(before, after):
        if old.line == line:
            assert isinstance(new, fe.Hole)
        else:
            assert type(new) is type(old)
            if isinstance(old, fe.SIMPLE_KINDS):
                assert fe.node_text(new) == fe.node_text(old)


def test_blank_line_copies_no_tree(monkeypatch):
    def refuse(*args):
        raise AssertionError("copied the parsed tree")

    monkeypatch.setattr(copy, "deepcopy", refuse)
    for line in (4, 8, 11, 13, 15, 17, 19):
        blanked = fe.blank_line(_FACTS_SOURCE, line)
        assert isinstance(fe.statement_at(blanked.context, line), fe.Hole)


@pytest.mark.parametrize("line, kind, defined, used, nested, loop", [
    (4, fe.Assign, [("a", 4)], [("a", 4), ("b", 4), ("a", 4)], [], None),
    (5, fe.Readln, [("b", 5)], [], [], None),
    (6, fe.Writeln, [], [("a", 6), ("b", 6)], [], None),
    (7, fe.Repeat, [], [("b", 9), ("a", 9)], [8], ("repeat", "repeat b>a", 9)),
    (10, fe.While, [], [("a", 10), ("b", 10)], [11], ("while", "while a<b", 10)),
    (12, fe.For, [("i", 12)], [("a", 12), ("b", 12)], [13],
     ("for", "for i:=a to b+1", 12)),
    (14, fe.If, [], [("a", 14)], [15, 17], None),
    (18, fe.Compound, [], [], [19], None),
])
def test_statement_facts(line, kind, defined, used, nested, loop):
    stmt = fe.statement_at(fe.parse(_FACTS_SOURCE), line)
    assert isinstance(stmt, kind)
    assert fe.defined_names(stmt) == defined
    assert fe.used_names(stmt) == used
    assert [s.line for s in fe.substatements(stmt)] == nested
    if loop is not None:
        assert (fe.loop_keyword(stmt), fe.loop_form(stmt), fe.test_line(stmt)) == loop
