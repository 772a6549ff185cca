"""Command-line interface and report rendering.

Exit codes: 0 success, 1 analysis errors (syntax, validation, bad lines),
2 usage errors. A subcommand's handler prints its text report unless --json
is given and returns its exit code and JSON document (None for text only).
Under --json `main` writes exactly one JSON document to stdout: that one, or
the error document of an analysis failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from importlib import resources

from . import analysis, frontend, interpreter, kb as kblib, relations
from .errors import KbValidationError, PlancogError

CORPUS_FILES = ("grey.mp", "orange.mp", "search.mp", "flag.mp")

# the global flags' values when they are not given; argparse's own defaults
# are suppressed, so that a subcommand's parser keeps a flag given before it
_GLOBAL_DEFAULTS = {"kb_path": None, "json": False,
                    "step_budget": interpreter.DEFAULT_STEP_BUDGET}

# subcommands whose JSON document is indented
_INDENTED = ("parse", "recognize")


def corpus() -> list[tuple[str, str]]:
    """The shipped fixture programs as (filename, source) pairs."""
    package = resources.files(__package__) / "corpus"
    return [(name, (package / name).read_text(encoding="utf-8"))
            for name in CORPUS_FILES]


def corpus_path(name: str) -> str:
    return str(resources.files(__package__) / "corpus" / name)


def _library(args):
    """The --kb library, or the built-in one. Handlers load it after reading
    their program, so that a bad program is reported first."""
    if args.kb_path is None:
        return kblib.builtin_kb()
    return kblib.load_kb(_read(args.kb_path))


def _read(path):
    """The text of a UTF-8 file, without a leading byte-order mark; a file
    that cannot be read is a PlancogError."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as err:
        raise PlancogError(f"cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError:
        raise PlancogError(f"cannot read {path}: not UTF-8 text") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    on it."""
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kb", dest="kb_path", metavar="FILE",
                        default=argparse.SUPPRESS,
                        help="knowledge base file (default: built-in library)")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--step-budget", type=_parse_step_budget, default=argparse.SUPPRESS,
                        help="interpreter step budget")

    parser = argparse.ArgumentParser(prog="plancog", parents=[common],
                                     description="plan-schema program comprehension")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, run, help, file=True):
        """A subcommand whose handler is `run`, reading one FILE unless told not to."""
        p = subparsers.add_parser(name, parents=[common], help=help)
        if file:
            p.add_argument("file")
        p.set_defaults(run=run)
        return p

    add(sub, "parse", _cmd_parse, "parse and pretty-print a program")

    p = add(sub, "relations", _cmd_relations, "control/data relations of a statement")
    p.add_argument("--line", type=int, required=True)
    p.add_argument("--kind", choices=("control", "data"), required=True)

    p = sub.add_parser("kb", parents=[common], help="knowledge-base utilities")
    kbsub = p.add_subparsers(dest="kb_command", required=True)
    add(kbsub, "validate", _cmd_kb_validate, "validate a KB file")
    add(kbsub, "dump-builtin", _cmd_kb_dump, "print the built-in KB", file=False)

    p = add(sub, "recognize", _cmd_recognize, "recognize plans and build the goal tree")
    p.add_argument("--trace", action="store_true",
                   help="emit the rule-firing sequence")

    add(sub, "planliness", _cmd_planliness, "plan-likeness score and discourse checks")

    p = add(sub, "fill-blank", _cmd_fill_blank, "predict an erased line")
    p.add_argument("--line", type=int, required=True)
    p.add_argument("--strategy", choices=("plan", "control"), default="plan")

    p = add(sub, "chunk", _cmd_chunk, "plan- or control-based chunking")
    p.add_argument("--mode", choices=("plan", "control"), required=True)

    p = add(sub, "simulate", _cmd_simulate, "execute with concrete inputs")
    p.add_argument("--input", type=_parse_inputs, default="", metavar="N,N,...",
                   help="comma-separated input numbers")
    p.add_argument("--trace", metavar="VAR", default=None,
                   help="print the value trace of one variable")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(**_GLOBAL_DEFAULTS))
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    try:
        code, doc = args.run(args)
    except PlancogError as err:
        if args.json:
            print(json.dumps({"error": str(err)}))
        else:
            print(f"error: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=2 if args.command in _INDENTED else None))
    return code


def entry():
    sys.exit(main())


# --- handlers ----------------------------------------------------------------

def _cmd_parse(args):
    program = frontend.parse(_read(args.file))
    if args.json:
        return 0, _program_json(program)
    sys.stdout.write(frontend.pretty_print(program))
    return 0, None


def _cmd_relations(args):
    program = frontend.parse(_read(args.file))
    related = sorted(relations.query_relation(args.kind, program, args.line))
    if not args.json:
        listing = ", ".join(map(str, related)) if related else "(none)"
        print(f"{args.kind} relations of line {args.line}: {listing}")
    return 0, {"file": args.file, "line": args.line, "kind": args.kind,
               "related": related}


def _cmd_kb_dump(args):
    text = kblib.dump_kb(kblib.builtin_kb())
    if not args.json:
        sys.stdout.write(text)
    return 0, {"kb": text}


def _cmd_kb_validate(args):
    try:
        loaded = kblib.load_kb(_read(args.file))
    except KbValidationError as err:
        if not args.json:
            print(*err.diagnostics, sep="\n")
        return 1, {"valid": False, "diagnostics": [vars(d) for d in err.diagnostics]}
    if not args.json:
        print(f"ok: {len(loaded.schemas)} schemas, {len(loaded.rules)} rules")
    return 0, {"valid": True, "schemas": [s.name for s in loaded.schemas]}


def _cmd_recognize(args):
    program = frontend.parse(_read(args.file))
    kb = _library(args)
    rec = analysis.recognize(program, kb, step_budget=args.step_budget)
    tree = analysis.goal_tree(rec.instances, kb, rec.coherence)
    if args.json:
        doc = {
            "goal_tree": _tree_json(tree),
            "activations": [{"schema": a.schema, "rules": a.rule_ids,
                             "direction": a.direction} for a in rec.activations],
            "instances": [_instance_json(i) for i in rec.instances],
            "expectations": [{"instance": e.instance.label, "slot": e.slot,
                              "pattern": e.pattern, "state": e.state,
                              "line": e.resolved_line} for e in rec.expectations],
            "coherence": {
                "internal": [{"instance": e.instance, "slot": e.slot,
                              "constraint": e.constraint, "ok": e.ok, "line": e.line}
                             for e in rec.coherence.internal],
                "external": [{"instances": list(e.instances),
                              "description": e.description, "evidence": e.evidence,
                              "inputs": e.inputs} for e in rec.coherence.external],
            },
        }
        if args.trace:
            doc["trace"] = [{"rule": f.rule_id, "schema": f.schema,
                             "cues": [str(c) for c in f.cues]} for f in rec.firings]
        return 0, doc
    if args.trace:
        print("rule firings:")
        for f in rec.firings:
            print(f"  {f}")
    print("goal tree:")
    _print_tree(tree, 1)
    print("expectations:")
    for e in rec.expectations:
        where = f" (line {e.resolved_line})" if e.resolved_line else ""
        print(f"  {e.instance.label}.{e.slot} ~ {e.pattern!r}: {e.state}{where}")
    bad = [e for e in rec.coherence.internal if not e.ok]
    print(f"coherence: {len(bad)} internal issue(s), "
          f"{len(rec.coherence.external)} interaction(s)")
    for e in bad:
        print(f"  {e.instance}.{e.slot} fails {e.constraint} at line {e.line}")
    for e in rec.coherence.external:
        tag = f" inputs={e.inputs}" if e.evidence == "simulated" else ""
        print(f"  {e.instances[0]} / {e.instances[1]}: {e.description}"
              f" [{e.evidence}{tag}]")
    return 0, None


def _cmd_planliness(args):
    program = frontend.parse(_read(args.file))
    report = analysis.planliness(program, _library(args))
    if not args.json:
        print(f"score: {report.score:.4f}\ncoverage: {report.coverage:.4f}")
        if not report.violations:
            print("violations: none")
        for v in report.violations:
            lines = ", ".join(map(str, v.lines))
            print(f"violation {v.rule_id} (lines {lines}): {v.explanation}")
    return 0, {"score": report.score, "coverage": report.coverage,
               "violations": [{"rule": v.rule_id, "lines": v.lines,
                               "explanation": v.explanation}
                              for v in report.violations]}


def _cmd_fill_blank(args):
    blanked = frontend.blank_line(_read(args.file), args.line)
    candidates = analysis.fill_blank(blanked, _library(args), args.strategy)
    if not args.json:
        if not candidates:
            print("no candidates")
        for c in candidates:
            print(f"{c.rank}. {c.text}    [{c.justification}]")
    return 0, {"line": args.line, "strategy": args.strategy,
               "candidates": [{"rank": c.rank, "text": c.text,
                               "justification": c.justification}
                              for c in candidates]}


def _cmd_chunk(args):
    program = frontend.parse(_read(args.file))
    chunks = analysis.chunk(program, _library(args), args.mode)
    if not args.json:
        for c in chunks:
            print(f"{c.label}: lines {', '.join(map(str, c.lines))}")
    return 0, {"mode": args.mode,
               "chunks": [{"label": c.label, "lines": c.lines} for c in chunks]}


def _cmd_simulate(args):
    program = frontend.parse(_read(args.file))
    result = interpreter.execute(program, args.input, args.step_budget,
                                 trace=bool(args.trace))
    doc = {"outputs": [interpreter.render_value(v) for v in result.outputs],
           "status": result.status, "steps": result.steps}
    if result.status != interpreter.OK:
        doc["error"] = {"kind": result.error_kind, "line": result.error_line}
    if not args.json:
        for value in doc["outputs"]:
            print(value)
        if "error" in doc:
            print(f"runtime error: {result.error_kind} at line {result.error_line}")
    if args.trace:
        # an unknown variable is an error after the outputs are printed
        doc["trace"] = [{"step": s, "line": l, "value": interpreter.render_value(v)}
                        for s, l, v in interpreter.variable_events(
                            program, result, args.trace)]
        if not args.json:
            for event in doc["trace"]:
                print(f"step {event['step']} line {event['line']}: "
                      f"{args.trace} = {event['value']}")
    return 0, doc


# an optional sign and ASCII digits with at most one point; a REAL item may
# carry an exponent
_INPUT_ITEM = re.compile(r"[+-]?(?:[0-9]+|(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)")


def _parse_step_budget(text):
    """The `--step-budget` count; one that is not an integer, or is negative,
    is a usage error."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"negative: {text!r}")
    return budget


def _parse_inputs(text):
    """The numbers of a comma-separated `--input` list; an item that is not a
    number is a usage error."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if not _INPUT_ITEM.fullmatch(part):
            raise argparse.ArgumentTypeError(f"not a number: {part!r}")
        if "." in part:
            values.append(float(part))
        elif len(part.lstrip("+-").lstrip("0")) < 20:
            values.append(int(part))
        else:
            # outside the INTEGER range, so READLN ends the run; int() refuses
            # thousands of digits
            values.append(frontend.INT_MIN - 1 if part[0] == "-" else frontend.INT_MAX + 1)
    return values


# --- JSON shapes ----------------------------------------------------------------

def _program_json(program):
    return {
        "program": program.name, "params": program.params,
        "declarations": [{"name": d.name, "type": d.type, "line": d.line}
                         for d in program.declarations],
        "statements": [_stmt_json(s) for s in program.body],
        "comments": [{"line": line, "text": text} for line, text in program.comments],
    }


def _stmt_json(s):
    base = {"line": s.line, "kind": type(s).__name__.lower()}
    if isinstance(s, (frontend.Assign, frontend.Readln, frontend.Writeln)):
        base["text"] = frontend.node_text(s)
    elif isinstance(s, frontend.Repeat):
        base["until"] = frontend.expr_text(s.cond)
        base["body"] = [_stmt_json(x) for x in s.body]
    elif isinstance(s, frontend.While):
        base["cond"] = frontend.expr_text(s.cond)
        base["body"] = [_stmt_json(s.body)]
    elif isinstance(s, frontend.For):
        base["var"] = s.var
        base["start"] = frontend.expr_text(s.start)
        base["stop"] = frontend.expr_text(s.stop)
        base["body"] = [_stmt_json(s.body)]
    elif isinstance(s, frontend.If):
        base["cond"] = frontend.expr_text(s.cond)
        base["then"] = [_stmt_json(s.then)]
        if s.otherwise is not None:
            base["else"] = [_stmt_json(s.otherwise)]
    elif isinstance(s, frontend.Compound):
        base["body"] = [_stmt_json(x) for x in s.body]
    return base


def _instance_json(inst):
    lines = inst.part_lines()
    return {
        "schema": inst.schema, "variable": inst.variable, "status": inst.status,
        "bindings": {slot: {"line": b.line, "text": b.text}
                     for slot, b in sorted(inst.bindings.items())},
        "lines": lines,
        "delocalization": analysis.delocalization(inst),
        "children": [{"slot": slot, "schema": child.schema, "variable": child.variable}
                     for slot, child in inst.children],
    }


def _tree_json(node):
    if node.plan is not None:
        doc = {"plan": _instance_json(node.plan)}
        if node.flags:
            doc["flags"] = node.flags
        if node.children:
            doc["children"] = [_tree_json(c) for c in node.children]
        return doc
    return {"goal": node.goal, "children": [_tree_json(c) for c in node.children]}


def _print_tree(node, depth):
    pad = "  " * depth
    if node.plan is not None:
        flags = f" [{', '.join(node.flags)}]" if node.flags else ""
        lines = ", ".join(map(str, node.plan.part_lines()))
        spread = analysis.delocalization(node.plan)
        spread = "" if spread is None else f", delocalization {spread}"
        print(f"{pad}{node.plan.label} ({node.plan.status}{flags}) "
              f"lines {lines}{spread}")
    else:
        print(f"{pad}{node.goal}")
    for child in node.children:
        _print_tree(child, depth + 1)
