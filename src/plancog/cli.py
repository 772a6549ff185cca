"""Command-line interface and report rendering.

Exit codes: 0 success, 1 analysis errors (syntax, validation, bad lines),
2 usage errors. With --json exactly one JSON document is written to stdout,
including the error document on analysis failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from importlib import resources

from . import analysis, frontend, interpreter, kb as kblib, relations
from .errors import KbValidationError, PlancogError

CORPUS_FILES = ("grey.mp", "orange.mp", "search.mp", "flag.mp")


@dataclass
class Config:
    kb_path: str | None = None
    output_mode: str = "text"          # text | json
    step_budget: int = interpreter.DEFAULT_STEP_BUDGET

    def load_kb(self):
        if self.kb_path is None:
            return kblib.builtin_kb()
        with open(self.kb_path, encoding="utf-8") as handle:
            return kblib.load_kb(handle.read())


def corpus() -> list[tuple[str, str]]:
    """The shipped fixture programs as (filename, source) pairs."""
    package = resources.files(__package__) / "corpus"
    return [(name, (package / name).read_text(encoding="utf-8"))
            for name in CORPUS_FILES]


def corpus_path(name: str) -> str:
    return str(resources.files(__package__) / "corpus" / name)


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kb", dest="kb_path", metavar="FILE",
                        default=argparse.SUPPRESS,
                        help="knowledge base file (default: built-in library)")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--step-budget", type=int, default=argparse.SUPPRESS,
                        help="interpreter step budget")

    parser = argparse.ArgumentParser(prog="plancog", parents=[common],
                                     description="plan-schema program comprehension")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common],
                       help="parse and pretty-print a program")
    p.add_argument("file")

    p = sub.add_parser("relations", parents=[common],
                       help="control/data relations of a statement")
    p.add_argument("file")
    p.add_argument("--line", type=int, required=True)
    p.add_argument("--kind", choices=("control", "data"), required=True)

    p = sub.add_parser("kb", parents=[common], help="knowledge-base utilities")
    kbsub = p.add_subparsers(dest="kb_command", required=True)
    v = kbsub.add_parser("validate", parents=[common], help="validate a KB file")
    v.add_argument("file")
    kbsub.add_parser("dump-builtin", parents=[common], help="print the built-in KB")

    p = sub.add_parser("recognize", parents=[common],
                       help="recognize plans and build the goal tree")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true",
                   help="emit the rule-firing sequence")

    p = sub.add_parser("planliness", parents=[common],
                       help="plan-likeness score and discourse checks")
    p.add_argument("file")

    p = sub.add_parser("fill-blank", parents=[common], help="predict an erased line")
    p.add_argument("file")
    p.add_argument("--line", type=int, required=True)
    p.add_argument("--strategy", choices=("plan", "control"), default="plan")

    p = sub.add_parser("chunk", parents=[common], help="plan- or control-based chunking")
    p.add_argument("file")
    p.add_argument("--mode", choices=("plan", "control"), required=True)

    p = sub.add_parser("simulate", parents=[common], help="execute with concrete inputs")
    p.add_argument("file")
    p.add_argument("--input", default="", metavar="N,N,...",
                   help="comma-separated input numbers")
    p.add_argument("--trace", metavar="VAR", default=None,
                   help="print the value trace of one variable")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    config = Config(getattr(args, "kb_path", None),
                    "json" if getattr(args, "json", False) else "text",
                    getattr(args, "step_budget", interpreter.DEFAULT_STEP_BUDGET))
    handler = _HANDLERS[args.command]
    try:
        return handler(args, config)
    except PlancogError as err:
        if config.output_mode == "json":
            print(json.dumps({"error": str(err)}))
        else:
            print(f"error: {err}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


# --- handlers ----------------------------------------------------------------

def _cmd_parse(args, config):
    program = frontend.parse(_read(args.file))
    if config.output_mode == "json":
        print(json.dumps(_program_json(program), indent=2))
    else:
        sys.stdout.write(frontend.pretty_print(program))
    return 0


def _cmd_relations(args, config):
    program = frontend.parse(_read(args.file))
    related = sorted(relations.query_relation(args.kind, program, args.line))
    if config.output_mode == "json":
        print(json.dumps({"file": args.file, "line": args.line,
                          "kind": args.kind, "related": related}))
    else:
        listing = ", ".join(map(str, related)) if related else "(none)"
        print(f"{args.kind} relations of line {args.line}: {listing}")
    return 0


def _cmd_kb(args, config):
    if args.kb_command == "dump-builtin":
        text = kblib.dump_kb(kblib.builtin_kb())
        if config.output_mode == "json":
            print(json.dumps({"kb": text}))
        else:
            sys.stdout.write(text)
        return 0
    try:
        loaded = kblib.load_kb(_read(args.file))
    except KbValidationError as err:
        diagnostics = [{"code": d.code, "subject": d.subject, "message": d.message}
                       for d in err.diagnostics]
        if config.output_mode == "json":
            print(json.dumps({"valid": False, "diagnostics": diagnostics}))
        else:
            for d in err.diagnostics:
                print(str(d))
        return 1
    if config.output_mode == "json":
        print(json.dumps({"valid": True, "schemas": [s.name for s in loaded.schemas]}))
    else:
        print(f"ok: {len(loaded.schemas)} schemas, {len(loaded.rules)} rules")
    return 0


def _cmd_recognize(args, config):
    program = frontend.parse(_read(args.file))
    kb = config.load_kb()
    rec = analysis.recognize(program, kb, step_budget=config.step_budget)
    tree = analysis.goal_tree(rec.instances, kb, rec.coherence)
    if config.output_mode == "json":
        doc = {
            "goal_tree": _tree_json(tree),
            "activations": [{"schema": a.schema, "rules": a.rule_ids,
                             "direction": a.direction} for a in rec.activations],
            "instances": [_instance_json(i) for i in rec.instances],
            "expectations": [_expectation_json(e) for e in rec.expectations],
            "coherence": _coherence_json(rec.coherence),
        }
        if args.trace:
            doc["trace"] = [{"rule": f.rule_id, "schema": f.schema,
                             "cues": [str(c) for c in f.cues]} for f in rec.firings]
        print(json.dumps(doc, indent=2))
        return 0
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
    return 0


def _cmd_planliness(args, config):
    program = frontend.parse(_read(args.file))
    kb = config.load_kb()
    report = analysis.planliness(program, kb)
    if config.output_mode == "json":
        print(json.dumps({
            "score": report.score, "coverage": report.coverage,
            "violations": [{"rule": v.rule_id, "lines": v.lines,
                            "explanation": v.explanation}
                           for v in report.violations]}))
        return 0
    print(f"score: {report.score:.4f}")
    print(f"coverage: {report.coverage:.4f}")
    if not report.violations:
        print("violations: none")
    for v in report.violations:
        lines = ", ".join(map(str, v.lines))
        print(f"violation {v.rule_id} (lines {lines}): {v.explanation}")
    return 0


def _cmd_fill_blank(args, config):
    blanked = frontend.blank_line(_read(args.file), args.line)
    kb = config.load_kb()
    candidates = analysis.fill_blank(blanked, kb, args.strategy)
    if config.output_mode == "json":
        print(json.dumps({"line": args.line, "strategy": args.strategy,
                          "candidates": [{"rank": c.rank, "text": c.text,
                                          "justification": c.justification}
                                         for c in candidates]}))
        return 0
    if not candidates:
        print("no candidates")
    for c in candidates:
        print(f"{c.rank}. {c.text}    [{c.justification}]")
    return 0


def _cmd_chunk(args, config):
    program = frontend.parse(_read(args.file))
    kb = config.load_kb()
    chunks = analysis.chunk(program, kb, args.mode)
    if config.output_mode == "json":
        print(json.dumps({"mode": args.mode,
                          "chunks": [{"label": c.label, "lines": c.lines}
                                     for c in chunks]}))
        return 0
    for c in chunks:
        print(f"{c.label}: lines {', '.join(map(str, c.lines))}")
    return 0


def _cmd_simulate(args, config):
    program = frontend.parse(_read(args.file))
    inputs = _parse_inputs(args.input)
    result = interpreter.execute(program, inputs, config.step_budget)
    if config.output_mode == "json":
        doc = {"outputs": [interpreter.render_value(v) for v in result.outputs],
               "status": result.status, "steps": result.steps}
        if result.status != interpreter.OK:
            doc["error"] = {"kind": result.error_kind, "line": result.error_line}
        if args.trace:
            doc["trace"] = [{"step": s, "line": l, "value": interpreter.render_value(v)}
                            for s, l, v in interpreter.trace_variable(
                                program, inputs, args.trace, config.step_budget)]
        print(json.dumps(doc))
        return 0
    for value in result.outputs:
        print(interpreter.render_value(value))
    if result.status != interpreter.OK:
        print(f"runtime error: {result.error_kind} at line {result.error_line}")
    if args.trace:
        for step, line, value in interpreter.trace_variable(
                program, inputs, args.trace, config.step_budget):
            print(f"step {step} line {line}: {args.trace} = "
                  f"{interpreter.render_value(value)}")
    return 0


def _parse_inputs(text):
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        values.append(float(part) if "." in part else int(part))
    return values


_HANDLERS = {
    "parse": _cmd_parse,
    "relations": _cmd_relations,
    "kb": _cmd_kb,
    "recognize": _cmd_recognize,
    "planliness": _cmd_planliness,
    "fill-blank": _cmd_fill_blank,
    "chunk": _cmd_chunk,
    "simulate": _cmd_simulate,
}


# --- JSON shapes ----------------------------------------------------------------

def _program_json(program):
    return {
        "program": program.name,
        "params": program.params,
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
        "schema": inst.schema,
        "variable": inst.variable,
        "status": inst.status,
        "bindings": {slot: {"line": b.line, "text": b.text}
                     for slot, b in sorted(inst.bindings.items())},
        "lines": lines,
        "delocalization": (max(lines) - min(lines)) if len(lines) > 1 else None,
        "children": [{"slot": slot, "schema": child.schema,
                      "variable": child.variable}
                     for slot, child in inst.children],
    }


def _expectation_json(e):
    return {"instance": e.instance.label, "slot": e.slot, "pattern": e.pattern,
            "state": e.state, "line": e.resolved_line}


def _coherence_json(report):
    return {
        "internal": [{"instance": e.instance, "slot": e.slot,
                      "constraint": e.constraint, "ok": e.ok, "line": e.line}
                     for e in report.internal],
        "external": [{"instances": list(e.instances), "description": e.description,
                      "evidence": e.evidence, "inputs": e.inputs}
                     for e in report.external],
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
        part_lines = node.plan.part_lines()
        lines = ", ".join(map(str, part_lines))
        spread = (f", delocalization {max(part_lines) - min(part_lines)}"
                  if len(part_lines) > 1 else "")
        print(f"{pad}{node.plan.label} ({node.plan.status}{flags}) "
              f"lines {lines}{spread}")
    else:
        print(f"{pad}{node.goal}")
    for child in node.children:
        _print_tree(child, depth + 1)
