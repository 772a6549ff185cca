"""Spans around calls into plancog's public functions, recorded from outside.

`Tracer.install` replaces each listed public function, in every plancog
module that binds it, by a wrapper that records a span: name, start, end,
parent span and request id, plus counts read off the arguments and result
at the same boundary. Spans stay in memory; `write` saves them at the end.
`uninstall` puts the original functions back. Only calls made inside a
request (see `Tracer.request`) are recorded. Nothing under `src/` changes.
"""

from __future__ import annotations

import json
import math
import sys
import time

# counts recorded at a span boundary: name -> function(args, kwargs, result).
# Only the innermost public function doing the work counts, so that nested
# spans (activate calls activate_with_trace) do not count twice.
_COUNTS = {
    "frontend.tokenize": lambda a, k, r: {"tokens": len(r)},
    "activation.extract_beacons": lambda a, k, r: {"cues": len(r)},
    "activation.activate_with_trace": lambda a, k, r: {
        "firings": len(r[1]), "activations": len(r[0])},
    "activation.instantiate": lambda a, k, r: {"instances": len(r[0])},
    "activation.verify_expectations": lambda a, k, r: {
        "expectations": len(r),
        "verified": sum(1 for e in r if e.state == "verified")},
    "activation.evaluate_coherence": lambda a, k, r: {
        "pairs": len(a[0]) * (len(a[0]) - 1) // 2, "external": len(r.external)},
    "relations.build_cfg": lambda a, k, r: {"cfg_nodes": len(r.nodes),
                                            "cfg_edges": len(r.edges)},
    "relations.def_use": lambda a, k, r: {"chains": len(r.chains)},
    "interpreter.execute": lambda a, k, r: {"steps": r.steps,
                                            "trace_events": len(r.trace)},
}

# the public functions wrapped, by module
TRACED = {
    "frontend": ("tokenize", "parse", "blank_line", "pretty_print"),
    "kb": ("builtin_kb", "load_kb", "dump_kb", "validate_kb"),
    "activation": ("extract_beacons", "activate", "activate_with_trace",
                   "instantiate", "verify_expectations", "evaluate_coherence"),
    "relations": ("build_cfg", "def_use", "decompose_primes", "query_relation"),
    "interpreter": ("execute", "trace_variable", "compare_behavior"),
    "analysis": ("recognize", "goal_tree", "planliness", "fill_blank", "chunk"),
    "cli": ("main",),
}

REQUEST = "bench.request"


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, request id, counts]
        self.spans = []
        self._stack = []
        self._request = 0
        self._patched = []
        # request id -> reference-speed seconds per wall second, set by the
        # caller after each request; self times are scaled by it
        self.scale = {}

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, _COUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:   # outside a request, e.g. a response check
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def request(self, request_id, lines):
        """Context manager: the root span of one request over `lines` source
        lines."""
        tracer = self

        class _Root:
            def __enter__(self):
                tracer._request = request_id
                self.span = [REQUEST, 0.0, 0.0, -1, request_id, {"lines": lines}]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(self.span)
                self.span[1] = time.perf_counter()

            def __exit__(self, *exc):
                self.span[2] = time.perf_counter()
                tracer._stack.pop()
                return False

        return _Root()

    # -- installing -----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if (n == "plancog" or n.startswith("plancog.")) and m is not None]
        for short, names in TRACED.items():
            module = sys.modules[f"plancog.{short}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, request, counts) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "request": request, "counts": counts}))
                out.write("\n")

    def self_times(self):
        """{span name: (summed self seconds, calls)}, the summed counts, and
        {(span name, request id): self seconds}. Self time is a span's
        duration minus its direct children's, at the reference speed of its
        request (see `scale`)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        selfs, counts, per_request = {}, {}, {}
        for i, (name, start, end, _, request, c) in enumerate(self.spans):
            own = ((end - start) - child_time[i]) * self.scale.get(request, 1.0)
            total, calls = selfs.get(name, (0.0, 0))
            selfs[name] = (total + own, calls + 1)
            per_request[name, request] = per_request.get((name, request), 0.0) + own
            if name != REQUEST:
                for key, value in (c or {}).items():
                    counts[key] = counts.get(key, 0) + value
        return selfs, counts, per_request


def log_slope(points):
    """Least-squares slope of log(y) against log(x) over positive points."""
    pairs = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pairs) < 2:
        return 0.0
    mx = sum(x for x, _ in pairs) / len(pairs)
    my = sum(y for _, y in pairs) / len(pairs)
    sxx = sum((x - mx) ** 2 for x, _ in pairs)
    return sum((x - mx) * (y - my) for x, y in pairs) / sxx if sxx else 0.0


# per-layer time metrics: metric -> span names whose self times it sums
LAYER_TIMES = {
    "frontend.parse_ms": ("frontend.parse", "frontend.tokenize", "frontend.blank_line",
                          "frontend.pretty_print"),
    "kb.builtin_kb_ms": ("kb.builtin_kb",),
    "kb.load_kb_ms": ("kb.load_kb", "kb.validate_kb"),
    "kb.dump_kb_ms": ("kb.dump_kb",),
    "activation.extract_beacons_ms": ("activation.extract_beacons",),
    "activation.activate_ms": ("activation.activate", "activation.activate_with_trace"),
    "activation.instantiate_ms": ("activation.instantiate",),
    "activation.verify_ms": ("activation.verify_expectations",),
    "activation.coherence_ms": ("activation.evaluate_coherence",),
    "relations.build_cfg_ms": ("relations.build_cfg",),
    "relations.def_use_ms": ("relations.def_use",),
    "relations.decompose_primes_ms": ("relations.decompose_primes",),
    "relations.query_relation_ms": ("relations.query_relation",),
    "interpreter.execute_ms": ("interpreter.execute", "interpreter.trace_variable",
                               "interpreter.compare_behavior"),
    "analysis.recognize_ms": ("analysis.recognize",),
    "analysis.goal_tree_ms": ("analysis.goal_tree",),
    "analysis.planliness_ms": ("analysis.planliness",),
    "analysis.fill_blank_ms": ("analysis.fill_blank",),
    "analysis.chunk_ms": ("analysis.chunk",),
    "cli.self_ms": ("cli.main",),
    "bench.glue_ms": (REQUEST,),
}

# per-request counts: metric -> count key
LAYER_COUNTS = {
    "frontend.tokens": "tokens",
    "activation.cues": "cues",
    "activation.firings": "firings",
    "activation.activations": "activations",
    "activation.instances": "instances",
    "activation.expectations": "expectations",
    "activation.pairs_considered": "pairs",
    "relations.cfg_nodes": "cfg_nodes",
    "relations.cfg_edges": "cfg_edges",
    "relations.chains": "chains",
    "interpreter.steps": "steps",
}


# per-layer size exponents: log-log slope of a layer's self time per request
# against the request's source lines
SIZE_EXPONENTS = {
    "relations.def_use_size_exponent": "relations.def_use",
    "activation.coherence_size_exponent": "activation.evaluate_coherence",
    "activation.instantiate_size_exponent": "activation.instantiate",
}


def layer_metrics(tracer, requests, request_seconds):
    """Per-layer metrics from the traced pass: times in ms of self time per
    request, counts per request, and ratios measured at the boundaries."""
    selfs, counts, per_request = tracer.self_times()
    per = max(requests, 1)
    out = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = (sum(selfs.get(n, (0.0, 0))[0] for n in names) * 1e3 / per, "ms")
    for metric, key in LAYER_COUNTS.items():
        out[metric] = (counts.get(key, 0) / per, "count")
    out["kb.builtin_kb_calls"] = (selfs.get("kb.builtin_kb", (0.0, 0))[1] / per, "count")
    parse_s = sum(selfs.get(n, (0.0, 0))[0] for n in LAYER_TIMES["frontend.parse_ms"])
    out["frontend.tokens_per_s"] = (counts.get("tokens", 0) / parse_s if parse_s else 0.0,
                                    "1/s")
    expectations = counts.get("expectations", 0)
    out["activation.expectations_verified_ratio"] = (
        counts.get("verified", 0) / expectations if expectations else 0.0, "ratio")
    pairs = counts.get("pairs", 0)
    out["activation.interaction_hit_ratio"] = (
        counts.get("external", 0) / pairs if pairs else 0.0, "ratio")
    execute_s = selfs.get("interpreter.execute", (0.0, 0))[0]
    steps = counts.get("steps", 0)
    out["interpreter.steps_per_s"] = (steps / execute_s if execute_s else 0.0, "1/s")
    out["interpreter.trace_events_per_step"] = (
        counts.get("trace_events", 0) / steps if steps else 0.0, "ratio")
    # how each super-linear suspect grows with program size
    lines = {span[4]: span[5]["lines"] for span in tracer.spans if span[0] == REQUEST}
    for metric, name in SIZE_EXPONENTS.items():
        out[metric] = (log_slope([(lines[request], seconds)
                                  for (span, request), seconds in per_request.items()
                                  if span == name]), "slope")
    layer_s = sum(t for name, (t, _) in selfs.items() if name != REQUEST)
    out["bench.traced_request_ms"] = (request_seconds * 1e3 / per, "ms")
    out["bench.accounted_ratio"] = (layer_s / request_seconds if request_seconds else 0.0,
                                    "ratio")
    out["bench.spans_per_request"] = (len(tracer.spans) / per, "count")
    return out
