"""plancog benchmark: one client, closed loop, in one process.

Run from the root of a plancog checkout:

    python3 perfbench/run.py --workload corpus_cli --seed 1 --seconds 40 --trace 0

The program is imported from the checkout's `src/`. With `--trace 0` the
run measures end-to-end metrics untraced; with `--trace 1` it replays the
same requests untraced and then traced, and reports per-layer metrics plus
the tracing overhead. Every response is checked against the oracle in
`programs.py`. A table goes to stdout first; the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The same object, with
the untraced pass's `extra` metrics (failed_ratio, size_exponent,
sim_steps_per_s, defined on some workloads only) added, is written to
`.perfbench/result-<workload>-<seed>-<trace>.json`.

Times are reported at a reference speed. On a virtual machine that shares
its cores with other guests, such as the 2-CPU one BASELINE.md was measured
on, the speed of the same Python code moves by up to 1.8 times within a
fraction of a second and drifts over minutes. So a fixed pure-Python probe runs just before and just after each
request and each set-up, and the wall time measured between them is scaled
by `REFERENCE_PROBE_S` over the mean of the two probe times: plancog's time
as it would read with the probe at its reference time. The wall times are
kept under `extra`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT_DIR = ".perfbench"
SETUP_SAMPLES = 40
PROBE_ITEMS = 300
# a round figure near the probe's time between requests on the machine
# BASELINE.md was measured on; it sets the unit of every reported time, and
# `speed` in `extra` says how far a run's machine was from it
REFERENCE_PROBE_S = 300e-6


class _ProbeItem:
    def __init__(self, i):
        self.i = i
        self.name = f"n{i}"

    def value(self):
        return self.i * 2


def probe():
    """Seconds a fixed piece of pure Python takes now: object creation,
    attribute and dictionary lookups, method calls and string formatting,
    the mix plancog's own code is made of. The collector is off so that
    plancog's live objects do not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    items = [_ProbeItem(i) for i in range(PROBE_ITEMS)]
    by_name = {item.name: item for item in items}
    total = 0
    for item in items:
        total += by_name[item.name].value()
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def timed(fn, *args):
    """Run fn(*args) between two probes. Returns its result or the
    exception it raised, its wall seconds, and those seconds at the
    reference speed: scaled by `REFERENCE_PROBE_S` over the mean of the two
    probe times."""
    before = probe()
    t0 = time.perf_counter()
    try:
        outcome = fn(*args)
    except Exception as err:  # a crash is the caller's to count
        outcome = err
    wall = time.perf_counter() - t0
    after = probe()
    return outcome, wall, wall * REFERENCE_PROBE_S * 2 / (before + after)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "plancog", "__init__.py")):
        sys.exit(f"run.py: no plancog sources under {SRC}; run from a plancog checkout")
    sys.path[:0] = [SRC, HERE]


class Result:
    """Outcome of one measured pass."""

    def __init__(self):
        self.latencies = []          # seconds per request at the reference speed
        self.wall = []               # wall seconds per request
        self.lines = 0
        self.steps = 0
        self.sizes = []              # (lines, recognize seconds) on recognize_scale
        self.failures = {}           # reason -> count
        self.rounds = 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.failures.values())


class SetUps:
    """Timed set-ups of plancog, each ending with one warm-up request of
    every kind so that lazy work is done, at the reference speed. Called
    between requests, it sets up again once `interval` seconds have passed
    since the last set-up, so that set-up is sampled across the run as the
    requests are: the machine's speed drifts within seconds, and one burst
    of set-ups at the start would catch only one moment of it."""

    def __init__(self, workload, interval):
        self.workload = workload
        self.warmup = workload.warmup()
        self.interval = interval
        self.times = []
        self.wall = []
        self.due = 0.0

    def __call__(self):
        if time.perf_counter() < self.due:
            return
        gc.collect()
        failure, wall, seconds = timed(self._set_up)
        if failure is not None:
            raise failure
        self.times.append(seconds)
        self.wall.append(wall)
        self.due = time.perf_counter() + self.interval

    def _set_up(self):
        self.workload.setup()
        for request in self.warmup:
            self.workload.run(request)


def measure(workload, seconds, tracer=None, set_ups=None):
    """Play whole rounds until the next would overrun `seconds`. With a
    tracer, each round is played both untraced and traced, in alternating
    order, so both passes see the same requests under the same machine
    conditions. Untraced, `set_ups` is called before each request. Returns
    the untraced and the traced Result."""
    plain, traced = Result(), Result()
    clock = time.perf_counter
    start = clock()
    last_round = 0.0
    while not plain.rounds or clock() - start + last_round <= seconds:
        round_start = clock()
        batch = workload.round(plain.rounds)
        traced_first = plain.rounds % 2 == 1
        if tracer is not None and traced_first:
            _play_traced(workload, batch, traced, tracer)
        _play(workload, batch, plain, set_ups=set_ups)
        if tracer is not None and not traced_first:
            _play_traced(workload, batch, traced, tracer)
        last_round = clock() - round_start
    return plain, traced


def _play_traced(workload, batch, result, tracer):
    tracer.install()
    try:
        _play(workload, batch, result, tracer)
    finally:
        tracer.uninstall()


def _play(workload, batch, result, tracer=None, set_ups=None):
    """Send each request of one round, timing it alone, and check it."""
    for request in batch:
        if set_ups is not None:
            set_ups()
        if tracer is None:
            outcome, wall, elapsed = timed(workload.run, request)
        else:
            outcome, wall, elapsed = timed(_run_traced, workload, request,
                                           tracer, result.attempted)
            tracer.scale[result.attempted] = elapsed / wall if wall else 1.0
        if isinstance(outcome, Exception):  # a crash is a failed request, not a stop
            failure = f"{request.kind}: crashed with {type(outcome).__name__}"
            outcome = None
        else:
            try:
                failure = workload.check(request, outcome)
            except (KeyError, TypeError, IndexError, AttributeError) as err:
                failure = f"{request.kind}: response lacks expected fields ({err!r})"
        result.latencies.append(elapsed)
        result.wall.append(wall)
        result.lines += request.lines
        if failure is not None:
            result.failures[failure] = result.failures.get(failure, 0) + 1
        else:
            result.steps += workload.steps(request)
            recognized = workload.recognize_seconds(outcome)
            if recognized is not None:   # at the request's reference speed
                result.sizes.append((request.lines, recognized * elapsed / wall))
        # drop the response now, so two large ones are never held together
        # and peak memory does not depend on request order
        outcome = None
    result.rounds += 1


def _run_traced(workload, request, tracer, request_id):
    with tracer.request(request_id, request.lines):
        return workload.run(request)


def end_to_end(result, setup_s):
    lat = result.latencies
    busy = sum(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "throughput_rps": (len(lat) / busy, "1/s"),
        "lines_per_s": (result.lines / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics


def workload_specific(result, set_ups=None):
    """Metrics defined on some workloads only, and the wall-clock times;
    not in the JSON line."""
    import tracing
    wall = result.wall
    extra = {"failed_ratio": (result.failed / result.attempted, "ratio"),
             "requests": (result.attempted, "count"),
             "rounds": (result.rounds, "count"),
             "wall_latency_p50_ms": (statistics.median(wall) * 1e3, "ms"),
             "wall_latency_p90_ms": (statistics.quantiles(wall, n=10)[8] * 1e3, "ms"),
             "wall_throughput_rps": (len(wall) / sum(wall), "1/s"),
             "speed": (sum(result.latencies) / sum(wall), "ratio")}
    if set_ups is not None:
        extra["wall_setup_s"] = (statistics.median(set_ups.wall), "s")
    if result.sizes:
        extra["size_exponent"] = (tracing.log_slope(result.sizes), "slope")
    if result.steps:
        extra["sim_steps_per_s"] = (result.steps / sum(result.latencies), "1/s")
    return extra


def print_table(title, metrics):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        # the requests and their expected answers are the benchmark's work,
        # made once and untimed; keeping them out of the collector's reach
        # lets plancog's collections cost what they would without them
        workload.prepare(args.seed, workdir)
        gc.collect()
        gc.freeze()
        set_ups = SetUps(workload, args.seconds / SETUP_SAMPLES)
        set_ups()
        if not args.trace:
            result, _ = measure(workload, args.seconds, set_ups=set_ups)
            passes = [result]
            metrics = end_to_end(result, statistics.median(set_ups.times))
            extra = workload_specific(result, set_ups)
            print_table(f"{args.workload} seed {args.seed}: end-to-end "
                        f"({result.attempted} requests, {result.rounds} rounds)",
                        {**metrics, **extra})
        else:
            tracer = tracing.Tracer()
            untraced, traced = measure(workload, args.seconds, tracer)
            passes = [untraced, traced]
            extra = workload_specific(untraced)
            traced_s, untraced_s = sum(traced.latencies), sum(untraced.latencies)
            metrics = tracing.layer_metrics(tracer, traced.attempted, traced_s)
            metrics["bench.tracing_overhead_ms"] = (
                (traced_s - untraced_s) * 1e3 / traced.attempted, "ms")
            metrics["bench.tracing_overhead_ratio"] = (
                traced_s / untraced_s - 1, "ratio")
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
            tracer.write(spans)
            print_table(f"{args.workload} seed {args.seed}: per layer, traced pass "
                        f"({traced.attempted} requests; spans in {spans})", metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    reasons = {}
    for p in passes:
        for reason, count in p.failures.items():
            reasons[reason] = reasons.get(reason, 0) + count
    for reason, count in sorted(reasons.items()):
        known = workloads.KNOWN_FAILURES.get(reason)
        print(f"  failed {count}x: {reason}" + (f" (known: {known})" if known else ""))
    correct = all(reason in workloads.KNOWN_FAILURES for reason in reasons)
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": _as_json(metrics)}
    with open(result_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as out:
        json.dump({**summary, "extra": _as_json(extra)}, out)
    print(json.dumps(summary))
    return 0


def result_path(workload, seed, trace):
    return os.path.join(OUT_DIR, f"result-{workload}-{seed}-{trace}.json")


def _as_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
