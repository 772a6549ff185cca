"""Run the benchmark on every workload and print each metric per workload.

    python3 perfbench/report.py                       # one seed, untraced
    python3 perfbench/report.py --seeds 1-10          # median and spread
    python3 perfbench/report.py --trace 1             # per-layer metrics

Runs `perfbench/run.py` once per workload of `BENCHMARK.json` and seed, one
after another, from the current directory (a plancog checkout), for
`run_seconds` of `BENCHMARK.json` unless `--seconds` says otherwise. For
each metric it prints the median over seeds, the spread (distance between
the first and third quartile as a share of the median) and the sample
count. Besides the metrics of each run's JSON line it reads the `extra`
metrics (failed_ratio, size_exponent, sim_steps_per_s) from the result file
the run writes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import result_path

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out.extend(range(int(low), int(high or low) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(command, capture_output=True, text=True, timeout=600, check=True)
    with open(result_path(workload, seed, trace), encoding="utf-8") as handle:
        result = json.load(handle)
    metrics = {**result["metrics"], **result["extra"]}
    return result, {name: (m["value"], m["unit"]) for name, m in metrics.items()}


def main(argv=None):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description="benchmark report over workloads")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in (w["name"] for w in benchmark["workloads"]):
        samples, checks = {}, []
        for seed in seeds(args.seeds):
            result, values = run_once(workload, seed, args.seconds, args.trace)
            checks.append((seed, result["correct"], result["attempted"], result["failed"]))
            for name, (value, unit) in values.items():
                samples.setdefault(name, ([], unit))[0].append(value)
        print(f"## {workload}")
        print(f"  {'metric':40s} {'median':>14s} {'spread':>8s} {'n':>3s}  unit")
        for name, (values, unit) in samples.items():
            median = statistics.median(values)
            spread = None
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(median)
            shown = f"{spread:8.3f}" if spread is not None else f"{'-':>8s}"
            print(f"  {name:40s} {median:14.6g} {shown} {len(values):3d}  {unit}")
        for seed, correct, attempted, failed in checks:
            print(f"  seed {seed}: correct={correct} attempted={attempted} failed={failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
