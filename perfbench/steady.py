#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

    python3 perfbench/steady.py [--seeds 1,1001] [--traced]

Runs every workload of BENCHMARK.json 10 times per seed set, each run with
its own seed (set base + run index), interleaving workloads and sets so
that both sets see the same host conditions. For every end-to-end metric
it prints, per set, the median and quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median beside the metric's bound from
BENCHMARK.json, then how far the second set's median moved from the
first's. The second set's seeds
are ones the bounds were not tuned on. With --traced it also makes one
traced run per workload and prints its tracing overhead.

Exit status 1 if any run fails or reports incorrect output, or any spread
or median shift is worse than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: exit {done.returncode}: "
              f"{done.stderr.strip()[-400:]}", flush=True)
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: incorrect output "
              f"({result['failed']}/{result['attempted']} failed)", flush=True)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,1001",
                        help="comma-separated base seed of each set")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bases = [int(s) for s in args.seeds.split(",")]
    values = {(b, w): [] for b in bases for w in workloads}
    failures = 0
    for i in range(RUNS):
        for base in bases:
            for workload in workloads:
                metrics = run_once(spec, workload, base + i, 0)
                if metrics is None:
                    failures += 1
                else:
                    values[(base, workload)].append(metrics)
        print(f"round {i + 1}/{RUNS} done", flush=True)

    bad = failures
    summary = {}
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':16s} {'set':>5s} {'q1':>11s} {'median':>11s} "
              f"{'q3':>11s} {'spread':>7s} {'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for base in bases:
                series = [m[name] for m in values[(base, workload)]]
                if len(series) < 2:
                    continue
                q1, med, q3, share = spread(series)
                medians.append(med)
                verdict = ("ok" if share <= bound / 3 else
                           "within bound" if share <= bound else "NOISY")
                bad += share > bound
                print(f"  {name:16s} {base:>5d} {q1:11.5g} {med:11.5g} "
                      f"{q3:11.5g} {share:7.2%} {bound:6.0%}  {verdict}")
                summary.setdefault(workload, {}).setdefault(name, []).append(
                    {"base": base, "q1": q1, "median": med, "q3": q3,
                     "spread": share})
            for later in medians[1:]:
                shift = worse_by(metric, medians[0], later)
                bad += shift > bound
                print(f"  {name:16s} shift of the later set's median: "
                      f"{shift:+.2%} (worse) vs bound {bound:.0%}"
                      f"{'' if shift <= bound else '  EXCEEDED'}")

    if args.traced:
        print("\ntracing overhead (traced ops vs untraced ops of one run)")
        for workload in workloads:
            metrics = run_once(spec, workload, bases[0], 1)
            if metrics is None:
                bad += 1
                continue
            print(f"  {workload:14s} {metrics['trace.overhead_pct']:+.2f}%")

    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"failures": failures, "summary": summary},
                              indent=1))
    print(f"\n{failures} failed runs; summary in {out.relative_to(ROOT)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
