#!/usr/bin/env python3
"""Compares two sets of perfbench results, metric by metric.

Reads perfbench result lines for a parent and a change, either from
BENCH_perfbench.jsonl (selected by commit prefix and `side`) or from result
files (`.bench_out/results/<workload>-seed<S>-trace0.json`, or JSON lines of
them). Untraced runs only: their metrics are the end-to-end ones.

Runs pair up by seed within a workload; when the two sides share no seed,
they pair in the order given. For each workload and each end-to-end metric
of BENCHMARK.json it prints:

  n          pairs compared
  parent     the parent's median and interquartile range (IQR)
  change     the change's median and its difference from the parent's
  wins       pairs in which the change's run is better
  verdict    better      >= 9 of 10 pairs won, and the medians apart by more
                         than the parent's IQR, in the metric's `better`
                         direction
             worse       the change's median worse than the parent's by more
                         than the metric's `bound` (a fraction of the
                         parent's median)
             unresolved  the parent's IQR is wider than the bound and not
                         every change run beats every parent run, so the
                         runs cannot tell a regression from noise
             within      none of these

It only reports: whatever the verdicts, it exits 0, and the gates stay
where they are.

  python3 tools/bench_diff.py --parent 84401f4 --change feedddc
  python3 tools/bench_diff.py --parent-files a/*.json --change-files b/*.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_lines(path: Path) -> list[dict]:
    """One run's results file, or JSON lines of result documents."""
    text = path.read_text(encoding="utf-8")
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def untraced(results: list[dict]) -> list[dict]:
    return [r for r in results
            if "header" in r and r["header"].get("trace", 0) == 0]


def from_jsonl(path: Path, commit: str, side: str) -> list[dict]:
    return [r for r in read_lines(path)
            if r.get("side") == side
            and str(r.get("commit", "")).startswith(commit)]


def pair_runs(parent: list[dict], change: list[dict]):
    """(parent, change) result pairs: by seed, else in the given order."""
    by_seed = defaultdict(lambda: ([], []))
    for r in parent:
        by_seed[r["header"].get("seed")][0].append(r)
    for r in change:
        by_seed[r["header"].get("seed")][1].append(r)
    pairs = []
    for p_runs, c_runs in by_seed.values():
        pairs.extend(zip(p_runs, c_runs))
    return pairs if pairs else list(zip(parent, change))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool,
            bound: float) -> tuple[str, int]:
    def beats(c: float, p: float) -> bool:
        return c < p if lower_is_better else c > p

    wins = sum(beats(c, p) for p, c in zip(parent, change))
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = p_med - c_med if lower_is_better else c_med - p_med
    allowed = bound * abs(p_med)
    if wins >= 0.9 * len(parent) and gain > iqr:
        return "better", wins
    if iqr > allowed and not all(beats(c, p) for c in change for p in parent):
        return "unresolved", wins
    if -gain > allowed:
        return "worse", wins
    return "within", wins


def main() -> int:
    try:
        report()
    except (OSError, ValueError, KeyError) as err:
        print(f"bench_diff: cannot compare: {err}", file=sys.stderr)
    return 0


def report() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n", 1)[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    parser.add_argument("--jsonl", type=Path,
                        default=ROOT / "BENCH_perfbench.jsonl",
                        help="result lines with side and commit")
    parser.add_argument("--parent", help="parent commit (prefix) in --jsonl")
    parser.add_argument("--change", help="change commit (prefix) in --jsonl")
    parser.add_argument("--parent-files", type=Path, nargs="*", default=[])
    parser.add_argument("--change-files", type=Path, nargs="*", default=[])
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    parser.add_argument("--workload", help="only this workload")
    args = parser.parse_args()

    parent = [r for f in args.parent_files for r in read_lines(f)]
    change = [r for f in args.change_files for r in read_lines(f)]
    if args.parent:
        parent += from_jsonl(args.jsonl, args.parent, "parent")
    if args.change:
        change += from_jsonl(args.jsonl, args.change, "change")
    parent, change = untraced(parent), untraced(change)
    metrics = json.loads(args.benchmark.read_text())["end_to_end"]

    workloads = sorted({r["header"]["workload"] for r in parent + change})
    if args.workload:
        workloads = [w for w in workloads if w == args.workload]
    print(f"{'workload':14s} {'metric':16s} {'n':>3s} {'parent median':>14s} "
          f"{'IQR':>11s} {'change median':>14s} {'diff':>8s} {'wins':>6s}  "
          "verdict")
    for workload in workloads:
        pairs = pair_runs(
            [r for r in parent if r["header"]["workload"] == workload],
            [r for r in change if r["header"]["workload"] == workload])
        if not pairs:
            print(f"{workload:14s} (no paired runs)")
            continue
        for metric in metrics:
            name = metric["name"]
            values = [(p["metrics"].get(name), c["metrics"].get(name))
                      for p, c in pairs]
            values = [(p, c) for p, c in values
                      if p is not None and c is not None]
            if not values:
                print(f"{workload:14s} {name:16s}   0  (not in these runs)")
                continue
            p_vals = [p for p, _ in values]
            c_vals = [c for _, c in values]
            word, wins = verdict(p_vals, c_vals, metric["better"] == "lower",
                                 metric["bound"])
            p_med = statistics.median(p_vals)
            c_med = statistics.median(c_vals)
            q1, q3 = quartiles(p_vals)
            diff = (c_med - p_med) / p_med * 100 if p_med else 0.0
            print(f"{workload:14s} {name:16s} {len(values):3d} "
                  f"{p_med:14.6g} {q3 - q1:11.4g} {c_med:14.6g} "
                  f"{diff:+7.1f}% {wins:3d}/{len(values):<2d}  {word}")


if __name__ == "__main__":
    sys.exit(main())
