#!/usr/bin/env python3
"""SECRETA benchmark: one workload, one run, one result line.

  python3 perfbench/run.py --workload compare_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run builds the program from the
checkout's sources (perfbench/CMakeLists.txt, into .bench_build/); every run
then generates its inputs from --seed, measures for about --seconds seconds,
checks the program's outputs and prints one JSON object as the last line of
standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are the per-layer metrics, and the run also writes a trace
file and a per-layer self-time summary under .bench_out/results/. Workloads,
metrics and their reasons are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"

# A run must end within 180 s; every child gets what is left of this.
RUN_DEADLINE_S = 170.0

# A run does a fixed amount of work sized from --seconds with today's op
# times on a 4-core VM, so every run of one length does the same work (and
# reaches the same peak memory) however fast the build under test is.
GRID_OP_S = 10.0    # one comparison grid
SHARD_OP_S = 4.4    # one sharded run + resume
SERVE_SESSION_S = 2.5  # one daemon session


def ops_for(seconds, op_seconds):
    return max(2, round(seconds / op_seconds))


GRID_SETUP_PROCESSES = 29  # extra set-up samples besides the measured process
# The comparison grid and the daemon anonymize one fixed dataset each (the
# repo's bench and daemon default seed); --seed varies their query
# workloads. Algorithm and estimation cost depend strongly on the dataset:
# per-seed datasets moved grid time by ~7% and served COUNTs/s by up to 1.7x,
# which would hide any change a run is meant to show.
FIXED_DATASET_SEED = 2014

SHARD_RECORDS = 1_000_000
SHARD_CONVERT_REPEATS = 5

SERVE_RECORDS = 5000
SERVE_CONNECTIONS = 2
SERVE_COUNTS_PER_SESSION = 4000
# Distinct query lines, more than 4x the daemon's 1,024-entry answer cache,
# so a cyclic stream almost never hits it.
SERVE_POOL = 5000
SERVE_TENANTS = ["admin:admin-token:direct",      # the daemon's defaults...
                 "demo:demo-token:anonymized:25",
                 "bench:bench-token:anonymized"]  # ...plus one without quota
SERVE_TOKEN = "bench-token"
SERVE_TENANT = "bench"

END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, all reported by every traced run. A workload that does
# not exercise a layer reports 0 for it (see README.md).
PER_LAYER = {
    "data.load_s": "s",
    "hierarchy.build_s": "s",
    "query.bind_s": "s",
    "algo.relational_s": "s",
    "algo.transaction_s": "s",
    "algo.merging_s": "s",
    "query.are_s": "s",
    "metrics.report_s": "s",
    "engine.compare_occupancy": "ratio",
    "serve.catalog_publish_s": "s",
    "serve.catalog_count_ms": "ms",
    "serve.codec_ms": "ms",
    "serve.server_count_ms": "ms",
    "serve.hop_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.latency_drift": "ratio",
    "serve.rss_growth_mb": "MB",
    "serve.cache_hit_ratio": "ratio",
    "data.convert_s": "s",
    "data.materialize_s": "s",
    "engine.shards_s": "s",
    "engine.shard_merge_s": "s",
    "robust.resume_s": "s",
    "robust.checkpoint_mb": "MB",
    "engine.release_mb": "MB",
    "process.cpu_s_per_op": "s",
    "trace.overhead_pct": "%",
}


class RunFailed(Exception):
    """The program could not be driven to a result (crash, hang, bad build)."""


class Run:
    """State of one benchmark run: deadline, scratch dir, trace parts."""

    def __init__(self, args):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = OUT / f"work-{args.workload}-{os.getpid()}"
        self.harness = None
        self.jobd = None
        self.trace_files = []  # chrome traces written by harness processes
        self.self_s = {}       # per-layer self seconds reported by the harness

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise RunFailed("out of time")
        return left

    def call(self, *args):
        """Runs one harness subcommand and returns its JSON report."""
        cmd = [str(self.harness)] + [str(a) for a in args]
        try:
            done = subprocess.run(cmd, cwd=self.work, capture_output=True,
                                  text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise RunFailed(f"harness {args[0]} timed out")
        if done.returncode != 0:
            raise RunFailed(f"harness {args[0]} exited {done.returncode}: "
                            f"{done.stderr.strip()[-800:]}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        for layer, seconds in report.pop("self_s", {}).items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        return report


# ---- Build ------------------------------------------------------------------

def build(run):
    """Builds the harness and the daemon from this checkout's sources."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise RunFailed(f"no program sources under {ROOT}")
    log_path = OUT / "build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    cache = BUILD / "CMakeCache.txt"
    # A build directory configured from another checkout's sources would
    # build and measure that checkout; start it over instead.
    if (cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n"
            not in cache.read_text()):
        shutil.rmtree(BUILD)
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_harness", "secreta_jobd", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            # The first build may take long; later runs only re-check it.
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=900).returncode != 0:
                tail = log_path.read_text()[-2000:]
                raise RunFailed(f"build failed ({' '.join(step)}):\n{tail}")
    run.harness = BUILD / "perfbench_harness"
    run.jobd = Path((BUILD / "jobd_path.txt").read_text().strip())
    # Building is not part of the run's time budget.
    run.deadline = time.monotonic() + RUN_DEADLINE_S


# ---- Statistics -------------------------------------------------------------

def quantile(values, q):
    """Linear-interpolated quantile; infinite samples sort last."""
    values = sorted(values)
    if not values:
        return float("nan")
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    if math.isinf(values[hi]):
        return values[hi]
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def quietest(steal, share=0.5):
    """Indices of the `share` of the samples (rounded up) during which the
    hypervisor stole the least CPU time from this VM.

    On a shared host, other tenants take whole stretches of CPU time, and
    every timing taken meanwhile is slower. Timing metrics come from these
    samples, chosen by this measure from outside the program and never by
    the timings themselves; every op is still run, checked and counted."""
    order = sorted(range(len(steal)), key=lambda i: (steal[i], i))
    return order[:math.ceil(len(steal) * share)]


def overhead_pct(traced, untraced):
    """Traced ops against the untraced ops interleaved with them."""
    if not traced or not untraced:
        return 0.0
    return 100.0 * (median(traced) / median(untraced) - 1.0)


def remember(kind, seed, value):
    """Outputs that must repeat for a seed are kept per checkout; a run of
    the same seed that reads a different value is wrong."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{kind}:{seed}"
    if key in known:
        return known[key] == value
    known[key] = value
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


# ---- compare_grid -----------------------------------------------------------

def compare_grid(run, seed, seconds, trace):
    run.call("grid-gen", "--dataset-seed", FIXED_DATASET_SEED, "--seed", seed,
             "--dir", run.work)
    setups = [run.call("grid-setup", "--dir", run.work)["setup_s"]
              for _ in range(GRID_SETUP_PROCESSES)]
    trace_out = run.work / "grid.trace.json"
    r = run.call("grid", "--dir", run.work, "--ops",
                 ops_for(seconds, GRID_OP_S), "--trace", trace,
                 "--trace-out", trace_out)
    if not r["op_s"]:
        raise RunFailed("no comparison grid completed")
    setups.append(r["setup_s"])
    cells = r["cells_per_grid"]
    quiet = [r["op_s"][i] for i in quietest(r["op_steal"])]
    grids_ms = [1e3 * s for s in quiet]
    same_digest = remember("compare_grid", seed, r["digest"])
    result = {
        "attempted": r["attempted"],
        "failed": r["failed"],
        "mismatched": 0 if (r["digests_agree"] and same_digest) else 1,
        "metrics": {
            "setup_s": median(setups),
            "throughput": median([cells / s for s in quiet]),
            "latency_p50_ms": quantile(grids_ms, 0.5),
            "latency_p99_ms": quantile(grids_ms, 0.99),
            "peak_rss_mb": r["peak_rss_mb"],
        },
        "samples": {"setup_s": setups, "grid_s": r["op_s"],
                    "latency": "wall time of one Compare call (one grid)",
                    "latency_samples": len(grids_ms)},
        "outputs": {"digest": r["digest"], "digests_agree": r["digests_agree"],
                    "same_digest_as_earlier_runs": same_digest},
        "diagnostics": {"process_cpu_s": r["cpu_s"],
                        "involuntary_switches": r["involuntary_switches"],
                        "op_steal_share": r["op_steal"]},
        "params": {"records": 5000, "dataset_seed": FIXED_DATASET_SEED,
                   "queries": 1000, "workload_seed": seed, "configs": 5,
                   "sweep": "k=2..10 step 2", "cells_per_grid": cells,
                   "comparator_workers": r["workers"]},
    }
    if trace:
        layers = {name: r[name] for name in (
            "data.load_s", "hierarchy.build_s", "query.bind_s",
            "algo.relational_s", "algo.transaction_s", "algo.merging_s",
            "query.are_s", "metrics.report_s", "engine.compare_occupancy")}
        layers["process.cpu_s_per_op"] = r["cpu_s"] / r["attempted"]
        layers["trace.overhead_pct"] = overhead_pct(r["traced_op_s"],
                                                    r["untraced_op_s"])
        result["per_layer"] = layers
        run.trace_files.append(trace_out)
    return result


# ---- serve_count ------------------------------------------------------------

def proc_status(pid):
    fields = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def proc_mb(pid, key):
    return int(proc_status(pid)[key].split()[0]) / 1024.0


def proc_involuntary_switches(pid):
    """Involuntary context switches summed over the process's threads."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            with open(task / "status") as f:
                for line in f:
                    if line.startswith("nonvoluntary_ctxt_switches:"):
                        total += int(line.split()[1])
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return total


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def serve_session(run, index, pool, traced):
    """One daemon lifetime: exec, ready, a fixed number of COUNTs, stop."""
    samples = run.work / f"samples-{index}.txt"
    stderr_path = run.work / f"jobd-{index}.stderr"
    cmd = [str(run.jobd), "--listen", "0", "--records", str(SERVE_RECORDS)]
    for tenant in SERVE_TENANTS:
        cmd += ["--tenant", tenant]
    session = {"samples": samples}
    with open(stderr_path, "w") as stderr:
        host_exec = host_cpu_times()
        start = time.monotonic()
        daemon = subprocess.Popen(cmd, cwd=run.work, stdout=subprocess.PIPE,
                                  stderr=stderr, text=True)
    lines = queue.Queue()

    def pump():
        for line in daemon.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    stdout = []
    try:
        port = None
        while port is None:
            try:
                line = lines.get(timeout=min(60.0, run.remaining()))
            except queue.Empty:
                raise RunFailed("secreta_jobd did not become ready")
            if line is None:
                raise RunFailed("secreta_jobd exited before listening: "
                                + stderr_path.read_text()[-500:])
            stdout.append(line)
            match = re.search(r"listening on [^ ]*:(\d+)", line)
            if match:
                port = int(match.group(1))
        ready = time.monotonic()
        host_ready = host_cpu_times()
        session["setup_s"] = ready - start
        session["setup_steal"] = steal_share(host_exec, host_ready)
        session["ready_rss_mb"] = proc_mb(daemon.pid, "VmRSS")
        cpu_ready = proc_cpu_s(daemon.pid)
        switches_ready = proc_involuntary_switches(daemon.pid)
        trace_out = run.work / f"session-{index}.trace.json"
        load = run.call("serve-load", "--port", port, "--token", SERVE_TOKEN,
                        "--tenant", SERVE_TENANT, "--pool", pool,
                        "--count", SERVE_COUNTS_PER_SESSION,
                        "--connections", SERVE_CONNECTIONS, "--out", samples,
                        "--trace", int(traced), "--trace-out", trace_out,
                        "--op", index, "--exec-at", repr(start),
                        "--ready-at", repr(ready))
        session["load"] = load
        session["peak_rss_mb"] = proc_mb(daemon.pid, "VmHWM")
        session["cpu_s"] = proc_cpu_s(daemon.pid) - cpu_ready
        session["steal"] = steal_share(host_ready, host_cpu_times())
        session["switches"] = (proc_involuntary_switches(daemon.pid)
                               - switches_ready)
        if traced:
            run.trace_files.append(trace_out)
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        reader.join(timeout=5)
    while not lines.empty():
        line = lines.get()
        if line is not None:
            stdout.append(line)
    errors = stderr_path.read_text().strip()
    session["clean_exit"] = (daemon.returncode == 0 and not errors and
                             any("stopped cleanly" in l for l in stdout))
    session["exit"] = {"code": daemon.returncode, "stderr": errors[-500:]}
    return session


def read_latencies(path):
    """Per-COUNT latency in seconds (inf when it failed), in stream order."""
    latencies = []
    with open(path) as f:
        for line in f:
            _, ok, start, end, _ = line.split()
            latencies.append(float(end) - float(start) if ok == "1"
                             else math.inf)
    return latencies


def serve_count(run, seed, seconds, trace):
    daemon_seed = FIXED_DATASET_SEED  # secreta_jobd's default --seed
    pool = run.work / "pool.txt"
    run.call("serve-pool", "--records", SERVE_RECORDS, "--daemon-seed",
             daemon_seed, "--seed", seed, "--size", SERVE_POOL, "--out", pool)
    num_sessions = ops_for(seconds, SERVE_SESSION_S)
    sessions = [serve_session(run, i, pool, trace and i % 2 == 0)
                for i in range(num_sessions)]

    trace_out = run.work / "serve.trace.json"
    check = run.call("serve-check", "--records", SERVE_RECORDS,
                     "--daemon-seed", daemon_seed, "--pool", pool,
                     "--count", SERVE_COUNTS_PER_SESSION, "--trace", trace,
                     "--trace-out", trace_out,
                     "--samples", ",".join(str(s["samples"]) for s in sessions))

    # Each daemon session is one identical sample of the service. Another
    # tenant taking the host's CPU only ever adds time: a session that lost
    # 15-19% of the VM to steal ran at half the rate with five times the
    # p99, and 2% steal already raised a session's p99 by a third. So, as
    # for grids and sharded ops, the figures come from the sessions that
    # lost the least to steal while serving COUNTs: throughput, p50 and p99
    # from all COUNTs of the quietest quarter of them, pooled (12,000
    # COUNTs at 12 sessions); set-up from the quieter half of the daemon
    # starts. A COUNT that never completed counts as infinite; in the
    # percentiles it stands at its session's wall time, a finite upper bound
    # that keeps the result printable (such a run is failed anyway).
    per_session, capped_ms = [], []
    for s in sessions:
        lat = read_latencies(s["samples"])
        tenth = max(1, len(lat) // 10)
        ok = [x for x in lat if not math.isinf(x)]
        capped = [1e3 * (s["load"]["wall_s"] if math.isinf(x) else x)
                  for x in lat]
        capped_ms.append(capped)
        per_session.append({
            "count_s": s["load"]["wall_s"] / len(lat),
            "drift": median(lat[-tenth:]) / median(lat[:tenth]),
            "client_mean_s": statistics.fmean(ok) if ok else math.inf,
            "throughput": len(ok) / s["load"]["wall_s"],
            "p50_ms": quantile(capped, 0.5),
            "p99_ms": quantile(capped, 0.99),
            "ok": len(ok),
            "failed": len(lat) - len(ok),
        })
    chosen = sorted(quietest([s["steal"] for s in sessions], share=0.25))
    chosen_ms = [x for i in chosen for x in capped_ms[i]]
    chosen_ok = sum(per_session[i]["ok"] for i in chosen)
    chosen_wall = sum(sessions[i]["load"]["wall_s"] for i in chosen)
    setups = [s["setup_s"] for s in sessions]
    quiet_setups = [setups[i]
                    for i in quietest([s["setup_steal"] for s in sessions])]
    attempted = sum(s["load"]["attempted"] for s in sessions)
    failed = sum(s["load"]["failed"] for s in sessions)
    unclean = sum(0 if s["clean_exit"] else 1 for s in sessions)
    result = {
        "attempted": attempted,
        "failed": failed + unclean,
        "mismatched": check["mismatched"] +
                      (attempted - failed - check["checked"]),
        "metrics": {
            "setup_s": median(quiet_setups),
            "throughput": chosen_ok / chosen_wall,
            "latency_p50_ms": quantile(chosen_ms, 0.5),
            "latency_p99_ms": quantile(chosen_ms, 0.99),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in sessions]),
        },
        "samples": {"setup_s": setups,
                    "latency": "client-side per COUNT, pooled over the "
                               "chosen sessions; failed = infinite",
                    "latency_samples": len(chosen_ms),
                    "chosen_sessions": chosen,
                    "failed_counts": [p["failed"] for p in per_session],
                    **{f"session_{k}": [p[k] for p in per_session]
                       for k in ("throughput", "p50_ms", "p99_ms", "drift")},
                    "daemon_peak_rss_mb": [s["peak_rss_mb"]
                                           for s in sessions]},
        "outputs": {"checked": check["checked"],
                    "mismatched": check["mismatched"],
                    "daemon_exits": [s["exit"] for s in sessions],
                    "first_errors": [s["load"]["first_error"] for s in sessions
                                     if s["load"]["first_error"]]},
        "diagnostics": {"daemon_cpu_s": sum(s["cpu_s"] for s in sessions),
                        "daemon_involuntary_switches": sum(
                            s["switches"] for s in sessions),
                        "client_cpu_s": sum(s["load"]["cpu_s"]
                                            for s in sessions),
                        "client_involuntary_switches": sum(
                            s["load"]["involuntary_switches"]
                            for s in sessions),
                        "session_steal_share": [s["steal"] for s in sessions],
                        "setup_steal_share": [s["setup_steal"]
                                              for s in sessions]},
        "params": {"records": SERVE_RECORDS, "daemon_seed": daemon_seed,
                   "pool_seed": seed,
                   "sessions": num_sessions,
                   "counts_per_session": SERVE_COUNTS_PER_SESSION,
                   "connections": SERVE_CONNECTIONS, "pool": SERVE_POOL,
                   "loop": "closed", "daemon": "defaults + tenant bench"},
    }
    if trace:
        traced = [i for i in range(num_sessions) if i % 2 == 0]
        server_n = sum(sessions[i]["load"]["server_count_n"] for i in traced)
        server_ms = 1e3 * sum(sessions[i]["load"]["server_count_sum_s"]
                              for i in traced) / max(1, server_n)
        client_ms = 1e3 * statistics.fmean(
            per_session[i]["client_mean_s"] for i in traced)
        hits = sum(sessions[i]["load"]["cache_hits"] for i in traced)
        misses = sum(sessions[i]["load"]["cache_misses"] for i in traced)
        result["per_layer"] = {
            "serve.catalog_publish_s": check["publish_s"],
            "serve.catalog_count_ms": check["catalog_count_ms"],
            "serve.codec_ms": check["codec_ms"],
            "serve.server_count_ms": server_ms,
            "serve.hop_ms": server_ms - check["catalog_count_ms"],
            "serve.wire_ms": client_ms - server_ms,
            "serve.latency_drift": median(
                [per_session[i]["drift"] for i in traced]),
            "serve.rss_growth_mb": median(
                [sessions[i]["peak_rss_mb"] - sessions[i]["ready_rss_mb"]
                 for i in traced]),
            "serve.cache_hit_ratio": hits / max(1, hits + misses),
            "process.cpu_s_per_op": sum(sessions[i]["cpu_s"] for i in traced)
                                    / sum(sessions[i]["load"]["attempted"]
                                          for i in traced),
            "trace.overhead_pct": overhead_pct(
                [per_session[i]["count_s"] for i in traced],
                [per_session[i]["count_s"] for i in range(num_sessions)
                 if i % 2 == 1]),
        }
        run.trace_files.append(trace_out)
    return result


# ---- shard_run --------------------------------------------------------------

def shard_run(run, seed, seconds, trace):
    sbc = run.work / "data.sbc"
    convert = run.call("shard-convert", "--records", SHARD_RECORDS,
                       "--seed", seed, "--out", sbc,
                       "--repeats", SHARD_CONVERT_REPEATS)
    trace_out = run.work / "shard.trace.json"
    r = run.call("shard", "--sbc", sbc, "--dir", run.work, "--ops",
                 ops_for(seconds, SHARD_OP_S), "--trace", trace,
                 "--trace-out", trace_out)
    if not r["op_s"]:
        raise RunFailed("no sharded op completed")
    # The audit replays the checkpoint in its own process, so neither its
    # time nor its memory lands in the measured process.
    audit = run.call("shard-audit", "--sbc", sbc, "--dir", run.work)
    same_release = remember("shard_run", seed, r["release_fingerprint"])
    audit_ok = (audit["release_fingerprint"] == r["release_fingerprint"] and
                audit["resumed_shards"] == audit["shards"] == r["shards"] and
                audit["k_anonymous"])
    quiet = [r["op_s"][i] for i in quietest(r["op_steal"])]
    ops_ms = [1e3 * s for s in quiet]
    result = {
        "attempted": r["attempted"],
        "failed": r["failed"],
        "mismatched": 0 if (audit_ok and same_release) else 1,
        "metrics": {
            "setup_s": median([convert["convert_s"][i] for i in
                               quietest(convert["convert_steal"])])
                       + median(r["open_s"]),
            "throughput": median([r["records"] / s for s in quiet]),
            "latency_p50_ms": quantile(ops_ms, 0.5),
            "latency_p99_ms": quantile(ops_ms, 0.99),
            "peak_rss_mb": r["peak_rss_mb"],
        },
        "samples": {"convert_s": convert["convert_s"], "open_s": r["open_s"],
                    "op_s": r["op_s"], "run_s": r["run_s"],
                    "resume_s": r["resume_s"],
                    "latency": "wall time of one run + resume op",
                    "latency_samples": len(ops_ms)},
        "outputs": {"release_fingerprint": r["release_fingerprint"],
                    "audit": audit,
                    "same_release_as_earlier_runs": same_release},
        "diagnostics": {"process_cpu_s": r["cpu_s"],
                        "involuntary_switches": r["involuntary_switches"],
                        "op_steal_share": r["op_steal"]},
        "params": {"records": SHARD_RECORDS, "shards": r["shards"],
                   "plan": "range", "config": "relational Incognito k=5",
                   "materialize_result": False},
    }
    if trace:
        layers = {name: r[name] for name in (
            "data.materialize_s", "engine.shards_s", "engine.shard_merge_s",
            "robust.resume_s", "robust.checkpoint_mb", "engine.release_mb")}
        layers["data.convert_s"] = median(convert["convert_s"])
        layers["process.cpu_s_per_op"] = r["cpu_s"] / r["attempted"]
        layers["trace.overhead_pct"] = overhead_pct(r["traced_op_s"],
                                                    r["untraced_op_s"])
        result["per_layer"] = layers
        run.trace_files.append(trace_out)
    return result


WORKLOADS = {
    "compare_grid": compare_grid,
    "serve_count": serve_count,
    "shard_run": shard_run,
}


# ---- Header, diagnostics, trace files ---------------------------------------

def host_cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields[:8]), fields[7]  # total jiffies, steal jiffies


def steal_share(start, end):
    """Share of the host's CPU time the hypervisor stole between readings."""
    return (end[1] - start[1]) / max(1, end[0] - start[0])


def header(run, args):
    git_sha = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            git_sha = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # A checkout without git history has no SHA; a digest of the sources
    # identifies the code instead.
    digest = hashlib.sha256()
    sources = [p for d in ("src", "examples") for p in (ROOT / d).rglob("*")
               if p.is_file()]
    for path in sorted(sources):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    info = run.call("info")
    return {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "compiler": info["compiler"],
        "cpu_model": cpu_model,
        "kernel_tier": info["kernel_tier"],
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": info["hardware_concurrency"],
    }


def write_trace(run, name):
    """Merges the Chrome traces the harness processes wrote into one file,
    and writes their per-layer self time next to it."""
    events = []
    for path in run.trace_files:
        events += json.loads(path.read_text())["traceEvents"]
    results = OUT / "results"
    trace_path = results / f"{name}.trace.json"
    trace_path.write_text(json.dumps({"traceEvents": events}))
    layers_path = results / f"{name}.layers.json"
    layers_path.write_text(json.dumps(
        {"self_seconds_by_layer": run.self_s,
         "note": "busy time: concurrent spans each count"}, indent=1))
    return trace_path, layers_path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    run = Run(args)
    try:
        build(run)
        if run.work.exists():
            shutil.rmtree(run.work)
        run.work.mkdir()
        head = header(run, args)
        host_start = host_cpu_times()
        wall_start = time.monotonic()
        result = WORKLOADS[args.workload](run, args.seed, args.seconds,
                                          args.trace)
        wall = time.monotonic() - wall_start
        host_end = host_cpu_times()
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            trace_path, layers_path = write_trace(run, name)
    except RunFailed as failure:
        print(f"perfbench: {args.workload}: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    result["diagnostics"].update({
        "run_wall_s": wall,
        "host_steal_share": steal_share(host_start, host_end),
    })
    correct = result["failed"] == 0 and result["mismatched"] == 0
    if args.trace:
        wanted, units = result["per_layer"], PER_LAYER
        exercised = set(wanted)
        values = {name: wanted.get(name, 0.0) for name in PER_LAYER}
        result["trace_file"] = str(trace_path.relative_to(ROOT))
        result["layers_file"] = str(layers_path.relative_to(ROOT))
        result["not_exercised"] = sorted(set(PER_LAYER) - exercised)
    else:
        values, units = result["metrics"], END_TO_END
    full = {"header": head, "correct": correct, **result}
    (OUT / "results" / f"{name}.json").write_text(
        json.dumps(full, indent=1, default=str))

    print(json.dumps({"header": head}))
    for key in ("params", "diagnostics", "samples", "outputs"):
        print(json.dumps({key: result[key]}, default=str))
    for metric, unit in units.items():
        note = ""
        if args.trace and metric in full.get("not_exercised", []):
            note = "  (not exercised by this workload)"
        print(f"{metric:28s} {values[metric]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"] + result["mismatched"]),
        "metrics": {m: {"value": values[m], "unit": u}
                    for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
