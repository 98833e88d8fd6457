"""rootshare benchmark: one workload per call of this script.

    python3 perfbench/run.py --workload rsqrt-10k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each workload runs in fresh worker processes (worker.py) as a closed loop:
one caller, and the next call starts only after the previous one returns.
The timed seconds are split over a few worker processes, one after
another, and the end-to-end metrics are taken over all of their calls.
With --trace 0 the script prints every end-to-end metric named in
BENCHMARK.json, with its unit; with --trace 1 it runs the traced pass and
prints every per-layer metric. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every output was checked and found correct.

--smoke runs every workload at a tiny size through the same code, traced
and untraced, and checks BENCHMARK.json and every result against the
benchmark's schema. It takes well under a minute.
"""

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MIN_CALLS, check_calls, end_to_end

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
WORKER = Path(__file__).resolve().with_name("worker.py")
# The timed seconds of a run are split over this many fresh worker
# processes, one after another. On a shared host the speed of a call
# drifts from process to process as well as from minute to minute; several
# shorter processes average out the first of these.
TIMED_PROCESSES = 4
# Set-up is timed in this many fresh processes per run, the timed workers
# included; the median is reported. Half of the set-up-only processes run
# before the timed workers and half after them, so that the samples span
# the whole run rather than one moment of a shared host.
SETUP_SAMPLES = 8
# Every worker of a run must end within this many seconds of its start.
RUN_LIMIT_S = 170

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spec_problems(spec):
    """Ways BENCHMARK.json breaks the benchmark's schema."""
    problems = []
    if set(spec) != SPEC_KEYS:
        return [f"BENCHMARK.json keys {sorted(spec)} != {sorted(SPEC_KEYS)}"]
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    if not 1 <= len(spec["paths"]) <= 16 or not all(
            PATH_RE.fullmatch(p) and not p.startswith("/")
            and ".." not in p.split("/") for p in spec["paths"]):
        problems.append("paths must be 1..16 relative directory names")
    limits = {"workloads": (2, 8, {"name", "why"}),
              "end_to_end": (1, 16, {"name", "unit", "better", "bound"}),
              "per_layer": (1, 128, {"name", "unit", "better"})}
    names = []
    for section, (low, high, keys) in limits.items():
        entries = spec[section]
        if not low <= len(entries) <= high:
            problems.append(f"{section} needs {low}..{high} entries")
        for entry in entries:
            if set(entry) != keys:
                problems.append(f"{section} entry {entry} needs keys {keys}")
                continue
            names.append(entry["name"])
            if not NAME_RE.fullmatch(entry["name"]):
                problems.append(f"bad name {entry['name']!r}")
            if section == "workloads":
                why = entry["why"]
                if not why or len(why) > 200 or "\n" in why:
                    problems.append(f"why of {entry['name']} must be one "
                                    "line of at most 200 characters")
                continue
            if not UNIT_RE.fullmatch(entry["unit"]):
                problems.append(f"bad unit {entry['unit']!r}")
            if entry["better"] not in ("lower", "higher"):
                problems.append(f"better of {entry['name']} must be "
                                "lower or higher")
            if section == "end_to_end" and not 0 < entry["bound"] <= 0.25:
                problems.append(f"bound of {entry['name']} must be in (0, 0.25]")
    if len(names) != len(set(names)):
        problems.append("names must be unique")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def result_problems(result, spec, trace):
    """Ways a printed result breaks the benchmark's output schema."""
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}"]
    problems = []
    if result["correct"] is not True:
        problems.append("result is not correct")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} must be a whole number")
    if result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(wanted):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ set(wanted))}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if set(metric) != {"value", "unit"} or metric["unit"] != wanted.get(name) \
                or isinstance(value, bool) \
                or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"metric {name} is malformed: {metric}")
    return problems


def run_worker(mode, workload, seed, seconds, smoke, deadline, *extra):
    """Start one worker process, wait for it, return its parsed result.
    The worker is stopped if it runs past `deadline` (time.monotonic)."""
    command = [sys.executable, str(WORKER), "--mode", mode,
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), *extra]
    if smoke:
        command.append("--smoke")
    spawned = time.monotonic()
    timeout = max(deadline - spawned, 1.0)
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def run_benchmark(spec, workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (header, notes by metric, problems,
    result object)."""
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload!r}")
    notes = {}
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        run = run_worker("trace", workload, seed, seconds, smoke, deadline)
        metrics = run["metrics"]
        section = spec["per_layer"]
        notes["trace.overhead_s"] = (
            f"traced minus untraced median call, {run['calls'] // 2} pairs; "
            f"spans in {Path(run['spans_file']).relative_to(ROOT)}")
    else:
        run, setups, per_process = timed_run(workload, seed, seconds, smoke,
                                             deadline)
        metrics = dict(run["metrics"], setup_s=statistics.median(setups))
        section = spec["end_to_end"]
        notes["setup_s"] = ("median of " + ", ".join(
            f"{s:.3f}" for s in setups) + " (fresh processes)")
        notes["latency_p50_s"] = (
            f"{run['calls']} calls in {len(per_process)} processes, whose "
            "own medians were " + ", ".join(f"{m:.3g}" for m in per_process))
        notes["latency_tail_s"] = (
            f"p{run['tail_percentile']:.0f} of {run['calls']} calls")
        notes["within_tol_frac"] = (
            f"{run['misses']} of {run['attempted']} outputs outside 1e-2; "
            f"failed_frac {run['failed'] / run['attempted']:.3g}")
        notes["bytes_per_op"] = "busier party, frame headers included"
    problems = list(run["problems"])
    names = {m["name"] for m in section}
    if names != set(metrics):
        problems.append("worker metrics differ from BENCHMARK.json: "
                        f"{sorted(names ^ set(metrics))}")
    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0),
                                "unit": m["unit"]} for m in section},
    }
    header = (f"workload {workload}, seed {seed}, op = {run['op']} "
              f"({run['ops_per_call']} per call), closed loop with one "
              f"caller, {run['calls']} calls, trace {int(trace)}")
    return header, notes, problems, result


def timed_run(workload, seed, seconds, smoke, deadline):
    """The timed workers of one run and the set-up-only workers around
    them; returns (merged run, set-up times, each worker's median call).

    Each timed worker gets an equal share of the seconds still left, so a
    worker that overran its share by part of a call leaves the later ones
    a little less."""
    def setup_only():
        return run_worker("setup", workload, seed, 0, smoke,
                          deadline)["setup_s"]

    before = (SETUP_SAMPLES - TIMED_PROCESSES) // 2
    setups = [setup_only() for _ in range(before)]
    min_calls = 1 if smoke else math.ceil(MIN_CALLS / TIMED_PROCESSES)
    started = time.monotonic()
    workers, records = [], []
    for left in range(TIMED_PROCESSES, 0, -1):
        share = max(seconds - (time.monotonic() - started), 0.0) / left
        worker = run_worker("timed", workload, seed, share, smoke, deadline,
                            "--min-calls", str(min_calls),
                            "--first-index", str(len(records)))
        workers.append(worker)
        records += worker["records"]
    setups += [w["setup_s"] for w in workers]
    setups += [setup_only()
               for _ in range(SETUP_SAMPLES - TIMED_PROCESSES - before)]
    ops_per_call = workers[0]["ops_per_call"]
    metrics, detail = end_to_end(
        ops_per_call, records, max(w["peak_rss_mb"] for w in workers))
    run = {
        "op": workers[0]["op"],
        "ops_per_call": ops_per_call,
        "calls": len(records),
        "attempted": ops_per_call * len(records),
        "failed": sum(r["failed"] for r in records),
        "misses": sum(r["misses"] for r in records),
        "metrics": metrics,
        "problems": check_calls(ops_per_call, records),
        **detail,
    }
    per_process = [statistics.median(r["wall"] for r in w["records"])
                   for w in workers]
    return run, setups, per_process


def print_result(header, notes, problems, result):
    print(header)
    for name, metric in result["metrics"].items():
        note = notes.get(name)
        print(f"  {name:<38} {metric['value']:>16.6g} {metric['unit']:<8}"
              + (f"  {note}" if note else ""))
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(result))


def smoke(spec):
    """Every workload, tiny, traced and untraced; schema checks only."""
    started = time.monotonic()
    problems = [f"BENCHMARK.json: {p}" for p in spec_problems(spec)]
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            try:
                _, _, _, result = run_benchmark(spec, workload, 0, 0, trace,
                                                smoke=True)
            except BenchError as exc:
                problems.append(f"{workload} trace {trace}: {exc}")
                continue
            problems += [f"{workload} trace {trace}: {p}"
                         for p in result_problems(result, spec, trace)]
            print(f"smoke {workload} trace {trace}: {result['attempted']} ops,"
                  f" {len(result['metrics'])} metrics")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    verdict = "failed" if problems else "ok"
    print(f"smoke {verdict} in {time.monotonic() - started:.1f} s")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="rootshare benchmark (see perfbench/README.md)")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny and check the schema")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rootshare" / "__init__.py").is_file():
        print(f"perfbench: no rootshare package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        header, notes, problems, result = run_benchmark(
            spec, args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_result(header, notes, problems, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
