"""One workload in a fresh process: set up, then run a timed or a traced loop.

run.py starts this script and reads the JSON object it prints as the last
line of its standard output. Modes:

- setup: import the program and make the inputs, then stop. run.py times
  a few of these to get a median set-up time.
- timed: a closed loop of calls (one caller; the next call starts when the
  previous one returns), untraced, for the given number of seconds. It
  prints one record per call; run.py merges the records of several timed
  workers into the end-to-end metrics with `end_to_end`.
- trace: pairs of calls on the same inputs, one untraced and one traced,
  alternating which goes first. The traced calls give the per-layer
  numbers; the untraced ones give the tracing overhead and the exact
  counts the spans must add up to.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import BYTES, CALL, FIELDS, FRAMES, NAME, PARTY, ROUNDS, START, \
    Tracer, layer_totals

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
# A timed run makes at least this many calls, so that a percentile with ten
# calls beyond it exists.
MIN_CALLS = 11
# No loop starts a new call after this long, whatever the minimum.
MAX_LOOP_S = 60.0
PARTIES = ("client", "server")
SENDING_LAYERS = ("ring.beaver_mul", "ring.matmul", "flood.reshare")


def import_program():
    """Import rootshare from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "rootshare" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rootshare package under {src}")
    sys.path.insert(0, str(src))
    import rootshare
    if not Path(rootshare.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: rootshare imported from {rootshare.__file__}, "
                 f"not from {src}")
    return rootshare


def run_call(workload, inputs, index, error_types):
    """Time one call and check its outputs."""
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        out, stats_c, stats_s, extra = workload.call(inputs, index)
    except error_types as exc:
        return {"index": index, "wall": time.perf_counter() - start,
                "cpu": time.process_time() - cpu0,
                "misses": workload.ops_per_call,
                "failed": workload.ops_per_call,
                "error": f"call {index}: {type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    misses = workload.misses(inputs, out)
    return {"index": index, "wall": wall, "cpu": cpu, "error": None,
            "misses": misses, "failed": workload.failed_ops(misses),
            "counts": [[s.bytes_sent, s.frames, s.rounds]
                       for s in (stats_c, stats_s)],
            "stats": {"client": stats_c, "server": stats_s}, "extra": extra}


def counts(record):
    """(bytes sent, frames, rounds) of each party in one call."""
    return tuple(tuple(party) for party in record["counts"])


def check_calls(ops_per_call, records):
    """Problems that make the run incorrect: a call that raised, a call
    failing its acceptance criterion, or communication that changed with
    the data (the protocol is data-oblivious, so counts must repeat)."""
    problems = [r["error"] for r in records if r["error"]]
    for record in records:
        if record["error"] is None and record["failed"]:
            problems.append(f"call {record['index']}: {record['misses']} of "
                            f"{ops_per_call} ops out of tolerance")
    seen = {counts(r) for r in records if r["error"] is None}
    if len(seen) > 1:
        problems.append(f"communication counts differ between calls: {seen}")
    return problems


def tail(values):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum, marked percentile 100, when there are
    too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n < MIN_CALLS:
        return ordered[-1], 100.0
    return ordered[n - MIN_CALLS], 100.0 * (n - MIN_CALLS + 1) / n


def end_to_end(ops_per_call, records, peak_rss_mb):
    """The end-to-end metrics, but set-up, of the timed records of one or
    more worker processes."""
    walls = [r["wall"] for r in records]
    attempted = ops_per_call * len(records)
    failed = sum(r["failed"] for r in records)
    misses = sum(r["misses"] for r in records)
    ok = [counts(r) for r in records if r["error"] is None]
    if ok:
        busier_bytes = max(party[0] for party in ok[0])
        rounds = max(party[2] for party in ok[0])
    else:
        busier_bytes = rounds = 0
    tail_value, tail_pct = tail(walls)
    metrics = {
        "ops_per_s": (attempted - failed) / sum(walls),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail_value,
        "cpu_s_per_op": statistics.median(r["cpu"] for r in records)
        / ops_per_call,
        "bytes_per_op": busier_bytes / ops_per_call,
        "rounds_per_call": rounds,
        "peak_rss_mb": peak_rss_mb,
        "within_tol_frac": 1.0 - misses / attempted,
    }
    return metrics, {"tail_percentile": tail_pct}


def timed_loop(workload, pool, seconds, min_calls, first_index, error_types):
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(records) < min_calls or time.perf_counter() < deadline:
        if time.perf_counter() - start > MAX_LOOP_S:
            break
        index = first_index + len(records)
        records.append(run_call(workload, pool[index % len(pool)], index,
                                error_types))
    return records


def guard(spans, untraced, call_id):
    """Catch shims that miss calls.

    The byte, frame and round totals of the traced call's transport spans
    must equal the untraced call's final endpoint stats exactly. Every
    frame is sent by a Beaver multiplication, a matrix product or a
    reshare, so the bytes inside those spans must add up to the same total;
    a binding the tracer failed to replace shows up as missing bytes.
    """
    problems = []
    for party in PARTIES:
        own = [s for s in spans if s[CALL] == call_id and s[PARTY] == party]
        send = [s for s in own if s[NAME] == "transport.send"]
        recv = [s for s in own if s[NAME] == "transport.recv"]
        senders = [s for s in own if s[NAME] in SENDING_LAYERS]
        got = (sum(s[BYTES] for s in send), sum(s[FRAMES] for s in send),
               sum(s[ROUNDS] for s in send + recv),
               sum(s[BYTES] for s in senders))
        stats = untraced["stats"][party]
        want = (stats.bytes_sent, stats.frames, stats.rounds, stats.bytes_sent)
        if got != want:
            problems.append(
                f"call {call_id} {party}: spans add up to (bytes, frames, "
                f"rounds, bytes in sending layers) = {got}, untraced "
                f"endpoint stats say {want}")
    return problems


def trace_loop(workload, pool, seconds, error_types):
    tracer = Tracer()
    untraced, traced, problems = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index < 1 or time.perf_counter() < deadline:
        if time.perf_counter() - start > MAX_LOOP_S:
            break
        inputs = pool[index % len(pool)]
        for is_traced in ((False, True) if index % 2 == 0
                          else (True, False)):
            if is_traced:
                tracer.call_id = index
                tracer.install()
                try:
                    traced.append(run_call(workload, inputs, index,
                                           error_types))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(run_call(workload, inputs, index, error_types))
        if traced[-1]["error"] is None and untraced[-1]["error"] is None:
            problems += guard(tracer.spans, untraced[-1], index)
        index += 1

    calls = len(traced)
    metrics = {}
    for party in PARTIES:
        for name, value in layer_totals(tracer.spans, party).items():
            metrics[f"{party}.{name}"] = value / calls
    for name in ("encoder.matmul.bytes", "encoder.nonlinear.bytes"):
        metrics[name] = sum(r.get("extra", {}).get(name, 0)
                            for r in traced) / calls
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall"] for r in traced)
        - statistics.median(r["wall"] for r in untraced))
    return untraced + traced, metrics, tracer.spans, problems


def write_spans(spans, name):
    """Write the run's spans, times relative to the first span's start.
    Each traced run of a workload replaces the previous run's file."""
    OUT_DIR.mkdir(exist_ok=True)
    origin = min((s[START] for s in spans), default=0.0)
    rows = [[v - origin if k in ("start", "end") else v
             for k, v in zip(FIELDS, span)] for span in spans]
    path = OUT_DIR / f"spans-{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": list(FIELDS), "spans": rows}, fh)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "trace"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--min-calls", type=int, default=1,
                        help="timed mode: make at least this many calls")
    parser.add_argument("--first-index", type=int, default=0,
                        help="timed mode: index of the first call, which "
                        "picks its input set and dealer seed")
    args = parser.parse_args(argv)

    rootshare = import_program()
    from workloads import make_workload
    try:
        workload = make_workload(args.workload, smoke=args.smoke)
    except KeyError:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    pool = workload.make_inputs(args.seed)
    ready = time.monotonic()
    result = {"ready": ready, "op": workload.op,
              "ops_per_call": workload.ops_per_call}
    errors = rootshare.RootshareError
    if args.mode == "timed":
        records = timed_loop(workload, pool, args.seconds, args.min_calls,
                             args.first_index, errors)
        result["records"] = [
            {k: v for k, v in r.items() if k not in ("stats", "extra")}
            for r in records]
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif args.mode == "trace":
        records, metrics, spans, problems = trace_loop(
            workload, pool, args.seconds, errors)
        name = args.workload + ("-smoke" if args.smoke else "")
        result.update({
            "spans_file": str(write_spans(spans, name)),
            "calls": len(records),
            "attempted": workload.ops_per_call * len(records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics,
            "problems": check_calls(workload.ops_per_call, records)
            + problems,
        })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
