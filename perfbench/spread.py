"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload rsqrt-10k --seeds 1-10

Runs `run.py --trace 0` once per seed, one after another, appends each
result line to .perfbench_out/spread-<workload>.jsonl, and prints for
every end-to-end metric the median of the runs and their spread: the
distance between the first and third quartiles as a share of the median.
A metric is steady when its spread is below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().with_name("run.py")


def seed_list(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    log = ROOT / ".perfbench_out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        results.append(json.loads(line))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()),
            flush=True)
    if len(results) < 2:
        return 0
    steady = True
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median, share = spread(values)
        ok = share < metric["bound"] / 3
        steady &= ok or metric["name"] == "setup_s"
        print(f"{metric['name']:<18} median {median:<12.6g} spread "
              f"{share:.4f}  bound/3 {metric['bound'] / 3:.4f}"
              f"  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
