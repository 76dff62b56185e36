"""Run the benchmark on several seeds and summarise the run-to-run spread.

    python3 perfbench/spread.py [--workloads strata,filtrations]
        [--seeds 1-10] [--seconds 55] [--trace 0] [--out FILE]

Each run is `perfbench/run.py` in a fresh process, one at a time.  For
every end-to-end metric the summary gives the ten (or however many)
values, their median and quartiles (statistics.quantiles, n=4), and the
spread: the interquartile range as a share of the median, next to the
metric's bound from BENCHMARK.json.  The summary also records the
environment (Python version, commit, nproc) reported by the runs.  With
--out it is written as JSON (for example perfbench/results/BENCH_<tag>.json);
it is always printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2]), time.perf_counter() - start


def summarise(values, bound):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    row = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        row["bound"] = bound
        row["within_third_of_bound"] = spread < bound / 3
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            result, details, elapsed = one_run(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "elapsed_s": elapsed, "result": result, "details": details})
            summary.setdefault("environment", details["environment"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']}",
                  file=sys.stderr, flush=True)
        names = runs[0]["result"]["metrics"]
        summary["workloads"][workload] = {
            "runs": len(runs),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "longest_run_s": max(r["elapsed_s"] for r in runs),
            "metrics": {
                name: summarise([r["result"]["metrics"][name]["value"] for r in runs],
                                bounds.get(name) if not args.trace else None)
                for name in names
            },
            "details": [r["details"] for r in runs],
        }
    text = json.dumps(summary, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    for workload, block in summary["workloads"].items():
        for name, row in block["metrics"].items():
            print(f"{workload:12s} {name:24s} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f}" + (f" bound {row['bound']}" if "bound" in row else ""),
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
