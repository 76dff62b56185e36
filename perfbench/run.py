"""quasiflags benchmark: one workload, one run.

    python3 perfbench/run.py --workload {ladder,strata,filtrations}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the checkout is the parent of this directory and the
package is imported from its src/.  Needs only the Python standard
library.  See README.md for why each workload exists.

--trace 0 repeats the workload, each repetition in fresh processes, at
least MIN_REPS times and then while the next repetition still fits in S
seconds, and reports the end-to-end metrics.  Each repetition's times are
scaled by the machine load a probe loop measured around it; a timed unit
(a verify process, or one count_filtrations call) counts with the median
of its scaled times, and a workload's time is the sum over its units.
See README.md.
--trace 1 runs the workload once untraced and once under tracer.py, and
reports the per-layer metrics of the traced repetition plus the tracing
overhead.

Every repetition is checked against reference.json.  The last line of
stdout is the result object; the line before it holds the details
(environment, per-repetition values, sample counts, workload properties).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pool  # noqa: E402
from child import TRACE_MARK, probe_loop  # noqa: E402
from tracer import LAYERS  # noqa: E402

SUITES = ("genfunc", "euler", "celldim", "serre", "pbw", "commute", "characters", "freeness")

# (n, degree) of each `verify --suite all` process of a CLI workload.
CLI_WORKLOADS = {
    "ladder": ((2, 9), (3, 16), (4, 18)),
    "strata": ((3, 22),),
}
WORKLOADS = tuple(CLI_WORKLOADS) + ("filtrations",)

SETUP_PER_REP = 3  # fresh imports before each repetition
# The load probe (child.probe_loop) runs back to back for PROBE_SECONDS
# before the first repetition and after each one.
PROBE_SECONDS = 0.3
# The probe's median timing around a repetition at the quietest of 211
# repetitions on the 2-core machine the benchmark was written on (CPython
# 3.11).  Times are scaled to the machine speed this stands for.
PROBE_QUIET_S = 2.35e-3
# Repetitions per untraced run, whatever --seconds says.
MIN_REPS = 4

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "output_mb": ("MB", "lower"),
    "call_p50_ms": ("ms", "lower"),
    "call_p99_ms": ("ms", "lower"),
}

# Per-layer metrics of the traced run.  "<module>.<callable>.<field>" reads
# the tracer record of that callable; see per_layer_metrics for the rest.
PER_LAYER = (
    "rootdata.weyl_poincare.calls",
    "rootdata.weyl_poincare.self_s",
    "rootdata.weyl_elements.calls",
    "kostant.kostant_partitions.calls",
    "kostant.kostant_partitions.items",
    "kostant.kostant_partitions.self_s",
    "kostant.kostant_partitions.distinct_ratio",
    "kostant.KostantPartition.weight.calls",
    "kostant.KostantPartition.weight.self_s",
    "kostant.kostant_count_profile.calls",
    "kostant.kostant_count_profile.self_s",
    "kostant.lusztig_kostant_poly.calls",
    "kostant.lusztig_kostant_poly.self_s",
    "charseries.LaurentPoly.mul.calls",
    "charseries.LaurentPoly.mul.self_s",
    "charseries.LaurentPoly.add.calls",
    "charseries.LaurentPoly.add.self_s",
    "charseries.CharSeries.mul.calls",
    "charseries.CharSeries.mul.self_s",
    "charseries.CharSeries.mul.max_support",
    "charseries.geometric_inverse.calls",
    "cohomology.laumon_poincare.calls",
    "cohomology.laumon_poincare.incl_s",
    "cohomology.laumon_poincare.self_s",
    "cohomology.laumon_poincare.distinct_ratio",
    "cohomology.stratum_poincare_compact.calls",
    "cohomology.stratum_poincare_compact.self_s",
    "cohomology.generating_function.calls",
    "cohomology.generating_function.incl_s",
    "cells.enumerate_cells.calls",
    "cells.enumerate_cells.items",
    "cells.enumerate_cells.self_s",
    "cells.enumerate_cells.incl_s",
    "cells.conjectured_dim.calls",
    "cells.conjectured_dim.self_s",
    "quiverfilt.count_filtrations.calls",
    "quiverfilt.count_filtrations.incl_s",
    "quiverfilt.count_filtrations_bruteforce.calls",
    "quiverfilt.count_filtrations_bruteforce.self_s",
    "quiverfilt.count_filtrations_bruteforce.distinct_ratio",
    "quiverfilt.bruteforce_f2.self_s",
    "quiverfilt.bruteforce_f3.self_s",
    "quiverfilt.count_filtrations_symbolic.calls",
    "quiverfilt.count_filtrations_symbolic.self_s",
    "quiverfilt.count_filtrations_symbolic.distinct_ratio",
    "quiverfilt.not_rigid",
    "modchar.module_character.incl_s",
    "modchar.verma_multiplicity_series.incl_s",
    "modchar.weight_space_check.self_s",
    *(f"suites.run_{s}.incl_s" for s in SUITES),
    *(f"suites.{s}.checks" for s in SUITES),
    "reports.Report.to_json.self_s",
    "cli.render.self_s",
    "cli.render.bytes",
    *(f"{layer}.self_s" for layer in LAYERS),
    "tracing_overhead",
    "error_rate",
)


def per_layer_unit(name):
    """(unit, better) of a PER_LAYER metric, from its last component."""
    field = name.rsplit(".", 1)[-1]
    if field in ("self_s", "incl_s"):
        return "s", "lower"
    if field in ("distinct_ratio", "tracing_overhead"):
        return "ratio", "higher" if field == "distinct_ratio" else "lower"
    if field == "error_rate":
        return "ratio", "lower"
    if field == "bytes":
        return "bytes", "lower"
    if field == "checks":
        return "count", "higher"
    return "count", "lower"


class BenchError(Exception):
    """The benchmark cannot run here (for example, no quasiflags source)."""


# ---------------------------------------------------------------------------
# child processes


def child_env(traced=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if traced:
        # Fixed string hashing, so the traced counts repeat exactly.
        env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One finished child process: exit code, output, wall time, rusage."""

    def __init__(self, argv, stdin=b"", traced=False):
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=ROOT,
            env=child_env(traced),
        )
        self.stdout, self.stderr = _drain(proc, stdin)
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    def trace(self):
        lines = self.stderr.decode(errors="replace").splitlines()
        if not lines or not lines[-1].startswith(TRACE_MARK):
            raise BenchError("traced child wrote no trace:\n" + "\n".join(lines[-20:]))
        return json.loads(lines[-1][len(TRACE_MARK):])


def _drain(proc, stdin):
    """Feed stdin and collect stdout and stderr without threads."""
    out = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    view = memoryview(stdin)
    with selectors.DefaultSelector() as sel:
        if view:
            sel.register(proc.stdin, selectors.EVENT_WRITE)
        else:
            proc.stdin.close()
        for pipe in out:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                pipe = key.fileobj
                if pipe is proc.stdin:
                    try:
                        sent = os.write(pipe.fileno(), view[:65536])
                    except BrokenPipeError:
                        sent = len(view)
                    view = view[sent:]
                    if not view:
                        sel.unregister(pipe)
                        pipe.close()
                    continue
                chunk = os.read(pipe.fileno(), 1 << 16)
                if chunk:
                    out[pipe] += chunk
                else:
                    sel.unregister(pipe)
                    pipe.close()
    return bytes(out[proc.stdout]), bytes(out[proc.stderr])


def cli_argv(n, degree, traced):
    prefix = [sys.executable]
    prefix += [str(HERE / "child.py"), "cli", "--trace", "--"] if traced else ["-m", "quasiflags.cli"]
    return prefix + ["verify", "--n", str(n), "--degree", str(degree), "--suite", "all"]


# ---------------------------------------------------------------------------
# one repetition of a workload


class Rep:
    """Measurements and check failures of one repetition."""

    def __init__(self):
        self.wall = self.cpu = self.rss_mb = 0.0
        self.output_bytes = 0
        # timed unit (a verify process, or a pool index) -> (wall s, CPU s)
        self.units = {}
        # timed unit -> probe time measured around it, where the child did
        self.load = {}
        self.attempted = self.failed = 0
        self.problems = []
        self.traces = []
        self.checks = {}
        self.results = []

    def add_child(self, child):
        self.wall += child.wall
        self.cpu += child.cpu
        self.rss_mb = max(self.rss_mb, child.rss_mb)


def check_cli_output(child, ref, label):
    """Problems with one verify process's output, compared to its reference."""
    if child.code != 0:
        return [f"{label}: exit code {child.code}: {child.stderr.decode(errors='replace')[-500:]}"], {}
    problems = []
    digest = hashlib.sha256(child.stdout).hexdigest()
    if len(child.stdout) != ref["bytes"] or digest != ref["sha256"]:
        problems.append(f"{label}: output {len(child.stdout)} B sha256 {digest} differs from reference")
    try:
        doc = json.loads(child.stdout)
    except ValueError:
        return problems + [f"{label}: output is not JSON"], {}
    if doc["summary"]["status"] != "PASS":
        problems.append(f"{label}: summary status {doc['summary']['status']}")
    checks = {s["suite"]: s["checks"] for s in doc["suites"]}
    if checks != ref["checks"]:
        problems.append(f"{label}: per-suite checks {checks} differ from {ref['checks']}")
    return problems, checks


def run_cli_rep(name, refs, traced):
    rep = Rep()
    for n, degree in CLI_WORKLOADS[name]:
        label = f"verify --n {n} --degree {degree}"
        child = Child(cli_argv(n, degree, traced), traced=traced)
        rep.add_child(child)
        rep.output_bytes += len(child.stdout)
        rep.units[f"{n},{degree}"] = (child.wall, child.cpu)
        rep.attempted += 1
        problems, checks = check_cli_output(child, refs["cli"][f"{n},{degree}"], label)
        if problems:
            rep.failed += 1
            rep.problems += problems
        for suite, count in checks.items():
            rep.checks[suite] = rep.checks.get(suite, 0) + count
        if traced and child.code == 0:
            rep.traces.append(child.trace())
    return rep


def run_filtrations_rep(seed, refs, traced):
    rep = Rep()
    cases = pool.pool()
    ref = refs["filtrations"]
    if pool.digest(cases) != ref["cases_sha256"]:
        raise BenchError("filtrations pool differs from the one reference.json was made from")
    order = pool.run_order(seed)
    run_cases = [cases[i] for i in order]
    expected = [ref["results"][i] for i in order]
    argv = [sys.executable, str(HERE / "child.py"), "filtrations"] + (["--trace"] if traced else [])
    child = Child(argv, stdin=json.dumps(run_cases).encode(), traced=traced)
    rep.add_child(child)
    rep.attempted = len(run_cases)
    lines = child.stdout.splitlines()
    if child.code != 0 or len(lines) != 4:
        rep.failed = rep.attempted
        rep.problems.append(
            f"filtrations child exit code {child.code}: {child.stderr.decode(errors='replace')[-500:]}"
        )
        return rep
    results = json.loads(lines[0])
    rep.results = results
    rep.output_bytes = len(lines[0]) + 1
    walls, cpus = json.loads(lines[1]), json.loads(lines[2])
    rep.units = {i: (w / 1e9, c / 1e9) for i, w, c in zip(order, walls, cpus)}
    rep.load = dict(zip(order, json.loads(lines[3])))
    wrong = [k for k, (got, want) in enumerate(zip(results, expected)) if got != want]
    rep.failed = len(wrong) + abs(len(results) - len(expected))
    if rep.failed or pool.digest(results) != pool.digest(expected):
        rep.problems.append(
            f"filtrations: {rep.failed} results differ from reference, first at call "
            f"{wrong[:1]} (case {run_cases[wrong[0]] if wrong else None})"
        )
    if traced:
        rep.traces.append(child.trace())
    return rep


def run_rep(workload, seed, refs, traced=False):
    if workload == "filtrations":
        return run_filtrations_rep(seed, refs, traced)
    return run_cli_rep(workload, refs, traced)


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(values, q):
    """The q-quantile by nearest rank; 0.0 when no call completed."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def import_seconds():
    """Seconds a fresh interpreter takes to import quasiflags.cli."""
    child = Child([sys.executable, str(HERE / "child.py"), "import"])
    if child.code != 0:
        raise BenchError("cannot import quasiflags.cli:\n" + child.stderr.decode(errors="replace"))
    return float(child.stdout)


def probe():
    """Timings of the probe loop, run back to back for PROBE_SECONDS."""
    samples = []
    start = time.perf_counter()
    while time.perf_counter() - start < PROBE_SECONDS:
        samples.append(probe_loop())
    return samples


def end_to_end(workload, seed, seconds, refs):
    import_seconds()  # writes the bytecode cache, as any earlier run would have
    # Probes run before the first repetition and after each one; set-up
    # samples are taken just before each repetition, so both see the
    # machine load the repetition sees.
    probes = [probe()]
    setup = []
    reps = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        setup.append([import_seconds() for _ in range(SETUP_PER_REP)])
        reps.append(run_rep(workload, seed, refs))
        probes.append(probe())
        last = time.perf_counter() - rep_start
        if len(reps) >= MIN_REPS and time.perf_counter() - start + last > seconds:
            break
    # The median of the probes on either side of a repetition is the speed
    # the repetition ran at; over PROBE_QUIET_S it is the repetition's
    # slowdown, by which its times are divided.  A unit the child probed
    # around itself (a filtrations call) is divided by its own slowdown.
    around = [probes[k] + probes[k + 1] for k in range(len(reps))]
    slowdown = [statistics.median(p) / PROBE_QUIET_S for p in around]
    units = [u for u in reps[0].units if all(u in r.units for r in reps)]

    def scaled_median(u, field):
        return statistics.median(
            r.units[u][field] / (r.load[u] / PROBE_QUIET_S if u in r.load else f)
            for r, f in zip(reps, slowdown)
        )

    scaled = [(scaled_median(u, 0), scaled_median(u, 1)) for u in units]
    calls_ms = [wall * 1e3 for wall, _ in scaled]
    setup_scaled = [x / f for xs, f in zip(setup, slowdown) for x in xs]
    metrics = {
        "wall_s": math.fsum(wall for wall, _ in scaled),
        "cpu_s": math.fsum(cpu for _, cpu in scaled),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        "output_mb": statistics.median(r.output_bytes / 1e6 for r in reps),
        "call_p50_ms": nearest_rank(calls_ms, 0.50),
        "call_p99_ms": nearest_rank(calls_ms, 0.99),
    }
    beyond = sum(1 for ms in calls_ms if ms > metrics["call_p99_ms"])
    details = {
        "repetitions": len(reps),
        "timed_units": len(scaled),
        "units_beyond_p99": beyond,
        "timings_beyond_p99": beyond * len(reps),
        "slowdown": slowdown,
        "probe_fastest_s": min(min(p) for p in probes),
        "setup_samples": setup,
        "per_repetition": {
            "wall_s": [r.wall for r in reps],
            "cpu_s": [r.cpu for r in reps],
            "peak_rss_mb": [r.rss_mb for r in reps],
        },
    }
    if workload == "filtrations" and reps[0].results:
        order = pool.run_order(seed)
        cases = pool.pool()
        details["properties"] = pool.properties([cases[i] for i in order], reps[0].results)
    return metrics, reps, details


def per_layer_metrics(traced, untraced):
    """PER_LAYER values from a traced repetition (traces summed over processes)."""
    records = {}
    for trace in traced.traces:
        for name, row in trace.items():
            acc = records.setdefault(name, {})
            for field, value in row.items():
                if field == "split_of":
                    acc[field] = value
                elif field == "max_support":
                    acc[field] = max(acc.get(field, 0), value)
                else:
                    acc[field] = acc.get(field, 0) + value
    reps = (traced, untraced)
    out = {}
    for name in PER_LAYER:
        head, _, field = name.rpartition(".")
        if name == "tracing_overhead":
            value = traced.wall / untraced.wall
        elif name == "error_rate":
            value = sum(r.failed for r in reps) / sum(r.attempted for r in reps)
        elif name == "quiverfilt.not_rigid":
            value = records.get("quiverfilt.count_filtrations", {}).get("not_rigid", 0)
        elif field == "checks":
            value = traced.checks.get(head.split(".", 1)[1], 0)
        elif head in LAYERS:
            value = sum(
                r["self_ns"] for n, r in records.items()
                if n.startswith(head + ".") and "split_of" not in r
            ) / 1e9
        else:
            row = records.get(head, {})
            if field in ("self_s", "incl_s"):
                value = row.get(field[:-2] + "_ns", 0) / 1e9
            elif field == "distinct_ratio":
                value = row["distinct"] / row["calls"] if row.get("calls") else 0.0
            else:
                value = row.get(field, 0)
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# environment and entry point


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def load_references():
    src = ROOT / "src" / "quasiflags" / "cli.py"
    if not src.is_file():
        raise BenchError(f"no quasiflags source at {src.parent}")
    return json.loads((HERE / "reference.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args):
    """(result, details) of one benchmark run."""
    refs = load_references()
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": environment()}
    if args.trace:
        untraced = run_rep(args.workload, args.seed, refs)
        traced = run_rep(args.workload, args.seed, refs, traced=True)
        reps = [untraced, traced]
        metrics = per_layer_metrics(traced, untraced)
        units = {name: per_layer_unit(name)[0] for name in PER_LAYER}
        details["wall_s"] = {"untraced": untraced.wall, "traced": traced.wall}
    else:
        metrics, reps, more = end_to_end(args.workload, args.seed, args.seconds, refs)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        details.update(more)
    problems = [p for rep in reps for p in rep.problems]
    details["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, details


def main(argv=None):
    args = parse_args(argv)
    try:
        result, details = run(args)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in details["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
