"""Child-process entry points of the benchmark.

    python3 perfbench/child.py import
        Print the seconds a fresh interpreter takes to import quasiflags.cli.
    python3 perfbench/child.py filtrations [--trace]
        Read cases (see pool.py) as JSON from stdin and time one call of
        quasiflags.quiverfilt.count_filtrations per case.  Stdout gets four
        lines: the results (a count or "NOT_RIGID" per case, in input
        order), the per-call wall times and the per-call CPU times, both in
        nanoseconds, and per call the load probe's time around it in
        seconds (see probe_window).
    python3 perfbench/child.py cli --trace -- ARGS...
        Run the quasiflags CLI with ARGS under the per-layer tracer.

With --trace, the last line of stderr is ``PERFBENCH-TRACE <json>``: the
tracer's per-callable records for this process.  The untraced
end-to-end runs of the CLI workloads do not use this file at all; they
run ``python -m quasiflags.cli`` as users do.

quasiflags is imported from PYTHONPATH, which the benchmark points at
the checkout's src directory.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_MARK = "PERFBENCH-TRACE "

# The load probe: a fixed pure-Python loop whose timing follows how fast
# the machine runs this process at the moment.
PROBE_LOOP = 40000
# filtrations runs a probe window at least this often between its calls.
PROBE_EVERY_S = 0.25
PROBE_WINDOW = 8


def probe_loop():
    """Seconds one run of the probe loop takes."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def probe_window():
    """Median of PROBE_WINDOW probe timings run back to back."""
    samples = sorted(probe_loop() for _ in range(PROBE_WINDOW))
    return (samples[PROBE_WINDOW // 2 - 1] + samples[PROBE_WINDOW // 2]) / 2


def _install_tracer():
    import quasiflags.cli  # noqa: F401  (loads every layer module)
    import tracer

    return tracer.install()


def _emit_trace(trace):
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(trace.snapshot(), sort_keys=True), file=sys.stderr)


def cmd_import():
    start = time.perf_counter()
    import quasiflags.cli  # noqa: F401

    print(repr(time.perf_counter() - start))
    return 0


def cmd_filtrations(traced):
    cases = json.load(sys.stdin)
    trace = _install_tracer() if traced else None
    from quasiflags import quiverfilt

    results, walls, cpus = [], [], []
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    # windows[k] is the probe window run before call starts[k]; each call
    # is credited with the mean of the windows on either side of it.
    windows, starts = [probe_window()], [0]
    last_window = time.perf_counter()
    for n, summands, steps in cases:
        if time.perf_counter() - last_window >= PROBE_EVERY_S:
            windows.append(probe_window())
            starts.append(len(walls))
            last_window = time.perf_counter()
        rep = quiverfilt.TorsionRep.of(n, [((q, p), label) for q, p, label in summands])
        steps = [tuple(s) for s in steps]
        start, cpu_start = clock(), cpu_clock()
        result = quiverfilt.count_filtrations(rep, steps)
        walls.append(clock() - start)
        cpus.append(cpu_clock() - cpu_start)
        results.append(result if quiverfilt.is_rigid(result) else "NOT_RIGID")
    print(json.dumps(results, separators=(",", ":")))
    print(json.dumps(walls, separators=(",", ":")))
    print(json.dumps(cpus, separators=(",", ":")))
    windows.append(probe_window())
    starts.append(len(walls))
    load = []
    for k in range(len(starts) - 1):
        load += [(windows[k] + windows[k + 1]) / 2] * (starts[k + 1] - starts[k])
    print(json.dumps(load, separators=(",", ":")))
    if trace is not None:
        _emit_trace(trace)
    return 0


def cmd_cli(argv):
    trace = _install_tracer()
    from quasiflags import cli

    code = cli.main(argv)
    _emit_trace(trace)
    return code


def main(argv):
    if argv[:1] == ["import"]:
        return cmd_import()
    if argv[:1] == ["filtrations"]:
        return cmd_filtrations("--trace" in argv[1:])
    if argv[:3] == ["cli", "--trace", "--"]:
        return cmd_cli(argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
