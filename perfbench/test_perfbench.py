"""Self-tests of the benchmark (standard library only).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They run small inputs only and check no timing.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pool  # noqa: E402
import run  # noqa: E402

SMALL_CLI = ["verify", "--n", "3", "--degree", "10", "--suite", "all"]
TIMING_FIELDS = ("self_ns", "incl_ns")


def counts_only(trace):
    return {
        name: {k: v for k, v in row.items() if k not in TIMING_FIELDS}
        for name, row in trace.items()
    }


def traced_cli(argv):
    child = run.Child(
        [sys.executable, str(HERE / "child.py"), "cli", "--trace", "--"] + argv, traced=True
    )
    assert child.code == 0, child.stderr
    return child.stdout, child.trace()


def traced_filtrations(cases):
    child = run.Child(
        [sys.executable, str(HERE / "child.py"), "filtrations", "--trace"],
        stdin=json.dumps(cases).encode(),
        traced=True,
    )
    assert child.code == 0, child.stderr
    return json.loads(child.stdout.splitlines()[0]), child.trace()


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        # ladder runs by hand only; see README.md.
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], [w for w in run.WORKLOADS if w != "ladder"]
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            [(name, unit, better) for name, (unit, better) in run.END_TO_END.items()],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, *run.per_layer_unit(name)) for name in run.PER_LAYER],
        )
        self.assertEqual(spec["paths"], [HERE.name])


class PoolTest(unittest.TestCase):
    def test_generator_is_seeded(self):
        self.assertEqual(pool.generate(7, 50), pool.generate(7, 50))
        self.assertNotEqual(pool.generate(7, 50), pool.generate(8, 50))
        self.assertEqual(pool.run_order(3), pool.run_order(3))
        self.assertEqual(sorted(pool.run_order(3)), list(range(pool.POOL_SIZE)))

    def test_stated_properties_hold(self):
        for n, summands, steps in pool.pool():
            self.assertIn(n, (3, 4, 5))
            dim = sum(p - q + 1 for q, p, _ in summands)
            self.assertIn(dim, (7, 8))
            self.assertEqual(dim, sum(p - q + 1 for q, p in steps))
            labels = [label for _, _, label in summands]
            self.assertLessEqual(max(labels.count(x) for x in labels), 2)

    def test_reference_matches_pool(self):
        refs = json.loads((HERE / "reference.json").read_text())["filtrations"]
        self.assertEqual(refs["cases_sha256"], pool.digest(pool.pool()))
        self.assertEqual(len(refs["results"]), pool.POOL_SIZE)


class TracerTest(unittest.TestCase):
    def test_traced_cli_output_is_unchanged(self):
        plain = run.Child([sys.executable, "-m", "quasiflags.cli"] + SMALL_CLI)
        traced, trace = traced_cli(SMALL_CLI)
        self.assertEqual(plain.code, 0)
        self.assertEqual(hashlib.sha256(traced).hexdigest(), hashlib.sha256(plain.stdout).hexdigest())
        self.assertGreater(trace["kostant.kostant_partitions"]["calls"], 0)
        self.assertGreater(trace["cli.render"]["bytes"], 0)

    def test_traced_counts_repeat_exactly(self):
        first = counts_only(traced_cli(SMALL_CLI)[1])
        second = counts_only(traced_cli(SMALL_CLI)[1])
        self.assertEqual(first, second)

    def test_traced_filtrations_match_reference_and_repeat(self):
        refs = json.loads((HERE / "reference.json").read_text())["filtrations"]["results"]
        cases = pool.pool()
        cheap = [k for k, (n, summands, _) in enumerate(cases) if len(summands) >= 5][:25]
        picked = [cases[k] for k in cheap]
        results, first = traced_filtrations(picked)
        self.assertEqual(results, [refs[k] for k in cheap])
        _, second = traced_filtrations(picked)
        self.assertEqual(counts_only(first), counts_only(second))
        self.assertEqual(first["quiverfilt.count_filtrations"]["calls"], len(picked))
        self.assertEqual(
            first["quiverfilt.count_filtrations"]["not_rigid"], results.count("NOT_RIGID")
        )

    def test_self_time_excludes_wrapped_callees(self):
        import tracer

        t = tracer.Tracer()
        outer, inner = t.record("outer"), t.record("inner")
        t.enter(outer)
        t.enter(inner)
        t.leave(inner)
        t.leave(outer)
        self.assertEqual(outer.incl_ns, outer.self_ns + inner.incl_ns)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_source_tree(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "strata",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
