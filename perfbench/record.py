"""Write perfbench/reference.json from the current quasiflags source.

    python3 perfbench/record.py

Records, for every `verify` process of the CLI workloads, the sha256,
byte size and per-suite check counts of its output, and, for the
filtrations pool, the digest of the cases and the result of each case in
pool order.  Run it only when the output is meant to change; a speed
change must leave reference.json as it is.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from run import CLI_WORKLOADS, Child, pool


def main():
    refs = {"cli": {}}
    for rungs in CLI_WORKLOADS.values():
        for n, degree in rungs:
            child = Child(run.cli_argv(n, degree, traced=False))
            if child.code != 0:
                sys.exit(f"verify --n {n} --degree {degree} exited {child.code}")
            doc = json.loads(child.stdout)
            refs["cli"][f"{n},{degree}"] = {
                "sha256": hashlib.sha256(child.stdout).hexdigest(),
                "bytes": len(child.stdout),
                "checks": {s["suite"]: s["checks"] for s in doc["suites"]},
            }
    cases = pool.pool()
    child = Child(
        [sys.executable, str(run.HERE / "child.py"), "filtrations"],
        stdin=json.dumps(cases).encode(),
    )
    if child.code != 0:
        sys.exit(f"filtrations child exited {child.code}")
    results = json.loads(child.stdout.splitlines()[0])
    refs["filtrations"] = {
        "pool_seed": pool.POOL_SEED,
        "pool_size": pool.POOL_SIZE,
        "cases_sha256": pool.digest(cases),
        "results_sha256": pool.digest(results),
        "properties": pool.properties(cases, results),
        "results": results,
    }
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
