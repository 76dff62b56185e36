"""Seeded inputs of the `filtrations` workload.

`generate(seed, count)` draws (TorsionRep, steps) cases with these
properties, stated in README.md and measured on every run by
`properties()`:

* n is drawn from {3, 4, 5} and the total dimension is 7 or 8, within
  the default brute-force cap of 8;
* about half the cases put two summands at one point (2-dimensional
  local spaces, which is where NOT_RIGID results come from); no point
  carries more than two summands;
* the filtration type is a shuffle of the summands' own intervals
  (PBW-like) or a shuffle of the simple steps they contain (Serre-like).

A case is the JSON-ready list ``[n, [[q, p, label], ...], [[q, p], ...]]``.

The cases of a run are a fixed pool, ``generate(POOL_SEED, POOL_SIZE)``,
in an order drawn from the run's ``--seed``.  Every seed therefore does
the same work, so the run-to-run spread measures the program rather than
the sample, and every result can be checked against the per-case
references in reference.json.
"""

from __future__ import annotations

import hashlib
import json
import random

POOL_SEED = 9702010
POOL_SIZE = 300


def _case(rng):
    n = rng.choice((3, 4, 5))
    left = rng.choice((7, 8))
    intervals = []
    while left:
        q = rng.randint(1, n - 1)
        p = rng.randint(q, min(n - 1, q + left - 1))
        intervals.append((q, p))
        left -= p - q + 1
    order = list(range(len(intervals)))
    rng.shuffle(order)
    labels = [None] * len(intervals)
    point = 0
    if len(intervals) >= 2 and rng.random() < 0.5:
        pairs = rng.randint(1, min(2, len(intervals) // 2))
        for k in range(pairs):
            labels[order[2 * k]] = labels[order[2 * k + 1]] = f"x{point}"
            point += 1
        order = order[2 * pairs:]
    for k in order:
        labels[k] = f"x{point}"
        point += 1
    if rng.random() < 0.5:
        steps = list(intervals)
    else:
        steps = [(v, v) for q, p in intervals for v in range(q, p + 1)]
    rng.shuffle(steps)
    summands = [[q, p, label] for (q, p), label in zip(intervals, labels)]
    return [n, summands, [list(s) for s in steps]]


def generate(seed, count):
    """`count` cases drawn from `seed`; the same seed gives the same cases."""
    rng = random.Random(seed)
    return [_case(rng) for _ in range(count)]


def pool():
    return generate(POOL_SEED, POOL_SIZE)


def run_order(seed):
    """The pool indices in the order a run with this seed calls them."""
    order = list(range(POOL_SIZE))
    random.Random(seed).shuffle(order)
    return order


def digest(values):
    """sha256 of a JSON list, used for both cases and results."""
    return hashlib.sha256(json.dumps(values, separators=(",", ":")).encode()).hexdigest()


def canonical(case):
    """(rep, steps) up to the order of summands, to count repeated inputs."""
    n, summands, steps = case
    return n, tuple(sorted(map(tuple, summands))), tuple(map(tuple, steps))


def properties(cases, results):
    """Measured shares of the workload properties a cache or memo claim cites."""
    count = len(cases)
    shared = sum(
        1 for _, summands, _ in cases if len({s[2] for s in summands}) < len(summands)
    )
    return {
        "cases": count,
        "shared_point_share": shared / count,
        "not_rigid_share": sum(1 for r in results if r == "NOT_RIGID") / count,
        "repeated_input_share": 1 - len({canonical(c) for c in cases}) / count,
    }
