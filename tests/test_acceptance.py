"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints one `ACCEPTANCE <k> ...: PASS|FAIL` line (run pytest
with -s to see them interleaved; they also appear in captured output).
"""

import json
import subprocess
import sys
import time

import pytest

from quasiflags.charseries import LaurentPoly
from quasiflags.cohomology import (
    generating_function,
    laumon_poincare,
    shifted_poincare,
)
from quasiflags.modchar import module_character
from quasiflags.quiverfilt import (
    commutator_constant,
    count_filtrations,
    count_filtrations_bruteforce,
    count_filtrations_symbolic,
    filtration_counts,
    TorsionRep,
)
from quasiflags.reports import CONJECTURE, CONJECTURE_CONSISTENCY
from quasiflags.rootdata import coroot_intervals, dim_flag, height, two_rho, vectors_up_to
from quasiflags.suites import (
    run_celldim,
    run_characters,
    run_euler,
    run_freeness,
    run_genfunc,
)

from oracles import negate_exponents, pbw_expected, series_at_one

GENFUNC_RANGES = [(2, 8), (3, 6), (4, 3)]  # (n, max |alpha|)


def record(number, label, ok):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def alphas_up_to(n, cap):
    return list(vectors_up_to(n - 1, cap))


def test_criterion_1_generating_function_identity():
    start = time.monotonic()
    ok = True
    for n, alpha_cap in GENFUNC_RANGES:
        degree = height(two_rho(n)) + alpha_cap
        report = run_genfunc(n, degree)
        expected_checks = len(alphas_up_to(n, alpha_cap))
        ok = ok and report.passed() and len(report.entries) == expected_checks
    elapsed = time.monotonic() - start
    record(1, f"generating-function identity ({elapsed:.1f}s)", ok and elapsed < 30)


def test_criterion_2_known_small_spaces():
    pn = lambda d: LaurentPoly.t_poly({k: 1 for k in range(d + 1)})
    ok = (
        laumon_poincare((0,)) == pn(1)
        and laumon_poincare((1,)) == pn(3)
        and laumon_poincare((2,)) == pn(5)
    )
    record(2, "known projective spaces P^1, P^3, P^5", ok)


def test_criterion_3_palindromicity_and_parity():
    ok = True
    for n, alpha_cap in GENFUNC_RANGES:
        parity = dim_flag(n) % 2
        for alpha in alphas_up_to(n, alpha_cap):
            poly = shifted_poincare(alpha)
            ok = ok and poly == negate_exponents(poly)
            ok = ok and {e % 2 for e in poly.terms} == {parity}
    record(3, "palindromicity and single-parity support", ok)


def test_criterion_4_cell_euler_identity():
    ok = True
    for n in (2, 3, 4):
        report = run_euler(n, height(two_rho(n)) + 5)
        ok = ok and report.passed()
        ok = ok and len(report.entries) == len(alphas_up_to(n, 5))
    record(4, "cell count = Euler characteristic (n<=4, |alpha|<=5)", ok)


def test_criterion_5_cell_dimension_conjecture():
    ok = True
    for n in (2, 3):
        report = run_celldim(n, height(two_rho(n)) + 5)
        ok = ok and all(e.category == CONJECTURE for e in report.entries)
        ok = ok and report.passed()
        ok = ok and len(report.entries) == len(alphas_up_to(n, 5))
    record(5, "conjectured cell-dimension statistic (CONJECTURE)", ok)


def test_criterion_6_serre_and_commuting_relations():
    ok = True
    for n in (3, 4, 5):
        for i in range(1, n):
            for j in (i - 1, i + 1):
                if not 1 <= j <= n - 1:
                    continue
                # three simples at three points, and the interval of
                # dimension i+j at one point beside a simple at another
                split = TorsionRep.of(n, [((j, j), "x"), ((i, i), "y"), ((i, i), "z")])
                ext = TorsionRep.of(n, [((min(i, j), max(i, j)), "x"), ((i, i), "y")])
                types = ((i, i, j), (i, j, i), (j, i, i))
                arrangements = [[(k, k) for k in ty] for ty in types]
                counts_split = tuple(count_filtrations(split, s) for s in arrangements)
                counts_ext = tuple(count_filtrations(ext, s) for s in arrangements)
                ok = ok and counts_split == (2, 2, 2)
                expected_ext = (2, 1, 0) if j == i - 1 else (0, 1, 2)
                ok = ok and counts_ext == expected_ext
                for rep in (split, ext):
                    for steps in arrangements:
                        sym = count_filtrations_symbolic(rep, steps)
                        f2 = count_filtrations_bruteforce(rep, steps, 2)
                        f3 = count_filtrations_bruteforce(rep, steps, 3)
                        ok = ok and sym == f2 == f3
                ok = ok and counts_split[0] - 2 * counts_split[1] + counts_split[2] == 0
                ok = ok and counts_ext[0] - 2 * counts_ext[1] + counts_ext[2] == 0
        # far-commuting pairs
        for i in range(1, n):
            for j in range(i + 2, n):
                rep = TorsionRep.of(n, [((i, i), "x"), ((j, j), "y")])
                for steps in ([(i, i), (j, j)], [(j, j), (i, i)]):
                    sym = count_filtrations_symbolic(rep, steps)
                    f2 = count_filtrations_bruteforce(rep, steps, 2)
                    f3 = count_filtrations_bruteforce(rep, steps, 3)
                    ok = ok and sym == f2 == f3 == 1
    record(6, "Serre/commuting multiplicities with dual-route agreement", ok)


def test_criterion_7_pbw_divided_power_multiplicities():
    from quasiflags.kostant import kostant_partitions

    start = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        order = coroot_intervals(n)
        for c in vectors_up_to(len(order), 4):
            gamma = [0] * (n - 1)
            for mult, (q, p) in zip(c, order):
                for v in range(q, p + 1):
                    gamma[v - 1] += mult
            for kappa in kostant_partitions(tuple(gamma)):
                rep = TorsionRep.of(
                    n, [(iv, f"p{k}") for k, iv in enumerate(kappa.intervals())]
                )
                # count_filtrations' decision at a dimension cap of 12: F_2,
                # F_3 and the symbolic count agree on the expected count
                steps = [theta for mult, theta in zip(c, order) for _ in range(mult)]
                sym, f2, f3 = filtration_counts(rep, steps, cap=12)
                ok = ok and sym == f2 == f3 == pbw_expected(rep, c, order=order)
    elapsed = time.monotonic() - start
    record(7, f"PBW divided-power multiplicities ({elapsed:.1f}s)", ok and elapsed < 60)


def test_criterion_8_commutator_constant():
    ok = True
    for n in (2, 3, 4, 5):
        cartan = [
            [2 if r == c else (-1 if abs(r - c) == 1 else 0) for c in range(n - 1)]
            for r in range(n - 1)
        ]
        rho2 = two_rho(n)
        for alpha in alphas_up_to(n, 6):
            coords = tuple(a + r for a, r in zip(alpha, rho2))
            for i in range(1, n):
                want = sum(cartan[i - 1][k] * coords[k] for k in range(n - 1))
                ok = ok and commutator_constant(i, alpha) == want
    record(8, "commutator constant <i', alpha+2rho> (n<=5, |alpha|<=6)", ok)


def test_criterion_9_character_identities():
    ok = True
    for n, degree in [(2, 8), (3, 8), (4, 12)]:
        report = run_characters(n, degree)
        ok = ok and report.passed() and report.entries
    # graded-to-ungraded consistency on the full series
    for n, degree in [(2, 8), (3, 8)]:
        char = module_character(n, degree)
        series = generating_function(n, degree)
        ok = ok and series_at_one(series) == {
            a: char.coefficient(a).terms.get(0, 0) for a in char.support()
        }
    for n, degree in [(2, 10), (3, 8), (4, 7), (4, 12)]:
        report = run_freeness(n, degree)
        ok = ok and report.passed()
        ok = ok and all(
            e.category == CONJECTURE_CONSISTENCY for e in report.entries
        )
    record(9, "character identities and freeness consistency", ok)


def test_criterion_10_determinism():
    argv = [
        sys.executable,
        "-m",
        "quasiflags.cli",
        "verify",
        "--n",
        "2",
        "--degree",
        "9",
        "--suite",
        "all",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout
    )
    doc = json.loads(first.stdout)
    ok = ok and doc["summary"]["status"] == "PASS"
    record(10, "verify --suite all is byte-identical across runs", bool(ok))
