"""Drivers for the identity verification suites exposed by the CLI.

Each suite returns a Report whose entries are exact integer/polynomial
comparisons.  Suite names: genfunc, euler, celldim, serre, pbw, commute,
characters, freeness.
"""

from __future__ import annotations

from math import factorial

from . import cells, cohomology, modchar, quiverfilt
from .kostant import kostant_partitions
from .reports import FAIL, PASS, THEOREM, Entry, Report
from .rootdata import height, two_rho, vectors_up_to

SUITE_NAMES = (
    "genfunc",
    "euler",
    "celldim",
    "serre",
    "pbw",
    "commute",
    "characters",
    "freeness",
)

PBW_MAX_TOTAL = 4


def _alpha_cap(n, degree):
    return max(degree - height(two_rho(n)), -1)


def run_genfunc(n, degree, cap=12):
    return cohomology.verify_generating_function(n, degree, cap=cap)


def run_euler(n, degree=None, alpha_cap=None, cap=12):
    if alpha_cap is None:
        alpha_cap = _alpha_cap(n, degree)
    entries = []
    for alpha in vectors_up_to(n - 1, alpha_cap):
        entries.extend(cells.euler_check(n, alpha, cap=max(cap, sum(alpha))).entries)
    return Report(
        name="euler", params={"n": n, "alpha_cap": alpha_cap}, entries=entries
    )


def run_celldim(n, degree=None, alpha_cap=None, cap=12):
    if alpha_cap is None:
        alpha_cap = _alpha_cap(n, degree)
    entries = []
    for alpha in vectors_up_to(n - 1, alpha_cap):
        entries.extend(
            cells.cell_dimension_conjecture_check(
                n, alpha, cap=max(cap, sum(alpha))
            ).entries
        )
    return Report(
        name="celldim", params={"n": n, "alpha_cap": alpha_cap}, entries=entries
    )


def _three_route_counts(rep, steps, cap):
    f2 = quiverfilt.count_filtrations_bruteforce(rep, steps, 2)
    f3 = quiverfilt.count_filtrations_bruteforce(rep, steps, 3)
    sym = quiverfilt.count_filtrations_symbolic(rep, steps)
    return sym, f2, f3


def _serre_entry(n, i, j, shape_name, rep, expected, cap=8):
    counts = []
    routes = {}
    agree = True
    for label, ty in (
        ("iij", (i, i, j)),
        ("iji", (i, j, i)),
        ("jii", (j, i, i)),
    ):
        steps = [quiverfilt.simple_step(k) for k in ty]
        sym, f2, f3 = _three_route_counts(rep, steps, cap)
        routes[label] = {"symbolic": sym, "f2": f2, "f3": f3}
        if not (sym == f2 == f3):
            agree = False
        counts.append(f2)
    alternating = counts[0] - 2 * counts[1] + counts[2]
    ok = agree and tuple(counts) == expected and alternating == 0
    return Entry(
        case={"i": i, "j": j, "shape": shape_name},
        status=PASS if ok else FAIL,
        category=THEOREM,
        details={
            "counts": counts,
            "expected": list(expected),
            "alternating_sum": alternating,
            "routes": routes,
        },
    )


def run_serre(n, cap=8, **_):
    """Filtration-count identities behind the Serre relation, all adjacent pairs."""
    entries = []
    for i in range(1, n):
        for j in (i - 1, i + 1):
            if not 1 <= j <= n - 1:
                continue
            split = quiverfilt.serre_split_shape(n, i, j)
            entries.append(_serre_entry(n, i, j, "three_points", split, (2, 2, 2), cap))
            ext = quiverfilt.serre_extension_shape(n, i, j)
            # The interval summand has its head at min(i,j): peeling the
            # head first is forced, which mirrors the count vector when
            # j sits above i.
            expected = (2, 1, 0) if j == i - 1 else (0, 1, 2)
            entries.append(_serre_entry(n, i, j, "two_points", ext, expected, cap))
    return Report(name="serre", params={"n": n}, entries=entries)


def run_commute(n, alpha_cap=6, cap=8, **_):
    """Commutation identities: far-apart pairs and the [e_i, f_i] scalar.

    For |i-j| > 1 the two filtration orders on a two-point configuration
    count the same chains; the commutator constant on each weight space
    must match the raw Cartan-matrix computation.
    """
    entries = []
    for i in range(1, n):
        for j in range(i + 2, n):
            rep = quiverfilt.TorsionRep.of(n, [((i, i), "x"), ((j, j), "y")])
            results = {}
            ok = True
            for label, ty in (("ij", (i, j)), ("ji", (j, i))):
                steps = [quiverfilt.simple_step(k) for k in ty]
                sym, f2, f3 = _three_route_counts(rep, steps, cap)
                results[label] = {"symbolic": sym, "f2": f2, "f3": f3}
                if not (sym == f2 == f3 == 1):
                    ok = False
            entries.append(
                Entry(
                    case={"check": "far_pair", "i": i, "j": j},
                    status=PASS if ok else FAIL,
                    category=THEOREM,
                    details=results,
                )
            )
    rho2 = two_rho(n)
    # independent route: the explicit Cartan matrix of type A_{n-1}
    cartan = [
        [2 if r == c else (-1 if abs(r - c) == 1 else 0) for c in range(n - 1)]
        for r in range(n - 1)
    ]
    for alpha in vectors_up_to(n - 1, alpha_cap):
        coords = tuple(a + r for a, r in zip(alpha, rho2))
        for i in range(1, n):
            got = quiverfilt.commutator_constant(i, alpha)
            want = sum(cartan[i - 1][c] * coords[c] for c in range(n - 1))
            entries.append(
                Entry(
                    case={"check": "commutator", "i": i, "alpha": list(alpha)},
                    status=PASS if got == want else FAIL,
                    category=THEOREM,
                    details={"value": got},
                )
            )
    return Report(
        name="commute", params={"n": n, "alpha_cap": alpha_cap}, entries=entries
    )


def _label_partition(n, intervals):
    return quiverfilt.TorsionRep.of(
        n, [(iv, f"p{k}") for k, iv in enumerate(intervals)]
    )


def run_pbw(n, max_total=PBW_MAX_TOTAL, cap=12, **_):
    """Divided-power multiplicities over two coroot orders.

    For each exponent vector c: the matching labelled partition counts
    prod c_k! filtrations of type c, every other labelled partition of
    the same weight counts zero.
    """
    entries = []
    orders = (
        ("canonical", quiverfilt.canonical_coroot_order(n)),
        ("by_upper_end", quiverfilt.alternative_coroot_order(n)),
    )
    for order_name, order in orders:
        for c in vectors_up_to(len(order), max_total):
            gamma = [0] * (n - 1)
            for mult, (q, p) in zip(c, order):
                for v in range(q, p + 1):
                    gamma[v - 1] += mult
            gamma = tuple(gamma)
            dim_cap = max(cap, sum(gamma))
            checked = []
            ok = True
            for kappa in kostant_partitions(gamma, cap=max(12, sum(gamma))):
                rep = _label_partition(n, kappa.intervals())
                expected = quiverfilt.pbw_expected(rep, c, order=order)
                got = quiverfilt.pbw_multiplicity(rep, c, order=order, cap=dim_cap)
                sym = quiverfilt.count_filtrations_symbolic(
                    rep, quiverfilt.pbw_steps(c, order)
                )
                if got != expected or sym != got:
                    ok = False
                checked.append(
                    {
                        "partition": [list(iv) for iv in kappa.intervals()],
                        "expected": expected,
                        "count": got,
                        "symbolic": sym,
                    }
                )
            diagonal = prod_factorials(c)
            entries.append(
                Entry(
                    case={"order": order_name, "exponents": list(c)},
                    status=PASS if ok else FAIL,
                    category=THEOREM,
                    details={
                        "weight": list(gamma),
                        "diagonal": diagonal,
                        "cases": checked,
                    },
                )
            )
    return Report(name="pbw", params={"n": n, "max_total": max_total}, entries=entries)


def prod_factorials(c):
    out = 1
    for k in c:
        out *= factorial(k)
    return out


def run_characters(n, degree, cap=12, **_):
    return modchar.weight_space_check(n, degree)


def run_freeness(n, degree, cap=12, **_):
    return modchar.freeness_consistency_check(n, degree)


def run_suites(n, degree, suite="all", cap=12, pbw_max_total=PBW_MAX_TOTAL):
    """Run one suite or all of them; returns the list of reports."""
    if suite != "all" and suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    selected = SUITE_NAMES if suite == "all" else (suite,)
    reports = []
    for name in selected:
        if name == "genfunc":
            reports.append(run_genfunc(n, degree, cap=cap))
        elif name == "euler":
            reports.append(run_euler(n, degree=degree, cap=cap))
        elif name == "celldim":
            reports.append(run_celldim(n, degree=degree, cap=cap))
        elif name == "serre":
            reports.append(run_serre(n))
        elif name == "pbw":
            reports.append(run_pbw(n, max_total=pbw_max_total, cap=cap))
        elif name == "commute":
            reports.append(run_commute(n))
        elif name == "characters":
            reports.append(run_characters(n, degree))
        elif name == "freeness":
            reports.append(run_freeness(n, degree))
    return reports


def exit_code(reports, strict=False):
    """0 all good; 1 theorem failure; 3 conjecture-only failure (1 if strict)."""
    theorem_bad = any(r.theorem_failures() for r in reports)
    conjecture_bad = any(r.conjecture_failures() for r in reports)
    if theorem_bad:
        return 1
    if conjecture_bad:
        return 1 if strict else 3
    return 0
