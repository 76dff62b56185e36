"""Every identity check of the package, one runner per CLI suite.

The route modules (cohomology, cells, modchar, quiverfilt) compute one
side each and import no other route; each runner here joins two or
three of them and returns a Report whose entries are exact
integer/polynomial comparisons.  Suite names: genfunc, euler, celldim,
serre, pbw, commute, characters, freeness.

Each runner states the inputs of its identity (shapes, coroot orders,
steps) next to the values it expects; quiverfilt only counts.
"""

from math import factorial, prod
from operator import add
from types import MappingProxyType

from . import cells, cohomology, modchar, quiverfilt
from .kostant import kostant_partitions, list_up_to, listed_profiles
from .reports import CONJECTURE, CONJECTURE_CONSISTENCY, FAIL, PASS, THEOREM, Entry, Report
from .rootdata import (
    coroot_intervals, height, interval_sum, positive_coroots, two_rho, vectors_up_to,
)

PBW_MAX_TOTAL = 4
COMMUTE_ALPHA_CAP = 6


def _sweep(n, alpha_cap, entry):
    """[entry(alpha)] for each alpha with |alpha| <= alpha_cap, in (|alpha|, lex) order."""
    list_up_to(n, alpha_cap)  # one listing walk for the whole sweep
    return [entry(alpha) for alpha in vectors_up_to(n - 1, alpha_cap)]


def run_genfunc(n, degree):
    """Closed-form coefficient of e^{alpha+2rho} = shifted Cousin sum, exactly.

    One entry per alpha with |alpha + 2rho| <= degree.
    """
    rho2 = two_rho(n)
    closed = cohomology.generating_function(n, degree)

    def entry(alpha):
        lhs = closed.coefficient(tuple(map(add, alpha, rho2)))
        rhs = cohomology.shifted_poincare(alpha)
        ok = lhs == rhs
        details = {} if ok else {"closed_form": lhs.to_json(), "cousin_sum": rhs.to_json()}
        return Entry({"alpha": list(alpha)}, PASS if ok else FAIL, THEOREM, details)

    entries = _sweep(n, degree - height(rho2), entry)
    return Report("genfunc", {"n": n, "degree": degree}, entries)


def run_euler(n, degree):
    """Cell count = Poincare polynomial at t=1, per alpha.

    Each cell adds one monomial to cell_dimension_poly, so its value at
    t=1 is the number of cells.
    """

    def entry(alpha):
        ncells = cells.cell_dimension_poly(alpha).eval_at_one()
        euler = cohomology.laumon_poincare(alpha).eval_at_one()
        ok = ncells == euler
        details = {"value": ncells} if ok else {"cells": ncells, "euler": euler}
        return Entry({"alpha": list(alpha)}, PASS if ok else FAIL, THEOREM, details)

    alpha_cap = max(degree - height(two_rho(n)), -1)
    return Report("euler", {"n": n, "alpha_cap": alpha_cap}, _sweep(n, alpha_cap, entry))


def run_celldim(n, degree):
    """sum_cells t^dim = Poincare polynomial, per alpha (CONJECTURE)."""

    def entry(alpha):
        lhs = cells.cell_dimension_poly(alpha)
        rhs = cohomology.laumon_poincare(alpha)
        ok = lhs == rhs
        details = {} if ok else {"cell_sum": lhs.to_json(), "poincare": rhs.to_json()}
        return Entry({"alpha": list(alpha)}, PASS if ok else FAIL, CONJECTURE, details)

    alpha_cap = max(degree - height(two_rho(n)), -1)
    return Report("celldim", {"n": n, "alpha_cap": alpha_cap}, _sweep(n, alpha_cap, entry))


def _serre_entry(i, j, shape_name, rep, expected):
    """One shape's counts over the arrangements (i,i,j), (i,j,i), (j,i,i) of simples."""
    counts = []
    routes = {}
    agree = True
    for label, ty in (("iij", (i, i, j)), ("iji", (i, j, i)), ("jii", (j, i, i))):
        sym, f2, f3 = quiverfilt.filtration_counts(rep, [(k, k) for k in ty])
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


def run_serre(n):
    """Filtration-count identities behind the Serre relation, all adjacent pairs."""
    entries = []
    for i in range(1, n):
        for j in (i - 1, i + 1):
            if not 1 <= j <= n - 1:
                continue
            # three simples at three distinct points: O_x[j] + O_y[i] + O_z[i]
            split = quiverfilt.TorsionRep.of(n, [((j, j), "x"), ((i, i), "y"), ((i, i), "z")])
            entries.append(_serre_entry(i, j, "three_points", split, (2, 2, 2)))
            # the interval module of dimension i+j at one point x, plus
            # O_y[i].  The interval has its head at min(i,j): peeling the
            # head first is forced, which mirrors the count vector when
            # j sits above i.
            ext = quiverfilt.TorsionRep.of(n, [((min(i, j), max(i, j)), "x"), ((i, i), "y")])
            expected = (2, 1, 0) if j == i - 1 else (0, 1, 2)
            entries.append(_serre_entry(i, j, "two_points", ext, expected))
    return Report(name="serre", params={"n": n}, entries=entries)


def run_commute(n):
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
                sym, f2, f3 = quiverfilt.filtration_counts(rep, [(k, k) for k in ty])
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
    for alpha in vectors_up_to(n - 1, COMMUTE_ALPHA_CAP):
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
    params = {"n": n, "alpha_cap": COMMUTE_ALPHA_CAP}
    return Report(name="commute", params=params, entries=entries)


def run_pbw(n):
    """Divided-power multiplicities over two coroot orders.

    For each exponent vector c: the matching partition, one summand per
    point, counts prod c_k! filtrations of type c, every other partition
    of the same weight counts zero.  A case passes when all three
    filtration routes give the expected count.
    """
    entries = []
    listed = {}  # per weight, not per exponent vector: one walk, each partition's rep
    canonical = coroot_intervals(n)  # sorted by (q, p)
    # a second order with the same head-first property: sorted by (p, q)
    by_upper_end = sorted(canonical, key=lambda iv: (iv[1], iv[0]))
    for order_name, order in (("canonical", canonical), ("by_upper_end", by_upper_end)):
        for c in vectors_up_to(len(order), PBW_MAX_TOTAL):
            # c_k copies of the k-th coroot, in order: the type c prescribes
            steps = [theta for m, theta in zip(c, order) for _ in range(m)]
            gamma = interval_sum(n, steps)
            # the partition of the steps themselves is the diagonal;
            # kappa.intervals() is sorted, so == compares multisets
            want = sorted(steps)
            diagonal = prod(factorial(m) for m in c)
            checked = []
            ok = True
            if gamma not in listed:
                listed[gamma] = [
                    (ivs, quiverfilt.TorsionRep.of(n, [(iv, k) for k, iv in enumerate(ivs)]))
                    for ivs in (kappa.intervals() for kappa in kostant_partitions(gamma))
                ]
            for intervals, rep in listed[gamma]:
                expected = diagonal if intervals == want else 0
                # a pbw rep has total dimension |gamma|: the cap admits it
                sym, f2, f3 = quiverfilt.filtration_counts(rep, steps, cap=sum(gamma))
                ok = ok and sym == f2 == f3 == expected
                case = {
                    "partition": [list(iv) for iv in intervals],
                    "expected": expected,
                    "count": f2,
                    "symbolic": sym,
                }
                if f3 != f2:
                    case["f3"] = f3
                checked.append(case)
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
    params = {"n": n, "max_total": PBW_MAX_TOTAL}
    return Report(name="pbw", params=params, entries=entries)


def run_characters(n, degree):
    """Character coefficient = Poincare value at t=1 = genfunc value at q=1."""
    rho2 = two_rho(n)
    char = modchar.module_character(n, degree)
    closed = cohomology.generating_function(n, degree)

    def entry(alpha):
        weight = tuple(map(add, alpha, rho2))
        lhs = char.coefficient(weight).eval_at_one()
        mid = cohomology.laumon_poincare(alpha).eval_at_one()
        rhs = closed.coefficient(weight).eval_at_one()
        details = {"character": lhs, "poincare_at_1": mid, "genfunc_at_1": rhs}
        return Entry({"alpha": list(alpha)}, PASS if lhs == mid == rhs else FAIL, THEOREM, details)

    entries = _sweep(n, degree - height(rho2), entry)
    return Report("characters", {"n": n, "degree": degree}, entries)


def run_freeness(n, degree):
    """Verma coefficient of e^{beta+2rho} = n! #P(beta), per beta.

    #P(beta) is the number of PBW-Kostant monomials of weight beta, read
    from the listing; it is nonnegative, so each entry also checks the
    nonnegativity that freeness needs.  Freeness is conjectural, so the
    entries report in the CONJECTURE-CONSISTENCY category.  The last
    entry divides the Verma series into the character.
    """
    rho2 = two_rho(n)
    verma = modchar.verma_multiplicity_series(n, degree)

    def entry(beta):
        weight = tuple(map(add, beta, rho2))
        coeff = verma.coefficient(weight).eval_at_one()
        kostant = factorial(n) * sum(listed_profiles(beta)[beta].values())
        ok = coeff == kostant
        details = {"verma_multiplicity": coeff}
        if not ok:
            details["n!_kostant_count"] = kostant
        return Entry({"weight": list(weight)}, PASS if ok else FAIL, CONJECTURE_CONSISTENCY, details)

    entries = _sweep(n, degree - height(rho2), entry)
    if entries:  # below |2rho| both series are zero, nothing to refactor
        char = modchar.module_character(n, degree)
        rebuilt = verma
        for theta in positive_coroots(n):
            rebuilt = rebuilt.divide_geometric(theta, 0)
        ok = rebuilt == char
        case = {"identity": "verma_series * prod(1-e^theta)^-1 = character"}
        details = {} if ok else {"rebuilt": rebuilt.to_json(), "character": char.to_json()}
        entries.append(Entry(case, PASS if ok else FAIL, CONJECTURE_CONSISTENCY, details))
    return Report("freeness", {"n": n, "degree": degree}, entries)


# name -> runner(n, degree), in the order `all` runs them; serre, pbw and
# commute have fixed sizes and ignore the degree.  Each entry looks its
# run_<name> up when called, so a rebound module attribute is the one run.
_RUNNERS = MappingProxyType({
    "genfunc": lambda n, degree: run_genfunc(n, degree),
    "euler": lambda n, degree: run_euler(n, degree),
    "celldim": lambda n, degree: run_celldim(n, degree),
    "serre": lambda n, degree: run_serre(n),
    "pbw": lambda n, degree: run_pbw(n),
    "commute": lambda n, degree: run_commute(n),
    "characters": lambda n, degree: run_characters(n, degree),
    "freeness": lambda n, degree: run_freeness(n, degree),
})

SUITE_NAMES = tuple(_RUNNERS)


def run_suites(n, degree, suite="all"):
    """Run one suite or all of them; returns the list of reports."""
    if suite != "all" and suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    selected = SUITE_NAMES if suite == "all" else (suite,)
    return [_RUNNERS[name](n, degree) for name in selected]


def exit_code(reports, strict=False):
    """0 all good; 1 theorem failure; 3 conjecture-only failure (1 if strict)."""
    theorem_bad = any(r.theorem_failures() for r in reports)
    conjecture_bad = any(r.conjecture_failures() for r in reports)
    if theorem_bad:
        return 1
    if conjecture_bad:
        return 1 if strict else 3
    return 0
