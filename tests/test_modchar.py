"""Character identities and the Verma-multiplicity consistency checks."""

from itertools import product

import pytest
from oracles import kostant_count_profile, series_at_one

from quasiflags import modchar
from quasiflags.charseries import CharSeries, LaurentPoly
from quasiflags.cohomology import generating_function, laumon_poincare
from quasiflags.modchar import module_character, verma_multiplicity_series
from quasiflags.reports import CONJECTURE_CONSISTENCY, FAIL, THEOREM
from quasiflags.rootdata import height, positive_coroots, two_rho
from quasiflags.suites import run_characters, run_freeness


def brute_character_coefficient(n, weight):
    """Oracle: n! * #{exponent pairs (k, m) over R+ with sum (k+m)theta = weight - 2rho}.

    Direct expansion of |W| e^{2rho} / prod (1 - e^theta)^2 by counting
    lattice decompositions, independent of the series arithmetic.
    """
    import math

    target = tuple(w - r for w, r in zip(weight, two_rho(n)))
    if any(c < 0 for c in target):
        return 0
    thetas = positive_coroots(n)
    bound = sum(target)
    count = 0

    def rec(idx, remaining):
        nonlocal count
        if idx == len(thetas):
            if not any(remaining):
                count += 1
            return
        theta = thetas[idx]
        h = sum(theta)
        top = min(
            (r // t for r, t in zip(remaining, theta) if t), default=sum(remaining)
        )
        for k in range(top + 1):
            for m in range(top - k + 1):
                rem = [r - (k + m) * t for r, t in zip(remaining, theta)]
                if all(x >= 0 for x in rem):
                    rec(idx + 1, rem)

    rec(0, list(target))
    return math.factorial(n) * count


def test_module_character_n2_linear_growth():
    char = module_character(2, 6)
    for a in range(6):
        assert char.coefficient((a + 1,)).terms.get(0, 0) == 2 * (a + 1)
    assert char.coefficient((0,)).is_zero()


def test_module_character_leading_term_is_weyl_order():
    import math

    for n in (2, 3, 4):
        rho2 = two_rho(n)
        char = module_character(n, height(rho2))
        assert char.coefficient(rho2).terms.get(0, 0) == math.factorial(n)


def test_module_character_matches_brute_expansion():
    for n, bound in [(2, 6), (3, 6)]:
        char = module_character(n, bound)
        for weight in product(range(bound + 1), repeat=n - 1):
            if sum(weight) > bound:
                continue
            assert char.coefficient(weight).terms.get(0, 0) == brute_character_coefficient(
                n, weight
            ), weight


def test_module_character_coefficients_are_plain_integers():
    for series in (module_character(3, 7), verma_multiplicity_series(3, 7)):
        assert series.support()
        for alpha in series.support():
            poly = series.coefficient(alpha)
            assert set(poly.terms) == {0}
            assert poly.terms.get(0, 0) > 0


def test_character_equals_cell_count_identity():
    # coefficient at alpha + 2rho = n! * sum over splits of partition counts
    import math

    from quasiflags.cells import enumerate_cells

    for n, alpha in [(2, (2,)), (3, (1, 0)), (3, (1, 1))]:
        rho2 = two_rho(n)
        weight = tuple(a + r for a, r in zip(alpha, rho2))
        char = module_character(n, sum(weight))
        assert char.coefficient(weight).terms.get(0, 0) == len(enumerate_cells(n, alpha))


def test_weight_space_check_examples():
    report = run_characters(2, 8)
    assert report.passed()
    assert all(e.category == THEOREM for e in report.entries)
    by_alpha = {tuple(e.case["alpha"]): e.details for e in report.entries}
    assert by_alpha[(2,)]["character"] == 6
    assert by_alpha[(0,)]["character"] == 2

    report = run_characters(3, 8)
    assert report.passed()
    by_alpha = {tuple(e.case["alpha"]): e.details for e in report.entries}
    assert by_alpha[(1, 0)]["character"] == 12


def test_generating_function_at_q1_matches_character():
    for n, bound in [(2, 7), (3, 7)]:
        char = module_character(n, bound)
        series = generating_function(n, bound)
        assert series_at_one(series) == {
            alpha: char.coefficient(alpha).terms.get(0, 0) for alpha in char.support()
        }


def test_verma_series_n2_constant_two():
    series = verma_multiplicity_series(2, 8)
    for a in range(8):
        assert series.coefficient((a + 1,)).terms.get(0, 0) == 2
    assert series.coefficient((0,)).is_zero()


def test_verma_series_leading_term():
    import math

    series = verma_multiplicity_series(3, 5)
    assert series.coefficient((2, 2)).terms.get(0, 0) == math.factorial(3)


def test_verma_coefficients_are_scaled_partition_counts():
    # prod (1 - e^theta)^{-1} expands to sum_alpha #K(alpha) e^alpha, so
    # each coefficient must be n! times a Kostant partition count
    import math

    for n, bound in [(2, 8), (3, 8), (4, 12)]:
        series = verma_multiplicity_series(n, bound)
        rho2 = two_rho(n)
        cap = bound - height(rho2)
        for alpha in product(range(cap + 1), repeat=n - 1):
            if sum(alpha) > cap:
                continue
            weight = tuple(a + r for a, r in zip(alpha, rho2))
            assert series.coefficient(weight).terms.get(0, 0) == math.factorial(
                n
            ) * sum(kostant_count_profile(alpha).values())


def test_character_coefficients_are_partition_count_convolutions():
    import math

    def kostant_count(gamma):
        return sum(kostant_count_profile(gamma).values())

    for n, bound in [(2, 8), (3, 8)]:
        char = module_character(n, bound)
        rho2 = two_rho(n)
        cap = bound - height(rho2)
        for alpha in product(range(cap + 1), repeat=n - 1):
            if sum(alpha) > cap:
                continue
            conv = 0
            for gamma in product(*[range(a + 1) for a in alpha]):
                rest = tuple(a - g for a, g in zip(alpha, gamma))
                conv += kostant_count(gamma) * kostant_count(rest)
            weight = tuple(a + r for a, r in zip(alpha, rho2))
            assert char.coefficient(weight).terms.get(0, 0) == math.factorial(n) * conv


@pytest.mark.parametrize("n,bound", [(2, 10), (3, 8), (4, 7), (4, 12)])
def test_freeness_consistency_passes(n, bound):
    report = run_freeness(n, bound)
    assert report.passed()
    assert all(e.category == CONJECTURE_CONSISTENCY for e in report.entries)
    # below |2rho| both series are zero and there is nothing to check
    assert bool(report.entries) == (bound >= height(two_rho(n)))


def test_freeness_nonnegative_and_factorization_details():
    report = run_freeness(2, 6)
    mults = [
        e.details["verma_multiplicity"]
        for e in report.entries
        if "verma_multiplicity" in e.details
    ]
    assert mults and all(m >= 0 for m in mults)
    assert report.entries[-1].case == {
        "identity": "verma_series * prod(1-e^theta)^-1 = character"
    }


def test_freeness_failure_names_the_kostant_count(monkeypatch):
    # at n=3 the coefficient of e^{(1,0)+2rho} is 3! * #P((1, 0)) = 6
    real = verma_multiplicity_series(3, 6)
    wrong = CharSeries(2, 6, {**real.coeffs, (3, 2): LaurentPoly({0: 5})})
    monkeypatch.setattr(modchar, "verma_multiplicity_series", lambda n, bound: wrong)
    report = run_freeness(3, 6)
    failed = [(e.case, e.details) for e in report.entries[:-1] if e.status == FAIL]
    assert failed == [({"weight": [3, 2]}, {"verma_multiplicity": 5, "n!_kostant_count": 6})]


def test_character_identity_with_poincare_values():
    for alpha in [(0,), (1,), (3,), (1, 1)]:
        n = len(alpha) + 1
        rho2 = two_rho(n)
        weight = tuple(a + r for a, r in zip(alpha, rho2))
        char = module_character(n, sum(weight))
        assert char.coefficient(weight).terms.get(0, 0) == laumon_poincare(alpha).eval_at_one()
