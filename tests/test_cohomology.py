"""Stratum polynomials, the Cousin sum, and the generating-function identity."""

from itertools import product
from math import factorial

import pytest
from oracles import negate_exponents, stratum_poincare_compact, truncate

from quasiflags import cohomology, kostant
from quasiflags.charseries import CharSeries, LaurentPoly
from quasiflags.cohomology import (
    _cousin_sums,
    _downset_steps,
    _pack,
    _unpack,
    generating_function,
    laumon_poincare,
    shifted_poincare,
)
from quasiflags.kostant import (
    KostantPartition,
    kostant_partitions,
    list_up_to,
    listed_profiles,
)
from quasiflags.modchar import _character_series
from quasiflags.rootdata import (
    dim_flag,
    height,
    iter_subvectors,
    two_rho,
    vectors_up_to,
    weyl_poincare,
)
from quasiflags.suites import run_freeness, run_genfunc


def projective_space_poincare(d):
    """Oracle: P^d has one cohomology class in each even degree 0..2d."""
    return LaurentPoly.t_poly({k: 1 for k in range(d + 1)})


def test_stratum_examples_n2():
    empty = KostantPartition(2, (0,))
    one = KostantPartition(2, (1,))
    assert stratum_poincare_compact(2, (1,), empty) == LaurentPoly.t_poly({3: 1, 2: 1})
    assert stratum_poincare_compact(2, (1,), one) == LaurentPoly.t_poly({1: 1, 0: 1})
    # alpha = 0: the flag variety P^1 itself
    assert stratum_poincare_compact(2, (0,), empty) == LaurentPoly.t_poly({1: 1, 0: 1})


def test_stratum_rejects_overflowing_defect():
    big = KostantPartition(2, (2,))
    with pytest.raises(ValueError):
        stratum_poincare_compact(2, (1,), big)


def test_stratum_exponent_range_and_parity():
    for alpha in [(2,), (1, 1), (2, 1)]:
        n = len(alpha) + 1
        top = dim_flag(n) + 2 * height(alpha)
        for gamma in iter_subvectors(alpha):
            for kappa in kostant_partitions(gamma):
                poly = stratum_poincare_compact(n, alpha, kappa)
                assert all(e % 2 == 0 for e in poly.terms)
                assert min(poly.terms) >= 0
                assert max(poly.terms) <= 2 * top


def test_laumon_small_projective_spaces():
    assert laumon_poincare((0,)) == projective_space_poincare(1)
    assert laumon_poincare((1,)) == projective_space_poincare(3)
    assert laumon_poincare((2,)) == projective_space_poincare(5)


def test_laumon_rank_one_is_always_projective_space():
    # for n=2 every stratum contributes two consecutive powers, so the
    # space of degree a has the Betti numbers of P^{2a+1}
    for a in range(9):
        assert laumon_poincare((a,)) == projective_space_poincare(2 * a + 1)


def test_laumon_n3_example():
    assert laumon_poincare((1, 0)) == LaurentPoly.t_poly(
        {0: 1, 1: 2, 2: 3, 3: 3, 4: 2, 5: 1}
    )


def by_stratum(alpha):
    """Oracle: the Cousin sum taken one defect stratum at a time."""
    n = len(alpha) + 1
    total = LaurentPoly()
    for gamma in iter_subvectors(alpha):
        for kappa in kostant_partitions(gamma):
            total = total + stratum_poincare_compact(n, alpha, kappa)
    return total


@pytest.mark.parametrize("n,alpha_cap", [(2, 10), (3, 7), (4, 5)])
def test_grouped_cousin_sum_matches_stratum_by_stratum(n, alpha_cap):
    for alpha in vectors_up_to(n - 1, alpha_cap):
        assert laumon_poincare(alpha) == by_stratum(alpha), alpha


def test_one_call_fills_the_cousin_table_over_the_listed_downset(cold_tables):
    alpha = (2, 1, 2)
    n = len(alpha) + 1
    poly = laumon_poincare(alpha)
    # one polynomial per weight of D, which a cold table walks as the box below alpha
    table = cohomology._COUSIN[n]
    assert sorted(table) == sorted(kostant._LISTED[n]) == list(iter_subvectors(alpha))
    assert table[alpha] is poly
    for beta, value in table.items():
        assert type(value) is LaurentPoly, beta
        assert value == by_stratum(beta), beta
    # a wider D adds its new weights and keeps the polynomials the table holds
    kept = dict(table)
    list_up_to(n, 6)
    laumon_poincare((6, 0, 0))
    assert cohomology._COUSIN[n] is table
    assert sorted(table) == sorted(kostant._LISTED[n]) == sorted(vectors_up_to(n - 1, 6))
    assert all(table[beta] is value for beta, value in kept.items())


def cousin_recurrence(alpha, width):
    """The packed recurrence over the box below alpha: {beta: T(beta) packed at width}."""
    n = len(alpha) + 1
    listed = {beta: listed_profiles(alpha)[beta] for beta in iter_subvectors(alpha)}
    weights = sorted(listed)
    sums = _cousin_sums(listed, weights, _downset_steps(n, weights), width)
    return dict(zip(weights, sums))


def test_cousin_recurrence_needs_its_slot_width():
    alpha = (3, 3, 3)
    n = len(alpha) + 1
    box = list(iter_subvectors(alpha))
    # at t=1 the recurrence counts the pairs of partitions of beta - gamma and gamma
    count = {gamma: len(kostant_partitions(gamma)) for gamma in box}
    at_one = cousin_recurrence(alpha, 0)
    for beta in box:
        pairs = sum(
            count[tuple(b - g for b, g in zip(beta, gamma))] * count[gamma]
            for gamma in iter_subvectors(beta)
        )
        assert at_one[beta] == pairs, beta
    weyl = {e // 2: c for e, c in weyl_poincare(n).terms.items()}

    def polys(width):
        packed_weyl = _pack(weyl, width, dim_flag(n))
        return {
            beta: LaurentPoly.t_poly(_unpack(total * packed_weyl, width))
            for beta, total in cousin_recurrence(alpha, width).items()
        }

    # the proven width: the bit length of the largest Euler characteristic
    proven = polys((factorial(n) * max(at_one.values())).bit_length())
    for beta in box:
        by_stratum = LaurentPoly()
        for gamma in iter_subvectors(beta):
            for kappa in kostant_partitions(gamma):
                by_stratum = by_stratum + stratum_poincare_compact(n, beta, kappa)
        assert proven[beta] == by_stratum, beta
    largest = max(max(poly.terms.values()) for poly in proven.values())
    assert largest >= 4  # so the narrow slot below is still 2 bits wide
    # one bit short of the largest coefficient, that slot carries into the next
    narrow = polys(largest.bit_length() - 1)
    widest = [beta for beta in box if max(proven[beta].terms.values()) == largest]
    assert all(narrow[beta] != proven[beta] for beta in widest)


def test_cousin_sum_shares_no_series_arithmetic(monkeypatch, cold_tables):
    alphas = [alpha for n in (2, 3, 4) for alpha in vectors_up_to(n - 1, 5)]
    # from cold tables: these calls build every table, and rootdata's caches, they read
    expected = {alpha: laumon_poincare(alpha) for alpha in alphas}

    def refuse(*args):
        raise AssertionError("the Cousin sum must not use series arithmetic")

    for name in ("__mul__", "__add__"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    monkeypatch.setattr(CharSeries, "divide_geometric", refuse)
    # an empty per-rank table, so that the recurrence runs again under the refusal
    monkeypatch.setattr(cohomology, "_COUSIN", {})
    for alpha in alphas:
        assert laumon_poincare(alpha) == expected[alpha], alpha
    assert sorted(cohomology._COUSIN) == [2, 3, 4]


def test_closed_form_divides_without_series_products():
    sizes = [(2, 9), (3, 12), (4, 14)]
    closed = {size: generating_function(*size) for size in sizes}
    characters = {(n, d, p): _character_series(n, d, p) for n, d in sizes for p in (1, 2)}
    # the closed form divides in place: the package has no series product
    assert not hasattr(CharSeries, "__mul__")
    for size, series in closed.items():
        assert generating_function.__wrapped__(*size) == series, size
    for key, series in characters.items():
        assert _character_series.__wrapped__(*key) == series, key
    # its factorization check multiplies the Verma series back the same way
    assert run_freeness(3, 12).passed()


def test_laumon_euler_is_weyl_times_partition_convolution():
    # |W| * sum_{gamma <= alpha} #K(gamma) #K(alpha - gamma)
    import math

    for alpha in [(2,), (1, 1), (2, 1), (1, 1, 1)]:
        n = len(alpha) + 1
        conv = 0
        for gamma in iter_subvectors(alpha):
            rest = tuple(a - g for a, g in zip(alpha, gamma))
            conv += len(kostant_partitions(gamma)) * len(kostant_partitions(rest))
        assert laumon_poincare(alpha).eval_at_one() == math.factorial(n) * conv


def test_laumon_monic_ends():
    for alpha in [(0,), (2,), (1, 1), (2, 1)]:
        n = len(alpha) + 1
        poly = laumon_poincare(alpha)
        assert poly.terms.get(0) == 1
        assert poly.terms.get(2 * (dim_flag(n) + 2 * height(alpha))) == 1


def test_shifted_examples():
    assert shifted_poincare((1,)) == LaurentPoly({-3: 1, -1: 1, 1: 1, 3: 1})
    assert shifted_poincare((0,)) == LaurentPoly({-1: 1, 1: 1})
    assert shifted_poincare((2,)) == LaurentPoly(
        {-5: 1, -3: 1, -1: 1, 1: 1, 3: 1, 5: 1}
    )


def test_shifted_palindromic_single_parity():
    for alpha in [(0,), (3,), (1, 1), (2, 1), (1, 0, 1)]:
        n = len(alpha) + 1
        poly = shifted_poincare(alpha)
        assert poly == negate_exponents(poly)
        assert {e % 2 for e in poly.terms} == {dim_flag(n) % 2}


def test_generating_function_n2_coefficients():
    series = generating_function(2, 4)
    assert series.coefficient((2,)) == LaurentPoly({-3: 1, -1: 1, 1: 1, 3: 1})
    assert series.coefficient((1,)) == LaurentPoly({-1: 1, 1: 1})
    assert not series.coefficient((0,))


def brute_genfunc_coefficient(n, weight):
    """Oracle: expand the closed form by enumerating exponent pairs directly.

    The coefficient of e^weight is q^{-dimB} W_n(t) times the sum of
    t^{k_total - m_total} over all decompositions
    weight - 2rho = sum (k_theta + m_theta) theta.  Enumerated summand by
    summand without any series machinery.
    """
    from quasiflags.rootdata import positive_coroots

    target = tuple(w - r for w, r in zip(weight, two_rho(n)))
    if any(c < 0 for c in target):
        return LaurentPoly()
    thetas = positive_coroots(n)
    total = LaurentPoly()

    def rec(idx, remaining, tpow):
        nonlocal total
        if idx == len(thetas):
            if not any(remaining):
                total = total + LaurentPoly.t_poly({tpow: 1})
            return
        theta = thetas[idx]
        covered = [r for r, t in zip(remaining, theta) if t]
        top = min(covered) if covered else 0
        for k in range(top + 1):
            for m in range(top - k + 1):
                rem = [r - (k + m) * t for r, t in zip(remaining, theta)]
                if all(x >= 0 for x in rem):
                    rec(idx + 1, rem, tpow + k - m)

    rec(0, list(target), 0)
    return (total * weyl_poincare(n)).shift(-dim_flag(n))


def test_generating_function_matches_brute_expansion():
    for n, bound in [(2, 6), (3, 7)]:
        series = generating_function(n, bound)
        for weight in product(range(bound + 1), repeat=n - 1):
            if sum(weight) > bound:
                continue
            assert series.coefficient(weight) == brute_genfunc_coefficient(
                n, weight
            ), weight


def test_generating_function_supported_above_two_rho():
    for n in (2, 3):
        rho2 = two_rho(n)
        series = generating_function(n, height(rho2) + 3)
        for alpha in series.support():
            assert all(a >= r for a, r in zip(alpha, rho2))


def test_generating_function_leading_coefficient_is_weyl():
    for n in (2, 3, 4):
        series = generating_function(n, height(two_rho(n)))
        lead = series.coefficient(two_rho(n))
        assert lead == weyl_poincare(n).shift(-dim_flag(n))


def test_generating_function_coefficients_nonnegative():
    series = generating_function(3, 8)
    for alpha in series.support():
        assert all(c > 0 for c in series.coefficient(alpha).terms.values())


def test_generating_function_truncation_coherent():
    full = generating_function(3, 8)
    assert truncate(full, 6) == generating_function(3, 6)


@pytest.mark.parametrize(
    "n,degree,expected_checks",
    [(2, 9, 9), (3, 10, 28), (4, 11, 4), (4, 9, 0)],
)
def test_verify_generating_function_passes(n, degree, expected_checks):
    report = run_genfunc(n, degree)
    assert report.passed()
    assert len(report.entries) == expected_checks


def test_verify_report_is_sorted_by_height_then_lex():
    report = run_genfunc(3, 8)
    cases = [tuple(e.case["alpha"]) for e in report.entries]
    assert cases == sorted(cases, key=lambda a: (sum(a), a))
