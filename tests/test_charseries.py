"""Exact Laurent-polynomial and truncated character-series arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import geometric_inverse, negate_exponents, series_at_one, series_product, truncate

from quasiflags.charseries import CharSeries, LaurentPoly

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)

vectors2 = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
series2 = st.dictionaries(vectors2, polys, max_size=4).map(
    lambda d: CharSeries(2, 6, d)
)


def series_one(bound):
    return CharSeries.monomial(2, bound, (0, 0), LaurentPoly.one())


def series_sum(a, b):
    """Coefficientwise sum, for the ring laws of the oracle product."""
    out = dict(a.coeffs)
    for alpha, poly in b.coeffs.items():
        out[alpha] = out.get(alpha, LaurentPoly.zero()) + poly
    return CharSeries(a.rank, a.bound, out)


def test_poly_basic_examples():
    one, q2 = LaurentPoly.one(), LaurentPoly.t_poly({1: 1})
    assert (one + q2) * (one + q2 * -1) == LaurentPoly.t_poly({0: 1, 2: -1})
    assert negate_exponents(LaurentPoly({3: 1, 1: 1})) == LaurentPoly({-3: 1, -1: 1})
    assert LaurentPoly.t_poly({0: 1, 1: 2, 2: 1}).eval_at_one() == 4


def test_poly_zero_coefficients_dropped():
    assert LaurentPoly({2: 0, 1: 3}).terms == {1: 3}
    assert (LaurentPoly({1: 5}) + LaurentPoly({1: -5})).is_zero()


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_negate_exponents_is_ring_involution(a, b):
    assert negate_exponents(negate_exponents(a)) == a
    assert negate_exponents(a * b) == negate_exponents(a) * negate_exponents(b)
    assert negate_exponents(a + b) == negate_exponents(a) + negate_exponents(b)


@given(polys)
@settings(max_examples=40, deadline=None)
def test_eval_at_one_sums_coefficients(a):
    assert a.eval_at_one() == sum(a.terms.values())


def test_poly_pretty_and_json():
    poly = LaurentPoly({-3: 1, -1: 1, 1: 1, 3: 1})
    assert poly.pretty() == "q^-3 + q^-1 + q + q^3"
    assert poly.to_json() == [[-3, "1"], [-1, "1"], [1, "1"], [3, "1"]]
    assert LaurentPoly.t_poly({0: 1, 1: 1}).pretty() == "1 + t"
    assert LaurentPoly.zero().pretty() == "0"


def test_poly_parity_helpers():
    assert LaurentPoly.t_poly({0: 1, 3: 2}).is_even()
    assert not LaurentPoly({1: 1}).is_even()
    sym = LaurentPoly({-1: 2, 1: 2})
    assert sym == negate_exponents(sym)
    assert LaurentPoly({1: 1, 2: 1}) != negate_exponents(LaurentPoly({1: 1, 2: 1}))


def test_series_monomial_product():
    e_a = CharSeries.monomial(2, 6, (1, 0), LaurentPoly.one())
    e_b = CharSeries.monomial(2, 6, (0, 2), LaurentPoly.one())
    prod = series_product(e_a, e_b)
    assert prod.coefficient((1, 2)) == LaurentPoly.one()
    assert prod.support() == [(1, 2)]


def test_series_truncation_in_product():
    e = CharSeries.monomial(2, 2, (1, 1), LaurentPoly.one())
    assert series_product(e, e).support() == []  # |(2,2)| = 4 > 2


def test_series_zero_annihilates():
    z = CharSeries(2, 4, {})
    s = CharSeries.monomial(2, 4, (1, 0), LaurentPoly.t_poly({2: 1}))
    assert series_product(s, z) == z
    assert series_product(z, s) == z


def test_series_difference_of_squares():
    theta = (1, 1)
    t = LaurentPoly.t_poly({1: 1})
    plus = CharSeries(2, 4, {(0, 0): LaurentPoly.one(), theta: t})
    minus = CharSeries(2, 4, {(0, 0): LaurentPoly.one(), theta: t * -1})
    prod = series_product(plus, minus)
    assert prod.coefficient((0, 0)) == LaurentPoly.one()
    assert prod.coefficient(theta).is_zero()
    assert prod.coefficient((2, 2)) == LaurentPoly.t_poly({2: 1}) * -1


def test_series_bound_mismatch():
    with pytest.raises(ValueError):
        series_product(series_one(4), series_one(5))
    with pytest.raises(ValueError):
        series_product(series_one(4), CharSeries.monomial(1, 4, (0,), LaurentPoly.one()))


def test_geometric_inverse_examples():
    theta = (1, 1)
    t = LaurentPoly.t_poly({1: 1})
    tinv = LaurentPoly.t_poly({-1: 1})
    geo = geometric_inverse(t, theta, 4)
    assert geo.coefficient((0, 0)) == LaurentPoly.one()
    assert geo.coefficient((1, 1)) == t
    assert geo.coefficient((2, 2)) == LaurentPoly.t_poly({2: 1})

    geo_inv = geometric_inverse(tinv, theta, 2)
    assert geo_inv.coefficient((1, 1)) == tinv

    prod = series_product(geometric_inverse(t, theta, 2), geometric_inverse(tinv, theta, 2))
    assert prod.coefficient((1, 1)) == t + tinv


def test_geometric_inverse_rejects_zero_direction():
    with pytest.raises(ValueError):
        geometric_inverse(LaurentPoly.t_poly({1: 1}), (0, 0), 4)


def test_geometric_inverse_times_factor_is_one():
    # (1 - c e^theta)^{-1} * (1 - c e^theta) == 1 up to the bound
    for coeff in (LaurentPoly.t_poly({1: 1}), LaurentPoly.t_poly({-1: 1}), LaurentPoly.one()):
        for theta in ((1, 0), (1, 1)):
            bound = 5
            geo = geometric_inverse(coeff, theta, bound)
            factor = CharSeries(2, bound, {(0, 0): LaurentPoly.one(), theta: coeff * -1})
            assert series_product(geo, factor) == series_one(bound)


def test_divide_geometric_rejects_bad_factors():
    with pytest.raises(ValueError):
        series_one(4).divide_geometric((0, 0), 2)
    with pytest.raises(ValueError):
        series_one(4).divide_geometric((1,), 2)


@st.composite
def division_cases(draw):
    """(series, theta, e): ranks 1-3, bounds <= 8, sparse, one entry on the bound."""
    rank = draw(st.integers(min_value=1, max_value=3))
    bound = draw(st.integers(min_value=0, max_value=8))
    coord = st.integers(min_value=0, max_value=bound)
    vectors = st.tuples(*[coord] * rank).filter(lambda v: sum(v) <= bound)
    coeffs = draw(st.dictionaries(vectors, polys, max_size=4))
    # a vector of height exactly `bound`, as counts of drawn coordinates
    slots = draw(st.lists(st.integers(min_value=0, max_value=rank - 1), min_size=bound, max_size=bound))
    coeffs[tuple(slots.count(i) for i in range(rank))] = draw(polys)
    theta = draw(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * rank).filter(lambda v: sum(v) >= 1)
    )
    e = draw(st.sampled_from((0, 2, -2)))
    return CharSeries(rank, bound, coeffs), theta, e


@given(division_cases())
@settings(max_examples=300, deadline=None)
def test_divide_geometric_equals_inverse_product(case):
    series, theta, e = case
    expected = series_product(series, geometric_inverse(LaurentPoly({e: 1}), theta, series.bound))
    assert series.divide_geometric(theta, e) == expected


def test_divide_geometric_covers_tall_directions():
    # |theta| >= 2 steps over heights: the chain above a support point
    # must still run to the bound, and stop at the next support point;
    # along (2, 1) the quotient cancels at (4, 2) and stays zero above it
    t = LaurentPoly.t_poly({1: 1})
    series = CharSeries(2, 8, {(0, 0): LaurentPoly.one(), (2, 1): t, (4, 2): (t * t) * -2})
    for theta in ((1, 1), (2, 1), (0, 3)):
        expected = series_product(series, geometric_inverse(t, theta, 8))
        assert series.divide_geometric(theta, 2) == expected


@given(series2, series2)
@settings(max_examples=30, deadline=None)
def test_series_commutative(a, b):
    assert series_product(a, b) == series_product(b, a)


@given(series2, series2, series2)
@settings(max_examples=30, deadline=None)
def test_series_distributive(a, b, c):
    assert series_product(a, series_sum(b, c)) == series_sum(
        series_product(a, b), series_product(a, c)
    )


@given(series2, series2)
@settings(max_examples=30, deadline=None)
def test_truncation_coherence(a, b):
    # computing at bound 6 then restricting to 3 = computing at 3 directly
    full = truncate(series_product(a, b), 3)
    direct = series_product(truncate(a, 3), truncate(b, 3))
    assert full == direct


def test_series_json_sorted_by_height_then_lex():
    s = CharSeries(
        2,
        6,
        {
            (2, 0): LaurentPoly.one(),
            (0, 1): LaurentPoly.one(),
            (1, 1): LaurentPoly.t_poly({1: 1}),
        },
    )
    assert [alpha for alpha, _ in s.to_json()] == [[0, 1], [1, 1], [2, 0]]


def test_series_eval_at_one():
    s = CharSeries(2, 6, {(1, 0): LaurentPoly({-1: 1, 1: 1})})
    assert series_at_one(s) == {(1, 0): 2}
