"""Root-system data: coroots, 2rho, Cartan pairing, Weyl length polynomial."""

from itertools import product

import pytest

from quasiflags.cells import Cell
from quasiflags.charseries import LaurentPoly
from quasiflags.kostant import KostantPartition
from quasiflags.quiverfilt import TorsionRep
from quasiflags.rootdata import (
    RankError,
    ResourceCapError,
    WeylElement,
    coroot_intervals,
    dim_flag,
    interval_to_coroot,
    pairing,
    positive_coroots,
    two_rho,
    vectors_up_to,
    weyl_elements,
    weyl_poincare,
)


def brute_inversions(perm):
    # independent of rootdata.inversions: count via insertion
    count = 0
    seen = []
    for value in perm:
        count += sum(1 for s in seen if s > value)
        seen.append(value)
    return count


def test_positive_coroots_n2():
    assert positive_coroots(2) == ((1,),)


def test_positive_coroots_n3():
    roots = positive_coroots(3)
    assert len(roots) == 3
    assert set(roots) == {(1, 0), (0, 1), (1, 1)}
    # canonical order is lexicographic in (q, p)
    assert coroot_intervals(3) == ((1, 1), (1, 2), (2, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_positive_coroot_count_and_intervals(n):
    roots = positive_coroots(n)
    assert len(roots) == n * (n - 1) // 2
    # every coroot is the indicator vector of a unique interval
    expected = set()
    for q in range(1, n):
        for p in range(q, n):
            expected.add(tuple(1 if q <= i <= p else 0 for i in range(1, n)))
    assert set(roots) == expected


def test_two_rho_values():
    assert two_rho(2) == (1,)
    assert two_rho(3) == (2, 2)
    assert two_rho(4) == (3, 4, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_two_rho_is_sum_of_positive_coroots(n):
    total = [0] * (n - 1)
    for theta in positive_coroots(n):
        total = [a + b for a, b in zip(total, theta)]
    assert tuple(total) == two_rho(n)


def test_pairing_cartan_diagonal():
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            simple = interval_to_coroot(n, i, i)
            assert pairing(i, simple) == 2


def test_pairing_examples():
    assert pairing(1, (0, 1)) == -1
    assert pairing(1, (3, 2)) == 4  # (1,0) + 2rho for n=3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pairing_reproduces_cartan_matrix(n):
    for i in range(1, n):
        for j in range(1, n):
            expected = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            assert pairing(i, interval_to_coroot(n, j, j)) == expected


def test_pairing_index_out_of_range():
    with pytest.raises(ValueError):
        pairing(0, (1, 0))
    with pytest.raises(ValueError):
        pairing(3, (1, 0))


def test_rank_errors():
    with pytest.raises(RankError):
        positive_coroots(1)
    with pytest.raises(RankError):
        two_rho(0)


def test_weyl_elements_small():
    assert [w.length for w in weyl_elements(2)] == [0, 1]
    lengths = sorted(w.length for w in weyl_elements(3))
    assert lengths == [0, 1, 1, 2, 2, 3]
    ws = weyl_elements(4)
    assert len(ws) == 24
    assert max(w.length for w in ws) == 6


def test_weyl_elements_lengths_match_brute_inversions():
    for n in (2, 3, 4, 5):
        for w in weyl_elements(n):
            assert w.length == brute_inversions(w.perm)


def test_weyl_elements_cap():
    with pytest.raises(ResourceCapError):
        weyl_elements(9)


def test_weyl_poincare_values():
    assert weyl_poincare(1) == LaurentPoly({0: 1})
    assert weyl_poincare(2) == LaurentPoly.t_poly({0: 1, 1: 1})
    assert weyl_poincare(3) == LaurentPoly.t_poly({0: 1, 1: 2, 2: 2, 3: 1})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_weyl_poincare_at_one_is_factorial(n):
    import math

    assert weyl_poincare(n).eval_at_one() == math.factorial(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_weyl_poincare_matches_inversion_enumeration(n):
    by_length = {}
    for w in weyl_elements(n):
        ell = brute_inversions(w.perm)
        by_length[2 * ell] = by_length.get(2 * ell, 0) + 1
    assert weyl_poincare(n) == LaurentPoly(by_length)


def test_weyl_poincare_beyond_enumeration_cap():
    # product formula only; still t-factorial
    poly = weyl_poincare(10)
    import math

    assert poly.eval_at_one() == math.factorial(10)
    assert max(poly.terms) == 2 * dim_flag(10)


RECORDS = {
    "WeylElement": (WeylElement, {"perm": (1, 2), "length": 0}),
    "KostantPartition": (KostantPartition, {"n": 3, "mults": (1, 0, 2)}),
    "TorsionRep": (TorsionRep, {"n": 3, "points": (((1, 1), (1, 2)),)}),
    "Cell": (
        Cell,
        {
            "w": WeylElement(perm=(2, 1), length=1),
            "kappa0": KostantPartition(2, (1,)),
            "kappaInf": KostantPartition(2, (0,)),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    cls, fields = RECORDS[name]
    record = cls(**fields)
    assert {key: getattr(record, key) for key in fields} == fields
    twin = cls(**fields)
    assert twin == record and hash(twin) == hash(record)
    for key in fields:
        with pytest.raises(AttributeError):
            setattr(record, key, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no __dict__ either


@pytest.mark.parametrize("length,cap", [(1, 5), (2, 4), (3, 3), (4, 2), (6, 4)])
def test_vectors_up_to_matches_filtered_product(length, cap):
    brute = [v for v in product(range(cap + 1), repeat=length) if sum(v) <= cap]
    assert list(vectors_up_to(length, cap)) == sorted(brute, key=lambda v: (sum(v), v))


def test_vectors_up_to_negative_cap_is_empty():
    assert list(vectors_up_to(3, -1)) == []
