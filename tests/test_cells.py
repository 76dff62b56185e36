"""Fixed-point cells: enumeration, Euler counts, conjectured dimensions."""

import math

import pytest

from quasiflags.cells import (
    Cell,
    cell_dimension_conjecture_check,
    cell_dimension_poly,
    conjectured_dim,
    enumerate_cells,
    euler_check,
)
from quasiflags.charseries import LaurentPoly
from quasiflags.cohomology import laumon_poincare
from quasiflags.kostant import KostantPartition, kostant_partitions
from quasiflags.reports import CONJECTURE, PASS, THEOREM
from quasiflags.rootdata import (
    dim_flag,
    height,
    iter_subvectors,
    two_rho,
    vectors_up_to,
    weyl_elements,
)
from quasiflags.suites import run_celldim, run_euler


def brute_cell_count(n, alpha):
    """Oracle: n! times the partition-count convolution over splits."""
    total = 0
    for gamma0 in iter_subvectors(alpha):
        rest = tuple(a - g for a, g in zip(alpha, gamma0))
        total += len(kostant_partitions(gamma0)) * len(kostant_partitions(rest))
    return math.factorial(n) * total


def enumerated_dim_poly(n, alpha):
    """Oracle: sum of t^conjectured_dim over the enumerated cells."""
    dims = {}
    for cell in enumerate_cells(n, alpha):
        d = conjectured_dim(cell)
        dims[2 * d] = dims.get(2 * d, 0) + 1
    return LaurentPoly(dims)


def test_cell_counts_examples():
    assert len(enumerate_cells(2, (1,))) == 4
    assert len(enumerate_cells(3, (1, 0))) == 12
    for n in (2, 3, 4):
        assert len(enumerate_cells(n, (0,) * (n - 1))) == math.factorial(n)


def test_cell_counts_match_convolution_oracle():
    for n, alpha in [(2, (3,)), (3, (1, 1)), (3, (2, 1)), (4, (1, 1, 0))]:
        assert len(enumerate_cells(n, alpha)) == brute_cell_count(n, alpha)


def test_cells_have_consistent_weights():
    for cell in enumerate_cells(3, (2, 1)):
        weights = zip(cell.kappa0.weight(), cell.kappaInf.weight())
        assert tuple(a + b for a, b in weights) == (2, 1)


def test_cell_order_is_reproducible():
    once = enumerate_cells(3, (1, 1))
    again = enumerate_cells(3, (1, 1))
    assert once == again
    perms = [c.w.perm for c in once]
    assert perms == sorted(perms)  # w is the outermost key


def test_conjectured_dim_examples():
    e, s = weyl_elements(2)
    k1 = KostantPartition(2, (1,))
    k0 = KostantPartition(2, (0,))
    assert conjectured_dim(Cell(w=e, kappa0=k1, kappaInf=k0)) == 2
    assert conjectured_dim(Cell(w=s, kappa0=k0, kappaInf=k1)) == 1
    assert conjectured_dim(Cell(w=e, kappa0=k0, kappaInf=k0)) == 0


def test_conjectured_dim_within_bounds():
    for n, alpha in [(2, (2,)), (3, (1, 1)), (3, (2, 0))]:
        top = dim_flag(n) + 2 * height(alpha)
        for cell in enumerate_cells(n, alpha):
            assert 0 <= conjectured_dim(cell) <= top


def test_euler_check_examples():
    for n, alpha in [(2, (1,)), (3, (1, 0)), (2, (0,))]:
        entry = euler_check(n, alpha)
        assert entry.status == PASS
        assert entry.category == THEOREM
        assert entry.details == {"value": laumon_poincare(alpha).eval_at_one()}
    assert laumon_poincare((1,)).eval_at_one() == 4
    assert laumon_poincare((1, 0)).eval_at_one() == 12
    assert laumon_poincare((0,)).eval_at_one() == 2


def test_celldim_conjecture_examples():
    for n, alpha in [(2, (1,)), (3, (1, 0)), (2, (0,))]:
        entry = cell_dimension_conjecture_check(n, alpha)
        assert entry.status == PASS
        assert entry.category == CONJECTURE
        assert entry.details == {}


def test_celldim_alpha_zero_reduces_to_weyl_lengths():
    # only empty partitions remain; the statistic degenerates to l(w)
    from quasiflags.rootdata import weyl_poincare

    assert enumerated_dim_poly(3, (0, 0)) == weyl_poincare(3)


@pytest.mark.parametrize("n,alpha_cap", [(2, 4), (3, 6), (4, 4)])
def test_factored_cell_sums_match_enumerated_cells(n, alpha_cap):
    for alpha in vectors_up_to(n - 1, alpha_cap):
        assert cell_dimension_poly(n, alpha).eval_at_one() == len(enumerate_cells(n, alpha))
        assert cell_dimension_poly(n, alpha) == enumerated_dim_poly(n, alpha)


def test_factored_cell_sums_validate_alpha_length():
    for check in (cell_dimension_poly, enumerate_cells, euler_check):
        with pytest.raises(ValueError):
            check(3, (1,))


def test_euler_and_celldim_share_one_cell_polynomial_per_alpha():
    n, degree = 3, 12
    alphas = len(list(vectors_up_to(n - 1, degree - height(two_rho(n)))))
    cell_dimension_poly.cache_clear()
    assert run_euler(n, degree).passed()
    info = cell_dimension_poly.cache_info()
    assert (info.misses, info.hits) == (alphas, 0)
    assert run_celldim(n, degree).passed()
    info = cell_dimension_poly.cache_info()
    # celldim reads the polynomials euler built and computes none
    assert (info.misses, info.hits) == (alphas, alphas)
