"""Fixed-point cells: enumeration, Euler counts, conjectured dimensions."""

import math

import pytest

from quasiflags import cells, cohomology
from quasiflags.cells import (
    Cell,
    cell_dimension_poly,
    conjectured_dim,
    enumerate_cells,
)
from quasiflags.charseries import LaurentPoly
from quasiflags.cohomology import laumon_poincare
from quasiflags.kostant import KostantPartition, kostant_partitions, listed_profiles
from quasiflags.reports import CONJECTURE, PASS, THEOREM
from quasiflags.rootdata import (
    dim_flag,
    height,
    iter_subvectors,
    two_rho,
    vectors_up_to,
    weyl_elements,
    weyl_poincare,
)
from quasiflags.suites import run_celldim, run_euler


def brute_cell_count(n, alpha):
    """Oracle: n! times the partition-count convolution over splits."""
    total = 0
    for gamma0 in iter_subvectors(alpha):
        rest = tuple(a - g for a, g in zip(alpha, gamma0))
        total += len(kostant_partitions(gamma0)) * len(kostant_partitions(rest))
    return math.factorial(n) * total


def factored_oracle(n, alpha):
    """Oracle: W(t) sum over the splits and partition pairs of t^(|alpha| + K0 - KInf)."""
    total = LaurentPoly.zero()
    for gamma0 in iter_subvectors(alpha):
        rest = tuple(a - g for a, g in zip(alpha, gamma0))
        for k0 in kostant_partitions(gamma0):
            for kinf in kostant_partitions(rest):
                exponent = height(alpha) + k0.num_summands() - kinf.num_summands()
                total = total + LaurentPoly.t_poly({exponent: 1})
    return weyl_poincare(n) * total


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


def entry_of(run, n, alpha):
    """The entry of alpha in a per-alpha suite run just up to |alpha|."""
    report = run(n, height(two_rho(n)) + height(alpha))
    [entry] = [e for e in report.entries if e.case == {"alpha": list(alpha)}]
    return entry


def test_euler_check_examples():
    for n, alpha in [(2, (1,)), (3, (1, 0)), (2, (0,))]:
        entry = entry_of(run_euler, n, alpha)
        assert entry.status == PASS
        assert entry.category == THEOREM
        assert entry.details == {"value": laumon_poincare(alpha).eval_at_one()}
    assert laumon_poincare((1,)).eval_at_one() == 4
    assert laumon_poincare((1, 0)).eval_at_one() == 12
    assert laumon_poincare((0,)).eval_at_one() == 2


def test_celldim_conjecture_examples():
    for n, alpha in [(2, (1,)), (3, (1, 0)), (2, (0,))]:
        entry = entry_of(run_celldim, n, alpha)
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
        assert cell_dimension_poly(alpha).eval_at_one() == len(enumerate_cells(n, alpha))
        assert cell_dimension_poly(alpha) == enumerated_dim_poly(n, alpha)


def test_cell_routes_validate_alpha():
    # the cell sum reads the rank off alpha; the enumeration, given n, checks the length
    with pytest.raises(ValueError):
        enumerate_cells(3, (1,))
    for check in (cell_dimension_poly, lambda alpha: enumerate_cells(3, alpha)):
        with pytest.raises(ValueError):
            check((-1, 0))


def counting(monkeypatch, module, name):
    """Wrap module.name to record the arguments of each call; return the record."""
    calls = []
    build = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_euler_and_celldim_share_one_cell_polynomial_per_alpha(monkeypatch, cold_tables):
    n, degree = 3, 12
    alphas = list(vectors_up_to(n - 1, degree - height(two_rho(n))))
    builds = counting(monkeypatch, cells, "_cell_sums")
    assert run_euler(n, degree).passed()
    # one build over the sweep's simplex makes every polynomial of it
    assert [sorted(args[3]) for args in builds] == [sorted(alphas)]
    assert run_celldim(n, degree).passed()
    # celldim reads the polynomials euler built and builds none
    assert len(builds) == 1


def test_a_loop_that_does_not_walk_first_builds_each_table_once_per_height(
    monkeypatch, cold_tables
):
    cap = 12
    alphas = list(vectors_up_to(2, cap))
    expected = {alpha: laumon_poincare(alpha) for alpha in alphas}
    cousin_builds = counting(monkeypatch, cohomology, "_downset_steps")
    cell_builds = counting(monkeypatch, cells, "_cell_sums")
    cold_tables()
    for alpha in alphas:
        assert laumon_poincare(alpha) == expected[alpha], alpha
    assert len(cousin_builds) == cap + 1
    cold_tables()
    for alpha in alphas:
        assert cell_dimension_poly(alpha) == factored_oracle(3, alpha), alpha
    assert len(cell_builds) == cap + 1
    # each build made the polynomials of one height
    assert [{height(alpha) for alpha in args[3]} for args in cell_builds] == [
        {h} for h in range(cap + 1)
    ]


def test_cell_sums_need_their_slot_width(monkeypatch, cold_tables):
    alpha = (3, 3, 3)
    n = len(alpha) + 1
    box = list(iter_subvectors(alpha))
    listed = dict(listed_profiles(alpha))  # the box: the walk of a cold table
    # at t=1 the cell polynomial is n! times the pairs of partitions of gamma0 and alpha - gamma0
    count = {gamma: len(kostant_partitions(gamma)) for gamma in box}
    pairs = sum(
        count[gamma] * count[tuple(a - g for a, g in zip(alpha, gamma))] for gamma in box
    )

    def polys(width):
        return cells._cell_sums(n, listed, box, box, width)

    # the proven width: the bit length of the cell count of alpha, the top of the box
    width = (math.factorial(n) * pairs).bit_length()
    builds = counting(monkeypatch, cells, "_cell_sums")
    cell_dimension_poly(alpha)
    assert [args[-1] for args in builds] == [width]  # the table packs at it
    proven = polys(width)
    for beta in box:
        assert proven[beta] == factored_oracle(n, beta), beta
    largest = max(max(poly.terms.values()) for poly in proven.values())
    assert largest >= 4  # so the narrow slot below is still 2 bits wide
    # one bit short of the largest coefficient, that slot carries into the next
    narrow = polys(largest.bit_length() - 1)
    widest = [beta for beta in box if max(proven[beta].terms.values()) == largest]
    assert all(narrow[beta] != proven[beta] for beta in widest)


def test_cell_route_reads_neither_the_cousin_sum_nor_the_dp(monkeypatch, cold_tables):
    n, degree = 4, 18
    expected = [run(n, degree).to_json() for run in (run_euler, run_celldim)]
    alpha_cap = degree - height(two_rho(n))
    poincare = {alpha: laumon_poincare(alpha) for alpha in vectors_up_to(n - 1, alpha_cap)}

    def refuse(*args):
        raise AssertionError("the cell route must not read the Cousin sum")

    for name in ("_pack", "_unpack", "_cousin_sums", "_downset_steps"):
        monkeypatch.setattr(cohomology, name, refuse)
    # the other side of both checks, taken before the refusal
    monkeypatch.setattr(cohomology, "laumon_poincare", poincare.__getitem__)
    cold_tables()
    assert [run(n, degree).to_json() for run in (run_euler, run_celldim)] == expected
    assert sorted(cells._CELLS) == [n]
