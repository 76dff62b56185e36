"""Torus fixed points and attracting cells of quasiflag spaces.

The big torus (Cartan times loop rotation) acts with finitely many fixed
points, labelled by triples (w, kappa0, kappaInf): a permutation and two
Kostant partitions recording the defects concentrated at the two fixed
points of the curve, with |kappa0| + |kappaInf| = alpha.  The cell count
therefore equals the Euler characteristic, i.e. the Poincare polynomial
at t=1 (euler_check).

The finer statement that the cell through (w, kappa0, kappaInf) has
dimension l(w) + ||kappa0|| + ||kappaInf|| + K(kappa0) - K(kappaInf) is
only expected, not proved; cell_dimension_conjecture_check tests it
empirically and reports in the CONJECTURE category.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charseries import LaurentPoly
from .cohomology import iter_subvectors, laumon_poincare
from .kostant import DEFAULT_WEIGHT_CAP, KostantPartition, kostant_partitions
from .reports import CONJECTURE, FAIL, PASS, THEOREM, Entry, Report
from .rootdata import WeylElement, dim_flag, height, weyl_elements


@dataclass(frozen=True)
class Cell:
    """Fixed-point label (w, kappa0, kappaInf)."""

    w: WeylElement
    kappa0: KostantPartition
    kappaInf: KostantPartition

    def alpha(self):
        return tuple(
            a + b for a, b in zip(self.kappa0.weight(), self.kappaInf.weight())
        )


@dataclass(frozen=True)
class FixedPointDatum:
    """Local exponent matrices of the fixed quasiflag at 0 and at infinity."""

    w: WeylElement
    d0: dict
    dInf: dict


def _splits(n, alpha, cap):
    """(partitions of gamma0, partitions of alpha - gamma0) for every gamma0 <= alpha."""
    if len(alpha) != n - 1:
        raise ValueError(f"alpha must have length {n - 1}")
    for gamma0 in iter_subvectors(alpha):
        gammaInf = tuple(a - g for a, g in zip(alpha, gamma0))
        yield (
            kostant_partitions(gamma0, cap=cap),
            kostant_partitions(gammaInf, cap=cap),
        )


def enumerate_cells(n, alpha, cap=DEFAULT_WEIGHT_CAP):
    """All cells for the degree-alpha space, in reproducible order.

    Order: w lexicographic, then the weight split gamma0 <= alpha
    lexicographic, then the two partitions in enumeration order.
    """
    splits = list(_splits(n, tuple(alpha), cap))
    cells = []
    for w in weyl_elements(n):
        for parts0, partsInf in splits:
            for k0 in parts0:
                for kinf in partsInf:
                    cells.append(Cell(w=w, kappa0=k0, kappaInf=kinf))
    return cells


def fixed_point_datum(cell):
    """Exponent matrices d0, dInf derived from the two partitions."""
    return FixedPointDatum(
        w=cell.w, d0=cell.kappa0.fixed_point_d(), dInf=cell.kappaInf.fixed_point_d()
    )


def conjectured_dim(cell):
    """l(w) + ||kappa0|| + ||kappaInf|| + K(kappa0) - K(kappaInf)."""
    return (
        cell.w.length
        + cell.kappa0.norm()
        + cell.kappaInf.norm()
        + cell.kappa0.num_summands()
        - cell.kappaInf.num_summands()
    )


def count_cells(n, alpha, cap=DEFAULT_WEIGHT_CAP):
    """Number of cells, without building them.

    The cells are the product set W x {(kappa0, kappaInf)}, so they
    number |W| times the sum over the splits of the two partition counts.
    """
    pairs = sum(len(p0) * len(pInf) for p0, pInf in _splits(n, tuple(alpha), cap))
    return len(weyl_elements(n)) * pairs


def _t_sum(exponents):
    terms = {}
    for e in exponents:
        terms[2 * e] = terms.get(2 * e, 0) + 1
    return LaurentPoly(terms)


def cell_dimension_poly(n, alpha, cap=DEFAULT_WEIGHT_CAP):
    """sum over the cells of t^conjectured_dim, without building them.

    The statistic is additive over (w, kappa0, kappaInf), so the sum is
    W(t) * sum over splits of A_gamma0(t) B_gammaInf(t), with
    W(t) = sum_w t^l(w), A = sum t^(||kappa0|| + K(kappa0)) and
    B = sum t^(||kappaInf|| - K(kappaInf)), all over enumerated objects.
    """
    pair_sum = LaurentPoly.zero()
    for parts0, partsInf in _splits(n, tuple(alpha), cap):
        a = _t_sum(k.norm() + k.num_summands() for k in parts0)
        b = _t_sum(k.norm() - k.num_summands() for k in partsInf)
        pair_sum = pair_sum + a * b
    return _t_sum(w.length for w in weyl_elements(n)) * pair_sum


def euler_check(n, alpha, cap=DEFAULT_WEIGHT_CAP):
    """Cell count vs Poincare polynomial at t=1 for one alpha."""
    alpha = tuple(alpha)
    ncells = count_cells(n, alpha, cap=cap)
    euler = laumon_poincare(alpha, cap=cap).eval_at_one()
    ok = ncells == euler
    entry = Entry(
        case={"alpha": list(alpha)},
        status=PASS if ok else FAIL,
        category=THEOREM,
        details={"cells": ncells, "euler": euler} if not ok else {"value": ncells},
    )
    return Report(name="euler", params={"n": n, "alpha": list(alpha)}, entries=[entry])


def cell_dimension_conjecture_check(n, alpha, cap=DEFAULT_WEIGHT_CAP):
    """Compare sum_cells t^dim with the Poincare polynomial (CONJECTURE)."""
    alpha = tuple(alpha)
    lhs = cell_dimension_poly(n, alpha, cap=cap)
    # every coefficient is positive, so the extreme degrees bound every cell
    top = dim_flag(n) + 2 * height(alpha)
    for d in (lhs.min_exp() // 2, lhs.max_exp() // 2):
        assert 0 <= d <= top, f"conjectured dimension {d} outside [0, {top}]"
    rhs = laumon_poincare(alpha, cap=cap)
    ok = lhs == rhs
    entry = Entry(
        case={"alpha": list(alpha)},
        status=PASS if ok else FAIL,
        category=CONJECTURE,
        details={} if ok else {"cell_sum": lhs.to_json(), "poincare": rhs.to_json()},
    )
    return Report(
        name="celldim", params={"n": n, "alpha": list(alpha)}, entries=[entry]
    )
