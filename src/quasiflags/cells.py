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

enumerate_cells lists the labels for the cells command and as a test
oracle.  Both checks read one cell sum, cell_dimension_poly, computed
once per alpha in factored form without building the cells, from the
summand counts of the Kostant listing's walk and the enumerated Weyl
group only: each cell adds one monomial, so euler reads it at t=1.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache

from .charseries import LaurentPoly
from .cohomology import laumon_poincare
from .kostant import listed_profiles, partitions_below
from .reports import CONJECTURE, FAIL, PASS, THEOREM, Entry
from .rootdata import height, iter_subvectors, weyl_elements


class Cell(namedtuple("Cell", "w kappa0 kappaInf")):
    """Fixed-point label (w, kappa0, kappaInf)."""

    __slots__ = ()


def enumerate_cells(n, alpha):
    """All cells for the degree-alpha space, in reproducible order.

    Order: w lexicographic, then the weight split gamma0 <= alpha
    lexicographic, then the two partitions in enumeration order.
    """
    alpha = tuple(alpha)
    if len(alpha) != n - 1:
        raise ValueError(f"alpha must have length {n - 1}")
    # the listings over the box below alpha; reversed, over alpha - gamma0
    parts = list(partitions_below(alpha).values())
    cells = []
    for w in weyl_elements(n):
        for parts0, partsInf in zip(parts, reversed(parts)):
            for k0 in parts0:
                for kinf in partsInf:
                    cells.append(Cell(w=w, kappa0=k0, kappaInf=kinf))
    return cells


def conjectured_dim(cell):
    """l(w) + ||kappa0|| + ||kappaInf|| + K(kappa0) - K(kappaInf)."""
    return (
        cell.w.length
        + cell.kappa0.norm()
        + cell.kappaInf.norm()
        + cell.kappa0.num_summands()
        - cell.kappaInf.num_summands()
    )


@lru_cache(maxsize=None)
def cell_dimension_poly(n, alpha):
    """sum over the cells of t^conjectured_dim, without building them.

    ||kappa0|| + ||kappaInf|| = |alpha| on every cell, and the rest of the
    statistic is additive over (w, kappa0, kappaInf).  So the sum is
    W(t) sum_splits t^|alpha| P_gamma0(t) P_gammaInf(1/t), with W(t) =
    sum_w t^l(w) and P_gamma(t) = sum_K c_K t^K, c_K the number of listed
    partitions of gamma with K summands (the rank's listed table).  The
    split sum is one dense list, slot |alpha| + K0 - KInf in [0, 2|alpha|];
    the only polynomial product is the one by W.  alpha is a tuple; the
    polynomial is computed once per (n, alpha) in a process; callers share
    it and must not mutate it.
    """
    if len(alpha) != n - 1:
        raise ValueError(f"alpha must have length {n - 1}")
    # the profiles over the box below alpha; reversed, over alpha - gamma0
    profiles = list(map(listed_profiles(alpha).get, iter_subvectors(alpha)))
    size = height(alpha)
    acc = [0] * (2 * size + 1)
    for p0, pInf in zip(profiles, reversed(profiles)):
        for k0, c0 in p0.items():
            for kinf, cinf in pInf.items():
                acc[size + k0 - kinf] += c0 * cinf
    pair_sum = LaurentPoly.t_poly(dict(enumerate(acc)))
    weyl = LaurentPoly.t_poly(Counter(w.length for w in weyl_elements(n)))
    return weyl * pair_sum


def euler_check(n, alpha):
    """Cell count vs Poincare polynomial at t=1 for one alpha.

    Each cell adds one monomial to cell_dimension_poly, so its value at
    t=1 is the number of cells.
    """
    alpha = tuple(alpha)
    ncells = cell_dimension_poly(n, alpha).eval_at_one()
    euler = laumon_poincare(alpha).eval_at_one()
    ok = ncells == euler
    return Entry(
        case={"alpha": list(alpha)},
        status=PASS if ok else FAIL,
        category=THEOREM,
        details={"cells": ncells, "euler": euler} if not ok else {"value": ncells},
    )


def cell_dimension_conjecture_check(n, alpha):
    """Compare sum_cells t^dim with the Poincare polynomial (CONJECTURE)."""
    alpha = tuple(alpha)
    lhs = cell_dimension_poly(n, alpha)
    rhs = laumon_poincare(alpha)
    ok = lhs == rhs
    return Entry(
        case={"alpha": list(alpha)},
        status=PASS if ok else FAIL,
        category=CONJECTURE,
        details={} if ok else {"cell_sum": lhs.to_json(), "poincare": rhs.to_json()},
    )
