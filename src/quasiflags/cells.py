"""Torus fixed points and attracting cells of quasiflag spaces: the cell route.

This module holds routes only; suites.run_euler and suites.run_celldim
compare its cell sums with the Cousin sum of cohomology.

The big torus (Cartan times loop rotation) acts with finitely many fixed
points, labelled by triples (w, kappa0, kappaInf): a permutation and two
Kostant partitions recording the defects concentrated at the two fixed
points of the curve, with |kappa0| + |kappaInf| = alpha.  The cell count
therefore equals the Euler characteristic, i.e. the Poincare polynomial
at t=1.

The finer statement that the cell through (w, kappa0, kappaInf) has
dimension l(w) + ||kappa0|| + ||kappaInf|| + K(kappa0) - K(kappaInf) is
only expected, not proved, so celldim reports in the CONJECTURE category.

enumerate_cells lists the labels for the cells command and as a test
oracle.  Both checks read one cell sum, cell_dimension_poly(alpha), which
the rank's table {beta: polynomial} holds, as the Cousin sum's does, for
every listed weight, packed at once without building the cells, from the
listing's summand counts and the Weyl group only (not the DP, nor the
Cousin sum's packing): each cell adds one monomial, so euler reads it at t=1.
"""

from collections import Counter, namedtuple
from itertools import groupby
from math import factorial
from operator import mul

from .charseries import LaurentPoly
from .kostant import listed_profiles, partitions_below
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


# rank n -> {beta: cell_dimension_poly(beta)} over the listed table
_CELLS = {}


def _split_sums(low, high, alphas):
    """sum over gamma0 <= alpha of low[gamma0] high[alpha - gamma0], one C-level run per row."""
    for head, group in groupby(alphas, key=lambda alpha: alpha[:-1]):
        heads = list(iter_subvectors(head))
        runs = [(low[g], high[h]) for g, h in zip(heads, reversed(heads))]
        for alpha in group:
            yield sum(sum(map(mul, a, b[alpha[-1] :: -1])) for a, b in runs)


def _cell_sums(n, listed, weights, alphas, width):
    """{alpha: cell_dimension_poly(alpha)} for alphas in lexicographic order, at width.

    The packed t^|beta| P_beta(t) and t^|beta| P_beta(1/t) go to rows
    {head: [(head, 0), (head, 1), ...]}, as weights is lexicographic.
    """
    low, high = {}, {}
    for beta in weights:
        size, terms = height(beta), listed[beta].items()
        low.setdefault(beta[:-1], []).append(sum(c << width * (size + k) for k, c in terms))
        high.setdefault(beta[:-1], []).append(sum(c << width * (size - k) for k, c in terms))
    weyl = sum(c << width * l for l, c in Counter(w.length for w in weyl_elements(n)).items())
    mask, sums = (1 << width) - 1, {}
    for alpha, split in zip(alphas, _split_sums(low, high, alphas)):
        total = split * weyl
        slots = range(-(-total.bit_length() // width))
        # t^e is q^(2e); every kept coefficient is a nonzero int
        sums[alpha] = LaurentPoly._of({2 * e: c for e in slots if (c := total >> width * e & mask)})
    return sums


def cell_dimension_poly(alpha):
    """sum over the cells of t^conjectured_dim, without building them.

    ||kappa0|| + ||kappaInf|| = |alpha| on every cell, and the rest of the
    statistic is additive over (w, kappa0, kappaInf).  So the sum is
    W(t) sum_splits t^|alpha| P_gamma0(t) P_gammaInf(1/t), with W(t) =
    sum_w t^l(w) and P_gamma(t) = sum_K c_K t^K, c_K the number of listed
    partitions of gamma with K summands (the rank's listed table D).

    Packed, t^e to 2^(we): one product per split of t^|gamma0| P_gamma0(t)
    and t^|gammaInf| P_gammaInf(1/t), then one by W(t).  Each coefficient,
    of partial sums too, is at most the cell count n! pair(alpha), pair =
    sum_splits #P(gamma0) #P(gammaInf), which grows with alpha (adding a
    simple coroot is an injection on partitions): so w is the bit length
    of n! times the largest pair over the maximal weights of D.  A miss
    builds every weight of D not in the rank's table (_CELLS): once per
    sweep, or once per height in a loop that does not walk first.  Callers
    share the polynomials and must not mutate them.
    """
    n = len(alpha) + 1
    table = _CELLS.setdefault(n, {})
    if alpha not in table:
        listed = listed_profiles(alpha)
        weights = sorted(listed)
        up = lambda beta, i: beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
        tops = [beta for beta in weights if all(up(beta, i) not in listed for i in range(n - 1))]
        counts = {}
        for beta in weights:
            counts.setdefault(beta[:-1], []).append(sum(listed[beta].values()))
        width = (factorial(n) * max(_split_sums(counts, counts, tops))).bit_length()
        table.update(_cell_sums(n, listed, weights, [b for b in weights if b not in table], width))
    return table[alpha]
