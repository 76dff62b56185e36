"""Two routes to the Poincare polynomials of quasiflag spaces.

This module holds routes only; suites.run_genfunc compares them.

The space of degree-alpha quasiflags is smooth projective of dimension
2|alpha| + dim(flag variety); it is stratified by the defect type kappa
at the marked point, and the compactly supported cohomology of a stratum
is pure, so the Poincare polynomial of the whole space is the plain sum
of the stratum polynomials (the Cousin sum).  laumon_poincare groups the
strata by (|kappa|, K(kappa)), all a stratum polynomial depends on, and
sums them in packed plain integers (Kronecker substitution): one
shift-add recurrence per rank over the listed downset gives the sums of
every alpha in it at once, with no product and no call of the DP, into
one table of polynomials per rank, as the cell sum's is.
The tests check it against the sum taken one stratum at a time
(tests/oracles.py).  The closed form collects all degrees at once, in
CharSeries and LaurentPoly arithmetic, which the Cousin sum never uses:

    e^{2rho} * q^{-dim B} * W_n(t) / prod_{theta>0} (1-t e^theta)(1-1/t e^theta)

with the coefficient of e^{alpha+2rho} equal to the recentered Poincare
polynomial of the degree-alpha space; it divides by each factor in place
(CharSeries.divide_geometric).
"""

from functools import lru_cache
from math import factorial
from operator import sub

from .charseries import CharSeries, LaurentPoly
from .kostant import listed_profiles
from .rootdata import (
    dim_flag,
    height,
    positive_coroots,
    two_rho,
    weyl_poincare,
)


def _pack(coeffs, width, top):
    """sum_K c_K 2^(width (top - K)): t^top times the polynomial at 1/t."""
    return sum(c << (width * (top - k)) for k, c in coeffs.items())


def _unpack(packed, width):
    """{slot: value} for the nonzero `width`-bit slots of a packed integer."""
    mask = (1 << width) - 1
    out = {}
    slot = 0
    while packed:
        value = packed & mask
        if value:
            out[slot] = value
        packed >>= width
        slot += 1
    return out


# rank n -> {beta: laumon_poincare(beta)} over the listed table
_COUSIN = {}


def _downset_steps(n, weights):
    """Per coroot theta that fits, canonical order: (|theta| + 1, pairs (i, j)).

    weights is downward closed and in lexicographic order; weights[j] =
    weights[i] - theta, so j < i.
    """
    index = {beta: i for i, beta in enumerate(weights)}
    steps = []
    for theta in positive_coroots(n):
        lowers = (index.get(tuple(map(sub, beta, theta))) for beta in weights)
        pairs = [(i, j) for i, j in enumerate(lowers) if j is not None]
        if pairs:
            steps.append((height(theta) + 1, pairs))
    return steps


def _cousin_sums(listed, weights, steps, width):
    """Packed T(beta) = t^{|beta|} sum_gamma A_{beta-gamma}(t) Q_gamma(1/t), per weight.

    Seeded with the packed listed profiles t^{|beta|} Q_beta(1/t), then
    T(beta) += t^{|theta|+1} T(beta - theta) for each coroot theta and
    each beta in lexicographic order.  A coroot's pass divides by
    1 - t^{|theta|+1} e^theta, and the product of those inverses over
    theta is sum_beta t^{|beta|} A_beta(t) e^beta.  A list aligned with
    weights; width 0 gives the values at t=1.
    """
    sums = [_pack(listed[beta], width, height(beta)) for beta in weights]
    for length, pairs in steps:
        shift = width * length
        for i, j in pairs:
            sums[i] += sums[j] << shift
    return sums


def laumon_poincare(alpha):
    """Poincare polynomial of the degree-alpha quasiflag space (in t).

    The Cousin sum grouped by defect weight:
    t^{d - |alpha|} W(1/t) sum_{gamma <= alpha} A_{alpha-gamma}(t) Q_gamma(1/t),
    with d = dimB + 2|alpha|, A_beta(t) = sum_K a_K t^K the profile of
    the Kostant partitions of beta by summand count, and Q_gamma(t) =
    sum_K c_K t^K the listed profile of gamma, c_K the number of its
    Kostant partitions with K summands (read from the rank's listed table).

    The sum is taken in plain integers by Kronecker substitution, t^e
    packed to 2^{we} for a slot width of w bits: t^{|alpha|} times the sum
    over gamma is T(alpha) of the rank's packed recurrence (_cousin_sums),
    and W(1/t) packs to sum w_l 2^{w(dimB-l)}, so slot e of their product
    is the coefficient of t^e.  Every coefficient is nonnegative, so each
    one, in every partial sum too, is at most the Euler characteristic
    chi(beta) = n! T(beta)(1); the recurrence run at t=1 gives T(beta)(1)
    for every beta, and no slot of the bit length of the largest chi
    carries into the next.  A miss builds every weight of the listed table
    D that the rank's table (_COUSIN) lacks: once per sweep, which walks
    first, or once per height in a loop that does not.  Callers share the
    polynomials and must not mutate them.  alpha is a tuple.  No cap
    applies here: the CLI bounds |alpha| where it reads the vector.

    >>> laumon_poincare((1,)).pretty()
    '1 + t + t^2 + t^3'
    >>> laumon_poincare((1, 0)).pretty()
    '1 + 2*t + 3*t^2 + 3*t^3 + 2*t^4 + t^5'
    """
    n = len(alpha) + 1
    table = _COUSIN.setdefault(n, {})
    if alpha not in table:
        listed = listed_profiles(alpha)
        weights = sorted(listed)
        steps = _downset_steps(n, weights)
        # chi(beta) = n! T(beta)(1) bounds every coefficient, partial sums too
        width = (factorial(n) * max(_cousin_sums(listed, weights, steps, 0))).bit_length()
        weyl = _pack({e // 2: c for e, c in weyl_poincare(n).terms.items()}, width, dim_flag(n))
        for beta, total in zip(weights, _cousin_sums(listed, weights, steps, width)):
            if beta not in table:
                table[beta] = LaurentPoly.t_poly(_unpack(total * weyl, width))
    return table[alpha]


def shifted_poincare(alpha):
    """laumon_poincare recentered around degree zero: multiply by q^{-dim}."""
    alpha = tuple(alpha)
    d = dim_flag(len(alpha) + 1) + 2 * height(alpha)
    return laumon_poincare(alpha).shift(-d)


@lru_cache(maxsize=None)
def generating_function(n, bound):
    """Closed-form generating function as a CharSeries truncated at `bound`.

    Expansion of e^{2rho} q^{-dimB} W_n(t)
    * prod_{theta in R+} (1 - t e^theta)^{-1} (1 - t^{-1} e^theta)^{-1},
    dividing by each factor in place.
    Built once per (n, bound) in a process; every caller shares the one
    series, so none may mutate it.
    """
    rank = n - 1
    rho2 = two_rho(n)
    series = CharSeries.monomial(
        rank, bound, rho2, weyl_poincare(n).shift(-dim_flag(n))
    )
    for theta in positive_coroots(n):  # t = q^2
        series = series.divide_geometric(theta, 2).divide_geometric(theta, -2)
    return series
