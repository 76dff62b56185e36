"""Oracles of the tests: reference values that no command of the package needs.

Each one is a second, plainer route to something the package computes
another way: the partition-count DP beside the listing walk, the Cousin
sum one stratum at a time beside the packed recurrence, the series
product with the geometric inverse beside the in-place division, the
divided-power count read off the multiset of summands beside the
filtration routes, the two dimension vectors of a step list and a rep
beside the one-pass check of the filtration entry point, and the symbolic
filtration count on interval tuples beside the interned one.  The field
routes' oracle keeps each subspace as the set of its vectors; it lives
beside its tests in tests/test_quiverfilt.py.
None of them reads a route it checks: from the package they import only
the root data and the series arithmetic.
"""

from collections import Counter
from math import factorial, prod

from quasiflags.charseries import CharSeries, LaurentPoly
from quasiflags.rootdata import (
    coroot_intervals, dim_flag, height, interval_sum, iter_subvectors, weyl_poincare,
)


def pbw_expected(rep, exponents, order):
    """prod c_k! when the rep has c_k summands of the k-th coroot of order, else 0."""
    have = Counter(iv for ivs in rep.points for iv in ivs)
    if have != Counter({iv: c for iv, c in zip(order, exponents) if c}):
        return 0
    return prod(factorial(c) for c in exponents)


def steps_fill_rep(rep, steps):
    """True when the steps' dimension vector is the rep's, each summed by interval_sum."""
    summands = [iv for ivs in rep.points for iv in ivs]
    return interval_sum(rep.n, steps) == interval_sum(rep.n, summands)


def box_profiles(gamma):
    """{beta: {K: Kostant partitions of beta with K summands}} for every beta <= gamma.

    One DP convolution over the box below gamma, fresh on every call and
    independent of the listing walk: for each coroot theta in canonical
    order and each beta in lexicographic order (which puts beta - theta
    first), f(beta)[K + 1] += f(beta - theta)[K].
    """
    box = list(iter_subvectors(gamma))
    profiles = {beta: {} for beta in box}
    profiles[box[0]][0] = 1  # the zero weight: the empty partition
    for q, p in coroot_intervals(len(gamma) + 1):
        for beta in box:
            if min(beta[q - 1 : p]):
                lower = beta[: q - 1] + tuple(b - 1 for b in beta[q - 1 : p]) + beta[p:]
                target = profiles[beta]
                for k, ways in profiles[lower].items():
                    target[k + 1] = target.get(k + 1, 0) + ways
    return profiles


def kostant_count_profile(gamma):
    """Summand-count profile {K: count} of gamma, from one DP over the box below it."""
    gamma = tuple(gamma)
    if min(gamma, default=0) < 0:
        raise ValueError("gamma must have nonnegative coordinates")
    return box_profiles(gamma)[gamma]


def lusztig_kostant_poly(alpha):
    """K_alpha(t) = t^{|alpha|} sum_{kappa} t^{-K(kappa)} as an even q-polynomial.

    >>> lusztig_kostant_poly((1, 1)).pretty()
    '1 + t'
    >>> lusztig_kostant_poly((0, 0)).pretty()
    '1'
    """
    profile = kostant_count_profile(alpha)
    return LaurentPoly.t_poly({height(alpha) - k: c for k, c in profile.items()})


def negate_exponents(poly):
    """The substitution q -> q^{-1} (equivalently t -> t^{-1}).

    >>> negate_exponents(LaurentPoly({3: 1, 1: 1})).pretty()
    'q^-3 + q^-1'
    """
    return LaurentPoly({-e: c for e, c in poly.terms.items()})


def stratum_poincare_compact(n, alpha, kappa):
    """Compactly supported Poincare polynomial of the defect-kappa stratum.

    Equals t^{dimB + 2|alpha| - ||kappa|| - K(kappa)}
           * K_{alpha - |kappa|}(1/t) * W_n(1/t).
    The reference for laumon_poincare, which groups strata by (|kappa|, K).
    """
    alpha = tuple(alpha)
    weight = kappa.weight()
    rest = tuple(a - g for a, g in zip(alpha, weight))
    if any(c < 0 for c in rest):
        raise ValueError("stratum requires |kappa| <= alpha coordinatewise")
    lead = dim_flag(n) + 2 * height(alpha) - height(weight) - kappa.num_summands()
    kinv = negate_exponents(lusztig_kostant_poly(rest))
    return (kinv * negate_exponents(weyl_poincare(n))).shift(2 * lead)


def series_product(a, b):
    """The product of two character series of one rank and bound, truncated at the bound."""
    if (a.rank, a.bound) != (b.rank, b.bound):
        raise ValueError("series of different ranks or bounds")
    out = {}
    for alpha, pa in a.coeffs.items():
        for beta, pb in b.coeffs.items():
            if sum(alpha) + sum(beta) <= a.bound:
                ab = tuple(x + y for x, y in zip(alpha, beta))
                out[ab] = out.get(ab, LaurentPoly()) + pa * pb
    return CharSeries(a.rank, a.bound, out)


def truncate(series, bound):
    """The restriction of a series to a total-degree bound no larger than its own."""
    if bound > series.bound:
        raise ValueError("cannot extend a truncated series")
    return CharSeries(series.rank, bound, series.coeffs)


def series_at_one(series):
    """{alpha: coefficient at q = 1} over the support, zeros dropped."""
    values = {alpha: poly.eval_at_one() for alpha, poly in series.coeffs.items()}
    return {alpha: value for alpha, value in values.items() if value}


def geometric_inverse(coeff, theta, bound):
    """Expansion of (1 - coeff * e^theta)^{-1} up to total degree `bound`.

    coeff must be a monomial LaurentPoly; theta must have
    |theta| >= 1 so that the expansion terminates at the bound.  The
    package divides in place (CharSeries.divide_geometric); this product
    is the reference the division is tested against.
    """
    theta = tuple(theta)
    if sum(theta) < 1:
        raise ValueError("cannot invert along a direction with |theta| = 0")
    if len(coeff.terms) != 1:
        raise ValueError("geometric factor coefficient must be a monomial")
    out = {}
    power = LaurentPoly({0: 1})
    for k in range(bound // sum(theta) + 1):
        out[tuple(k * x for x in theta)] = power
        power = power * coeff
    return CharSeries(len(theta), bound, out)


def tuple_keyed_symbolic_count(rep, steps):
    """The symbolic filtration count with each point state kept as its interval tuple.

    The reference for quiverfilt.count_filtrations_symbolic, which names
    the same point states by interned ids and memoizes their peels for
    the process; this one re-derives every peel from the tuples and
    memoizes per call only.

    At each step [q,p] (peeling from the top of the chain) and each
    point, each head summand [q,b] with b >= p gives one sub: the point
    with that summand cut to its tail [p+1,b].  Equal heads give one sub
    each.  Of equal points one is peeled, and its count taken once per
    point.
    """
    memo = {}

    def rec(k, state):
        # state: sorted tuple of per-point sorted interval tuples, whose
        # total dimension fixes k, as every step has positive dimension
        if k < 0:
            return 1
        if state in memo:
            return memo[state]
        q, p = steps[k]
        total = 0
        for i, at_x in enumerate(state):
            if i and state[i - 1] == at_x:
                continue  # counted with the first of its equal points
            for j, (a, b) in enumerate(at_x):
                if a != q or b < p:
                    continue
                rest = list(at_x[:j] + at_x[j + 1 :])
                if p < b:
                    rest.append((p + 1, b))
                peeled = state[:i] + (tuple(sorted(rest)),) + state[i + 1 :]
                total += state.count(at_x) * rec(k - 1, tuple(sorted(peeled)))
        memo[state] = total
        return total

    count = rec(len(steps) - 1, rep.points)
    del rec  # rec's closure holds rec: break the cycle, so the memo goes now
    return count
