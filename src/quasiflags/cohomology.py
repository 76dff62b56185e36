"""Poincare polynomials of quasiflag spaces and the global generating function.

The space of degree-alpha quasiflags is smooth projective of dimension
2|alpha| + dim(flag variety); it is stratified by the defect type kappa
at the marked point, and the compactly supported cohomology of a stratum
is pure, so the Poincare polynomial of the whole space is the plain sum
of the stratum polynomials (the Cousin sum).  laumon_poincare groups the
strata by (|kappa|, K(kappa)), all a stratum polynomial depends on, sums
them in packed plain integers (Kronecker substitution, one bignum product
per defect weight, each profile packed once per weight and slot width),
and is tested against the per-stratum stratum_poincare_compact.  The
closed form collects all degrees at once, in CharSeries and LaurentPoly
arithmetic, which the Cousin sum never uses:

    e^{2rho} * q^{-dim B} * W_n(t) / prod_{theta>0} (1-t e^theta)(1-1/t e^theta)

with the coefficient of e^{alpha+2rho} equal to the recentered Poincare
polynomial of the degree-alpha space; it divides by each factor in place
(CharSeries.divide_geometric).  verify_generating_function checks that
identity coefficient by coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import mul

from .charseries import CharSeries, LaurentPoly
from .kostant import _profile_table, list_up_to, listed_profiles, lusztig_kostant_poly
from .reports import FAIL, PASS, THEOREM, Entry, Report
from .rootdata import (
    dim_flag,
    height,
    iter_subvectors,
    positive_coroots,
    two_rho,
    vectors_up_to,
    weyl_poincare,
)


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
    kinv = lusztig_kostant_poly(rest).negate_exponents()
    return (kinv * weyl_poincare(n).negate_exponents()).shift(2 * lead)


def _pack(coeffs, width, top=None):
    """sum_K c_K 2^(width K), or 2^(width (top - K)) when top is given."""
    if top is None:
        return sum(c << (width * k) for k, c in coeffs.items())
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


@lru_cache(maxsize=None)
def _packed_dp(beta, width):
    """t^{|beta|} A_beta(t) packed: sum a_K 2^(width (|beta| + K)).

    A_beta is read from the rank's shared DP table, which must hold beta.
    """
    return _pack(_profile_table(beta)[beta][-1], width) << (width * height(beta))


@lru_cache(maxsize=None)
def _packed_listed(gamma, width):
    """t^{|gamma|} Q_gamma(1/t) packed: sum c_K 2^(width (|gamma| - K)), c_K listed."""
    return _pack(listed_profiles(gamma)[gamma], width, height(gamma))


@lru_cache(maxsize=None)
def _dp_count(beta):
    """#P(beta) from the rank's shared DP table, which must hold beta."""
    return sum(_profile_table(beta)[beta][-1].values())


@lru_cache(maxsize=None)
def laumon_poincare(alpha):
    """Poincare polynomial of the degree-alpha quasiflag space (in t).

    The Cousin sum grouped by defect weight:
    t^{d - |alpha|} W(1/t) sum_{gamma <= alpha} A_{alpha-gamma}(t) Q_gamma(1/t),
    with d = dimB + 2|alpha|, A_beta(t) = sum_K a_K t^K the DP profile of
    beta (read from the rank's shared DP table, grown to the box below
    alpha) and Q_gamma(t) = sum_K c_K t^K the listed profile of gamma,
    c_K the number of its Kostant partitions with K summands (read from
    the rank's listed table, walked to the box below alpha).

    The sum is taken in plain integers by Kronecker substitution.  With
    t^{|alpha|} = t^{|alpha-gamma|} t^{|gamma|}, a term is the product of
    t^{|beta|} A_beta(t), packed to sum a_K 2^{w(|beta|+K)}, and
    t^{|gamma|} Q_gamma(1/t), packed to sum c_K 2^{w(|gamma|-K)}; both
    depend only on their weight and the slot width w, so each is packed
    once per (weight, w) in a process.  W(1/t) packs to
    sum w_l 2^{w(dimB-l)}, so slot e of the product is the coefficient
    of t^e.  Every coefficient is nonnegative, so each one, in every
    partial sum too, is at most the total at t=1, the Euler characteristic
    n! sum_gamma #P(alpha-gamma) #P(gamma); a slot of its bit length
    cannot carry into the next.  alpha is a tuple; the polynomial is
    computed once per alpha in a process.  No cap applies here: the CLI
    bounds |alpha| where it reads the vector.

    >>> laumon_poincare((1,)).pretty()
    '1 + t + t^2 + t^3'
    >>> laumon_poincare((1, 0)).pretty()
    '1 + 2*t + 3*t^2 + 3*t^3 + 2*t^4 + t^5'
    """
    n = len(alpha) + 1
    _profile_table(alpha)  # grows the rank's DP table to the box below alpha
    listed = listed_profiles(alpha)
    box = list(iter_subvectors(alpha))
    # the box reversed is alpha - gamma, gamma in box order
    rests = box[::-1]
    weyl = {e // 2: c for e, c in weyl_poincare(n).terms.items()}
    # the value at t=1; W(1) = n!
    euler = sum(weyl.values()) * sum(
        map(mul, map(_dp_count, rests), (sum(listed[gamma].values()) for gamma in box))
    )
    width = euler.bit_length()
    # sum_gamma packed A_{alpha-gamma} * packed Q_gamma
    total = sum(
        map(mul, map(_packed_dp, rests, repeat(width)), map(_packed_listed, box, repeat(width)))
    )
    total *= _pack(weyl, width, dim_flag(n))
    return LaurentPoly.t_poly(_unpack(total, width))


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
    t, tinv = LaurentPoly.t_power(1), LaurentPoly.t_power(-1)
    for theta in positive_coroots(n):
        series = series.divide_geometric(t, theta).divide_geometric(tinv, theta)
    return series


def verify_generating_function(n, bound):
    """Compare closed-form coefficients with the Cousin-sum polynomials.

    For every alpha with |alpha + 2rho| <= bound the coefficient of
    e^{alpha+2rho} must equal shifted_poincare(alpha), exactly.
    """
    rho2 = two_rho(n)
    closed = generating_function(n, bound)
    list_up_to(n, bound - height(rho2))  # one listing walk for the whole sweep
    entries = []
    for alpha in vectors_up_to(n - 1, bound - height(rho2)):
        lhs = closed.coefficient(tuple(x + y for x, y in zip(alpha, rho2)))
        rhs = shifted_poincare(alpha)
        ok = lhs == rhs
        details = {}
        if not ok:
            details = {"closed_form": lhs.to_json(), "cousin_sum": rhs.to_json()}
        entries.append(
            Entry(
                case={"alpha": list(alpha)},
                status=PASS if ok else FAIL,
                category=THEOREM,
                details=details,
            )
        )
    return Report(
        name="genfunc", params={"n": n, "degree": bound}, entries=entries
    )
