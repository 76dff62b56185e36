"""Root-system data for type A_{n-1}.

Simple coroots are indexed by I = {1, ..., n-1}.  A coroot vector is a
plain tuple of n-1 nonnegative integers.  Positive coroots are the
interval sums i_q + i_{q+1} + ... + i_p for 1 <= q <= p <= n-1; the
canonical order on them is lexicographic in (q, p).

The Weyl group is S_n with length = number of inversions.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, permutations, product

from .charseries import LaurentPoly

WEYL_ENUMERATION_CAP = 8


class RankError(ValueError):
    """Raised for ranks outside the supported range (n >= 2)."""


class ResourceCapError(ValueError):
    """Raised when an enumeration would exceed its configured cap."""


def _check_rank(n):
    if n < 2:
        raise RankError(f"rank parameter n must be >= 2, got {n}")


@lru_cache(maxsize=None)
def coroot_intervals(n):
    """All pairs (q, p) with 1 <= q <= p <= n-1, in canonical order."""
    _check_rank(n)
    return tuple((q, p) for q in range(1, n) for p in range(q, n))


def interval_sum(n, intervals):
    """Coordinate vector of the sum of the coroots of (q, p) intervals, with repetition.

    >>> interval_sum(4, [(1, 2), (2, 3), (2, 2)])
    (1, 3, 1)
    """
    # each interval adds 1 on coordinates q..p: a difference array, summed once
    diff = [0] * n
    for q, p in intervals:
        diff[q - 1] += 1
        diff[p] -= 1
    return tuple(accumulate(diff[:-1]))


def interval_to_coroot(n, q, p):
    """Coordinate vector of the positive coroot i_q + ... + i_p."""
    if not 1 <= q <= p <= n - 1:
        raise ValueError(f"bad coroot interval ({q},{p}) for n={n}")
    return interval_sum(n, [(q, p)])


@lru_cache(maxsize=None)
def positive_coroots(n):
    """All n(n-1)/2 positive coroots as vectors, in canonical order."""
    return tuple(interval_to_coroot(n, q, p) for q, p in coroot_intervals(n))


@lru_cache(maxsize=None)
def two_rho(n):
    """Sum of all positive coroots; coordinate i equals i*(n-i)."""
    return interval_sum(n, coroot_intervals(n))


def height(alpha):
    """|alpha| = sum of the coordinates."""
    return sum(alpha)


def vectors_up_to(length, cap):
    """Nonnegative integer vectors of `length` with |v| <= cap, in (|v|, lex) order.

    Yields nothing when cap < 0.

    >>> list(vectors_up_to(2, 1))
    [(0, 0), (0, 1), (1, 0)]
    """

    def with_sum(slots, total):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in with_sum(slots - 1, total - first):
                yield (first,) + rest

    for total in range(cap + 1):
        yield from with_sum(length, total)


def iter_subvectors(alpha):
    """All vectors gamma <= alpha coordinatewise (the box below alpha), lexicographic.

    Each gamma comes after gamma - theta for every coroot theta that fits
    below it, so a recurrence in theta can fill the box in one pass.  Read
    backwards, the box is alpha - gamma in the same order.

    >>> list(iter_subvectors((1, 2)))
    [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    """
    return product(*(range(a + 1) for a in alpha))


def dim_flag(n):
    """Dimension n(n-1)/2 of the complete flag variety."""
    _check_rank(n)
    return n * (n - 1) // 2


def pairing(i, beta):
    """Cartan pairing <i', beta> = 2b_i - b_{i-1} - b_{i+1}.

    i' is the simple root dual to the simple coroot i; beta is a coroot
    vector of any rank.  Missing neighbours count as zero.
    """
    rank = len(beta)
    if not 1 <= i <= rank:
        raise ValueError(f"simple-root index {i} out of range 1..{rank}")
    b = lambda j: beta[j - 1] if 1 <= j <= rank else 0
    return 2 * b(i) - b(i - 1) - b(i + 1)


class WeylElement(namedtuple("WeylElement", "perm length")):
    """A permutation of {1..n} in one-line notation, with its length."""

    __slots__ = ()


def inversions(perm):
    return sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )


@lru_cache(maxsize=None)
def weyl_elements(n):
    """All n! permutations with inversion counts, in lexicographic order."""
    if n < 1:
        raise RankError(f"n must be >= 1, got {n}")
    if n > WEYL_ENUMERATION_CAP:
        raise ResourceCapError(
            f"Weyl enumeration cap {WEYL_ENUMERATION_CAP} exceeded by n={n}"
        )
    return tuple(
        WeylElement(perm=w, length=inversions(w))
        for w in permutations(range(1, n + 1))
    )


@lru_cache(maxsize=None)
def weyl_poincare(n):
    """Length generating function sum_{w in S_n} t^{l(w)}.

    Computed by the t-factorial product prod_{k=1}^{n} (1 + t + ... + t^{k-1}).
    """
    if n < 1:
        raise RankError(f"n must be >= 1, got {n}")
    poly = LaurentPoly({0: 1})
    for k in range(1, n + 1):
        poly = poly * LaurentPoly({2 * j: 1 for j in range(k)})
    return poly
