"""Kostant partitions: enumeration, statistics, and the partition-count polynomial.

A Kostant partition of a coroot vector gamma is a multiset of positive
coroots summing to gamma, stored as multiplicities along the canonical
interval order.  Besides the partitions themselves this module gives
their summand-count profile two independent ways (from the enumeration,
and by a DP convolution) and, from the DP profile, the polynomial
K_alpha(t) = t^{|alpha|} * sum_kappa t^{-K(kappa)} whose value at t=1 is
the Kostant partition count.

Both routes compute each weight once per process.  The listing is cached
per gamma, and its recursion drops a branch at the last coroot through
a coordinate it cannot clear.  The DP keeps one shared table per rank, grown on demand to
the box below each gamma asked for: a downward-closed union of boxes,
never a whole simplex.  Neither route reads the other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .charseries import LaurentPoly
from .rootdata import coroot_intervals, height, interval_sum, iter_subvectors


@dataclass(frozen=True)
class KostantPartition:
    """Multiset of positive coroots, as multiplicities in canonical order.

    mults[k] is the multiplicity of the k-th interval of
    coroot_intervals(n).
    """

    n: int
    mults: tuple

    def __post_init__(self):
        intervals = coroot_intervals(self.n)
        if len(self.mults) != len(intervals):
            raise ValueError("multiplicity vector has wrong length")
        if min(self.mults, default=0) < 0:
            raise ValueError("multiplicities must be nonnegative")

    @classmethod
    def empty(cls, n):
        return cls(n, (0,) * len(coroot_intervals(n)))

    @classmethod
    def from_intervals(cls, n, intervals):
        """Build from an iterable of (q, p) pairs (with repetition)."""
        index = {iv: k for k, iv in enumerate(coroot_intervals(n))}
        mults = [0] * len(index)
        for iv in intervals:
            mults[index[tuple(iv)]] += 1
        return cls(n, tuple(mults))

    def weight(self):
        """|kappa|: the coroot vector the partition sums to."""
        return interval_sum(self.n, self.intervals())

    def norm(self):
        """||kappa|| = |weight|."""
        return height(self.weight())

    def num_summands(self):
        """K(kappa): the number of coroot summands with multiplicity."""
        return sum(self.mults)

    def intervals(self):
        """The summands as (q, p) pairs, with repetition, canonical order."""
        out = []
        for (q, p), m in zip(coroot_intervals(self.n), self.mults):
            out.extend([(q, p)] * m)
        return out

    def to_json(self):
        """Nonzero summands as [{"coroot": [q, p], "mult": m}, ...]."""
        return [
            {"coroot": [q, p], "mult": m}
            for (q, p), m in zip(coroot_intervals(self.n), self.mults)
            if m
        ]


def stats(kappa):
    """(|kappa|, ||kappa||, K(kappa))."""
    return kappa.weight(), kappa.norm(), kappa.num_summands()


def _checked(gamma):
    gamma = tuple(gamma)
    if any(a < 0 for a in gamma):
        raise ValueError("gamma must have nonnegative coordinates")
    return gamma


def kostant_partitions(gamma):
    """All Kostant partitions of gamma, lexicographic in the multiplicity vector.

    gamma is a coroot vector for rank n = len(gamma) + 1.  The
    enumeration runs once per gamma; every call returns a fresh list.
    Nothing here bounds |gamma|: the CLI checks the weight cap where a
    vector comes in.

    >>> [kappa.intervals() for kappa in kostant_partitions((1, 1))]
    [[(1, 2)], [(1, 1), (2, 2)]]
    >>> [kappa.num_summands() for kappa in kostant_partitions((2, 1))]
    [2, 3]
    """
    return list(_enumerate_partitions(_checked(gamma)))


@lru_cache(maxsize=None)
def _enumerate_partitions(gamma):
    n = len(gamma) + 1
    intervals = coroot_intervals(n)
    results = []
    mults = [0] * len(intervals)

    def descend(idx, remaining):
        if not any(remaining):
            results.append(KostantPartition(n, tuple(mults)))
            return
        # a coroot that cannot fit takes multiplicity 0: step past it here,
        # so the depth is the number of coroots that fit, not all of them
        while True:
            if idx == len(intervals):
                return
            q, p = intervals[idx]
            limit = min(remaining[q - 1 : p])
            # (q, n-1) is the last coroot through coordinate q: it must clear it
            last = p == n - 1
            if last and remaining[q - 1] > limit:
                return
            if limit:
                break
            idx += 1
        for m in range(limit if last else 0, limit + 1):
            mults[idx] = m
            rem = list(remaining)
            for i in range(q - 1, p):
                rem[i] -= m
            descend(idx + 1, rem)
        mults[idx] = 0

    descend(0, list(gamma))
    return tuple(results)


# rank n -> {beta: [profile of beta over the first i coroots, i = 0..L]}
_PROFILES = {}


def _profile_table(gamma):
    """The rank's shared table, grown to hold every beta <= gamma.

    Maps beta to its layers: entry i is the profile {K: Kostant partitions
    with K summands} of beta using only the first i coroots of the
    canonical list, so entry -1 is the full profile.  One DP convolution
    along the coroot list, f(i, beta) = f(i-1, beta) + x f(i, beta - theta_i),
    independent of the recursive enumeration above.

    The table lives for the process, one per rank, and each weight is
    computed once.  It only ever holds the boxes below the gammas asked
    for, so it is downward closed but never a whole simplex (the box below
    (6, 0, ..., 0) at n = 50 is 7 weights).  Callers share the profiles
    and must not mutate them.
    """
    n = len(gamma) + 1
    table = _PROFILES.setdefault(n, {})
    if gamma in table:
        # a downward-closed table that holds gamma holds its box
        return table
    intervals = coroot_intervals(n)
    # lexicographic order: each beta - theta_i is stored before beta
    for beta in iter_subvectors(gamma):
        if beta in table:
            continue
        layer = {0: 1} if not any(beta) else {}
        layers = [layer]
        for i, (q, p) in enumerate(intervals, 1):
            if min(beta[q - 1 : p]):
                lower = beta[: q - 1] + tuple(b - 1 for b in beta[q - 1 : p]) + beta[p:]
                layer = dict(layer)
                for k, ways in table[lower][i].items():
                    layer[k + 1] = layer.get(k + 1, 0) + ways
            layers.append(layer)
        table[beta] = layers
    return table


def kostant_count_profile(gamma):
    """Summand-count profile of K(gamma) via the DP convolution, as a fresh dict."""
    gamma = _checked(gamma)
    return dict(_profile_table(gamma)[gamma][-1])


@lru_cache(maxsize=None)
def _enumerated_profile(gamma):
    """Map K -> number of listed Kostant partitions of gamma with K summands.

    Counted once per gamma (a tuple, not checked); callers share the
    Counter and must not mutate it.
    """
    return Counter(kappa.num_summands() for kappa in _enumerate_partitions(gamma))


def kostant_count(gamma):
    """Number of Kostant partitions of gamma (read from the shared DP table)."""
    return sum(kostant_count_profile(gamma).values())


def lusztig_kostant_poly(alpha):
    """K_alpha(t) = t^{|alpha|} sum_{kappa} t^{-K(kappa)} as an even q-polynomial.

    >>> lusztig_kostant_poly((1, 1)).pretty()
    '1 + t'
    >>> lusztig_kostant_poly((0, 0)).pretty()
    '1'
    """
    alpha = _checked(alpha)
    profile = kostant_count_profile(alpha)
    return LaurentPoly.t_poly({height(alpha) - k: c for k, c in profile.items()})
