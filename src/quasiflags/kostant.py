"""Kostant partitions: enumeration, statistics and summand-count profiles.

A Kostant partition of a coroot vector gamma is a multiset of positive
coroots summing to gamma, stored as multiplicities along the canonical
interval order.

The listing is one walk over a downward-closed set of weights (the box
below alpha, or a sweep's simplex), which visits each partition once and
adds it to its weight's summand-count profile.  Only listed_profiles and
list_up_to keep a walk's profiles, in the listed table D, the module's
one store.  The tests check the profiles against an independent DP
convolution, which lives with the other oracles in tests/oracles.py.
"""

from collections import namedtuple
from itertools import chain, repeat

from .rootdata import coroot_intervals, height, interval_sum, iter_subvectors, vectors_up_to


class KostantPartition(namedtuple("KostantPartition", "n mults")):
    """Multiset of positive coroots, as multiplicities in canonical order.

    mults[k] is the multiplicity of the k-th interval of
    coroot_intervals(n).
    """

    __slots__ = ()

    def __new__(cls, n, mults):
        if len(mults) != len(coroot_intervals(n)):
            raise ValueError("multiplicity vector has wrong length")
        if min(mults, default=0) < 0:
            raise ValueError("multiplicities must be nonnegative")
        return super().__new__(cls, n, mults)

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
        return list(chain.from_iterable(map(repeat, coroot_intervals(self.n), self.mults)))

    def to_json(self):
        """Nonzero summands as [{"coroot": [q, p], "mult": m}, ...]."""
        return [
            {"coroot": [q, p], "mult": m}
            for (q, p), m in zip(coroot_intervals(self.n), self.mults)
            if m
        ]


def _checked(gamma):
    gamma = tuple(gamma)
    if any(a < 0 for a in gamma):
        raise ValueError("gamma must have nonnegative coordinates")
    return gamma


def kostant_partitions(gamma):
    """All Kostant partitions of gamma, lexicographic in the multiplicity vector.

    gamma is a coroot vector for rank n = len(gamma) + 1.  Each call walks
    the box below gamma, stores nothing and returns a fresh list.  Nothing
    here bounds |gamma|: the CLI checks the weight cap where a vector comes in.

    >>> [kappa.intervals() for kappa in kostant_partitions((1, 1))]
    [[(1, 2)], [(1, 1), (2, 2)]]
    >>> [kappa.num_summands() for kappa in kostant_partitions((2, 1))]
    [2, 3]
    """
    gamma = _checked(gamma)
    return _walk(gamma, height(gamma), [gamma])[1][gamma]


def partitions_below(alpha):
    """{beta: kostant_partitions(beta)} in the box below alpha, in order, from one walk."""
    alpha = _checked(alpha)
    return _walk(alpha, height(alpha), iter_subvectors(alpha))[1]


# rank n -> {beta: {K: listed Kostant partitions of beta with K summands}}
_LISTED = {}


def _walk(top, cap, keep):
    """List the Kostant partitions of each weight beta <= top with |beta| <= cap.

    Those weights are downward closed, so the walk is one tree whose nodes
    are the partitions, with no dead branch.  A child adds m copies of a
    coroot after its parent's last one: coroots from the last back, m
    upwards, so each weight's partitions come in lexicographic order.
    Each node adds one to its weight's profile {K: count}.  Returns, and
    stores neither, ({beta: profile} over the walk, {beta: partitions} for beta in keep).
    """
    n = len(top) + 1
    intervals = coroot_intervals(n)
    # the coroots that fit, last first; a node is keyed by its slack top - beta
    fits = [(k, q - 1, p, p - q + 1) for k, (q, p) in enumerate(intervals) if p - q < cap]
    fits = [(k, lo, hi, length) for k, lo, hi, length in reversed(fits) if min(top[lo:hi]) > 0]
    mirror = lambda v: tuple(t - c for t, c in zip(top, v))  # slack <-> weight
    profiles = {}
    leaves = {mirror(beta): [] for beta in keep}
    mults = [0] * len(intervals)

    def visit(stop, slack, spare, k):
        profile = profiles.setdefault(slack, {})
        profile[k] = profile.get(k, 0) + 1
        if slack in leaves:
            leaves[slack].append(KostantPartition(n, tuple(mults)))
        for j in range(stop):
            idx, lo, hi, length = fits[j]
            for m in range(1, min(spare // length, *slack[lo:hi]) + 1):
                mults[idx] = m
                child = slack[:lo] + tuple(s - m for s in slack[lo:hi]) + slack[hi:]
                visit(j, child, spare - m * length, k + m)
            mults[idx] = 0

    visit(len(fits), tuple(top), cap, 0)
    del visit  # visit's closure holds visit: break the cycle, so the profiles go now
    return {mirror(s): p for s, p in profiles.items()}, {mirror(s): v for s, v in leaves.items()}


def _list(top, cap):
    """Walk the weights beta <= top with |beta| <= cap into the rank's listed table."""
    _LISTED.setdefault(len(top) + 1, {}).update(_walk(top, cap, ())[0])


def listed_profiles(alpha):
    """The rank's table {beta: {K: listed partitions of beta with K summands}}.

    A union of walked regions, so downward closed: it holds the box below
    alpha once it holds alpha.  A miss walks that box, or all weights of
    height <= |alpha| if it holds those below |alpha|: so a loop over
    vectors_up_to walks once per height.  It lives for the process;
    callers share it.
    """
    n = len(alpha) + 1
    table = _LISTED.get(n, {})
    if alpha not in table:
        cap = height(_checked(alpha))
        below = all(beta in table for beta in vectors_up_to(n - 1, cap - 1))
        _list((cap,) * (n - 1) if below else alpha, cap)
    return _LISTED[n]


def list_up_to(n, cap):
    """Walk the weights of height <= cap into the listed table, unless it holds them."""
    table = _LISTED.get(n, {})
    if not all(beta in table for beta in vectors_up_to(n - 1, cap)):
        _list((cap,) * (n - 1), cap)
