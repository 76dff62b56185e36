"""Filtration counting for torsion representations of the linear A-quiver.

A torsion representation here is a direct sum of interval indecomposables
placed at points: summand ([q,p], x) contributes a line at each vertex
q..p, with identity arrow maps inside the interval.  Subobjects split
point by point (a subsheaf of a sum of skyscrapers is the sum of its
parts), so only spaces at the same point can mix, and a count depends on
the points only as a grouping of summands.  TorsionRep.of drops the
labels: a rep is the sorted tuple of its points, each the sorted tuple
of its intervals.

count_filtrations counts increasing chains 0 = G_0 < G_1 < ... < G_m = T
of subrepresentations whose k-th subquotient G_k/G_{k-1} is isomorphic to
the interval module of the k-th step, concentrated at a single point.
The count is computed two independent ways:

  * a symbolic interval calculus at q = 1: quotienting an interval
    [q,b] by its head [q,p] leaves the tail [p+1,b], and a step peels
    each summand at the chosen point that starts at q and ends at or
    above p, in turn;
  * exhaustive linear algebra over F_2 and over F_3 in fixed coordinates,
    one per summand: a subrepresentation is a list of fully reduced
    constraint rows per vertex of its span, and each step adds the
    functional of one quotient map.

Both recursions count per state, not per chain: a count below step k
depends only on the multiset of point states, so each route starts from
rep.points and keeps one memo keyed on the sorted point states for the
length of a single call (a state's total dimension fixes k).  A state
holds live points only: a peel that leaves a point with nothing drops
the point, so the state below the last step is ().  Equal points peel
alike into distinct subobjects, so each route peels one of them and
multiplies by their number.  Each route names its point states by small
ints from its own process-wide id table, and keeps its own process-wide
table of peels, one dict per step that maps a point id to its peel: the
symbolic route's is keyed by the step (q, p), the field route's by the
step and the field, (q, p_end, p).  A call fetches the dicts of its
steps once (a step's dict is made on its first fetch only), and a miss
computes the peel and stores it; a field peel returns () before it
builds any functional when the step ends above the point's span or no
free summand can carry a functional's first entry.  The routes share no
table, no peel function, no sentinel and no id.

filtration_counts is the one entry point to the routes: it validates the
steps in one pass and the dimension cap once, and the routes trust its
steps.  It returns all three counts.  count_filtrations returns
NOT_RIGID (a result, not an error) when the two field counts differ, as
the family is then positive-dimensional; the symbolic count must agree.
commutator_constant is commute's route.  The module holds routes only:
the shapes and steps of each filtration identity are stated by the
runner in suites that checks it.
"""

from bisect import bisect_left
from collections import defaultdict, namedtuple
from functools import lru_cache
from itertools import chain
from itertools import product as iproduct
from operator import itemgetter

from .rootdata import ResourceCapError, interval_sum, pairing, two_rho

DEFAULT_DIMENSION_CAP = 8
BRUTE_FORCE_FIELDS = (2, 3)


class _NotRigidType:
    """The type of NOT_RIGID: the filtration family is not field-independent."""

    def __repr__(self):
        return "NOT_RIGID"


NOT_RIGID = _NotRigidType()


def is_rigid(result):
    return not isinstance(result, _NotRigidType)


class TorsionRep(namedtuple("TorsionRep", "n points")):
    """A torsion rep of the rank-n quiver as its label-free point grouping.

    points is the sorted tuple of points, each the sorted tuple of the
    (q, p) intervals of its summands: which label a point had does not
    change any count.
    """

    __slots__ = ()

    @classmethod
    def of(cls, n, summands):
        """Build from an iterable of ((q, p), label) pairs; labels only group."""
        pairs = []
        for iv, label in summands:
            q, p = iv
            if not 1 <= q <= p <= n - 1:
                raise ValueError(f"bad interval {iv} for n={n}")
            pairs.append(((q, p), label))
        pairs.sort(key=itemgetter(0))  # so each point collects its intervals sorted
        by_label = {}
        for iv, label in pairs:
            by_label[label] = by_label.get(label, ()) + (iv,)
        return cls(n, tuple(sorted(by_label.values())))


def _validate_steps(rep, steps):
    """rep's total dimension, once each step is in range and the steps add up to rep.

    Steps add 1 and summands take 1 on their intervals in one difference
    array, which is all zero iff the dimension vectors agree.
    """
    n, total = rep.n, 0
    diff = [0] * n
    for q, p in steps:
        if not 1 <= q <= p <= n - 1:
            raise ValueError(f"bad step interval ({q},{p}) for n={n}")
        diff[q - 1] += 1
        diff[p] -= 1
        total += p - q + 1
    for q, p in chain.from_iterable(rep.points):
        diff[q - 1] -= 1
        diff[p] += 1
    if any(diff):
        dim = interval_sum(n, chain.from_iterable(rep.points))
        raise ValueError(f"step dimensions {interval_sum(n, steps)} do not sum to dim T = {dim}")
    return total


# ---------------------------------------------------------------------------
# symbolic interval calculus


# A symbolic point state is the sorted, nonempty tuple of the point's
# intervals.  _symbolic_id names each one by its index in the
# process-wide id table of this route (_SYMBOLIC_STATES, with the reverse
# map _SYMBOLIC_IDS), so a call's state is a sorted tuple of ints.  A
# peel depends on the point state and the step alone: _SYMBOLIC_PEELS
# maps each step (q, p) to the dict {sid: subs} for the process, each
# sub the tuple of ids it adds back to the state: (sid',), or () when
# nothing is left of the point.  None of these is the field route's, and
# no id is shared.

_SYMBOLIC_STATES = []
_SYMBOLIC_IDS = {}
_SYMBOLIC_PEELS = defaultdict(dict)


def _symbolic_id(ivs):
    """The id of the symbolic point state ivs, added to the id table if new."""
    sid = _SYMBOLIC_IDS.get(ivs)
    if sid is None:
        sid = _SYMBOLIC_IDS[ivs] = len(_SYMBOLIC_STATES)
        _SYMBOLIC_STATES.append(ivs)
    return sid


def _peel_symbolic(sid, q, p):
    """The subs of point state sid with quotient [q, p], one per head summand.

    At q = 1 a family of chains counts by its Euler characteristic, that
    is by the chains that the torus scaling each summand fixes: chains of
    sums of subs of the summands.  Such a sub has quotient [q, p] iff it
    keeps every summand whole but one head [q, b], b >= p, of which it
    keeps the tail [p+1, b].  So each head gives one sub, equal heads one
    each, and a point with none gives ().
    """
    ivs = _SYMBOLIC_STATES[sid]
    subs = []
    for j, (a, b) in enumerate(ivs):
        if a == q and b >= p:
            rest = ivs[:j] + ivs[j + 1 :] + (((p + 1, b),) if p < b else ())
            subs.append((_symbolic_id(tuple(sorted(rest))),) if rest else ())
    return tuple(subs)


def count_filtrations_symbolic(rep, steps):
    """Interval-calculus count at q = 1.

    At each step (peeling from the top of the chain) each point is peeled
    by _peel_symbolic, read from the step's dict of _SYMBOLIC_PEELS, and
    the count sums over its subs as the field route sums over its own; an
    emptied point leaves the state.  The count below step k depends only
    on the multiset of point states, so each sorted tuple of point ids is
    counted once per call.  Of equal points one is peeled, and its count
    taken once per point.  The steps are trusted: filtration_counts has
    validated them.
    """
    memo = {}
    peels = [_SYMBOLIC_PEELS[step] for step in steps]

    def rec(k, state):
        # a state's total dimension fixes k, as every step has positive
        # dimension, so the memo is keyed on the state alone
        if k < 0:
            return 1
        total = memo.get(state)
        if total is not None:
            return total
        table = peels[k]
        total = 0
        for i, sid in enumerate(state):
            if i and state[i - 1] == sid:
                continue  # counted with the first of its equal points
            subs = table.get(sid)
            if subs is None:
                subs = table[sid] = _peel_symbolic(sid, *steps[k])
            if not subs:
                continue
            rest = state[:i] + state[i + 1 :]
            below = 0
            for sub in subs:
                below += rec(k - 1, tuple(sorted(rest + sub)) if sub else rest)
            total += state.count(sid) * below
        memo[state] = total
        return total

    count = rec(len(steps) - 1, tuple(sorted(map(_symbolic_id, rep.points))))
    del rec  # rec's closure holds rec: break the cycle, so the memo goes now
    return count


# ---------------------------------------------------------------------------
# finite-field brute force

# Fixed coordinates: at a point with summands ivs there is one coordinate
# per summand.  The space at vertex v is F_p on the summands covering v,
# and the arrow v -> v+1 keeps the coordinates of the summands that go on
# to v+1.  A subrepresentation at the point is a tuple of constraint rows
# per vertex of its span, 1..max b: the subspace at v is the common kernel
# of rows[v-1].  The rows are fully reduced and sorted by pivot: each row
# is 1 at its pivot, its first nonzero entry, and 0 at the pivots of all
# the other rows, so one row tuple stands for one subspace and a point
# state (ivs, rows) depends on neither labels nor n.  _point_id names each
# point state of positive dimension by its index in the process-wide id
# table (_POINT_STATES, with the reverse map _POINT_IDS), so a call's
# state is a sorted tuple of ints.  A peel depends on nothing else:
# _POINT_PEELS maps each step and field (q, p_end, p) to the dict
# {pid: subs} for the process, and count_filtrations_bruteforce memoizes
# per call on point-id multisets.  A sub of dimension 0 is not interned:
# it is _POINT_EMPTIED, the one sub of its peel, as distinct functionals
# give distinct kernels.

_POINT_STATES = []
_POINT_IDS = {}
_POINT_PEELS = defaultdict(dict)
_POINT_EMPTIED = -1  # a sub with nothing left: no id is negative


def _point_id(state):
    """The id of the point state (ivs, rows), added to the id table if new."""
    pid = _POINT_IDS.get(state)
    if pid is None:
        pid = _POINT_IDS[state] = len(_POINT_STATES)
        _POINT_STATES.append(state)
    return pid


def _peel_point(pid, q, p_end, p):
    """The ids of the subreps of point state pid with quotient iso to [q, p_end].

    A quotient map is fixed by its functional phi at p_end, up to a
    scalar: phi runs over the free (non-pivot) coordinates there with its
    first nonzero entry 1.  At each v in [q, p_end], phi less the summands
    that start above v (a suffix of ivs), reduced by the rows there, must
    be nonzero; normalized to 1 at its pivot j, it clears column j of the
    rows and joins them.  On the arrow into q it must vanish.  So phi's
    first entry is on a summand that starts at or below q, and at q if
    q - 1 has no rows (the arrow then needs no check): a step that ends
    above the rows or leaves no such entry has no sub, and one that takes
    all that is left has the one sub _POINT_EMPTIED.
    """
    ivs, rows = _POINT_STATES[pid]
    if p_end > len(rows):
        return ()
    at_end = rows[p_end - 1]
    pivots = {row.index(1) for row in at_end} if at_end else ()
    # (start, index) of each free coordinate, so sorted by start
    free = [(a, j) for j, (a, b) in enumerate(ivs) if a <= p_end <= b and j not in pivots]
    low = q - 1 if q > 1 and rows[q - 2] else q  # the first vertex checked
    begin = bisect_left(free, (q,)) if low == q else 0
    stop = bisect_left(free, (q + 1,))
    if begin >= stop:
        return ()
    zeros = [0] * len(ivs)
    subs, kept = [], None
    for first in range(begin, stop):
        for tail in iproduct(range(p), repeat=len(free) - first - 1):
            phi = zeros.copy()
            phi[free[first][1]] = 1
            for (_, j), c in zip(free[first + 1 :], tail):
                phi[j] = c
            new = list(rows)
            for v in range(low, p_end + 1):
                g, at = phi, rows[v - 1]
                if ivs[-1][0] > v:
                    k = bisect_left(ivs, (v + 1,))
                    g = phi[:k] + zeros[k:]
                for row in at:
                    c = g[row.index(1)]
                    if c:
                        g = [(x - c * y) % p for x, y in zip(g, row)]
                lead = next(filter(None, g), 0)  # the first nonzero entry
                if v < q:  # the arrow into q
                    if lead:
                        break
                    continue
                if not lead:
                    break
                j = g.index(lead)
                if lead != 1:
                    inv = pow(lead, p - 2, p)
                    g = [c * inv % p for c in g]
                level = [tuple(g)]
                for r in at:
                    c = r[j]
                    level.append(tuple((x - c * y) % p for x, y in zip(r, g)) if c else r)
                # a reduced row is 0 before its pivot and at the other rows'
                # pivots, so descending order is the order of the pivots
                level.sort(reverse=True)
                new[v - 1] = tuple(level)
            else:
                if kept is None:  # the dimension of a sub
                    kept = sum(b - a + 1 for a, b in ivs) - sum(map(len, rows)) - (p_end - q + 1)
                subs.append(_point_id((ivs, tuple(new))) if kept else _POINT_EMPTIED)
    return tuple(subs)


@lru_cache(maxsize=1)
def _field_start(rep):
    """The sorted point ids of rep with nothing peeled, in every field.

    A point starts with no rows on its span.  One entry: the two fields
    of a filtration_counts call start from the same ids, so the start
    state is built once per call.
    """
    return tuple(sorted(_point_id((ivs, ((),) * max(b for _, b in ivs))) for ivs in rep.points))


def count_filtrations_bruteforce(rep, steps, p):
    """Exhaustive chain count over the field F_p.

    The count below step k depends only on the multiset of point states,
    so each sorted tuple of point ids is counted once per call; each peel
    is computed once per process and field, and read from the step's
    dict of _POINT_PEELS.  An emptied point leaves the state.  Of equal
    points one is peeled, and its count taken once per point: peeling
    any of them leaves the same multiset, and their subobjects are
    distinct.  The steps are trusted: filtration_counts has validated
    them.
    """
    memo = {}
    peels = [_POINT_PEELS[q, p_end, p] for q, p_end in steps]

    def rec(k, state):
        # a state's total dimension fixes k, as every step has positive
        # dimension, so the memo is keyed on the state alone
        if k < 0:
            return 1
        total = memo.get(state)
        if total is not None:
            return total
        table = peels[k]
        total = 0
        for i, pid in enumerate(state):
            if i and state[i - 1] == pid:
                continue  # counted with the first of its equal points
            subs = table.get(pid)
            if subs is None:
                subs = table[pid] = _peel_point(pid, *steps[k], p)
            if not subs:
                continue
            rest = state[:i] + state[i + 1 :]
            if subs[0] == _POINT_EMPTIED:
                below = rec(k - 1, rest)
            else:
                below = 0
                for sub in subs:
                    below += rec(k - 1, tuple(sorted(rest + (sub,))))
            total += state.count(pid) * below
        memo[state] = total
        return total

    count = rec(len(steps) - 1, _field_start(rep))
    del rec  # rec's closure holds rec: break the cycle, so the memo goes now
    return count


# ---------------------------------------------------------------------------
# combined interface


def filtration_counts(rep, steps, cap=DEFAULT_DIMENSION_CAP):
    """The three independent routes: (symbolic, F_2 count, F_3 count).

    The one entry point to the routes.  It validates the steps and the
    dimension cap once (ValueError, ResourceCapError), and the routes
    trust the steps it passes.  It never raises when the routes
    disagree.

    >>> same_point = TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "x")])
    >>> filtration_counts(same_point, [(1, 1), (1, 1)])
    (2, 3, 4)
    """
    steps = tuple((int(q), int(p)) for q, p in steps)
    total_dim = _validate_steps(rep, steps)
    if total_dim > cap:
        raise ResourceCapError(
            f"total dimension {total_dim} exceeds brute-force cap {cap}"
        )
    f2, f3 = (count_filtrations_bruteforce(rep, steps, p) for p in BRUTE_FORCE_FIELDS)
    return count_filtrations_symbolic(rep, steps), f2, f3


def count_filtrations(rep, steps):
    """Field-independent chain count, or NOT_RIGID.

    The two finite-field counts decide; the symbolic count must agree
    with them.

    >>> T = TorsionRep.of(3, [((1, 2), "x"), ((2, 2), "y")])
    >>> count_filtrations(T, [(2, 2), (2, 2), (1, 1)])   # bottom to top
    2
    >>> count_filtrations(T, [(1, 1), (2, 2), (2, 2)])
    0
    >>> same_point = TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "x")])
    >>> count_filtrations(same_point, [(1, 1), (1, 1)])
    NOT_RIGID
    """
    symbolic, f2, f3 = filtration_counts(rep, steps)
    if f2 != f3:
        return NOT_RIGID
    if symbolic != f2:
        raise AssertionError(
            f"symbolic count {symbolic} disagrees with brute force {f2}"
        )
    return f2


# ---------------------------------------------------------------------------
# commute's route


def commutator_constant(i, alpha):
    """<i', alpha + 2rho>: the scalar of [e_i, f_i] on the alpha weight space."""
    alpha = tuple(alpha)
    n = len(alpha) + 1
    shifted = tuple(a + r for a, r in zip(alpha, two_rho(n)))
    return pairing(i, shifted)
