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
  * exhaustive linear algebra over F_2 and over F_3: the quotient maps
    of a point onto a step are its functionals at the step's end that
    vanish on the image of the vertex below the step and are onto at its
    start, one per line, and each kernel is named by its isomorphism
    class, whose intervals follow from its ranks, found by elimination.

Both recursions count per state, not per chain: a count below step k
depends only on the multiset of point states, and in both routes a
point state is a class, the sorted tuple of the point's intervals (a
type-A representation is fixed by its ranks).  Each route starts from
rep.points and keeps one memo keyed on the sorted point states for the
length of a single call (a state's total dimension fixes k).  A state
holds live points only: each sub of a peel is the tuple of ids it adds
back to the state, () when nothing is left of the point, so the state
below the last step is ().  Equal points peel alike into distinct
subobjects, so each route peels one of them and multiplies by their
number; the field route also multiplies each sub by the number of
subobjects with that kernel.  Each route names its point states by small
ints from its own process-wide id table, and keeps its own process-wide
table of peels, one dict per step that maps a point id to its peel: the
symbolic route's is keyed by the step (q, p), the field route's by the
step and the field, (q, p_end, p).  A call fetches the dicts of its
steps once (a step's dict is made on its first fetch only), and a miss
computes the peel and stores it.  A field peel returns () before it
builds any functional when no summand that starts at q covers the step,
and otherwise tries at most p^(summands at p_end) functionals.  The
routes share no table, no peel function and no id.

filtration_counts and count_filtrations check their steps once, and the
routes trust them.  filtration_counts returns all three counts.
count_filtrations returns NOT_RIGID (a result, not an error) when the two
field counts differ, as the family is then positive-dimensional, and only
otherwise runs the symbolic route, whose count must agree.
commutator_constant is commute's route.  The module holds routes only:
the shapes and steps of each filtration identity are stated by the
runner in suites that checks it.
"""

from collections import defaultdict, namedtuple
from itertools import chain
from itertools import product as iproduct
from operator import index, itemgetter

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
            q, p = map(index, iv)  # TypeError on a non-integral end
            if not 1 <= q <= p <= n - 1:
                raise ValueError(f"bad interval {iv} for n={n}")
            pairs.append(((q, p), label))
        pairs.sort(key=itemgetter(0))  # so each point collects its intervals sorted
        by_label = {}
        for iv, label in pairs:
            by_label[label] = by_label.get(label, ()) + (iv,)
        return cls(n, tuple(sorted(by_label.values())))


def _checked_steps(rep, steps, cap):
    """steps as a tuple of int pairs, each in range, adding up to rep, within cap.

    One loop reads each step through operator.index, checks its range and
    adds it to a difference array, where summands take 1 on their
    intervals: it is all zero iff the dimension vectors agree.
    """
    n, total, checked = rep.n, 0, []
    diff = [0] * n
    for step in steps:
        q, p = map(index, step)
        if not 1 <= q <= p <= n - 1:
            raise ValueError(f"bad step interval ({q},{p}) for n={n}")
        diff[q - 1] += 1
        diff[p] -= 1
        total += p - q + 1
        checked.append((q, p))
    for q, p in chain.from_iterable(rep.points):
        diff[q - 1] -= 1
        diff[p] += 1
    if any(diff):
        dim = interval_sum(n, chain.from_iterable(rep.points))
        raise ValueError(f"step dimensions {interval_sum(n, checked)} do not sum to dim T = {dim}")
    if total > cap:
        raise ResourceCapError(f"total dimension {total} exceeds brute-force cap {cap}")
    return tuple(checked)


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
    taken once per point.  The steps are trusted: the entry points have
    checked them.
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

# A field point state is the class of the point, the sorted, nonempty
# tuple of its intervals, as in the symbolic route.  _point_id names each
# one by its index in the process-wide id table of this route
# (_POINT_STATES, with the reverse map _POINT_IDS), so a call's state is
# a sorted tuple of ints.  A peel depends on the point state, the step
# and the field alone: _POINT_PEELS maps each step and field
# (q, p_end, p) to the dict {pid: peel} for the process, each peel a
# tuple of (sub, number) pairs, sub the tuple of ids it adds back to the
# state, (pid',) or () when nothing is left of the point, and number the
# count of subobjects with that kernel.  None of these is the symbolic
# route's, and no id is shared.

_POINT_STATES = []
_POINT_IDS = {}
_POINT_PEELS = defaultdict(dict)


def _point_id(ivs):
    """The id of the field point state ivs, added to the id table if new."""
    pid = _POINT_IDS.get(ivs)
    if pid is None:
        pid = _POINT_IDS[ivs] = len(_POINT_STATES)
        _POINT_STATES.append(ivs)
    return pid


def _rank(rows, p):
    """The rank over F_p of a list of equal-length rows, by elimination."""
    basis = []  # (pivot, row, the inverse of its pivot entry); 0 at earlier pivots
    for row in rows:
        for j, b, inv in basis:
            if row[j]:
                c = row[j] * inv
                row = [(x - c * y) % p for x, y in zip(row, b)]
        for j, c in enumerate(row):
            if c:  # the first nonzero entry
                basis.append((j, row, pow(c, p - 2, p)))
                break
    return len(basis)


def _peel_point(pid, q, p_end, p):
    """The kernels of the maps of point state pid onto [q, p_end], as (sub, number) pairs.

    In one coordinate per summand the space at vertex v is F_p on the
    summands covering v, and the arrow v -> v+1 keeps the ones that go on
    to v+1.  A map onto [q, p_end] is its functional phi at p_end: phi
    vanishes on the image of vertex q - 1, the summands covering
    [q - 1, p_end], and is onto when it is nonzero on the image of vertex
    q; one phi per line, with first nonzero entry 1.  Carried back to
    vertex i, phi is form_i, and the kernel's rank from i to k is the
    rank of the unit rows of the projection from i to k with form_i, less
    that of form_i; its intervals follow by inclusion-exclusion.  Each
    kernel is the sub of its id tuple, () when it is 0, with the number
    of maps that have it.
    """
    ivs = _POINT_STATES[pid]
    free = [j for j, (a, b) in enumerate(ivs) if q <= a <= p_end <= b]
    heads = sum(ivs[j][0] <= q for j in free)  # a prefix of free, as ivs is sorted
    if not heads:
        return ()
    top, width = max(b for _, b in ivs), len(ivs)
    # off q..p_end the form is 0, and the kernel's rank from i to k is the
    # point's: the summands covering [i, k], none when i = 0 or k > top
    r = defaultdict(int)
    for i in (q - 1, p_end + 1):
        for k in range(i, top + 1):
            r[i, k] = sum(a <= i and k <= b for a, b in ivs)
    unit = [[int(t == j) for t in range(width)] for j in range(width)]
    units = {  # the unit rows of the projection from vertex i to vertex k
        (i, k): [unit[j] for j, (a, b) in enumerate(ivs) if a <= i and k <= b]
        for i in range(q, p_end + 1)
        for k in range(i, top + 1)
    }
    # a summand that starts off q..p_end + 1 is kept, as its four ranks
    # are the point's
    kept = [(a, b) for a, b in ivs if not q <= a <= p_end + 1]
    found = {}
    for first in range(heads):
        for tail in iproduct(range(p), repeat=len(free) - first - 1):
            phi = [0] * width
            for j, c in zip(free[first:], (1, *tail)):
                phi[j] = c
            for i in range(q, p_end + 1):
                form = [c if a <= i else 0 for c, (a, _) in zip(phi, ivs)]
                for k in range(i, top + 1):
                    r[i, k] = _rank([*units[i, k], form], p) - any(form)
            kernel = kept + [
                (i, k)
                for i in range(q, p_end + 2)
                for k in range(i, top + 1)
                for _ in range(r[i, k] - r[i - 1, k] - r[i, k + 1] + r[i - 1, k + 1])
            ]
            kernel = tuple(sorted(kernel))
            sub = (_point_id(kernel),) if kernel else ()
            found[sub] = found.get(sub, 0) + 1
    return tuple(found.items())


def count_filtrations_bruteforce(rep, steps, p):
    """Exhaustive chain count over the field F_p.

    The count below step k depends only on the multiset of point states,
    so each sorted tuple of point ids is counted once per call; each peel
    is computed once per process and field, and read from the step's
    dict of _POINT_PEELS, and each sub counts as many times as its
    number.  An emptied point leaves the state.  Of equal points one is
    peeled, and its count taken once per point: peeling any of them
    leaves the same multiset, and their subobjects are distinct.  The
    steps are trusted: the entry points have checked them.
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
            below = 0
            for sub, number in subs:
                below += number * rec(k - 1, tuple(sorted(rest + sub)) if sub else rest)
            total += state.count(pid) * below
        memo[state] = total
        return total

    count = rec(len(steps) - 1, tuple(sorted(map(_point_id, rep.points))))
    del rec  # rec's closure holds rec: break the cycle, so the memo goes now
    return count


# ---------------------------------------------------------------------------
# combined interface


def filtration_counts(rep, steps, cap=DEFAULT_DIMENSION_CAP):
    """The three independent routes: (symbolic, F_2 count, F_3 count).

    It checks the steps and the dimension cap once (TypeError,
    ValueError, ResourceCapError), and the routes trust the steps it
    passes.  It never raises when the routes disagree.

    >>> same_point = TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "x")])
    >>> filtration_counts(same_point, [(1, 1), (1, 1)])
    (2, 3, 4)
    """
    steps = _checked_steps(rep, steps, cap)
    f2, f3 = (count_filtrations_bruteforce(rep, steps, p) for p in BRUTE_FORCE_FIELDS)
    return count_filtrations_symbolic(rep, steps), f2, f3


def count_filtrations(rep, steps):
    """Field-independent chain count, or NOT_RIGID.

    The two finite-field counts decide, at the default dimension cap; the
    symbolic route runs only where they agree, and must agree with them.

    >>> T = TorsionRep.of(3, [((1, 2), "x"), ((2, 2), "y")])
    >>> count_filtrations(T, [(2, 2), (2, 2), (1, 1)])   # bottom to top
    2
    >>> count_filtrations(T, [(1, 1), (2, 2), (2, 2)])
    0
    >>> same_point = TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "x")])
    >>> count_filtrations(same_point, [(1, 1), (1, 1)])
    NOT_RIGID
    """
    steps = _checked_steps(rep, steps, DEFAULT_DIMENSION_CAP)
    f2, f3 = (count_filtrations_bruteforce(rep, steps, p) for p in BRUTE_FORCE_FIELDS)
    if f2 != f3:
        return NOT_RIGID
    symbolic = count_filtrations_symbolic(rep, steps)
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
