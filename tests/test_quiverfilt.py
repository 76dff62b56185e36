"""Filtration counting: spec'd multiplicities, rigidity, dual-route agreement."""

import gc
import hashlib
from itertools import chain, permutations, product
from math import factorial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quasiflags import quiverfilt, suites
from quasiflags.quiverfilt import (
    NOT_RIGID,
    TorsionRep,
    _field_start,
    commutator_constant,
    count_filtrations,
    count_filtrations_bruteforce,
    count_filtrations_symbolic,
    filtration_counts,
    is_rigid,
)
from quasiflags.rootdata import (
    ResourceCapError, coroot_intervals, interval_sum, pairing, two_rho,
)

from oracles import pbw_expected, reference_peel, steps_fill_rep, tuple_keyed_symbolic_count


def three_routes(rep, steps):
    return (
        count_filtrations_symbolic(rep, steps),
        count_filtrations_bruteforce(rep, steps, 2),
        count_filtrations_bruteforce(rep, steps, 3),
    )


def decided_count(rep, steps, cap):
    """count_filtrations' decision, taken on filtration_counts at another dimension cap.

    NOT_RIGID where the F_2 and F_3 counts differ, else their count, which
    the symbolic count must equal.
    """
    symbolic, f2, f3 = filtration_counts(rep, steps, cap=cap)
    if f2 != f3:
        return NOT_RIGID
    assert symbolic == f2, (symbolic, f2)
    return f2


def simples(ty):
    """The steps that quotient off one simple at each vertex of ty, in order."""
    return [(k, k) for k in ty]


def split_shape(n, i, j):
    """Three simples at three distinct points: O_x[j] + O_y[i] + O_z[i]."""
    return TorsionRep.of(n, [((j, j), "x"), ((i, i), "y"), ((i, i), "z")])


def extension_shape(n, i, j):
    """The interval module of dimension i+j at one point x, plus O_y[i]."""
    return TorsionRep.of(n, [((min(i, j), max(i, j)), "x"), ((i, i), "y")])


def serre_counts(i, j, rep):
    """Chain counts for the arrangements (i,i,j), (i,j,i), (j,i,i), in that order."""
    arrangements = ((i, i, j), (i, j, i), (j, i, i))
    return tuple(count_filtrations(rep, simples(ty)) for ty in arrangements)


def pbw_count(rep, exponents, order):
    """Chain count of the divided-power type the exponents prescribe."""
    steps = [theta for c, theta in zip(exponents, order) for _ in range(c)]
    return decided_count(rep, steps, cap=12)


# --- the two generic Serre shapes, j = i - 1 (the computed case) -----------


def test_split_shape_counts_all_two():
    i, j = 2, 1
    rep = split_shape(3, i, j)
    assert serre_counts(i, j, rep) == (2, 2, 2)


def test_extension_shape_counts_2_1_0():
    i, j = 2, 1
    rep = extension_shape(3, i, j)
    assert serre_counts(i, j, rep) == (2, 1, 0)


def test_extension_shape_mirrored_for_j_above_i():
    i, j = 1, 2
    rep = extension_shape(3, i, j)
    assert serre_counts(i, j, rep) == (0, 1, 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_serre_alternating_sum_vanishes_all_adjacent_pairs(n):
    for i in range(1, n):
        for j in (i - 1, i + 1):
            if not 1 <= j <= n - 1:
                continue
            for rep in (split_shape(n, i, j), extension_shape(n, i, j)):
                first, middle, last = serre_counts(i, j, rep)
                assert first - 2 * middle + last == 0


def test_far_commuting_counts():
    rep = TorsionRep.of(4, [((1, 1), "x"), ((3, 3), "y")])
    assert count_filtrations(rep, [(1, 1), (3, 3)]) == 1
    assert count_filtrations(rep, [(3, 3), (1, 1)]) == 1


# --- dual routes -----------------------------------------------------------


def test_symbolic_matches_bruteforce_on_serre_shapes():
    for n, i, j in [(3, 2, 1), (3, 1, 2), (4, 2, 3), (5, 4, 3)]:
        for rep in (split_shape(n, i, j), extension_shape(n, i, j)):
            for ty in ((i, i, j), (i, j, i), (j, i, i)):
                steps = simples(ty)
                sym, f2, f3 = three_routes(rep, steps)
                assert sym == f2 == f3


def test_not_rigid_same_point_doubling():
    rep = TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "x")])
    steps = [(1, 1), (1, 1)]
    # p+1 lines in F_p^2: the chain family is a projective line, whose
    # Euler characteristic, the count at q = 1, is 2
    assert count_filtrations_bruteforce(rep, steps, 2) == 3
    assert count_filtrations_bruteforce(rep, steps, 3) == 4
    assert count_filtrations_symbolic(rep, steps) == 2
    result = count_filtrations(rep, steps)
    assert result is NOT_RIGID
    assert not is_rigid(result)


def test_not_rigid_nested_intervals_same_point():
    rep = TorsionRep.of(3, [((1, 2), "x"), ((1, 1), "x")])
    steps = [(2, 2), (1, 1), (1, 1)]
    assert count_filtrations_symbolic(rep, steps) == 2
    assert count_filtrations(rep, steps) is NOT_RIGID


def test_relabeling_invariance():
    rep = extension_shape(3, 2, 1)
    swapped = TorsionRep.of(3, [((1, 2), "u"), ((2, 2), "v")])
    for ty in ((2, 2, 1), (2, 1, 2), (1, 2, 2)):
        steps = simples(ty)
        assert count_filtrations(rep, steps) == count_filtrations(swapped, steps)


def test_count_validates_type_dimension():
    # the exception type and message of each rejection are pinned; the
    # range of each step is checked before the sum, so a bad interval is
    # named even where the sum is wrong too
    rep = TorsionRep.of(3, [((1, 1), "x")])
    for steps, message in (
        ([(2, 2)], "step dimensions (0, 1) do not sum to dim T = (1, 0)"),
        ([(1, 1), (1, 1)], "step dimensions (2, 0) do not sum to dim T = (1, 0)"),
        ([(0, 1)], "bad step interval (0,1) for n=3"),
        ([(1, 1), (2, 3)], "bad step interval (2,3) for n=3"),
    ):
        with pytest.raises(ValueError) as err:
            count_filtrations(rep, steps)
        assert type(err.value) is ValueError and str(err.value) == message


def test_dimension_cap():
    rep = TorsionRep.of(
        2, [((1, 1), f"x{k}") for k in range(5)]
    )  # total dimension 5
    with pytest.raises(ResourceCapError):
        filtration_counts(rep, [(1, 1)] * 5, cap=4)
    assert decided_count(rep, [(1, 1)] * 5, cap=5) == 120  # 5!
    # the public counter applies the default cap, 8
    nine = TorsionRep.of(2, [((1, 1), f"x{k}") for k in range(9)])
    with pytest.raises(ResourceCapError) as err:
        count_filtrations(nine, [(1, 1)] * 9)
    assert str(err.value) == "total dimension 9 exceeds brute-force cap 8"


def test_single_interval_chain_is_unique():
    # peeling an interval head step by step admits exactly one chain
    rep = TorsionRep.of(4, [((1, 3), "x")])
    steps = [(3, 3), (2, 2), (1, 1)]  # bottom-to-top quotients i3, i2, i1
    assert count_filtrations(rep, steps) == 1
    # the reversed reading is impossible: the head must leave first
    assert count_filtrations(rep, [(1, 1), (2, 2), (3, 3)]) == 0


def interval_strategy(n, longest=None):
    longest = n - 1 if longest is None else longest
    return (
        st.tuples(
            st.integers(min_value=1, max_value=n - 1),
            st.integers(min_value=1, max_value=n - 1),
        )
        .map(lambda qp: (min(qp), max(qp)))
        .filter(lambda iv: iv[1] - iv[0] < longest)
    )


SHARED_DIMENSION_CAP = 5


@st.composite
def point_configurations(draw, n=4, max_summands=3, shared_point=False):
    """A rep of up to max_summands intervals, plus a valid random step list.

    Each summand has its own point.  With shared_point, the summands
    fall into points in any grouping instead, up
    to all of them at one point, so that NOT_RIGID cases are drawn too;
    the total dimension is then at most SHARED_DIMENSION_CAP.
    """
    count = draw(st.integers(min_value=1, max_value=max_summands))
    if shared_point:
        intervals, left = [], SHARED_DIMENSION_CAP
        for k in range(count):
            q, p = draw(interval_strategy(n, longest=left - (count - k - 1)))
            intervals.append((q, p))
            left -= p - q + 1
        labels = [f"p{draw(st.integers(min_value=0, max_value=k))}" for k in range(count)]
    else:
        intervals = [draw(interval_strategy(n)) for _ in range(count)]
        labels = [f"p{k}" for k in range(count)]
    rep = TorsionRep.of(n, list(zip(intervals, labels)))
    return rep, draw_steps(draw, intervals)


def draw_steps(draw, intervals):
    """Cut each summand into consecutive pieces, then interleave them."""
    pieces = []
    for q, p in intervals:
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(min_value=q, max_value=p), max_size=2, unique=True
                )
            )
        )
        lo = q
        for c in cuts:
            pieces.append((lo, c))
            lo = c + 1
        if lo <= p:
            pieces.append((lo, p))
    return list(draw(st.permutations(pieces)))


@st.composite
def twin_point_configurations(draw, n=4):
    """Two points that carry the same intervals, maybe plus one more summand.

    Equal point states are merged in the sorted memo keys, so these cases
    check that a merged state is still counted once per point.  The total
    dimension is at most SHARED_DIMENSION_CAP.
    """
    twin = [draw(interval_strategy(n, longest=2))]
    if twin[0][1] == twin[0][0] and draw(st.booleans()):
        twin.append(draw(interval_strategy(n, longest=1)))
    summands = [(iv, x) for x in ("a", "b") for iv in twin]
    left = SHARED_DIMENSION_CAP - 2 * sum(p - q + 1 for q, p in twin)
    if left and draw(st.booleans()):
        iv = draw(interval_strategy(n, longest=left))
        summands.append((iv, draw(st.sampled_from("abc"))))
    intervals = [iv for iv, _ in summands]
    return TorsionRep.of(n, summands), draw_steps(draw, intervals)


@given(point_configurations())
@settings(max_examples=60, deadline=None)
def test_distinct_points_are_always_rigid(case):
    # counts over F_2 and F_3 coincide, and the symbolic count with them
    rep, steps = case
    sym = count_filtrations_symbolic(rep, steps)
    f2 = count_filtrations_bruteforce(rep, steps, 2)
    f3 = count_filtrations_bruteforce(rep, steps, 3)
    assert sym == f2 == f3
    assert is_rigid(decided_count(rep, steps, cap=12))


@st.composite
def field_sized_crowded_configurations(draw):
    """n from 2 to 5, dimension at most 6, up to four summands at a point, and steps.

    The steps are a shuffle of the summands' own intervals (PBW-like), of
    the simple steps they contain (Serre-like) or of pieces cut at random
    inside each summand (draw_steps).  The field routes run on these.
    """
    n = draw(st.integers(min_value=2, max_value=5))
    count = draw(st.integers(min_value=1, max_value=6))
    intervals, left = [], 6
    for k in range(count):
        q, p = draw(interval_strategy(n, longest=left - (count - k - 1)))
        intervals.append((q, p))
        left -= p - q + 1
    labels = []
    for k in range(count):
        labels.append(draw(st.sampled_from([x for x in range(k + 1) if labels.count(x) < 4])))
    rep = TorsionRep.of(n, list(zip(intervals, labels)))
    kind = draw(st.sampled_from(("own", "simple", "cut")))
    if kind == "cut":
        return rep, draw_steps(draw, intervals)
    if kind == "own":
        steps = list(intervals)
    else:
        steps = [(v, v) for q, p in intervals for v in range(q, p + 1)]
    return rep, list(draw(st.permutations(steps)))


@given(st.one_of(point_configurations(shared_point=True), field_sized_crowded_configurations()))
@example((TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "x")]), [(1, 1), (1, 1)]))
# two equal points, each of two equal heads
@example((TorsionRep.of(2, [((1, 1), x) for x in "xxyy"]), [(1, 1)] * 4))
@settings(max_examples=200, deadline=None)
def test_filtration_counts_is_the_three_routes(case):
    # one entry point, the same numbers as the routes called one by one,
    # and count_filtrations decides on top of them; the symbolic count is
    # always a number, the q = 1 value of the count, so it equals any
    # count that F_2 and F_3 share
    rep, steps = case
    counts = filtration_counts(rep, steps, cap=12)
    assert counts == three_routes(rep, steps)
    sym, f2, f3 = counts
    assert type(sym) is int
    result = count_filtrations(rep, steps)  # at most dimension 6, under the default cap
    if f2 != f3:
        assert result is NOT_RIGID
    else:
        assert result == f2
        assert sym == f2


@st.composite
def checked_step_lists(draw):
    """A rep with its own valid steps, or with a step list that may not fill it.

    The steps are the rep's own, or those with one piece dropped, one
    added or one replaced, or any intervals at all.
    """
    rep, steps = draw(point_configurations(shared_point=True))
    edit = draw(st.sampled_from(("own", "drop", "add", "replace", "any")))
    other = interval_strategy(rep.n)
    if edit == "any":
        return rep, draw(st.lists(other, max_size=6))
    k = draw(st.integers(min_value=0, max_value=len(steps) - 1))
    if edit == "drop":
        del steps[k]
    elif edit == "add":
        steps.insert(k, draw(other))
    elif edit == "replace":
        steps[k] = draw(other)
    return rep, steps


@given(checked_step_lists())
@settings(max_examples=100, deadline=None)
def test_filtration_counts_accepts_exactly_the_steps_that_fill_the_rep(case):
    # the one-pass check admits a step list iff its dimension vector,
    # summed by interval_sum, is the rep's; an accepted rep is within the cap
    rep, steps = case
    try:
        filtration_counts(rep, steps, cap=SHARED_DIMENSION_CAP)
    except ValueError as err:
        assert type(err) is ValueError and str(err).startswith("step dimensions ")
        assert not steps_fill_rep(rep, steps)
    else:
        assert steps_fill_rep(rep, steps)


def unmemoized_symbolic_count(rep, steps):
    """The symbolic interval calculus on (interval, point index) summands, no memo.

    Each summand [q, b] with b >= p, at any point, is peeled in turn by
    the step [q, p], leaving its tail [p+1, b].
    """

    def rec(state, k):
        if k < 0:
            return 1
        q, p = steps[k]
        total = 0
        for j, ((a, b), x) in enumerate(state):
            if a == q and b >= p:
                rest = state[:j] + state[j + 1 :] + ([((p + 1, b), x)] if p < b else [])
                total += rec(rest, k - 1)
        return total

    state = [(iv, x) for x, ivs in enumerate(rep.points) for iv in ivs]
    return rec(state, len(steps) - 1)


@given(point_configurations(shared_point=True))
# peeling (3,3) at x or at y leaves the same intervals in two groupings,
# each counted on its own
@example(
    (
        TorsionRep.of(4, [((1, 3), "x"), ((3, 3), "x"), ((3, 3), "y")]),
        [(3, 3), (1, 3), (3, 3)],
    )
)
@settings(max_examples=100, deadline=None)
def test_symbolic_memo_matches_unmemoized_reference(case):
    rep, steps = case
    expected = unmemoized_symbolic_count(rep, steps)
    assert count_filtrations_symbolic(rep, steps) == expected


@st.composite
def crowded_point_configurations(draw):
    """n from 2 to 5, up to three summands at one point, and a step order.

    The steps are a shuffle of the summands' own intervals (PBW-like) or
    of the simple steps they contain (Serre-like).  No field route runs on
    these, so the dimension is not capped.
    """
    n = draw(st.integers(min_value=2, max_value=5))
    count = draw(st.integers(min_value=1, max_value=5))
    intervals = [draw(interval_strategy(n)) for _ in range(count)]
    labels = []
    for k in range(count):
        # point k is new; an old point takes a summand while it has fewer than three
        labels.append(draw(st.sampled_from([x for x in range(k + 1) if labels.count(x) < 3])))
    if draw(st.booleans()):
        steps = list(intervals)
    else:
        steps = [(v, v) for q, p in intervals for v in range(q, p + 1)]
    return TorsionRep.of(n, list(zip(intervals, labels))), list(draw(st.permutations(steps)))


@given(crowded_point_configurations())
# two equal points: the interned route peels one and counts it twice
@example((TorsionRep.of(3, [((1, 2), "x"), ((1, 2), "y")]), [(1, 2), (1, 2)]))
# three equal simple points and one point of three summands, two of them
# equal heads of the step (3,3)
@example((TorsionRep.of(2, [((1, 1), x) for x in "xyz"]), [(1, 1)] * 3))
@example((TorsionRep.of(4, [((1, 3), "x"), ((3, 3), "x"), ((3, 3), "x")]), [(3, 3), (1, 3), (3, 3)]))
# cold_tables is set up once per test, and each example calls it again
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_interned_symbolic_route_matches_tuple_keyed_oracle(cold_tables, case):
    # the same count from cold tables and again from warm ones
    rep, steps = case
    expected = tuple_keyed_symbolic_count(rep, steps)
    cold_tables()
    assert count_filtrations_symbolic(rep, steps) == expected
    assert count_filtrations_symbolic(rep, steps) == expected


def test_symbolic_route_peels_heads_only():
    # at one point, [2,2] maps onto the step [1,2] but does not start at 1:
    # only the head [1,3] peels, and its tail [3,3] leaves no head for [2,3]
    rep = TorsionRep.of(4, [((1, 3), "x"), ((2, 2), "x")])
    assert filtration_counts(rep, [(2, 3), (1, 2)]) == (0, 1, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_complete_flags_at_one_point(d):
    # d simples at one point: the chains are the complete flags of F_p^d,
    # 251,680 of them at d = 5 over F_3, so the count must go per state;
    # at q = 1 they are the d! orders of the d equal heads
    rep = TorsionRep.of(2, [((1, 1), "x")] * d)
    for p in (2, 3) if d <= 5 else (2,):
        flags = 1
        for k in range(1, d + 1):
            flags *= (p**k - 1) // (p - 1)
        assert count_filtrations_bruteforce(rep, [(1, 1)] * d, p) == flags
    assert count_filtrations_symbolic(rep, [(1, 1)] * d) == factorial(d)


def subspace_oracle_count(rep, steps, p):
    """Chain count over F_p with each subspace kept as the set of its vectors.

    At a point with summands ivs a vector is a tuple over ivs; the space
    at v holds the vectors zero off the summands covering v, and the arrow
    v -> v+1 zeroes the summands that end at v.  Hyperplanes are found by
    trying every functional on the ambient tuples.
    """
    points = rep.points

    def arrow(ivs, v, vecs):
        return {tuple(c if b > v else 0 for c, (_, b) in zip(x, ivs)) for x in vecs}

    def hyperplanes(sub, size):
        found = set()
        for f in product(range(p), repeat=size):
            ker = frozenset(x for x in sub if sum(a * b for a, b in zip(f, x)) % p == 0)
            if len(ker) * p == len(sub):
                found.add(ker)
        return found

    def peel(ivs, spaces, q, top):
        # a choice of hyperplanes on [q, top] is a subrep with quotient the
        # interval module when the arrows map hyperplane into hyperplane,
        # space onto quotient line, and the space at q-1 into the hyperplane
        choices = [hyperplanes(spaces[v - 1], len(ivs)) for v in range(q, top + 1)]
        for hs in product(*choices):
            if q > 1 and not arrow(ivs, q - 1, spaces[q - 2]) <= hs[0]:
                continue
            if all(
                arrow(ivs, v, hs[v - q]) <= hs[v - q + 1]
                and not arrow(ivs, v, spaces[v - 1]) <= hs[v - q + 1]
                for v in range(q, top)
            ):
                yield spaces[: q - 1] + hs + spaces[top:]

    def rec(state, k):
        if k < 0:
            return 1
        q, top = steps[k]
        total = 0
        for i, ivs in enumerate(points):
            for sub in peel(ivs, state[i], q, top):
                total += rec(state[:i] + (sub,) + state[i + 1 :], k - 1)
        return total

    start = tuple(
        tuple(
            frozenset(
                x
                for x in product(range(p), repeat=len(ivs))
                if all(a <= v <= b or c == 0 for c, (a, b) in zip(x, ivs))
            )
            for v in range(1, rep.n)
        )
        for ivs in points
    )
    return rec(start, len(steps) - 1)


@given(st.one_of(point_configurations(shared_point=True), twin_point_configurations()))
@example((TorsionRep.of(2, [((1, 1), "x")] * 3), [(1, 1)] * 3))
@example((TorsionRep.of(4, [((1, 3), "x"), ((2, 2), "x")]), [(2, 2), (3, 3), (1, 2)]))
# three equal simple points beside a fourth, and two equal two-summand
# points: each route peels one of the equal points and counts it per point
@example(
    (
        TorsionRep.of(3, [((1, 1), "x"), ((1, 1), "y"), ((1, 1), "z"), ((2, 2), "w")]),
        [(1, 1), (2, 2), (1, 1), (1, 1)],
    )
)
@example(
    (
        TorsionRep.of(3, [((1, 1), x) for x in "xy"] + [((1, 2), x) for x in "xy"]),
        [(2, 2), (1, 1), (1, 1), (1, 2), (1, 1)],
    )
)
# cold_tables is set up once per test, and each example calls it again
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_field_counts_match_subspace_oracle(cold_tables, case):
    # the id and peel tables live for the process: counts from cold tables
    # and from warm ones, filled in either field order, all equal the oracle
    rep, steps = case
    oracle = {p: subspace_oracle_count(rep, steps, p) for p in (2, 3)}
    # the symbolic route reads no field table: from cold tables it fills
    # its own peel table and none of the field route's, and it agrees with
    # the oracle wherever the two fields do
    cold_tables()
    sym = count_filtrations_symbolic(rep, steps)
    assert quiverfilt._SYMBOLIC_PEELS
    assert quiverfilt._POINT_PEELS == {}
    assert quiverfilt._POINT_STATES == [] and quiverfilt._POINT_IDS == {}
    assert sym == oracle[2] or oracle[2] != oracle[3]
    # and conversely, the field routes leave the symbolic tables empty
    for fields in ((3, 2), (2, 3)):
        cold_tables()
        for p in fields + fields:
            assert count_filtrations_bruteforce(rep, steps, p) == oracle[p]
        assert {key[2] for key in quiverfilt._POINT_PEELS} == set(fields)
        assert quiverfilt._SYMBOLIC_PEELS == {}
        assert quiverfilt._SYMBOLIC_STATES == [] and quiverfilt._SYMBOLIC_IDS == {}


def _zero_dimensional(point_state):
    ivs, rows = point_state
    return sum(b - a + 1 for a, b in ivs) == sum(map(len, rows))


@given(st.one_of(point_configurations(shared_point=True), twin_point_configurations()))
# y empties on the third peel from the top, and two steps of x follow
@example(
    (
        TorsionRep.of(5, [((2, 4), "y"), ((1, 1), "x"), ((1, 1), "x")]),
        [(1, 1), (1, 1), (4, 4), (3, 3), (2, 2)],
    )
)
# the top step empties either of the equal points x and y
@example(
    (
        TorsionRep.of(3, [((2, 2), "x"), ((2, 2), "y"), ((1, 1), "z")]),
        [(2, 2), (1, 1), (2, 2)],
    )
)
# cold_tables is set up once per test, and each example calls it again
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_no_state_carries_an_emptied_point(cold_tables, case):
    # a peel that empties a point drops it: no route interns an empty state
    rep, steps = case
    cold_tables()
    assert count_filtrations_symbolic(rep, steps) == tuple_keyed_symbolic_count(rep, steps)
    for p in (2, 3):
        assert count_filtrations_bruteforce(rep, steps, p) == subspace_oracle_count(rep, steps, p)
    assert quiverfilt._POINT_STATES and quiverfilt._SYMBOLIC_STATES
    assert not any(map(_zero_dimensional, quiverfilt._POINT_STATES))
    assert () not in quiverfilt._SYMBOLIC_STATES


@given(st.one_of(point_configurations(shared_point=True), twin_point_configurations()))
# the arrow into q = 2 has a row at vertex 1 once (1,1) is peeled off [1,2]
@example((TorsionRep.of(3, [((1, 2), "x")]), [(2, 2), (1, 1)]))
# two summands at one point, one starting above the other
@example((TorsionRep.of(4, [((1, 3), "x"), ((2, 2), "x")]), [(2, 2), (3, 3), (1, 2)]))
# cold_tables is set up once per test, and each example calls it again
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_field_peel_matches_reference_peel(cold_tables, case):
    # every point state that counting over F_p interns, peeled over F_p by
    # every step, has the reference's subs in the reference's order
    rep, steps = case
    every_step = [(q, p_end) for q in range(1, rep.n) for p_end in range(q, rep.n)]
    for p in (2, 3):
        cold_tables()
        count_filtrations_bruteforce(rep, steps, p)
        for pid, (ivs, rows) in enumerate(list(quiverfilt._POINT_STATES)):
            for q, p_end in every_step:
                subs = quiverfilt._peel_point(pid, q, p_end, p)
                got = tuple(
                    None if sub == quiverfilt._POINT_EMPTIED else quiverfilt._POINT_STATES[sub]
                    for sub in subs
                )
                assert got == reference_peel(ivs, rows, q, p_end, p), (ivs, rows, q, p_end, p)


@given(st.one_of(point_configurations(shared_point=True), twin_point_configurations()))
# cold_tables is set up once per test, and each example calls it again
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_counts_and_field_states_do_not_depend_on_n(cold_tables, case):
    # a point's rows stop at its span: one more vertex changes no count and
    # no field state, and a shift by one vertex changes no count
    rep, steps = case
    summands = [(iv, x) for x, ivs in enumerate(rep.points) for iv in ivs]
    wider = TorsionRep.of(rep.n + 1, summands)
    shifted = TorsionRep.of(rep.n + 1, [((q + 1, p + 1), x) for (q, p), x in summands])
    counts = filtration_counts(rep, steps)
    assert filtration_counts(wider, steps) == counts
    assert filtration_counts(shifted, [(q + 1, p + 1) for q, p in steps]) == counts
    tables = []
    for r in (rep, wider):
        cold_tables()
        for p in (2, 3):
            count_filtrations_bruteforce(r, steps, p)
        tables.append(quiverfilt._POINT_STATES)
    assert tables[0] == tables[1]


# --- PBW multiplicities ----------------------------------------------------


def test_pbw_examples_from_small_ranks():
    rep = TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "y")])
    assert pbw_count(rep, (2,), coroot_intervals(2)) == 2

    rep = TorsionRep.of(3, [((1, 2), "x")])
    order = coroot_intervals(3)
    assert pbw_count(rep, (0, 1, 0), order) == 1  # single theta, c=1
    assert pbw_count(rep, (1, 0, 1), order) == 0  # wrong partition: count 0


def test_pbw_expected_oracle():
    order = coroot_intervals(3)
    rep = TorsionRep.of(3, [((1, 1), "p0"), ((1, 1), "p1"), ((2, 2), "p2")])
    assert pbw_expected(rep, (2, 0, 1), order=order) == 2
    assert pbw_expected(rep, (1, 1, 0), order=order) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_pbw_diagonal_and_off_diagonal(n):
    from quasiflags.kostant import kostant_partitions
    from quasiflags.rootdata import vectors_up_to

    order = coroot_intervals(n)
    for c in vectors_up_to(len(order), 3):
        gamma = [0] * (n - 1)
        for mult, (q, p) in zip(c, order):
            for v in range(q, p + 1):
                gamma[v - 1] += mult
        for kappa in kostant_partitions(tuple(gamma)):
            rep = TorsionRep.of(
                n, [(iv, f"p{k}") for k, iv in enumerate(kappa.intervals())]
            )
            assert pbw_count(rep, c, order) == pbw_expected(rep, c, order=order)


def test_pbw_alternative_order_differs_but_identity_holds():
    can = list(coroot_intervals(4))
    alt = sorted(coroot_intervals(4), key=lambda iv: (iv[1], iv[0]))
    assert can != alt
    rep = TorsionRep.of(4, [((1, 3), "x"), ((2, 2), "y")])
    for order in (can, alt):
        c = tuple(1 if iv in ((1, 3), (2, 2)) else 0 for iv in order)
        assert pbw_count(rep, c, order) == 1


# --- commutator constant ---------------------------------------------------


def test_commutator_constant_examples():
    assert commutator_constant(1, (0,)) == 2
    assert commutator_constant(1, (3,)) == 8
    assert commutator_constant(1, (1, 0)) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_commutator_constant_equals_pairing(n):
    from itertools import product

    for alpha in product(range(3), repeat=n - 1):
        shifted = tuple(a + r for a, r in zip(alpha, two_rho(n)))
        for i in range(1, n):
            assert commutator_constant(i, alpha) == pairing(i, shifted)


def test_torsion_rep_dimensions():
    rep = TorsionRep.of(3, [((1, 2), "x"), ((2, 2), "y")])
    assert interval_sum(rep.n, chain.from_iterable(rep.points)) == (1, 2)
    assert rep.points == (((1, 2),), ((2, 2),))


@given(
    st.lists(st.tuples(interval_strategy(5), st.sampled_from("abc")), max_size=6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_torsion_rep_is_its_label_free_point_grouping(summands, rng):
    # both routes start from rep.points, so the grouping is checked on its own
    rep = TorsionRep.of(5, summands)
    labels = sorted({x for _, x in summands})
    per_label = sorted(sorted(iv for iv, x in summands if x == y) for y in labels)
    assert [list(ivs) for ivs in rep.points] == per_label
    shuffled = list(summands)
    rng.shuffle(shuffled)
    assert TorsionRep.of(5, shuffled) == rep
    renamed = dict(zip(labels, rng.sample(range(100), len(labels))))
    assert TorsionRep.of(5, [(iv, renamed[x]) for iv, x in summands]) == rep

def test_torsion_rep_rejects_bad_interval():
    with pytest.raises(ValueError):
        TorsionRep.of(3, [((2, 1), "x")])
    with pytest.raises(ValueError):
        TorsionRep.of(3, [((1, 3), "x")])


def test_both_fields_start_from_one_start_state(cold_tables):
    # filtration_counts builds the field start state once, not once per field
    rep = TorsionRep.of(3, [((1, 2), "x"), ((2, 2), "x"), ((1, 1), "y")])
    filtration_counts(rep, [(2, 2), (1, 1), (1, 2)])
    assert _field_start.cache_info()[:2] == (1, 1)  # (hits, misses)


# sha256 of repr(_POINT_STATES) and of repr(_SYMBOLIC_STATES), recorded
# with a field peel that had no early return, normalized every lead and
# recomputed every row: a faster peel must intern the same point states
# in the same order, so that the id tables grow alike.  That peel kept
# rows on the vertices 1..n-1; the field digests are of its table mapped
# by (ivs, rows) -> (ivs, rows[:max b]), repeats dropped in first-seen
# order (10 -> 7 states, then 79 -> 76), as a point's rows now stop at
# its span.  The symbolic digest of the second pin is of the peel that
# takes each head in turn, which goes on past a point with two heads of
# one step where the peel before it gave up: it interns 21 states where
# that peel interned the 12 of ABSTAINING_PEEL_STATES
STATE_TABLE_PINS = (
    (
        "7bfa6136849a66983af99f6645a812bc0ac84b55a80e681b58516d646a097382",
        "07c53f2f9c30afefbfdaabe0ce20be85cbfcdf3f3f7ced4ced8c1998783110f6",
    ),
    (
        "436d29306e1c3b5bd4fdaf11ced3fc46b27c97dbae774c0590ecc0df47bdb2db",
        "cbbce2c632b354f584192e8f80b2cf73557423674e22c6e7161ea22007498adb",
    ),
)
ABSTAINING_PEEL_STATES = (
    ((2, 2),), ((1, 2),), ((1, 1),), ((3, 3),), ((2, 3),), ((1, 3), (2, 2)), ((1, 3),),
    ((2, 2), (2, 3)), ((1, 1), (1, 2), (2, 2)), ((1, 1), (1, 2)), ((1, 2), (2, 2), (2, 3)),
    ((2, 2), (2, 2), (2, 3)),
)
# points of two to four summands, whose subspaces need more than one row
SHARED_POINT_REPS = (
    TorsionRep.of(4, [((1, 3), "x"), ((2, 2), "x"), ((1, 1), "y")]),
    TorsionRep.of(3, [((1, 2), "x"), ((1, 1), "x"), ((2, 2), "x")]),
    TorsionRep.of(4, [((1, 2), "x"), ((2, 3), "x"), ((2, 2), "x"), ((1, 1), "y")]),
)


def _state_table_digests():
    return tuple(
        hashlib.sha256(repr(table).encode()).hexdigest()
        for table in (quiverfilt._POINT_STATES, quiverfilt._SYMBOLIC_STATES)
    )


def test_routes_intern_the_pinned_point_states(cold_tables):
    suites.run_pbw(3)
    suites.run_serre(4)
    assert _state_table_digests() == STATE_TABLE_PINS[0]
    # then every order of the simple steps of each shared-point rep
    for rep in SHARED_POINT_REPS:
        simple = [(v, v) for q, p in chain.from_iterable(rep.points) for v in range(q, p + 1)]
        for steps in sorted(set(permutations(simple))):
            filtration_counts(rep, steps)
    assert _state_table_digests() == STATE_TABLE_PINS[1]
    assert set(ABSTAINING_PEEL_STATES) <= set(quiverfilt._SYMBOLIC_STATES)
    assert all(len(rows) == max(b for _, b in ivs) for ivs, rows in quiverfilt._POINT_STATES)


def test_routes_leave_no_cyclic_garbage():
    # each route recurses through a closure over itself, and drops it on return
    rigid = (extension_shape(3, 2, 1), simples((2, 1, 2)))
    family = (TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "x")]), [(1, 1), (1, 1)])
    gc.collect()
    gc.disable()
    try:
        for rep, steps in (rigid, family):
            count_filtrations_symbolic(rep, steps)
            assert gc.collect() == 0
            count_filtrations_bruteforce(rep, steps, 3)
            assert gc.collect() == 0
            count_filtrations(rep, steps)
            assert gc.collect() == 0
    finally:
        gc.enable()
