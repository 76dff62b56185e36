"""Kostant partitions: enumeration, statistics, summand-count profiles, K_alpha(t)."""

import gc
from collections import Counter
from itertools import product

import pytest
from oracles import box_profiles, kostant_count_profile, lusztig_kostant_poly

from quasiflags import kostant
from quasiflags.cells import enumerate_cells
from quasiflags.charseries import LaurentPoly
from quasiflags.cohomology import laumon_poincare
from quasiflags.kostant import (
    KostantPartition,
    kostant_partitions,
    list_up_to,
    listed_profiles,
    partitions_below,
)
from quasiflags.rootdata import coroot_intervals, iter_subvectors, vectors_up_to


def kostant_count(gamma):
    """The number of Kostant partitions of gamma, from the DP."""
    return sum(kostant_count_profile(gamma).values())


def from_intervals(n, intervals):
    """The partition with the (q, p) pairs as summands, with repetition."""
    index = {iv: k for k, iv in enumerate(coroot_intervals(n))}
    mults = [0] * len(index)
    for iv in intervals:
        mults[index[tuple(iv)]] += 1
    return KostantPartition(n, tuple(mults))


def brute_partitions(gamma):
    """Oracle: filter all bounded multiplicity vectors, no recursion pruning."""
    n = len(gamma) + 1
    intervals = coroot_intervals(n)
    bound = sum(gamma)
    found = []
    for mults in product(range(bound + 1), repeat=len(intervals)):
        total = [0] * (n - 1)
        for (q, p), m in zip(intervals, mults):
            for i in range(q, p + 1):
                total[i - 1] += m
        if tuple(total) == tuple(gamma):
            found.append(mults)
    return sorted(found)


def test_enumerate_simple_cases():
    assert len(kostant_partitions((1,))) == 1
    two = kostant_partitions((1, 1))
    assert len(two) == 2
    as_intervals = [k.intervals() for k in two]
    assert [(1, 2)] in as_intervals
    assert [(1, 1), (2, 2)] in as_intervals


def test_enumerate_2_1():
    parts = kostant_partitions((2, 1))
    assert len(parts) == 2
    as_intervals = sorted(tuple(k.intervals()) for k in parts)
    assert as_intervals == [((1, 1), (1, 1), (2, 2)), ((1, 1), (1, 2))]


@pytest.mark.parametrize(
    "gamma",
    [(0,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 2), (0, 2, 0)],
)
def test_enumeration_matches_brute_force(gamma):
    got = [k.mults for k in kostant_partitions(gamma)]
    assert got == brute_partitions(gamma)
    # deterministic lexicographic order, no duplicates
    assert got == sorted(set(got))


def test_every_partition_has_correct_weight():
    for gamma in [(2, 1), (1, 2, 1), (3, 2)]:
        for kappa in kostant_partitions(gamma):
            assert kappa.weight() == gamma


def test_enumeration_rejects_negative_input():
    with pytest.raises(ValueError):
        kostant_partitions((1, -1))


def test_returned_partition_list_is_a_fresh_copy():
    first = kostant_partitions((2, 2))
    expected = list(first)
    first.clear()
    first.append(KostantPartition(3, (0, 0, 0)))
    assert kostant_partitions((2, 2)) == expected
    assert kostant_partitions((2, 2)) is not kostant_partitions((2, 2))


def test_partition_weight_norm_and_summands():
    def described(kappa):
        return kappa.weight(), kappa.norm(), kappa.num_summands()

    assert described(from_intervals(3, [(1, 2)])) == ((1, 1), 2, 1)
    assert described(from_intervals(3, [(1, 1), (2, 2)])) == ((1, 1), 2, 2)
    assert described(KostantPartition(3, (0, 0, 0))) == ((0, 0), 0, 0)


def test_lusztig_kostant_poly_examples():
    assert lusztig_kostant_poly((0,)) == LaurentPoly.one()
    for a in range(5):
        assert lusztig_kostant_poly((a,)) == LaurentPoly.one()
    assert lusztig_kostant_poly((1, 1)) == LaurentPoly.t_poly({0: 1, 1: 1})
    with pytest.raises(ValueError):
        lusztig_kostant_poly((1, -1))


def test_lusztig_kostant_poly_counts_partitions_at_one():
    for gamma in [(1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 2, 1)]:
        poly = lusztig_kostant_poly(gamma)
        assert poly.eval_at_one() == len(kostant_partitions(gamma))
        assert all(c > 0 for c in poly.terms.values())


@pytest.mark.parametrize("n,cap", [(2, 8), (3, 8), (4, 8)])
def test_dp_count_matches_enumeration(n, cap):
    rank = n - 1
    vectors = [
        g for g in product(range(cap + 1), repeat=rank) if sum(g) <= cap
    ]
    for gamma in vectors:
        assert kostant_count(gamma) == len(kostant_partitions(gamma))


def listed_profile(gamma):
    """Oracle: K -> number of partitions of gamma with K summands, from the plain recursion."""
    return Counter(kappa.num_summands() for kappa in unpruned_partitions(gamma))


def test_count_profile_matches_enumeration_by_summands():
    for n in (2, 3, 4):
        # a sweep's region: the simplex of height 6, in one walk
        kostant._LISTED.clear()
        list_up_to(n, 6)
        listed = kostant._LISTED[n]
        assert sorted(listed) == sorted(vectors_up_to(n - 1, 6))
        # one DP over a box that holds the simplex
        dp = box_profiles((6,) * (n - 1))
        for alpha in vectors_up_to(n - 1, 6):
            assert listed[alpha] == dp[alpha] == listed_profile(alpha)
    # box regions: from an empty store, one walk fills exactly the box below
    # alpha, and one DP call gives exactly that box
    for alpha in [(2, 1, 2), (3, 0, 2, 1), (2, 1, 1, 2), (6,) + (0,) * 48, (1,) * 12]:
        kostant._LISTED.clear()
        listed = listed_profiles(alpha)
        dp = box_profiles(alpha)
        assert sorted(listed) == list(iter_subvectors(alpha)) == list(dp)
        for beta in iter_subvectors(alpha):
            assert listed[beta] == dp[beta]
        assert kostant_count_profile(alpha) == dp[alpha]
        # the plain recursion takes about 20 s over all 4,096 weights of 1^12
        checked = list(iter_subvectors(alpha)) if len(listed) < 100 else [alpha]
        for beta in checked:
            assert listed[beta] == listed_profile(beta)
    # (6, 0, ..., 0) at n = 50: the walk stores its box of 7 weights, and
    # asking again, or for a weight inside the box, adds nothing
    alpha = (6,) + (0,) * 48
    kostant._LISTED.clear()
    listed = listed_profiles(alpha)
    assert sorted(listed) == [(k,) + (0,) * 48 for k in range(7)]
    assert listed[alpha] == {6: 1}
    assert listed_profiles((3,) + (0,) * 48) is listed
    assert len(listed) == 7
    # a fresh dict every call, and the input is checked as for the enumeration
    assert kostant_count_profile((2, 2)) is not kostant_count_profile((2, 2))
    kostant_count_profile((2, 2)).clear()
    assert kostant_count_profile((2, 2)) == {2: 1, 3: 1, 4: 1}
    # and so is every public listing or profile call of the package
    on_rank_3 = lambda alpha: enumerate_cells(3, alpha)
    for negative in (
        kostant_count_profile,
        kostant_partitions,
        listed_profiles,
        partitions_below,
        laumon_poincare,
        on_rank_3,
    ):
        for gamma in ((1, -1), (-1, 0)):
            with pytest.raises(ValueError):
                negative(gamma)


def unpruned_partitions(gamma):
    """Oracle: the listing recursion that tries every multiplicity of every coroot."""
    n = len(gamma) + 1
    intervals = coroot_intervals(n)
    results = []
    mults = [0] * len(intervals)

    def descend(idx, remaining):
        if not any(remaining):
            results.append(KostantPartition(n, tuple(mults)))
            return
        while True:
            if idx == len(intervals):
                return
            q, p = intervals[idx]
            limit = min(remaining[i - 1] for i in range(q, p + 1))
            if limit:
                break
            idx += 1
        for m in range(limit + 1):
            mults[idx] = m
            rem = list(remaining)
            for i in range(q, p + 1):
                rem[i - 1] -= m
            descend(idx + 1, rem)
        mults[idx] = 0

    descend(0, list(gamma))
    return tuple(results)


def test_pruned_listing_equals_unpruned_in_order():
    gammas = [g for n in range(2, 6) for g in vectors_up_to(n - 1, 7)]
    gammas += [(1,) * 7]  # n = 8
    for gamma in gammas:
        assert kostant_partitions(gamma) == list(unpruned_partitions(gamma))
    # a box read from one walk: the same partitions, weight by weight
    for alpha in [(2, 2, 2, 2), (1,) * 7, (3, 1, 2)]:
        below = partitions_below(alpha)
        assert list(below) == list(iter_subvectors(alpha))
        for beta, parts in below.items():
            assert parts == list(unpruned_partitions(beta))


def _walk_nodes(monkeypatch):
    """A list that gets the node count of each listing walk from now on.

    A walk's profiles count each of its nodes once, at the node's weight.
    """
    walk, counts = kostant._walk, []

    def counted(top, cap, keep):
        profiles, leaves = walk(top, cap, keep)
        counts.append(sum(sum(profile.values()) for profile in profiles.values()))
        return profiles, leaves

    monkeypatch.setattr(kostant, "_walk", counted)
    return counts


def test_each_partition_is_visited_once_per_sweep(monkeypatch, cold_tables):
    from quasiflags.suites import run_celldim, run_euler, run_genfunc

    counts = _walk_nodes(monkeypatch)
    for run in (run_genfunc, run_euler, run_celldim):
        assert run(4, 26).passed()
    # |2 rho| = 10 at n = 4, so every sweep reads the weights of height <= 16
    dp = box_profiles((16, 16, 16))
    assert counts == [sum(sum(dp[beta].values()) for beta in vectors_up_to(3, 16))]
    assert sorted(kostant._LISTED[4]) == sorted(vectors_up_to(3, 16))


def test_partition_listings_store_nothing(monkeypatch, cold_tables):
    # a walk returns what it listed: only listed_profiles and list_up_to
    # store profiles, so the partition listings leave the listed table as
    # they found it, empty or not
    counts = _walk_nodes(monkeypatch)
    for setup in (lambda: None, lambda: list_up_to(4, 3)):
        cold_tables()
        setup()
        before = {n: dict(table) for n, table in kostant._LISTED.items()}
        walks = len(counts)
        kostant_partitions((2, 1, 2))
        partitions_below((2, 3, 1, 2))
        kostant_partitions((1,) * 7)
        assert len(counts) == walks + 3
        assert kostant._LISTED == before
    # the box walk behind listed_profiles is the one partitions_below takes
    cold_tables()
    box = partitions_below((2, 3, 1, 2))
    listed = listed_profiles((2, 3, 1, 2))
    assert sorted(listed) == list(box)
    for beta, parts in box.items():
        assert listed[beta] == listed_profile(beta) == Counter(k.num_summands() for k in parts)


def test_listing_never_reads_the_dp_table(cold_tables):
    # the DP is a test oracle, out of the package's reach: from cold tables
    # the listing alone gives the profiles and the partitions
    expected = {
        "simplex": {beta: listed_profile(beta) for beta in vectors_up_to(3, 8)},
        "box": {beta: listed_profile(beta) for beta in iter_subvectors((2, 3, 1, 2))},
        "partitions": list(unpruned_partitions((2, 1, 2))),
    }
    cold_tables()
    list_up_to(4, 8)
    assert kostant._LISTED[4] == expected["simplex"]
    assert listed_profiles((2, 3, 1, 2)) == expected["box"]
    assert kostant_partitions((2, 1, 2)) == expected["partitions"]
    assert list(partitions_below((2, 1, 2)).values())[-1] == expected["partitions"]


def test_json_round_trip_shape():
    kappa = from_intervals(3, [(1, 2), (1, 1), (1, 1)])
    doc = kappa.to_json()
    assert doc == [
        {"coroot": [1, 1], "mult": 2},
        {"coroot": [1, 2], "mult": 1},
    ]
    rebuilt = from_intervals(
        3, [tuple(row["coroot"]) for row in doc for _ in range(row["mult"])]
    )
    assert rebuilt == kappa


def test_malformed_partition_rejected():
    with pytest.raises(ValueError):
        KostantPartition(3, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        KostantPartition(3, (1, -1, 0))


def test_walk_leaves_no_cyclic_garbage():
    # the walk recurses through a closure over itself, and drops it on return
    gc.collect()
    gc.disable()
    try:
        kostant_partitions((2, 2))
        assert gc.collect() == 0
        partitions_below((1, 2, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()
