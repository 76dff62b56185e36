"""Kostant partitions: enumeration, statistics, summand-count profiles, K_alpha(t)."""

from collections import Counter
from itertools import product

import random

import pytest

from quasiflags import kostant
from quasiflags.charseries import LaurentPoly
from quasiflags.kostant import (
    KostantPartition,
    _enumerate_partitions,
    _enumerated_profile,
    _profile_table,
    kostant_count,
    kostant_count_profile,
    kostant_partitions,
    lusztig_kostant_poly,
    stats,
)
from quasiflags.rootdata import coroot_intervals, positive_coroots, vectors_up_to


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
    first.append(KostantPartition.empty(3))
    assert kostant_partitions((2, 2)) == expected
    assert kostant_partitions((2, 2)) is not kostant_partitions((2, 2))


def test_stats():
    kappa = KostantPartition.from_intervals(3, [(1, 2)])
    assert stats(kappa) == ((1, 1), 2, 1)
    kappa = KostantPartition.from_intervals(3, [(1, 1), (2, 2)])
    assert stats(kappa) == ((1, 1), 2, 2)
    assert stats(KostantPartition.empty(3)) == ((0, 0), 0, 0)


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
        assert poly.nonnegative()


@pytest.mark.parametrize("n,cap", [(2, 8), (3, 8), (4, 8)])
def test_dp_count_matches_enumeration(n, cap):
    rank = n - 1
    vectors = [
        g for g in product(range(cap + 1), repeat=rank) if sum(g) <= cap
    ]
    for gamma in vectors:
        assert kostant_count(gamma) == len(kostant_partitions(gamma))


def listed_profile(gamma):
    """Oracle: K -> number of listed partitions of gamma with K summands."""
    return Counter(kappa.num_summands() for kappa in kostant_partitions(gamma))


def test_count_profile_matches_enumeration_by_summands():
    for n in (2, 3, 4):
        for alpha in vectors_up_to(n - 1, 6):
            profile = listed_profile(alpha)
            assert _enumerated_profile(alpha) == kostant_count_profile(alpha) == profile
            # from an empty store, one call fills exactly the box below alpha
            kostant._PROFILES.clear()
            table = _profile_table(alpha)
            assert sorted(table) == list(product(*(range(a + 1) for a in alpha)))
            for beta, layers in table.items():
                assert len(layers) == len(coroot_intervals(n)) + 1
                assert layers[-1] == listed_profile(beta)
    # a fresh dict every call, and the input is checked as for the enumeration
    assert kostant_count_profile((2, 2)) is not kostant_count_profile((2, 2))
    kostant_count_profile((2, 2)).clear()
    assert kostant_count_profile((2, 2)) == {2: 1, 3: 1, 4: 1}
    for negative in (kostant_count_profile, kostant_partitions):
        with pytest.raises(ValueError):
            negative((1, -1))


def box_profile_table(gamma):
    """Oracle: the per-call box DP, a fresh table below gamma on every call."""
    n = len(gamma) + 1
    profiles = {(0,) * (n - 1): {0: 1}}
    for theta in positive_coroots(n):
        updated = {}
        for beta, prof in profiles.items():
            cur, m = beta, 0
            while all(c <= g for c, g in zip(cur, gamma)):
                tgt = updated.setdefault(cur, {})
                for k, ways in prof.items():
                    tgt[k + m] = tgt.get(k + m, 0) + ways
                cur = tuple(c + t for c, t in zip(cur, theta))
                m += 1
        profiles = updated
    return profiles


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shared_profile_table_equals_box_dp_in_any_order(n):
    sweep = list(vectors_up_to(n - 1, 6))
    shuffled = list(sweep)
    random.Random(1997 + n).shuffle(shuffled)
    oracle = {alpha: box_profile_table(alpha) for alpha in sweep}
    for order in (sweep, sweep[::-1], shuffled):
        kostant._PROFILES.clear()
        for alpha in order:
            table = _profile_table(alpha)
            for beta, entry in oracle[alpha].items():
                assert table[beta][-1] == entry == listed_profile(beta)
        # the store is the union of the boxes asked for: the whole |v| <= 6 set
        assert sorted(table) == sorted(sweep)


def test_profile_table_stays_a_union_of_boxes():
    kostant._PROFILES.clear()
    alpha = (6,) + (0,) * 48
    table = _profile_table(alpha)
    assert sorted(table) == [(k,) + (0,) * 48 for k in range(7)]
    assert kostant._PROFILES[50] is table
    assert table[alpha][-1] == {6: 1}
    # asking again, or for a weight inside the box, adds nothing
    assert _profile_table((3,) + (0,) * 48) is table
    assert len(table) == 7


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
        assert _enumerate_partitions(gamma) == unpruned_partitions(gamma)


def test_json_round_trip_shape():
    kappa = KostantPartition.from_intervals(3, [(1, 2), (1, 1), (1, 1)])
    doc = kappa.to_json()
    assert doc == [
        {"coroot": [1, 1], "mult": 2},
        {"coroot": [1, 2], "mult": 1},
    ]
    rebuilt = KostantPartition.from_intervals(
        3, [tuple(row["coroot"]) for row in doc for _ in range(row["mult"])]
    )
    assert rebuilt == kappa


def test_malformed_partition_rejected():
    with pytest.raises(ValueError):
        KostantPartition(3, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        KostantPartition(3, (1, -1, 0))
