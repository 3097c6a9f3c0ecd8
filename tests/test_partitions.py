"""Partition type, enumeration order, and counting."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, cycle

import pytest

from liarclust import partitions
from liarclust.game import _relabel_groups, _relabel_tables, exact_game_value
from liarclust.learners.plans import build_plan, plan_decodable
from liarclust.limits import ExhaustionLimitError
from liarclust.oracles import AdversarialOracle, _charge
from liarclust.partitions import (
    Partition,
    _join_masks,
    _label_columns,
    _label_masks,
    bell,
    enumerate_k_partitions,
    enumerate_partitions,
    random_k_partition,
    stirling2,
)
from references import (
    SignedAnswers,
    join_masks,
    k_partitions,
    label_tuples,
    restricted_growth_strings,
)

# Frozen reference counts (standard tables, written down before the code).
BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}
STIRLING = {
    (3, 2): 3,
    (4, 2): 7,
    (4, 3): 6,
    (5, 2): 15,
    (5, 3): 25,
    (5, 4): 10,
    (6, 3): 90,
    (6, 4): 65,
    (7, 3): 301,
    (7, 4): 350,
    (8, 4): 1701,
}


def test_counting_matches_frozen_tables():
    for n, want in BELL.items():
        assert bell(n) == want
    for (n, k), want in STIRLING.items():
        assert stirling2(n, k) == want
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(3, 5) == 0
    # S(n, 2) = 2^(n-1) - 1, at an n past the interpreter's recursion limit.
    assert stirling2(1000, 2) == 2**999 - 1


def test_enumeration_agrees_with_counting():
    for n in range(0, 8):
        seen = list(enumerate_partitions(n))
        assert len(seen) == bell(n)
        assert len(set(seen)) == len(seen)
        for k in range(0, n + 1):
            got = list(enumerate_k_partitions(n, k))
            assert len(got) == stirling2(n, k)
            assert all(p.k == k for p in got)


def test_canonical_enumeration_order_n3():
    # Restricted growth order: 000, 001, 010, 011, 012.
    want = [
        Partition(3, ((0, 1, 2),)),
        Partition(3, ((0, 1), (2,))),
        Partition(3, ((0, 2), (1,))),
        Partition(3, ((0,), (1, 2))),
        Partition(3, ((0,), (1,), (2,))),
    ]
    assert list(enumerate_partitions(3)) == want


def test_canonical_form_is_input_order_independent():
    a = Partition(4, ((2,), (3, 1), (0,)))
    b = Partition(4, ((0,), (1, 3), (2,)))
    assert a == b
    assert a.clusters == ((0,), (1, 3), (2,))
    assert hash(a) == hash(b)


def test_from_labels_matches_the_validating_constructor():
    # from_labels skips the constructor's sort and checks; it must build the
    # same canonical partition from any labels, growth strings or not.
    rng = random.Random(7)
    cases = [(), (0,), (2, 0, 2, 1), (5, 5, 5), (3, 1, 2, 0)]
    cases += [tuple(rng.randrange(-2, 6) for _ in range(rng.randrange(1, 9))) for _ in range(300)]
    for labels in cases:
        clusters: dict[int, list[int]] = {}
        for x, lab in enumerate(labels):
            clusters.setdefault(lab, []).append(x)
        want = Partition(len(labels), tuple(tuple(reversed(c)) for c in reversed(clusters.values())))
        got = Partition.from_labels(iter(labels))
        assert got == want and hash(got) == hash(want), labels
        assert got.clusters == want.clusters and got.labels == want.labels, labels
    assert Partition.from_labels((2, 0, 2, 1)).clusters == ((0, 2), (1,), (3,))


def test_validation_rejects_bad_partitions():
    with pytest.raises(ValueError):
        Partition(3, ((0, 1),))  # misses 2
    with pytest.raises(ValueError):
        Partition(3, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        Partition(2, ((0, 1), ()))  # empty cluster
    with pytest.raises(ValueError):
        Partition(2, ((0, 3),))  # out of range


def test_same_cluster_and_labels():
    p = Partition(4, ((0, 1), (2,), (3,)))
    assert p.labels == (0, 0, 1, 2)
    assert p.same_cluster(0, 1) == 1
    assert p.same_cluster(1, 0) == 1
    assert p.same_cluster(0, 2) == -1
    with pytest.raises(ValueError):
        p.same_cluster(1, 1)
    with pytest.raises(ValueError):
        p.same_cluster(0, 4)


def test_same_cluster_is_relabel_invariant():
    # Permuting elements permutes answers: checked over every partition of 4.
    perm = (2, 0, 3, 1)
    for p in enumerate_partitions(4):
        moved = Partition.from_labels(tuple(p.labels[perm.index(i)] for i in range(4)))
        for u in range(4):
            for v in range(u + 1, 4):
                assert p.same_cluster(u, v) == moved.same_cluster(perm[u], perm[v])


def test_json_round_trip():
    p = Partition(4, ((0, 1), (2,), (3,)))
    assert p.to_json_dict() == {"n": 4, "clusters": [[0, 1], [2], [3]]}
    assert Partition(4, ((3,), (1, 0), (2,))).to_json_dict() == p.to_json_dict()


def test_label_tuples_match_enumeration():
    for n in range(1, 7):
        for k in range(1, n + 1):
            tuples = label_tuples(n, k)
            parts = list(enumerate_k_partitions(n, k))
            assert [Partition.from_labels(t) for t in tuples] == parts
            assert [p.labels for p in parts] == list(tuples)


def test_charge_matches_reference_costs_capped_past_the_top():
    # Random answers with multiplicities 1-3; a candidate's level is its
    # reference cost, and a candidate past the top level is in none.
    rng = random.Random("charge")
    for n in range(2, 7):
        for ks in [(rng.randint(1, n),), tuple(range(1, n + 1))]:
            candidates = [p for k in ks for p in k_partitions(n, k)]
            masks = _join_masks(n, ks)
            everyone = (1 << len(candidates)) - 1
            for top in range(4):
                levels = [everyone] + [0] * top
                record = SignedAnswers(n)
                for _ in range(10):
                    u, v = sorted(rng.sample(range(n), 2))
                    answer, m = rng.choice((1, -1)), rng.randint(1, 3)
                    for _ in range(m):
                        record = record.record_response(u, v, answer)
                        _charge(levels, everyone ^ masks[u, v] if answer == 1 else masks[u, v])
                    got = [
                        next((j for j, level in enumerate(levels) if level >> i & 1), top + 1)
                        for i in range(len(candidates))
                    ]
                    want = [min(record.cost(p), top + 1) for p in candidates]
                    assert got == want, (n, ks, top)
                    assert sum(level.bit_count() for level in levels) == sum(c <= top for c in want)


def test_k_partitions_match_filtered_growth_strings():
    for n in range(9):
        want = [Partition.from_labels(s) for s in restricted_growth_strings(n)]
        assert list(enumerate_partitions(n)) == want, n
        for k in range(-1, n + 2):
            assert list(enumerate_k_partitions(n, k)) == list(k_partitions(n, k)), (n, k)


def test_label_columns_match_filtered_growth_strings():
    for n in range(11):
        strings = list(restricted_growth_strings(n))
        for k in range(n + 2):
            rows = [s for s in strings if max(s) == k - 1] if 0 < k <= n else []
            want = tuple(bytes(col) for col in zip(*rows))
            assert _label_columns(n, k) == want, (n, k)


def test_join_masks_match_the_digit_string_reference():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert _join_masks(n, (k,)) == join_masks(n, (k,)), (n, k)
        if n <= 8:
            ks = tuple(range(1, n + 1))
            assert _join_masks(n, ks) == join_masks(n, ks), n
    # Bit i of masks[x][c] is set where column x gives candidate i label c.
    for n, k in [(1, 1), (5, 3), (8, 4)]:
        for col, row in zip(_label_columns(n, k), _label_masks(n, k)):
            assert row == tuple(
                sum(1 << i for i, label in enumerate(col) if label == c) for c in range(k)
            ), (n, k)


def test_each_reader_builds_only_the_table_it_reads():
    tables = (_label_columns, _label_masks, _join_masks, _relabel_tables, _relabel_groups)
    for table in tables:
        table.cache_clear()
    assert len(list(enumerate_k_partitions(8, 3))) == stirling2(8, 3)
    assert exact_game_value(5, 3, 1).value == 12
    assert _label_columns.cache_info().currsize > 0
    assert _label_masks.cache_info().currsize == 0
    for table in tables:
        table.cache_clear()
    oracle = AdversarialOracle(8, 3, 1)
    pairs = cycle(combinations(range(8), 2))
    while not oracle.is_terminal():
        oracle.answer(*next(pairs))
    assert oracle.unique_witness().k == 3
    assert plan_decodable(build_plan(8, 3))
    assert _label_masks.cache_info().currsize > 0
    assert _label_columns.cache_info().currsize == 0


def test_enumeration_limit_guard(monkeypatch):
    def unreachable(n, k):
        raise AssertionError(f"tables built for n={n} past the cap")

    monkeypatch.setenv("LIARCLUST_MAX_ENUM_N", "5")
    partitions._label_masks.cache_clear()
    partitions._join_masks.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(partitions, "_label_columns", unreachable)
        patch.setattr(partitions, "_label_masks", unreachable)
        with pytest.raises(ExhaustionLimitError):
            list(enumerate_partitions(6))
        for ks in [(2,), (1, 2, 3, 4, 5, 6)]:
            with pytest.raises(ExhaustionLimitError):
                _join_masks(6, ks)
    monkeypatch.setenv("LIARCLUST_MAX_ENUM_N", "6")
    assert len(list(enumerate_partitions(6))) == 203


def test_random_k_partition_is_valid_and_seeded():
    rng = random.Random(7)
    for _ in range(50):
        p = random_k_partition(6, 3, rng)
        assert p.n == 6 and p.k == 3
    a = random_k_partition(8, 4, random.Random(123))
    b = random_k_partition(8, 4, random.Random(123))
    assert a == b
    # Cells where rejection would take hours draw growth strings instead.
    assert random_k_partition(25, 25, rng) == Partition(25, tuple((x,) for x in range(25)))
    assert {random_k_partition(16, 14, rng).k for _ in range(20)} == {14}


class _ScriptedRandom:
    """randrange returns the scripted picks in turn, then 0, and keeps each stop it is given."""

    def __init__(self, picks: list[int]) -> None:
        self.picks, self.stops = picks, []

    def randrange(self, stop: int) -> int:
        self.stops.append(stop)
        i = len(self.stops) - 1
        return self.picks[i] if i < len(self.picks) else 0


def test_growth_string_draws_give_each_k_partition_probability_one_over_s(monkeypatch):
    # Every value of every pick, grouped by the label it gives: the picks so
    # far fix positions 1..len(picks), and position 0 always has label 0.
    monkeypatch.setattr(partitions, "_rejection_is_slow", lambda n, k: True)

    def walk(n, k, picks, weight, prob):
        rng = _ScriptedRandom(picks)
        p = random_k_partition(n, k, rng)
        if len(rng.stops) == len(picks):
            prob[p] = prob.get(p, 0) + weight
            return
        stop, groups = rng.stops[len(picks)], {}
        for r in range(stop):
            p = random_k_partition(n, k, _ScriptedRandom([*picks, r]))
            groups.setdefault(p.labels[len(picks) + 1], []).append(r)
        for rs in groups.values():
            walk(n, k, [*picks, rs[0]], weight * Fraction(len(rs), stop), prob)

    for n in range(1, 7):
        for k in range(1, n + 1):
            prob = {}
            walk(n, k, [], Fraction(1), prob)
            assert prob == dict.fromkeys(k_partitions(n, k), Fraction(1, stirling2(n, k))), (n, k)
