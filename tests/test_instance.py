"""The signed-answer reference the game tests use: recording and disagreement cost."""

from __future__ import annotations

import pytest

from liarclust.partitions import Partition, enumerate_k_partitions, enumerate_partitions
from references import SignedAnswers


def build(n, pos=(), neg=()):
    g = SignedAnswers(n)
    for u, v in pos:
        g = g.record_response(u, v, 1)
    for u, v in neg:
        g = g.record_response(u, v, -1)
    return g


def test_record_is_functional_and_accumulates():
    g0 = SignedAnswers(3)
    g1 = g0.record_response(0, 1, -1)
    g2 = g1.record_response(1, 0, -1)
    assert g0.pos == g0.neg == {}
    assert g1.neg == {(0, 1): 1}
    assert g2.neg == {(0, 1): 2}
    assert g1.pos == {}
    with pytest.raises(ValueError):
        g0.record_response(0, 0, 1)
    with pytest.raises(ValueError):
        g0.record_response(0, 1, 0)


def test_cost_hand_examples():
    # Negative answers on (0,1) and (0,2), positive on (1,2).
    g = build(3, pos=[(1, 2)], neg=[(0, 1), (0, 2)])
    assert g.cost(Partition(3, ((0,), (1, 2)))) == 0
    assert g.cost(Partition(3, ((0, 1), (2,)))) == 2  # joins -01, splits +12
    assert g.cost(Partition(3, ((0, 1, 2),))) == 2  # joins both negatives
    assert g.cost(Partition(3, ((0,), (1,), (2,)))) == 1  # splits +12


def test_cost_counts_both_signs_on_one_pair():
    g = build(3, pos=[(0, 1)], neg=[(0, 1)])
    # Whatever the partition does with (0,1), exactly one answer is violated.
    for p in enumerate_partitions(3):
        assert (
            g.cost(p)
            == (1 if p.same_cluster(0, 1) == -1 else 0)
            + (1 if p.same_cluster(0, 1) == 1 else 0)
        )


def test_recording_changes_cost_by_zero_or_one():
    g = build(4, neg=[(0, 1), (2, 3)], pos=[(1, 2)])
    for u, v in [(0, 1), (0, 3), (1, 2)]:
        for ans in (1, -1):
            g2 = g.record_response(u, v, ans)
            for p in enumerate_partitions(4):
                delta = g2.cost(p) - g.cost(p)
                assert delta in (0, 1)
                assert (delta == 1) == (p.same_cluster(u, v) != ans)


def test_truthful_answers_single_out_the_hidden_partition():
    # Full truthful information leaves the source as the only zero-cost
    # k-partition.
    for n in range(2, 6):
        for k in range(2, n + 1):
            for hidden in enumerate_k_partitions(n, k):
                g = SignedAnswers(n)
                for u in range(n):
                    for v in range(u + 1, n):
                        g = g.record_response(u, v, hidden.same_cluster(u, v))
                zero = [p for p in enumerate_k_partitions(n, k) if g.cost(p) == 0]
                assert zero == [hidden]
