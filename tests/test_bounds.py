"""Tests for the closed-form bounds, pinned to independently computed values."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import log2

import pytest

from liarclust.bounds import (
    adaptive_lower_bound,
    adaptive_lower_bound_ceil,
    build_bounds_report,
    expected_queries,
    expected_queries_robust_worst_case,
    expected_queries_worst_case,
    hamming_ball_volume,
    upper_bound_known,
    upper_bound_unknown,
    volume_bound,
)
from liarclust.learners.adaptive import _insertion_sweep
from liarclust.oracles import TruthfulOracle
from liarclust.partitions import Partition
from references import compositions


def _compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def test_adaptive_lower_bound_values():
    assert adaptive_lower_bound(6, 3, 2) == Fraction(31, 2)
    assert adaptive_lower_bound_ceil(6, 3, 2) == 16
    assert adaptive_lower_bound(6, 3, 0) == 9
    assert adaptive_lower_bound(5, 2, 1) == 6
    assert adaptive_lower_bound(3, 2, 0) == 2
    # The no-lie case collapses to the classical count once the surcharge
    # term goes nonpositive.
    assert adaptive_lower_bound(7, 2, 0) == 7 * 1 - 1
    with pytest.raises(ValueError):
        adaptive_lower_bound(5, 1, 0)
    with pytest.raises(ValueError):
        adaptive_lower_bound(5, 5, 0)
    with pytest.raises(ValueError):
        adaptive_lower_bound(5, 2, -1)


def test_upper_bounds_values():
    assert upper_bound_known(6, 3, 2) == 29
    assert upper_bound_known(6, 3, 0) == 9
    assert upper_bound_unknown(6, 3, 0) == 12
    assert upper_bound_unknown(4, 2, 1) == 2 * 5 + 1
    with pytest.raises(ValueError):
        upper_bound_known(4, 5, 0)
    with pytest.raises(ValueError):
        upper_bound_unknown(4, 2, -1)


def test_bound_ordering_over_grid():
    for n in range(3, 9):
        for k in range(2, n):
            for l in range(4):
                lower = adaptive_lower_bound(n, k, l)
                known = upper_bound_known(n, k, l)
                unknown = upper_bound_unknown(n, k, l)
                assert lower <= known <= unknown, (n, k, l)


def test_expected_queries_pinned_values():
    assert expected_queries((2, 1)) == Fraction(7, 3)
    assert expected_queries((1, 1)) == 1
    assert expected_queries((3,)) == 2  # one cluster: n - 1 positive queries
    assert expected_queries((2, 2)) == 4
    # Told k, one cluster costs nothing and two cost n - 1 in every order.
    assert expected_queries((3,), known_k=True) == 0
    assert expected_queries((2, 1), known_k=True) == 2
    assert expected_queries((5, 4), known_k=True) == 8
    assert expected_queries((3, 2, 2), known_k=True) == Fraction(67, 7)
    with pytest.raises(ValueError):
        expected_queries(())
    with pytest.raises(ValueError):
        expected_queries((2, 0))


def test_expected_queries_is_size_order_invariant():
    assert expected_queries((3, 1, 2)) == expected_queries((1, 2, 3))


def test_expected_queries_matches_exhaustive_average():
    # Average the insertion learner over every element order and compare.
    for sizes in [(2, 1), (2, 2), (3, 1), (2, 2, 1), (3, 2)]:
        n = sum(sizes)
        clusters = []
        start = 0
        for s in sizes:
            clusters.append(tuple(range(start, start + s)))
            start += s
        hidden = Partition(n, tuple(clusters))
        total = 0
        count = 0
        for order in permutations(range(n)):
            t = _insertion_sweep(n, TruthfulOracle(hidden), order, None)
            total += t.queries
            count += 1
        assert Fraction(total, count) == expected_queries(sizes), sizes


def test_known_k_saves_the_later_elements_of_the_last_opened_cluster():
    # The lemma behind expected_queries(sizes, known_k=True), order by order:
    # told k, each element of the cluster that opens last, apart from its
    # first, skips one comparison, and nothing else changes.
    for n in range(1, 7):
        for sizes in compositions(n):
            labels = [c for c, s in enumerate(sizes) for _ in range(s)]
            oracle = TruthfulOracle(Partition.from_labels(labels))
            for order in permutations(range(n)):
                last = [*dict.fromkeys(labels[e] for e in order)][-1]
                unknown = _insertion_sweep(n, oracle, order, None).queries
                known = _insertion_sweep(n, oracle, order, len(sizes)).queries
                assert known == unknown - (sizes[last] - 1), (sizes, order)


def test_worst_case_expectation_dominates_all_compositions():
    for n in range(2, 8):
        for k in range(1, n + 1):
            cap = expected_queries_worst_case(n, k)
            best = max(expected_queries(sizes) for sizes in _compositions(n, k))
            assert best <= cap, (n, k)
            if n % k == 0:
                balanced = tuple([n // k] * k)
                assert expected_queries(balanced) == cap, (n, k)


def test_robust_expectation_scale():
    assert expected_queries_robust_worst_case(6, 3, 0) == expected_queries_worst_case(6, 3)
    # (l+1) * (n(k+1)/2 - k) + l with n=6, k=3, l=2 is 3*9 + 2.
    assert expected_queries_robust_worst_case(6, 3, 2) == 29


def test_hamming_volumes():
    assert hamming_ball_volume(1, 3) == 4
    assert hamming_ball_volume(2, 4) == 11
    assert hamming_ball_volume(0, 9) == 1
    assert hamming_ball_volume(5, 3) == 8  # capped at the whole cube
    with pytest.raises(ValueError):
        hamming_ball_volume(-1, 3)


def test_liar_counting():
    # The volume bound at the root: every candidate within budget at cost 0.
    assert volume_bound((3,), 0) == 2
    assert volume_bound((3,), 1) == 4
    assert volume_bound((1,), 2) == volume_bound((0, 0, 1), 2) == 0  # a lone candidate
    for hist in [(), (0,), (0, 0, 0)]:
        with pytest.raises(ValueError):
            volume_bound(hist, len(hist))


def test_bounds_report_roundtrip():
    data = build_bounds_report(6, 3, 2)
    assert data["adaptive_lower"] == "31/2"
    assert data["adaptive_lower_ceil"] == 16
    assert data["adaptive_upper_known"] == 29
    assert data["counting_floor"] == volume_bound((90,), 2)
    assert data["entropy_floor_known"] == log2(90)  # S(6, 3) = 90 candidates
