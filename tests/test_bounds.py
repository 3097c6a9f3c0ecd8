"""Tests for the closed-form bounds, pinned to independently computed values."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import isclose, log2

import pytest

from liarclust.bounds import (
    adaptive_lower_bound,
    adaptive_lower_bound_ceil,
    binary_entropy,
    build_bounds_report,
    expected_queries,
    expected_queries_robust_worst_case,
    expected_queries_worst_case,
    hamming_ball_volume,
    info_lower_bound_known,
    info_lower_bound_unknown,
    upper_bound_known,
    upper_bound_unknown,
    volume_bound,
)
from liarclust.learners.adaptive import _insertion_sweep
from liarclust.oracles import TruthfulOracle
from liarclust.partitions import Partition


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


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert isclose(binary_entropy(0.25), 0.8112781244591328, rel_tol=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_info_floors():
    assert isclose(info_lower_bound_known(6, 3), log2(90), rel_tol=1e-12)
    assert isclose(info_lower_bound_unknown(4), log2(15), rel_tol=1e-12)
    # A noisy channel shrinks capacity and raises the floor.
    assert info_lower_bound_known(6, 3, 0.25) > info_lower_bound_known(6, 3)
    with pytest.raises(ValueError):
        info_lower_bound_known(6, 3, 0.5)
    with pytest.raises(ValueError):
        info_lower_bound_unknown(4, -0.1)
    with pytest.raises(ValueError):
        info_lower_bound_known(3, 5)


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
    report = build_bounds_report(6, 3, 2)
    data = report.to_json_dict()
    assert data["adaptive_lower"] == "31/2"
    assert data["adaptive_lower_ceil"] == 16
    assert data["adaptive_upper_known"] == 29
    assert data["counting_floor"] == volume_bound((90,), 2)
    assert isclose(data["entropy_floor_known"], log2(90), rel_tol=1e-12)
