"""Tests for the adaptive insertion learners."""

from __future__ import annotations

import random
from math import comb

import pytest

from liarclust.learners.adaptive import (
    _insertion_sweep,
    insertion_cluster,
    parallel_insertion,
    randomized_insertion,
    robust_insertion,
    robustify,
)
from liarclust.oracles import AdversarialOracle, RandomLiarOracle, TruthfulOracle
from liarclust.partitions import Partition, enumerate_partitions, random_k_partition


class FlipOnce:
    """Truthful except for one prescribed physical query index."""

    def __init__(self, hidden: Partition, flip_at: int) -> None:
        self.hidden = hidden
        self.n = hidden.n
        self.l = 1
        self._flip_at = flip_at
        self._asked = 0
        self.lies_used = 0

    def answer(self, u: int, v: int) -> int:
        truth = self.hidden.same_cluster(u, v)
        lie = self._asked == self._flip_at
        self._asked += 1
        if lie:
            self.lies_used += 1
            return -truth
        return truth

    def verify_budget(self) -> bool:
        return self.lies_used <= self.l


def test_truthful_recovery_every_partition():
    for n in range(1, 6):
        for hidden in enumerate_partitions(n):
            k = hidden.k
            runs = [
                insertion_cluster(n, TruthfulOracle(hidden)),
                insertion_cluster(n, TruthfulOracle(hidden), k),
                parallel_insertion(n, TruthfulOracle(hidden)),
                parallel_insertion(n, TruthfulOracle(hidden), k),
                randomized_insertion(n, TruthfulOracle(hidden), seed=3),
                randomized_insertion(n, TruthfulOracle(hidden), 3, k),
            ]
            for t in runs:
                assert t.result == hidden, (n, hidden)


def test_query_ceilings_against_truthful():
    for n in range(2, 6):
        for hidden in enumerate_partitions(n):
            k = hidden.k
            unknown_cap = n * k - comb(k + 1, 2)
            known_cap = n * (k - 1) - comb(k, 2)
            assert insertion_cluster(n, TruthfulOracle(hidden)).queries <= unknown_cap
            assert parallel_insertion(n, TruthfulOracle(hidden)).queries <= unknown_cap
            assert insertion_cluster(n, TruthfulOracle(hidden), k).queries <= known_cap
            assert parallel_insertion(n, TruthfulOracle(hidden), k).queries <= known_cap


def test_adversary_forces_known_counts():
    # Hand-checked worst-case totals against the game-playing adversary.
    cases = [
        (lambda: insertion_cluster(3, AdversarialOracle(3, 2, 0)), 3),
        (lambda: insertion_cluster(3, AdversarialOracle(3, 2, 0), 2), 2),
        (lambda: insertion_cluster(4, AdversarialOracle(4, 2, 0)), 5),
        (lambda: insertion_cluster(4, AdversarialOracle(4, 2, 0), 2), 3),
        (lambda: robust_insertion(3, 1, AdversarialOracle(3, 2, 1), 2), 5),
        (lambda: robust_insertion(4, 1, AdversarialOracle(4, 2, 1), 2), 7),
        (lambda: robust_insertion(3, 2, AdversarialOracle(3, 2, 2), 2), 8),
    ]
    for run, expected in cases:
        assert run().queries == expected


def test_adversary_runs_end_consistent():
    for n, k, l in [(3, 2, 0), (4, 2, 0), (4, 3, 0), (5, 3, 1), (5, 2, 2)]:
        oracle = AdversarialOracle(n, k, l)
        t = robust_insertion(n, l, oracle, k)
        assert oracle.is_terminal()
        assert t.result == oracle.unique_witness()
        assert oracle.verify_budget()


def test_robust_recovery_under_every_single_lie_position():
    for hidden in enumerate_partitions(4):
        k = hidden.k
        # Upper bound on physical queries any of these runs can issue.
        horizon = 3 * (4 * k)
        for flip_at in range(horizon):
            t = robust_insertion(4, 1, FlipOnce(hidden, flip_at))
            assert t.result == hidden, (hidden, flip_at, "unknown k")
            t = robust_insertion(4, 1, FlipOnce(hidden, flip_at), k)
            assert t.result == hidden, (hidden, flip_at, "known k")


def test_robust_recovery_under_eager_liar():
    hidden = Partition(5, ((0, 1, 2), (3,), (4,)))
    oracle = RandomLiarOracle(hidden, l=2, p=1.0, seed=5)
    t = robust_insertion(5, 2, oracle)
    assert t.result == hidden
    assert oracle.lies_used == 2


def _inline_robust_insertion(n, k, l, oracle):
    """Insertion that resolves each comparison in place by l+1 equal answers.

    An independent reference for robustify over insertion: one record and one
    round per physical query.
    """
    clusters: list[list[int]] = []
    records = []
    for v in range(n):
        limit = len(clusters) if k is None else min(len(clusters), k - 1)
        for cluster in clusters[:limit]:
            counts = {1: 0, -1: 0}
            while max(counts.values()) <= l:
                s = oracle.answer(v, cluster[0])
                records.append((v, cluster[0], s, len(records)))
                counts[s] += 1
            if counts[1] > l:
                cluster.append(v)
                break
        else:
            if k is not None and len(clusters) == k:
                clusters[-1].append(v)
            else:
                clusters.append([v])
    return tuple(records), len(records), Partition(n, tuple(tuple(c) for c in clusters))


def test_robustify_matches_direct_robust_learner():
    for seed in range(6):
        hidden = random_k_partition(7, 3, random.Random(f"hidden/{seed}"))
        for l in range(3):
            for k in (None, 3):
                liar = lambda: RandomLiarOracle(hidden, l, 0.5, seed=f"liar/{seed}/{l}")
                t = robust_insertion(7, l, liar(), k)
                direct = _inline_robust_insertion(7, k, l, liar())
                assert (t.records, t.rounds, t.result) == direct, (seed, l, k)


def test_robustify_protects_parallel_learner():
    hidden = Partition(4, ((0, 2), (1, 3)))
    for flip_at in range(12):
        t = robustify(lambda o: parallel_insertion(4, o), 1)(FlipOnce(hidden, flip_at))
        assert t.result == hidden, flip_at


def test_randomized_insertion_is_seed_deterministic():
    hidden = Partition(6, ((0, 5), (1, 3), (2, 4)))
    a = randomized_insertion(6, TruthfulOracle(hidden), seed=42)
    b = randomized_insertion(6, TruthfulOracle(hidden), seed=42)
    assert a == b
    seen = {
        randomized_insertion(6, TruthfulOracle(hidden), seed=s).records
        for s in range(8)
    }
    assert len(seen) > 1  # different seeds explore different orders


def test_parallel_rounds_count_clusters():
    hidden = Partition(5, ((0, 1), (2, 3), (4,)))
    t = parallel_insertion(5, TruthfulOracle(hidden))
    assert t.rounds == 3
    assert t.queries == 6
    t = parallel_insertion(5, TruthfulOracle(hidden), 3)
    assert t.rounds == 2
    assert t.queries == 6
    batch_sizes = {}
    for u, v, s, r in t.records:
        batch_sizes[r] = batch_sizes.get(r, 0) + 1
    assert batch_sizes == {0: 4, 1: 2}


def test_single_cluster_known_k_needs_no_queries():
    t = insertion_cluster(4, TruthfulOracle(Partition(4, ((0, 1, 2, 3),))), 1)
    assert t.queries == 0
    assert t.result.k == 1


def test_learner_input_validation():
    oracle = TruthfulOracle(Partition(3, ((0, 1, 2),)))
    with pytest.raises(ValueError):
        insertion_cluster(0, oracle)
    with pytest.raises(ValueError):
        insertion_cluster(3, oracle, 4)
    with pytest.raises(ValueError):
        parallel_insertion(3, oracle, 4)
    with pytest.raises(ValueError):
        parallel_insertion(3, oracle, 0)
    with pytest.raises(ValueError):
        robust_insertion(3, -1, oracle)
    with pytest.raises(ValueError):
        robustify(lambda o: insertion_cluster(3, o), -1)
    with pytest.raises(ValueError):
        _insertion_sweep(3, oracle, [0, 1], None)


def test_bad_oracle_answers_are_rejected():
    class Broken:
        n = 3

        def answer(self, u, v):
            return 0

    class ZeroOnRepeat:
        """Answers +1 the first time, then 0 when the same pair comes back."""

        n = 3

        def __init__(self):
            self.asked = 0

        def answer(self, u, v):
            self.asked += 1
            return 1 if self.asked == 1 else 0

    with pytest.raises(ValueError, match=r"returned 0 for \(1, 0\)"):
        insertion_cluster(3, Broken())
    with pytest.raises(ValueError, match=r"returned 0 for \(0, 1\)"):
        parallel_insertion(3, Broken())
    # The repetition layer checks every answer it is given, repeats included.
    with pytest.raises(ValueError, match=r"returned 0 for \(1, 0\)"):
        robust_insertion(3, 1, Broken())
    with pytest.raises(ValueError, match=r"returned 0 for \(0, 1\)"):
        robustify(lambda o: parallel_insertion(3, o), 1)(Broken())
    oracle = ZeroOnRepeat()
    with pytest.raises(ValueError, match=r"returned 0 for \(1, 0\)"):
        robust_insertion(3, 1, oracle)
    assert oracle.asked == 2
