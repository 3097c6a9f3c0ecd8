"""Adaptive learners that recover a hidden partition from same-cluster queries.

Every learner here follows one scheme: keep a list of clusters found so
far, take the next unplaced element, and compare it against one
representative per existing cluster until a comparison comes back positive.
Variants differ in the order elements are processed and in whether the
comparisons of one element-versus-everyone step are issued as a single
parallel round.  Each takes the number of clusters k as an optional
promise: given k, it skips all comparisons against the final cluster.
Lie tolerance is one layer on top of any of them: robustify repeats each
comparison until l+1 equal answers accumulate, which makes the result
immune to l lies, and robust_insertion is insertion under that layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..partitions import Partition


@dataclass(frozen=True)
class Transcript:
    """What a learner did: every query with its answer and round, plus the result.

    records holds (u, v, answer, round) tuples in the order the physical
    queries were issued.  Sequential learners use one round per query;
    parallel learners share a round index across a batch.
    """

    records: tuple[tuple[int, int, int, int], ...]
    result: Partition
    rounds: int

    @property
    def queries(self) -> int:
        return len(self.records)


def _checked_answer(oracle, u: int, v: int) -> int:
    s = oracle.answer(u, v)
    if s not in (1, -1):
        raise ValueError(f"oracle returned {s!r} for ({u}, {v}), expected +1 or -1")
    return s


def _insertion_sweep(n, oracle, order, k) -> Transcript:
    """Core insertion pass over the elements in the given order.

    k is None when the number of clusters is unknown.  When k is known and
    k clusters already exist, an element is compared against the first k-1
    representatives only: all-negative forces it into the last cluster.
    Each query is its own round.
    """
    if n < 1:
        raise ValueError(f"need at least one element, got n={n}")
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of range(n)")
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")

    clusters: list[list[int]] = []
    records: list[tuple[int, int, int, int]] = []
    for v in order:
        limit = len(clusters) if k is None else min(len(clusters), k - 1)
        placed = False
        for idx in range(limit):
            u = clusters[idx][0]
            sign = _checked_answer(oracle, v, u)
            records.append((v, u, sign, len(records)))
            if sign == 1:
                clusters[idx].append(v)
                placed = True
                break
        if not placed:
            if k is not None and len(clusters) == k:
                clusters[-1].append(v)
            else:
                clusters.append([v])
    result = Partition(n, tuple(tuple(c) for c in clusters))
    return Transcript(tuple(records), result, len(records))


def insertion_cluster(n, oracle, k=None) -> Transcript:
    """Place elements 0..n-1 in ascending order, opening clusters as needed.

    With k given, once k clusters are open an element that the first k-1
    reject joins the last one without a query.
    """
    return _insertion_sweep(n, oracle, range(n), k)


def randomized_insertion(n, oracle, seed, k=None) -> Transcript:
    """Insertion over a uniformly random element order drawn from seed."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return _insertion_sweep(n, oracle, order, k)


def robust_insertion(n, l, oracle, k=None) -> Transcript:
    """Insertion under robustify: every comparison repeats until l+1 equal answers."""
    return robustify(lambda o: insertion_cluster(n, o, k), l)(oracle)


def parallel_insertion(n, oracle, k=None) -> Transcript:
    """Cluster discovery in rounds: the representative queries everything unplaced.

    One round per cluster found.  With k given the loop stops after k-1
    rounds and whatever remains forms the final cluster without any queries.
    """
    if n < 1:
        raise ValueError(f"need at least one element, got n={n}")
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    remaining = list(range(n))
    clusters: list[list[int]] = []
    records: list[tuple[int, int, int, int]] = []
    rounds = 0
    while remaining and (k is None or rounds < k - 1):
        rep = remaining[0]
        rest = remaining[1:]
        answers = [_checked_answer(oracle, rep, w) for w in rest]
        for w, s in zip(rest, answers):
            records.append((rep, w, s, rounds))
        clusters.append([rep] + [w for w, s in zip(rest, answers) if s == 1])
        remaining = [w for w, s in zip(rest, answers) if s == -1]
        rounds += 1
    if remaining:
        clusters.append(remaining)
    result = Partition(n, tuple(tuple(c) for c in clusters))
    return Transcript(tuple(records), result, rounds)


class _RepeatUntilAgreement:
    """Oracle adapter that repeats each incoming query until l+1 equal answers."""

    def __init__(self, oracle, l: int, records: list) -> None:
        self._oracle = oracle
        self.n = oracle.n
        self._l = l
        self._records = records

    def answer(self, u: int, v: int) -> int:
        pos = neg = 0
        while True:
            s = _checked_answer(self._oracle, u, v)
            self._records.append((u, v, s, len(self._records)))
            if s == 1:
                pos += 1
                if pos == self._l + 1:
                    return 1
            else:
                neg += 1
                if neg == self._l + 1:
                    return -1


def robustify(learner, l: int):
    """Lift a lie-intolerant learner to tolerate l lies by repetition.

    learner must be a callable of a single oracle argument returning a
    Transcript (bind n, k, or seeds beforehand).  The wrapped learner
    drives the original sequentially and answers each of its queries by
    majority once one sign reaches l+1 occurrences, so any answer source
    that lies at most l times per logical comparison sequence cannot flip a
    resolved comparison.  The returned transcript records physical queries,
    one round each.
    """
    if l < 0:
        raise ValueError(f"lie tolerance must be nonnegative, got {l}")

    def robust_learner(oracle) -> Transcript:
        records: list[tuple[int, int, int, int]] = []
        inner = learner(_RepeatUntilAgreement(oracle, l, records))
        return Transcript(tuple(records), inner.result, len(records))

    return robust_learner
