"""Adaptive learners that recover a hidden partition from same-cluster queries.

Every learner here follows one scheme: keep a list of clusters found so
far, take the next unplaced element, and compare it against one
representative per existing cluster until a comparison comes back positive.
Variants differ in element order and in whether one element-versus-everyone
step is a single parallel round.  Given the optional cluster count k, a
learner skips all comparisons against the final cluster.  Lie tolerance is
one layer on top: robustify repeats each comparison until l+1 equal answers
agree, which makes the result immune to l lies.  The sweeps and that layer
each reject an answer other than +1 or -1 before recording it or asking
again; a query cap, if any, is the caller's (harness.run_game enforces one).
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


def _bad_answer(s, u: int, v: int) -> ValueError:
    return ValueError(f"oracle returned {s!r} for ({u}, {v}), expected +1 or -1")


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

    answer = oracle.answer
    asked = n if k is None else k - 1  # representatives an element is compared with
    reps: list[int] = []
    labels = [0] * n
    records: list[tuple[int, int, int, int]] = []
    for v in order:
        for idx, u in enumerate(reps[:asked]):
            s = answer(v, u)
            if s != 1 and s != -1:
                raise _bad_answer(s, v, u)
            records.append((v, u, s, len(records)))
            if s == 1:
                labels[v] = idx
                break
        else:
            if k is None or len(reps) < k:
                reps.append(v)
            labels[v] = len(reps) - 1
    return Transcript(tuple(records), Partition.from_labels(labels), len(records))


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
    answer = oracle.answer
    remaining = list(range(n))
    clusters: list[list[int]] = []
    records: list[tuple[int, int, int, int]] = []
    rounds = 0
    while remaining and (k is None or rounds < k - 1):
        rep, *rest = remaining
        clusters.append([rep])
        remaining = []
        for w in rest:
            s = answer(rep, w)
            if s != 1 and s != -1:
                raise _bad_answer(s, rep, w)
            records.append((rep, w, s, rounds))
            (clusters[-1] if s == 1 else remaining).append(w)
        rounds += 1
    if remaining:
        clusters.append(remaining)
    result = Partition(n, tuple(tuple(c) for c in clusters))
    return Transcript(tuple(records), result, rounds)


class _RepeatUntilAgreement:
    """Oracle adapter that repeats each incoming query until l+1 equal answers."""

    def __init__(self, oracle, l: int, records: list) -> None:
        self._answer = oracle.answer
        self.n = oracle.n
        self._need = l + 1
        self._records = records

    def answer(self, u: int, v: int) -> int:
        answer, records, need = self._answer, self._records, self._need
        pos = neg = 0
        while True:
            s = answer(u, v)
            if s == 1:
                pos += 1
            elif s == -1:
                neg += 1
            else:
                raise _bad_answer(s, u, v)
            records.append((u, v, s, len(records)))
            if pos == need:
                return 1
            if neg == need:
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
