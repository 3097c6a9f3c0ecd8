"""Plain references that tests check the package against.

SignedAnswers keeps every answer about each pair as a weight, so the
disagreement cost of a partition is a sum over the record, with no level
masks.  k_inseparable asks the plan decoder's coloring search whether a
pair can be split, without going through the adversary's level masks.
k_partitions filters every restricted growth string, so it reads none of
the label columns that the package enumerates partitions from, nor does
label_tuples, which reads its partitions' labels, and
relabel_tables applies every permutation of the elements to every
k-partition, where the solver closes the adjacent swaps under composition;
canonical_key applies the solver's key rule to every one of those tables.
AUDIT_GRIDS spells out the cells that each harness audit table must name.
label_sequence_mean runs the insertion sweep on one order per distinct
sequence of cluster labels, where the harness keeps one per set partition
of the positions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from typing import Iterator

from liarclust.learners.adaptive import _insertion_sweep
from liarclust.learners.plans import _surjective_class_partitions
from liarclust.oracles import TruthfulOracle
from liarclust.partitions import Partition

Pair = tuple[int, int]


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All length-n restricted growth strings, lexicographically."""
    if n == 0:
        yield ()
        return
    a = [0] * n
    cap = [1] * n  # cap[i] = max(a[:i]) + 1, the one new label position i may open
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] >= cap[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        m = max(cap[i] - 1, a[i]) + 1
        for j in range(i + 1, n):
            a[j] = 0
            cap[j] = m


def k_partitions(n: int, k: int) -> Iterator[Partition]:
    """Every partition of {0..n-1} into exactly k clusters, in canonical order."""
    for labels in restricted_growth_strings(n):
        if (max(labels) if labels else -1) == k - 1:
            yield Partition.from_labels(labels)


def label_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The labels of every k-partition of {0..n-1}, in canonical order."""
    return tuple(p.labels for p in k_partitions(n, k))


@cache
def relabel_tables(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Index permutations of the k-partitions induced by each relabeling of {0..n-1}.

    Table t sends the position with costs c to (c[t[0]], c[t[1]], ...): t[j]
    is the candidate that the relabeling moves to index j.  Sorted, one per
    distinct table; cached.
    """
    candidates = list(k_partitions(n, k))
    index_of = {p: i for i, p in enumerate(candidates)}
    tables = set()
    for perm in itertools.permutations(range(n)):
        t = [0] * len(candidates)
        for i, p in enumerate(candidates):
            t[index_of[Partition.from_labels(p.labels[u] for u in perm)]] = i
        tables.add(tuple(t))
    return tuple(sorted(tables))


def canonical_key(n: int, k: int, costs: bytes) -> bytes:
    """The solver's key of a position with one cost per k-partition, by brute force.

    The orbit of index j holds the t[j] over every table t, and it is named
    by its first index.  Each (orbit, cost) class is the set of tables t with
    costs[t[j]] == cost at the orbit's first index j; the class with the
    fewest tables wins, ties to the lower cost and then the lower j, and the
    key is the least image of costs over the winner's tables.
    """
    tables = relabel_tables(n, k)
    classes = []
    for j in sorted({min(t[j] for t in tables) for j in range(len(costs))}):
        for cost in set(costs[t[j]] for t in tables):
            picked = [t for t in tables if costs[t[j]] == cost]
            classes.append((len(picked), cost, j, picked))
    picked = min(classes, key=lambda c: c[:3])[3]
    return min(bytes(costs[i] for i in t) for t in picked)


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of positive integers that sums to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first, *rest)


def label_sequence_mean(sizes: tuple[int, ...], known_k: bool) -> Fraction:
    """Mean sweep queries over every distinct sequence of cluster labels.

    The sequences come from the multiset next-permutation step; the j-th
    occurrence of label c becomes the j-th element of cluster c, whose
    elements are numbered consecutively in label order.
    """
    labels = [c for c, s in enumerate(sizes) for _ in range(s)]
    n = len(labels)
    oracle = TruthfulOracle(Partition.from_labels(labels))
    k = len(sizes) if known_k else None
    starts = [labels.index(c) for c in range(len(sizes))]
    total = count = 0
    while True:
        nxt = list(starts)
        order = []
        for c in labels:
            order.append(nxt[c])
            nxt[c] += 1
        total += _insertion_sweep(n, oracle, order, k).queries
        count += 1
        i = n - 2
        while i >= 0 and labels[i] >= labels[i + 1]:
            i -= 1
        if i < 0:
            return Fraction(total, count)
        j = n - 1
        while labels[j] <= labels[i]:
            j -= 1
        labels[i], labels[j] = labels[j], labels[i]
        labels[i + 1 :] = reversed(labels[i + 1 :])


# Audit table -> its cells in row order: (n, k) with None for unknown k, or (n, k, l).
AUDIT_GRIDS = {
    1: [(n, k) for n in range(2, 8) for k in [*range(2, n), None]],
    2: [(n, k) for n in range(2, 8) for k in range(2, n + 1)],
    3: [(n, k, l) for n in range(3, 7) for k in range(2, n) for l in range(3)],
}


def audit_cell(cell: tuple) -> str:
    """How an audit row names a grid cell, as in "n=5 k=3 l=1", with k=? for unknown k."""
    return " ".join(f"{name}={'?' if x is None else x}" for name, x in zip("nkl", cell))


class SignedAnswers:
    """Answer weights on {0..n-1}: +1 answers in pos, -1 answers in neg.

    record_response returns a new record and leaves the receiver unchanged.
    """

    def __init__(self, n: int, pos: dict[Pair, int] | None = None,
                 neg: dict[Pair, int] | None = None) -> None:
        self.n, self.pos, self.neg = n, dict(pos or {}), dict(neg or {})

    def record_response(self, u: int, v: int, answer: int) -> "SignedAnswers":
        if u == v or not (0 <= u < self.n and 0 <= v < self.n) or answer not in (1, -1):
            raise ValueError(f"bad answer {answer!r} for pair ({u}, {v}), n={self.n}")
        out = SignedAnswers(self.n, self.pos, self.neg)
        book = out.pos if answer == 1 else out.neg
        pair = (min(u, v), max(u, v))
        book[pair] = book.get(pair, 0) + 1
        return out

    def cost(self, p: Partition) -> int:
        """Total weight of recorded answers that p violates."""
        labels = p.labels
        split = sum(w for (u, v), w in self.pos.items() if labels[u] != labels[v])
        return split + sum(w for (u, v), w in self.neg.items() if labels[u] == labels[v])


def adjacency(n: int, edges) -> list[int]:
    """Neighbour bitmask per vertex of the graph on {0..n-1}."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def k_inseparable(n: int, edges, k: int, u: int, v: int) -> bool:
    """True when every proper coloring using all k colors gives u and v one color.

    Vacuously true when there is no such coloring: the graph plus the edge
    {u, v} has a coloring exactly when some coloring separates the pair.
    """
    return not _surjective_class_partitions(adjacency(n, [*edges, (u, v)]), k, 1)
