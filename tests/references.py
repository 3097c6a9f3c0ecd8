"""Plain references that tests check the package against.

SignedAnswers keeps every answer about each pair as a weight, so the
disagreement cost of a partition is a sum over the record, with no level
masks.  k_inseparable asks the plan decoder's coloring search whether a
pair can be split, without going through the adversary's level masks.
k_partitions filters every restricted growth string, so it reads none of
the label columns that the package enumerates k-partitions from, nor does
label_tuples, which reads its partitions' labels, and
relabel_tables applies every permutation of the elements to every
k-partition, where the solver closes the adjacent swaps under composition.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Iterator

from liarclust.learners.plans import _surjective_class_partitions
from liarclust.partitions import Partition, _restricted_growth_strings

Pair = tuple[int, int]


def k_partitions(n: int, k: int) -> Iterator[Partition]:
    """Every partition of {0..n-1} into exactly k clusters, in canonical order."""
    for labels in _restricted_growth_strings(n):
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
