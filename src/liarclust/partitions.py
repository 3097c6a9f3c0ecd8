"""Partitions of the ground set {0, ..., n-1}.

A Partition is stored canonically: elements sorted inside each cluster,
clusters sorted by their smallest element.  Enumeration reads the cached
label columns of the partitions into k clusters, merged over k when k is
not fixed.  It visits every partition once, in an order that tests
elsewhere rely on ("canonical enumeration order": the lexicographic order
of the label tuples, which are restricted growth strings).  Counting is
done independently of enumeration via the usual recurrences, so each side
can audit the other.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from operator import and_, or_
from typing import Iterable, Iterator

from .limits import check_enumeration_n

Pair = tuple[int, int]


@dataclass(frozen=True)
class Partition:
    """A partition of {0..n-1} into nonempty clusters, held in canonical form."""

    n: int
    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        if any(not c for c in self.clusters):
            raise ValueError("empty cluster")
        canon = tuple(sorted((tuple(sorted(c)) for c in self.clusters), key=lambda c: c[0]))
        seen: set[int] = set()
        for cluster in canon:
            for x in cluster:
                if not 0 <= x < self.n:
                    raise ValueError(f"element {x} out of range for n={self.n}")
                if x in seen:
                    raise ValueError(f"element {x} appears twice")
                seen.add(x)
        if len(seen) != self.n:
            raise ValueError("clusters do not cover the ground set")
        object.__setattr__(self, "clusters", canon)

    @classmethod
    def from_labels(cls, labels: Iterable[int]) -> "Partition":
        """Build from a cluster-id sequence indexed by element.

        Grouping elements by label in order of first use yields the canonical
        form directly, so the constructor's sort and checks are skipped.
        """
        labels = tuple(labels)
        groups: dict[int, list[int]] = {}
        for x, lab in enumerate(labels):
            groups.setdefault(lab, []).append(x)
        out = object.__new__(cls)
        object.__setattr__(out, "n", len(labels))
        object.__setattr__(out, "clusters", tuple(map(tuple, groups.values())))
        return out

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """Element -> cluster index (clusters in canonical order)."""
        out = [0] * self.n
        for idx, cluster in enumerate(self.clusters):
            for x in cluster:
                out[x] = idx
        return tuple(out)

    @property
    def k(self) -> int:
        return len(self.clusters)

    def same_cluster(self, u: int, v: int) -> int:
        """+1 when u and v share a cluster, -1 otherwise."""
        if u == v:
            raise ValueError("same_cluster needs two distinct elements")
        labels = self.labels
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair ({u}, {v}) out of range for n={self.n}")
        return 1 if labels[u] == labels[v] else -1

    def to_json_dict(self) -> dict:
        return {"n": self.n, "clusters": [list(c) for c in self.clusters]}


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0..n-1}, in canonical enumeration order.

    Each k's label tuples come in that order, so merging them over k gives
    every partition's labels in it too.
    """
    check_enumeration_n(n)
    if n == 0:
        yield Partition(0, ())
    for labels in heapq.merge(*(zip(*_label_columns(n, k)) for k in range(1, n + 1))):
        yield Partition.from_labels(labels)


def enumerate_k_partitions(n: int, k: int) -> Iterator[Partition]:
    """Every partition with exactly k clusters, in canonical enumeration order."""
    check_enumeration_n(n)
    if n == k == 0:
        yield Partition(0, ())
    for labels in zip(*_label_columns(n, k)):
        yield Partition.from_labels(labels)


@cache
def _label_columns(n: int, k: int) -> tuple[bytes, ...]:
    """Per element, its label in each k-partition in canonical order, one byte each; cached.

    A growth-string prefix's completions depend only on (positions left,
    labels used), so each such state is built once, from the end back: its
    first column repeats each allowed label, ascending, once per completion
    of that child, and each later column joins the children's columns.
    """
    check_enumeration_n(n)
    if not 0 < k <= n:
        return ()
    states = {k: (1, ())}  # labels used -> (completions, columns), `left` positions to fill
    for left in range(1, n):
        level = {}
        for used in range(max(1, k - left), min(k, n - left) + 1):
            kids = [(c, *states[max(used, c + 1)]) for c in range(min(used + 1, k))
                    if max(used, c + 1) + left - 1 >= k]  # the rest can still open every label
            first = b"".join(bytes([c]) * count for c, count, _ in kids)
            rest = (b"".join(cols[i] for _, _, cols in kids) for i in range(left - 1))
            level[used] = len(first), (first, *rest)
        states = level
    count, columns = states[1]
    return (bytes(count), *columns)


def _pair_list(n: int) -> tuple[Pair, ...]:
    """Every pair (u, v) with u < v over {0..n-1}, in lexicographic order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@cache
def _join_masks(n: int, ks: tuple[int, ...]) -> dict[Pair, int]:
    """Per pair: bitmask over the candidates that put the pair together; cached.

    The candidates are the k-partitions for each k in ks, side by side,
    each k's in canonical order, and bit i stands for the i-th.  The mask
    of label c at element x is read off x's label columns, joined over ks,
    as a string of binary digits, reversed so that the first candidate is
    the lowest bit; a pair is joined where its two elements share a label.
    """
    top = max(ks)
    digits = [bytes.maketrans(bytes(range(top)), bytes(49 if d == c else 48 for d in range(top)))
              for c in range(top)]
    cols = [b"".join(_label_columns(n, k)[x] for k in ks) for x in range(n)]
    masks = [[int(col[::-1].translate(t), 2) for t in digits] for col in cols]
    return {(u, v): reduce(or_, map(and_, masks[u], masks[v])) for u, v in _pair_list(n)}


def _charge(levels: list[int], costed: int, step: int = 1) -> None:
    """Move the costed candidates up step levels, in place.

    levels[j] is the mask of the candidates that disagree with exactly j
    answers; a candidate pushed past the last level drops out.
    """
    spared = ~costed
    for j in range(len(levels) - 1, -1, -1):
        levels[j] = (levels[j] & spared | levels[j - step] & costed if j >= step
                     else levels[j] & spared)


def _stirling_row(n: int, k: int) -> list[int]:
    """stirling2(n, j) for j = 0..k, one row of the recurrence at a time."""
    row = [1] + [0] * k
    for _ in range(n):
        for j in range(k, 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row


@cache
def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty clusters."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    return _stirling_row(n, k)[k]


@cache
def bell(n: int) -> int:
    """Number of partitions of an n-set."""
    if n < 0:
        raise ValueError("bell needs a nonnegative argument")
    return sum(_stirling_row(n, n))


def random_k_partition(n: int, k: int, rng: random.Random) -> Partition:
    """Uniform random partition of {0..n-1} into exactly k clusters.

    Samples uniform surjections onto k labels and rejects non-surjective
    draws; every k-partition has exactly k! labelings, so the induced
    distribution over partitions is uniform.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    randrange = rng.randrange
    while True:
        labels = [randrange(k) for _ in range(n)]
        if len(set(labels)) == k:
            return Partition.from_labels(labels)
