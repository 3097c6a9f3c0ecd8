"""Partitions of the ground set {0, ..., n-1}.

A Partition is stored canonically: elements sorted inside each cluster,
clusters sorted by their smallest element.  Enumeration reads the cached
label columns of the partitions into k clusters, merged over k when k is
not fixed.  It visits every partition once, in an order that tests
elsewhere rely on ("canonical enumeration order": the lexicographic order
of the label tuples, which are restricted growth strings).  Counting is
done independently of enumeration via the usual recurrences, so each side
can audit the other.  The join masks read label masks from the same walk.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from math import factorial
from operator import and_, lshift, or_
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
    """columns[x]: the label of x in each k-partition, in canonical order, one byte each; cached."""
    return _growth_walk(n, k, False)


@cache
def _label_masks(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """masks[x][c]: bit i is set when the i-th k-partition gives x label c; cached."""
    masks = _growth_walk(n, k, True)
    return tuple(masks[x * k:x * k + k] for x in range(n))


def _growth_walk(n: int, k: int, masks: bool) -> tuple:
    """The k-partitions' label columns, or their label masks, k per element, in one walk.

    A growth-string prefix's completions depend only on (positions left,
    labels used), so each such state is built once, from the end back: its
    first column repeats each allowed label, ascending, once per completion
    of that child, and each later column joins the children's columns; its
    masks, masks[i*k + c] at its i-th position, shift and sum the same way.
    """
    check_enumeration_n(n)
    if not 0 < k <= n:
        return ()
    states = {k: (1, ())}  # labels used -> (completions, columns or masks), `left` to fill
    for left in range(1, n):
        level = {}
        for used in range(max(1, k - left), min(k, n - left) + 1):
            kids, offsets, head, at = [], [], [0 if masks else b""] * k, 0
            for c in range(min(used + 1, k)):
                if max(used, c + 1) + left - 1 >= k:  # the rest can still open every label
                    count, tables = states[max(used, c + 1)]
                    kids.append(tables)
                    offsets.append(at)
                    head[c] = ((1 << count) - 1) << at if masks else bytes([c]) * count
                    at += count
            if masks:
                level[used] = at, (*head, *(sum(map(lshift, m, offsets)) for m in zip(*kids)))
            else:
                level[used] = at, (b"".join(head), *map(b"".join, zip(*kids)))
        states = level
    count, tables = states[1]
    return ((1 << count) - 1, *[0] * (k - 1), *tables) if masks else (bytes(count), *tables)


def _pair_list(n: int) -> tuple[Pair, ...]:
    """Every pair (u, v) with u < v over {0..n-1}, in lexicographic order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@cache
def _join_masks(n: int, ks: tuple[int, ...]) -> dict[Pair, int]:
    """Per pair: bitmask over the candidates that put the pair together; cached.

    The candidates are the k-partitions for each k in ks, side by side,
    each k's in canonical order, and bit i stands for the i-th.  Each k's
    label masks are shifted past the candidates of the ks before it; a
    pair is joined where its two elements share a label.
    """
    check_enumeration_n(n)
    masks, at = [[0] * max(ks) for _ in range(n)], 0
    for k in ks:
        for row, labels in zip(masks, _label_masks(n, k)):
            row[:k] = [r | mask << at for r, mask in zip(row, labels)]
        at += stirling2(n, k)
    return {(u, v): reduce(or_, map(and_, masks[u], masks[v])) for u, v in _pair_list(n)}


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


@cache
def _growth_counts(n: int, k: int) -> list[list[int]]:
    """counts[left][used]: ways to fill left more growth-string positions, opening all k labels."""
    counts = [[int(used == k) for used in range(k + 2)]]
    for _ in range(n):
        counts.append([u * counts[-1][u] + counts[-1][u + 1] for u in range(k + 1)] + [0])
    return counts


@cache
def _rejection_is_slow(n: int, k: int) -> bool:
    """Would rejection take more than 1,000 draws on average, k^n / (k! S(n, k))?"""
    return k**n > 1000 * factorial(k) * stirling2(n, k)


def random_k_partition(n: int, k: int, rng: random.Random) -> Partition:
    """Uniform random partition of {0..n-1} into exactly k clusters.

    Samples uniform surjections onto k labels and rejects non-surjective
    draws; every k-partition has exactly k! labelings, so the induced
    distribution over partitions is uniform.  Where that takes more than
    1,000 draws on average, it draws a growth string label by label instead,
    each label weighted by the completions of the state it leads to.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    randrange = rng.randrange
    if not _rejection_is_slow(n, k):
        while True:
            labels = [randrange(k) for _ in range(n)]
            if len(set(labels)) == k:
                return Partition.from_labels(labels)
    counts, labels, used = _growth_counts(n, k), [0], 1
    for left in range(n - 2, -1, -1):
        stay = used * counts[left][used]  # picks below stay keep one of the used labels
        pick = randrange(counts[left + 1][used])
        labels.append(pick % used if pick < stay else used)
        used += pick >= stay
    return Partition.from_labels(labels)
