"""Surjective graph colorings, uniqueness, and pair inseparability.

Negative answers form a graph: a partition is a zero-cost explanation of
them exactly when it is a proper coloring of that graph using every one of
the k colors.  The plan decoder reads its result off these colorings; the
adversarial responder's base answer is pair inseparability in this graph,
which the game reads off its zero-cost level instead.  The backtracker assigns
colors in first-use order, so each color-class partition is produced once,
and searches stop as soon as enough colorings are found (one for existence,
two for uniqueness).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Literal

from .instance import MULTIPLE
from .partitions import Partition


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on {0..n-1} with canonical edge tuples."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        canon = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            canon.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(canon))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        return cls(n, frozenset(tuple(e) for e in edges))

    def with_edge(self, u: int, v: int) -> "SimpleGraph":
        return SimpleGraph(self.n, self.edges | {(min(u, v), max(u, v))})

    def adjacency_masks(self) -> list[int]:
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimpleGraph":
        return cls.from_edges(int(data["n"]), [(int(u), int(v)) for u, v in data["edges"]])


def _surjective_class_partitions(g: SimpleGraph, k: int, max_count: int) -> list[tuple[int, ...]]:
    """Up to max_count color-class partitions of proper colorings using all k colors.

    Colors are introduced in first-use order, so two colorings with the same
    classes are never both emitted.
    """
    n = g.n
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k > n or (k == 0 and n > 0):
        return []
    if n == 0:
        return [()] if k == 0 else []
    adj = g.adjacency_masks()
    out: list[tuple[int, ...]] = []
    labels = [0] * n
    color_members = [0] * k  # vertex bitmask per color

    def extend(v: int, used: int) -> bool:
        if v == n:
            if used == k:
                out.append(tuple(labels))
            return len(out) >= max_count
        if n - v < k - used:
            return False  # not enough vertices left to open the remaining colors
        limit = used + 1 if used < k else k
        av = adj[v]
        for c in range(limit):
            if av & color_members[c]:
                continue
            labels[v] = c
            color_members[c] |= 1 << v
            done = extend(v + 1, used + 1 if c == used else used)
            color_members[c] &= ~(1 << v)
            if done:
                return True
        return False

    extend(0, 0)
    return out


def has_surjective_k_coloring(g: SimpleGraph, k: int) -> bool:
    """True when g has a proper coloring that uses every one of the k colors."""
    return bool(_surjective_class_partitions(g, k, 1))


def unique_surjective_k_coloring(
    g: SimpleGraph, k: int
) -> Partition | None | Literal["multiple"]:
    """The single surjective k-coloring's class partition, if it is unique.

    None when no surjective k-coloring exists, the class Partition when
    exactly one does, "multiple" otherwise.
    """
    found = _surjective_class_partitions(g, k, 2)
    if not found:
        return None
    if len(found) == 1:
        return Partition.from_labels(found[0])
    return MULTIPLE


def k_inseparable(g: SimpleGraph, k: int, u: int, v: int) -> bool:
    """True when every surjective k-coloring of g gives u and v one color.

    Vacuously true when g has no surjective k-coloring at all.  Implemented
    by asking whether g plus the edge {u, v} still has one: any coloring of
    the augmented graph separates the pair, and only those.
    """
    if u == v:
        raise ValueError("k_inseparable needs two distinct vertices")
    return not has_surjective_k_coloring(g.with_edge(u, v), k)


def unique_coloring_edge_bound_holds(g: SimpleGraph, k: int) -> bool:
    """Check m >= n(k-1) - C(k,2) for a graph with a unique surjective k-coloring.

    This is the classical minimum edge count forced on uniquely k-colorable
    graphs; callers must hand in a graph that actually has a unique
    surjective k-coloring with k < n.
    """
    if not 0 < k < g.n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={g.n}")
    witness = unique_surjective_k_coloring(g, k)
    if witness is None or witness == MULTIPLE:
        raise ValueError("graph does not have a unique surjective k-coloring")
    return len(g.edges) >= g.n * (k - 1) - comb(k, 2)
