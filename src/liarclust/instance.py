"""Signed query instances.

A SignedInstance records every answer ever given about pairs of elements:
positive weight for "same cluster", negative weight for "different cluster".
The same pair may carry both kinds of weight, because an unreliable source
can contradict itself.  The disagreement cost of a candidate partition is
the total weight of answers it violates; minimising that cost by exhaustion
is exact at desk scale and is the ground truth everything else is checked
against.
"""

from __future__ import annotations

from typing import Iterator, Literal

from .limits import check_enumeration_n
from .partitions import Partition, enumerate_k_partitions, enumerate_partitions

Pair = tuple[int, int]

MULTIPLE: Literal["multiple"] = "multiple"


def _pair_key(n: int, u: int, v: int) -> Pair:
    if u == v:
        raise ValueError("a query pair needs two distinct elements")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"pair ({u}, {v}) out of range for n={n}")
    return (u, v) if u < v else (v, u)


class SignedInstance:
    """Weighted positive/negative answer multigraph on {0..n-1}.

    Value semantics: record_response returns a new instance and never
    mutates the receiver.
    """

    __slots__ = ("n", "_pos", "_neg")

    def __init__(
        self,
        n: int,
        pos: dict[Pair, int] | None = None,
        neg: dict[Pair, int] | None = None,
    ) -> None:
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        self.n = n
        self._pos: dict[Pair, int] = {}
        self._neg: dict[Pair, int] = {}
        for source, target in ((pos, self._pos), (neg, self._neg)):
            if not source:
                continue
            for (u, v), w in source.items():
                if w < 0:
                    raise ValueError(f"negative weight {w} for pair ({u}, {v})")
                if w:
                    target[_pair_key(n, u, v)] = target.get(_pair_key(n, u, v), 0) + w

    @property
    def pos(self) -> dict[Pair, int]:
        return dict(self._pos)

    @property
    def neg(self) -> dict[Pair, int]:
        return dict(self._neg)

    def total_weight(self) -> int:
        return sum(self._pos.values()) + sum(self._neg.values())

    def record_response(self, u: int, v: int, answer: int) -> "SignedInstance":
        """New instance with one more +1/-1 answer about the pair (u, v)."""
        if answer not in (1, -1):
            raise ValueError(f"answer must be +1 or -1, got {answer}")
        key = _pair_key(self.n, u, v)
        out = SignedInstance(self.n)
        out._pos.update(self._pos)
        out._neg.update(self._neg)
        book = out._pos if answer == 1 else out._neg
        book[key] = book.get(key, 0) + 1
        return out

    def cost(self, p: Partition) -> int:
        """Total weight of recorded answers that p violates."""
        if p.n != self.n:
            raise ValueError(f"partition is over n={p.n}, instance over n={self.n}")
        labels = p.labels
        total = 0
        for (u, v), w in self._pos.items():
            if labels[u] != labels[v]:
                total += w
        for (u, v), w in self._neg.items():
            if labels[u] == labels[v]:
                total += w
        return total

    def cc_min(self) -> tuple[int, Partition]:
        """Minimum disagreement cost over all partitions, with the first witness."""
        return self._minimise(enumerate_partitions(self.n))

    def cc_min_k(self, k: int) -> tuple[int, Partition]:
        """Minimum disagreement cost over partitions into exactly k clusters."""
        if not 0 < k <= self.n:
            raise ValueError(f"need 0 < k <= n, got k={k}, n={self.n}")
        return self._minimise(enumerate_k_partitions(self.n, k))

    def _minimise(self, candidates: Iterator[Partition]) -> tuple[int, Partition]:
        best: Partition | None = None
        best_cost = 0
        for p in candidates:
            c = self.cost(p)
            if best is None or c < best_cost:
                best, best_cost = p, c
                if best_cost == 0:
                    break
        if best is None:
            raise ValueError("no candidate partitions (empty ground set with k > 0?)")
        return best_cost, best

    def is_consistent(self, l: int, k: int) -> bool:
        """True when some k-clustered partition violates answers of weight <= l."""
        if l < 0:
            raise ValueError(f"lie budget must be nonnegative, got {l}")
        check_enumeration_n(self.n)
        for p in enumerate_k_partitions(self.n, k):
            if self.cost(p) <= l:
                return True
        return False

    def unique_consistency_witness(
        self, l: int, k: int
    ) -> Partition | None | Literal["multiple"]:
        """The sole k-clustered partition with cost <= l, if there is exactly one.

        Returns None when no partition fits, the partition when exactly one
        does, and the string "multiple" otherwise.  "First minimizer" ties
        elsewhere mean canonical enumeration order, which this walk follows.
        """
        if l < 0:
            raise ValueError(f"lie budget must be nonnegative, got {l}")
        check_enumeration_n(self.n)
        found: Partition | None = None
        for p in enumerate_k_partitions(self.n, k):
            if self.cost(p) <= l:
                if found is not None:
                    return MULTIPLE
                found = p
        return found

    def negative_pairs(self) -> frozenset[Pair]:
        """Support of the negative side, ignoring weights."""
        return frozenset(self._neg)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedInstance):
            return NotImplemented
        return self.n == other.n and self._pos == other._pos and self._neg == other._neg

    def __repr__(self) -> str:
        return f"SignedInstance(n={self.n}, pos={self._pos!r}, neg={self._neg!r})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pos": [[u, v, w] for (u, v), w in sorted(self._pos.items())],
            "neg": [[u, v, w] for (u, v), w in sorted(self._neg.items())],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SignedInstance":
        n = int(data["n"])
        pos = {(int(u), int(v)): int(w) for u, v, w in data.get("pos", [])}
        neg = {(int(u), int(v)): int(w) for u, v, w in data.get("neg", [])}
        return cls(n, pos, neg)
