"""Nonadaptive query plans: ask a fixed set of pairs, then decode all at once.

A plan lists every pair it will query, with a multiplicity for robust
variants that repeat queries.  Plans built here are minimal for their
setting: a star for two clusters, everything except a perfect matching
between the two halves for three clusters, everything except a single pair
for four or more clusters, and the complete pair set when the cluster count
is unknown.

One decoder serves every plan, built here or supplied by a user.  A
partition agrees with a set of answers exactly when, once the positive
answers have merged elements into components, it properly colors the graph
of negative answers between components, using every one of the promised
k colors.  The decoder therefore returns the unique such coloring, and
raises InfeasibleAnswersError when none exists or AmbiguousAnswersError
when more than one does.  It reads one join flag per query, the answer or
its strict majority, from answers counted per query in one pass.
plan_decodable checks every hidden partition at once, on join masks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from operator import eq, gt, not_

from ..limits import check_enumeration_n
from ..partitions import Pair, Partition, _join_masks, _pair_list, stirling2


class DecodeError(ValueError):
    """Base class for decoding failures."""


class InfeasibleAnswersError(DecodeError):
    """No partition the plan can name produces these answers."""


class AmbiguousAnswersError(DecodeError):
    """More than one partition explains the answers equally well."""


@dataclass(frozen=True)
class QueryPlan:
    """A fixed multiset of pair queries over n elements.

    k_mode is the promised number of clusters, or None when any number is
    possible.  queries holds (u, v, multiplicity) with u < v, each pair at
    most once.
    """

    n: int
    k_mode: int | None
    queries: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least two elements, got n={self.n}")
        if self.k_mode is not None and not 1 <= self.k_mode <= self.n:
            raise ValueError(f"k_mode {self.k_mode} out of range for n={self.n}")
        seen = set()
        for u, v, m in self.queries:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad pair ({u}, {v}) for n={self.n}")
            if m < 1:
                raise ValueError(f"multiplicity must be positive, got {m}")
            if (u, v) in seen:
                raise ValueError(f"pair ({u}, {v}) listed twice")
            seen.add((u, v))

    @cached_property
    def _layout(self) -> tuple[dict[Pair, int], list[int]]:
        """Each pair's position in queries, and the multiplicities in that order."""
        index = {(u, v): i for i, (u, v, _) in enumerate(self.queries)}
        return index, [m for _, _, m in self.queries]

    @property
    def total_queries(self) -> int:
        return sum(m for _, _, m in self.queries)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k_mode": self.k_mode,
            "queries": [list(q) for q in self.queries],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QueryPlan":
        """Load a plan; a "decoder" key written by older versions is ignored."""
        if not isinstance(data, dict):
            raise ValueError("a plan must be a JSON object")
        for key in ("n", "k_mode", "queries"):
            if key not in data:
                raise ValueError(f"plan has no {key!r} key")
        n, k_mode, queries = data["n"], data["k_mode"], data["queries"]
        if not _is_int(n) or not (k_mode is None or _is_int(k_mode)):
            raise ValueError("plan n and k_mode must be JSON integers (k_mode may be null)")
        queries = int_triples(queries, "plan queries must be a list of [u, v, m] integer triples")
        return cls(n, k_mode, queries)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def int_triples(data, message: str) -> tuple[tuple[int, int, int], ...]:
    """data, a JSON list of three-integer lists, as tuples; ValueError(message) otherwise."""
    if not isinstance(data, list) or not all(
        isinstance(t, list) and len(t) == 3 and all(_is_int(x) for x in t) for t in data
    ):
        raise ValueError(message)
    return tuple(tuple(t) for t in data)


def build_plan(n: int, k: int | None = None) -> QueryPlan:
    """The minimal nonadaptive plan for n elements and promised k clusters.

    With k unknown every pair must be asked.  With k known the plan leaves
    some pairs silent: n-1 star queries suffice for k=2; for k=3 the pairs
    of a perfect matching between the two halves stay unasked; for k >= 4
    exactly one pair stays unasked.  Known-k plans require 2 <= k < n.
    """
    if n < 2:
        raise ValueError(f"need at least two elements, got n={n}")
    if k is None:
        queries = tuple((u, v, 1) for u, v in _pair_list(n))
        return QueryPlan(n, None, queries)
    if not 2 <= k < n:
        raise ValueError(f"known-k plans need 2 <= k < n, got k={k}, n={n}")
    if k == 2:
        queries = tuple((0, v, 1) for v in range(1, n))
        return QueryPlan(n, 2, queries)
    if k == 3 and n >= 5:
        half = (n + 1) // 2
        silent = {(i, half + i) for i in range(n - half)}
        queries = tuple((u, v, 1) for u, v in _pair_list(n) if (u, v) not in silent)
        return QueryPlan(n, 3, queries)
    # k >= 4, and the one boundary case (n=4, k=3) where the same shape works:
    # ask everything except the single pair (n-2, n-1).
    silent_pair = (n - 2, n - 1)
    queries = tuple((u, v, 1) for u, v in _pair_list(n) if (u, v) != silent_pair)
    return QueryPlan(n, k, queries)


def robust_plan(plan: QueryPlan, l: int) -> QueryPlan:
    """Repeat every query 2l+1 times so strict majorities survive l lies."""
    if l < 0:
        raise ValueError(f"lie tolerance must be nonnegative, got {l}")
    queries = tuple((u, v, m * (2 * l + 1)) for u, v, m in plan.queries)
    return replace(plan, queries=queries)


def truthful_answers(plan: QueryPlan, hidden: Partition) -> list[tuple[int, int, int]]:
    """The answer list a truthful source produces for this plan."""
    if hidden.n != plan.n:
        raise ValueError(f"partition is over {hidden.n} elements, plan over {plan.n}")
    labels = hidden.labels
    out = []
    for u, v, m in plan.queries:
        out.extend([(u, v, 1 if labels[u] == labels[v] else -1)] * m)
    return out


def _tally(plan: QueryPlan, answers) -> tuple[list[int], list[int]]:
    """Positive and all (u, v, sign) answers per query, in plan order, counted in one pass.

    The first answer to an unasked pair or with a sign other than +1 or -1
    is rejected, then the first pair in plan order not asked as many times.
    """
    index, multiplicities = plan._layout
    pos = [0] * len(index)
    total = [0] * len(index)
    for u, v, s in answers:
        i = index.get(key := (u, v) if u < v else (v, u))
        if i is None:
            raise ValueError(f"answer for pair {key} which the plan never asks")
        if s == 1:
            pos[i] += 1
        elif s != -1:
            raise ValueError(f"answer sign must be +1 or -1, got {s!r}")
        total[i] += 1
    if total != multiplicities:
        for (u, v, m), t in zip(plan.queries, total):
            if t != m:
                raise ValueError(f"pair {(u, v)} answered {t} times, plan asks {m}")
    return pos, total


def decode_plan(plan: QueryPlan, answers) -> Partition:
    """Reconstruct the partition from one answer per planned query.

    answers is an iterable of (u, v, sign).  Plans with repeated queries
    must go through majority_decode instead.
    """
    if plan._layout[1].count(1) != len(plan.queries):
        raise ValueError("plan repeats queries; decode with majority_decode")
    return _decode(plan, _tally(plan, answers)[0])  # a count of 0 or 1 is the join flag


def majority_decode(plan: QueryPlan, answers, l: int) -> Partition:
    """Decode a repeated plan by strict per-pair majority.

    With every pair asked at least 2l+1 times, any answer source lying at
    most l times per pair cannot flip a majority, so the result matches
    what the truthful answers would decode to.  The first pair in plan
    order asked fewer times is rejected with ValueError.
    """
    if l < 0:
        raise ValueError(f"lie tolerance must be nonnegative, got {l}")
    for u, v, m in plan.queries:
        if m <= 2 * l:
            raise ValueError(f"pair {(u, v)} is asked {m} times, fewer than 2l+1 = {2 * l + 1}")
    pos, total = _tally(plan, answers)
    twice = [p + p for p in pos]
    if any(map(eq, twice, total)):
        u, v, _ = plan.queries[list(map(eq, twice, total)).index(True)]
        raise InfeasibleAnswersError(f"pair {(u, v)} answered to an exact tie")
    return _decode(plan, list(map(gt, twice, total)))


def _decode(plan: QueryPlan, joins: list) -> Partition:
    """The single candidate partition that agrees with every query's join flag, in plan order.

    Positive answers merge elements into components, and a negative answer
    inside a component contradicts them.  The candidates that remain are
    the proper colorings of the conflict graph that the negative answers
    draw between components: with every one of k_mode colors used when
    k_mode is set, and any coloring otherwise, which is unique exactly when
    every two components are told apart.
    """
    parent = list(range(plan.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in compress(plan.queries, joins):
        parent[find(u)] = find(v)
    number: dict[int, int] = {}
    comp_of = [number.setdefault(find(x), len(number)) for x in range(plan.n)]
    k = len(number)
    adj = [0] * k
    for u, v, _ in compress(plan.queries, map(not_, joins)):
        a, b = comp_of[u], comp_of[v]
        if a == b:
            raise InfeasibleAnswersError(f"answer for {(u, v)} contradicts the rest")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    if plan.k_mode is None:
        if sum(m.bit_count() for m in adj) < k * (k - 1):
            raise AmbiguousAnswersError("two groups are never told apart")
        return Partition.from_labels(comp_of)
    found = _surjective_class_partitions(adj, plan.k_mode, 2)
    if not found:
        raise InfeasibleAnswersError(
            f"no {plan.k_mode}-cluster partition explains the answers"
        )
    if len(found) > 1:
        raise AmbiguousAnswersError("answers leave more than one valid reading")
    return Partition.from_labels(found[0][c] for c in comp_of)


def _surjective_class_partitions(adj: list[int], k: int, limit: int) -> list[tuple[int, ...]]:
    """Up to limit proper colorings of a graph that use all k colors, as label tuples.

    adj[v] is the bitmask of v's neighbours.  Colors are opened in
    first-use order, so two colorings with the same color classes are never
    both returned, and the search stops as soon as limit are found.  The
    backtracking path lives in lists, not on the call stack, so graphs of
    any size are searched without recursion.
    """
    n = len(adj)
    out: list[tuple[int, ...]] = []
    labels = [0] * n
    members = [0] * k  # vertex bitmask per color
    used = [0] * (n + 1)  # colors opened before vertex v
    tried = [0] * n  # colors already tried at vertex v on the current path
    v = 0
    while v >= 0:
        if v == n:
            if used[n] == k:
                out.append(tuple(labels))
            if len(out) >= limit:
                break
            v -= 1
            continue
        c = tried[v]
        if c:
            members[c - 1] &= ~(1 << v)
        # No color at all when too few vertices are left to open the rest.
        top = min(used[v] + 1, k) if n - v >= k - used[v] else 0
        av = adj[v]
        while c < top and av & members[c]:
            c += 1
        if c == top:
            tried[v] = 0
            v -= 1
            continue
        labels[v] = c
        members[c] |= 1 << v
        tried[v] = c + 1
        used[v + 1] = used[v] + (c == used[v])
        v += 1
    return out


def plan_decodable(plan: QueryPlan, l: int = 0) -> bool:
    """Whether the plan's answer vectors separate all its candidate partitions.

    Candidates are the k_mode-cluster partitions (or all partitions when
    k_mode is None), and each query's join mask marks those joining its
    pair.  With lie tolerance l, separation means every two candidates
    disagree on queries of total multiplicity more than 2l, so no l lies
    can make one look like another.
    With lies each candidate counts the others' disagreement with it in
    binary, one mask per digit, from 2^w - (2l + 1), w the width of 2l + 1:
    a counter carries out of its top digit when it reaches 2l + 1, and a
    query asked more than 2l times carries out every candidate it costs.
    Two candidates never disagree on more than plan.total_queries, so from
    2l >= plan.total_queries on only a lone candidate is decodable, and no
    table is built.
    """
    if l < 0:
        raise ValueError(f"lie tolerance must be nonnegative, got {l}")
    check_enumeration_n(plan.n)
    ks = tuple(range(1, plan.n + 1)) if plan.k_mode is None else (plan.k_mode,)
    count = sum(stirling2(plan.n, k) for k in ks)
    if 2 * l >= plan.total_queries:
        return count == 1
    masks = _join_masks(plan.n, ks)
    if l == 0:
        rows = [f"{masks[u, v]:0{count}b}" for u, v, _ in plan.queries]
        return len(set(map("".join, zip(*rows)))) == count
    width = (2 * l + 1).bit_length()
    start = (1 << width) - (2 * l + 1)
    joins = [(masks[u, v], m) for u, v, m in plan.queries]
    everyone = (1 << count) - 1
    for i in range(count):
        bit = 1 << i
        live = everyone ^ bit  # the others not yet told apart from i
        digits = [live if start >> b & 1 else 0 for b in range(width)]
        for join, m in joins:
            costed = live & (everyone ^ join if join & bit else join)
            if m > 2 * l:
                live ^= costed
                continue
            carry = 0
            for b, d in enumerate(digits):
                add = costed if m >> b & 1 else 0
                digits[b] = d ^ add ^ carry
                carry = d & add | (d | add) & carry
            live ^= carry
        if live:
            return False
    return True
