"""The adversarial same-cluster game.

A questioner repeatedly names a pair of elements; a responder answers +1
(same cluster) or -1 (different), by any rule it likes, as long as some
partition into exactly k clusters violates answers of total weight at most
l.  The game ends when exactly one such partition remains: at that point
the answers determine the partition even against l lies, so the number of
queries played is exactly the cost of learning it.  This module provides

  * GameState: the running record of one game, with incremental
    disagreement costs against every candidate k-partition;
  * responder_answer: the concrete adversary used by the oracle layer,
    which answers "different" whenever some zero-cost explanation still
    allows it and, when cornered, commits to an expensive alternative
    explanation to drag the game out;
  * exact_game_value: the game-theoretic value under optimal play on both
    sides, by memoized alpha-beta search over capped cost vectors.

The search caps every recorded cost at l+1: a partition past the lie budget
is out of the game no matter how much further weight it collects.  A
position is a bytes object with one capped cost per candidate, so l is at
most 254, and a child position is built by C-level maps over it.  Positions
are identified up to relabeling of the ground set: the key is the least
image of the position under one operator.itemgetter per relabel table,
memoized per raw position for the life of one search.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import cache
from operator import add, itemgetter

from .coloring import SimpleGraph, k_inseparable
from .instance import SignedInstance
from .limits import check_permutation_n
from .partitions import Partition, k_partition_label_tuples, stirling2

Pair = tuple[int, int]

_INF = 1 << 30


class SearchBudgetExceededError(RuntimeError):
    """The minimax search gave up: it ran out of nodes or of depth."""

    def __init__(self, nodes: int, detail: str | None = None) -> None:
        self.nodes = nodes
        super().__init__(
            detail or f"game-value search exceeded its node budget after {nodes} nodes"
        )


@cache
def _pair_list(n: int) -> tuple[Pair, ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@cache
def _join_masks(n: int, k: int) -> dict[Pair, int]:
    """Per pair: bitmask over k-partition indices that put the pair together."""
    labels = k_partition_label_tuples(n, k)
    masks: dict[Pair, int] = {}
    for u, v in _pair_list(n):
        m = 0
        for i, lab in enumerate(labels):
            if lab[u] == lab[v]:
                m |= 1 << i
        masks[(u, v)] = m
    return masks


def _first_use_labels(labels: tuple[int, ...]) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    out = []
    for x in labels:
        if x not in seen:
            seen[x] = len(seen)
        out.append(seen[x])
    return tuple(out)


@cache
def _relabel_tables(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Index permutations of the k-partition list induced by relabeling {0..n-1}.

    For table t, the state vector of the relabeled position is
    (cost[t[0]], cost[t[1]], ...); taking the minimum over all tables gives a
    canonical key for positions that differ only by element names.
    """
    labels = k_partition_label_tuples(n, k)
    index_of = {lab: i for i, lab in enumerate(labels)}
    tables: set[tuple[int, ...]] = set()
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, x in enumerate(perm):
            inv[x] = i
        forward = [
            index_of[_first_use_labels(tuple(lab[inv[u]] for u in range(n)))]
            for lab in labels
        ]
        t = [0] * len(labels)
        for i, j in enumerate(forward):
            t[j] = i
        tables.add(tuple(t))
    return tuple(sorted(tables))


class GameState:
    """One running game: parameters, the signed instance, and the history.

    Disagreement costs against every k-partition are maintained
    incrementally so terminality checks and lookaheads cost one scan.
    """

    def __init__(self, n: int, k: int, l: int) -> None:
        if not 0 < k <= n:
            raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
        if l < 0:
            raise ValueError(f"lie budget must be nonnegative, got {l}")
        self.n = n
        self.k = k
        self.l = l
        self.instance = SignedInstance(n)
        self.history: list[tuple[int, int, int]] = []
        self._labels = k_partition_label_tuples(n, k)
        self._index_of = {lab: i for i, lab in enumerate(self._labels)}
        self._join = _join_masks(n, k)
        self._costs = [0] * len(self._labels)

    @property
    def costs(self) -> tuple[int, ...]:
        """Current disagreement cost of every candidate k-partition."""
        return tuple(self._costs)

    def cost_of(self, p: Partition) -> int:
        idx = self._index_of.get(p.labels)
        if idx is None:
            raise ValueError(f"partition does not have k={self.k} clusters")
        return self._costs[idx]

    def min_cost(self) -> int:
        return min(self._costs)

    def record(self, u: int, v: int, answer: int) -> None:
        """Record one answer, updating the instance and every cost."""
        self.instance = self.instance.record_response(u, v, answer)
        self.history.append((u, v, answer))
        join = self._join[(min(u, v), max(u, v))]
        costs = self._costs
        if answer == 1:
            for i in range(len(costs)):
                if not join >> i & 1:
                    costs[i] += 1
        else:
            for i in range(len(costs)):
                if join >> i & 1:
                    costs[i] += 1

    def consistent_count(self, limit: int | None = None) -> int:
        """Number of k-partitions within the lie budget, stopping early at limit."""
        count = 0
        for c in self._costs:
            if c <= self.l:
                count += 1
                if limit is not None and count >= limit:
                    return count
        return count

    def is_terminal(self) -> bool:
        return self.consistent_count(2) == 1

    def unique_witness(self) -> Partition | None:
        """The single partition within budget, when the game is over."""
        found = None
        for i, c in enumerate(self._costs):
            if c <= self.l:
                if found is not None:
                    return None
                found = i
        return None if found is None else Partition.from_labels(self._labels[found])

    def lookahead_count(self, u: int, v: int, answer: int, limit: int | None = None) -> int:
        """Consistent count after hypothetically recording one more answer."""
        join = self._join[(min(u, v), max(u, v))]
        agree_with_join = answer == 1
        count = 0
        for i, c in enumerate(self._costs):
            if bool(join >> i & 1) != agree_with_join:
                c += 1
            if c <= self.l:
                count += 1
                if limit is not None and count >= limit:
                    return count
        return count


@dataclass
class ResponderState:
    """Adversary bookkeeping: which regime it is in, and any commitment."""

    mode: str = "base"  # "base" | "endgame"
    committed_partition: Partition | None = None


def responder_answer(resp: ResponderState, game: GameState, u: int, v: int) -> int:
    """One answer from the adversarial responder; does not record it.

    Base mode answers -1 unless every zero-cost explanation already forces
    the pair together (k-inseparability in the graph of negative answers).
    Before committing a base answer that would leave exactly one candidate
    within the lie budget, the responder looks for an alternative partition
    within budget whose own answer keeps at least two candidates alive; if
    one exists it commits to the highest-cost such partition (first in
    canonical order on ties) and answers by it from then on.  With l >= 1
    a commitment candidate always survives the aliveness check, so the
    switch always happens; with l = 0 the check can fail, in which case the
    base answer stands and ends the game.
    """
    key = (min(u, v), max(u, v))
    if key not in _join_masks(game.n, game.k):
        raise ValueError(f"pair ({u}, {v}) invalid for n={game.n}")
    if resp.mode == "endgame":
        assert resp.committed_partition is not None
        return resp.committed_partition.same_cluster(u, v)

    neg_graph = SimpleGraph(game.n, game.instance.negative_pairs())
    base = 1 if k_inseparable(neg_graph, game.k, u, v) else -1

    if not game.is_terminal() and game.lookahead_count(u, v, base, 2) == 1:
        labels = game._labels
        costs = game._costs
        join = game._join[key]
        # The partition the base answer would leave as the unique witness.
        witness_idx = next(
            i
            for i, c in enumerate(costs)
            if c + (1 if bool(join >> i & 1) != (base == 1) else 0) <= game.l
        )
        best_idx = -1
        best_cost = -1
        for i, c in enumerate(costs):
            if i == witness_idx or c > game.l:
                continue
            own_answer = 1 if join >> i & 1 else -1
            if game.lookahead_count(u, v, own_answer, 2) >= 2 and c > best_cost:
                best_idx, best_cost = i, c
        if best_idx >= 0:
            resp.mode = "endgame"
            resp.committed_partition = Partition.from_labels(labels[best_idx])
            return resp.committed_partition.same_cluster(u, v)
    return base


@dataclass(frozen=True)
class GameValueResult:
    n: int
    k: int
    l: int
    value: int
    nodes: int

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "l": self.l, "value": self.value, "nodes": self.nodes}


_TT_EXACT, _TT_LOWER, _TT_UPPER = 0, 1, 2


class _MinimaxSolver:
    """Alpha-beta over capped cost vectors, memoized up to relabeling."""

    def __init__(self, n: int, k: int, l: int, node_budget: int) -> None:
        self.l = l
        self.cap = l + 1
        self.size = stirling2(n, k)
        self.join = [_join_masks(n, k)[p] for p in _pair_list(n)]
        # Per pair, which costs go up: on a join answer the candidates that
        # separate the pair, on a split answer those that join it.
        self.bumps = [
            (
                bytes(0 if jm >> i & 1 else 1 for i in range(self.size)),
                bytes(jm >> i & 1 for i in range(self.size)),
            )
            for jm in self.join
        ]
        self.clamp = tuple(range(self.cap + 1)) + (self.cap,)  # min(c, cap), c <= cap + 1
        self.getters = [itemgetter(*t) for t in _relabel_tables(n, k)]
        self.node_budget = node_budget
        self.nodes = 0
        self.keys: dict[bytes, bytes] = {}
        self.tt: dict[bytes, tuple[int, int]] = {}

    def _canon(self, s: bytes) -> bytes:
        key = self.keys.get(s)
        if key is None:
            key = self.keys[s] = bytes(min([g(s) for g in self.getters]))
        return key

    def _children(self, s: bytes, pi: int) -> list[tuple[int, bytes]]:
        """Legal (survivor count, child state) for both answers to pair pi."""
        clamp = self.clamp.__getitem__
        out = []
        for bump in self.bumps[pi]:
            child = bytes(map(clamp, map(add, s, bump)))
            live_after = self.size - child.count(self.cap)
            if live_after:
                out.append((live_after, child))
        return out

    def solve(self) -> int:
        return self._fq(bytes(self.size), 0, _INF)

    def _fq(self, s: bytes, alpha: int, beta: int) -> int:
        l = self.l
        live_mask = 0
        live = 0
        for i, c in enumerate(s):
            if c <= l:
                live_mask |= 1 << i
                live += 1
        assert live >= 1, "reached an inconsistent position"
        if live == 1:
            return 0

        key = self._canon(s)
        entry = self.tt.get(key)
        if entry is not None:
            flag, val = entry
            if flag == _TT_EXACT:
                return val
            if flag == _TT_LOWER:
                if val >= beta:
                    return val
                alpha = max(alpha, val)
            else:
                if val <= alpha:
                    return val
                beta = min(beta, val)

        self.nodes += 1
        if self.nodes > self.node_budget:
            raise SearchBudgetExceededError(self.nodes)

        a0, b0 = alpha, beta
        moves = []
        for pi, jm in enumerate(self.join):
            inter = jm & live_mask
            if inter == 0 or inter == live_mask:
                continue  # every live candidate agrees: the pair gains nothing
            joiners = inter.bit_count()
            moves.append((abs(2 * joiners - live), pi))
        assert moves, "non-terminal position with no informative pair"
        moves.sort()

        value = _INF
        cur_beta = beta
        for _, pi in moves:
            v = self._fr(s, pi, alpha, cur_beta)
            if v < value:
                value = v
                if value < cur_beta:
                    cur_beta = value
            if value <= alpha:
                break

        if value <= a0:
            flag = _TT_UPPER
        elif value >= b0:
            flag = _TT_LOWER
        else:
            flag = _TT_EXACT
        self.tt[key] = (flag, value)
        return value

    def _fr(self, s: bytes, pi: int, alpha: int, beta: int) -> int:
        children = self._children(s, pi)
        # Try the answer keeping more candidates alive first.
        children.sort(key=lambda t: -t[0])
        value = -_INF
        for _, child in children:
            v = 1 + self._fq(child, alpha - 1, beta - 1)
            if v > value:
                value = v
                if value > alpha:
                    alpha = value
            if value >= beta:
                break
        return value


def exact_game_value(n: int, k: int, l: int, node_budget: int = 10_000_000) -> GameValueResult:
    """Value of the game under optimal play: the exact worst-case query count.

    Raises SearchBudgetExceededError when the memoized search would expand
    more than node_budget positions or recurse past the interpreter's
    recursion limit, and, before any table is built, when l + 1 exceeds the
    byte that holds a capped cost; raises ExhaustionLimitError, also before
    any table, when n is above the permutation cap.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    if l < 0:
        raise ValueError(f"lie budget must be nonnegative, got {l}")
    if k in (1, n):
        # A single candidate is already uniquely determined.
        return GameValueResult(n, k, l, 0, 0)
    if l + 1 > 255:
        # Any two candidates must be told apart by 2l+1 answers, so the
        # search is at least that many queries deep.
        raise SearchBudgetExceededError(
            0,
            f"game-value search would be at least {2 * l + 1} queries deep, and its "
            f"capped costs up to l + 1 = {l + 1} do not fit in a byte (l <= 254)",
        )
    check_permutation_n(n)  # the solver builds one relabel table per permutation
    solver = _MinimaxSolver(n, k, l, node_budget)
    try:
        value = solver.solve()
    except RecursionError:
        raise SearchBudgetExceededError(
            solver.nodes,
            f"game-value search went deeper than the recursion limit of "
            f"{sys.getrecursionlimit()} frames (two per query) after {solver.nodes} nodes",
        ) from None
    return GameValueResult(n, k, l, value, solver.nodes)
