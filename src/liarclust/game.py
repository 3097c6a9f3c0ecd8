"""Exact values of the adversarial same-cluster game, by minimax search.

A questioner repeatedly names a pair of elements; a responder answers +1
(same cluster) or -1 (different), by any rule it likes, as long as some
partition into exactly k clusters violates answers of total weight at most
l.  The game ends when exactly one such partition remains: at that point
the answers determine the partition even against l lies, so the number of
queries played is exactly the cost of learning it.  exact_game_value finds
that number under optimal play on both sides, by memoized alpha-beta
search over capped cost vectors, cut and ordered by the Renyi-Ulam volume
bound.  One concrete responder, the adversary that the simulations play
against, is AdversarialOracle in liarclust.oracles.

The search caps every recorded cost at l+1: a partition past the lie budget
is out of the game no matter how much further weight it collects.  A
position is a bytes object with one capped cost per candidate, so l is at
most MAX_SOLVER_LIES; it is read through per-level masks, and a child
position is one big-integer addition away.  Positions are identified up to
relabeling of the ground set: the key is the least image of the position
under one operator.itemgetter per relabel table, memoized per raw position
for the life of one search.

Berlekamp's volume bound (see A. Pelc, "Searching games with errors - fifty
years of coping with liars", TCS 2002) is the least q for which the live
candidates' Hamming balls of radius l - cost fit in the 2**q answer strings
of q more queries.  No questioner beats it, pairs or not, so a position
whose bound already reaches the search window is cut before it is
canonicalized, and a position stops trying pairs once one meets its bound.
It also orders the search: pairs whose heavier child holds the least
volume come first (Berlekamp's balance), and of the two answers the child
with the higher bound is searched first.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import cache
from operator import itemgetter

from .bounds import hamming_ball_volume
from .limits import check_permutation_n
from .partitions import _join_masks, _pair_list, k_partition_label_tuples, stirling2

_INF = 1 << 30

# The solver stores each capped cost, up to l + 1, in one byte.
MAX_SOLVER_LIES = 254


class SearchBudgetExceededError(RuntimeError):
    """The minimax search gave up: it ran out of nodes or of depth."""

    def __init__(self, nodes: int, detail: str | None = None) -> None:
        self.nodes = nodes
        super().__init__(
            detail or f"game-value search exceeded its node budget after {nodes} nodes"
        )


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
    """Alpha-beta over capped cost vectors, memoized up to relabeling and cut by volume.

    A position is read through masks spread 8 bits apart: bit 8i stands for
    candidate i, byte i of the position, so a level mask is the position
    translated to 0/1 bytes and read as one little-endian integer.
    """

    def __init__(self, n: int, k: int, l: int, node_budget: int) -> None:
        self.l = l
        self.size = stirling2(n, k)
        self.levels = range(l + 1)
        self.level_tables = [bytes(c == j for c in range(256)) for j in self.levels]
        self.live_table = bytes(c <= l for c in range(256))
        self.join = [self._spread(_join_masks(n, k)[p]) for p in _pair_list(n)]
        self.getters = [itemgetter(*t) for t in _relabel_tables(n, k)]
        self.node_budget = node_budget
        self.nodes = 0
        self.keys: dict[bytes, bytes] = {}
        self.tt: dict[bytes, tuple[int, int]] = {}
        self.volumes: dict[tuple[int, int], int] = {}
        self.bounds: dict[tuple[int, ...], int] = {}

    def _spread(self, mask: int) -> int:
        return int.from_bytes(bytes(mask >> i & 1 for i in range(self.size)), "little")

    def _volume(self, r: int, q: int) -> int:
        """Answer strings of length q that a candidate with r lies left survives."""
        if r < 0:
            return 0
        v = self.volumes.get((r, q))
        if v is None:
            v = self.volumes[(r, q)] = hamming_ball_volume(r, q)
        return v

    def _lb(self, hist: tuple[int, ...]) -> int:
        """Berlekamp's volume bound on the queries a position still needs.

        hist[c] live candidates have cost c.  Each answer splits the total
        volume sum(hamming_ball_volume(l - c, q)) between the two children
        (with q - 1 queries left), and a finished game has volume 1, so q
        queries suffice only if the volume is at most 2**q.  Two candidates
        with r and r' lies left need r + r' + 1 answers, where the test
        starts: below that their two balls alone overfill the cube.
        """
        lb = self.bounds.get(hist)
        if lb is None:
            balls = [(self.l - c, m) for c, m in enumerate(hist) if m]
            (r, m), *rest = balls
            q = 2 * r + 1 if m > 1 else r + rest[0][0] + 1
            while sum(m * self._volume(r, q) for r, m in balls) > 1 << q:
                q += 1
            lb = self.bounds[hist] = q
        return lb

    def _canon(self, s: bytes) -> bytes:
        key = self.keys.get(s)
        if key is None:
            key = self.keys[s] = bytes(min([g(s) for g in self.getters]))
        return key

    def _children(self, s: bytes, pi: int) -> list[tuple[int, int, bytes, tuple[int, ...]]]:
        """Legal (bound, survivor count, child, histogram) for both answers to pair pi.

        On a join answer the live candidates that separate the pair cost one
        more, on a split answer those that join it; a candidate already past
        l stays at l + 1, which still fits a byte.
        """
        x = int.from_bytes(s, "little")
        live = int.from_bytes(s.translate(self.live_table), "little")
        join = self.join[pi]
        out = []
        for bump in (live & ~join, live & join):
            child = (x + bump).to_bytes(self.size, "little")
            hist = tuple(map(child.count, self.levels))
            live_after = sum(hist)
            if live_after:
                out.append((self._lb(hist) if live_after > 1 else 0, live_after, child, hist))
        return out

    def solve(self) -> int:
        s = bytes(self.size)
        return self._fq(s, tuple(map(s.count, self.levels)), 0, _INF)

    def _fq(self, s: bytes, hist: tuple[int, ...], alpha: int, beta: int) -> int:
        live = sum(hist)
        assert live >= 1, "reached an inconsistent position"
        if live == 1:
            return 0
        lb = self._lb(hist)
        if lb >= beta:
            return lb  # a valid lower bound, so the parent cuts here too

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

        # Per cost level: its mask, its size, and the volume one of its
        # candidates keeps with lb - 1 queries left if an answer spares it
        # and if the answer costs it.
        l, q = self.l, lb - 1
        by_level = [
            (
                int.from_bytes(s.translate(self.level_tables[c]), "little"),
                m,
                self._volume(l - c, q),
                self._volume(l - c - 1, q),
            )
            for c, m in enumerate(hist)
            if m
        ]
        moves = []
        for pi, jm in enumerate(self.join):
            joiners = join_weight = split_weight = 0
            for mask, m, spared, costed in by_level:
                a = (jm & mask).bit_count()
                joiners += a
                join_weight += a * spared + (m - a) * costed
                split_weight += (m - a) * spared + a * costed
            if joiners == 0 or joiners == live:
                continue  # every live candidate agrees: the pair gains nothing
            # Berlekamp's balance: the lighter the heavier child, the better.
            moves.append((max(join_weight, split_weight), abs(2 * joiners - live), pi))
        assert moves, "non-terminal position with no informative pair"
        moves.sort()

        a0, b0 = alpha, beta
        value = _INF
        cur_beta = beta
        for _, _, pi in moves:
            v = self._fr(s, pi, alpha, cur_beta)
            if v < value:
                value = v
                if value < cur_beta:
                    cur_beta = value
            if value <= alpha or value <= lb:
                break  # past the window, or no pair can beat the bound

        if value <= lb:
            flag = _TT_EXACT  # the bound is met, so the value is exact
        elif value <= a0:
            flag = _TT_UPPER
        elif value >= b0:
            flag = _TT_LOWER
        else:
            flag = _TT_EXACT
        self.tt[key] = (flag, value)
        return value

    def _fr(self, s: bytes, pi: int, alpha: int, beta: int) -> int:
        children = self._children(s, pi)
        # Try the answer with the higher bound first, then the one keeping
        # more candidates alive.
        children.sort(key=lambda t: (-t[0], -t[1]))
        value = -_INF
        for _, _, child, hist in children:
            v = 1 + self._fq(child, hist, alpha - 1, beta - 1)
            if v > value:
                value = v
                if value > alpha:
                    alpha = value
            if value >= beta:
                break
        return value


def exact_game_value(n: int, k: int, l: int, node_budget: int = 10_000_000) -> GameValueResult:
    """Value of the game under optimal play: the exact worst-case query count.

    The search is alpha-beta over positions up to relabeling, cut and
    ordered by the volume bound.  A position whose bound reaches the search
    window returns the bound before it is canonicalized or looked up, and a
    position stops trying pairs once one meets its bound.  Pairs are tried
    by the volume of their heavier child, least first (Berlekamp's balance),
    then by how evenly they split the live candidates; answers are tried
    higher-bound child first, then the child with more live candidates.
    nodes counts the positions expanded.

    Raises SearchBudgetExceededError when the memoized search would expand
    more than node_budget positions or recurse past the interpreter's
    recursion limit.  Raises, before any table is built, ExhaustionLimitError
    when n is above the permutation cap, and ValueError for a negative
    node_budget or when l + 1 exceeds the byte that holds a capped cost.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    if l < 0:
        raise ValueError(f"lie budget must be nonnegative, got {l}")
    if node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")
    if k in (1, n):
        # A single candidate is already uniquely determined.
        return GameValueResult(n, k, l, 0, 0)
    if l > MAX_SOLVER_LIES:
        # Any two candidates must be told apart by 2l+1 answers, so the
        # search is at least that many queries deep.
        raise ValueError(
            f"game-value search would be at least {2 * l + 1} queries deep, and its "
            f"capped costs up to l + 1 = {l + 1} do not fit in a byte (l <= {MAX_SOLVER_LIES})"
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
