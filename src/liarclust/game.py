"""Exact values of the adversarial same-cluster game, by minimax search.

A questioner repeatedly names a pair of elements; a responder answers +1
(same cluster) or -1 (different), by any rule it likes, as long as some
partition into exactly k clusters violates answers of total weight at most
l.  The game ends when exactly one such partition remains: at that point
the answers determine the partition even against l lies, so the number of
queries played is exactly the cost of learning it.  exact_game_value finds
that number under optimal play on both sides, by memoized alpha-beta
search over capped cost vectors, cut and ordered by the Renyi-Ulam volume
bound.  At k = n - 1 and at l = 0 the value has a closed form: no search
and no relabel table.  One concrete responder, the adversary that the
simulations play against, is AdversarialOracle in liarclust.oracles.

The search caps every recorded cost at l+1: a partition past the lie budget
is out of the game no matter how much further weight it collects.  A
position is a bytes object with one capped cost per candidate, so l is at
most MAX_SOLVER_LIES; it is read through per-level masks, and a child
position is one big-integer addition away.  Positions are identified up to
relabeling of the ground set by relabel tables, one operator.itemgetter each:
a class is one orbit's candidates of one cost, and the key is the least image
that puts the class needing the fewest tables at its orbit's first index, so
two positions share a key exactly when one relabels the other.  Keys are
memoized per raw position for the life of one search, and interned, one
bytes object per class.

No questioner beats Berlekamp's volume bound, bounds.volume_bound, so a
position whose bound already reaches the search window is cut before it is
canonicalized, and a position stops trying pairs once one meets its bound.
It also orders the search: pairs whose heavier child holds the least
volume come first (Berlekamp's balance), and of the two answers the child
with the higher bound is searched first.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache
from math import comb
from operator import eq, itemgetter

from .bounds import hamming_ball_volume, upper_bound_known, volume_bound
from .limits import check_permutation_n
from .partitions import _label_columns, _pair_list, stirling2

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


@cache
def _relabel_tables(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Index permutations of the k-partition list induced by relabeling {0..n-1}.

    For table t, the state vector of the relabeled position is
    (cost[t[0]], cost[t[1]], ...); the least such vector over all tables is
    a canonical key for positions that differ only by element names.  The
    tables form a group, generated by the swap (0 1) and the n-cycle
    x -> x + 1, so they are built as the closure of those two generators
    under composition: each new table costs two getter calls.
    """
    labels = list(zip(*_label_columns(n, k)))
    index_of = {lab: i for i, lab in enumerate(labels)}

    def relabel(lab: tuple[int, ...], order: tuple[int, ...]) -> int:
        names: dict[int, int] = {}
        return index_of[tuple(names.setdefault(lab[x], len(names)) for x in order)]

    gens = [itemgetter(*(relabel(lab, order) for lab in labels))
            for order in ((1, 0, *range(2, n)), (n - 1, *range(n - 1)))]
    tables = frontier = {tuple(range(len(labels)))}
    while frontier:
        frontier = {gen(t) for t in frontier for gen in gens} - tables
        tables = tables | frontier
    return tuple(sorted(tables))


@cache
def _relabel_groups(n: int, k: int) -> tuple[tuple[itemgetter, int, tuple], ...]:
    """The relabel tables as getters, grouped per orbit of candidates under relabeling.

    One entry per orbit, in order of its first index j: a getter over the
    orbit's members, the number of tables that move each member to index j,
    and per member c the getters of the tables with t[j] == c.  Each table
    has one getter, which every orbit's groups share.  For 1 < k < n every
    orbit has at least two members, so the members' getter returns a tuple.
    """
    tables = _relabel_tables(n, k)
    getters = [itemgetter(*t) for t in tables]
    orbits, seen = [], set()
    for j in range(len(tables[0])):
        if j not in seen:
            groups: dict[int, list[itemgetter]] = {}
            for t, g in zip(tables, getters):
                groups.setdefault(t[j], []).append(g)
            seen.update(groups)
            per = len(tables) // len(groups)
            orbits.append((itemgetter(*groups), per, tuple(map(tuple, groups.values()))))
    return tuple(orbits)


@dataclass(frozen=True)
class GameValueResult:
    n: int
    k: int
    l: int
    value: int
    nodes: int


# A transposition-table entry is one int, value << 2 | flag.
_TT_EXACT, _TT_LOWER, _TT_UPPER = 0, 1, 2


class _MinimaxSolver:
    """Alpha-beta over capped cost vectors, memoized up to relabeling and cut by volume.

    A position is read through masks spread 8 bits apart: bit 8i stands for
    candidate i, byte i of the position, so a level mask is the position
    translated to 0/1 bytes and read as one little-endian integer, and a
    pair's join mask compares its two elements' label columns byte by byte.
    """

    def __init__(self, n: int, k: int, l: int, node_budget: int) -> None:
        self.l = l
        self.size = stirling2(n, k)
        self.levels = range(l + 1)
        self.level_tables = [bytes(c == j for c in range(256)) for j in self.levels]
        cols = _label_columns(n, k)
        self.join = [int.from_bytes(bytes(map(eq, cols[u], cols[v])), "little")
                     for u, v in _pair_list(n)]
        self.orbits = _relabel_groups(n, k)
        self.node_budget = node_budget
        self.nodes = 0
        self.keys: dict[bytes, bytes] = {}
        self.classes: dict[bytes, bytes] = {}
        self.tt: dict[bytes, int] = {}

    def _canon(self, s: bytes) -> bytes:
        """The least image of s over the tables of its smallest class, memoized and interned.

        A class is an orbit, with first index j, and a cost: its tables move
        an orbit member of that cost to index j, so it has (members of that
        cost) x (tables per member) of them.  The smallest class, ties to the
        lower cost and then the earlier orbit, is the same for every
        relabeling of s, and its images are the images of s that hold that
        cost at byte j; so two positions share a key exactly when one
        relabels the other.
        """
        key = self.keys.get(s)
        if key is None:
            least = _INF
            for members, per, groups in self.orbits:
                if per <= least:  # each class of this orbit needs at least per tables
                    costs = members(s)
                    for c in set(costs):
                        size = costs.count(c) * per
                        if size < least or size == least and c < cost:
                            least, cost, read, pick = size, c, costs, groups
            images = [g(s) for c, gs in zip(read, pick) if c == cost for g in gs]
            key = bytes(min(images))
            key = self.keys[s] = self.classes.setdefault(key, key)
        return key

    def solve(self) -> int:
        s = bytes(self.size)
        hist = tuple(map(s.count, self.levels))
        return self._fq(s, hist, volume_bound(hist, self.l), self.size, 0, _INF)

    def _fq(self, s: bytes, hist: tuple, lb: int, live: int, alpha: int, beta: int) -> int:
        """Value of position s, given its cost histogram, volume bound and live count."""
        assert live >= 1, "reached an inconsistent position"
        if live == 1:
            return 0
        if lb >= beta:
            return lb  # a valid lower bound, so the parent cuts here too

        key = self._canon(s)
        entry = self.tt.get(key)
        if entry is not None:
            flag, val = entry & 3, entry >> 2
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
                hamming_ball_volume(l - c, q),
                hamming_ball_volume(l - c - 1, q) if c < l else 0,
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

        x = int.from_bytes(s, "little")
        live_mask = sum(mask for mask, _, _, _ in by_level)
        a0, b0 = alpha, beta
        value = _INF
        cur_beta = beta
        for _, _, pi in moves:
            v = self._fr(x, live_mask, pi, alpha, cur_beta)
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
        self.tt[key] = value << 2 | flag
        return value

    def _fr(self, x: int, live: int, pi: int, alpha: int, beta: int) -> int:
        """Value of asking pair pi in the position x with live mask live.

        On a join answer the live candidates that separate the pair cost one
        more, on a split answer those that join it; a candidate already past
        l stays at l + 1, which still fits a byte.  The pair is informative,
        so each answer spares some live candidate.
        """
        children = []
        for bump in (live & ~self.join[pi], live & self.join[pi]):
            child = (x + bump).to_bytes(self.size, "little")
            hist = tuple(map(child.count, self.levels))
            children.append(((volume_bound(hist, self.l), sum(hist)), child, hist))
        # Try the answer with the higher bound first, then the one keeping
        # more candidates alive.
        if children[1][0] > children[0][0]:
            children.reverse()
        value = -_INF
        for (lb, survivors), child, hist in children:
            v = 1 + self._fq(child, hist, lb, survivors, alpha - 1, beta - 1)
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
    ordered by the volume bound as the module docstring says; ties go to the
    pair that splits the live candidates more evenly, and to the answer that
    keeps more of them.  nodes counts the positions expanded.

    At k = n - 1 the value is (l + 1) C(n, 2) - 1 = upper_bound_known, with
    no search: a candidate is named by its one joined pair, so asking pair p
    is Ulam's singleton question "is it p?".  A join answer costs every
    candidate but p, a split answer costs only p.  Give a candidate within
    budget l + 1 - cost lives, and let S be the sum of the lives, C(n, 2)(l + 1)
    at the start.  Upper bound: while two or more candidates are live, ask
    about a live one; either answer lowers S by at least 1, and a live
    candidate keeps S >= 1, so the game ends within S - 1 queries.  Lower
    bound: answer split, except join when exactly two candidates are live
    and the one asked about has one life left; every query then lowers S by
    at most 1, and the game ends only when S = 1.

    At l = 0 and 1 < k < n the value is n(k - 1) - C(k, 2) = upper_bound_known,
    with no search; insertion told k asks that many.  Lower bound: answer -1
    whenever some live candidate separates the pair.  +1 answers then remove
    nothing, so the live candidates are the k-colorings (partitions into k
    nonempty independent sets) of the graph G of -1 answers, and the game
    ends only when G has one, V_1, ..., V_k of sizes s_i.  Each G[V_i + V_j]
    is then connected: else swapping the sides of some component of it gives
    a second k-coloring, unless V_i, V_j are unjoined singletons, and then
    merging them and splitting a vertex off a larger class (k < n) does.  So
    G has at least the sum over i < j of s_i + s_j - 1 = n(k - 1) - C(k, 2) edges.

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
    if k == n - 1:
        return GameValueResult(n, k, l, (l + 1) * comb(n, 2) - 1, 0)
    if l == 0:
        return GameValueResult(n, k, l, upper_bound_known(n, k, 0), 0)
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
