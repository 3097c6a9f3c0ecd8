"""Answer sources for same-cluster queries.

Three oracles share one duck-typed interface: ``answer(u, v) -> +1 | -1``,
an ``n``, a lie budget ``l``, a ``lies_used`` count, and ``verify_budget()``
confirming the budget was respected.  The random liar reads a hidden
partition and flips answers with a fixed probability until its budget runs
out; the truthful oracle is the liar with budget 0.  The adversary has no
hidden partition: it plays the consistency game of ``liarclust.game``,
answering however it likes as long as some k-partition stays within the
lie budget, which makes it a worst case for deterministic learners.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import or_

from .limits import check_enumeration_n
from .partitions import Partition, _growth_counts, _join_masks, stirling2


class RandomLiarOracle:
    """Flips the truthful answer with probability p while budget remains.

    The flip decisions come from a private generator seeded at construction,
    so a run is reproducible from (hidden, l, p, seed) and the query order.
    With l = 0 no answer can flip, so no generator is built.
    """

    kind = "liar"

    def __init__(self, hidden: Partition, l: int, p: float, seed) -> None:
        if l < 0:
            raise ValueError(f"lie budget must be nonnegative, got {l}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"lie probability must be in [0, 1], got {p}")
        self.hidden = hidden
        self._labels = hidden.labels
        self.n = hidden.n
        self.l = l
        self.p = p
        self.lies_used = 0
        self._rng = random.Random(seed) if l else None

    def answer(self, u: int, v: int) -> int:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            self.hidden.same_cluster(u, v)  # raises its ValueError for the pair
        truth = 1 if self._labels[u] == self._labels[v] else -1
        if self.lies_used < self.l and self._rng.random() < self.p:
            self.lies_used += 1
            return -truth
        return truth

    def verify_budget(self) -> bool:
        return self.lies_used <= self.l


class TruthfulOracle(RandomLiarOracle):
    """Answers straight from a hidden partition: a liar with no lie budget."""

    kind = "truthful"

    def __init__(self, hidden: Partition) -> None:
        super().__init__(hidden, 0, 0.0, None)


def _charge(levels: list[int], costed: int) -> None:
    """Move the costed candidates up one level, in place.

    levels[j] is the mask of the candidates that disagree with exactly j
    answers; a candidate pushed past the last level drops out.
    """
    spared = ~costed
    for j in range(len(levels) - 1, 0, -1):
        levels[j] = levels[j] & spared | levels[j - 1] & costed
    levels[0] &= spared


class AdversarialOracle:
    """Plays the consistency game; commits to a partition only when forced.

    Bit i of a mask stands for the i-th k-partition in canonical order, and
    level j <= l is the mask of the candidates that disagree with exactly j
    answers given so far; a candidate past l is in no level.  Each answer
    moves the candidates it costs up one level.  A candidate is named, to
    commit or as the witness, by unranking its index with the growth-string
    completion counts; the enumeration cap is checked before any table.

    Before it commits, the oracle answers -1 unless every zero-cost
    explanation already forces the pair together.  It reads that off level
    0, which holds exactly the surjective k-colorings of the graph of its
    negative answers: a +1 was given only when every coloring joined the
    pair.  Before giving a base answer that would leave exactly one
    candidate within the lie budget, it looks for an alternative candidate
    within budget whose own answer keeps at least two candidates alive; if
    one exists it commits to the first such candidate in canonical order,
    whose cost is then always l, the highest within budget, and answers by
    it from then on.  With l >= 1 a commitment candidate always survives
    the aliveness check, so the switch always happens; with l = 0 the check
    can fail, in which case the base answer stands and ends the game.

    ``committed`` is the committed partition, or None before the switch.
    ``lies_used`` is the smallest number of answers any candidate disagrees
    with; once the game is over that is exactly the disagreement count of
    the unique witness.  Every answer is checked against the strategy's own
    invariants: before the commitment some candidate explains every answer
    for free, and after it the committed candidate stays at level l.
    """

    kind = "adversary"

    def __init__(self, n: int, k: int, l: int) -> None:
        if not 0 < k <= n:
            raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
        if l < 0:
            raise ValueError(f"lie budget must be nonnegative, got {l}")
        check_enumeration_n(n)
        self.n = n
        self.k = k
        self.l = l
        self.hidden = None
        self.committed: Partition | None = None
        self._join = _join_masks(n, (k,))
        self._all = (1 << stirling2(n, k)) - 1
        self._lv = [self._all] + [0] * l
        self._committed_bit = 0

    def _survivors(self, costed: int) -> int:
        """Mask of the candidates within budget after an answer that costs the costed ones."""
        *below, top = self._lv
        return reduce(or_, below, top & ~costed)

    def _uncommitted_answer(self, join: int) -> int:
        """The base answer for a pair with this join mask, or the first committed one."""
        split = self._all ^ join
        base = -1 if self._lv[0] & split else 1
        # The candidates whose own answer is the base answer, and the others.
        base_side, other_side = (join, split) if base == 1 else (split, join)
        witness = self._survivors(other_side)
        # A candidate answering the base answer itself would leave only the
        # witness alive too, so the alternatives come from the other side.
        # Every candidate below level l survives the base answer, so when
        # only the witness does, every alternative is at level l.
        if witness.bit_count() == 1 and self._survivors(base_side).bit_count() >= 2:
            best = self._lv[self.l] & other_side & ~witness
            if best:
                self._committed_bit = bit = best & -best
                self.committed = self._candidate(bit)
                return -base
        return base

    def _candidate(self, bit: int) -> Partition:
        counts, rank, labels, used = _growth_counts(self.n, self.k), bit.bit_length() - 1, [0], 1
        for left in range(self.n - 2, -1, -1):
            stay = used * counts[left][used]  # ranks below stay keep one of the used labels
            label, rank = divmod(rank, counts[left][used]) if rank < stay else (used, rank - stay)
            used += label == used
            labels.append(label)
        return Partition.from_labels(labels)

    def answer(self, u: int, v: int) -> int:
        join = self._join.get((u, v) if u < v else (v, u))
        if join is None:
            raise ValueError(f"pair ({u}, {v}) invalid for n={self.n}")
        if self.committed is None:
            a = self._uncommitted_answer(join)
        else:
            a = 1 if join & self._committed_bit else -1
        _charge(self._lv, self._all ^ join if a == 1 else join)
        if self.committed is None and not self._lv[0]:
            raise AssertionError("no candidate explains every answer for free")
        if self.committed is not None and not self._lv[self.l] & self._committed_bit:
            raise AssertionError("the committed candidate left level l")
        return a

    @property
    def lies_used(self) -> int:
        return next(cost for cost, level in enumerate(self._lv) if level)

    def _alive(self) -> int:
        return reduce(or_, self._lv)

    def is_terminal(self) -> bool:
        return self._alive().bit_count() == 1

    def unique_witness(self) -> Partition | None:
        """The single partition within budget, when the game is over."""
        alive = self._alive()
        if alive.bit_count() != 1:
            return None
        return self._candidate(alive)

    def verify_budget(self) -> bool:
        return any(self._lv)
