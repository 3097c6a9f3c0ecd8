"""Experiment harness: drive learners against oracles and audit the math.

Everything here is deterministic given a seed.  Each trial derives its own
substreams as random.Random(f"{seed}/{trial}/<purpose>"), so adding trials
never perturbs earlier ones and no component shares a generator with
another.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .bounds import (
    _cluster_sizes,
    adaptive_lower_bound_ceil,
    upper_bound_known,
    upper_bound_unknown,
)
from .learners.adaptive import (
    _insertion_sweep,
    insertion_cluster,
    parallel_insertion,
    randomized_insertion,
    robust_insertion,
    robustify,
)
from .learners.plans import build_plan, plan_decodable, robust_plan
from .limits import check_permutation_n
from .oracles import AdversarialOracle, RandomLiarOracle, TruthfulOracle
from .partitions import Partition, random_k_partition


class QueryBudgetExceededError(RuntimeError):
    """A learner asked more queries than the run's safety cap allows."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        super().__init__(f"query cap of {cap} exceeded; learner appears stuck")


class _CountingOracle:
    """The query cap: refuses any query past cap; learners check that answers are +1 or -1."""

    def __init__(self, oracle, cap: int) -> None:
        self._answer = oracle.answer
        self.n = oracle.n
        self.cap = cap
        self.queries = 0

    def answer(self, u: int, v: int) -> int:
        if self.queries >= self.cap:
            raise QueryBudgetExceededError(self.cap)
        self.queries += 1
        return self._answer(u, v)


@dataclass(frozen=True)
class LearnerSpec:
    """Registry entry: how to build one learner as a single-argument callable.

    A robust entry is its plain insertion learner run through robustify with
    the configured lie budget; see ExperimentConfig.repeats.
    """

    id: str
    needs_k: bool
    robust: bool
    randomized: bool
    build: object  # (n, k, seed) -> callable(oracle) -> Transcript


LEARNERS: dict[str, LearnerSpec] = {}


def _register(id, robust, randomized, build):
    """Register id, which builds with k=None, and id_k, which passes k on."""
    LEARNERS[id] = LearnerSpec(id, False, robust, randomized, lambda n, k, s: build(n, None, s))
    LEARNERS[id + "_k"] = LearnerSpec(id + "_k", True, robust, randomized, build)


for _row in (
    ("insertion", False, False, lambda n, k, s: lambda o: insertion_cluster(n, o, k)),
    ("randomized", False, True, lambda n, k, s: lambda o: randomized_insertion(n, o, s, k)),
    ("robust", True, False, lambda n, k, s: lambda o: insertion_cluster(n, o, k)),
    ("parallel", False, False, lambda n, k, s: lambda o: parallel_insertion(n, o, k)),
):
    _register(*_row)

ORACLE_KINDS = ("truthful", "liar", "adversary")


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation setup.  sizes fixes the hidden clustering exactly;
    otherwise a uniform k-clustering is drawn fresh each trial."""

    learner: str
    n: int
    k: int | None = None
    l: int = 0
    oracle: str = "truthful"
    sizes: tuple[int, ...] | None = None
    p: float = 0.1
    trials: int = 100
    seed: str = "0"
    robustified: bool = False

    def __post_init__(self) -> None:
        if self.learner not in LEARNERS:
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.oracle not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if self.n < 1:
            raise ValueError(f"need at least one element, got n={self.n}")
        if self.l < 0:
            raise ValueError(f"lie budget must be nonnegative, got {self.l}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.sizes is not None:
            if any(s < 1 for s in self.sizes) or sum(self.sizes) != self.n:
                raise ValueError(f"sizes {self.sizes} do not sum to n={self.n}")
            if self.k is not None and self.k != len(self.sizes):
                raise ValueError("k disagrees with the number of sizes")
        spec = LEARNERS[self.learner]
        if spec.robust and self.robustified:
            raise ValueError(f"{self.learner} already repeats queries")
        if spec.needs_k and self.effective_k is None:
            raise ValueError(f"{self.learner} needs k or sizes")
        if self.effective_k is None and self.oracle != "adversary":
            raise ValueError("hidden partition needs k or sizes")
        if self.oracle == "adversary" and self.effective_k is None:
            raise ValueError("the adversary needs k")
        if self.oracle == "adversary" and self.l != self.tolerance:
            raise ValueError(
                "against the adversary the learner's lie tolerance must equal l; "
                "use a robust learner or --robustify"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"lie probability must be in [0, 1], got {self.p}")

    @property
    def effective_k(self) -> int | None:
        if self.sizes is not None:
            return len(self.sizes)
        return self.k

    @property
    def repeats(self) -> bool:
        """Whether the learner runs through robustify: a robust entry, or --robustify."""
        return LEARNERS[self.learner].robust or self.robustified

    @property
    def tolerance(self) -> int:
        return self.l if self.repeats else 0


def _fixed_partition(sizes) -> Partition:
    return Partition.from_labels([c for c, s in enumerate(sizes) for _ in range(s)])


@dataclass(frozen=True)
class RunOutcome:
    queries: int
    rounds: int
    lies_used: int
    correct: bool


def run_game(learner, oracle, query_cap: int) -> RunOutcome:
    """Run one learner against one oracle under a hard query cap.

    learner is a callable of the oracle.  Correctness means recovering the
    hidden partition, or, for the adversary, ending the game and naming its
    unique witness.
    """
    counting = _CountingOracle(oracle, query_cap)
    transcript = learner(counting)
    if transcript.queries != counting.queries:
        raise AssertionError("transcript and oracle disagree on the query count")
    if oracle.hidden is not None:
        correct = transcript.result == oracle.hidden
    else:
        correct = oracle.is_terminal() and transcript.result == oracle.unique_witness()
    if not oracle.verify_budget():
        raise AssertionError("oracle exceeded its own lie budget")
    return RunOutcome(transcript.queries, transcript.rounds, oracle.lies_used, correct)


@dataclass(frozen=True)
class SimulationResult:
    """One RunOutcome per trial, in trial order."""

    config: ExperimentConfig
    rows: tuple[RunOutcome, ...]

    @property
    def correct_fraction(self) -> float:
        return sum(1 for r in self.rows if r.correct) / len(self.rows)


def _trial_oracle(config: ExperimentConfig, trial: int):
    k = config.effective_k
    if config.oracle == "adversary":
        return AdversarialOracle(config.n, k, config.l)
    if config.sizes is not None:
        hidden = _fixed_partition(config.sizes)
    else:
        rng = random.Random(f"{config.seed}/{trial}/hidden")
        hidden = random_k_partition(config.n, k, rng)
    if config.oracle == "truthful":
        return TruthfulOracle(hidden)
    return RandomLiarOracle(hidden, config.l, config.p, f"{config.seed}/{trial}/liar")


def _trial_learner(config: ExperimentConfig, trial: int):
    spec = LEARNERS[config.learner]
    learner = spec.build(config.n, config.effective_k, f"{config.seed}/{trial}/order")
    if config.repeats:
        learner = robustify(learner, config.l)
    return learner


def _query_cap(config: ExperimentConfig) -> int:
    k = config.effective_k or config.n
    cap = 4 * (upper_bound_unknown(config.n, k, config.tolerance) + 1)
    if config.oracle == "liar":
        # The liar may spend lies beyond the learner's tolerance; every lie
        # can cost one extra repetition round.
        cap += 4 * (config.l + 1) * config.n
    return cap


def simulate(config: ExperimentConfig) -> SimulationResult:
    """Run config.trials independent games and report one row per trial."""
    rows = []
    cap = _query_cap(config)
    for trial in range(config.trials):
        oracle = _trial_oracle(config, trial)
        rows.append(run_game(_trial_learner(config, trial), oracle, cap))
    return SimulationResult(config=config, rows=tuple(rows))


def _label_sequence_orders(sizes):
    """Yield one element order per set partition of the positions into clusters of these sizes.

    An order's label sequence names the cluster at each position; the j-th
    occurrence of label c becomes the j-th element of cluster c in
    _fixed_partition(sizes).  Swapping the labels of two equal-size
    clusters maps a sequence to another one, never to itself, so only the
    sequences in which equal-size clusters first appear in label order are
    built, one position at a time: a label may open only after the previous
    label of its size has opened.  Each of them stands for one set
    partition of the positions, and there are n!/(prod(s!)*prod(m!)) of
    them, where m is the number of clusters of each size.
    """
    n, k = sum(sizes), len(sizes)
    starts = [sum(sizes[:c]) for c in range(k)]
    ends = [a + s for a, s in zip(starts, sizes)]
    # The nearest lower label of c's size, which opens first; c itself if none.
    below = [max((d for d in range(c) if sizes[d] == sizes[c]), default=c) for c in range(k)]
    nxt = list(starts)
    order = []

    def extend():
        if len(order) == n:
            yield list(order)
            return
        for c in range(k):
            d = below[c]
            if nxt[c] < ends[c] and (d == c or nxt[d] > starts[d]):
                order.append(nxt[c])
                nxt[c] += 1
                yield from extend()
                nxt[c] -= 1
                order.pop()

    return extend()


def exact_expected_queries(sizes, known_k: bool = False) -> Fraction:
    """Average insertion queries over all element orders, as an exact fraction.

    The hidden clustering has the given sizes; the source is truthful.
    Truthful answers depend only on membership, each cluster's
    representative is its first element, and the known-k shortcut depends
    only on how many clusters are open, so a sweep's query count depends
    only on the order in which clusters open: the label sequence renamed by
    first use.  A label sequence stands for prod(s!) orders, and a swap of
    two equal-size labels keeps the renamed sequence's count, so each
    order that _label_sequence_orders keeps stands for prod(s!)*prod(m!)
    orders and the plain mean over their real sweeps is the mean over all
    n!: n!/(prod(s!)*prod(m!)) sweeps instead of n!.  The permutation-size
    limit applies to n.
    """
    sizes = _cluster_sizes(sizes)
    n = sum(sizes)
    check_permutation_n(n)
    oracle = TruthfulOracle(_fixed_partition(sizes))
    k = len(sizes) if known_k else None
    total = 0
    count = 0
    for order in _label_sequence_orders(sizes):
        total += _insertion_sweep(n, oracle, order, k).queries
        count += 1
    return Fraction(total, count)


def monte_carlo_expected(config: ExperimentConfig) -> tuple[float, float]:
    """Sampled mean query count over config.trials runs, and its standard error."""
    samples = [r.queries for r in simulate(config).rows]
    stderr = 0.0
    if len(samples) > 1:
        stderr = statistics.stdev(samples) / len(samples) ** 0.5
    return statistics.fmean(samples), stderr


# ---------------------------------------------------------------------------
# Audits: recompute published tables from the implementation.


@dataclass(frozen=True)
class AuditRow:
    cell: str
    expected: str
    observed: str
    ok: bool


def audit_rows(table: int) -> Iterator[AuditRow]:
    """One summary table's rows, computed lazily, one cell at a time.

    Table 1: every nonadaptive plan's size, its decodability, and that of
    its repetition against one lie (n <= 7, k unknown or 2 <= k < n).
    Table 2: the adversary forces insertion to exactly n(k-1) - C(k,2)
    queries with k known and nk - C(k+1,2) with k unknown (2 <= k <= n <= 7).
    Table 3: it forces robust insertion, told k, to exactly
    upper_bound_known, which is at least adaptive_lower_bound_ceil
    (3 <= n <= 6, k < n, l <= 2).
    """
    if table == 1:
        for n in range(2, 8):
            for k in [*range(2, n), None]:
                plan = build_plan(n, k)
                if k is None:
                    want = comb(n, 2)
                elif k == 2:
                    want = n - 1
                elif k == 3 and n >= 5:
                    want = comb(n, 2) - n // 2
                else:
                    want = comb(n, 2) - 1
                decodable = plan_decodable(plan)
                ok = (plan.total_queries == want and decodable
                      and plan_decodable(robust_plan(plan, 1), l=1))
                yield AuditRow(f"n={n} k={'?' if k is None else k}",
                               f"{want} queries, decodable",
                               f"{plan.total_queries} queries, decodable={decodable}", ok)
    elif table == 2:
        for n in range(2, 8):
            for k in range(2, n + 1):
                want_unknown = n * k - comb(k + 1, 2)
                got_unknown = run_game(lambda o: insertion_cluster(n, o),
                                       AdversarialOracle(n, k, 0), 4 * (want_unknown + 2))
                want_known = n * (k - 1) - comb(k, 2)
                got_known = run_game(lambda o: insertion_cluster(n, o, k),
                                     AdversarialOracle(n, k, 0), 4 * (want_known + 2))
                ok = (got_unknown.queries == want_unknown and got_unknown.correct
                      and got_known.queries == want_known and got_known.correct)
                yield AuditRow(f"n={n} k={k}",
                               f"unknown {want_unknown}, known {want_known}",
                               f"unknown {got_unknown.queries}, known {got_known.queries}", ok)
    elif table == 3:
        for n in range(3, 7):
            for k in range(2, n):
                for l in range(3):
                    lower = adaptive_lower_bound_ceil(n, k, l)
                    upper = upper_bound_known(n, k, l)
                    got = run_game(lambda o: robust_insertion(n, l, o, k),
                                   AdversarialOracle(n, k, l), 4 * (upper + 2) + 4 * (l + 1) * n)
                    ok = got.correct and lower <= got.queries == upper
                    yield AuditRow(f"n={n} k={k} l={l}", f"{upper} (floor {lower})",
                                   str(got.queries), ok)
    else:
        raise ValueError(f"no table {table}; tables are 1, 2, 3")
