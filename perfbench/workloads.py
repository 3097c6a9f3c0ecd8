"""The four benchmark workloads: inputs from a seed, and a check per output.

A workload turns (package, seed) into a task list.  A task is one closed-loop
call into the package's public API plus a check of what it returned; the
runner times the calls and applies the checks after the timed loop.  Tasks
look names up on the package at call time, so the tracer's wrappers apply.

Why these workloads:

* minimax: exact_game_value over a fixed cell list.  Canonicalisation inside
  the solver dominates; no oracle, learner or coloring code runs.
* adversary: robustified randomized learners against AdversarialOracle on
  cells with S(n,k) from 966 to 34,105.  Every answer scans all candidates
  in GameState and runs the coloring backtracker.
* liar_sim: single-trial simulate calls against RandomLiarOracle and
  TruthfulOracle.  Answers are nearly free, so learner and harness overhead
  dominate; the game and coloring layers are bypassed.
* exhaustive: exact_expected_queries over compositions of 7 and 8, plan
  round trips through decode_plan/majority_decode (n <= 7), and
  plan_decodable (n <= 8).  The only workload that runs the plans layer and
  the permutation enumeration.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

DEFAULT_SEED = 0

# test_04's grid n <= 5, l <= 2, minus cells excluded for length: a pass
# must run at least twice within a run (see run.timed_run).
MINIMAX_EXCLUDED = {
    (5, 2, 2): "7,986 nodes, about 10 s",
    (5, 3, 2): "138,069 nodes",
    (5, 4, 2): "left out with (5,3,2); its search was not timed",
}
MINIMAX_CELLS = tuple(
    (n, k, l)
    for n in range(3, 6)
    for k in range(2, n)
    for l in range(3)
    if (n, k, l) not in MINIMAX_EXCLUDED
)
# Cells of under about 50 ms are asked again after each longer cell, so
# their samples spread over the pass.  A task's latency is the median of its
# samples and the median cell is one of these, so that median rests on many
# samples taken at different moments, not on a few taken together.
MINIMAX_SMALL = frozenset({
    (3, 2, 0), (3, 2, 1), (3, 2, 2), (4, 2, 0), (4, 2, 1),
    (4, 3, 0), (4, 3, 1), (5, 2, 0), (5, 3, 0), (5, 4, 0),
})


def minimax_order() -> list[tuple[int, int, int]]:
    small = [cell for cell in MINIMAX_CELLS if cell in MINIMAX_SMALL]
    order = []
    for cell in MINIMAX_CELLS:
        order.append(cell)
        if cell not in MINIMAX_SMALL:
            order.extend(small)
    return order


# Cell -> games per learner in one pass; the large-S game is added once.
ADVERSARY_CELLS = {
    (8, 3, 1): 6,
    (8, 4, 1): 6,
    (9, 3, 1): 6,
    (8, 3, 2): 6,
    (9, 4, 1): 3,
    (10, 3, 1): 3,
}
ADVERSARY_LARGE = ("randomized_k", (10, 4, 1))
ADVERSARY_LEARNERS = ("randomized_k", "randomized")

LIAR_LEARNERS = (("robust", False), ("robust_k", False), ("randomized", True), ("randomized_k", True))
TRUTHFUL_LEARNERS = ("parallel", "insertion")
LIAR_NS = (12, 16, 24, 32)
LIAR_KS = (2, 3, 4)
LIAR_LIES = (1, 2, 3)
LIAR_P = 0.3
LIAR_REPEATS = 60  # 168 cells x 60 = 10,080 trials per pass

# Compositions of 7 per number of parts, drawn by seed: the cost of a call
# grows with the number of parts, so the stratified draw keeps a pass's work
# the same across seeds.  The n = 8 composition is fixed for the same reason.
# The pass is kept near 3 s so that a run samples every task several times.
EXHAUSTIVE_N7_PER_PARTS = {2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
EXHAUSTIVE_N8 = ((4, 4),)
PLAN_MAX_N = 8
ROUND_TRIP_MAX_N = 7  # the n = 8 round trips alone take about 4 s
ROBUST_DECODABLE_MAX_N = 6  # plan_decodable at l = 1 compares all candidate pairs


class Task:
    """One timed call (run) and the check of its output (None when correct).

    Tasks with equal labels make the same call on the same inputs.
    """

    __slots__ = ("label", "run", "check")

    def __init__(self, label: str, run, check) -> None:
        self.label = label
        self.run = run
        self.check = check


def compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def tuple_key(values) -> str:
    return ",".join(map(str, values))


def rows_digest(results) -> str:
    """sha256 over the (queries, rounds, lies_used, correct) rows of simulate results."""
    h = hashlib.sha256()
    for result in results:
        for row in result.rows:
            h.update(f"{row.queries},{row.rounds},{row.lies_used},{row.correct}\n".encode())
    return h.hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


# ---------------------------------------------------------------------------
# minimax


def minimax_tasks(lc, seed: int, expected: dict) -> list[Task]:
    """minimax_order's fixed calls; the seed does not change them.

    Cells sharing (n, k) share lazily built tables, so shuffling them would
    move that cost between tasks and blur the per-task times.
    """
    table = expected["minimax"]

    def check(cell, result):
        n, k, l = cell
        want = table[tuple_key(cell)]["value"]
        lo, hi = lc.adaptive_lower_bound_ceil(n, k, l), lc.upper_bound_known(n, k, l)
        if result.value != want or not lo <= result.value <= hi:
            return f"value {result.value}, recorded {want}, bounds [{lo}, {hi}]"
        return None

    return [
        Task(
            f"game-value n={n} k={k} l={l}",
            lambda cell=(n, k, l): lc.exact_game_value(*cell),
            lambda result, cell=(n, k, l): check(cell, result),
        )
        for n, k, l in minimax_order()
    ]


# ---------------------------------------------------------------------------
# adversary and liar_sim: single-trial simulate calls


def _simulate_task(lc, label, config, lower, upper) -> Task:
    def check(result):
        (row,) = result.rows
        if not row.correct:
            return "wrong partition"
        if not lower <= row.queries <= upper:
            return f"{row.queries} queries outside [{lower}, {upper}]"
        if row.lies_used > config.l:
            return f"{row.lies_used} lies over the budget {config.l}"
        return None

    return Task(label, lambda: lc.simulate(config), check)


def _upper(lc, learner: str, n: int, k: int, l: int) -> int:
    bound = lc.upper_bound_known if learner.endswith("_k") else lc.upper_bound_unknown
    return bound(n, k, l)


def adversary_tasks(lc, seed: int, expected: dict | None = None) -> list[Task]:
    rng = _rng("adversary", seed)
    specs = [
        (learner, cell)
        for cell, games in ADVERSARY_CELLS.items()
        for learner in ADVERSARY_LEARNERS
        for _ in range(games)
    ]
    specs.append(ADVERSARY_LARGE)
    rng.shuffle(specs)
    tasks = []
    for i, (learner, (n, k, l)) in enumerate(specs):
        config = lc.ExperimentConfig(
            learner=learner, n=n, k=k, l=l, oracle="adversary",
            trials=1, seed=f"{seed}/{i}", robustified=True,
        )
        tasks.append(_simulate_task(
            lc, f"#{i} {learner} vs adversary n={n} k={k} l={l}", config,
            lc.adaptive_lower_bound_ceil(n, k, l), _upper(lc, learner, n, k, l),
        ))
    return tasks


def adversary_reference(lc) -> list[Task]:
    """Untimed digest slice: the default seed's games on n = 8 cells."""
    tasks = adversary_tasks(lc, DEFAULT_SEED)
    return [t for t in tasks if " n=8 " in t.label][:12]


def liar_sim_tasks(lc, seed: int, expected: dict | None = None) -> list[Task]:
    cells = [
        (learner, robustified, "liar", n, k, l)
        for learner, robustified in LIAR_LEARNERS
        for n in LIAR_NS
        for k in LIAR_KS
        for l in LIAR_LIES
    ] + [
        (learner, False, "truthful", n, k, 0)
        for learner in TRUTHFUL_LEARNERS
        for n in LIAR_NS
        for k in LIAR_KS
    ]
    specs = cells * LIAR_REPEATS
    _rng("liar_sim", seed).shuffle(specs)
    tasks = []
    for i, (learner, robustified, oracle, n, k, l) in enumerate(specs):
        config = lc.ExperimentConfig(
            learner=learner, n=n, k=k, l=l, oracle=oracle, p=LIAR_P,
            trials=1, seed=f"{seed}/{i}", robustified=robustified,
        )
        tasks.append(_simulate_task(
            lc, f"#{i} {learner} vs {oracle} n={n} k={k} l={l}", config,
            0, _upper(lc, learner, n, k, l),
        ))
    return tasks


def liar_sim_reference(lc) -> list[Task]:
    """Untimed digest slice: the first 1,000 trials of the default seed."""
    return liar_sim_tasks(lc, DEFAULT_SEED)[:1000]


# ---------------------------------------------------------------------------
# exhaustive


def _expected_task(lc, sizes, known_k: bool, known_table: dict) -> Task:
    def check(value):
        if known_k:
            want = Fraction(known_table[tuple_key(sizes)])
        else:
            want = lc.expected_queries(sizes)
        return None if value == want else f"{value}, expected {want}"

    return Task(
        f"exact_expected_queries {tuple_key(sizes)} known_k={known_k}",
        lambda: lc.exact_expected_queries(sizes, known_k),
        check,
    )


def _round_trip_task(lc, plan, robust, offset: int) -> Task:
    """Decode every candidate's truthful answers, and its repeated answers with one lie."""
    n, k = plan.n, plan.k_mode

    def run():
        candidates = lc.enumerate_partitions(n) if k is None else lc.enumerate_k_partitions(n, k)
        out = []
        for i, hidden in enumerate(candidates):
            decoded = lc.decode_plan(plan, lc.truthful_answers(plan, hidden))
            answers = lc.truthful_answers(robust, hidden)
            j = (offset + i) % len(answers)
            u, v, s = answers[j]
            answers[j] = (u, v, -s)
            out.append((hidden, decoded, lc.majority_decode(robust, answers, 1)))
        return out

    def check(out):
        want = lc.bell(n) if k is None else lc.stirling2(n, k)
        if len(out) != want:
            return f"{len(out)} candidates, expected {want}"
        for hidden, decoded, majority in out:
            if decoded != hidden or majority != hidden:
                return f"candidate {hidden.clusters} decoded wrong"
        return None

    return Task(f"round trip n={n} k={k}", run, check)


def _decodable_task(lc, plan, l: int) -> Task:
    return Task(
        f"plan_decodable n={plan.n} k={plan.k_mode} l={l}",
        lambda: lc.plan_decodable(plan, l),
        lambda ok: None if ok is True else "plan not decodable",
    )


def exhaustive_tasks(lc, seed: int, expected: dict) -> list[Task]:
    rng = _rng("exhaustive", seed)
    known_table = expected["known_k"]
    picks = []
    for parts, count in EXHAUSTIVE_N7_PER_PARTS.items():
        stratum = [c for c in compositions(7) if len(c) == parts]
        picks.extend(rng.sample(stratum, count))
    picks.extend(EXHAUSTIVE_N8)
    tasks = [_expected_task(lc, sizes, rng.random() < 0.5, known_table) for sizes in picks]
    for n in range(2, PLAN_MAX_N + 1):
        for k in [None] + list(range(2, n)):
            plan = lc.build_plan(n, k)
            robust = lc.robust_plan(plan, 1)
            if n <= ROUND_TRIP_MAX_N:
                tasks.append(_round_trip_task(lc, plan, robust, rng.randrange(1 << 16)))
            tasks.append(_decodable_task(lc, plan, 0))
            if n <= ROBUST_DECODABLE_MAX_N:
                tasks.append(_decodable_task(lc, robust, 1))
    rng.shuffle(tasks)
    return tasks


WORKLOADS = {
    "minimax": minimax_tasks,
    "adversary": adversary_tasks,
    "liar_sim": liar_sim_tasks,
    "exhaustive": exhaustive_tasks,
}

REFERENCES = {
    "adversary": adversary_reference,
    "liar_sim": liar_sim_reference,
}
