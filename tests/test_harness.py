"""Tests for the experiment harness."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest

from liarclust.bounds import expected_queries
from liarclust.harness import (
    LEARNERS,
    ORACLE_KINDS,
    ExperimentConfig,
    QueryBudgetExceededError,
    audit_rows,
    exact_expected_queries,
    monte_carlo_expected,
    run_game,
    simulate,
)
from liarclust.learners.adaptive import (
    Transcript,
    _insertion_sweep,
    insertion_cluster,
    parallel_insertion,
    randomized_insertion,
    robust_insertion,
    robustify,
)
from liarclust.oracles import AdversarialOracle, RandomLiarOracle, TruthfulOracle
from liarclust.partitions import Partition
from references import (
    AUDIT_GRIDS,
    audit_cell,
    compositions,
    label_sequence_mean,
    label_sequence_orders,
    set_partition_mean,
)


def test_simulation_is_deterministic():
    config = ExperimentConfig(
        learner="randomized", n=7, k=3, oracle="liar", l=2, p=0.3, trials=40, seed="s1"
    )
    a = simulate(config)
    b = simulate(config)
    assert a.rows == b.rows
    c = simulate(
        ExperimentConfig(
            learner="randomized", n=7, k=3, oracle="liar", l=2, p=0.3, trials=40, seed="s2"
        )
    )
    assert a.rows != c.rows


def test_adding_trials_preserves_earlier_rows():
    base = ExperimentConfig(learner="randomized", n=6, k=2, trials=10, seed="x")
    more = ExperimentConfig(learner="randomized", n=6, k=2, trials=25, seed="x")
    assert simulate(more).rows[:10] == simulate(base).rows


def test_simulation_against_truthful_is_always_correct():
    for learner in LEARNERS:
        config = ExperimentConfig(learner=learner, n=6, k=3, l=1, trials=15, seed="t")
        result = simulate(config)
        assert result.correct_fraction == 1.0, learner
        assert all(r.lies_used == 0 for r in result.rows)


def test_robust_simulation_against_liar_is_correct():
    config = ExperimentConfig(
        learner="robust_k", n=7, k=3, l=2, oracle="liar", p=0.5, trials=60, seed="liar"
    )
    result = simulate(config)
    assert result.correct_fraction == 1.0
    assert any(r.lies_used > 0 for r in result.rows)
    assert all(r.lies_used <= 2 for r in result.rows)


def test_plain_learner_against_eager_liar_errs():
    # With lies permitted (l > 0) and no repetition, some trials must decode
    # the wrong partition; the harness reports rather than hides this.
    config = ExperimentConfig(
        learner="insertion", n=6, k=3, l=3, oracle="liar", p=1.0, trials=20, seed="e"
    )
    result = simulate(config)
    assert result.correct_fraction < 1.0


def test_robustified_wrapper_in_harness():
    config = ExperimentConfig(
        learner="parallel_k",
        n=6,
        k=3,
        l=1,
        oracle="liar",
        p=0.4,
        trials=30,
        seed="w",
        robustified=True,
    )
    result = simulate(config)
    assert result.correct_fraction == 1.0


def test_adversary_requires_matching_tolerance():
    with pytest.raises(ValueError):
        ExperimentConfig(learner="insertion", n=5, k=2, l=1, oracle="adversary")
    config = ExperimentConfig(learner="robust_k", n=5, k=2, l=1, oracle="adversary", trials=2)
    result = simulate(config)
    assert result.correct_fraction == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(learner="mystery", n=5, k=2)
    with pytest.raises(ValueError):
        ExperimentConfig(learner="insertion", n=5, k=2, oracle="psychic")
    with pytest.raises(ValueError):
        ExperimentConfig(learner="insertion_k", n=5)  # needs k
    with pytest.raises(ValueError):
        ExperimentConfig(learner="insertion", n=5)  # hidden needs k or sizes
    with pytest.raises(ValueError):
        ExperimentConfig(learner="insertion", n=5, sizes=(2, 2))  # wrong sum
    with pytest.raises(ValueError):
        ExperimentConfig(learner="insertion", n=5, k=3, sizes=(3, 2))  # k mismatch
    with pytest.raises(ValueError):
        ExperimentConfig(learner="robust", n=5, k=2, robustified=True)
    # The adversary has no hidden partition for sizes to fix.
    for k in (None, 2):
        with pytest.raises(ValueError, match="^the adversary has no hidden partition"):
            ExperimentConfig(learner="robust_k", n=5, k=k, l=1, oracle="adversary", sizes=(1, 4))
    # One message for a missing k, whatever the learner or oracle.
    for learner, oracle in (("insertion_k", "truthful"), ("insertion", "liar"),
                            ("insertion", "adversary")):
        with pytest.raises(ValueError, match="^need k or sizes$"):
            ExperimentConfig(learner=learner, n=5, oracle=oracle)
    # k outside 1..n is refused when the config is built, not when it runs.
    for k in (-1, 0, 6, 7):
        for oracle in ORACLE_KINDS:
            with pytest.raises(ValueError, match=f"^need 1 <= k <= n, got k={k}, n=5$"):
                ExperimentConfig(learner="insertion", n=5, k=k, oracle=oracle)


def test_run_game_query_cap():
    hidden = Partition(6, ((0, 1, 2), (3, 4, 5)))
    with pytest.raises(QueryBudgetExceededError):
        run_game(lambda o: insertion_cluster(6, o), TruthfulOracle(hidden), query_cap=2)


def test_run_game_query_cap_through_the_repetition_layer():
    hidden = Partition(6, ((0, 1, 2), (3, 4), (5,)))
    learner = robustify(lambda o: insertion_cluster(6, o), 2)
    liar = lambda: RandomLiarOracle(hidden, 2, 0.4, seed="cap")
    q = run_game(learner, liar(), query_cap=1000).queries
    outcome = run_game(learner, liar(), query_cap=q)
    assert outcome.queries == q and outcome.correct
    with pytest.raises(QueryBudgetExceededError):
        run_game(learner, liar(), query_cap=q - 1)


def test_run_game_checks_the_transcript_against_the_count():
    def miscounting(oracle):
        oracle.answer(0, 1)
        return Transcript((), Partition(2, ((0, 1),)), 0)

    with pytest.raises(AssertionError):
        run_game(miscounting, TruthfulOracle(Partition(2, ((0, 1),))), query_cap=10)


def test_run_game_outcome_fields():
    oracle = AdversarialOracle(3, 2, 0)
    outcome = run_game(lambda o: insertion_cluster(3, o), oracle, 100)
    assert outcome.queries == 3
    assert outcome.correct
    assert outcome.lies_used == 0
    assert outcome.rounds == 3


def test_registry_entries_call_their_learner_with_k_or_none():
    # Each "_k" entry runs its learner with k, each base entry with None.
    n, k, l, seed = 7, 3, 1, "reg"
    hidden = Partition(7, ((0, 4), (1, 2, 5), (3, 6)))
    direct = {
        "insertion": lambda kk, o: insertion_cluster(n, o, kk),
        "randomized": lambda kk, o: randomized_insertion(n, o, seed, kk),
        "robust": lambda kk, o: robust_insertion(n, l, o, kk),
        "parallel": lambda kk, o: parallel_insertion(n, o, kk),
    }
    sources = [
        lambda: TruthfulOracle(hidden),
        lambda: RandomLiarOracle(hidden, l, 0.5, seed="reg/liar-a"),
        lambda: RandomLiarOracle(hidden, l, 0.5, seed="reg/liar-b"),
    ]
    assert set(LEARNERS) == set(direct) | {f"{base}_k" for base in direct}
    for spec in LEARNERS.values():
        base = spec.id.removesuffix("_k")
        assert spec.needs_k == spec.id.endswith("_k")
        learner = spec.build(n, k, seed)
        if spec.robust:
            learner = robustify(learner, l)
        for make in sources:
            want = direct[base](k if spec.needs_k else None, make())
            assert learner(make()) == want, spec.id


def test_exact_expected_queries_matches_set_partition_sweeps():
    # One closed form serves both names; the reference runs real sweeps.
    assert exact_expected_queries is expected_queries
    for sizes in [(2, 1), (2, 2), (3, 1), (2, 2, 1), (3, 2, 1), (3, 3, 2), (1, 4, 1, 2)]:
        for known_k in (False, True):
            assert exact_expected_queries(sizes, known_k) == set_partition_mean(sizes, known_k), (
                sizes,
                known_k,
            )


def test_exact_expected_queries_matches_all_orders():
    # Reference: the plain average over all n! element orders, with and
    # without the known-k shortcut, independent of the label-sequence count.
    for sizes in [(1, 1, 1), (2, 1), (2, 2, 1), (1, 3, 2), (3, 3), (2, 1, 2, 1)]:
        n = sum(sizes)
        clusters = []
        start = 0
        for s in sizes:
            clusters.append(tuple(range(start, start + s)))
            start += s
        hidden = Partition(n, tuple(clusters))
        for known_k in (False, True):
            k = len(sizes) if known_k else None
            total = 0
            count = 0
            for order in permutations(range(n)):
                total += _insertion_sweep(n, TruthfulOracle(hidden), order, k).queries
                count += 1
            assert exact_expected_queries(sizes, known_k) == Fraction(total, count), (
                sizes,
                known_k,
            )


def test_exact_expected_queries_matches_every_label_sequence():
    grid = [sizes for n in range(1, 7) for sizes in compositions(n)]
    for sizes in grid + [(1, 1, 1, 1, 1, 2), (2, 2, 1, 1, 1), (1, 3, 1, 1, 1)]:
        for known_k in (False, True):
            assert exact_expected_queries(sizes, known_k) == label_sequence_mean(sizes, known_k), (
                sizes,
                known_k,
            )


def test_label_sequence_orders_yield_one_order_per_set_partition():
    for n in range(1, 8):
        for sizes in compositions(n):
            owner = [c for c, s in enumerate(sizes) for _ in range(s)]
            orders = list(label_sequence_orders(sizes))
            want = factorial(n) // prod(factorial(x) for x in (*sizes, *Counter(sizes).values()))
            assert len(orders) == want, sizes
            renamed = set()
            for order in orders:
                assert sorted(order) == list(range(n)), (sizes, order)
                seq = [owner[e] for e in order]
                firsts = {}
                for c in seq:
                    firsts.setdefault(c, len(firsts))
                renamed.add(tuple(firsts[c] for c in seq))
                for size in set(sizes):
                    opened = [c for c in firsts if sizes[c] == size]
                    assert opened == sorted(opened), (sizes, order)
            assert len(renamed) == len(orders), sizes


def test_expected_queries_reject_sizes_that_are_not_positive_integers():
    for sizes in [(2.7, 1), (2.9, 1.5), ("3", "2"), (True, 1), (2, False), (2.0, 1), (0, 1), ()]:
        for expectation in (exact_expected_queries, expected_queries):
            with pytest.raises(ValueError, match=r"^cluster sizes must be positive integers, got "):
                expectation(sizes)


def test_config_rejects_sizes_that_are_not_positive_integers():
    # Rejected when the config is built, with bounds' message, not later in
    # simulate with a TypeError, and a bool is not taken for an int.
    for sizes, n in [((2.5, 2.5), 5), (("2", "3"), 5), ((True, 2), 3), ((2, 2.0), 4), ((0, 3), 3)]:
        with pytest.raises(ValueError, match=r"^cluster sizes must be positive integers, got "):
            ExperimentConfig(learner="randomized", n=n, sizes=sizes)
    with pytest.raises(ValueError, match=r"^sizes \(3, 2\) do not sum to n=9$"):
        ExperimentConfig(learner="randomized", n=9, sizes=(3, 2))


def test_exact_expectation_through_config():
    # The exact value for a config's sizes and its learner's k promise, as
    # `expected --exact` computes it, agrees with that config's sampled mean.
    for learner, sizes, known in [("randomized", (3, 2), False), ("randomized_k", (3, 2, 2), True)]:
        config = ExperimentConfig(learner=learner, n=sum(sizes), sizes=sizes, trials=400)
        spec = LEARNERS[config.learner]
        assert spec.randomized and spec.needs_k == known
        value = exact_expected_queries(config.sizes, known_k=spec.needs_k)
        assert value == set_partition_mean(sizes, known)
        mean, stderr = monte_carlo_expected(config)
        assert abs(mean - float(value)) <= 4 * stderr + 1e-9, (learner, mean, value)


def test_sampled_expectation_is_close_on_small_case():
    config = ExperimentConfig(
        learner="randomized", n=5, sizes=(3, 2), trials=4000, seed="mc"
    )
    mean, stderr = monte_carlo_expected(config)
    truth = float(expected_queries((3, 2)))
    assert 0 < stderr and abs(mean - truth) <= 4 * stderr + 1e-9


def test_audit_tables_pass():
    for table in (1, 2, 3):
        rows = list(audit_rows(table))
        assert all(r.ok for r in rows), [r for r in rows if not r.ok]
        assert [r.cell for r in rows] == [audit_cell(c) for c in AUDIT_GRIDS[table]]
    with pytest.raises(ValueError):
        list(audit_rows(4))
