"""Tests for nonadaptive query plans and their decoder."""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from liarclust import partitions
from liarclust.learners import plans
from liarclust.learners.plans import (
    AmbiguousAnswersError,
    InfeasibleAnswersError,
    QueryPlan,
    build_plan,
    decode_plan,
    majority_decode,
    plan_decodable,
    robust_plan,
    truthful_answers,
)
from liarclust.limits import ExhaustionLimitError
from liarclust.partitions import (
    Partition,
    enumerate_k_partitions,
    enumerate_partitions,
    random_k_partition,
)
from references import k_partitions


def _pairs(plan: QueryPlan) -> tuple[tuple[int, int], ...]:
    """The plan's pairs, in query order, without multiplicities."""
    return tuple((u, v) for u, v, _ in plan.queries)


def test_plan_shapes_and_sizes():
    star = build_plan(6, 2)
    assert star.total_queries == 5
    assert _pairs(star) == tuple((0, v) for v in range(1, 6))

    boundary = build_plan(4, 3)
    assert boundary.total_queries == comb(4, 2) - 1
    assert (2, 3) not in _pairs(boundary)

    split = build_plan(6, 3)
    assert split.total_queries == comb(6, 2) - 3
    missing = set((u, v) for u in range(6) for v in range(u + 1, 6)) - set(_pairs(split))
    assert missing == {(0, 3), (1, 4), (2, 5)}

    odd_split = build_plan(7, 3)
    assert odd_split.total_queries == comb(7, 2) - 3
    missing = set((u, v) for u in range(7) for v in range(u + 1, 7)) - set(
        _pairs(odd_split)
    )
    assert missing == {(0, 4), (1, 5), (2, 6)}

    dense = build_plan(7, 5)
    assert dense.total_queries == comb(7, 2) - 1
    assert (5, 6) not in _pairs(dense)

    full = build_plan(5)
    assert full.k_mode is None
    assert full.total_queries == comb(5, 2)


def test_build_plan_validates_arguments():
    with pytest.raises(ValueError):
        build_plan(1)
    with pytest.raises(ValueError):
        build_plan(5, 1)
    with pytest.raises(ValueError):
        build_plan(5, 5)
    with pytest.raises(ValueError):
        build_plan(5, 6)


def test_every_plan_decodes_every_truthful_partition():
    for n in range(2, 7):
        for k in range(2, n):
            plan = build_plan(n, k)
            for hidden in enumerate_k_partitions(n, k):
                got = decode_plan(plan, truthful_answers(plan, hidden))
                assert got == hidden, (n, k, hidden)
        plan = build_plan(n)
        for hidden in enumerate_partitions(n):
            assert decode_plan(plan, truthful_answers(plan, hidden)) == hidden


def test_plans_are_decodable_and_silent_pairs_matter():
    for n in range(2, 7):
        for k in range(2, n):
            plan = build_plan(n, k)
            assert plan_decodable(plan)
            assert not plan_decodable(plan, l=1)
        assert plan_decodable(build_plan(n))


def test_robust_plan_majority_decoding_under_single_lies():
    for n, k in [(5, 2), (5, 3), (5, 4), (6, 3)]:
        plan = robust_plan(build_plan(n, k), l=1)
        assert plan_decodable(plan, l=1)
        for hidden in enumerate_k_partitions(n, k):
            base = truthful_answers(plan, hidden)
            for flip_at in range(len(base)):
                answers = list(base)
                u, v, s = answers[flip_at]
                answers[flip_at] = (u, v, -s)
                assert majority_decode(plan, answers, 1) == hidden, (n, k, flip_at)


def _decode_repeated(plan, answers, repeat):
    """decode_plan on the plan, or majority_decode on its robust plan asking each pair repeat times."""
    if repeat == 1:
        return decode_plan(plan, answers)
    return majority_decode(robust_plan(plan, repeat // 2), answers, repeat // 2)


def _assert_fails(call, cls, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is cls and str(info.value) == message


def test_majority_decode_rejects_ties():
    plan = QueryPlan(3, 2, ((0, 1, 2), (0, 2, 2)))
    answers = [(0, 1, 1), (0, 1, -1), (0, 2, -1), (0, 2, -1)]
    with pytest.raises(InfeasibleAnswersError):
        majority_decode(plan, answers, 0)
    # The first tied pair in plan order is reported, whatever the answer order.
    plan = QueryPlan(4, 2, ((0, 1, 2), (0, 2, 2), (0, 3, 2)))
    answers = [(0, 3, 1), (3, 0, -1), (0, 1, 1), (1, 0, 1), (2, 0, -1), (0, 2, 1)]
    _assert_fails(
        lambda: majority_decode(plan, answers, 0),
        InfeasibleAnswersError,
        "pair (0, 2) answered to an exact tie",
    )
    _assert_fails(
        lambda: majority_decode(plan, answers, -1),
        ValueError,
        "lie tolerance must be nonnegative, got -1",
    )
    _assert_fails(
        lambda: decode_plan(plan, answers),
        ValueError,
        "plan repeats queries; decode with majority_decode",
    )


def test_majority_decode_needs_2l_plus_1_answers_per_pair():
    plan = QueryPlan(4, 2, ((0, 1, 5), (0, 2, 4), (0, 3, 3)))
    hidden = Partition(4, ((0, 1), (2, 3)))
    answers = truthful_answers(plan, hidden)
    assert majority_decode(plan, answers, 1) == hidden
    # The first pair in plan order asked too few times, before any answer is read.
    _assert_fails(
        lambda: majority_decode(plan, answers, 2),
        ValueError,
        "pair (0, 2) is asked 4 times, fewer than 2l+1 = 5",
    )
    _assert_fails(
        lambda: majority_decode(plan, answers[:-1], 5),
        ValueError,
        "pair (0, 1) is asked 5 times, fewer than 2l+1 = 11",
    )


def test_decode_rejects_undecodable_input_shapes():
    plan = build_plan(4, 2)
    good = truthful_answers(plan, Partition(4, ((0, 1), (2, 3))))
    with pytest.raises(ValueError):
        decode_plan(plan, good[:-1])  # one answer missing
    with pytest.raises(ValueError):
        decode_plan(plan, good + [(1, 2, 1)])  # pair the plan never asks
    with pytest.raises(ValueError):
        decode_plan(robust_plan(plan, 1), truthful_answers(robust_plan(plan, 1), Partition(4, ((0, 1), (2, 3)))))


@pytest.mark.parametrize("repeat", [1, 3])
def test_decoders_report_the_first_fault_with_a_fixed_message(repeat):
    star = build_plan(4, 2)  # (0, 1), (0, 2), (0, 3)
    good = [(0, 1, 1), (0, 2, -1), (0, 3, -1)] * repeat
    asked = f"plan asks {repeat}"
    cases = [
        (good + [(2, 1, 1)], ValueError, "answer for pair (1, 2) which the plan never asks"),
        ([(2, 2, 1)] + good, ValueError, "answer for pair (2, 2) which the plan never asks"),
        # In input order, the first bad answer is reported; an unknown pair before its sign.
        ([(0, 2, 0), (0, 3, 2), (0, 1, "x")] + good, ValueError, "answer sign must be +1 or -1, got 0"),
        ([(0, 2, 2), (1, 2, 1)] + good, ValueError, "answer sign must be +1 or -1, got 2"),
        ([(0, 1, "x"), (0, 2, 0)] + good, ValueError, "answer sign must be +1 or -1, got 'x'"),
        ([(1, 3, "x")] + good, ValueError, "answer for pair (1, 3) which the plan never asks"),
        # Counts are checked in plan order, after every answer has been read.
        (good[:-1], ValueError, f"pair (0, 3) answered {repeat - 1} times, {asked}"),
        (good + [(1, 0, -1)], ValueError, f"pair (0, 1) answered {repeat + 1} times, {asked}"),
        (good[:-1] + [(0, 1, 1)], ValueError, f"pair (0, 1) answered {repeat + 1} times, {asked}"),
        # Every pair joined leaves one cluster where two are promised.
        ([(0, v, 1) for v in (1, 2, 3)] * repeat, InfeasibleAnswersError,
         "no 2-cluster partition explains the answers"),
    ]
    for answers, cls, message in cases:
        _assert_fails(lambda: _decode_repeated(star, answers, repeat), cls, message)
    # A negative answer inside a positive component is reported by its pair.
    complete = build_plan(3)
    _assert_fails(
        lambda: _decode_repeated(complete, [(0, 1, 1), (1, 2, 1), (0, 2, -1)] * repeat, repeat),
        InfeasibleAnswersError,
        "answer for (0, 2) contradicts the rest",
    )
    assert _decode_repeated(star, good, repeat) == Partition(4, ((0, 1), (2, 3)))


def test_decoders_ignore_answer_order_and_pair_orientation():
    rng = random.Random("answer-order")
    for repeat in (1, 3, 5):
        for plan, hidden in [
            (build_plan(6, 3), Partition(6, ((0, 3), (1, 2, 4), (5,)))),
            (build_plan(5), Partition(5, ((0, 3), (1, 2, 4)))),
        ]:
            answers = truthful_answers(plan, hidden) * repeat
            if repeat > 1:
                u, v, s = answers[0]
                answers[0] = (u, v, -s)  # one lie, outvoted
            assert _decode_repeated(plan, answers, repeat) == hidden
            shuffled = [(v, u, s) if rng.random() < 0.5 else (u, v, s) for u, v, s in answers]
            rng.shuffle(shuffled)
            assert _decode_repeated(plan, shuffled, repeat) == hidden
            assert _decode_repeated(plan, shuffled[::-1], repeat) == hidden
            # True and 1.0 count as +1, and -1.0 as -1, as equality with 1 and -1 says.
            loose = [(u, v, rng.choice((True, 1.0)) if s == 1 else -1.0) for u, v, s in shuffled]
            assert _decode_repeated(plan, loose, repeat) == hidden


def test_star_plan_rejects_infeasible_answers():
    plan = build_plan(3, 2)
    with pytest.raises(InfeasibleAnswersError):
        decode_plan(plan, [(0, 1, 1), (0, 2, 1)])  # would leave one cluster


def test_complete_plan_rejects_infeasible_answers():
    plan = build_plan(3)
    with pytest.raises(InfeasibleAnswersError):
        decode_plan(plan, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])


def test_all_but_one_plan_rejects_infeasible_answers():
    # Denying everything on six elements shows four groups among the first
    # four, and the silent pair (4, 5) can contribute only one more: five
    # clusters total, against a promise of four.
    plan = build_plan(6, 4)
    with pytest.raises(InfeasibleAnswersError):
        decode_plan(plan, [(u, v, -1) for u, v in _pairs(plan)])
    # The converse failure: two groups plus an attachment cannot reach four.
    plan = build_plan(5, 4)
    hidden = Partition(5, ((0, 1, 3), (2,), (4,)))
    broken = truthful_answers(plan, hidden)
    with pytest.raises(InfeasibleAnswersError):
        decode_plan(plan, broken)


def test_split_matching_plan_rejects_infeasible_answers():
    plan = build_plan(6, 3)
    with pytest.raises(InfeasibleAnswersError):
        decode_plan(plan, [(u, v, 1) for u, v in _pairs(plan)])  # one big cluster


def test_split_matching_plan_resolves_silent_pairs():
    # Hidden partitions in which the silent partner of one element is a
    # singleton group on its side, so only the other answers place it.
    cases = [
        Partition(5, ((0, 3), (1, 4), (2,))),
        Partition(5, ((0, 1, 2), (3,), (4,))),
        Partition(6, ((0, 3), (1, 2, 4), (5,))),
        Partition(6, ((0,), (1, 2, 3, 4), (5,))),
        Partition(7, ((0, 4), (1, 5), (2, 3, 6))),
    ]
    for hidden in cases:
        plan = build_plan(hidden.n, 3)
        assert decode_plan(plan, truthful_answers(plan, hidden)) == hidden


def test_irregular_plans_report_ambiguous_or_infeasible_answers():
    # Plans of any shape decode; these answers fit more than one candidate
    # (the first two) or none (the last two).
    with pytest.raises(AmbiguousAnswersError):
        decode_plan(
            QueryPlan(4, 2, ((1, 2, 1), (1, 3, 1))),
            [(1, 2, -1), (1, 3, -1)],
        )
    with pytest.raises(AmbiguousAnswersError):
        decode_plan(QueryPlan(4, None, ((0, 1, 1),)), [(0, 1, 1)])
    with pytest.raises(InfeasibleAnswersError):
        decode_plan(
            QueryPlan(4, 3, ((0, 1, 1), (2, 3, 1))),
            [(0, 1, 1), (2, 3, 1)],
        )
    bad_matching = tuple(
        (u, v, 1)
        for u in range(6)
        for v in range(u + 1, 6)
        if (u, v) not in {(0, 1), (2, 5)}
    )
    with pytest.raises(InfeasibleAnswersError):
        decode_plan(
            QueryPlan(6, 3, bad_matching),
            [(u, v, -1) for u, v, _ in bad_matching],
        )


def test_query_plan_validation_and_json():
    with pytest.raises(ValueError):
        QueryPlan(3, 2, ((0, 1, 1), (0, 1, 1)))
    with pytest.raises(ValueError):
        QueryPlan(3, 2, ((1, 0, 1),))
    with pytest.raises(ValueError):
        QueryPlan(3, 2, ((0, 1, 0),))
    plan = robust_plan(build_plan(6, 3), 2)
    assert QueryPlan.from_json_dict(plan.to_json_dict()) == plan
    # Decoding leaves the plan's value alone: equality, hash, repr and JSON.
    fresh = QueryPlan(plan.n, plan.k_mode, plan.queries)
    hidden = Partition(6, ((0, 3), (1, 2, 4), (5,)))
    assert majority_decode(plan, truthful_answers(plan, hidden), 2) == hidden
    assert (plan, hash(plan), repr(plan), plan.to_json_dict()) == (
        fresh, hash(fresh), repr(fresh), fresh.to_json_dict()
    )
    # Plan files written with the former "decoder" key still load.
    legacy = dict(plan.to_json_dict(), decoder="split_matching")
    assert QueryPlan.from_json_dict(legacy) == plan
    pairs = [[0, 1, 1], [0, 2, 1], [0, 3, 1]]
    malformed = [
        {"n": 4},
        {"n": 4, "k_mode": 2, "queries": [1]},
        [4],
        None,
        # Only JSON integers are read, so nothing is truncated or coerced.
        {"n": 4.5, "k_mode": 2, "queries": pairs},
        {"n": 4.0, "k_mode": 2, "queries": pairs},
        {"n": True, "k_mode": None, "queries": []},
        {"n": "4", "k_mode": 2, "queries": pairs},
        {"n": 4, "k_mode": 2.0, "queries": pairs},
        {"n": 4, "k_mode": True, "queries": pairs},
        {"n": 4, "k_mode": 2, "queries": [[0, 1, 1], [0, 2.5, 1], [0, 3, 1]]},
        {"n": 4, "k_mode": 2, "queries": [[0, 1, 1], [0, 2, True], [0, 3, 1]]},
        {"n": 4, "k_mode": 2, "queries": [[0, 1, 1], [0, 2], [0, 3, 1]]},
        {"n": 4, "k_mode": 2, "queries": [[0, 1, 1], ["0", 2, 1], [0, 3, 1]]},
        {"n": 4, "k_mode": 2, "queries": {"0": [0, 1, 1]}},
    ]
    for data in malformed:
        with pytest.raises(ValueError):
            QueryPlan.from_json_dict(data)
    assert QueryPlan.from_json_dict({"n": 4, "k_mode": 2, "queries": pairs}) == QueryPlan(
        4, 2, ((0, 1, 1), (0, 2, 1), (0, 3, 1))
    )


def _reference_candidates(plan):
    if plan.k_mode is None:
        return enumerate_partitions(plan.n)
    return k_partitions(plan.n, plan.k_mode)


def _reference_decode(plan, answers):
    """Brute force: the one candidate that fits every answer, else the error class."""
    fits = [
        p for p in _reference_candidates(plan)
        if all(p.same_cluster(u, v) == s for u, v, s in answers)
    ]
    if not fits:
        return InfeasibleAnswersError
    if len(fits) > 1:
        return AmbiguousAnswersError
    return fits[0]


def test_decode_matches_brute_force_on_arbitrary_plans():
    rng = random.Random("arbitrary-plans")
    outcomes = {}
    for trial in range(1500):
        n = rng.randint(2, 6)
        density = rng.random()
        chosen = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
        ]
        k_mode = rng.choice([None, *range(1, n + 1)])
        plan = QueryPlan(n, k_mode, tuple((u, v, 1) for u, v in chosen))
        if trial % 2:
            answers = [(u, v, rng.choice((1, -1))) for u, v in chosen]
        elif k_mode is None:
            answers = truthful_answers(plan, rng.choice(list(enumerate_partitions(n))))
        else:
            answers = truthful_answers(plan, random_k_partition(n, k_mode, rng))
        want = _reference_decode(plan, answers)
        if isinstance(want, Partition):
            assert decode_plan(plan, answers) == want, (plan, answers)
            outcomes["partition"] = outcomes.get("partition", 0) + 1
        else:
            with pytest.raises(want):
                decode_plan(plan, answers)
            outcomes[want.__name__] = outcomes.get(want.__name__, 0) + 1
    # The draw reaches every outcome often enough to mean something.
    assert set(outcomes) == {"partition", "InfeasibleAnswersError", "AmbiguousAnswersError"}
    assert min(outcomes.values()) >= 100, outcomes


def _reference_majority_decode(plan, answers):
    """Brute force: a strict majority per pair, a tie infeasible, then _reference_decode."""
    votes = {(u, v): 0 for u, v, _ in plan.queries}
    for u, v, s in answers:
        votes[min(u, v), max(u, v)] += s
    if 0 in votes.values():
        return InfeasibleAnswersError
    return _reference_decode(plan, [(u, v, 1 if t > 0 else -1) for (u, v), t in votes.items()])


def test_majority_decode_matches_brute_force_on_arbitrary_plans():
    rng = random.Random("arbitrary-repeated-plans")
    outcomes = {}
    for trial in range(1500):
        n = rng.randint(2, 6)
        density = rng.random()
        chosen = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
        ]
        k_mode = rng.choice([None, *range(1, n + 1)])
        plan = QueryPlan(n, k_mode, tuple((u, v, rng.randint(1, 5)) for u, v in chosen))
        if trial % 2:
            answers = [(u, v, rng.choice((1, -1))) for u, v, m in plan.queries for _ in range(m)]
        else:
            if k_mode is None:
                hidden = rng.choice(list(enumerate_partitions(n)))
            else:
                hidden = random_k_partition(n, k_mode, rng)
            answers = [(u, v, -s if rng.random() < 0.2 else s)
                       for u, v, s in truthful_answers(plan, hidden)]
        answers = [(v, u, s) if rng.random() < 0.5 else (u, v, s) for u, v, s in answers]
        rng.shuffle(answers)
        want = _reference_majority_decode(plan, answers)
        if isinstance(want, Partition):
            assert majority_decode(plan, answers, 0) == want, (plan, answers)
            outcomes["partition"] = outcomes.get("partition", 0) + 1
        else:
            with pytest.raises(want):
                majority_decode(plan, answers, 0)
            outcomes[want.__name__] = outcomes.get(want.__name__, 0) + 1
    assert set(outcomes) == {"partition", "InfeasibleAnswersError", "AmbiguousAnswersError"}
    assert min(outcomes.values()) >= 100, outcomes


def test_plan_decodable_respects_multiplicity():
    plan = build_plan(5, 2)
    assert plan_decodable(plan, l=0)
    assert not plan_decodable(plan, l=1)
    assert plan_decodable(robust_plan(plan, 1), l=1)
    assert not plan_decodable(robust_plan(plan, 1), l=2)
    with pytest.raises(ValueError):
        plan_decodable(plan, l=-1)


def _reference_decodable(plan, l):
    """Brute force: every two candidates' answers differ in total multiplicity above 2l."""
    vectors = [
        [p.same_cluster(u, v) for u, v, _ in plan.queries] for p in _reference_candidates(plan)
    ]
    weights = [m for _, _, m in plan.queries]
    return all(
        sum(m for m, x, y in zip(weights, a, b) if x != y) > 2 * l
        for a, b in combinations(vectors, 2)
    )


def test_plan_decodable_matches_pairwise_distances():
    # Counted apart: with and without lies, and only where the plan has more
    # than one candidate to tell apart.
    rng = random.Random("pairwise-distances")
    verdicts = {(lies, ok): 0 for lies in (False, True) for ok in (False, True)}
    for _ in range(2000):
        n = rng.randint(2, 6)
        k_mode = rng.choice([None, *range(1, n + 1)])
        density = rng.choice([1.0, rng.random()])
        queries = tuple(
            (u, v, rng.randint(1, 5))
            for u, v in combinations(range(n), 2)
            if rng.random() < density
        )
        plan = QueryPlan(n, k_mode, queries)
        l = rng.randint(0, 2)
        want = _reference_decodable(plan, l)
        assert plan_decodable(plan, l) == want, (plan, l)
        if k_mode not in (1, n):
            verdicts[l > 0, want] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_plan_decodable_edge_cases():
    for n in range(2, 7):
        for k_mode in [None, *range(1, n + 1)]:
            # With no queries only a plan with one candidate is decodable.
            assert plan_decodable(QueryPlan(n, k_mode, ()), 0) == (k_mode in (1, n)), (n, k_mode)
    one_candidate = [QueryPlan(4, 1, ()), QueryPlan(4, 4, ((0, 1, 1), (2, 3, 2)))]
    for plan in one_candidate:
        for l in range(6):
            assert plan_decodable(plan, l), (plan, l)


def test_plan_decodable_builds_no_table_once_2l_covers_the_plan(monkeypatch):
    def unreachable(n, ks):
        raise AssertionError(f"join masks built for n={n}")

    monkeypatch.setattr(plans, "_join_masks", unreachable)
    huge = 2**62
    plan = build_plan(6, 3)
    for l in (plan.total_queries // 2, huge):
        assert not plan_decodable(plan, l), l
    assert not plan_decodable(QueryPlan(6, None, ()), 0)
    # One candidate needs no query, at any l.
    assert plan_decodable(QueryPlan(6, 6, ((0, 1, 1),)), huge)
    assert plan_decodable(QueryPlan(6, 1, ()), huge)


def test_plan_decodable_with_huge_multiplicities():
    # 2l is below the plan's total, yet 2l + 1 levels would not fit in memory.
    huge = 2**62
    plan = QueryPlan(3, None, ((0, 1, huge), (0, 2, huge), (1, 2, huge)))
    assert not plan_decodable(plan, huge)
    assert not plan_decodable(plan, huge - 1)
    rng = random.Random("huge-multiplicities")
    verdicts = {False: 0, True: 0}
    for _ in range(300):
        n = rng.randint(2, 5)
        queries = tuple(
            (u, v, rng.randint(1, 4) * huge + rng.randint(0, 1))
            for u, v in combinations(range(n), 2)
            if rng.random() < 0.8
        )
        plan = QueryPlan(n, rng.choice([None, *range(2, n)]) if n > 2 else None, queries)
        l = rng.randint(1, 5) * huge // 2 - rng.randint(0, 1)
        want = _reference_decodable(plan, l)
        assert plan_decodable(plan, l) == want, (plan, l)
        verdicts[want] += 1
    assert min(verdicts.values()) >= 30, verdicts


def test_plan_decodable_with_distinct_power_of_two_multiplicities():
    rng = random.Random("powers-of-two")
    verdicts = {False: 0, True: 0}
    for _ in range(400):
        n = rng.randint(3, 5)
        pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.9]
        powers = rng.sample(range(len(pairs) + 4), len(pairs))
        queries = tuple((u, v, 1 << e) for (u, v), e in zip(pairs, powers))
        plan = QueryPlan(n, rng.choice([None, *range(2, n)]), queries)
        l = rng.randint(1, 2 ** rng.randint(1, len(pairs)))
        want = _reference_decodable(plan, l)
        assert plan_decodable(plan, l) == want, (plan, l)
        verdicts[want] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_plan_decodable_memory_stays_flat_with_many_subset_sums():
    # The i-th of the 15 pairs is asked 2^i times, 2^15 - 1 queries in all, and
    # 2l = 32,764 is below that: every total up to 2l is a subset sum.
    pairs = combinations(range(6), 2)
    plan = QueryPlan(6, None, tuple((u, v, 1 << i) for i, (u, v) in enumerate(pairs)))
    plan_decodable(plan, 0)  # build the join masks outside the measurement
    tracemalloc.start()
    try:
        assert not plan_decodable(plan, 16_382)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_plan_decodable_without_lies_hashes_one_string_per_candidate():
    plan = build_plan(10)
    plan_decodable(plan, 0)  # build the join masks outside the measurement
    tracemalloc.start()
    try:
        assert plan_decodable(plan, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 << 20, peak


def test_plan_decodable_checks_the_enumeration_cap_first(monkeypatch):
    plan = build_plan(6, 2)
    for table in (partitions._label_columns, partitions._label_masks, partitions._join_masks):
        table.cache_clear()
    monkeypatch.setenv("LIARCLUST_MAX_ENUM_N", "5")
    for l in (0, 1):
        with pytest.raises(ExhaustionLimitError):
            plan_decodable(plan, l)

    def unreachable(n, k):
        raise AssertionError(f"tables built for n={n} past the cap")

    monkeypatch.setattr(partitions, "_label_columns", unreachable)
    monkeypatch.setattr(partitions, "_label_masks", unreachable)
    monkeypatch.setattr(partitions, "_join_masks", unreachable)
    monkeypatch.setattr(plans, "_join_masks", unreachable)
    for l in (0, 1):
        with pytest.raises(ExhaustionLimitError):
            plan_decodable(plan, l)
