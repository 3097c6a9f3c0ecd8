"""Tests for the adversarial game: the adversary's levels and answers, exact values."""

from __future__ import annotations

import itertools
import math
import random
from operator import itemgetter

import pytest

from liarclust import game
from liarclust.bounds import adaptive_lower_bound_ceil, upper_bound_known, volume_bound
from liarclust.game import (
    GameValueResult,
    SearchBudgetExceededError,
    _MinimaxSolver,
    _relabel_tables,
    exact_game_value,
)
from liarclust.limits import ExhaustionLimitError
from liarclust.oracles import AdversarialOracle
from liarclust.partitions import Partition, _join_masks, stirling2
from references import (
    SignedAnswers,
    canonical_key,
    k_inseparable,
    k_partitions,
    label_tuples,
    relabel_tables,
)


def _reference_value(n: int, k: int, l: int, start: SignedAnswers | None = None) -> int:
    """Plain memoized minimax straight from instance costs, no pruning.

    Kept deliberately separate from the production solver: no cost capping,
    no symmetry reduction, no alpha-beta, no volume bound, states keyed by
    the raw signed instance.  Slow but obviously faithful to the game
    definition.  The game starts from start, or from no answers.
    """
    candidates = list(k_partitions(n, k))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    memo: dict = {}

    def value(inst: SignedAnswers) -> int:
        live = [p for p in candidates if inst.cost(p) <= l]
        assert live, "reference reached an inconsistent instance"
        if len(live) == 1:
            return 0
        key = (tuple(sorted(inst.pos.items())), tuple(sorted(inst.neg.items())))
        if key in memo:
            return memo[key]
        best = None
        for u, v in pairs:
            if len({p.same_cluster(u, v) for p in live}) == 1:
                continue
            worst = None
            for answer in (1, -1):
                nxt = inst.record_response(u, v, answer)
                if not any(nxt.cost(p) <= l for p in candidates):
                    continue
                val = 1 + value(nxt)
                if worst is None or val > worst:
                    worst = val
            assert worst is not None
            if best is None or worst < best:
                best = worst
        assert best is not None
        memo[key] = best
        return best

    return value(SignedAnswers(n) if start is None else start)


def _capped_costs(oracle: AdversarialOracle) -> list[int]:
    """Per candidate in canonical order: the adversary's level for it, l + 1 past budget."""
    return [
        next((c for c, level in enumerate(oracle._lv) if level >> i & 1), oracle.l + 1)
        for i in range(stirling2(oracle.n, oracle.k))
    ]


def test_game_state_costs_match_instance_costs():
    # The reference records the adversary's answers into its own SignedAnswers.
    candidates = list(k_partitions(4, 2))
    oracle = AdversarialOracle(4, 2, 1)
    reference = SignedAnswers(4)
    answers = []
    for u, v in [(0, 1), (0, 2), (1, 3), (0, 1), (2, 3)]:
        a = oracle.answer(u, v)
        answers.append(a)
        reference = reference.record_response(u, v, a)
        want = [reference.cost(p) for p in candidates]
        # Candidates past the lie budget are in no level.
        assert _capped_costs(oracle) == [min(c, 2) for c in want]
        assert oracle.lies_used == min(want)
    assert answers == [-1, -1, -1, -1, 1]
    assert oracle.committed == Partition(4, ((0, 2, 3), (1,)))
    assert max(reference.cost(p) for p in candidates) > 2


def test_terminality_and_witness():
    game = AdversarialOracle(3, 2, 0)
    assert game.answer(0, 1) == -1
    assert not game.is_terminal()
    assert game.answer(0, 2) == -1
    assert game.is_terminal()
    assert game.unique_witness() == Partition(3, ((0,), (1, 2)))

    relaxed = AdversarialOracle(3, 2, 1)
    assert relaxed.answer(0, 1) == -1
    assert relaxed.answer(0, 2) == -1
    assert not relaxed.is_terminal()
    assert relaxed.unique_witness() is None


def test_responder_base_trace_three_points():
    # With no lie budget the responder denies both (0,1) and (0,2); the
    # third pair is then forced together and the witness is {{0}, {1, 2}}.
    game = AdversarialOracle(3, 2, 0)
    trace = [game.answer(u, v) for u, v in [(0, 1), (0, 2), (1, 2)]]
    assert trace == [-1, -1, 1]
    assert game.unique_witness() == Partition(3, ((0,), (1, 2)))


def test_responder_no_commitment_without_lie_budget():
    # At l = 0 the aliveness check rejects every alternative explanation, so
    # the base answer stands and the second query ends the game.
    game = AdversarialOracle(3, 2, 0)
    assert game.answer(1, 0) == -1
    assert game.answer(2, 0) == -1
    assert game.committed is None
    assert game.is_terminal()


def test_responder_commitment_with_one_lie():
    # Hand-rolled trace at n=3, k=2, l=1: the fourth answer must flip,
    # because recording a third denial would determine the partition.
    game = AdversarialOracle(3, 2, 1)
    queries = [(0, 1), (0, 1), (0, 2), (0, 2), (0, 2)]
    answers = [game.answer(u, v) for u, v in queries]
    assert answers == [-1, -1, -1, 1, 1]
    assert game.committed == Partition(3, ((0, 2), (1,)))
    assert game.is_terminal()
    assert game.unique_witness() == game.committed
    # The committed explanation stayed within the lie budget throughout.
    reference = SignedAnswers(3)
    for (u, v), a in zip(queries, answers):
        reference = reference.record_response(u, v, a)
    assert reference.cost(game.committed) == game.lies_used == 1


def test_responder_endgame_answers_are_stable():
    game = AdversarialOracle(4, 2, 1)
    order = [(0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3), (1, 2), (1, 2)]
    for u, v in order:
        a = game.answer(u, v)
        if game.committed is not None:
            assert a == game.committed.same_cluster(u, v)
    assert game.committed is not None
    committed = game.committed
    for u, v in [(0, 1), (1, 3), (2, 3)]:
        assert game.answer(u, v) == committed.same_cluster(u, v)
    assert game.committed == committed


def test_responder_keeps_zero_cost_explanation_in_base_mode():
    # Invariant: while in base mode, some partition explains every answer.
    for n, k in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        game = AdversarialOracle(n, k, 2)
        for u in range(n):
            for v in range(u + 1, n):
                if game.committed is not None:
                    break
                game.answer(u, v)
                if game.committed is None:
                    assert game.lies_used == 0, (n, k, u, v)


def _reference_adversary(n, k, l, pairs):
    """The adversary's rule from first principles, independent of its level masks.

    Costs come from a SignedAnswers over k_partitions, the base
    answer from k_inseparable on the graph of negative answers, and the
    commitment from an explicit scan for the highest cost, first in
    canonical order on ties.  Plays pairs until one candidate is left and
    returns the answers, the step that committed (or None) and the
    committed partition.
    """
    candidates = list(k_partitions(n, k))
    inst = SignedAnswers(n)
    answers, switch, committed = [], None, None

    def survivors(after):
        return [p for p in candidates if after.cost(p) <= l]

    for step, (u, v) in enumerate(pairs):
        if len(survivors(inst)) == 1:
            break
        if committed is None:
            answer = 1 if k_inseparable(n, inst.neg, k, u, v) else -1
            left = survivors(inst.record_response(u, v, answer))
            if len(left) == 1:
                alive_after = {a: len(survivors(inst.record_response(u, v, a))) for a in (1, -1)}
                best_cost = -1
                for p in candidates:
                    cost = inst.cost(p)
                    if p == left[0] or cost > l or alive_after[p.same_cluster(u, v)] < 2:
                        continue
                    if cost > best_cost:
                        committed, best_cost = p, cost
                if committed is not None:
                    switch = step
        if committed is not None:
            answer = committed.same_cluster(u, v)
        inst = inst.record_response(u, v, answer)
        answers.append(answer)
    return answers, switch, committed


def _play_adversary(n, k, l, pairs):
    """Play the adversary on pairs until the game is over.

    After every answer each candidate's level must be its SignedAnswers
    cost, capped at l + 1, and lies_used the least such cost.
    """
    candidates = list(k_partitions(n, k))
    oracle = AdversarialOracle(n, k, l)
    inst = SignedAnswers(n)
    answers, switch = [], None
    for step, (u, v) in enumerate(pairs):
        if oracle.is_terminal():
            break
        a = oracle.answer(u, v)
        answers.append(a)
        inst = inst.record_response(u, v, a)
        costs = [inst.cost(p) for p in candidates]
        assert _capped_costs(oracle) == [min(c, l + 1) for c in costs], (n, k, l, step)
        assert oracle.lies_used == min(costs)
        if switch is None and oracle.committed is not None:
            switch = step
            assert inst.cost(oracle.committed) == l  # the only level alternatives sit at
    assert oracle.is_terminal(), (n, k, l)
    return answers, switch, oracle.committed


def test_adversary_matches_reference_responder():
    rng = random.Random(606)
    switches = 0
    for n in range(3, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        cap = 30 * len(pairs)
        for k in range(2, n):
            for l in range(3):
                orders = [list(itertools.islice(itertools.cycle(pairs), cap))]
                for _ in range(2):
                    order = [rng.choice(pairs) for _ in range(cap)]
                    orders.append([(v, u) if rng.random() < 0.5 else (u, v) for u, v in order])
                for order in orders:
                    got = _play_adversary(n, k, l, order)
                    assert got == _reference_adversary(n, k, l, order), (n, k, l, order[:8])
                    switches += got[1] is not None
    assert switches >= 60  # every game with l >= 1 commits


def test_responder_rejects_bad_pair():
    game = AdversarialOracle(3, 2, 0)
    for u, v in [(0, 3), (1, 1), (-1, 0)]:
        with pytest.raises(ValueError):
            game.answer(u, v)
    # A rejected pair leaves the game as it was.
    assert _capped_costs(game) == [0, 0, 0]


def test_exact_game_value_matches_plain_reference():
    cells = [
        (2, 2, 0),
        (2, 2, 1),
        (3, 2, 0),
        (3, 2, 1),
        (3, 2, 2),
        (3, 3, 0),
        (4, 2, 0),
        (4, 2, 1),
        (4, 3, 0),
        (4, 3, 1),
        (5, 2, 0),
        (5, 3, 0),
        (5, 4, 0),
    ]
    for n, k, l in cells:
        expected = _reference_value(n, k, l)
        got = exact_game_value(n, k, l)
        assert got.value == expected, (n, k, l, got.value, expected)


def _volume_bound(costs: list[int], l: int) -> int:
    """Least q with sum over live costs c of sum_{j <= l - c} C(q, j) <= 2**q."""
    q = 0
    while sum(math.comb(q, j) for c in costs if c <= l for j in range(l - c + 1)) > 2**q:
        q += 1
    return q


def _histogram(costs: list[int], l: int) -> tuple[int, ...]:
    return tuple(costs.count(c) for c in range(l + 1))


def test_volume_bound_matches_its_formula_and_never_exceeds_the_value():
    rng = random.Random(7007)
    for n, k in [(4, 2), (4, 3), (5, 3)]:
        for l in range(4):
            for _ in range(40):
                costs = [rng.randint(0, l + 1) for _ in range(stirling2(n, k))]
                if sum(c <= l for c in costs) >= 1:
                    assert volume_bound(_histogram(costs, l), l) == _volume_bound(costs, l), costs

    # Admissible: at positions on seeded random answer paths the bound is at
    # most the reference value, so cutting on it loses no line of play.
    checked = 0
    for n, k, l in [(3, 2, 2), (4, 2, 1), (4, 3, 1)]:
        candidates = list(k_partitions(n, k))
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for _ in range(4):
            inst = SignedAnswers(n)
            costs = [0] * len(candidates)
            while sum(c <= l for c in costs) >= 2:
                if tuple(costs) not in seen:
                    seen.add(tuple(costs))
                    bound = volume_bound(_histogram(costs, l), l)
                    assert bound <= _reference_value(n, k, l, inst), (n, k, l, costs)
                u, v = rng.choice(pairs)
                nxt = inst.record_response(u, v, rng.choice((1, -1)))
                if any(nxt.cost(p) <= l for p in candidates):
                    inst = nxt
                    costs = [inst.cost(p) for p in candidates]
        checked += len(seen)
    assert checked >= 30


def test_exact_game_value_known_anchors():
    assert exact_game_value(3, 2, 0).value == 2
    assert exact_game_value(4, 2, 0).value == 3


def test_exact_game_value_degenerate_cells():
    # One candidate partition (k = n, or k = 1): nothing to learn.
    for n in range(1, 5):
        res = exact_game_value(n, n, 2)
        assert res == GameValueResult(n, n, 2, 0, 0)
    assert exact_game_value(4, 1, 0).value == 0


def test_exact_game_value_validates_input():
    with pytest.raises(ValueError):
        exact_game_value(3, 4, 0)
    with pytest.raises(ValueError):
        exact_game_value(3, 0, 0)
    with pytest.raises(ValueError):
        exact_game_value(3, 2, -1)


def _forbid_relabel_tables(monkeypatch) -> None:
    """Make building the relabel tables, or their cached getters, fail."""
    def no_tables(n, k):
        raise AssertionError(f"relabel tables built for n={n}, k={k}")

    monkeypatch.setattr(game, "_relabel_tables", no_tables)
    monkeypatch.setattr(game, "_relabel_groups", no_tables)


def test_exact_game_value_checks_the_permutation_cap_before_any_table(monkeypatch):
    _forbid_relabel_tables(monkeypatch)
    # Single-candidate cells return before the solver, whatever n is.
    assert exact_game_value(12, 12, 1) == GameValueResult(12, 12, 1, 0, 0)
    assert exact_game_value(12, 1, 0) == GameValueResult(12, 1, 0, 0, 0)
    monkeypatch.setenv("LIARCLUST_MAX_PERM_N", "3")
    with pytest.raises(ExhaustionLimitError):
        exact_game_value(4, 2, 0)


def test_exact_game_value_pins_values_and_node_counts():
    # (value, nodes) per cell; a change to the search order, the volume bound
    # or the transposition table shows up here as a different node count.
    pinned = {
        (3, 2, 0): (2, 2),
        (3, 2, 1): (5, 6),
        (3, 2, 2): (8, 12),
        (4, 2, 0): (3, 4),
        (4, 2, 1): (6, 16),
        (4, 2, 2): (9, 42),
        (4, 3, 0): (5, 6),
        (4, 3, 1): (11, 53),
        (4, 3, 2): (17, 277),
        (5, 2, 0): (4, 7),
        (5, 2, 1): (7, 38),
        (5, 3, 0): (7, 12),
        (5, 3, 1): (12, 236),
        (5, 4, 0): (9, 28),
        (5, 4, 1): (19, 778),
    }
    # Nodes of the same search before the volume bound cut and ordered it:
    # the bound only ever removes nodes.
    without_volume_bound = {
        (3, 2, 0): 2,
        (3, 2, 1): 9,
        (3, 2, 2): 32,
        (4, 2, 0): 5,
        (4, 2, 1): 59,
        (4, 2, 2): 772,
        (4, 3, 0): 9,
        (4, 3, 1): 142,
        (4, 3, 2): 1513,
        (5, 2, 0): 11,
        (5, 2, 1): 263,
        (5, 3, 0): 33,
        (5, 3, 1): 3418,
        (5, 4, 0): 32,
        (5, 4, 1): 1914,
    }
    for (n, k, l), (value, nodes) in pinned.items():
        got = exact_game_value(n, k, l)
        assert (got.value, got.nodes) == (value, nodes), (n, k, l, got)
        assert nodes <= without_volume_bound[(n, k, l)], (n, k, l)


def test_exact_game_values_past_five_elements():
    # (value, nodes) of cells the volume bound and the smallest-class
    # canonical keys made cheap, each value inside its closed-form bounds.
    # (6,4,1) is the largest search here, a few seconds; (6,5,1) = 29 and
    # (6,3,2) = 19 take longer and are listed in the README.
    pinned = {
        (6, 2, 1): (9, 38),
        (6, 2, 2): (12, 298),
        (6, 3, 1): (14, 429),
        (7, 2, 1): (10, 87),
        (6, 4, 1): (20, 10312),
    }
    for (n, k, l), (value, nodes) in pinned.items():
        got = exact_game_value(n, k, l)
        assert (got.value, got.nodes) == (value, nodes), (n, k, l, got)
        assert adaptive_lower_bound_ceil(n, k, l) <= value <= upper_bound_known(n, k, l)


def test_exact_game_value_seven_elements_three_clusters_one_lie():
    # 301 candidates: the value lies within its closed-form bounds [14, 23]
    # and is at most 18, the worst case of the greedy questioner that always
    # asks the pair this search's move ordering puts first.
    got = exact_game_value(7, 3, 1)
    assert (got.value, got.nodes) == (16, 1295)
    assert adaptive_lower_bound_ceil(7, 3, 1) == 14 and upper_bound_known(7, 3, 1) == 23
    assert 14 <= got.value <= 18


def test_relabel_tables_match_every_permutation():
    for n in range(3, 7):
        for k in range(2, n):
            assert _relabel_tables(n, k) == relabel_tables(n, k), (n, k)


def test_solver_key_follows_the_smallest_class_rule():
    # Exact key bytes against the rule applied by brute force over every
    # table; the key is an image of the position, and every relabeling of
    # the position gets the same key.
    rng = random.Random(20231)
    for n, k in [(4, 2), (5, 3), (5, 4), (6, 3), (6, 4)]:
        tables = relabel_tables(n, k)
        for l in range(3):
            solver = _MinimaxSolver(n, k, l, node_budget=1)
            for trial in range(40):
                s = bytes(rng.randint(0, l + 1) for _ in range(len(tables[0])))
                key = solver._canon(s)
                assert key == canonical_key(n, k, s), (n, k, l, s)
                assert solver._canon(s) == key  # memoized key
                images = {bytes(itemgetter(*t)(s)) for t in tables}
                assert key in images, (n, k, l, s)
                if trial < 5:
                    for image in images:
                        assert solver._canon(image) == key, (n, k, l, s, image)


def test_too_deep_searches_give_up_with_the_budget_error(monkeypatch):
    with pytest.raises(SearchBudgetExceededError, match="recursion limit"):
        exact_game_value(3, 2, 250)

    _forbid_relabel_tables(monkeypatch)
    # Costs up to l + 1 = 256 do not fit the solver's bytes: bad input, not
    # a search that gave up.
    with pytest.raises(ValueError, match="at least 511 queries deep"):
        exact_game_value(3, 2, 255)


def test_search_budget_is_enforced():
    with pytest.raises(SearchBudgetExceededError) as info:
        exact_game_value(5, 2, 1, node_budget=3)
    assert info.value.nodes > 3


def test_join_masks_match_a_bit_by_bit_build():
    for n in range(1, 9):
        pairs = {(u, v) for u in range(n) for v in range(u + 1, n)}
        # Each k alone, and every k from 1 to n side by side.
        for ks in [*((k,) for k in range(1, n + 1)), tuple(range(1, n + 1))]:
            labels = [lab for k in ks for lab in label_tuples(n, k)]
            masks = _join_masks(n, ks)
            assert set(masks) == pairs
            for (u, v), mask in masks.items():
                want = 0
                for i, lab in enumerate(labels):
                    if lab[u] == lab[v]:
                        want |= 1 << i
                assert mask == want, (n, ks, u, v)


def test_relabel_tables_are_index_permutations():
    tables = _relabel_tables(4, 2)
    size = len(list(k_partitions(4, 2)))
    assert tuple(range(size)) in tables
    for t in tables:
        assert sorted(t) == list(range(size))
    # Symmetric positions canonicalize identically: denying (0,1) looks the
    # same as denying (2,3) once element names are forgotten.
    candidates = list(k_partitions(4, 2))
    a = SignedAnswers(4).record_response(0, 1, -1)
    b = SignedAnswers(4).record_response(2, 3, -1)
    canon = lambda s: min(tuple(s[i] for i in t) for t in tables)
    assert canon([a.cost(p) for p in candidates]) == canon([b.cost(p) for p in candidates])
