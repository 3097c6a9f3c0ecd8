"""Tests for the three answer sources."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from liarclust import oracles, partitions
from liarclust.bounds import upper_bound_known
from liarclust.harness import ExperimentConfig, simulate
from liarclust.limits import ExhaustionLimitError
from liarclust.oracles import AdversarialOracle, RandomLiarOracle, TruthfulOracle
from liarclust.partitions import Partition
from references import SignedAnswers


HIDDEN = Partition(5, ((0, 1, 2), (3,), (4,)))


def test_truthful_oracle_reads_partition():
    oracle = TruthfulOracle(HIDDEN)
    assert oracle.answer(0, 2) == 1
    assert oracle.answer(2, 0) == 1
    assert oracle.answer(0, 3) == -1
    assert oracle.answer(3, 4) == -1
    assert oracle.lies_used == 0
    assert oracle.verify_budget()


def test_hidden_partition_oracles_refuse_bad_pairs():
    makers = (
        lambda: TruthfulOracle(HIDDEN),
        lambda: RandomLiarOracle(HIDDEN, 1, 1.0, seed=3),
        lambda: RandomLiarOracle(HIDDEN, 5, 0.5, seed=3),
    )
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    n = HIDDEN.n
    for u, v in ((2, 2), (0, n), (-1, 0), (n, 0)):
        with pytest.raises(ValueError) as want:
            HIDDEN.same_cluster(u, v)
        for make in makers:
            oracle, fresh = make(), make()
            with pytest.raises(ValueError) as got:
                oracle.answer(u, v)
            assert str(got.value) == str(want.value)
            # The refused pair spent neither a lie nor a draw of the generator.
            assert oracle.lies_used == 0
            assert [oracle.answer(*p) for p in pairs] == [fresh.answer(*p) for p in pairs]


def test_liar_with_zero_probability_is_truthful():
    oracle = RandomLiarOracle(HIDDEN, l=3, p=0.0, seed=7)
    for u in range(5):
        for v in range(u + 1, 5):
            assert oracle.answer(u, v) == HIDDEN.same_cluster(u, v)
    assert oracle.lies_used == 0


def test_liar_with_certain_probability_spends_budget_first():
    oracle = RandomLiarOracle(HIDDEN, l=2, p=1.0, seed=0)
    assert oracle.answer(0, 1) == -1  # flipped
    assert oracle.answer(0, 3) == 1  # flipped
    assert oracle.lies_used == 2
    # Budget exhausted: truthful from now on.
    assert oracle.answer(0, 2) == 1
    assert oracle.answer(3, 4) == -1
    assert oracle.lies_used == 2
    assert oracle.verify_budget()


def test_liar_is_reproducible_from_seed():
    queries = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    a = [RandomLiarOracle(HIDDEN, 2, 0.4, seed=11).answer(u, v) for u, v in queries]
    b = [RandomLiarOracle(HIDDEN, 2, 0.4, seed=11).answer(u, v) for u, v in queries]
    c = [RandomLiarOracle(HIDDEN, 2, 0.4, seed=12).answer(u, v) for u, v in queries]
    assert a == b
    assert any(x != y for x, y in zip(a, c)) or a == c  # same-seed equality is the contract


def test_liar_validates_parameters():
    with pytest.raises(ValueError):
        RandomLiarOracle(HIDDEN, -1, 0.5, 0)
    with pytest.raises(ValueError):
        RandomLiarOracle(HIDDEN, 1, 1.5, 0)


def test_adversary_base_trace():
    oracle = AdversarialOracle(3, 2, 0)
    assert oracle.hidden is None
    assert oracle.answer(0, 1) == -1
    assert oracle.answer(0, 2) == -1
    assert oracle.is_terminal()
    assert oracle.unique_witness() == Partition(3, ((0,), (1, 2)))
    assert oracle.answer(1, 2) == 1  # post-terminal answers follow the witness
    assert oracle.lies_used == 0
    assert oracle.verify_budget()


def test_adversary_commitment_spends_lies():
    oracle = AdversarialOracle(3, 2, 1)
    answers = [oracle.answer(u, v) for u, v in [(0, 1), (0, 1), (0, 2), (0, 2), (0, 2)]]
    assert answers == [-1, -1, -1, 1, 1]
    assert oracle.is_terminal()
    witness = oracle.unique_witness()
    assert witness == Partition(3, ((0, 2), (1,)))
    assert oracle.lies_used == 1  # one recorded answer disagrees with the witness
    assert oracle.verify_budget()


def test_adversary_survives_cyclic_interrogation():
    # Drive the responder with round-robin queries until the game ends; its
    # internal invariants are asserted on every answer.
    for n, k, l in [(3, 2, 0), (4, 2, 1), (4, 3, 1), (5, 2, 2), (5, 3, 0), (5, 4, 1)]:
        oracle = AdversarialOracle(n, k, l)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        budget = (l + 2) * len(pairs) * (k + 2)
        asked = 0
        record = SignedAnswers(n)
        while not oracle.is_terminal():
            u, v = pairs[asked % len(pairs)]
            record = record.record_response(u, v, oracle.answer(u, v))
            asked += 1
            assert asked <= budget, f"game refused to end at {(n, k, l)}"
        assert oracle.verify_budget()
        witness = oracle.unique_witness()
        assert witness is not None and witness.k == k
        assert oracle.lies_used == record.cost(witness) <= l


def test_adversary_checks_the_enumeration_cap_before_building_tables(monkeypatch):
    # A shape that is already cached would skip the check inside the builders.
    for table in (partitions._label_columns, partitions._join_masks):
        table.cache_clear()
    monkeypatch.setenv("LIARCLUST_MAX_ENUM_N", "5")
    with pytest.raises(ExhaustionLimitError):
        AdversarialOracle(6, 2, 1)

    def unreachable(n, k):
        raise AssertionError(f"tables built for n={n} past the cap")

    for module in (partitions, oracles):
        monkeypatch.setattr(module, "_label_columns", unreachable)
        monkeypatch.setattr(module, "_join_masks", unreachable)
    with pytest.raises(ExhaustionLimitError):
        AdversarialOracle(6, 2, 1)


def test_adversary_checks_its_invariants_under_python_O():
    # Each answer checks with an explicit raise, which python -O keeps.
    script = (
        "from liarclust.oracles import AdversarialOracle\n"
        "for committed in (False, True):\n"
        "    oracle = AdversarialOracle(4, 2, 1)\n"
        "    if committed:\n"
        "        oracle.committed, oracle._committed_bit = object(), 1\n"
        "    oracle._lv = [0, 0]\n"
        "    try:\n"
        "        oracle.answer(0, 1)\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
    )
    path = [str(Path(oracles.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "no candidate explains every answer for free\n"
        "the committed candidate left level l\n"
    )


def test_robust_learner_beats_the_adversary_at_the_enumeration_cap():
    # n = 12 is the default cap; the adversary plays over S(12, 5) = 1,379,400 candidates.
    config = ExperimentConfig(learner="robust_k", n=12, k=5, l=1, oracle="adversary", trials=1)
    (row,) = simulate(config).rows
    assert row.correct
    assert row.queries == upper_bound_known(12, 5, 1) == 77
