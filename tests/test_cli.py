"""End-to-end tests for the command line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liarclust
from liarclust.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_csv_is_deterministic(capsys):
    argv = [
        "simulate",
        "--learner",
        "robust_k",
        "--oracle",
        "liar",
        "-n",
        "8",
        "-k",
        "3",
        "-l",
        "2",
        "-p",
        "0.4",
        "--trials",
        "12",
        "--seed",
        "cli",
    ]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "trial,queries,rounds,lies_used,correct"
    assert len(lines) == 13
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[4] == "true"  # robust learner survives the liar


def test_python_dash_m_runs_the_cli(capsys):
    argv = "simulate --learner robust_k --oracle liar -n 8 -k 3 -l 2 -p 0.4 --trials 3 --seed demo"
    argv = argv.split()
    code, out, _ = run_cli(capsys, *argv)
    # Run from a checkout: the package's src directory goes first on the path.
    path = [str(Path(liarclust.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "liarclust", *argv], capture_output=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (code, out.encode())
    assert out.startswith("trial,queries,rounds,lies_used,correct")


def test_simulate_csv_to_file(tmp_path, capsys):
    target = tmp_path / "runs.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--learner",
        "insertion",
        "-n",
        "5",
        "-k",
        "2",
        "--trials",
        "3",
        "--output",
        str(target),
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "trial,queries,rounds,lies_used,correct"
    assert len(lines) == 4


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "-n", "6", "-k", "3", "-l", "2")
    assert code == 0
    data = json.loads(out)
    assert data["adaptive_lower"] == "31/2"
    assert data["adaptive_lower_ceil"] == 16
    assert data["adaptive_upper_known"] == 29
    # n = 500 is valid input, past the interpreter's recursion limit.
    code, out, _ = run_cli(capsys, "bounds", "-n", "500", "-k", "2")
    assert code == 0
    assert json.loads(out)["adaptive_upper_known"] == 499


def test_plan_and_check_plan(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "plan", "-n", "6", "-k", "3")
    assert code == 0
    plan = json.loads(out)
    assert set(plan) == {"n", "k_mode", "queries"}
    assert len(plan["queries"]) == 12

    plan_file = tmp_path / "plan.json"
    plan_file.write_text(out)
    code, out, _ = run_cli(capsys, "check-plan", "--plan-file", str(plan_file))
    assert code == 0
    assert json.loads(out)["decodable"] is True

    # The bare plan cannot absorb a lie; its robust version can.
    code, out, _ = run_cli(capsys, "check-plan", "--plan-file", str(plan_file), "-l", "1")
    assert code == 1
    assert json.loads(out)["decodable"] is False
    code, out, _ = run_cli(
        capsys, "check-plan", "--plan-file", str(plan_file), "--robust", "1", "-l", "1"
    )
    assert code == 0


def test_check_plan_at_the_enumeration_cap(capsys):
    # S(12, 2) = 2,047 candidates at the default cap, and Bell(8) = 4,140 under one lie.
    for argv in (["-n", "12", "-k", "2"], ["-n", "8", "--robust", "1", "-l", "1"]):
        code, out, _ = run_cli(capsys, "check-plan", *argv)
        assert code == 0, argv
        assert json.loads(out)["decodable"] is True, argv


def test_decode_round_trip(capsys, tmp_path):
    from liarclust.learners.plans import build_plan, truthful_answers
    from liarclust.partitions import Partition

    hidden = Partition(6, ((0, 3), (1, 2, 4), (5,)))
    plan = build_plan(6, 3)
    answers_file = tmp_path / "answers.json"
    answers_file.write_text(json.dumps(truthful_answers(plan, hidden)))
    code, out, _ = run_cli(
        capsys, "decode", "-n", "6", "-k", "3", "--answers-file", str(answers_file)
    )
    assert code == 0
    assert json.loads(out) == {"n": 6, "clusters": [[0, 3], [1, 2, 4], [5]]}


def test_decode_reports_infeasible(capsys, tmp_path):
    from liarclust.learners.plans import build_plan

    plan = build_plan(6, 3)
    answers_file = tmp_path / "answers.json"
    answers_file.write_text(json.dumps([[u, v, 1] for u, v, _ in plan.queries]))
    code, out, err = run_cli(
        capsys, "decode", "-n", "6", "-k", "3", "--answers-file", str(answers_file)
    )
    assert code == 1
    assert out == ""
    assert "decode failed" in err


def test_decode_rejects_a_negative_lie_tolerance_for_every_plan(capsys, tmp_path):
    from liarclust.learners.plans import build_plan, robust_plan, truthful_answers
    from liarclust.partitions import Partition

    hidden = Partition(4, ((0, 1), (2, 3)))
    for robust in ([], ["--robust", "1"]):
        plan = robust_plan(build_plan(4, 2), 1) if robust else build_plan(4, 2)
        answers_file = tmp_path / "answers.json"
        answers_file.write_text(json.dumps(truthful_answers(plan, hidden)))
        argv = ["decode", "-n", "4", "-k", "2", *robust, "--answers-file", str(answers_file)]
        code, out, err = run_cli(capsys, *argv, "--lies", "-1")
        assert (code, out, err) == (2, "", "error: lie tolerance must be nonnegative, got -1\n")
        # A positive tolerance decodes a plan whose repeats carry it, and
        # refuses a plan without repeats.
        code, out, err = run_cli(capsys, *argv, "--lies", "1")
        if robust:
            assert (code, json.loads(out), err) == (0, {"n": 4, "clusters": [[0, 1], [2, 3]]}, "")
        else:
            want = "error: pair (0, 1) is asked 1 times, fewer than 2l+1 = 3\n"
            assert (code, out, err) == (2, "", want)


def test_decode_rejects_a_lie_tolerance_the_repeats_cannot_carry(capsys, tmp_path):
    from liarclust.learners.plans import build_plan, robust_plan, truthful_answers
    from liarclust.partitions import Partition

    plan = robust_plan(build_plan(4, 2), 1)  # each star pair asked 3 times
    answers = truthful_answers(plan, Partition(4, ((0, 1), (2, 3))))
    answers[0] = (0, 1, -answers[0][2])
    answers_file = tmp_path / "answers.json"
    answers_file.write_text(json.dumps(answers))
    argv = ["decode", "-n", "4", "-k", "2", "--robust", "1", "--answers-file", str(answers_file)]
    for lies in (0, 1):
        code, out, err = run_cli(capsys, *argv, "--lies", str(lies))
        assert (code, json.loads(out), err) == (0, {"n": 4, "clusters": [[0, 1], [2, 3]]}, "")
    for lies in (2, 5):
        code, out, err = run_cli(capsys, *argv, "--lies", str(lies))
        want = f"error: pair (0, 1) is asked 3 times, fewer than 2l+1 = {2 * lies + 1}\n"
        assert (code, out, err) == (2, "", want)


def test_decode_of_a_large_plan_runs_without_recursion(capsys, tmp_path):
    # Every star answer -1 leaves 1,100 singleton components to color.
    code, out, _ = run_cli(capsys, "plan", "-n", "1100", "-k", "2")
    assert code == 0
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(out)
    answers_file = tmp_path / "answers.json"
    answers_file.write_text(json.dumps([[u, v, -1] for u, v, _ in json.loads(out)["queries"]]))
    code, out, err = run_cli(
        capsys, "decode", "--plan-file", str(plan_file), "--answers-file", str(answers_file)
    )
    assert code == 0, err
    assert json.loads(out) == {"n": 1100, "clusters": [[0], list(range(1, 1100))]}


def test_game_value_json(capsys):
    code, out, _ = run_cli(capsys, "game-value", "-n", "4", "-k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3
    assert data["nodes"] >= 1


def test_game_value_budget_failure(capsys):
    code, out, err = run_cli(
        capsys, "game-value", "-n", "5", "-k", "2", "-l", "1", "--budget", "2"
    )
    assert code == 3
    assert "search gave up" in err


def test_game_value_negative_budget_exits_two(capsys):
    code, out, err = run_cli(capsys, "game-value", "-n", "3", "-k", "2", "--budget", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "node budget" in err
    # A zero budget is valid input: the search gives up at its first node.
    code, out, err = run_cli(capsys, "game-value", "-n", "3", "-k", "2", "--budget", "0")
    assert code == 3
    assert err.startswith("search gave up:")


def test_game_value_too_deep_gives_up_on_one_line(capsys):
    # l + 1 = 301 does not fit the solver's byte costs: unsupported input.
    code, out, err = run_cli(capsys, "game-value", "-n", "3", "-k", "2", "-l", "300")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "l <= 254" in err
    # l = 250 recurses past the interpreter's limit: the search gives up.
    code, out, err = run_cli(capsys, "game-value", "-n", "3", "-k", "2", "-l", "250")
    assert code == 3
    assert out == ""
    assert err.startswith("search gave up:") and err.count("\n") == 1, err
    assert "deep" in err
    # A single-candidate cell needs no search, whatever l is.
    code, out, _ = run_cli(capsys, "game-value", "-n", "3", "-k", "3", "-l", "300")
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_game_value_above_the_permutation_cap_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("LIARCLUST_MAX_PERM_N", "3")
    code, out, err = run_cli(capsys, "game-value", "-n", "4", "-k", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "LIARCLUST_MAX_PERM_N" in err
    code, out, _ = run_cli(capsys, "game-value", "-n", "4", "-k", "4")
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_expected_exact(capsys):
    code, out, _ = run_cli(capsys, "expected", "--sizes", "3,2", "--exact")
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is True
    # (n - k) + two ordered cross terms 3*2/5: 3 + 12/5.
    assert data["exact_value"] == "27/5"


def test_expected_sampled(capsys):
    code, out, _ = run_cli(
        capsys, "expected", "--sizes", "3,2", "--trials", "200", "--seed", "q"
    )
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is False
    assert data["trials"] == 200
    assert data["stderr"] > 0


def test_audit_single_table(capsys):
    code, out, _ = run_cli(capsys, "audit", "--table", "1")
    assert code == 0
    assert "audit passed" in out
    assert "FAIL" not in out


def test_audit_exits_one_on_failing_rows(capsys, monkeypatch):
    from liarclust import harness

    exact = harness.upper_bound_known
    monkeypatch.setattr(harness, "upper_bound_known", lambda n, k, l: exact(n, k, l) + (l == 2))
    code, out, _ = run_cli(capsys, "audit", "--table", "3")
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("table 3 FAIL")]
    assert code == 1
    assert len(failed) == 10 and all(" l=2: " in line for line in failed)
    assert len(lines) == 31 and lines[-1] == "audit failed (10 rows)"


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "bounds", "-n", "5", "-k", "5")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "expected")
    assert code == 2
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--learner", "nonsense", "-n", "4"])
    assert info.value.code == 2


def test_malformed_files_exit_two(capsys, tmp_path):
    pairs = [[0, 1, 1], [0, 2, 1], [0, 3, 1]]
    bad_plans = [
        {"n": 4},
        # Non-integer fields are refused, not truncated or coerced.
        {"n": 4.5, "k_mode": 2, "queries": pairs},
        {"n": True, "k_mode": None, "queries": pairs},
        {"n": 4, "k_mode": 2.0, "queries": pairs},
        {"n": 4, "k_mode": 2, "queries": [[0, 1, 1], [0, 2, 1.5], [0, 3, 1]]},
    ]
    argvs = []
    for i, data in enumerate(bad_plans):
        plan_file = tmp_path / f"plan-{i}.json"
        plan_file.write_text(json.dumps(data))
        argvs.append(["check-plan", "--plan-file", str(plan_file)])
    # Answer files must hold [u, v, sign] triples of JSON integers, not booleans.
    for i, answers in enumerate([[1, 2], [[0, 1, True], [0, 2, -1], [0, 3, -1]]]):
        answers_file = tmp_path / f"answers-{i}.json"
        answers_file.write_text(json.dumps(answers))
        argvs.append(["decode", "-n", "4", "-k", "2", "--answers-file", str(answers_file)])
    # JSON nested too deeply for the parser, as a plan and as answers.
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    argvs.append(["check-plan", "--plan-file", str(nested)])
    argvs.append(["decode", "-n", "4", "-k", "2", "--answers-file", str(nested)])
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "Traceback" not in err
