"""Command line front end.

Subcommands mirror the library surface: simulate (trial CSVs), bounds
(closed-form numbers), plan / check-plan / decode (nonadaptive plans),
game-value (exact minimax), expected (expectation estimates), and audit
(recompute the summary tables).  All output is deterministic for a fixed
seed.  Exit status 0 on success, 1 when a check or decode fails, 2 on bad
usage, 3 when game-value gives up its search.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from .bounds import build_bounds_report
from .game import SearchBudgetExceededError, exact_game_value
from .harness import (
    LEARNERS,
    ORACLE_KINDS,
    ExperimentConfig,
    audit_rows,
    exact_expected_queries,
    monte_carlo_expected,
    simulate,
)
from .learners.plans import (
    DecodeError,
    QueryPlan,
    build_plan,
    decode_plan,
    int_triples,
    majority_decode,
    plan_decodable,
    robust_plan,
)


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers: {text!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"sizes must be positive: {text!r}")
    return sizes


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


def _load_json(path: str):
    """Parse a JSON file; nesting too deep for the parser is bad input too."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _load_plan(args) -> QueryPlan:
    if args.plan_file:
        plan = QueryPlan.from_json_dict(_load_json(args.plan_file))
    else:
        if args.n is None:
            raise ValueError("provide -n (and optionally -k), or --plan-file")
        plan = build_plan(args.n, args.k)
    if args.robust:
        plan = robust_plan(plan, args.robust)
    return plan


def cmd_simulate(args) -> int:
    config = ExperimentConfig(
        learner=args.learner,
        n=args.n,
        k=args.k,
        l=args.lies,
        oracle=args.oracle,
        sizes=args.sizes,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        robustified=args.robustify,
    )
    result = simulate(config)
    out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["trial", "queries", "rounds", "lies_used", "correct"])
        for trial, row in enumerate(result.rows):
            writer.writerow(
                [trial, row.queries, row.rounds, row.lies_used, str(row.correct).lower()]
            )
    finally:
        if args.output:
            out.close()
    return 0


def cmd_bounds(args) -> int:
    _emit(build_bounds_report(args.n, args.k, args.lies))
    return 0


def cmd_plan(args) -> int:
    _emit(_load_plan(args).to_json_dict())
    return 0


def cmd_check_plan(args) -> int:
    plan = _load_plan(args)
    ok = plan_decodable(plan, l=args.lies)
    _emit(
        {
            "n": plan.n,
            "k_mode": plan.k_mode,
            "total_queries": plan.total_queries,
            "lie_tolerance": args.lies,
            "decodable": ok,
        }
    )
    return 0 if ok else 1


def cmd_decode(args) -> int:
    plan = _load_plan(args)
    answers = int_triples(
        _load_json(args.answers_file), "answers must be a JSON list of [u, v, sign] integer triples"
    )
    try:
        if args.lies is None:
            result = decode_plan(plan, answers)
        else:
            result = majority_decode(plan, answers, args.lies)
    except DecodeError as exc:
        print(f"decode failed: {exc}", file=sys.stderr)
        return 1
    _emit(result.to_json_dict())
    return 0


def cmd_game_value(args) -> int:
    try:
        result = exact_game_value(args.n, args.k, args.lies, node_budget=args.budget)
    except SearchBudgetExceededError as exc:
        print(f"search gave up: {exc}", file=sys.stderr)
        return 3
    _emit(dataclasses.asdict(result))
    return 0


def cmd_expected(args) -> int:
    if args.sizes is None and args.n is None:
        raise ValueError("provide --sizes or -n")
    config = ExperimentConfig(
        learner=args.learner,
        n=args.n if args.n is not None else sum(args.sizes),
        k=args.k,
        sizes=args.sizes,
        trials=args.trials,
        seed=args.seed,
    )
    if not args.exact:
        mean, stderr = monte_carlo_expected(config)
        _emit({"mean": mean, "stderr": stderr, "trials": config.trials, "exact": False})
        return 0
    if config.sizes is None:
        raise ValueError("exact expectation needs a truthful oracle and sizes")
    spec = LEARNERS[config.learner]
    if not spec.randomized:
        raise ValueError("exact expectation is defined for randomized learners")
    value = exact_expected_queries(config.sizes, known_k=spec.needs_k)
    _emit({"mean": float(value), "stderr": 0.0, "trials": 0, "exact": True,
           "exact_value": str(value)})
    return 0


def cmd_audit(args) -> int:
    tables = [args.table] if args.table else [1, 2, 3]
    failures = 0
    for table in tables:
        for row in audit_rows(table):
            mark = "ok" if row.ok else "FAIL"
            print(f"table {table} {mark:4s} {row.cell}: expected {row.expected}, got {row.observed}")
            failures += 0 if row.ok else 1
    print(f"audit {'passed' if failures == 0 else f'failed ({failures} rows)'}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liarclust",
        description="Learn hidden clusterings through same-cluster queries that may lie.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run learner-versus-oracle trials, one CSV row each")
    p.add_argument("--learner", required=True, choices=sorted(LEARNERS))
    p.add_argument("--oracle", default="truthful", choices=ORACLE_KINDS)
    p.add_argument("-n", type=int, required=True, help="number of elements")
    p.add_argument("-k", type=int, help="number of clusters")
    p.add_argument("-l", "--lies", type=int, default=0, help="lie budget")
    p.add_argument("--sizes", type=_sizes_arg, help="fixed cluster sizes, e.g. 3,2,1")
    p.add_argument("-p", "--lie-probability", type=float, default=0.1, dest="p")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", default="0")
    p.add_argument("--robustify", action="store_true", help="wrap the learner in repetition")
    p.add_argument("--output", help="write the CSV to this file instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="closed-form bounds for one (n, k, l) cell")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", "--lies", type=int, default=0)
    p.set_defaults(func=cmd_bounds)

    plan_args = argparse.ArgumentParser(add_help=False)
    plan_args.add_argument("-n", type=int)
    plan_args.add_argument("-k", type=int, help="cluster promise; omit for the unknown-k plan")
    plan_args.add_argument("--robust", type=int, metavar="L", help="repeat queries for L lies")
    plan_args.add_argument("--plan-file", help="load a plan instead of building one")

    p = sub.add_parser("plan", parents=[plan_args], help="print the nonadaptive plan as JSON")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("check-plan", parents=[plan_args],
                       help="verify a plan distinguishes all candidates")
    p.add_argument("-l", "--lies", type=int, default=0)
    p.set_defaults(func=cmd_check_plan)

    p = sub.add_parser("decode", parents=[plan_args], help="decode recorded answers for a plan")
    p.add_argument("-l", "--lies", type=int, default=None, help="strict majority against L lies per pair")
    p.add_argument("--answers-file", required=True, help="JSON list of [u, v, sign]")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("game-value", help="exact worst-case queries by minimax search")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", "--lies", type=int, default=0)
    p.add_argument("--budget", type=int, default=10_000_000, help="search node budget")
    p.set_defaults(func=cmd_game_value)

    p = sub.add_parser("expected", help="expected query count, sampled or exact")
    p.add_argument("--learner", default="randomized", choices=sorted(LEARNERS))
    p.add_argument("-n", type=int)
    p.add_argument("-k", type=int)
    p.add_argument("--sizes", type=_sizes_arg)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", default="0")
    p.add_argument("--exact", action="store_true", help="average over all element orders")
    p.set_defaults(func=cmd_expected)

    p = sub.add_parser("audit", help="recompute the summary tables from live runs")
    p.add_argument("--table", type=int, choices=(1, 2, 3))
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
