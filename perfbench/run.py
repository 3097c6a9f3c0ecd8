"""liarclust benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload, single-threaded, as a closed loop:
each task starts when the previous one has returned.  A pass is the whole
task list, run on a freshly imported package so that every pass pays the
package's lazy caches, as every ``liarclust`` process does.  Set-up (import
plus input generation) is repeated before every pass, so that its samples
spread over the run, and reported as a median.

``--trace 0`` repeats passes for about ``--seconds`` seconds and reports the
end-to-end metrics as medians over passes, tasks and set-ups.  ``--trace 1``
runs a traced pass between two untraced ones and reports per-layer metrics;
their time difference is the tracing overhead.  After the timed phase every
output is checked, the CLI replays its commands against recorded bytes and,
for the simulation workloads, a fixed slice of default-seed trials is
compared with its recorded digest.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any check failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from time import perf_counter

import workloads
from spans import SpanTracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
SPAN_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

SETUPS_PER_PASS = 4
MIN_PASSES = 2

# One untimed CLI command per workload (two for exhaustive); recorded stdout
# lives in expected.json.
CLI_REPLAYS = {
    "minimax": [["game-value", "-n", "4", "-k", "3", "-l", "1"]],
    "adversary": [[
        "simulate", "--learner", "randomized_k", "--robustify", "--oracle", "adversary",
        "-n", "8", "-k", "3", "-l", "1", "--trials", "3", "--seed", "bench",
    ]],
    "liar_sim": [[
        "simulate", "--learner", "robust_k", "--oracle", "liar",
        "-n", "8", "-k", "3", "-l", "2", "-p", "0.4", "--trials", "20", "--seed", "demo",
    ]],
    "exhaustive": [
        ["check-plan", "-n", "6", "-k", "3", "--robust", "1", "-l", "1"],
        ["expected", "--exact", "--sizes", "3,2,2"],
    ],
}

# Node counts may change when the search changes, so they are not compared.
_NODES = re.compile(r'"nodes": \d+')

# Span name -> (module, public name).  Learners are every public entry
# point of learners.adaptive; robustify is traced through what it returns.
TRACED = {
    "game.exact_game_value": ("liarclust.game", "exact_game_value"),
    "game.record": ("liarclust.game", "GameState.record"),
    "game.lookahead_count": ("liarclust.game", "GameState.lookahead_count"),
    "game.responder_answer": ("liarclust.game", "responder_answer"),
    "coloring.k_inseparable": ("liarclust.coloring", "k_inseparable"),
    "instance.record_response": ("liarclust.instance", "SignedInstance.record_response"),
    "oracles.truthful.answer": ("liarclust.oracles", "TruthfulOracle.answer"),
    "oracles.liar.answer": ("liarclust.oracles", "RandomLiarOracle.answer"),
    "oracles.adversary.answer": ("liarclust.oracles", "AdversarialOracle.answer"),
    "learners.plans.plan_decodable": ("liarclust.learners.plans", "plan_decodable"),
    "learners.plans.decode_plan": ("liarclust.learners.plans", "decode_plan"),
    "learners.plans.majority_decode": ("liarclust.learners.plans", "majority_decode"),
    "partitions.random_k_partition": ("liarclust.partitions", "random_k_partition"),
    "partitions.k_partition_label_tuples": ("liarclust.partitions", "k_partition_label_tuples"),
    "harness.simulate": ("liarclust.harness", "simulate"),
    "harness.exact_expected_queries": ("liarclust.harness", "exact_expected_queries"),
}
LEARNERS = (
    "insertion_cluster", "insertion_cluster_known_k", "randomized_insertion",
    "randomized_insertion_known_k", "robust_insertion", "robust_insertion_known_k",
    "parallel_insertion", "parallel_insertion_known_k",
)
ORACLE_SPANS = ("oracles.truthful.answer", "oracles.liar.answer", "oracles.adversary.answer")


def load_package():
    """Import liarclust afresh from src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "liarclust" or m.startswith("liarclust.")]:
        del sys.modules[name]
    lc = importlib.import_module("liarclust")
    cli = importlib.import_module("liarclust.cli")
    if not os.path.abspath(lc.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported liarclust from {lc.__file__}, not from {SRC}")
    return lc, cli


class Bench:
    """State of one benchmark process: inputs, set-up times, failures."""

    def __init__(self, workload: str, seed: int, expected: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.setups: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.lc = self.cli = self.tasks = None

    def setup(self) -> None:
        """Import the package afresh and build the task list, timing both."""
        gc.collect()  # free the previous import now, not inside a timed task
        t0 = perf_counter()
        self.lc, self.cli = load_package()
        self.tasks = workloads.WORKLOADS[self.workload](self.lc, self.seed, self.expected)
        self.setups.append(perf_counter() - t0)

    def run_pass(self):
        """Run every task in order; return (seconds in tasks, per-task seconds, outputs)."""
        times, outputs = _run(self.tasks)
        return math.fsum(times), times, outputs

    def check(self, outputs) -> None:
        self.attempted += len(self.tasks)
        self.failures.extend(_problems(self.tasks, outputs))

    def replay_cli(self) -> None:
        recorded = self.expected["cli"][self.workload]
        for argv, want in zip(CLI_REPLAYS[self.workload], recorded):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            got = buf.getvalue()
            if argv[0] == "game-value":
                got, want = _NODES.sub('"nodes": N', got), _NODES.sub('"nodes": N', want)
            self.attempted += 1
            if code != 0 or got.encode("utf-8") != want.encode("utf-8"):
                self.failures.append(f"cli {' '.join(argv)}: exit {code}, stdout {got!r}")

    def check_reference(self) -> None:
        """Rerun the default-seed slice untimed and compare its rows digest."""
        make = workloads.REFERENCES.get(self.workload)
        if make is None:
            return
        tasks = make(self.lc)
        _, outputs = _run(tasks)
        problems = _problems(tasks, outputs)
        self.attempted += 1
        if problems:
            self.failures.append(f"default-seed slice: {problems[0]}")
        elif workloads.rows_digest(outputs) != self.expected["digests"][self.workload]:
            self.failures.append("default-seed slice: rows digest differs from the record")


def _run(tasks):
    """Call each task in order; return (per-task seconds, outputs or exceptions)."""
    times = []
    outputs = []
    for task in tasks:
        t0 = perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a raising task is a failed task, not a crash
            out = exc
        times.append(perf_counter() - t0)
        outputs.append(out)
    return times, outputs


def _problems(tasks, outputs) -> list[str]:
    found = []
    for task, out in zip(tasks, outputs):
        if isinstance(out, Exception):
            found.append(f"{task.label}: raised {out!r}")
            continue
        problem = task.check(out)
        if problem is not None:
            found.append(f"{task.label}: {problem}")
    return found


def environment(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": load,
        "seed": seed,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(bench: Bench, seconds: float):
    """Repeat passes for about `seconds` and report medians.

    Each pass starts from a fresh import, so every sample of a task is the
    same call on the same inputs from the same cold caches.  A task's latency
    is the mean of its samples: one per pass, or more where a pass repeats
    the task (tasks are identified by label).  The task quantiles are taken
    over those latencies, so each rests on several samples of one call.
    The machine's speed switches between a fast and a slow state every few
    seconds; the median of a task's samples jumps between the two states,
    while their mean moves with the share of the run spent in each.
    """
    pass_walls = []
    samples: dict[str, list[float]] = {}
    t_start = perf_counter()
    while True:
        wall, times, outputs = bench.run_pass()
        pass_walls.append(wall)
        for task, t in zip(bench.tasks, times):
            samples.setdefault(task.label, []).append(t)
        bench.check(outputs)
        del outputs
        # Stop when one more pass would end further past `seconds` than now.
        elapsed = perf_counter() - t_start
        if len(pass_walls) >= MIN_PASSES and elapsed + statistics.median(pass_walls) / 2 >= seconds:
            break
        for _ in range(SETUPS_PER_PASS):
            bench.setup()
    bench.replay_cli()
    bench.check_reference()
    latency = [statistics.fmean(v) for v in samples.values()]
    report = {
        "passes": len(pass_walls),
        "tasks": len(latency),
        "task_samples": sum(len(v) for v in samples.values()),
        "setup_samples": len(bench.setups),
        "pass_walls_s": pass_walls,
    }
    metrics = {
        "wall_s": metric(statistics.median(pass_walls), "s"),
        "task_p50_ms": metric(statistics.median(latency) * 1e3, "ms"),
        "task_p90_ms": metric(statistics.quantiles(latency, n=10)[-1] * 1e3, "ms"),
        "setup_s": metric(statistics.median(bench.setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, report


class Returned:
    """Counters read from return values of traced calls."""

    def __init__(self) -> None:
        self.nodes = 0
        self.transcripts: list = []

    def game(self, idx, args, result) -> None:
        self.nodes += result.nodes

    def learner(self, idx, args, transcript) -> None:
        self.transcripts.append((idx, transcript))


def install_tracer(tracer: SpanTracer, returned: Returned) -> None:
    for span, (module, name) in TRACED.items():
        hook = returned.game if span == "game.exact_game_value" else None
        tracer.patch(span, module, name, hook)
    for name in LEARNERS:
        tracer.patch(f"learners.adaptive.{name}", "liarclust.learners.adaptive", name,
                     returned.learner)
    tracer.patch_factory("learners.adaptive.robustify", "liarclust.learners.adaptive",
                         "robustify", returned.learner)


def repeat_counts(tracer: SpanTracer, returned: Returned) -> tuple[int, int]:
    """(physical queries, logical comparisons) over outermost learner calls.

    A logical comparison is a run of consecutive records on one pair: the
    repetition layers ask a pair again until enough answers agree, and no
    learner asks a resolved pair twice in a row.
    """
    physical = logical = 0
    for idx, transcript in returned.transcripts:
        parent = tracer.parent_name(idx)
        if parent is not None and parent.startswith("learners.adaptive."):
            continue  # a learner driven by robustify; its caller's transcript counts
        physical += transcript.queries
        previous = None
        for u, v, _, _ in transcript.records:
            if (u, v) != previous:
                logical += 1
                previous = (u, v)
    return physical, logical


def layer_metrics(tracer, returned, outputs, overhead_s, baseline) -> dict:
    agg = tracer.summary()

    def calls(span):
        return agg.get(span, (0, 0.0, 0.0))[0]

    def self_s(span):
        return agg.get(span, (0, 0.0, 0.0))[1]

    solve_s = agg.get("game.exact_game_value", (0, 0.0, 0.0))[2]
    lies = sum(
        row.lies_used
        for out in outputs
        if getattr(getattr(out, "config", None), "oracle", None) == "liar"
        for row in out.rows
    )
    liar_calls = calls("oracles.liar.answer")
    physical, logical = repeat_counts(tracer, returned)
    learner_self = sum(v[1] for k, v in agg.items() if k.startswith("learners.adaptive."))
    m = {
        "game.nodes": metric(returned.nodes, "count"),
        "game.nodes_per_s": metric(returned.nodes / solve_s if solve_s else 0.0, "1/s"),
        "game.exact_game_value.self_s": metric(self_s("game.exact_game_value"), "s"),
    }
    for span in ("game.record", "game.lookahead_count", "game.responder_answer",
                 "coloring.k_inseparable", "instance.record_response"):
        m[f"{span}.calls"] = metric(calls(span), "count")
        m[f"{span}.self_s"] = metric(self_s(span), "s")
    m["oracles.adversary.answer.self_s"] = metric(self_s("oracles.adversary.answer"), "s")
    m["oracles.liar.answer.calls"] = metric(liar_calls, "count")
    m["oracles.liar.answer.self_s"] = metric(self_s("oracles.liar.answer"), "s")
    m["oracles.lie_ratio"] = metric(lies / liar_calls if liar_calls else 0.0, "ratio")
    m["oracles.truthful.answer.calls"] = metric(calls("oracles.truthful.answer"), "count")
    m["learners.adaptive.self_s"] = metric(learner_self, "s")
    m["learners.adaptive.repeat_ratio"] = metric(physical / logical if logical else 0.0, "ratio")
    for span in ("learners.plans.plan_decodable", "partitions.random_k_partition",
                 "harness.exact_expected_queries"):
        m[f"{span}.calls"] = metric(calls(span), "count")
        m[f"{span}.self_s"] = metric(self_s(span), "s")
    decode = ("learners.plans.decode_plan", "learners.plans.majority_decode")
    m["learners.plans.decode.calls"] = metric(sum(calls(s) for s in decode), "count")
    m["learners.plans.decode.self_s"] = metric(sum(self_s(s) for s in decode), "s")
    m["partitions.k_partition_label_tuples.self_s"] = metric(
        self_s("partitions.k_partition_label_tuples"), "s")
    m["harness.simulate.self_s"] = metric(self_s("harness.simulate"), "s")
    m["harness.queries"] = metric(sum(calls(s) for s in ORACLE_SPANS), "count")
    m["trace.overhead_s"] = metric(overhead_s, "s")
    m["baseline.game_5_3_1.nodes"] = metric(baseline["game_5_3_1_nodes"], "count")
    m["baseline.adversary_10_4_1.queries"] = metric(baseline["adversary_10_4_1_queries"], "count")
    return m


def baselines(bench: Bench) -> dict:
    """Two exact counts, run untraced: exact_game_value(5,3,1)'s nodes (3,418
    when recorded) and the queries the adversary forces on robust_k at
    (10,4,1) (49, the known-k upper bound)."""
    lc = bench.lc
    nodes = lc.exact_game_value(5, 3, 1).nodes
    config = lc.ExperimentConfig(learner="robust_k", n=10, k=4, l=1, oracle="adversary", trials=1)
    (row,) = lc.simulate(config).rows
    bench.attempted += 1
    if not row.correct or row.queries > lc.upper_bound_known(10, 4, 1):
        bench.failures.append(f"robust_k vs adversary n=10 k=4 l=1: {row}")
    return {"game_5_3_1_nodes": nodes, "adversary_10_4_1_queries": row.queries}


def traced_run(bench: Bench):
    """One traced pass between two untraced ones, each on a fresh import.

    The tracing overhead is the traced pass's time minus the mean of the
    untraced passes around it, so that a drift in machine speed during the
    run shifts both sides alike.
    """
    def plain_pass():
        wall, _, outputs = bench.run_pass()
        bench.check(outputs)
        bench.setup()
        return wall

    wall_before = plain_pass()
    tracer, returned = SpanTracer(), Returned()
    install_tracer(tracer, returned)
    try:
        wall_traced, _, outputs = bench.run_pass()
    finally:
        tracer.uninstall()
    bench.check(outputs)
    bench.setup()
    wall_plain = statistics.fmean([wall_before, plain_pass()])
    found = baselines(bench)
    bench.replay_cli()
    bench.check_reference()
    metrics = layer_metrics(tracer, returned, outputs, wall_traced - wall_plain, found)
    report = {
        "untraced_wall_s": wall_plain,
        "traced_wall_s": wall_traced,
        "spans": len(tracer.start),
        "absent": tracer.absent,
        "baselines": found,
    }
    try:
        os.makedirs(SPAN_DIR, exist_ok=True)
        path = os.path.join(SPAN_DIR, f"spans-{bench.workload}.tsv.gz")
        tracer.write(path)
        report["span_file"] = os.path.relpath(path, ROOT)
    except OSError as exc:
        print(f"could not write spans: {exc}", file=sys.stderr)
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "liarclust", "__init__.py")):
        print(f"error: no liarclust package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = environment(args.seed)
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)

    bench = Bench(args.workload, args.seed, expected)
    for _ in range(SETUPS_PER_PASS):
        bench.setup()
    metrics, report = traced_run(bench) if args.trace else timed_run(bench, args.seconds)

    report.update(
        workload=args.workload,
        trace=args.trace,
        error_rate=len(bench.failures) / bench.attempted,
        cpu_s=time.process_time(),
    )
    if args.workload == "minimax":
        report["excluded_cells"] = {
            workloads.tuple_key(c): why for c, why in workloads.MINIMAX_EXCLUDED.items()
        }
    for line in bench.failures[:10]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }))
    return 1 if bench.failures else 0


if __name__ == "__main__":
    sys.exit(main())
