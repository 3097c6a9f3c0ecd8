"""Acceptance suite: the package's headline guarantees, checked end to end.

One test per guarantee.  Each prints a single [PASS] or [FAIL] line, so

    pytest tests/test_acceptance.py -v -s

reads as a checklist.  The grids are exhaustive wherever the guarantee is
exhaustive, which makes this module deliberately slow (a few minutes);
everything else in the test suite stays fast.
"""

from __future__ import annotations

import itertools
import random
import time
from math import comb, log2

from liarclust.bounds import (
    adaptive_lower_bound_ceil,
    build_bounds_report,
    expected_queries,
    expected_queries_robust_worst_case,
    hamming_ball_volume,
    upper_bound_known,
    upper_bound_unknown,
)
from liarclust.game import SearchBudgetExceededError, exact_game_value
from liarclust.harness import (
    ExperimentConfig,
    audit_rows,
    exact_expected_queries,
    monte_carlo_expected,
)
from liarclust.learners.adaptive import (
    insertion_cluster,
    robust_insertion,
    robustify,
)
from liarclust.learners.plans import (
    QueryPlan,
    _surjective_class_partitions,
    build_plan,
    decode_plan,
    majority_decode,
    plan_decodable,
    robust_plan,
    truthful_answers,
)
from liarclust.oracles import AdversarialOracle, RandomLiarOracle, TruthfulOracle
from liarclust.partitions import (
    enumerate_k_partitions,
    enumerate_partitions,
    random_k_partition,
    stirling2,
)
from references import AUDIT_GRIDS, adjacency, audit_cell, compositions, set_partition_mean


def _report(num: int, label: str, failures: list[str], covered: str) -> None:
    """Print the one-line verdict for a criterion, then assert it."""
    if failures:
        shown = "; ".join(failures[:3])
        if len(failures) > 3:
            shown += f"; and {len(failures) - 3} more"
        print(f"[FAIL] {num:02d} {label}: {shown}")
    else:
        print(f"[PASS] {num:02d} {label}: {covered}")
    assert not failures, f"criterion {num:02d} ({label}): {failures[:3]}"


def _audited(table: int, failures: list[str]):
    """Yield (grid cell, row) over a harness audit table's rows as they are computed.

    A row that is not ok is a failure, and so is a table whose rows do not
    name exactly the acceptance grid, in order.
    """
    rows = audit_rows(table)
    for cell in AUDIT_GRIDS[table]:
        row = next(rows, None)
        if row is None or row.cell != audit_cell(cell):
            failures.append(f"table {table} row {row and row.cell} in place of {audit_cell(cell)}")
            return
        if not row.ok:
            failures.append(f"{row.cell}: expected {row.expected}, got {row.observed}")
        yield cell, row
    extra = next(rows, None)
    if extra is not None:
        failures.append(f"table {table} names {extra.cell} past its grid")


def test_01_adversary_forces_exact_adaptive_worst_case():
    failures: list[str] = []
    slowest = 0.0
    t0 = time.perf_counter()
    for (n, k), _ in _audited(2, failures):
        cell_time = time.perf_counter() - t0
        slowest = max(slowest, cell_time)
        if cell_time >= 1.0:
            failures.append(f"cell n={n} k={k} took {cell_time:.2f}s")
        t0 = time.perf_counter()
    _report(1, "exact adaptive worst case", failures,
            f"{len(AUDIT_GRIDS[2])} cells with 2 <= k <= n <= 7, k known and unknown, "
            f"slowest cell {slowest * 1000:.0f}ms")


def test_02_plan_sizes_and_exhaustive_decoding():
    t0 = time.perf_counter()
    failures: list[str] = []
    for (n, k), row in _audited(1, failures):
        if not row.ok:
            continue
        plan = build_plan(n, k)
        hiddens = enumerate_partitions(n) if k is None else enumerate_k_partitions(n, k)
        for hidden in hiddens:
            got = decode_plan(plan, truthful_answers(plan, hidden))
            if got != hidden:
                failures.append(f"n={n} k={k}: {hidden.clusters} decoded as {got.clusters}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, cap is 30s")
    _report(2, "plan sizes and decoding", failures,
            f"{len(AUDIT_GRIDS[1])} plans for n <= 7, every hidden partition, "
            f"repeated against one lie, {elapsed:.1f}s")


def test_03_plans_of_minimal_size():
    t0 = time.perf_counter()
    failures: list[str] = []
    subsets = 0
    pairs5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    for k, keep in ((3, 7), (4, 8)):
        for chosen in itertools.combinations(pairs5, keep):
            trial = QueryPlan(5, k, tuple((u, v, 1) for u, v in chosen))
            subsets += 1
            if plan_decodable(trial, 0):
                failures.append(f"{keep} queries decode k={k} at n=5: {chosen}")
    for n in range(2, 7):
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for dropped in all_pairs:
            rest = tuple((u, v, 1) for u, v in all_pairs if (u, v) != dropped)
            trial = QueryPlan(n, None, rest)
            subsets += 1
            if plan_decodable(trial, 0):
                failures.append(f"complete minus {dropped} decodes unknown k at n={n}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, cap is 2min")
    _report(3, "no smaller plan decodes", failures,
            f"{subsets} reduced plans all fail as they must, {elapsed:.1f}s")


def test_04_game_value_between_the_bounds():
    failures: list[str] = []
    # Exact values per (n, k): one entry for each l = 0, 1, 2.
    exact = {
        (3, 2): (2, 5, 8),
        (4, 2): (3, 6, 9),
        (4, 3): (5, 11, 17),
        (5, 2): (4, 7, 10),
        (5, 3): (7, 12, 18),
        (5, 4): (9, 19, 29),
    }
    cells = 0
    most_nodes = 0
    for n in range(3, 6):
        for k in range(2, n):
            for l in range(3):
                try:
                    result = exact_game_value(n, k, l)
                except SearchBudgetExceededError:
                    failures.append(f"n={n} k={k} l={l}: over the node budget")
                    continue
                cells += 1
                most_nodes = max(most_nodes, result.nodes)
                lo = adaptive_lower_bound_ceil(n, k, l)
                hi = upper_bound_known(n, k, l)
                if not lo <= result.value <= hi:
                    failures.append(
                        f"n={n} k={k} l={l}: value {result.value} outside [{lo}, {hi}]"
                    )
                want = exact[(n, k)][l]
                if result.value != want:
                    failures.append(f"n={n} k={k} l={l}: value {result.value}, wanted {want}")
    _report(4, "game value sandwich", failures,
            f"{cells} cells with n <= 5, l <= 2, each at its exact value; "
            f"largest search {most_nodes} nodes")


def test_05_adversary_pushes_robust_insertion_to_the_floor():
    failures: list[str] = []
    for _ in _audited(3, failures):
        pass
    _report(5, "adversary pushes robust insertion to its upper bound", failures,
            f"{len(AUDIT_GRIDS[3])} cells with n <= 6, l <= 2 all at or above their floor, "
            "each exactly at upper_bound_known")


def test_06_robust_learners_survive_random_lies():
    t0 = time.perf_counter()
    failures: list[str] = []
    runs = 0
    for n in range(2, 9):
        for k in range(2, min(4, n) + 1):
            for l in range(4):
                cap_unknown = upper_bound_unknown(n, k, l)
                cap_known = upper_bound_known(n, k, l)
                for trial in range(10_000):
                    stem = f"robust-liar/{n}/{k}/{l}/{trial}"
                    hidden = random_k_partition(n, k, random.Random(f"{stem}/hidden"))
                    t = robust_insertion(
                        n, l, RandomLiarOracle(hidden, l, 0.25, seed=f"{stem}/u")
                    )
                    if t.result != hidden:
                        failures.append(f"unknown n={n} k={k} l={l} trial {trial}: wrong")
                    elif t.queries > cap_unknown:
                        failures.append(
                            f"unknown n={n} k={k} l={l} trial {trial}: {t.queries} > {cap_unknown}"
                        )
                    t = robust_insertion(
                        n, l, RandomLiarOracle(hidden, l, 0.25, seed=f"{stem}/k"), k
                    )
                    if t.result != hidden:
                        failures.append(f"known n={n} k={k} l={l} trial {trial}: wrong")
                    elif t.queries > cap_known:
                        failures.append(
                            f"known n={n} k={k} l={l} trial {trial}: {t.queries} > {cap_known}"
                        )
                    runs += 2
    elapsed = time.perf_counter() - t0
    _report(6, "robust learners under random lies", failures,
            f"{runs} runs over n <= 8, k <= 4, l <= 3, all correct and capped, {elapsed:.0f}s")


def test_07_randomized_insertion_expectation():
    t0 = time.perf_counter()
    failures: list[str] = []
    cells = 0
    for n in range(1, 9):
        for sizes in compositions(n):
            for known_k in (False, True):
                want = set_partition_mean(sizes, known_k)
                got = exact_expected_queries(sizes, known_k)
                if got != want:
                    failures.append(f"sizes {sizes} known_k={known_k}: {got}, sweeps {want}")
            cells += 1
            want = expected_queries(sizes)
            k = len(sizes)
            for l in (1, 2, 3):
                if (l + 1) * want + l > expected_queries_robust_worst_case(n, k, l):
                    failures.append(f"sizes {sizes} l={l}: robust expectation over its ceiling")
    mean, stderr = monte_carlo_expected(
        ExperimentConfig(
            learner="randomized", n=12, sizes=(4, 4, 4), trials=100_000, seed="acceptance-7"
        )
    )
    want = float(expected_queries((4, 4, 4)))
    if abs(mean - want) > 3 * stderr + 1e-9:
        failures.append(f"n=12 mean {mean} is over 3 stderr from {want}")
    for l in (1, 2):
        mean, stderr = monte_carlo_expected(
            ExperimentConfig(
                learner="randomized",
                n=12,
                sizes=(4, 4, 4),
                l=l,
                oracle="liar",
                p=0.3,
                trials=10_000,
                seed=f"acceptance-7-robust/{l}",
                robustified=True,
            )
        )
        ceiling = float(expected_queries_robust_worst_case(12, 3, l))
        if mean > ceiling + 3 * stderr + 1e-9:
            failures.append(f"robust mean {mean} at l={l} exceeds ceiling {ceiling}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, cap is 2min")
    _report(7, "randomized insertion expectation", failures,
            f"{cells} compositions exact with k known and unknown, "
            f"n=12 sampling within 3 stderr, {elapsed:.0f}s")


def _repetition_overhead(failures: list[str], transcript, l: int, where: str) -> None:
    """Check queries <= (l + 1) * base + l, base being distinct pairs asked."""
    distinct = len({(u, v) for u, v, _, _ in transcript.records})
    episodes = 0
    previous = None
    for u, v, _, _ in transcript.records:
        if (u, v) != previous:
            episodes += 1
            previous = (u, v)
    if episodes != distinct:
        failures.append(f"{where}: a pair was revisited, episode count is ambiguous")
        return
    bound = (l + 1) * distinct + l
    if transcript.queries > bound:
        failures.append(f"{where}: {transcript.queries} queries over cap {bound}")


def test_08_repetition_overhead_is_capped():
    failures: list[str] = []
    runs = 0
    for n in range(2, 8):
        for k in range(2, n + 1):
            for l in range(4):
                robust = robustify(lambda o: insertion_cluster(n, o, k), l)
                adversary = AdversarialOracle(n, k, l)
                t = robust(adversary)
                runs += 1
                where = f"adversary n={n} k={k} l={l}"
                if not adversary.is_terminal() or t.result != adversary.unique_witness():
                    failures.append(f"{where}: game left unresolved")
                _repetition_overhead(failures, t, l, where)
                if n <= 4:
                    hiddens = list(enumerate_k_partitions(n, k))
                else:
                    hiddens = [
                        random_k_partition(n, k, random.Random(f"rep/{n}/{k}/{l}/{i}"))
                        for i in range(3)
                    ]
                for i, hidden in enumerate(hiddens):
                    stem = f"rep/{n}/{k}/{l}/{i}"
                    sources = [
                        TruthfulOracle(hidden),
                        RandomLiarOracle(hidden, l, 1.0, seed=f"{stem}/eager"),
                        RandomLiarOracle(hidden, l, 0.5, seed=f"{stem}/half-a"),
                        RandomLiarOracle(hidden, l, 0.5, seed=f"{stem}/half-b"),
                    ]
                    for oracle in sources:
                        t = robust(oracle)
                        runs += 1
                        where = f"{oracle.kind} n={n} k={k} l={l} hidden {i}"
                        if t.result != hidden:
                            failures.append(f"{where}: wrong partition")
                        _repetition_overhead(failures, t, l, where)
    _report(8, "repetition overhead cap", failures,
            f"{runs} runs over n <= 7, l <= 3 vs truthful, liar, and adversary sources")


def test_09_repeated_plans_survive_every_lie_placement():
    failures: list[str] = []
    decodes = 0
    for n in range(2, 6):
        for k in [None] + list(range(2, n)):
            plan = robust_plan(build_plan(n, k), 1)
            if not plan_decodable(plan, 1):
                failures.append(f"n={n} k={k}: repeated plan below the distance it needs")
                continue
            hiddens = enumerate_partitions(n) if k is None else enumerate_k_partitions(n, k)
            for hidden in hiddens:
                clean = truthful_answers(plan, hidden)
                for flip in range(-1, len(clean)):
                    answers = list(clean)
                    if flip >= 0:
                        u, v, a = answers[flip]
                        answers[flip] = (u, v, -a)
                    got = majority_decode(plan, answers, 1)
                    decodes += 1
                    if got != hidden:
                        failures.append(f"n={n} k={k} flip {flip}: {hidden.clusters} lost")
    _report(9, "repeated plans under single lies", failures,
            f"{decodes} decodes over every plan, partition, and flip at n <= 5")


def test_10_unique_coloring_agreement_and_edge_floor():
    t0 = time.perf_counter()
    failures: list[str] = []
    checked = 0
    for n in range(1, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        index = {p: i for i, p in enumerate(pairs)}
        profile = []
        for p in enumerate_partitions(n):
            mask = 0
            for cluster in p.clusters:
                for u, v in itertools.combinations(sorted(cluster), 2):
                    mask |= 1 << index[(u, v)]
            profile.append((mask, p.k))
        singletons = [tuple(range(n))]
        for gmask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if gmask >> i & 1]
            adj = adjacency(n, edges)
            if _surjective_class_partitions(adj, n, 2) != singletons:
                failures.append(f"n={n} graph {gmask}: k=n did not yield the singletons")
            counts = [0] * (n + 1)
            for pmask, size in profile:
                if pmask & gmask == 0:
                    counts[size] += 1
            proper_up_to_k = 0
            for k in range(1, n):
                proper_up_to_k += counts[k]
                unique_here = len(_surjective_class_partitions(adj, k, 2)) == 1
                classical = proper_up_to_k == 1
                checked += 1
                if unique_here != classical:
                    failures.append(
                        f"n={n} k={k} graph {gmask}: surjective {unique_here}, classical {classical}"
                    )
                # A uniquely k-colorable graph has at least n(k-1) - C(k,2) edges.
                elif unique_here and len(edges) < n * (k - 1) - comb(k, 2):
                    failures.append(f"n={n} k={k} graph {gmask}: below the edge floor")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s, cap is 5min")
    _report(10, "unique coloring agreement", failures,
            f"{checked} graph cells over n <= 6 agree and meet the edge floor, {elapsed:.0f}s")


def test_11_closed_form_evaluators():
    failures: list[str] = []
    for n in range(3, 9):
        for k in range(2, n):
            if build_bounds_report(n, k, 0)["entropy_floor_known"] != log2(stirling2(n, k)):
                failures.append(f"n={n} k={k}: the reported floor is not log2 of the count")
    if hamming_ball_volume(2, 4) != 11:
        failures.append(f"ball volume (2, 4) came out {hamming_ball_volume(2, 4)}")
    _report(11, "closed-form evaluators", failures,
            "log2 S(n, k) floor for 2 <= k < n <= 8, ball volume")
