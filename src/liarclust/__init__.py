"""Learning a hidden clustering through same-cluster queries that may lie.

The library models a questioner who may ask "are u and v in the same
cluster?" of a source that answers +1 or -1 and may give up to l wrong
answers.  It provides partitions and their counts, learners (adaptive
insertion variants and nonadaptive query plans with one decoder), answer
sources (truthful, random liar, and a game-playing adversary), exact game
values by minimax search, closed-form bounds, and a simulation harness with
a CLI.
"""

from .bounds import (
    adaptive_lower_bound,
    adaptive_lower_bound_ceil,
    build_bounds_report,
    expected_queries,
    expected_queries_robust_worst_case,
    expected_queries_worst_case,
    hamming_ball_volume,
    upper_bound_known,
    upper_bound_unknown,
    volume_bound,
)
from .game import GameValueResult, SearchBudgetExceededError, exact_game_value
from .harness import (
    ExperimentConfig,
    LEARNERS,
    QueryBudgetExceededError,
    RunOutcome,
    SimulationResult,
    audit_rows,
    exact_expected_queries,
    monte_carlo_expected,
    run_game,
    simulate,
)
from .learners.adaptive import (
    Transcript,
    insertion_cluster,
    parallel_insertion,
    randomized_insertion,
    robust_insertion,
    robustify,
)
from .learners.plans import (
    AmbiguousAnswersError,
    DecodeError,
    InfeasibleAnswersError,
    QueryPlan,
    build_plan,
    decode_plan,
    majority_decode,
    plan_decodable,
    robust_plan,
    truthful_answers,
)
from .limits import ExhaustionLimitError
from .oracles import AdversarialOracle, RandomLiarOracle, TruthfulOracle
from .partitions import (
    Partition,
    bell,
    enumerate_k_partitions,
    enumerate_partitions,
    random_k_partition,
    stirling2,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarialOracle",
    "AmbiguousAnswersError",
    "DecodeError",
    "ExhaustionLimitError",
    "ExperimentConfig",
    "GameValueResult",
    "InfeasibleAnswersError",
    "LEARNERS",
    "Partition",
    "QueryBudgetExceededError",
    "QueryPlan",
    "RandomLiarOracle",
    "RunOutcome",
    "SearchBudgetExceededError",
    "SimulationResult",
    "Transcript",
    "TruthfulOracle",
    "adaptive_lower_bound",
    "adaptive_lower_bound_ceil",
    "audit_rows",
    "bell",
    "build_bounds_report",
    "build_plan",
    "decode_plan",
    "enumerate_k_partitions",
    "enumerate_partitions",
    "exact_expected_queries",
    "exact_game_value",
    "expected_queries",
    "expected_queries_robust_worst_case",
    "expected_queries_worst_case",
    "hamming_ball_volume",
    "insertion_cluster",
    "majority_decode",
    "monte_carlo_expected",
    "parallel_insertion",
    "plan_decodable",
    "randomized_insertion",
    "random_k_partition",
    "robust_insertion",
    "robust_plan",
    "robustify",
    "run_game",
    "simulate",
    "stirling2",
    "truthful_answers",
    "upper_bound_known",
    "upper_bound_unknown",
    "volume_bound",
]
