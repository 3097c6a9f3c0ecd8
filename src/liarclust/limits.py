"""Desk-scale guard rails.

Every exhaustive routine in this package (partition enumeration, the
minimax solver's relabel tables) is meant for instances small enough to
check by complete enumeration.  The permutation cap bounds n for
exact_game_value's relabel tables, one per permutation of the elements,
which only cells that search build: k = 1, k >= n - 1 and l = 0 ignore it.
The caps below stop an accidental n=40 from hanging a terminal; they can be
raised per process through environment variables when a bigger desk is wanted.
"""

from __future__ import annotations

import os

ENUM_LIMIT_ENV = "LIARCLUST_MAX_ENUM_N"
PERM_LIMIT_ENV = "LIARCLUST_MAX_PERM_N"

DEFAULT_MAX_ENUM_N = 12
DEFAULT_MAX_PERM_N = 8


class ExhaustionLimitError(ValueError):
    """Raised when an exhaustive routine is asked to exceed its configured cap."""


def _read_limit(env_name: str, default: int) -> int:
    raw = os.environ.get(env_name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ExhaustionLimitError(f"{env_name} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ExhaustionLimitError(f"{env_name} must be positive, got {value}")
    return value


def check_enumeration_n(n: int) -> None:
    """Refuse a full partition enumeration of n elements above the cap."""
    cap = _read_limit(ENUM_LIMIT_ENV, DEFAULT_MAX_ENUM_N)
    if n > cap:
        raise ExhaustionLimitError(
            f"full enumeration requested for n={n}, above the cap {cap} "
            f"(set {ENUM_LIMIT_ENV} to raise it)"
        )


def check_permutation_n(n: int) -> None:
    """Refuse exact_game_value's relabel tables, one per permutation of n elements, past the cap."""
    cap = _read_limit(PERM_LIMIT_ENV, DEFAULT_MAX_PERM_N)
    if n > cap:
        raise ExhaustionLimitError(
            f"enumeration over the n! orders of n={n} elements requested, "
            f"above the cap {cap} "
            f"(set {PERM_LIMIT_ENV} to raise it)"
        )
