"""Desk-scale guard rails.

Every exhaustive routine in this package (partition enumeration, the
minimax solver's relabel tables) is meant for instances small enough to
check by complete enumeration.  The permutation cap bounds n for
exact_game_value's relabel tables, one per permutation of the elements,
which only cells that search build: k = 1, k >= n - 1 and l = 0 ignore it.
The caps below stop an accidental n=40 from hanging a terminal; each check
reads its environment variable when it runs, so a bigger desk can raise it.
"""

from __future__ import annotations

import os

ENUM_LIMIT_ENV = "LIARCLUST_MAX_ENUM_N"
PERM_LIMIT_ENV = "LIARCLUST_MAX_PERM_N"

DEFAULT_MAX_ENUM_N = 12
DEFAULT_MAX_PERM_N = 8


class ExhaustionLimitError(ValueError):
    """Raised when an exhaustive routine is asked to exceed its configured cap."""


def _check_cap(env_name: str, default: int, n: int, what: str) -> None:
    """Refuse what for n elements above the cap, read from env_name at each call."""
    raw = os.environ.get(env_name)
    try:
        cap = default if raw is None else int(raw)
    except ValueError as exc:
        raise ExhaustionLimitError(f"{env_name} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ExhaustionLimitError(f"{env_name} must be positive, got {cap}")
    if n > cap:
        raise ExhaustionLimitError(
            f"{what} requested for n={n}, above the cap {cap} (set {env_name} to raise it)"
        )


def check_enumeration_n(n: int) -> None:
    """Refuse a full partition enumeration of n elements above the cap."""
    _check_cap(ENUM_LIMIT_ENV, DEFAULT_MAX_ENUM_N, n, "full enumeration")


def check_permutation_n(n: int) -> None:
    """Refuse exact_game_value's relabel tables, one per permutation of n elements, past the cap."""
    _check_cap(PERM_LIMIT_ENV, DEFAULT_MAX_PERM_N, n, "enumeration over the n! orders")
