"""Desk-scale guard rails.

Every exhaustive routine in this package (partition enumeration, exact
expectations over element orders, the minimax solver's relabel tables) is
meant for instances small enough to check by complete enumeration.  The
permutation cap bounds n, the number of elements, for every enumeration of
up to n! items: one insertion sweep per distinct cluster-label sequence, or
one relabel table per permutation of the elements.  The caps below stop an
accidental n=40 from hanging a terminal; they can be raised per process
through environment variables when a bigger desk is genuinely wanted.
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


def max_enumeration_n() -> int:
    """Largest ground-set size for which full partition enumeration is allowed."""
    return _read_limit(ENUM_LIMIT_ENV, DEFAULT_MAX_ENUM_N)


def max_permutation_n() -> int:
    """Largest n for which an enumeration of up to n! items is allowed.

    It bounds exact expectations, which run over every distinct
    cluster-label sequence of the n elements (at most n!), and the minimax
    solver, which builds one relabel table per permutation of the elements.
    """
    return _read_limit(PERM_LIMIT_ENV, DEFAULT_MAX_PERM_N)


def check_enumeration_n(n: int) -> None:
    cap = max_enumeration_n()
    if n > cap:
        raise ExhaustionLimitError(
            f"full enumeration requested for n={n}, above the cap {cap} "
            f"(set {ENUM_LIMIT_ENV} to raise it)"
        )


def check_permutation_n(n: int) -> None:
    cap = max_permutation_n()
    if n > cap:
        raise ExhaustionLimitError(
            f"enumeration over the n! orders of n={n} elements requested, "
            f"above the cap {cap} "
            f"(set {PERM_LIMIT_ENV} to raise it)"
        )
