"""Closed-form query bounds and expectations, in exact arithmetic.

Worst-case bounds for adaptive learning against up to l lies, expected
query counts for the randomized insertion learner against a truthful
source, and two counting floors (log2 of the candidate count, and
Berlekamp's volume bound, which the minimax solver applies to every
position).  Everything that can be a Fraction is a Fraction; floats
appear only where a logarithm forces them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from math import comb

from .partitions import stirling2


def adaptive_lower_bound(n: int, k: int, l: int) -> Fraction:
    """Queries any learner can be forced to spend, with k promised.

    Exact rational value; only meaningful for 2 <= k < n (with k = n there
    is a single candidate partition and the game is over before it starts).
    """
    if not 2 <= k < n:
        raise ValueError(f"lower bound needs 2 <= k < n, got k={k}, n={n}")
    if l < 0:
        raise ValueError(f"lie budget must be nonnegative, got {l}")
    base = n * (k - 1) - comb(k, 2)
    surcharge = max(Fraction(l - 1, 2) * n + Fraction(k, 2), Fraction(0))
    return base + surcharge + l


def adaptive_lower_bound_ceil(n: int, k: int, l: int) -> int:
    """The lower bound rounded up: query counts are integers."""
    return math.ceil(adaptive_lower_bound(n, k, l))


def upper_bound_known(n: int, k: int, l: int) -> int:
    """Worst-case queries of the repetition learner when k is promised."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if l < 0:
        raise ValueError(f"lie budget must be nonnegative, got {l}")
    return (l + 1) * (n * (k - 1) - comb(k, 2)) + l


def upper_bound_unknown(n: int, k: int, l: int) -> int:
    """Worst-case queries without a promise, for a hidden k-clustering."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if l < 0:
        raise ValueError(f"lie budget must be nonnegative, got {l}")
    return (l + 1) * (n * k - comb(k + 1, 2)) + l


def _cluster_sizes(sizes) -> tuple[int, ...]:
    """sizes as a tuple; ValueError unless it is nonempty and every size is an int >= 1."""
    sizes = tuple(sizes)
    if not sizes or any(type(s) is not int or s < 1 for s in sizes):
        raise ValueError(f"cluster sizes must be positive integers, got {sizes}")
    return sizes


def expected_queries(sizes, known_k: bool = False) -> Fraction:
    """Expected queries of insertion over a uniform element order.

    sizes are the hidden cluster sizes; the source is truthful.  Every
    element beyond a cluster's first costs one positive query (n - k
    total); a negative query (a, b) happens exactly when some element of
    a's cluster precedes everything in b's, giving n_a * n_b / (n_a + n_b)
    expected negatives for the ordered pair.  A known k changes one thing:
    each element of the cluster that opens last, apart from its first, skips
    the comparison with it, so every order costs s_last - 1 fewer queries.
    With independent uniform arrival times and x = 1 - t, cluster c opens
    last with probability the integral over [0, 1] of
    s_c x**(s_c - 1) prod_{d != c} (1 - x**s_d) dx, which is
    sum_j a_j s_c / (s_c + j) for the integer coefficients a_j of the product.
    """
    sizes = _cluster_sizes(sizes)
    n = sum(sizes)
    k = len(sizes)
    total = Fraction(n - k)
    for i, a in enumerate(sizes):
        for j, b in enumerate(sizes):
            if i != j:
                total += Fraction(a * b, a + b)
    if known_k:
        for c, s in enumerate(sizes):
            coeffs = [1] + [0] * (n - s)  # of prod_{d != c} (1 - x**s_d), by degree
            for d, t in enumerate(sizes):
                if d != c:
                    for j in range(n - s, t - 1, -1):
                        coeffs[j] -= coeffs[j - t]
            total -= (s - 1) * sum(Fraction(a * s, s + j) for j, a in enumerate(coeffs) if a)
    return total


def expected_queries_worst_case(n: int, k: int) -> Fraction:
    """Upper bound on expected_queries over all k-clusterings of n elements.

    Attained exactly when the clusters have equal sizes.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return Fraction(n * (k + 1), 2) - k


def expected_queries_robust_worst_case(n: int, k: int, l: int) -> Fraction:
    """The expected-query ceiling once every comparison repeats l+1 times."""
    if l < 0:
        raise ValueError(f"lie budget must be nonnegative, got {l}")
    return (l + 1) * expected_queries_worst_case(n, k) + l


@cache
def hamming_ball_volume(l: int, q: int) -> int:
    """Number of binary length-q strings within Hamming distance l of a fixed one; cached."""
    if l < 0 or q < 0:
        raise ValueError(f"need l >= 0 and q >= 0, got l={l}, q={q}")
    term = total = 1
    for i in range(min(l, q)):
        term = term * (q - i) // (i + 1)  # comb(q, i + 1), exactly
        total += term
    return total


@cache
def volume_bound(hist: tuple[int, ...], l: int) -> int:
    """Berlekamp's volume bound on the queries a position still needs; cached.

    See A. Pelc, "Searching games with errors - fifty years of coping with
    liars", TCS 2002.  hist[c] live candidates have cost c <= l.  Each
    answer splits the total volume sum(hamming_ball_volume(l - c, q))
    between the two children (with q - 1 queries left), and a finished game
    has volume 1, so q queries suffice only if the volume is at most 2**q.
    Two candidates with r and r' lies left need r + r' + 1 answers, where
    the test starts: below that their two balls alone overfill the cube.
    A lone candidate needs no query; ValueError when there is no candidate.
    """
    balls = [(l - c, m) for c, m in enumerate(hist) if m]
    if not balls:
        raise ValueError(f"no candidate within the lie budget, histogram {hist}")
    (r, m), *rest = balls
    if m == 1 and not rest:
        return 0
    q = 2 * r + 1 if m > 1 else r + rest[0][0] + 1
    while sum(m * hamming_ball_volume(r, q) for r, m in balls) > 1 << q:
        q += 1
    return q


def build_bounds_report(n: int, k: int, l: int) -> dict:
    """Every closed-form number for one cell, as JSON with exact fractions; needs 2 <= k < n."""
    return {
        "n": n,
        "k": k,
        "l": l,
        "adaptive_lower": str(adaptive_lower_bound(n, k, l)),
        "adaptive_lower_ceil": adaptive_lower_bound_ceil(n, k, l),
        "adaptive_upper_known": upper_bound_known(n, k, l),
        "adaptive_upper_unknown": upper_bound_unknown(n, k, l),
        "expected_worst_case": str(expected_queries_worst_case(n, k)),
        "expected_robust_worst_case": str(expected_queries_robust_worst_case(n, k, l)),
        "entropy_floor_known": math.log2(stirling2(n, k)),
        "counting_floor": volume_bound((stirling2(n, k),), l),
    }
