"""The plan decoder's coloring search and pair inseparability, cross-checked by brute force."""

from __future__ import annotations

from itertools import combinations, product

from liarclust.learners.plans import _surjective_class_partitions
from liarclust.partitions import Partition
from references import adjacency, k_inseparable


def colorings(n, edges, k, limit):
    return _surjective_class_partitions(adjacency(n, edges), k, limit)


def brute_surjective_class_partitions(n, edges, k: int) -> set[Partition]:
    """Independent oracle: scan all k^n color maps."""
    found = set()
    for colors in product(range(k), repeat=n):
        if any(colors[u] == colors[v] for u, v in edges):
            continue
        if len(set(colors)) != k:
            continue
        found.add(Partition.from_labels(colors))
    return found


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield [p for i, p in enumerate(pairs) if bits >> i & 1]


def test_existence_and_uniqueness_match_brute_force():
    for n in range(1, 5):
        for edges in all_graphs(n):
            for k in range(1, n + 1):
                want = brute_surjective_class_partitions(n, edges, k)
                assert bool(colorings(n, edges, k, 1)) == bool(want)
                assert len(colorings(n, edges, k, 2)) == min(len(want), 2)
                # Without a limit every class partition comes out exactly once.
                every = colorings(n, edges, k, len(want) + 1)
                assert len(every) == len(want)
                assert {Partition.from_labels(t) for t in every} == want


def test_hand_examples():
    two_star = [(0, 1), (0, 2)]
    assert colorings(3, two_star, 2, 1)
    # Path 0-1-2 has the single surjective 2-coloring {{0,2},{1}}.
    path = [(0, 1), (1, 2)]
    assert colorings(3, path, 2, 2) == [(0, 1, 0)]
    # Empty graph on 3 vertices: several 2-colorings.
    assert len(colorings(3, [], 2, 2)) == 2
    # Triangle needs all 3 colors, one way.
    tri = [(0, 1), (0, 2), (1, 2)]
    assert colorings(3, tri, 3, 2) == [(0, 1, 2)]
    assert colorings(3, tri, 2, 2) == []


def test_k_inseparable_examples():
    g = [(0, 1), (0, 2)]
    # Both remaining colors are forced together.
    assert k_inseparable(3, g, 2, 1, 2)
    assert not k_inseparable(3, g, 2, 0, 1)
    # Vacuous case: a triangle has no surjective 2-coloring at all.
    tri = [(0, 1), (0, 2), (1, 2)]
    assert k_inseparable(3, tri, 2, 0, 1)


def test_k_inseparable_matches_brute_force():
    for n in range(2, 5):
        for edges in all_graphs(n):
            for k in range(1, n + 1):
                found = brute_surjective_class_partitions(n, edges, k)
                for u in range(n):
                    for v in range(u + 1, n):
                        want = all(p.same_cluster(u, v) == 1 for p in found)
                        assert k_inseparable(n, edges, k, u, v) == want


def test_inseparability_is_monotone_under_added_edges():
    base = [(0, 1), (1, 2)]
    grown = base + [(2, 3)]
    for k in (2, 3):
        for u in range(4):
            for v in range(u + 1, 4):
                if k_inseparable(4, base, k, u, v):
                    assert k_inseparable(4, grown, k, u, v)


def test_k_equals_n_always_unique():
    for n in range(1, 5):
        for edges in all_graphs(n):
            assert colorings(n, edges, n, 2) == [tuple(range(n))]
