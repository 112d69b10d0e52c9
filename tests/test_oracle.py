from __future__ import annotations

import random
from itertools import combinations

import pytest

from geodetic.graph import (
    DisconnectedError,
    Graph,
    interval_closure,
    is_geodetic,
)
from geodetic.oracle import (
    BUDGET_EXHAUSTED,
    OPTIMAL,
    min_geodetic_brute,
    pair_interval_masks,
)
from tests.conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    reference_bfs,
    reference_interval,
    star_graph,
)


def naive_minimum(g: Graph) -> int:
    """Size-ascending enumeration using only set-based closure."""
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if len(interval_closure(g, combo)) == g.n:
                return size
    raise AssertionError


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    possible = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    extra = rng.randrange(0, min(4, len(possible)) + 1) if possible else 0
    edges.update(rng.sample(possible, k=extra))
    return Graph(n, sorted(edges))


def test_pair_interval_masks_match_closure():
    # C6, then seeded random graphs on 1-13 vertices, most of them
    # disconnected, with every vertex or a random subset
    draws = random.Random(2026)
    graphs = [(cycle_graph(6), range(6))]
    for _ in range(300):
        n = draws.randint(1, 13)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draws.sample(possible, k=draws.randint(0, min(len(possible), n + 3)))
        graphs.append((Graph(n, edges), draws.sample(range(n), k=draws.randint(1, n))))
    split = 0
    for g, vertices in graphs:
        vs = sorted(vertices)
        rows = {v: reference_bfs(g, v) for v in vs}
        want = {}
        for i, u in enumerate(vs):
            for v in vs[i:]:
                expected = reference_interval(rows, u, v)
                if expected:
                    want[(u, v)] = sum(1 << w for w in expected)
                    assert interval_closure(g, [u, v]) == expected
                else:
                    split += 1  # different components: no entry
        assert pair_interval_masks(g, vertices) == want
    assert split > 1000


def test_known_optima():
    assert min_geodetic_brute(path_graph(2)).size == 2
    assert min_geodetic_brute(path_graph(9)).size == 2
    assert min_geodetic_brute(cycle_graph(4)).size == 2
    assert min_geodetic_brute(cycle_graph(5)).size == 3
    assert min_geodetic_brute(cycle_graph(6)).size == 2
    assert min_geodetic_brute(cycle_graph(7)).size == 3
    assert min_geodetic_brute(complete_graph(4)).size == 4
    assert min_geodetic_brute(complete_graph(6)).size == 6
    assert min_geodetic_brute(star_graph(5)).size == 5
    assert min_geodetic_brute(Graph(1, [])).size == 1


def test_witness_is_geodetic_and_minimal():
    g = cycle_graph(7)
    result = min_geodetic_brute(g)
    assert result.status == OPTIMAL
    assert result.witness is not None
    assert is_geodetic(g, result.witness)
    assert naive_minimum(g) == result.size


def test_witness_contains_all_leaves():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6), (0, 3)])
    result = min_geodetic_brute(g)
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    assert set(leaves) <= set(result.witness)


def test_tree_optimum_is_leaf_count(rng: random.Random):
    for _ in range(30):
        n = rng.randrange(2, 12)
        g = Graph(n, sorted((rng.randrange(i), i) for i in range(1, n)))
        leaves = [v for v in range(g.n) if g.degree(v) == 1]
        result = min_geodetic_brute(g)
        assert result.size == len(leaves)
        assert result.witness == tuple(sorted(leaves))


def test_matches_naive_enumeration(rng: random.Random):
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        assert min_geodetic_brute(g).size == naive_minimum(g)


def test_node_budget():
    g = complete_graph(6)
    result = min_geodetic_brute(g, node_budget=3)
    assert result.status == BUDGET_EXHAUSTED
    assert result.size is None and result.witness is None
    assert result.tested == 3
    assert min_geodetic_brute(g, node_budget=10**6).status == OPTIMAL


def test_requires_connected():
    with pytest.raises(DisconnectedError):
        min_geodetic_brute(Graph(4, [(0, 1), (2, 3)]))


def test_deterministic_witness():
    g = cycle_graph(8)
    a = min_geodetic_brute(g)
    b = min_geodetic_brute(g)
    assert a == b
    assert a.witness == (0, 4)  # first antipodal pair in lexicographic order
