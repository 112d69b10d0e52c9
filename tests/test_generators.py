"""Tests for the random instance generators."""

import random

import pytest

from geodetic.generators import cycle_with_leaves, random_fen_graph
from geodetic.graph import Graph, GraphError, feedback_edge_number, is_connected


def quadratic_random_fen_graph(n: int, fen: int, rng: random.Random) -> Graph:
    """Reference: lists the whole complement and samples from the list."""
    if n < 1:
        raise GraphError("need at least one vertex")
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    complement = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    if fen > len(complement):
        raise GraphError(f"cannot add {fen} extra edges to a tree on {n} vertices")
    edges.update(rng.sample(complement, k=fen))
    return Graph(n, sorted(edges))


def outcome(make, n: int, fen: int, seed: int):
    try:
        return make(n, fen, random.Random(seed))
    except GraphError as exc:
        return str(exc)


def test_random_fen_graph_matches_quadratic_reference():
    draws = random.Random(20201)
    cases = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 3), (2, 1, 3), (3, 1, 5), (3, 2, 5),
             (14, 7, 147), (24, 9, 0), (22, 9, 39), (800, 4, 1)]
    for _ in range(400):
        n = draws.randint(1, 30)
        room = n * (n - 1) // 2 - (n - 1)
        cases.append((n, draws.randint(0, room + 1), draws.randrange(10**6)))
    errors = 0
    for n, fen, seed in cases:
        got = outcome(random_fen_graph, n, fen, seed)
        assert got == outcome(quadratic_random_fen_graph, n, fen, seed), (n, fen, seed)
        if isinstance(got, str):
            errors += 1
        else:
            assert is_connected(got) and feedback_edge_number(got) == fen
    assert errors > 0  # the "cannot add" path was compared too


@pytest.mark.parametrize(
    "make, args",
    [(random_fen_graph, (10, -1)), (cycle_with_leaves, (6, -1))],
)
def test_negative_counts_raise_before_drawing(make, args):
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(GraphError, match="non-negative"):
        make(*args, rng)
    assert rng.getstate() == state
