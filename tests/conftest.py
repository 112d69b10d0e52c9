from __future__ import annotations

import random
from collections import deque
from math import inf

import pytest

from geodetic.graph import Graph


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def cycle_graph(length: int) -> Graph:
    edges = [(i, (i + 1) % length) for i in range(length)]
    return Graph(length, [(min(u, v), max(u, v)) for u, v in edges])


def path_graph(length: int) -> Graph:
    return Graph(length, [(i, i + 1) for i in range(length - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def theta_graph(lengths: tuple[int, ...]) -> Graph:
    """Two hub vertices 0 and 1 joined by internally disjoint paths.

    ``lengths`` gives the edge count of each path; a length-1 entry is the
    direct hub edge and may appear at most once.
    """
    edges: list[tuple[int, int]] = []
    nxt = 2
    for h in lengths:
        prev = 0
        for _ in range(h - 1):
            edges.append((min(prev, nxt), max(prev, nxt)))
            prev = nxt
            nxt += 1
        edges.append((min(prev, 1), max(prev, 1)))
    return Graph(nxt, edges)


def reference_bfs(g: Graph, source: int) -> list[int | float]:
    """Reference: hop distances from ``source``, ``inf`` where unreachable,
    from a queue-based search that shares no code with ``geodetic.graph``."""
    dist: list[int | float] = [inf] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] == inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reference_interval(rows, u: int, v: int) -> frozenset[int]:
    """Reference: all vertices on at least one shortest u-v path, u and v
    included, from the :func:`reference_bfs` rows ``rows[u]`` and
    ``rows[v]``; empty when u and v lie in different components."""
    du, dv = rows[u], rows[v]
    if du[v] == inf:
        return frozenset()
    return frozenset(w for w in range(len(du)) if du[w] + dv[w] == du[v])
