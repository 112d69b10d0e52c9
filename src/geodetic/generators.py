"""Random test instance generators.

All generators take an explicit :class:`random.Random` so callers control
reproducibility; nothing here touches the global RNG state.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate

from geodetic.graph import Graph, GraphError


def random_fen_graph(n: int, fen: int, rng: random.Random) -> Graph:
    """Connected graph on n vertices with exactly ``fen`` independent cycles.

    Built as a random recursive tree plus ``fen`` extra edges drawn from the
    complement, in O(n + fen log n): the complement is never listed.  Its
    pairs (u, v), u < v, are numbered in lexicographic order, and each drawn
    number is mapped back to its pair through the size of every row u.
    """
    if n < 1:
        raise GraphError("need at least one vertex")
    if fen < 0:
        raise GraphError("extra edge count must be non-negative")
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        children[rng.randrange(i)].append(i)
    # row u holds v = u+1..n-1 except u's tree children (ascending by build)
    sizes = (n - 1 - u - len(children[u]) for u in range(n))
    starts = list(accumulate(sizes, initial=0))
    if fen > starts[-1]:
        raise GraphError(f"cannot add {fen} extra edges to a tree on {n} vertices")
    edges = [(u, v) for u in range(n) for v in children[u]]
    for index in rng.sample(range(starts[-1]), k=fen):
        u = bisect_right(starts, index) - 1
        v = u + 1 + index - starts[u]
        for child in children[u]:
            if child > v:
                break
            v += 1
        edges.append((u, v))
    return Graph(n, sorted(edges))


def cycle_with_leaves(length: int, leaves: int, rng: random.Random) -> Graph:
    """Cycle of the given length with pendant leaves on distinct positions."""
    if length < 3:
        raise GraphError("cycle length must be at least 3")
    if leaves < 0:
        raise GraphError("leaf count must be non-negative")
    if leaves > length:
        raise GraphError("at most one leaf per cycle position")
    supports = rng.sample(range(length), k=leaves)
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges = [(min(u, v), max(u, v)) for u, v in edges]
    for i, s in enumerate(supports):
        edges.append((s, length + i))
    return Graph(length + leaves, sorted(edges))
