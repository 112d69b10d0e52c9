"""Seeded input generators for the benchmark workloads.

Nothing here imports ``geodetic``: every graph is built from the seed by the
benchmark's own code, in time linear in its size, and written in the
program's plain text format.  A graph is ``(n, edges)`` with ``u < v`` in
every edge.
"""

from __future__ import annotations

import random
from collections import deque

Edges = list[tuple[int, int]]


def adjacency(n: int, edges: Edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def format_graph(n: int, edges: Edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


def two_core(n: int, adj: list[list[int]]) -> list[bool]:
    """Membership in the 2-core, by peeling vertices of degree at most 1."""
    deg = [len(a) for a in adj]
    alive = [True] * n
    queue = deque(v for v in range(n) if deg[v] <= 1)
    while queue:
        v = queue.popleft()
        if not alive[v]:
            continue
        alive[v] = False
        for u in adj[v]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] <= 1:
                    queue.append(u)
    return alive


def _add_chords(n: int, edges: set, count: int, rng: random.Random,
                pool: list[int]) -> None:
    """Add ``count`` new edges between distinct vertices of ``pool``."""
    target = len(edges) + count
    while len(edges) < target:
        u, v = rng.choice(pool), rng.choice(pool)
        if u != v:
            edges.add((min(u, v), max(u, v)))


def near_tree(n: int, leaves: int, fen: int, rng: random.Random) -> Edges:
    """Connected graph with exactly ``n`` vertices, ``leaves`` degree-1
    vertices and ``fen`` independent cycles, built in linear time.

    The ``n - leaves`` inner vertices form a random recursive tree (depth
    about ln n) plus ``fen`` chords among them.  Every inner vertex that has
    no neighbour off the 2-core, and every leaf of the inner tree, receives
    one pendant leaf; the remaining leaves hang off uniformly random inner
    vertices.  Each vertex then lies on a shortest path between two leaves,
    so the leaves form a minimum geodetic set: the optimum is ``leaves``.
    """
    inner = n - leaves
    edges = {(rng.randrange(i), i) for i in range(1, inner)}
    _add_chords(inner, edges, fen, rng, list(range(inner)))
    adj = adjacency(inner, list(edges))
    core = two_core(inner, adj)
    hosts = [
        v for v in range(inner)
        if len(adj[v]) == 1 or (core[v] and all(core[u] for u in adj[v]))
    ]
    if len(hosts) > leaves:
        raise ValueError(f"{len(hosts)} forced leaf hosts exceed {leaves} leaves")
    hosts.extend(rng.randrange(inner) for _ in range(leaves - len(hosts)))
    out = sorted(edges)
    out.extend((host, inner + i) for i, host in enumerate(hosts))
    return out


def tree_plus_chords(n: int, fen: int, rng: random.Random) -> Edges:
    """Random recursive tree on ``n`` vertices plus ``fen`` random chords."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    _add_chords(n, edges, fen, rng, list(range(n)))
    return sorted(edges)


def guess_space(n: int, edges: Edges) -> int:
    """Size of the guess space the paper's enumeration ranges over: the
    number of guesses.

    Read off the input's 2-core after the structural reduction rules: a
    core vertex with a pendant tree is leafed, and a loop (a segment from a
    branch vertex back to itself) is cut off while two independent cycles
    remain, leaving a pendant leaf on its branch vertex.  Then each branch
    vertex (three or more core neighbours) that is not leafed may join the
    solution or not, and each segment without a leafed vertex takes an
    interior count of 0, 1 or 2 unless a chosen end settles it.
    """
    adj = [set(a) for a in adjacency(n, edges)]
    core = two_core(n, [list(a) for a in adj])
    leafed = [core[v] and any(not core[u] for u in adj[v]) for v in range(n)]
    alive = {v for v in range(n) if core[v]}
    cadj = {v: {u for u in adj[v] if u in alive} for v in alive}
    while True:
        if sum(len(a) for a in cadj.values()) // 2 - len(cadj) + 1 < 2:
            return 1  # closed forms take over below two independent cycles
        branch = sorted(v for v in cadj if len(cadj[v]) >= 3)
        segments = _segments(cadj, branch)
        loop = next((p for p in segments if p[0] == p[-1]), None)
        if loop is None:
            break
        b = loop[0]
        for v in loop[1:-1]:
            for u in cadj.pop(v):
                if u in cadj:
                    cadj[u].discard(v)
        leafed[b] = True
        queue = deque(v for v in cadj if len(cadj[v]) <= 1)
        while queue:
            v = queue.popleft()
            if v not in cadj:
                continue
            for u in cadj.pop(v):
                cadj[u].discard(v)
                leafed[u] = True
                if len(cadj[u]) <= 1:
                    queue.append(u)
    open_branch = [b for b in branch if not leafed[b]]
    bit = {b: i for i, b in enumerate(open_branch)}
    empty_ends = [
        (1 << bit[p[0]]) | (1 << bit[p[-1]])
        for p in segments
        if not any(leafed[v] for v in p)
    ]
    guesses = 0
    for mask in range(1 << len(open_branch)):
        guesses += 3 ** sum(1 for ends in empty_ends if not ends & mask)
    return guesses


def _segments(cadj: dict[int, set[int]], branch: list[int]) -> list[list[int]]:
    """Maximal core paths between branch vertices, each listed once."""
    used = set()
    out = []
    for b in branch:
        for start in sorted(cadj[b]):
            if (b, start) in used:
                continue
            path = [b, start]
            used.add((b, start))
            prev, cur = b, start
            while len(cadj[cur]) == 2:
                nxt = next(u for u in cadj[cur] if u != prev)
                path.append(nxt)
                prev, cur = cur, nxt
            used.add((cur, prev))
            out.append(path)
    return out
