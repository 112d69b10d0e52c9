"""Undirected simple graphs with shortest-path intervals.

Vertices are the integers 0..n-1.  Distances are hop counts.  One
breadth-first search, ``_bfs_order``, serves every distance query on a
:class:`Graph`; it reports an unreachable vertex at distance -1, so a
caller tests reachability with ``d < 0`` before doing arithmetic with it.
The diameter's per-hub searches run instead on the hub graph, the 2-core
with each chain of degree-2 vertices contracted to one weighted edge.  Its
pendant-tree peel and chain walk also give :mod:`geodetic.reduction` its core.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from typing import Iterable, Iterator, Mapping, Sequence


class GraphError(ValueError):
    """Invalid graph input or query."""


class GraphFormatError(GraphError):
    """Malformed graph text."""


class DisconnectedError(GraphError):
    """The operation needs a connected graph or a connected vertex pair."""


class VerificationError(RuntimeError):
    """A computed answer failed its independent check on the graph.

    Raised in place of ``assert`` so the check also runs under ``python -O``.
    """


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector off, and restore its
    previous state (on or off) afterwards, also when the block raises.

    For blocks that build input-sized structures with no reference cycles,
    such as graph reading and the reduction: reference counting frees all
    their garbage, so the collector would only rescan live objects, and one
    collection pass after the block sees each object once.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Graph:
    """Immutable undirected simple graph.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : iterable of (int, int)
        Endpoint pairs.  Loops and duplicate edges are rejected.
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = n
        lists: list[list[int]] = [[] for _ in range(n)]
        # an edge u < v, both in range, is the one integer u·n + v
        seen: set[int] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise GraphError(f"duplicate edge {divmod(key, n)}")
            seen.add(key)
            lists[u].append(v)
            lists[v].append(u)
        self.m = len(seen)
        for nb in lists:
            nb.sort()
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, lists))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """The subgraph induced by ``vertices``, whose i-th entry becomes vertex i."""
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v]) for u, v in g.edges() if u in index and v in index
    ]
    return Graph(len(vertices), edges)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, ordered by minimum."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    """True iff one search from vertex 0 reaches every vertex (or n = 0)."""
    return g.n == 0 or len(_bfs_order(g.adj, 0)[1]) == g.n


def feedback_edge_number(g: Graph) -> int:
    """Edges minus vertices plus number of components (0 exactly for forests)."""
    return g.m - g.n + len(connected_components(g))


def _bfs_order(
    adj: Sequence[Sequence[int]], source: int
) -> tuple[list[int], list[int]]:
    """Hop distances from ``source`` (-1 if unreachable) and the visiting
    order of one breadth-first search over the adjacency lists ``adj``."""
    dist = [-1] * len(adj)
    dist[source] = 0
    order = [source]
    for w in order:
        dw = dist[w] + 1
        for x in adj[w]:
            if dist[x] < 0:
                dist[x] = dw
                order.append(x)
    return dist, order


def interval_closure(g: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """Union of intervals over all vertex pairs drawn from ``vertices``.

    Pairs in different components contribute nothing.  One BFS per source u
    gives the distances and the visiting order; sweeping that order
    backwards from the members marks every vertex on a shortest path from u
    to some member, since a marked vertex passes its mark to each neighbour
    one step closer to u.  Cost O(|S|·m) time and O(n) memory per source.
    The last source needs no sweep: each of its pairs was swept from the
    other end.  Coverage only grows, so the sweeps stop once no vertex is
    left uncovered.
    """
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
    adj = g.adj
    member = bytearray(g.n)
    for v in vs:
        member[v] = 1
    covered = bytearray(member)
    uncovered = g.n - len(vs)
    for u in vs[:-1]:
        if uncovered == 0:
            break
        dist, order = _bfs_order(adj, u)
        marked = bytearray(member)
        for w in reversed(order):
            if marked[w]:
                if not covered[w]:
                    covered[w] = 1
                    uncovered -= 1
                closer = dist[w] - 1
                for x in adj[w]:
                    if dist[x] == closer:
                        marked[x] = 1
    return frozenset(v for v in range(g.n) if covered[v])


def is_geodetic(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the pairwise intervals of ``vertices`` cover every vertex.

    The closure stops sweeping as soon as every vertex is covered, so
    accepting a geodetic set usually takes a few of its sources; a
    rejection still sweeps all but the last.
    """
    if not is_connected(g):
        raise DisconnectedError("geodetic test requires a connected graph")
    return len(interval_closure(g, vertices)) == g.n


def peel_pendant_trees(
    adj: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    vertices: Iterable[int],
) -> tuple[dict[int, int], dict[int, int], int]:
    """Peel degree-1 vertices off ``adj`` (``adj[v]`` iterates v's neighbours,
    as in :attr:`Graph.adj` or a dict of sets) down to the 2-core.  Returns
    each vertex's core degree (0 once peeled), the height of its pendant
    tree (0 without one) and the longest path inside one pendant tree, met
    as the two deepest branches at some peeled step.  Cost O(n + m)."""
    deg = {v: len(adj[v]) for v in vertices}
    height = dict.fromkeys(deg, 0)
    best = 0
    stack = [v for v, d in deg.items() if d == 1]
    while stack:
        v = stack.pop()
        if deg[v] != 1:
            continue  # the last vertex of a tree
        deg[v] = 0
        r = next(u for u in adj[v] if deg[u])
        hv = height[v] + 1
        best = max(best, height[r] + hv)
        height[r] = max(height[r], hv)
        deg[r] -= 1
        if deg[r] == 1:
            stack.append(r)
    return deg, height, best


def core_chains(
    adj: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    deg: Mapping[int, int],
    hubs: Sequence[int],
) -> list[tuple[int, ...]]:
    """Each maximal path of the 2-core between the ascending ``hubs``, once,
    as a vertex tuple; ``deg`` holds the core degrees, and each core vertex
    but a hub must have core degree 2.  Each hub's core neighbours are taken
    in ascending order, so a hub-hub edge comes from its smaller end; a path
    back to its first hub is a loop.  Cost O(core size + hub degrees)."""
    is_hub = set(hubs)
    seen: set[int] = set()
    paths: list[tuple[int, ...]] = []
    for a in hubs:
        for s in sorted(adj[a]):
            if not deg[s] or s in seen or (s in is_hub and s < a):
                continue
            path = [a, s]
            prev, cur = a, s
            while cur not in is_hub:
                seen.add(cur)
                nb = adj[cur]
                # a vertex with no pendant tree has just its two core edges
                x, y = nb if len(nb) == 2 else [u for u in nb if deg[u]]
                prev, cur = cur, y if x == prev else x
                path.append(cur)
            paths.append(tuple(path))
    return paths


def diameter(g: Graph) -> int:
    """Largest pairwise distance; error on empty or disconnected graphs.

    Exact, from shortest-path searches on the hub graph of the 2-core; on a
    tree, the longest pendant-tree path of :func:`peel_pendant_trees`.  Hubs
    are the core vertices of core degree other than 2 or with a pendant
    tree; a hub-free core is a cycle.  The rest of the core is chains of
    degree-2 vertices between hubs (:func:`core_chains`), and a point i
    steps into a chain (a, b, h) lies min(i + d(a, x), h - i + d(b, x)) from
    any x outside it.  Contracting each chain to one edge of weight h leaves
    the hub graph, and one Dijkstra search per hub on it, on a bucket queue,
    gives every hub distance.  The farthest point of a chain (a, b, h) from
    hub x lies (d(x, a) + d(x, b) + h) // 2 away, so the hub distances give
    every pair with a hub.  Two points of one chain need no case of their
    own: on the cycle of length L = h + d(a, b) that the chain closes, a
    reaches min(L // 2, h - 1) inside the chain, and no two interior points
    lie farther apart.  Two points in two chains follow from the four
    distances between the chain ends, in closed form per point of the
    shorter chain; a chain pair is skipped when an O(1) bound shows it
    cannot beat the best so far.  A search's bucket list runs up to its
    largest tentative distance, at most 3·diameter + 1.  Cost
    O(n + hubs·(hubs + chains + diameter) + chain pairs·h) time and
    O(hubs² + n) memory.
    """
    n = g.n
    if n == 0:
        raise GraphError("diameter of the empty graph is undefined")
    if not is_connected(g):
        raise DisconnectedError("diameter requires a connected graph")
    adj = g.adj
    deg, height, best = peel_pendant_trees(adj, range(n))
    if g.m == n - 1:
        return best
    hubs = [v for v in range(n) if deg[v] and (deg[v] != 2 or height[v])]
    if not hubs:
        return sum(1 for d in deg.values() if d) // 2
    hub_of = {x: i for i, x in enumerate(hubs)}
    # the hub graph: a hub-hub core edge weighs 1, and each chain of
    # non-hub core vertices, kept as (a, b, h) on hub numbers, weighs h
    chains: list[tuple[int, int, int]] = []
    links: list[list[tuple[int, int]]] = [[] for _ in hubs]
    for path in core_chains(adj, deg, hubs):
        i, j, h = hub_of[path[0]], hub_of[path[-1]], len(path) - 1
        if h > 1:
            chains.append((i, j, h))
        links[i].append((j, h))
        links[j].append((i, h))
    ends = sorted({v for a, b, _ in chains for v in (a, b)})
    slot = {v: i for i, v in enumerate(ends)}
    tall = [(i, height[y]) for i, y in enumerate(hubs) if height[y]]
    rows: dict[int, list[int]] = {}
    ecc: dict[int, int] = {}
    for i, x in enumerate(hubs):
        dist = _hub_distances(links, i)
        far = max(dist)
        if chains:
            far = max(far, max(dist[a] + dist[b] + h for a, b, h in chains) // 2)
        top = max([far] + [dist[j] + hj for j, hj in tall if j != i])
        best = max(best, height[x] + top)
        if i in slot:
            ecc[i] = far
            rows[i] = [dist[e] for e in ends]
    # two points in two chains, widest bound first
    bounded = []
    for a, b, h in chains:
        ea, eb = ecc[a], ecc[b]
        bound = min((h + ea + eb) // 2, min(ea, eb) + h - 1)
        bounded.append((bound, h, rows[a], rows[b], slot[a], slot[b]))
    bounded.sort(key=lambda c: -c[0])
    for i, (bound, h, ra, rb, _, _) in enumerate(bounded):
        if bound <= best:
            break
        for j in range(i + 1, len(bounded)):
            bound2, g2, _, _, c, e = bounded[j]
            if bound2 <= best:
                break
            ac, ae, bc, be = ra[c], ra[e], rb[c], rb[e]
            if (h + g2 + min(ac + be, ae + bc)) // 2 <= best:
                continue
            if h <= g2:
                best = max(best, _chain_pair_max(h, ac, ae, bc, be, g2))
            else:
                best = max(best, _chain_pair_max(g2, ac, bc, ae, be, h))
    return best


def _hub_distances(
    links: Sequence[Sequence[tuple[int, int]]], source: int
) -> list[int]:
    """Distances from ``source`` in a connected graph whose ``links[u]``
    holds (v, weight) pairs with weights >= 1: Dijkstra on a bucket queue,
    a list whose entry d holds the vertices reached at tentative distance
    d.  A weight of at least 1 never adds to the bucket being read."""
    dist = [-1] * len(links)
    buckets: list[list[int]] = [[source]]
    for d, bucket in enumerate(buckets):
        for u in bucket:
            if dist[u] >= 0:
                continue
            dist[u] = d
            for v, w in links[u]:
                if dist[v] < 0:
                    t = d + w
                    if t >= len(buckets):
                        buckets.extend([] for _ in range(t + 1 - len(buckets)))
                    buckets[t].append(v)
    return dist


def _chain_pair_max(h: int, ac: int, ae: int, bc: int, be: int, g: int) -> int:
    """Largest distance between the interiors of two chains (a, b, h) and
    (c, e, g), from the four distances between their ends."""
    top = 0
    for i in range(1, h):
        dl = min(i + ac, h - i + bc)
        dr = min(i + ae, h - i + be)
        top = max(top, min(dl + g - 1, dr + g - 1, (dl + dr + g) // 2))
    return top


def parse_graph(text: str) -> Graph:
    """Parse the plain text format: ``n m`` header then ``u v`` edge lines.

    Vertex ids are 0-based with u < v; lines starting with ``#`` are comments.
    Each line is split once and all ids are converted in one pass; only
    malformed text is read again, line by line, to name its first fault.
    The collector is paused throughout (see :func:`_gc_paused`).
    """
    with _gc_paused():
        rows = (r for r in map(str.split, text.splitlines()) if r and r[0][0] != "#")
        try:
            n, m = map(int, next(rows))
            edges = [(int(u), int(v)) for u, v in rows]
            ok = len(edges) == m and all(u < v for u, v in edges)
        except (StopIteration, ValueError):
            ok = False
        if not ok:
            n, edges = _parse_lines(text)
        try:
            return Graph(n, edges)
        except GraphError as exc:
            raise GraphFormatError(str(exc)) from exc


def _parse_lines(text: str) -> tuple[int, list[tuple[int, int]]]:
    """:func:`parse_graph`'s header and edges, line by line, raising
    :class:`GraphFormatError` at the first malformed line."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise GraphFormatError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"bad header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header line: {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line: {ln!r}") from exc
        if not u < v:
            raise GraphFormatError(f"edge line must satisfy u < v: {ln!r}")
        edges.append((u, v))
    return n, edges


def format_graph(g: Graph) -> str:
    """Emit the plain text format; inverse of :func:`parse_graph`."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"
