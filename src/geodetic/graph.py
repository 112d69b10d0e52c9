"""Undirected simple graphs with shortest-path intervals.

Vertices are the integers 0..n-1.  Distances are hop counts.  Unreachable
pairs are reported with the float sentinel ``INF`` rather than a large
integer, so that disconnectedness can never masquerade as a finite distance
in downstream arithmetic.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Iterable, Iterator

INF = inf


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
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
            lists[u].append(v)
            lists[v].append(u)
        self.m = len(seen)
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nb)) for nb in lists
        )

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


def bfs_distances(g: Graph, source: int) -> list[int | float]:
    """Hop distances from ``source`` to every vertex; INF if unreachable."""
    if not 0 <= source < g.n:
        raise GraphError(f"source {source} out of range")
    dist: list[int | float] = [INF] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in g.adj[u]:
            if dist[v] is INF:
                dist[v] = du
                queue.append(v)
    return dist


class DistanceOracle:
    """Memoized per-source BFS rows for one graph, computed lazily."""

    def __init__(self, g: Graph):
        self.g = g
        self._rows: dict[int, tuple[int | float, ...]] = {}

    def row(self, source: int) -> tuple[int | float, ...]:
        row = self._rows.get(source)
        if row is None:
            row = self._rows[source] = tuple(bfs_distances(self.g, source))
        return row

    def distance(self, u: int, v: int) -> int | float:
        return self.row(u)[v]


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
    if g.n == 0:
        return True
    return len(connected_components(g)) == 1


def feedback_edge_number(g: Graph) -> int:
    """Edges minus vertices plus number of components (0 exactly for forests)."""
    return g.m - g.n + len(connected_components(g))


def interval(g: Graph, dist: DistanceOracle, u: int, v: int) -> frozenset[int]:
    """All vertices on at least one shortest u-v path (u and v included)."""
    du = dist.row(u)
    dv = dist.row(v)
    duv = du[v]
    if duv is INF:
        raise DisconnectedError(f"vertices {u} and {v} are in different components")
    return frozenset(w for w in range(g.n) if du[w] + dv[w] == duv)


def interval_closure(g: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """Union of intervals over all vertex pairs drawn from ``vertices``.

    Pairs in different components contribute nothing.  One BFS per source u
    gives the distances and the visiting order; sweeping that order
    backwards from the members marks every vertex on a shortest path from u
    to some member, since a marked vertex passes its mark to each neighbour
    one step closer to u.  Cost O(|S|·m) time and O(n) memory per source.
    Coverage only grows, so the sweeps stop once no vertex is left
    uncovered.
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
    for u in vs:
        if uncovered == 0:
            break
        dist = [-1] * g.n
        dist[u] = 0
        order = [u]
        for w in order:
            dw = dist[w] + 1
            for x in adj[w]:
                if dist[x] < 0:
                    dist[x] = dw
                    order.append(x)
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
    rejection still sweeps them all.
    """
    if not is_connected(g):
        raise DisconnectedError("geodetic test requires a connected graph")
    return len(interval_closure(g, vertices)) == g.n


def diameter(g: Graph) -> int:
    """Largest pairwise distance; error on empty or disconnected graphs."""
    if g.n == 0:
        raise GraphError("diameter of the empty graph is undefined")
    if g.n <= 1024:
        best = 0
        for s in range(g.n):
            row = bfs_distances(g, s)
            ecc = max(row)
            if ecc is INF:
                raise DisconnectedError("diameter requires a connected graph")
            best = max(best, ecc)
        return int(best)
    return _diameter_large(g)


def _diameter_large(g: Graph) -> int:
    # Batched C-level BFS keeps dense all-pairs sweeps off the Python heap.
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    indptr = np.zeros(g.n + 1, dtype=np.int64)
    for v in range(g.n):
        indptr[v + 1] = indptr[v] + len(g.adj[v])
    indices = np.concatenate([np.asarray(nb, dtype=np.int64) for nb in g.adj])
    data = np.ones(len(indices), dtype=np.int8)
    mat = csr_matrix((data, indices, indptr), shape=(g.n, g.n))
    best = 0.0
    batch = 256
    for start in range(0, g.n, batch):
        idx = np.arange(start, min(start + batch, g.n))
        rows = dijkstra(mat, directed=False, unweighted=True, indices=idx)
        if np.isinf(rows).any():
            raise DisconnectedError("diameter requires a connected graph")
        best = max(best, float(rows.max()))
    return int(best)


def parse_graph(text: str) -> Graph:
    """Parse the plain text format: ``n m`` header then ``u v`` edge lines.

    Vertex ids are 0-based with u < v; lines starting with ``#`` are comments.
    """
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
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise GraphFormatError(str(exc)) from exc


def format_graph(g: Graph) -> str:
    """Emit the plain text format; inverse of :func:`parse_graph`."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"
