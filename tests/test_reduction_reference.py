"""The worklist reduction driver against the scanning driver it replaced.

The reference below is the earlier ``reduce_to_fixpoint`` with its rules
and decomposition, kept verbatim but for the vertices each trace entry
records to undo it: every round it rescans all labels in sorted order for
collapse and twin, and it recomputes the feedback edge number.  It runs on
:class:`SortingGraph`, which restores the sorting accessors, the
``distance`` query and the component count it was written against.  ``geodetic.reduction.reduce_to_fixpoint`` must give the same
trace, kernel, optimum drop and decomposition.  The earlier cycle walk of
``solve_fen1_optimum`` is kept verbatim too, and
``geodetic.reduction._cycle_order`` must give its order on fen-1 fixpoints.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from math import inf

from geodetic.generators import cycle_with_leaves, random_fen_graph
from geodetic.graph import DisconnectedError, Graph, GraphError
from geodetic.reduction import (
    FeedbackEdgeDecomposition,
    FenTooSmallError,
    MutableGraph,
    PathRecord,
    ReductionResult,
    TraceEntry,
    _cycle_order,
    reduce_to_fixpoint,
)


class SortingGraph(MutableGraph):
    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(super().neighbors(v)))

    def leaf_of(self, v: int) -> int | None:
        for u in self.neighbors(v):
            if self.degree(u) == 1:
                return u
        return None

    def is_leafed(self, v: int) -> bool:
        return self.leaf_of(v) is not None

    def distance(self, u: int, v: int) -> int | float:
        return self.bfs(u).get(v, inf)

    def component_count(self) -> int:
        seen: set[int] = set()
        comps = 0
        for s in self._adj:
            if s in seen:
                continue
            comps += 1
            seen.add(s)
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
        return comps

    def feedback_edge_number(self) -> int:
        return self.m - self.n + self.component_count()


def two_core(work: MutableGraph) -> set[int]:
    deg = {v: work.degree(v) for v in work.labels()}
    queue = deque(v for v, d in deg.items() if d <= 1)
    dead: set[int] = set()
    while queue:
        v = queue.popleft()
        if v in dead:
            continue
        dead.add(v)
        for u in work.neighbors(v):
            if u not in dead:
                deg[u] -= 1
                if deg[u] <= 1:
                    queue.append(u)
    return {v for v in work.labels() if v not in dead}


def build_feg(work: MutableGraph) -> FeedbackEdgeDecomposition:
    core = two_core(work)
    core_deg = {v: sum(1 for u in work.neighbors(v) if u in core) for v in core}
    branch = sorted(v for v in core if core_deg[v] >= 3)
    if not branch:
        raise FenTooSmallError("no branch vertex in the core")
    used: set[frozenset[int]] = set()
    paths: list[PathRecord] = []
    for b in branch:
        for start in work.neighbors(b):
            if start not in core or frozenset((b, start)) in used:
                continue
            verts = [b, start]
            used.add(frozenset((b, start)))
            prev, cur = b, start
            while core_deg[cur] == 2:
                nxt = next(
                    u for u in work.neighbors(cur) if u in core and u != prev
                )
                used.add(frozenset((cur, nxt)))
                verts.append(nxt)
                prev, cur = cur, nxt
            leafed = tuple(
                j for j, v in enumerate(verts) if work.is_leafed(v)
            )
            paths.append(PathRecord(len(paths), tuple(verts), leafed))
    assert all(
        frozenset((u, v)) in used
        for u in core
        for v in work.neighbors(u)
        if v in core and u < v
    )
    return FeedbackEdgeDecomposition(tuple(branch), tuple(paths))


def apply_collapse(work: MutableGraph, trace: list[TraceEntry]) -> bool:
    for u in work.labels():
        if work.degree(u) != 1:
            continue
        (v,) = work.neighbors(u)
        if work.degree(v) == 2:
            work.remove_vertex(u)
            trace.append(TraceEntry("collapse", 0, (u,), (), (v,), (u,)))
            return True
    return False


def apply_twin(work: MutableGraph, trace: list[TraceEntry]) -> bool:
    for v in work.labels():
        leaves = [u for u in work.neighbors(v) if work.degree(u) == 1]
        if len(leaves) >= 2:
            gone = leaves[1]
            work.remove_vertex(gone)
            trace.append(TraceEntry("twin", 1, (gone,), (), (), (gone,)))
            return True
    return False


def apply_shortcut(
    work: MutableGraph, fed: FeedbackEdgeDecomposition, trace: list[TraceEntry]
) -> bool:
    for path in fed.paths:
        for l, l2 in zip(path.leaf_positions, path.leaf_positions[1:]):
            a, b = path.vertices[l], path.vertices[l2]
            if work.distance(a, b) < l2 - l:
                mid = path.vertices[(l + l2) // 2]
                leaf = work.attach_leaf(mid)
                trace.append(TraceEntry("shortcut", 0, (), (leaf,), (leaf,), (mid,)))
                return True
    return False


def apply_margin(
    work: MutableGraph, fed: FeedbackEdgeDecomposition, trace: list[TraceEntry]
) -> bool:
    for path in fed.paths:
        if not path.leaf_positions:
            continue
        h = path.h
        d = 0 if path.is_loop else int(work.distance(path.left, path.right))
        if 2 * path.l_left - h > d:
            pos = path.l_left - (h + d) // 2
        elif h - 2 * path.l_right > d:
            pos = path.l_right + (h + d) // 2
        else:
            continue
        support = path.vertices[pos]
        leaf = work.attach_leaf(support)
        trace.append(TraceEntry("margin", 0, (), (leaf,), (leaf,), (support,)))
        return True
    return False


def apply_loop_prune(
    work: MutableGraph, fed: FeedbackEdgeDecomposition, trace: list[TraceEntry]
) -> bool:
    for path in fed.paths:
        if not path.is_loop:
            continue
        v = path.left
        h = path.h
        inner = list(path.vertices[1:-1])
        inner_leaves = {
            pos: work.leaf_of(path.vertices[pos])
            for pos in range(1, h)
            if work.is_leafed(path.vertices[pos])
        }
        had_leaf = work.is_leafed(v)
        t = len(inner_leaves) + (1 if had_leaf else 0)
        removed = []
        for pos in range(1, h):
            leaf = inner_leaves.get(pos)
            if leaf is not None:
                work.remove_vertex(leaf)
                removed.append(leaf)
            work.remove_vertex(path.vertices[pos])
            removed.append(path.vertices[pos])
        new_leaf = None if had_leaf else work.attach_leaf(v)
        dk = (h % 2) if t == 0 else t - 1
        added = () if new_leaf is None else (new_leaf,)
        if t:
            lift_in = tuple(inner_leaves.values())
        elif h % 2 == 0:
            lift_in = (inner[h // 2 - 1],)
        else:
            lift_in = (inner[(h - 1) // 2 - 1], inner[(h + 1) // 2 - 1])
        trace.append(
            TraceEntry("loop-prune", dk, tuple(removed), added, added, lift_in)
        )
        return True
    return False


def reference_reduce(g: Graph) -> ReductionResult:
    if g.n == 0:
        raise GraphError("cannot reduce the empty graph")
    work = SortingGraph.from_graph(g)
    if work.component_count() != 1:
        raise DisconnectedError("reduction requires a connected graph")
    trace: list[TraceEntry] = []
    fed: FeedbackEdgeDecomposition | None = None
    limit = 3 * g.n + 5
    for _ in range(limit):
        if apply_collapse(work, trace):
            continue
        if apply_twin(work, trace):
            continue
        if work.feedback_edge_number() < 2:
            fed = None
            break
        fed = build_feg(work)
        if apply_shortcut(work, fed, trace):
            continue
        if apply_margin(work, fed, trace):
            continue
        if apply_loop_prune(work, fed, trace):
            continue
        break
    else:  # pragma: no cover
        raise AssertionError("reduction failed to reach a fixpoint")
    k_decrease = sum(entry.dk for entry in trace)
    return ReductionResult(work, fed, k_decrease, trace)


# ---------------------------------------------------------------------------
# seeded inputs


def _graph(n: int, edges) -> Graph:
    return Graph(n, sorted({(min(u, v), max(u, v)) for u, v in edges}))


def _add_chords(n: int, edges: set, chords: int, rng: random.Random) -> None:
    while chords and n >= 3 and len(edges) < n * (n - 1) // 2:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges.add((u, v))
            chords -= 1


def tree_plus_chords(rng: random.Random) -> Graph:
    """A random tree, often stretched into long paths, with a few chords."""
    n = rng.randrange(4, 61)
    window = rng.choice((1, 3, n))
    edges = {(rng.randrange(max(0, v - window), v), v) for v in range(1, n)}
    _add_chords(n, edges, rng.randrange(0, 7), rng)
    return _graph(n, edges)


def fen_graph(rng: random.Random) -> Graph:
    n = rng.randrange(4, 61)
    return random_fen_graph(n, rng.randrange(0, min(6, n * (n - 1) // 2 - n + 1) + 1), rng)


def leafy_near_tree(rng: random.Random) -> Graph:
    """Half of the vertices are leaves hung on a chorded core tree."""
    half = rng.randrange(3, 31)
    edges = {(rng.randrange(max(0, v - 2), v), v) for v in range(1, half)}
    _add_chords(half, edges, rng.randrange(0, 7), rng)
    edges.update((rng.randrange(half), v) for v in range(half, 2 * half))
    return _graph(2 * half, edges)


def star(leaves: int) -> Graph:
    return _graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def caterpillar(rng: random.Random) -> Graph:
    """A spine with pendant leaves, closed by chords into a few cycles."""
    spine = rng.randrange(3, 25)
    edges = {(v - 1, v) for v in range(1, spine)}
    n = spine
    for s in range(spine):
        for _ in range(rng.randrange(0, 3)):
            edges.add((s, n))
            n += 1
    _add_chords(spine, edges, rng.randrange(0, 4), rng)
    return _graph(n, edges)


def pendant_paths(rng: random.Random) -> Graph:
    """A cycle or theta core with long paths hanging off it."""
    core = rng.randrange(3, 12)
    edges = {(v, (v + 1) % core) for v in range(core)}
    if rng.random() < 0.6 and core >= 4:
        edges.add((0, core // 2))
    n = core
    for _ in range(rng.randrange(1, 4)):
        prev = rng.randrange(n)
        for _ in range(rng.randrange(1, 20)):
            edges.add((prev, n))
            prev, n = n, n + 1
    return _graph(n, edges)


FAMILIES = (tree_plus_chords, fen_graph, leafy_near_tree, caterpillar, pendant_paths)


def seeded_graphs():
    rng = random.Random(20261018)
    for i in range(2500):
        yield FAMILIES[i % len(FAMILIES)](rng)
    for leaves in (1, 2, 3, 7, 40, 300):
        yield star(leaves)
    yield _graph(1, [])
    yield _graph(2, [(0, 1)])
    yield _graph(600, [(v - 1, v) for v in range(1, 600)])


def test_worklist_driver_matches_scanning_reference():
    fired: Counter[str] = Counter()
    graphs = after_prune = 0
    for g in seeded_graphs():
        want = reference_reduce(g)
        got = reduce_to_fixpoint(g)
        assert got.trace == want.trace
        assert got.graph.to_graph() == want.graph.to_graph()
        assert got.k_decrease == want.k_decrease
        assert got.decomposition == want.decomposition
        fired.update(entry.rule for entry in got.trace)
        after_prune += sum(
            before.rule == "loop-prune" and entry.rule in ("collapse", "twin")
            for before, entry in zip(got.trace, got.trace[1:])
        )
        graphs += 1
    assert graphs >= 1000
    rules = ("collapse", "twin", "shortcut", "margin", "loop-prune")
    assert all(fired[rule] >= 200 for rule in rules), fired
    # loop-prune queues what it enables, so the worklist must see these
    assert after_prune >= 100, after_prune


# ---------------------------------------------------------------------------
# the fen-1 cycle order


def reference_cycle_order(work: MutableGraph) -> list[int]:
    core = sorted(v for v in work.labels() if work.degree(v) >= 2)
    core_set = set(core)
    start = core[0]
    second = min(u for u in work.neighbors(start) if u in core_set)
    order = [start, second]
    prev, cur = start, second
    while True:
        nxt = next(u for u in work.neighbors(cur) if u in core_set and u != prev)
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    assert len(order) == len(core)
    return order


def fen1_graphs():
    rng = random.Random(20261020)
    for i in range(400):
        if i % 2:
            length = rng.randrange(3, 40)
            yield cycle_with_leaves(length, rng.randrange(0, length + 1), rng)
        else:
            yield random_fen_graph(rng.randrange(3, 120), 1, rng)


def test_cycle_order_matches_reference_on_fen1_fixpoints():
    """solve_fen1_optimum's witness follows this order, so it must not move."""
    leafed = 0
    for g in fen1_graphs():
        work = reduce_to_fixpoint(g).graph
        want = reference_cycle_order(work)
        assert _cycle_order(work) == want
        leafed += any(work.is_leafed(v) for v in want)
    assert leafed >= 100
