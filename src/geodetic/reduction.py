"""Data reduction for geodetic set instances with few independent cycles.

The driver shrinks a connected graph with five rewrite rules while tracking
how much the optimum drops.  Each rule application is logged in a trace
entry that names its own inverse, the vertices a witness gives up and those
it takes, so one rule-agnostic :func:`lift_witness` lifts a witness of the
reduced instance back to the input graph.  Each rule also queues on the one
:class:`RuleWorklist` of a reduction the collapse and twin candidates its
edit creates.

Terminology used throughout:

* leaf: a degree-1 vertex; its unique neighbor is the support.
* leafed vertex: a vertex with at least one pendant leaf.
* core: the 2-core of the working graph; pendant trees are outside it.  It
  comes from :func:`geodetic.graph.peel_pendant_trees`, shared with the
  diameter, and its segments from :func:`geodetic.graph.core_chains`.
* branch vertex: a core vertex with three or more core neighbors.
* segment: a maximal core path between branch vertices; recorded with its
  full vertex sequence.  A segment whose two ends are the same branch vertex
  is a loop.

Rules fire one application at a time, highest priority first; the lift
of each is given as (gives up) -> (takes):

* collapse: leaf whose support has degree 2; drop the leaf (optimum kept).
  Lift: support -> leaf.
* twin: two leaves on one support; drop one (optimum drops by 1).  Lift:
  nothing -> the dropped leaf.
* shortcut: consecutive leafed positions on a segment whose graph distance
  beats the along-segment distance; pin the midpoint with a new leaf.
  Lift: new leaf -> its support.
* margin: the extreme leafed position of a segment sits too deep relative to
  the end-to-end distance; pin a position near the end with a new leaf.
  Lift: new leaf -> its support.
* loop-prune: a loop at a branch vertex is removed wholesale (needs at least
  two independent cycles overall).  Lift: the new leaf of a bare branch
  vertex, if any -> the loop's leaves, or on a bare loop the one or two
  vertices opposite the branch vertex.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Set
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, NamedTuple

from geodetic.graph import (
    DisconnectedError,
    Graph,
    GraphError,
    VerificationError,
    _gc_paused,
    core_chains,
    is_connected,
    is_geodetic,
    peel_pendant_trees,
)


class FenTooSmallError(GraphError):
    """The core has no branch vertex, so no segment decomposition exists."""


class MutableGraph:
    """Adjacency-set graph with stable integer labels.

    Labels of removed vertices are never reused, so trace entries stay
    unambiguous across an entire reduction run.
    """

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self._next = 0

    @classmethod
    def from_graph(cls, g: Graph) -> "MutableGraph":
        """Copy of ``g``, which has already rejected loops and duplicate edges."""
        mg = cls()
        mg._adj = {v: set(nb) for v, nb in enumerate(g.adj)}
        mg._next = g.n
        return mg

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(nb) for nb in self._adj.values()) // 2

    def labels(self) -> list[int]:
        return sorted(self._adj)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def add_vertex(self, label: int | None = None) -> int:
        if label is None:
            label = self._next
        if label in self._adj:
            raise GraphError(f"label {label} already present")
        self._adj[label] = set()
        self._next = max(self._next, label + 1)
        return label

    def remove_vertex(self, v: int) -> None:
        for u in self._adj.pop(v):
            self._adj[u].discard(v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise GraphError(f"loop at {u} not allowed")
        if v in self._adj[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> Set[int]:
        """Live neighbour set of ``v``, unordered; sort it where order matters."""
        return self._adj[v]

    def attach_leaf(self, support: int, label: int | None = None) -> int:
        leaf = self.add_vertex(label)
        self.add_edge(support, leaf)
        return leaf

    def leaf_of(self, v: int) -> int | None:
        """Smallest pendant leaf hanging off ``v``, or None."""
        return min((u for u in self._adj[v] if len(self._adj[u]) == 1), default=None)

    def is_leafed(self, v: int) -> bool:
        return any(len(self._adj[u]) == 1 for u in self._adj[v])

    def bfs(self, source: int) -> dict[int, int]:
        """Distances to all reachable labels."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for v in self._adj[u]:
                if v not in dist:
                    dist[v] = du
                    queue.append(v)
        return dist

    def to_graph(self) -> tuple[Graph, list[int]]:
        """Relabel to 0..n-1 (sorted label order); returns graph and label list."""
        labels = self.labels()
        index = {lab: i for i, lab in enumerate(labels)}
        edges = [
            (index[u], index[v])
            for u in labels
            for v in self._adj[u]
            if index[u] < index[v]
        ]
        return Graph(len(labels), edges), labels


class TraceEntry(NamedTuple):
    """One rule application; a named tuple, since collapse and twin log
    one per firing.

    ``lift_out`` and ``lift_in`` undo the application on a witness: the
    witness must hold each vertex of ``lift_out`` and loses it, and must
    not hold any vertex of ``lift_in`` and gains it."""

    rule: str
    dk: int
    removed: tuple[int, ...]
    added: tuple[int, ...]
    lift_out: tuple[int, ...]
    lift_in: tuple[int, ...]


@dataclass(frozen=True)
class PathRecord:
    """One segment of the core: vertex labels from one branch end to the other."""

    index: int
    vertices: tuple[int, ...]
    leaf_positions: tuple[int, ...]

    @property
    def h(self) -> int:
        return len(self.vertices) - 1

    @property
    def left(self) -> int:
        return self.vertices[0]

    @property
    def right(self) -> int:
        return self.vertices[-1]

    @property
    def is_loop(self) -> bool:
        return self.left == self.right

    @property
    def l_left(self) -> int:
        return self.leaf_positions[0]

    @property
    def l_right(self) -> int:
        return self.leaf_positions[-1]


@dataclass(frozen=True)
class FeedbackEdgeDecomposition:
    branch_vertices: tuple[int, ...]
    paths: tuple[PathRecord, ...]
    # branch vertex -> BFS distances from it, filled on first use
    _rows: dict[int, dict[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def distances_from(self, work: MutableGraph, b: int) -> dict[int, int]:
        """BFS distances from branch vertex ``b``, searched once.

        The driver builds a fresh decomposition after every edit, so the
        fixpoint's rows are exact and :func:`geodetic.fpt.prepare` reuses
        those the segment rules filled."""
        row = self._rows.get(b)
        if row is None:
            row = self._rows[b] = work.bfs(b)
        return row

    def end_distance(self, work: MutableGraph, path: PathRecord) -> int:
        """Graph distance between the two ends of ``path``; 0 on a loop."""
        return self.distances_from(work, path.left)[path.right]


def build_feg(work: MutableGraph) -> FeedbackEdgeDecomposition:
    """Segment decomposition of the core around its branch vertices.

    Raises :class:`FenTooSmallError` when the core has no branch vertex,
    which happens exactly when there are fewer than two independent cycles.
    """
    adj = work._adj
    deg, _, _ = peel_pendant_trees(adj, adj)
    branch = sorted(v for v, d in deg.items() if d >= 3)
    if not branch:
        raise FenTooSmallError("no branch vertex in the core")
    # only a vertex with a neighbour off the core can hold a leaf
    paths = tuple(
        PathRecord(i, verts, tuple(
            j for j, v in enumerate(verts) if len(adj[v]) > deg[v] and work.is_leafed(v)
        ))
        for i, verts in enumerate(core_chains(adj, deg, branch))
    )
    steps = [
        (u, v) if u < v else (v, u)
        for p in paths
        for u, v in zip(p.vertices, p.vertices[1:])
    ]
    if not len(set(steps)) == len(steps) == sum(deg.values()) // 2:
        raise VerificationError("the segments do not cover each core edge once")
    return FeedbackEdgeDecomposition(tuple(branch), paths)


class RuleWorklist:
    """Min-heaps of the labels where collapse or twin may apply.

    ``collapse`` holds leaves and ``twin`` supports; ``leaves[s]`` holds the
    pendant leaves of ``s``, so twin reads a support's two smallest leaves
    without sorting its neighbourhood.  A heap may hold stale labels but
    always holds every label its rule applies to: an entry is checked again
    when popped and dropped if the rule no longer applies, and after each
    edit every rule queues the few labels it can have enabled, in O(1)
    pushes.  A support that gains a leaf goes onto ``twin`` only once its
    ``leaves`` heap holds two entries, the least twin needs.  So the
    smallest applicable label comes first, as in a scan of sorted labels.
    """

    def __init__(self, work: MutableGraph) -> None:
        # ascending lists are already heaps
        self.collapse = [v for v in work.labels() if work.degree(v) == 1]
        self.leaves: dict[int, list[int]] = {}
        for u in self.collapse:
            (s,) = work.neighbors(u)
            self.leaves.setdefault(s, []).append(u)
        self.twin = sorted(s for s, heap in self.leaves.items() if len(heap) >= 2)

    def add_leaf(self, u: int, s: int) -> None:
        """Queue ``u``, now a leaf of ``s``, for collapse, and ``s`` for
        twin once it may hold two leaves."""
        heappush(self.collapse, u)
        sleaves = self.leaves.setdefault(s, [])
        heappush(sleaves, u)
        if len(sleaves) >= 2:
            heappush(self.twin, s)


def apply_collapse(
    work: MutableGraph, trace: list[TraceEntry], worklist: RuleWorklist
) -> bool:
    """Drop the smallest leaf whose support has degree 2; the support takes
    its place.

    The support becomes a leaf: it may collapse in turn, and its own support
    gains a leaf, so may now hold two for twin.
    """
    adj = work._adj
    heap = worklist.collapse
    while heap:
        u = heappop(heap)
        nb = adj.get(u)
        if nb is not None and len(nb) == 1:
            (v,) = nb
            vnb = adj[v]
            if len(vnb) == 2:
                break
    else:
        return False
    del adj[u]
    vnb.discard(u)
    (s,) = vnb
    worklist.add_leaf(v, s)
    trace.append(TraceEntry("collapse", 0, (u,), (), (v,), (u,)))
    return True


def apply_twin(
    work: MutableGraph, trace: list[TraceEntry], worklist: RuleWorklist
) -> bool:
    """At the smallest support with two pendant leaves, drop its second
    smallest leaf; optimum drops by 1.

    The support keeps one leaf.  Left with degree 1 it is a leaf itself; with
    degree 2 its leaves may collapse; with more it may still hold two leaves.
    """
    adj = work._adj
    twin, leaves = worklist.twin, worklist.leaves
    while twin:
        v = heappop(twin)
        heap = leaves.get(v, [])
        found: list[int] = []
        while heap and len(found) < 2:
            u = heappop(heap)
            nb = adj.get(u)
            if nb is not None and len(nb) == 1 and v in nb and u not in found:
                found.append(u)
        if len(found) == 2:
            break
        for u in found:
            heappush(heap, u)
    else:
        return False
    kept, gone = found
    heappush(heap, kept)
    del adj[gone]
    vnb = adj[v]
    vnb.discard(gone)
    if len(vnb) == 1:
        (s,) = vnb
        worklist.add_leaf(v, s)
    else:
        if len(heap) >= 2:
            heappush(twin, v)
        if len(vnb) == 2:
            for u in vnb:
                if len(adj[u]) == 1:
                    heappush(worklist.collapse, u)
    trace.append(TraceEntry("twin", 1, (gone,), (), (), (gone,)))
    return True


def apply_shortcut(
    work: MutableGraph,
    fed: FeedbackEdgeDecomposition,
    trace: list[TraceEntry],
    worklist: RuleWorklist,
) -> bool:
    """Pin the midpoint between consecutive leafed positions that a shortcut
    elsewhere in the graph makes locally uncoverable."""
    for path in fed.paths:
        if len(path.leaf_positions) < 2:
            continue
        # the interior is left only through the ends, so the way round is
        # the only route that can beat the one along the segment
        around = fed.end_distance(work, path) + path.h
        for l, l2 in zip(path.leaf_positions, path.leaf_positions[1:]):
            if l + around - l2 < l2 - l:
                mid = path.vertices[(l + l2) // 2]
                leaf = work.attach_leaf(mid)
                worklist.add_leaf(leaf, mid)
                trace.append(TraceEntry("shortcut", 0, (), (leaf,), (leaf,), (mid,)))
                return True
    return False


def apply_margin(
    work: MutableGraph,
    fed: FeedbackEdgeDecomposition,
    trace: list[TraceEntry],
    worklist: RuleWorklist,
) -> bool:
    """Pin a position near a segment end when the nearest leafed position
    sits deeper than the end-to-end distance allows."""
    for path in fed.paths:
        if not path.leaf_positions:
            continue
        h = path.h
        d = fed.end_distance(work, path)
        if 2 * path.l_left - h > d:
            pos = path.l_left - (h + d) // 2
        elif h - 2 * path.l_right > d:
            pos = path.l_right + (h + d) // 2
        else:
            continue
        support = path.vertices[pos]
        leaf = work.attach_leaf(support)
        worklist.add_leaf(leaf, support)
        trace.append(TraceEntry("margin", 0, (), (leaf,), (leaf,), (support,)))
        return True
    return False


def apply_loop_prune(
    work: MutableGraph,
    fed: FeedbackEdgeDecomposition,
    trace: list[TraceEntry],
    worklist: RuleWorklist,
) -> bool:
    """Remove a loop at a branch vertex together with its pendant leaves.

    Only valid when the rest of the graph still contains a cycle, which the
    caller guarantees by checking the feedback edge number first.  The
    optimum drops by one less than the number of leafed vertices on the
    loop; a bare odd loop costs one extra.  A bare branch vertex gets a new
    leaf.
    """
    for path in fed.paths:
        if not path.is_loop:
            continue
        v = path.left
        h = path.h
        inner = path.vertices[1:-1]
        inner_leaves = [work.leaf_of(u) for u in inner]
        leaves = tuple(leaf for leaf in inner_leaves if leaf is not None)
        kept = work.leaf_of(v)
        t = len(leaves) + (kept is not None)
        removed = []
        for u, leaf in zip(inner, inner_leaves):
            if leaf is not None:
                work.remove_vertex(leaf)
                removed.append(leaf)
            work.remove_vertex(u)
            removed.append(u)
        if kept is None:
            added = (work.attach_leaf(v),)
            worklist.add_leaf(added[0], v)
        else:
            added = ()
            # left with one other neighbour, v lets its leaf collapse
            if work.degree(v) == 2:
                heappush(worklist.collapse, kept)
        dk = (h % 2) if t == 0 else t - 1
        lift_in = path.vertices[h // 2 : (h + 1) // 2 + 1] if t == 0 else leaves
        trace.append(
            TraceEntry("loop-prune", dk, tuple(removed), added, added, lift_in)
        )
        return True
    return False


@dataclass
class ReductionResult:
    graph: MutableGraph
    decomposition: FeedbackEdgeDecomposition | None
    k_decrease: int
    trace: list[TraceEntry] = field(default_factory=list)


def reduce_to_fixpoint(g: Graph) -> ReductionResult:
    """Run all rules to exhaustion on a connected graph.

    Stops early (without a decomposition) once fewer than two independent
    cycles remain; those instances are closed-form territory.  Collapse and
    twin come from one :class:`RuleWorklist`, so each costs O(log n), and
    every rule queues there what its edit enables; the rarer segment rules
    rebuild the decomposition.  It builds no reference cycles, so the
    collector is paused throughout (see :func:`geodetic.graph._gc_paused`).
    """
    with _gc_paused():
        if g.n == 0:
            raise GraphError("cannot reduce the empty graph")
        if not is_connected(g):
            raise DisconnectedError("reduction requires a connected graph")
        work = MutableGraph.from_graph(g)
        # every rule keeps the graph connected and only loop-prune drops a cycle
        fen = g.m - g.n + 1
        worklist = RuleWorklist(work)
        trace: list[TraceEntry] = []
        fed: FeedbackEdgeDecomposition | None = None
        # each application shrinks (vertex count + 2 * unleafed non-leaf count)
        limit = 3 * g.n + 5
        for _ in range(limit):
            if apply_collapse(work, trace, worklist):
                continue
            if apply_twin(work, trace, worklist):
                continue
            if fen < 2:
                fed = None
                break
            fed = build_feg(work)
            if apply_shortcut(work, fed, trace, worklist):
                continue
            if apply_margin(work, fed, trace, worklist):
                continue
            if not apply_loop_prune(work, fed, trace, worklist):
                break
            fen -= 1
        else:  # pragma: no cover - the potential argument rules this out
            raise AssertionError("reduction failed to reach a fixpoint")
        k_decrease = sum(entry.dk for entry in trace)
        return ReductionResult(work, fed, k_decrease, trace)


def lift_witness(trace: list[TraceEntry], witness: Iterable[int]) -> tuple[int, ...]:
    """Map an optimal witness of the reduced graph back through the trace.

    Undoes rule applications newest first: each entry's witness gives up
    its ``lift_out`` vertices and takes its ``lift_in`` ones, so the size
    grows by exactly the total optimum drop recorded in the trace.  A
    witness that misses a vertex it must give up, or already holds one it
    must take, raises :class:`~geodetic.graph.VerificationError`.
    """
    current = set(witness)
    for entry in reversed(trace):
        for v in entry.lift_out:
            if v not in current:
                raise VerificationError(f"{entry.rule}: forced vertex {v} missing")
            current.remove(v)
        for v in entry.lift_in:
            if v in current:
                raise VerificationError(f"{entry.rule}: vertex {v} already present")
            current.add(v)
    return tuple(sorted(current))


def solve_tree(work: MutableGraph) -> tuple[int, tuple[int, ...]]:
    """Optimum for a tree: exactly its leaves (single vertex: itself)."""
    labels = work.labels()
    if len(labels) == 1:
        return 1, (labels[0],)
    leaves = tuple(v for v in labels if work.degree(v) == 1)
    return len(leaves), leaves


def _cycle_order(work: MutableGraph) -> list[int]:
    """The cycle of a fen-1 graph with pendant leaves, from its smallest
    vertex towards that vertex's smaller cycle neighbour."""
    adj = work._adj
    deg, _, _ = peel_pendant_trees(adj, adj)
    start = min(v for v, d in deg.items() if d)
    (loop,) = core_chains(adj, deg, [start])
    order = list(loop[:-1])
    if len(order) != sum(1 for nb in adj.values() if len(nb) >= 2):
        raise VerificationError("the graph is not one cycle with pendant leaves")
    return order


def solve_fen1_optimum(work: MutableGraph) -> tuple[int, tuple[int, ...]]:
    """Optimum for a cycle with single pendant leaves (fully reduced, fen 1).

    With leaves present they are all forced; they cover every arc between
    consecutive leafed positions except one that spans more than half the
    cycle, which costs one extra vertex at its midpoint.  A bare or
    singly-leafed cycle needs antipodal picks: two on even, three on odd.
    """
    order = _cycle_order(work)
    length = len(order)
    leafed = [i for i, v in enumerate(order) if work.is_leafed(v)]
    t = len(leafed)
    if t >= 2:
        witness = [work.leaf_of(order[i]) for i in leafed]
        gaps = [(leafed[(j + 1) % t] - leafed[j]) % length for j in range(t)]
        big = max(range(t), key=lambda j: gaps[j])
        if 2 * gaps[big] > length:
            offset = (gaps[big] + 1) // 2
            witness.append(order[(leafed[big] + offset) % length])
        size = len(witness)
    else:
        rot = leafed[0] if t == 1 else 0
        anchor = work.leaf_of(order[rot]) if t == 1 else order[rot]
        if length % 2 == 0:
            witness = [anchor, order[(rot + length // 2) % length]]
        else:
            witness = [
                anchor,
                order[(rot + (length - 1) // 2) % length],
                order[(rot + (length + 1) // 2) % length],
            ]
        size = len(witness)
    graph, labels = work.to_graph()
    index = {lab: i for i, lab in enumerate(labels)}
    if not is_geodetic(graph, [index[v] for v in witness]):
        raise VerificationError(f"cycle witness {sorted(witness)} is not geodetic")
    return size, tuple(sorted(witness))
