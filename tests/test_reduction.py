from __future__ import annotations

import gc
import random

import pytest

from geodetic import reduction
from geodetic.generators import cycle_with_leaves, random_fen_graph
from geodetic.graph import (
    DisconnectedError,
    Graph,
    VerificationError,
    feedback_edge_number,
    format_graph,
    is_geodetic,
    parse_graph,
    peel_pendant_trees,
)
from geodetic.oracle import min_geodetic_brute
from geodetic.reduction import (
    FenTooSmallError,
    MutableGraph,
    RuleWorklist,
    TraceEntry,
    apply_collapse,
    apply_loop_prune,
    apply_margin,
    apply_shortcut,
    apply_twin,
    build_feg,
    lift_witness,
    reduce_to_fixpoint,
    solve_fen1_optimum,
    solve_tree,
)
from tests.conftest import complete_graph, cycle_graph, path_graph, theta_graph


def dumbbell() -> Graph:
    # triangles {0,1,2} and {5,6,7} joined by the path 2-3-4-5
    return Graph(
        8,
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)],
    )


def oracle_size(g: Graph) -> int:
    result = min_geodetic_brute(g)
    assert result.size is not None
    return result.size


def test_mutable_graph_round_trip():
    g = theta_graph((2, 3, 4))
    work = MutableGraph.from_graph(g)
    assert work.n == g.n and work.m == g.m
    back, labels = work.to_graph()
    assert back == g
    assert labels == list(range(g.n))


def test_mutable_graph_edit_operations():
    work = MutableGraph.from_graph(path_graph(3))
    leaf = work.attach_leaf(1)
    assert leaf == 3
    assert work.degree(1) == 3
    assert work.leaf_of(1) in (0, 2, leaf)  # all neighbors of 1 are leaves here
    work.remove_vertex(0)
    assert not work.has_vertex(0)
    assert work.labels() == [1, 2, 3]
    fresh = work.add_vertex()
    assert fresh == 4  # labels of removed vertices are never reused


def two_core(work: MutableGraph) -> set[int]:
    deg, _, _ = peel_pendant_trees(work._adj, work.labels())
    return {v for v, d in deg.items() if d}


def test_two_core_strips_pendant_trees():
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 5), (5, 6)])
    work = MutableGraph.from_graph(g)
    assert two_core(work) == {0, 1, 2}
    assert two_core(MutableGraph.from_graph(path_graph(4))) == set()


def test_build_feg_theta():
    work = MutableGraph.from_graph(theta_graph((2, 3, 4)))
    fed = build_feg(work)
    assert fed.branch_vertices == (0, 1)
    assert sorted(p.h for p in fed.paths) == [2, 3, 4]
    for p in fed.paths:
        assert {p.left, p.right} == {0, 1}
        assert not p.is_loop
        assert p.leaf_positions == ()


def test_build_feg_complete_graph():
    fed = build_feg(MutableGraph.from_graph(complete_graph(4)))
    assert fed.branch_vertices == (0, 1, 2, 3)
    assert len(fed.paths) == 6
    assert all(p.h == 1 for p in fed.paths)


def test_build_feg_figure_eight():
    # two triangles sharing vertex 0
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    fed = build_feg(MutableGraph.from_graph(g))
    assert fed.branch_vertices == (0,)
    assert len(fed.paths) == 2
    assert all(p.is_loop and p.h == 3 for p in fed.paths)


def test_build_feg_records_leafed_positions():
    g = theta_graph((2, 3, 4))
    work = MutableGraph.from_graph(g)
    spine = next(p for p in build_feg(work).paths if p.h == 4)
    work.attach_leaf(spine.vertices[2])
    work.attach_leaf(spine.vertices[0])
    fed = build_feg(work)
    spine2 = next(p for p in fed.paths if p.h == 4)
    assert spine2.leaf_positions == (0, 2)
    assert spine2.l_left == 0 and spine2.l_right == 2


def test_build_feg_needs_branch_vertex():
    with pytest.raises(FenTooSmallError):
        build_feg(MutableGraph.from_graph(cycle_graph(5)))
    with pytest.raises(FenTooSmallError):
        build_feg(MutableGraph.from_graph(path_graph(4)))


def assert_worklist_holds_candidates(work: MutableGraph, worklist: RuleWorklist):
    """Each leaf sits in its support's ``leaves`` heap, and is queued for
    collapse when that support has degree 2; each support of two leaves is
    queued for twin."""
    for s in work.labels():
        leaves = [u for u in work.neighbors(s) if work.degree(u) == 1]
        for u in leaves:
            assert u in worklist.leaves.get(s, ())
            if work.degree(s) == 2:
                assert u in worklist.collapse
        if len(leaves) >= 2:
            assert s in worklist.twin


def fire(rule, work: MutableGraph, fed, trace: list) -> bool:
    """Apply a segment rule with a fresh worklist, which the rule must
    leave holding every collapse and twin candidate."""
    worklist = RuleWorklist(work)
    fired = rule(work, fed, trace, worklist)
    assert_worklist_holds_candidates(work, worklist)
    return fired


def test_collapse_shortens_pendant_path():
    # triangle with a pendant path 2-3-4
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    work = MutableGraph.from_graph(g)
    trace = []
    worklist = RuleWorklist(work)
    assert apply_collapse(work, trace, worklist)
    assert trace[0].rule == "collapse"
    assert trace[0].removed == (4,)
    assert trace[0].dk == 0
    assert work.degree(3) == 1
    assert_worklist_holds_candidates(work, worklist)
    # vertex 3 is now a leaf, but its support 2 has degree 3: no second firing
    assert not apply_collapse(work, trace, worklist)


def test_twin_drops_second_leaf():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    work = MutableGraph.from_graph(g)
    trace = []
    worklist = RuleWorklist(work)
    assert apply_twin(work, trace, worklist)
    assert trace[0].rule == "twin"
    assert trace[0].removed == (4,)
    assert trace[0].dk == 1
    assert trace[0].lift_in == (4,)
    # the smaller leaf stays
    assert work.neighbors(3) == {0}
    assert_worklist_holds_candidates(work, worklist)
    assert not apply_twin(work, trace, worklist)


def hub_pair_with_spine(spine_len: int, leafed_at: list[int]) -> MutableGraph:
    """Hubs 0 and 1: a direct edge, a length-2 helper path, and a long path."""
    edges = [(0, 1), (0, 2), (1, 2)]
    prev = 0
    nxt = 3
    spine = [0]
    for _ in range(spine_len - 1):
        edges.append((min(prev, nxt), max(prev, nxt)))
        spine.append(nxt)
        prev = nxt
        nxt += 1
    edges.append((min(prev, 1), max(prev, 1)))
    spine.append(1)
    work = MutableGraph.from_graph(Graph(nxt, edges))
    for pos in leafed_at:
        work.attach_leaf(spine[pos])
    return work


def test_shortcut_pins_midpoint():
    work = hub_pair_with_spine(6, [1, 5])
    trace = []
    fed = build_feg(work)
    assert fire(apply_shortcut, work, fed, trace)
    entry = trace[0]
    assert entry.rule == "shortcut" and entry.dk == 0
    assert entry.lift_out == entry.added
    spine = next(p for p in build_feg(work).paths if p.h == 6)
    assert spine.leaf_positions == (1, 3, 5)
    assert entry.lift_in == (spine.vertices[3],)


def test_shortcut_ignores_tight_pairs():
    work = hub_pair_with_spine(6, [1, 3])
    fed = build_feg(work)
    assert not apply_shortcut(work, fed, [], RuleWorklist(work))


def test_shortcut_and_margin_share_one_bfs_per_branch_vertex(monkeypatch):
    """Counts, not clock time: the end-to-end distance of each segment
    decides all its leafed pairs, so no BFS runs per pair."""
    work = hub_pair_with_spine(12, [1, 3, 5, 7, 9, 11])
    fed = build_feg(work)
    searches = 0
    bfs = MutableGraph.bfs

    def counting_bfs(self, source):
        nonlocal searches
        searches += 1
        return bfs(self, source)

    monkeypatch.setattr(MutableGraph, "bfs", counting_bfs)
    assert not apply_shortcut(work, fed, [], RuleWorklist(work))
    assert not apply_margin(work, fed, [], RuleWorklist(work))
    assert searches <= len(fed.branch_vertices)


def test_margin_pins_near_left_end():
    work = hub_pair_with_spine(6, [5])
    trace = []
    fed = build_feg(work)
    assert not apply_shortcut(work, fed, trace, RuleWorklist(work))
    assert fire(apply_margin, work, fed, trace)
    assert trace[0].rule == "margin" and trace[0].dk == 0
    spine = next(p for p in build_feg(work).paths if p.h == 6)
    # l_left = 5, end distance 1, new pin at 5 - (6 + 1) // 2 = 2
    assert spine.leaf_positions == (2, 5)
    assert not apply_margin(work, build_feg(work), trace, RuleWorklist(work))


def test_margin_pins_near_right_end():
    work = hub_pair_with_spine(6, [1])
    trace = []
    fed = build_feg(work)
    assert fire(apply_margin, work, fed, trace)
    spine = next(p for p in build_feg(work).paths if p.h == 6)
    assert spine.leaf_positions == (1, 4)


def theta_with_loop(loop_len: int) -> tuple[MutableGraph, list[int]]:
    """Theta graph on hubs 0, 1 plus a cycle hanging at hub 0.

    Returns the working graph and the loop vertices in walk order, starting
    and ending at hub 0.  The theta part contributes no loop record, so the
    attached cycle is the only loop in the decomposition.
    """
    g = theta_graph((1, 2, 2))
    work = MutableGraph.from_graph(g)
    loop = [0]
    prev = 0
    for _ in range(loop_len - 1):
        prev = work.add_vertex()
        loop.append(prev)
    for a, b in zip(loop, loop[1:]):
        work.add_edge(a, b)
    work.add_edge(prev, 0)
    loop.append(0)
    return work, loop


def test_margin_on_loop():
    work, loop = theta_with_loop(9)
    work.attach_leaf(loop[4])
    fed = build_feg(work)
    trace = []
    assert fire(apply_margin, work, fed, trace)
    loop_rec = next(p for p in build_feg(work).paths if p.is_loop)
    # mirror case: h=9, l_right=4, pin at 4 + 4 = 8
    assert loop_rec.leaf_positions == (4, 8)


def test_loop_prune_bare_even_loop():
    work, loop = theta_with_loop(4)
    trace = []
    assert fire(apply_loop_prune, work, build_feg(work), trace)
    entry = trace[0]
    assert entry.rule == "loop-prune"
    assert entry.dk == 0  # bare even loop
    assert set(entry.removed) == set(loop[1:-1])
    assert len(entry.added) == 1
    assert work.degree(0) == 4  # three theta edges plus the new leaf
    # lifting trades the new leaf for the vertex opposite the branch vertex
    assert entry.lift_out == entry.added
    assert entry.lift_in == (loop[2],)


def test_loop_prune_bare_odd_loop():
    work, loop = theta_with_loop(3)
    trace = []
    assert fire(apply_loop_prune, work, build_feg(work), trace)
    assert trace[0].dk == 1  # bare odd loop costs one extra
    # the two vertices opposite the branch vertex
    assert trace[0].lift_in == (loop[1], loop[2])


def test_loop_prune_leafed_loop():
    work, loop = theta_with_loop(4)
    leaves = (work.attach_leaf(loop[1]), work.attach_leaf(loop[3]))
    trace = []
    assert fire(apply_loop_prune, work, build_feg(work), trace)
    entry = trace[0]
    assert entry.dk == 1  # t = 2 leafed vertices on the loop
    (new_leaf,) = entry.added  # the branch vertex was bare
    assert work.neighbors(new_leaf) == {0}
    assert entry.lift_out == (new_leaf,)
    assert entry.lift_in == leaves


def test_loop_prune_keeps_existing_branch_leaf():
    work, loop = theta_with_loop(4)
    kept = work.attach_leaf(0)
    leaf = work.attach_leaf(loop[2])
    trace = []
    assert fire(apply_loop_prune, work, build_feg(work), trace)
    entry = trace[0]
    assert entry.dk == 1  # t = 2 again
    assert entry.added == entry.lift_out == ()
    assert entry.lift_in == (leaf,)
    assert work.neighbors(kept) == {0}


def test_reduce_requires_connected():
    with pytest.raises(DisconnectedError):
        reduce_to_fixpoint(Graph(4, [(0, 1), (2, 3)]))


def test_reduce_dumbbell_stops_at_one_cycle():
    result = reduce_to_fixpoint(dumbbell())
    # one triangle pruned; then only one cycle remains and reduction stops
    assert feedback_edge_number(result.graph.to_graph()[0]) == 1
    assert result.decomposition is None
    assert result.k_decrease == 1
    assert oracle_size(dumbbell()) == oracle_size(result.graph.to_graph()[0]) + 1


def test_reduce_preserves_optimum_and_lifts(rng: random.Random):
    checked = 0
    for _ in range(60):
        n = rng.randrange(5, 13)
        fen = rng.randrange(0, 5)
        g = random_fen_graph(n, fen, rng)
        result = reduce_to_fixpoint(g)
        before = oracle_size(g)
        reduced, labels = result.graph.to_graph()
        after = min_geodetic_brute(reduced)
        assert after.size is not None
        assert before == after.size + result.k_decrease
        witness_labels = [labels[i] for i in after.witness]
        lifted = lift_witness(result.trace, witness_labels)
        assert len(lifted) == before
        assert is_geodetic(g, lifted)
        checked += 1
    assert checked == 60


@pytest.mark.parametrize(
    "entry, witness",
    [
        (TraceEntry("collapse", 0, (5,), (), (4,), (5,)), [0]),
        (TraceEntry("twin", 1, (6,), (), (), (6,)), [5, 6]),
        (TraceEntry("shortcut", 0, (), (7,), (7,), (3,)), [0]),
        (TraceEntry("margin", 0, (), (7,), (7,), (3,)), [3, 7]),
        (TraceEntry("loop-prune", 1, (8, 9), (10,), (10,), (8, 9)), [0]),
        (TraceEntry("loop-prune", 1, (8, 9), (10,), (10,), (8, 9)), [8, 10]),
    ],
    ids=["collapse", "twin", "shortcut", "margin", "loop-prune", "loop-prune-in"],
)
def test_lift_witness_rejects_a_witness_that_breaks_a_step(entry, witness):
    with pytest.raises(VerificationError):
        lift_witness([entry], witness)


def test_lift_witness_rejects_a_corrupted_witness_of_a_real_trace():
    # triangle with the pendant path 2-3-4: leaf 4 collapses into 3, which
    # the reduced graph's every geodetic set must then hold
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    result = reduce_to_fixpoint(g)
    assert [entry.rule for entry in result.trace] == ["collapse"]
    assert lift_witness(result.trace, [1, 3]) == (1, 4)
    with pytest.raises(VerificationError):
        lift_witness(result.trace, [0, 1])


def replay_entry(work: MutableGraph, entry: TraceEntry) -> None:
    """Re-apply a logged rule application to a working graph in the same state."""
    if entry.rule == "loop-prune":
        # a loop and its leaves meet the rest of the graph at the branch vertex
        removed = set(entry.removed)
        (support,) = {u for gone in removed for u in work.neighbors(gone)} - removed
    elif entry.rule in ("shortcut", "margin"):
        # undoing a pin hands the new leaf's place back to its support
        (support,) = entry.lift_in
    else:
        assert entry.rule in ("collapse", "twin"), entry.rule
        assert len(entry.removed) == 1 and not entry.added
    for gone in entry.removed:
        work.remove_vertex(gone)
    for leaf in entry.added:
        work.attach_leaf(support, label=leaf)


def test_replay_reproduces_reduction(rng: random.Random):
    for _ in range(20):
        g = random_fen_graph(rng.randrange(5, 12), rng.randrange(0, 4), rng)
        result = reduce_to_fixpoint(g)
        work = MutableGraph.from_graph(g)
        for entry in result.trace:
            replay_entry(work, entry)
        assert work.to_graph() == result.graph.to_graph()


def test_decomposition_size_bounds(rng: random.Random):
    for _ in range(40):
        n = rng.randrange(6, 16)
        fen = rng.randrange(2, 6)
        g = random_fen_graph(n, fen, rng)
        assert feedback_edge_number(g) == fen
        fed = build_feg(MutableGraph.from_graph(g))
        assert len(fed.branch_vertices) <= 2 * fen - 2
        assert len(fed.paths) <= 3 * fen - 3


def test_solve_tree():
    work = MutableGraph.from_graph(path_graph(5))
    assert solve_tree(work) == (2, (0, 4))
    single = MutableGraph()
    single.add_vertex(7)
    assert solve_tree(single) == (1, (7,))
    star = MutableGraph.from_graph(Graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert solve_tree(star) == (3, (1, 2, 3))


def test_fen1_bare_cycles():
    for length in range(3, 12):
        work = MutableGraph.from_graph(cycle_graph(length))
        size, witness = solve_fen1_optimum(work)
        assert size == (length % 2) + 2
        assert size == oracle_size(cycle_graph(length))


def test_fen1_matches_oracle(rng: random.Random):
    for _ in range(60):
        length = rng.randrange(3, 11)
        leaves = rng.randrange(0, min(4, length) + 1)
        g = cycle_with_leaves(length, leaves, rng)
        size, witness = solve_fen1_optimum(MutableGraph.from_graph(g))
        assert size == oracle_size(g)
        assert is_geodetic(g, witness)


def test_fen1_oversized_gap_costs_one_extra():
    # 8-cycle leafed at positions 0 and 1: the long way round spans 7 > 4
    g = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7), (0, 8), (1, 9)])
    size, witness = solve_fen1_optimum(MutableGraph.from_graph(g))
    assert size == 3
    assert set(witness) >= {8, 9}


class _ScanBudgetExceeded(Exception):
    pass


class _CountingLabels(dict):
    """Adjacency dict of a working graph that counts full passes over its labels."""

    budget = 200

    def __init__(self, data) -> None:
        super().__init__(data)
        self.scans = 0

    def _scan(self) -> None:
        self.scans += 1
        if self.scans > self.budget:  # a quadratic driver: stop it early
            raise _ScanBudgetExceeded

    def __iter__(self):
        self._scan()
        return super().__iter__()

    def keys(self):
        self._scan()
        return super().keys()

    def values(self):
        self._scan()
        return super().values()

    def items(self):
        self._scan()
        return super().items()


def test_reduce_builds_one_worklist(monkeypatch):
    """The segment rules queue what they enable, so no worklist is rebuilt."""
    built = 0

    class CountingWorklist(RuleWorklist):
        def __init__(self, work: MutableGraph) -> None:
            nonlocal built
            built += 1
            super().__init__(work)

    monkeypatch.setattr(reduction, "RuleWorklist", CountingWorklist)
    # the graph of `generate random-fen --n 16 --fen 3 --seed 6`
    result = reduce_to_fixpoint(random_fen_graph(16, 3, random.Random(6)))
    rules = [entry.rule for entry in result.trace]
    assert rules == ["collapse", "twin", "shortcut", "loop-prune", "collapse", "margin"]
    assert built == 1


@pytest.mark.parametrize(
    "g",
    [
        Graph(20001, [(0, v) for v in range(1, 20001)]),
        random_fen_graph(20000, 4, random.Random(2026)),
        random_fen_graph(20000, 6, random.Random(7)),
    ],
    ids=["star-20000", "near-tree-fen4", "near-tree-fen6"],
)
def test_reduction_work_is_near_linear(monkeypatch, g: Graph):
    """Counts, not clock time: heap pushes stay linear in n plus the trace,
    full label scans come only from the segment rules, and twin pops few
    stale supports."""
    graphs: list[_CountingLabels] = []
    from_graph = MutableGraph.from_graph.__func__

    def counting_from_graph(cls, h):
        work = from_graph(cls, h)
        work._adj = _CountingLabels(work._adj)
        graphs.append(work._adj)
        return work

    pushes = 0
    heappush = reduction.heappush

    def counting_heappush(heap, item):
        nonlocal pushes
        pushes += 1
        heappush(heap, item)

    twin_heaps: list[list[int]] = []
    twin_initial = 0

    class RecordingWorklist(RuleWorklist):
        def __init__(self, work: MutableGraph) -> None:
            nonlocal twin_initial
            super().__init__(work)
            twin_heaps.append(self.twin)
            twin_initial += len(self.twin)

    twin_pops = 0
    heappop = reduction.heappop

    def counting_heappop(heap):
        nonlocal twin_pops
        twin_pops += any(heap is twin for twin in twin_heaps)
        return heappop(heap)

    monkeypatch.setattr(MutableGraph, "from_graph", classmethod(counting_from_graph))
    monkeypatch.setattr(reduction, "heappush", counting_heappush)
    monkeypatch.setattr(reduction, "heappop", counting_heappop)
    monkeypatch.setattr(reduction, "RuleWorklist", RecordingWorklist)
    try:
        result = reduce_to_fixpoint(g)
    except _ScanBudgetExceeded:
        pytest.fail(f"more than {_CountingLabels.budget} full label scans")
    (labels,) = graphs
    segment_steps = sum(
        entry.rule in ("shortcut", "margin", "loop-prune") for entry in result.trace
    )
    # the one worklist lists the labels once, and the decomposition once
    # before each segment step and once at the fixpoint
    assert labels.scans <= segment_steps + 2
    assert pushes <= 3 * (g.n + len(result.trace))
    assert len(result.trace) >= g.n - 200
    # a support is queued only once it holds two leaves, so few pops are stale
    twins = sum(entry.rule == "twin" for entry in result.trace)
    assert twin_pops <= twins + twin_initial


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reading_and_reducing_leave_no_cyclic_garbage(seed):
    """Graph reading and the reduction pause the collector, which is sound
    only while they build no reference cycles: with the collector off, a
    collection right after each finds nothing unreachable."""
    rng = random.Random(seed)
    text = format_graph(random_fen_graph(3000, rng.randint(2, 8), rng))
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        g = parse_graph(text)
        assert gc.collect() == 0
        assert reduce_to_fixpoint(g).trace
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_reduction_restores_the_collector_state(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert reduce_to_fixpoint(dumbbell()).k_decrease >= 0
        assert gc.isenabled() is enabled
        # raised inside the pause
        with pytest.raises(DisconnectedError):
            reduce_to_fixpoint(Graph(4, [(0, 1), (2, 3)]))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
