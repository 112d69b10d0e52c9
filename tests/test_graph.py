from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from collections import Counter
from math import inf
from pathlib import Path

import pytest

import geodetic.graph as graph_module
from geodetic.gadget import build_gadget
from geodetic.generators import random_fen_graph
from geodetic.graph import (
    DisconnectedError,
    Graph,
    GraphError,
    GraphFormatError,
    _bfs_order,
    _chain_pair_max,
    _gc_paused,
    connected_components,
    diameter,
    feedback_edge_number,
    format_graph,
    interval_closure,
    is_connected,
    is_geodetic,
    parse_graph,
)
from geodetic.gridtiling import random_yes_instance
from geodetic.oracle import pair_interval_masks
from tests.conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    reference_bfs,
    reference_interval,
    star_graph,
    theta_graph,
)


def test_graph_basic():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.adj[1] == (0, 2)
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError, match=r"^duplicate edge \(1, 2\)$"):
        Graph(3, [(2, 1), (1, 2)])
    with pytest.raises(GraphError):
        Graph(-1, [])


def test_graph_equality_ignores_edge_order():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b
    assert a != Graph(3, [(0, 1)])


def test_bfs_distances_path():
    g = path_graph(5)
    assert _bfs_order(g.adj, 0) == ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
    assert _bfs_order(g.adj, 2) == ([2, 1, 0, 1, 2], [2, 1, 3, 0, 4])


def test_bfs_distances_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    assert _bfs_order(g.adj, 0) == ([0, 1, -1, -1], [0, 1])


def test_bfs_order_matches_reference_bfs(rng: random.Random):
    for _ in range(20):
        n = rng.randrange(2, 12)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(possible, k=rng.randrange(0, len(possible) + 1))
        g = Graph(n, edges)
        for s in range(n):
            dist, order = _bfs_order(g.adj, s)
            want = reference_bfs(g, s)
            assert [d if d >= 0 else inf for d in dist] == want
            # the order visits each reachable vertex once, nearest first
            assert sorted(order) == [w for w in range(n) if want[w] != inf]
            assert [dist[w] for w in order] == sorted(dist[w] for w in order)


def test_connected_components():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    assert connected_components(g) == [[0, 1, 2], [3, 4], [5]]
    assert not is_connected(g)
    assert is_connected(path_graph(4))
    assert is_connected(Graph(0, []))


def test_feedback_edge_number():
    assert feedback_edge_number(path_graph(5)) == 0
    assert feedback_edge_number(cycle_graph(5)) == 1
    assert feedback_edge_number(complete_graph(4)) == 3
    # forest with two components: still 0
    assert feedback_edge_number(Graph(5, [(0, 1), (2, 3), (3, 4)])) == 0


def test_interval_even_cycle():
    # both shortest 0-2 paths on C4 exist, so the interval is everything
    assert interval_closure(cycle_graph(4), [0, 2]) == frozenset({0, 1, 2, 3})


def test_interval_odd_cycle():
    g = cycle_graph(5)
    assert interval_closure(g, [0, 2]) == frozenset({0, 1, 2})
    assert interval_closure(g, [0]) == frozenset({0})


def test_interval_disconnected_pair():
    # a pair in two components spans no path: only its ends are covered,
    # and the pairwise masks have no entry for it
    g = Graph(4, [(0, 1), (2, 3)])
    assert interval_closure(g, [0, 2]) == frozenset({0, 2})
    assert sorted(pair_interval_masks(g, range(4))) == [
        (0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3)
    ]


def test_interval_closure_clique_pair():
    # adjacent vertices in K4 close to just themselves
    g = complete_graph(4)
    assert interval_closure(g, [0, 1]) == frozenset({0, 1})


def test_interval_closure_odd_cycle_triple():
    g = cycle_graph(5)
    assert interval_closure(g, [0, 2, 4]) == frozenset(range(5))


def test_interval_closure_skips_cross_component_pairs():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert interval_closure(g, [0, 2, 3]) == frozenset({0, 1, 2, 3})


def _pairwise_closure(g: Graph, vertices: list[int]) -> frozenset[int]:
    rows = {v: reference_bfs(g, v) for v in vertices}
    closed = set(vertices)
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            closed |= reference_interval(rows, u, v)
    return frozenset(closed)


def test_interval_closure_matches_pairwise_intervals():
    rng = random.Random(20260301)
    verdicts = Counter()
    for trial in range(240):
        n = rng.randrange(1, 41)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if trial % 2:
            # connected: a random tree plus a few chords
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            extra = rng.randrange(0, min(len(possible), 2 * n) + 1)
            edges.update(rng.sample(possible, k=extra))
        else:
            # usually disconnected: sparse random edges
            k = rng.randrange(0, min(len(possible), n) + 1)
            edges = set(rng.sample(possible, k=k))
        g = Graph(n, edges)
        # sizes run from the empty set to the whole vertex set; with one or
        # two members the closure sweeps from at most the smaller
        size = min(n, (0, 1, 2, n, rng.randrange(n + 1))[trial % 5])
        chosen = rng.sample(range(n), k=size)
        want = _pairwise_closure(g, sorted(chosen))
        assert interval_closure(g, chosen) == want
        if trial % 2:
            # the early-exit check must agree on sets that fail, too
            for subset in (chosen, range(1, n)):
                want = _pairwise_closure(g, sorted(subset))
                verdict = is_geodetic(g, subset)
                assert verdict == (len(want) == n)
                verdicts[verdict, len(subset) == n] += 1
    assert verdicts[False, False] >= 50 and verdicts[True, False] >= 50


def test_interval_closure_rejects_out_of_range_vertex():
    with pytest.raises(GraphError):
        interval_closure(path_graph(3), [0, 3])
    with pytest.raises(GraphError):
        interval_closure(path_graph(3), [-1])


def test_is_geodetic():
    g = cycle_graph(5)
    assert is_geodetic(g, [0, 2, 4])
    assert not is_geodetic(g, [0, 2])
    assert is_geodetic(path_graph(6), [0, 5])
    with pytest.raises(DisconnectedError):
        is_geodetic(Graph(3, [(0, 1)]), [0, 1, 2])


def test_is_geodetic_star():
    g = star_graph(4)
    assert is_geodetic(g, [1, 2, 3, 4])
    assert not is_geodetic(g, [1, 2, 3])


def test_diameter():
    assert diameter(path_graph(7)) == 6
    assert diameter(cycle_graph(8)) == 4
    assert diameter(complete_graph(5)) == 1
    with pytest.raises(DisconnectedError):
        diameter(Graph(3, [(0, 1)]))
    with pytest.raises(GraphError):
        diameter(Graph(0, []))


def test_diameter_long_path():
    n = 1500
    assert diameter(path_graph(n)) == n - 1


def diameter_all_pairs(g: Graph) -> int | float:
    """Reference: the largest distance over all pairs, ``inf`` if some pair
    is disconnected, from one level-synchronous BFS per vertex that shares
    no code with ``geodetic.graph``."""
    adj = g.adj
    best = 0
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        frontier = [s]
        level = 0
        while frontier:
            level += 1
            reached = []
            for u in frontier:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = level
                        reached.append(v)
            frontier = reached
        if -1 in dist:
            return inf
        best = max(best, level - 1)
    return best


def diameter_hub_bfs(g: Graph) -> int:
    """Reference: the diameter from one BFS per hub over the whole 2-core,
    with the peeling and the chain-pair loop of ``geodetic.graph.diameter``."""
    n = g.n
    adj = g.adj
    assert n and len(_bfs_order(adj, 0)[1]) == n
    deg = [len(nb) for nb in adj]
    height = [0] * n
    best = 0
    stack = [v for v in range(n) if deg[v] == 1]
    while stack:
        v = stack.pop()
        if deg[v] != 1:
            continue
        deg[v] = 0
        r = next(u for u in adj[v] if deg[u])
        hv = height[v] + 1
        best = max(best, height[r] + hv)
        height[r] = max(height[r], hv)
        deg[r] -= 1
        if deg[r] == 1:
            stack.append(r)
    if g.m == n - 1:
        return best
    core_adj = [
        tuple(u for u in nb if deg[u]) if deg[v] else () for v, nb in enumerate(adj)
    ]
    hubs = [v for v in range(n) if deg[v] and (deg[v] != 2 or height[v])]
    if not hubs:
        return sum(1 for d in deg if d) // 2
    is_hub = bytearray(n)
    for x in hubs:
        is_hub[x] = 1
    chains: list[tuple[int, int, int]] = []
    seen = bytearray(n)
    for a in hubs:
        for s in core_adj[a]:
            if is_hub[s] or seen[s]:
                continue
            prev, cur, h = a, s, 1
            while not is_hub[cur]:
                seen[cur] = 1
                x, y = core_adj[cur]
                prev, cur = cur, y if x == prev else x
                h += 1
            chains.append((a, cur, h))
    ends = sorted({v for a, b, _ in chains for v in (a, b)})
    slot = {v: i for i, v in enumerate(ends)}
    tall = [y for y in hubs if height[y]]
    rows: dict[int, list[int]] = {}
    ecc: dict[int, int] = {}
    for x in hubs:
        dist, order = _bfs_order(core_adj, x)
        far = dist[order[-1]]
        top = max([far] + [dist[y] + height[y] for y in tall if y != x])
        best = max(best, height[x] + top)
        if x in slot:
            ecc[x] = far
            rows[x] = [dist[e] for e in ends]
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


def theta_with_pendant_paths(rng: random.Random) -> Graph:
    """A theta graph on 2-5 paths of length 1-8 with pendant paths of
    length 1-4 hung at random vertices, so that chains meet hubs both bare
    and with trees."""
    lengths = [rng.randint(2, 8) for _ in range(rng.randint(2, 5))]
    if rng.random() < 0.3:
        lengths.append(1)
    base = theta_graph(tuple(lengths))
    edges = list(base.edges())
    n = base.n
    for _ in range(rng.randint(0, 4)):
        prev = rng.randrange(n)
        for _ in range(rng.randint(1, 4)):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph(n, edges)


def test_diameter_matches_all_pairs_on_random_fen_graphs():
    draws = 0
    for seed in range(1200):
        rng = random.Random(seed)
        n, fen = rng.randint(1, 40), rng.randint(0, 8)
        if fen > (n - 1) * (n - 2) // 2:
            continue
        g = random_fen_graph(n, fen, rng)
        assert diameter(g) == diameter_all_pairs(g), (seed, n, fen)
        draws += 1
    assert draws > 1000


def test_diameter_matches_all_pairs_on_shapes():
    shapes = [Graph(1, []), path_graph(2), complete_graph(4), complete_graph(7)]
    shapes += [path_graph(n) for n in range(3, 12)]
    shapes += [cycle_graph(n) for n in range(3, 14)]
    shapes += [star_graph(k) for k in range(1, 6)]
    rng = random.Random(7)
    shapes += [theta_with_pendant_paths(rng) for _ in range(600)]
    for g in shapes:
        assert diameter(g) == diameter_all_pairs(g), format_graph(g)


def test_diameter_matches_all_pairs_on_small_gadgets():
    for k, m, alphabet, seed in ((2, 1, 1, 0), (2, 2, 1, 1), (2, 2, 2, 2)):
        inst, _ = random_yes_instance(k, m, alphabet, random.Random(seed))
        g = build_gadget(inst).graph
        assert diameter(g) == diameter_all_pairs(g)


def subdivided_multigraph(rng: random.Random) -> Graph:
    """A connected multigraph on 2-7 vertices, with loops, parallel edges
    and plain edges, each edge but a plain one subdivided into a chain, and
    pendant paths hung at those vertices and at chain interiors."""
    base = rng.randint(2, 7)
    pairs = [(rng.randrange(v), v) for v in range(1, base)]
    for _ in range(rng.randint(1, 2 * base)):
        a = rng.randrange(base)
        kind = rng.random()
        if kind < 0.2:
            pairs.append((a, a))  # a loop chain
        elif kind < 0.4 and pairs:
            pairs.append(rng.choice(pairs))  # a parallel chain
        else:
            pairs.append((a, rng.randrange(base)))
    edges: set[tuple[int, int]] = set()
    n = base
    for a, b in pairs:
        shortest = 3 if a == b else 1
        h = rng.randint(shortest, 6)
        if h == 1 and (min(a, b), max(a, b)) in edges:
            h = 2
        prev = a
        for _ in range(h - 1):
            edges.add((prev, n))
            prev, n = n, n + 1
        edges.add((min(prev, b), max(prev, b)))
    for _ in range(rng.randint(0, 4)):
        prev = rng.randrange(base) if rng.random() < 0.5 else rng.randrange(n)
        for _ in range(rng.randint(1, 4)):
            edges.add((prev, n))
            prev, n = n, n + 1
    return Graph(n, edges)


def test_diameter_matches_hub_bfs_on_chain_heavy_graphs():
    rng = random.Random(20261020)
    shapes = Counter()
    for _ in range(1500):
        g = subdivided_multigraph(rng)
        want = diameter_hub_bfs(g)
        assert diameter(g) == want == diameter_all_pairs(g), format_graph(g)
        shapes[g.m - g.n + 1 > 1] += 1
    assert shapes[True] > 1000


def test_diameter_matches_hub_bfs_on_thetas():
    rng = random.Random(19)
    for _ in range(1000):
        g = theta_with_pendant_paths(rng)
        assert diameter(g) == diameter_hub_bfs(g), format_graph(g)


@pytest.mark.parametrize("alphabet", [1, 2, 3])
def test_diameter_matches_hub_bfs_on_benchmark_gadgets(alphabet):
    inst, _ = random_yes_instance(2, 2, alphabet, random.Random(alphabet))
    g = build_gadget(inst).graph
    assert diameter(g) == diameter_hub_bfs(g)


def core_hub_count(g: Graph) -> int:
    """Vertices of the 2-core with core degree other than 2 or a pendant tree."""
    deg = [len(nb) for nb in g.adj]
    alive = [True] * g.n
    stack = [v for v in range(g.n) if deg[v] == 1]
    rooted = set()
    while stack:
        v = stack.pop()
        if deg[v] != 1:
            continue
        alive[v], deg[v] = False, 0
        (r,) = [u for u in g.adj[v] if alive[u]]
        rooted.add(r)
        deg[r] -= 1
        if deg[r] == 1:
            stack.append(r)
    return sum(
        1 for v in range(g.n) if alive[v] and deg[v] and (deg[v] != 2 or v in rooted)
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_fen_graph(20000, 4, random.Random(1)),
        lambda: random_fen_graph(20000, 6, random.Random(2)),
        lambda: star_graph(20000),
    ],
    ids=["near-tree-fen4", "near-tree-fen6", "star"],
)
def test_diameter_runs_one_graph_bfs_and_one_hub_search_per_hub(monkeypatch, make):
    """Counts, not clock time: one BFS over the graph, to check
    connectivity, and one search per hub of the 2-core on the hub graph,
    whatever the size of the pendant trees."""
    g = make()
    calls = Counter()

    def counting(name):
        inner = getattr(graph_module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(graph_module, name, wrapper)

    counting("_bfs_order")
    counting("_hub_distances")
    assert diameter(g) > 0
    assert calls["_bfs_order"] == 1
    assert calls["_hub_distances"] == core_hub_count(g)


def test_stats_on_a_gadget_imports_no_numpy_or_scipy(tmp_path):
    src_dir = Path(graph_module.__file__).resolve().parent.parent
    prefix = str(tmp_path / "gad")
    script = (
        "import sys\n"
        "from geodetic.cli import main\n"
        f"argv = ['generate', 'gadget', '--k', '2', '--m', '1', '--n', '1',"
        f" '--planted', 'yes', '--seed', '3', '--out', {prefix!r}]\n"
        "assert main(argv + ['--quiet']) == 0\n"
        f"assert main(['stats', {prefix + '.graph'!r}]) == 0\n"
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "n 1100" in lines
    assert lines[-1] == "[]"


def test_parse_and_format_round_trip():
    text = "4 3\n0 1\n1 2\n2 3\n"
    g = parse_graph(text)
    assert g == path_graph(4)
    assert format_graph(g) == text


def test_parse_graph_accepts_comments():
    g = parse_graph("# a path\n3 2\n0 1\n# middle\n1 2\n")
    assert g == path_graph(3)
    # blank lines, indented comments, tabs and CRLF line ends
    g = parse_graph("\r\n# a path\r\n 3\t2 \r\n\r\n0 1\r\n   # middle\r\n\t1  2\r\n")
    assert g == path_graph(3)


def test_parse_graph_rejects_malformed():
    # each message names the first fault, reading top to bottom: the
    # header, then the edge-line count, then each edge line's form, then
    # the graph's own checks on the edges in order
    for bad, message in [
        ("", "empty graph text"),
        ("# only a comment\n\n  \n", "empty graph text"),
        ("3\n", "bad header line: '3'"),
        ("  3 2 1 \n", "bad header line: '3 2 1'"),
        ("3 x\n", "bad header line: '3 x'"),
        ("3 2\n0 1\n", "expected 2 edge lines, found 1"),
        ("3 -1\n", "expected -1 edge lines, found 0"),
        ("3 3\n0 1\nx\n", "expected 3 edge lines, found 2"),
        ("3 1\n1 0\n", "edge line must satisfy u < v: '1 0'"),
        ("3 1\n1 1\n", "edge line must satisfy u < v: '1 1'"),
        ("3 1\n0 1 2\n", "bad edge line: '0 1 2'"),
        ("3 1\n\t0 \n", "bad edge line: '0'"),
        ("3 1\nx y\n", "bad edge line: 'x y'"),
        ("3 2\r\n2 1\r\nx y\r\n", "edge line must satisfy u < v: '2 1'"),
        ("4 2\n0 9\nx y\n", "bad edge line: 'x y'"),
        ("2 2\n0 1\n0 1\n", "duplicate edge (0, 1)"),
        ("3 1\n0 3\n", "edge (0, 3) out of range for n=3"),
        ("3 1\n-1 2\n", "edge (-1, 2) out of range for n=3"),
        ("3 2\n0 5\n0 5\n", "edge (0, 5) out of range for n=3"),
        ("-1 0\n", "vertex count must be non-negative"),
    ]:
        with pytest.raises(GraphFormatError) as caught:
            parse_graph(bad)
        assert type(caught.value) is GraphFormatError
        assert str(caught.value) == message, bad


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_pause_restores_the_collector_state(enabled):
    """The pause turns the collector off inside and leaves it as it found
    it, on or off, after a normal return and after an exception."""
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with _gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError):
            with _gc_paused():
                raise KeyError("inside the pause")
        assert gc.isenabled() is enabled
        assert parse_graph("2 1\n0 1\n") == path_graph(2)
        assert gc.isenabled() is enabled
        with pytest.raises(GraphFormatError):
            parse_graph("2 1\n1 0\n")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_format_sorted_regardless_of_input_order(rng: random.Random):
    edges = [(2, 5), (0, 1), (1, 4), (0, 3)]
    for _ in range(5):
        rng.shuffle(edges)
        assert format_graph(Graph(6, edges)) == "6 4\n0 1\n0 3\n1 4\n2 5\n"
