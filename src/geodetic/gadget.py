"""Hardness gadget graphs built from grid tiling instances.

The translation turns a k-by-k grid tiling instance (k even) into a graph
whose geodetic sets of size k^2 + 4 correspond exactly to valid tilings.
Layout:

* Four terminal vertices (two for the horizontal direction, two for the
  vertical), each carrying a pendant vertex.  The pendants are the only
  degree-one vertices, so they sit in every geodetic set.
* One tile vertex per cell entry.
* Four selector gadgets per cell: two copies each for the horizontal
  (to the cyclically next column) and vertical (next row) direction.  A
  gadget has two hub pairs, "near" and "far", each a plain hub plus a
  starred hub; the starred hub links to a terminal, alternating with cell
  parity.  Every entry of both attached cells is wired to both hub pairs by
  a path whose length encodes the entry value: near/far lengths 16m -/+ 2x
  for the gadget's own cell and 16m +/- 2x for the neighbor cell (vertical
  gadgets use the y value with a configurable coefficient).

A pair of tile vertices from adjacent cells is then at distance 32m + 2
through the gadget via both hub pairs when their encoded values agree, and
strictly closer through one pair when they differ.  Only the tied case puts
the plain hubs on shortest paths, which is what ties geodetic coverage to
tiling validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from geodetic.graph import (
    Graph,
    VerificationError,
    connected_components,
    diameter,
    induced_subgraph,
    interval_closure,
)
from geodetic.gridtiling import GridTilingInstance, Solution, grid_tiling_brute
from geodetic.oracle import pair_interval_masks

TERMINAL_KEYS = ("h0", "h1", "v0", "v1")


class GadgetError(ValueError):
    """Invalid build parameters."""


class GadgetBudgetError(RuntimeError):
    """Candidate enumeration would exceed the caller's budget."""


@dataclass
class GadgetGraph:
    graph: Graph
    instance: GridTilingInstance
    vertical_coefficient: int
    registry: dict[int, str]
    terminals: dict[str, int]
    pendants: dict[str, int]
    plain_hubs: tuple[int, ...]
    starred_hubs: tuple[int, ...]
    tile_ids: dict[tuple[int, int, int], int]  # (i, j, eta), all 1-based

    @property
    def k(self) -> int:
        return self.instance.k

    @property
    def m(self) -> int:
        return self.instance.m

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def k_prime(self) -> int:
        """Geodetic set size that encodes a valid tiling."""
        return self.k * self.k + 4

    def hub_count(self) -> int:
        return len(self.plain_hubs) + len(self.starred_hubs)


def expected_vertex_count(k: int, m: int, n: int) -> int:
    return 8 + k * k * n + 4 * k * k * (4 + 64 * m * n)


def expected_edge_count(k: int, m: int, n: int) -> int:
    return 4 + 4 * k * k * (64 * m * n + 8 * n + 2)


def build_gadget(
    inst: GridTilingInstance, vertical_coefficient: int = 1
) -> GadgetGraph:
    """Deterministically construct the gadget graph for an instance.

    ``vertical_coefficient`` scales the y encoding in vertical gadgets (the
    horizontal encoding is fixed at 2).  Both 1 and 2 yield a working
    selector; the coefficient never changes vertex or edge counts.

    Tiling budgets m >= 3 are rejected: there the canonical set of a valid
    tiling is not always geodetic (for instance with k = 2, m = 3, n = 1
    and the planted instance of seed 1), so the construction does not
    encode the instance.
    """
    if inst.k % 2 != 0:
        raise GadgetError("grid size k must be even for consistent parity wiring")
    if inst.m >= 3:
        raise GadgetError("tiling budget m >= 3 is not supported by the construction")
    if vertical_coefficient not in (1, 2):
        raise GadgetError("vertical coefficient must be 1 or 2")
    k, m, n = inst.k, inst.m, inst.n
    registry: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    counter = 0

    def new(name: str) -> int:
        nonlocal counter
        vid = counter
        counter += 1
        registry[vid] = name
        return vid

    terminals = {key: new(f"terminal:{key}") for key in TERMINAL_KEYS}
    pendants = {key: new(f"pendant:{key}") for key in TERMINAL_KEYS}
    for key in TERMINAL_KEYS:
        edges.append((terminals[key], pendants[key]))

    tile_ids: dict[tuple[int, int, int], int] = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for eta in range(1, n + 1):
                tile_ids[(i, j, eta)] = new(f"tile:{i},{j},{eta}")

    plain: list[int] = []
    starred: list[int] = []

    def add_path(hub: int, hub_star: int, u: int, length: int, prefix: str) -> None:
        # connector first: adjacent to both members of the hub pair
        t = new(f"{prefix},step=0")
        edges.append((hub, t))
        edges.append((hub_star, t))
        prev = t
        for step in range(1, length):
            w = new(f"{prefix},step={step}")
            edges.append((prev, w))
            prev = w
        edges.append((prev, u))

    def add_gadget(horizontal: bool, i: int, j: int, copy: int) -> None:
        # cell parity alternates the terminal attachment; adjacent cells in
        # either direction then reach opposite terminals through their short
        # sides, so no route can skip a selector by hopping terminal-to-
        # terminal between two short sides (k even keeps the wrap consistent)
        parity = (i + j) % 2
        if horizontal:
            tag = f"x,{i},{j},{copy}"
            own, other = (i, j), (i, j % k + 1)
            coef = 2
            value_of = lambda entry: entry[0]
            links = ("h0", "h1") if parity == 0 else ("h1", "h0")
        else:
            tag = f"y,{i},{j},{copy}"
            own, other = (i, j), (i % k + 1, j)
            coef = vertical_coefficient
            value_of = lambda entry: entry[1]
            links = ("v0", "v1") if parity == 0 else ("v1", "v0")
        near = new(f"hub:{tag},near,plain")
        near_star = new(f"hub:{tag},near,star")
        far = new(f"hub:{tag},far,plain")
        far_star = new(f"hub:{tag},far,star")
        plain.extend((near, far))
        starred.extend((near_star, far_star))
        edges.append((near_star, terminals[links[0]]))
        edges.append((far_star, terminals[links[1]]))
        for (ci, cj), is_own in ((own, True), (other, False)):
            for eta, entry in enumerate(inst.tiles[ci - 1][cj - 1], start=1):
                u = tile_ids[(ci, cj, eta)]
                value = coef * value_of(entry)
                near_len = 16 * m - value if is_own else 16 * m + value
                far_len = 16 * m + value if is_own else 16 * m - value
                where = f"cell={ci},{cj},eta={eta}"
                add_path(near, near_star, u, near_len, f"path:{tag},{where},side=near")
                add_path(far, far_star, u, far_len, f"path:{tag},{where},side=far")

    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for horizontal in (True, False):
                for copy in (1, 2):
                    add_gadget(horizontal, i, j, copy)

    graph = Graph(counter, edges)
    want = (expected_vertex_count(k, m, n), expected_edge_count(k, m, n))
    if (graph.n, graph.m) != want:
        raise VerificationError(
            f"gadget has (n, m) = ({graph.n}, {graph.m}), the formulas give {want}"
        )
    return GadgetGraph(
        graph=graph,
        instance=inst,
        vertical_coefficient=vertical_coefficient,
        registry=registry,
        terminals=terminals,
        pendants=pendants,
        plain_hubs=tuple(plain),
        starred_hubs=tuple(starred),
        tile_ids=tile_ids,
    )


def canonical_solution(
    gadget: GadgetGraph, solution: Solution | None = None
) -> tuple[int, ...]:
    """The four pendants plus one tile vertex per cell for a valid tiling."""
    inst = gadget.instance
    if solution is None:
        solution = grid_tiling_brute(inst)
        if solution is None:
            raise GadgetError("instance has no valid tiling")
    chosen = list(gadget.pendants.values())
    for i in range(1, inst.k + 1):
        for j in range(1, inst.k + 1):
            entry = solution[i - 1][j - 1]
            eta = inst.tiles[i - 1][j - 1].index(entry) + 1
            chosen.append(gadget.tile_ids[(i, j, eta)])
    if len(chosen) != gadget.k_prime:
        raise VerificationError(
            f"canonical set has {len(chosen)} vertices, not {gadget.k_prime}"
        )
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class StructureReport:
    vertex_count: int
    edge_count: int
    expected_vertices: int
    expected_edges: int
    degree_one_count: int
    hub_count: int
    hubs_removed_is_forest: bool
    pendant_closure_exact: bool
    diameter: int
    diameter_bound: int

    @property
    def ok(self) -> bool:
        return (
            self.vertex_count == self.expected_vertices
            and self.edge_count == self.expected_edges
            and self.degree_one_count == 4
            and self.hubs_removed_is_forest
            and self.pendant_closure_exact
            and self.diameter <= self.diameter_bound
        )


def verify_structure(gadget: GadgetGraph) -> StructureReport:
    """Measure the structural invariants the construction promises."""
    g = gadget.graph
    k, m, n = gadget.k, gadget.m, gadget.n
    degree_one = sum(1 for v in range(g.n) if g.degree(v) == 1)

    hubs = set(gadget.plain_hubs) | set(gadget.starred_hubs)
    sub = induced_subgraph(g, [v for v in range(g.n) if v not in hubs])
    forest = sub.m == sub.n - len(connected_components(sub))

    closure = interval_closure(g, gadget.pendants.values())
    expected_closure = frozenset(range(g.n)) - frozenset(gadget.plain_hubs)
    return StructureReport(
        vertex_count=g.n,
        edge_count=g.m,
        expected_vertices=expected_vertex_count(k, m, n),
        expected_edges=expected_edge_count(k, m, n),
        degree_one_count=degree_one,
        hub_count=gadget.hub_count(),
        hubs_removed_is_forest=forest,
        pendant_closure_exact=closure == expected_closure,
        diameter=diameter(g),
        diameter_bound=36 * m + 6,
    )


def exhaustive_no_check(gadget: GadgetGraph, budget: int = 10**4) -> bool:
    """True iff no pendants-plus-one-tile-per-cell candidate is geodetic.

    Enumerates all n^(k^2) candidate selections; raises
    :class:`GadgetBudgetError` if that count exceeds ``budget``.
    """
    inst = gadget.instance
    k, n = inst.k, inst.n
    total = n ** (k * k)
    if total > budget:
        raise GadgetBudgetError(f"{total} candidates exceed budget {budget}")
    g = gadget.graph
    cells = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
    pend = sorted(gadget.pendants.values())
    tiles = sorted(gadget.tile_ids.values())
    masks = pair_interval_masks(g, pend + tiles)
    full = (1 << g.n) - 1
    base = 0
    for a in pend:
        for b in pend:
            if a <= b:
                base |= masks[(a, b)]
    # what a tile covers with itself and the pendants, whatever else is chosen
    own = {}
    for u in tiles:
        cover = masks[(u, u)]
        for p in pend:
            cover |= masks[(min(u, p), max(u, p))]
        own[u] = cover
    per_cell = [
        [gadget.tile_ids[(i, j, eta)] for eta in range(1, n + 1)] for i, j in cells
    ]
    for combo in product(*per_cell):
        mask = base
        for idx, u in enumerate(combo):
            mask |= own[u]
            for v in combo[idx + 1 :]:
                mask |= masks[(min(u, v), max(u, v))]
        if mask == full:
            return False
    return True


def format_registry(gadget: GadgetGraph) -> str:
    """One ``id name`` line per vertex, in id order."""
    lines = [f"{vid} {gadget.registry[vid]}" for vid in sorted(gadget.registry)]
    return "\n".join(lines) + "\n"
