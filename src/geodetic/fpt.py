"""Exact geodetic set solver parameterized by the number of independent cycles.

The pipeline reduces the input to a fixpoint and then splits on what is
left.  Trees and lone cycles are closed forms.  Everything else goes
through guess enumeration: which unleafed branch vertices join the
solution, and how many solution vertices sit in the interior of each
unleafed segment.  A guess fixes the candidate size outright and leaves
only the exact placements open, which a small integer feasibility program
decides.  Before the program is built, every ordered pair of segment ends
is tested at the lower corner of the placement ranges; a pair shut there is
shut for every placement.  The guess is refuted when a target lies on no
open pair's route (``cover``) or a fixed placement deeper than one step has
no open pair leaving its end (``margin``).  Guesses are processed in order
of candidate size, so the first feasible one realizes the optimum of the
reduced graph.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

from geodetic.graph import (
    DisconnectedError,
    Graph,
    GraphError,
    VerificationError,
    is_connected,
    is_geodetic,
)
from geodetic.ilp import (
    BUDGET_EXHAUSTED,
    INFEASIBLE,
    IlpModel,
    solve as solve_ilp,
)
from geodetic.reduction import (
    FeedbackEdgeDecomposition,
    MutableGraph,
    lift_witness,
    reduce_to_fixpoint,
    solve_fen1_optimum,
    solve_tree,
)

OPTIMAL = "optimal"
UNKNOWN = "unknown"

# segment classes once a guess is fixed
LEAFED = "leafed"  # carries a pendant leaf; placements sit at the leafed extremes
EMPTY = "empty"  # no solution vertex inside; must be swept by outside geodesics
SINGLE = "single"  # exactly one interior solution vertex
PAIR = "pair"  # exactly two interior solution vertices

_COUNT_CLASS = (EMPTY, SINGLE, PAIR)

Expr = tuple[list[tuple[int, int]], int]
Anchor = tuple[int, int]  # end r of segment i, as (i, r)


@dataclass(frozen=True)
class GuessContext:
    """One point of the guess space, as plain data.

    ``chosen`` lists the unleafed branch vertices that join the solution;
    ``interior_counts`` maps each unleafed segment with no chosen endpoint
    to the number of solution vertices inside it.
    """

    chosen: tuple[int, ...]
    interior_counts: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PreparedInstance:
    """Fixpoint graph with everything the guess loop reads over and over.

    ``ends`` maps each segment end (i, r) to its vertex, the vertex at the
    segment's other end and the segment length h.  ``route_masks`` memoises
    :func:`_route_mask` per ordered pair of segment end vertices for
    :func:`refute_guess` and :func:`emit_ilp`, and ``open_masks`` memoises
    :func:`_open_mask` per ordered anchor pair and offsets for
    :func:`refute_guess`; both fill as guesses reach the pairs.
    """

    work: MutableGraph
    fed: FeedbackEdgeDecomposition
    open_branch: tuple[int, ...]
    empty_segments: tuple[int, ...]
    dist: dict[int, dict[int, int]]
    leaf_count: int
    ends: dict[Anchor, tuple[int, int, int]]
    route_masks: dict[tuple[int, int], int] = field(default_factory=dict)
    open_masks: dict[tuple[Anchor, int, Anchor, int], int] = field(
        default_factory=dict
    )


@dataclass
class AppliedGuess:
    """What a guess fixes on the fixpoint graph, which it leaves untouched.

    ``forced`` holds the solution vertices the guess decides outright: the
    chosen branch vertices and the pinned supports.  ``classes`` gives each
    segment's class, and ``leafed`` the sorted positions whose vertices
    count as leafed: the fixpoint's leafed positions, chosen ends and pins.
    """

    ctx: GuessContext
    forced: tuple[int, ...]
    classes: tuple[str, ...]
    leafed: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SolveResult:
    status: str
    optimum: int | None
    witness: tuple[int, ...] | None
    answer: bool | None
    algorithm: str
    stats: dict


def prepare(work: MutableGraph, fed: FeedbackEdgeDecomposition) -> PreparedInstance:
    """Precompute branch distances and the guessable pieces of a fixpoint."""
    for path in fed.paths:
        if path.is_loop:
            raise GraphError("loops survive only below two independent cycles")
    open_branch = tuple(v for v in fed.branch_vertices if not work.is_leafed(v))
    empties = tuple(p.index for p in fed.paths if not p.leaf_positions)
    dist = {b: fed.distances_from(work, b) for b in fed.branch_vertices}
    leaf_count = sum(1 for v in work.labels() if work.degree(v) == 1)
    ends = {}
    for p in fed.paths:
        ends[(p.index, 0)] = (p.left, p.right, p.h)
        ends[(p.index, 1)] = (p.right, p.left, p.h)
    return PreparedInstance(work, fed, open_branch, empties, dist, leaf_count, ends)


def _subset_shape(
    prep: PreparedInstance, chosen: tuple[int, ...]
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Base size, counted segments and their count caps for a branch subset.

    The base size is the candidate size with all counts zero: leaves,
    chosen vertices and pinned segments (see :func:`candidate_size`).  A
    segment with a chosen endpoint takes no count; any other unleafed
    segment of length h can hold up to min(2, h - 1).
    """
    st = set(chosen)
    base = prep.leaf_count + len(chosen)
    free: list[int] = []
    for i in prep.empty_segments:
        p = prep.fed.paths[i]
        if p.left in st or p.right in st:
            if p.h > prep.dist[p.left][p.right]:
                base += 1
        else:
            free.append(i)
    return base, tuple(free), tuple(min(2, prep.fed.paths[i].h - 1) for i in free)


def candidate_size(prep: PreparedInstance, ctx: GuessContext) -> int:
    """Size every feasible candidate of this guess must have.

    Leaves of the fixpoint graph and chosen branch vertices are all
    forced, and each untouched unleafed segment contributes exactly its
    guessed interior count.  A segment with a chosen endpoint and an
    interior longer than the outside distance adds one pinned vertex.
    """
    base, _free, _caps = _subset_shape(prep, ctx.chosen)
    return base + sum(c for _i, c in ctx.interior_counts)


def _route_mask(prep: PreparedInstance, va: int, vb: int) -> int:
    """The targets on a shortest va-vb path as a bitmask (see
    :func:`_target_mask`): empty segments with h >= 2 that such a path can
    cross end to end, and open branch vertices.  Stored in
    ``prep.route_masks``; callers look there first."""
    paths = prep.fed.paths
    row_a, row_b = prep.dist[va], prep.dist[vb]
    d = row_a[vb]
    mask = 0
    for i in prep.empty_segments:
        p = paths[i]
        if p.h >= 2 and row_a[p.left] + p.h + row_b[p.right] == d:
            mask |= 1 << i
    shift = len(paths)
    for j, v in enumerate(prep.open_branch):
        if row_a[v] + row_b[v] == d:
            mask |= 1 << (shift + j)
    prep.route_masks[(va, vb)] = mask
    return mask


def _target_mask(prep: PreparedInstance, applied: AppliedGuess) -> int:
    """The targets of a guess as a bitmask: bit i for an empty segment i
    with h >= 2, and bit ``len(paths) + j`` for ``open_branch[j]`` unchosen.
    Each target must lie on a claimed route."""
    paths = prep.fed.paths
    chosen = set(applied.ctx.chosen)
    mask = sum(
        1 << i for i, c in enumerate(applied.classes) if c == EMPTY and paths[i].h >= 2
    )
    shift = len(paths)
    return mask | sum(
        1 << (shift + j) for j, v in enumerate(prep.open_branch) if v not in chosen
    )


def _fixed_offsets(
    prep: PreparedInstance, applied: AppliedGuess
) -> dict[tuple[int, int], int]:
    """Placement offset of each end (i, r) of a leafed segment: the distance
    from that end to the nearest leafed position."""
    fixed = {}
    for i, c in enumerate(applied.classes):
        if c == LEAFED:
            fixed[(i, 0)] = applied.leafed[i][0]
            fixed[(i, 1)] = prep.fed.paths[i].h - applied.leafed[i][-1]
    return fixed


def _anchor_pairs(
    prep: PreparedInstance, classes: tuple[str, ...]
) -> list[tuple[Anchor, Anchor, int, int]]:
    """Ordered pairs of anchors, the ends (i, r) of every segment that is not
    empty, each with the two end vertices: first the pairs across segments
    in anchors x anchors order, then each end with the other end of its own
    segment.  :func:`emit_ilp` numbers its route gates in this order."""
    ends = [
        ((i, r), prep.ends[(i, r)][0])
        for i, c in enumerate(classes)
        if c != EMPTY
        for r in (0, 1)
    ]
    pairs = [(a, b, va, vb) for a, va in ends for b, vb in ends if a[0] != b[0]]
    for (a, va), (b, vb) in zip(ends[::2], ends[1::2]):
        pairs += [(a, b, va, vb), (b, a, vb, va)]
    return pairs


def _cross_shut(
    prep: PreparedInstance,
    a: tuple[int, int],
    b: tuple[int, int],
    xa: int,
    xb: int,
) -> bool:
    """Whether the through route between two fixed placements, at offsets
    ``xa`` from end a and ``xb`` from end b, is longer than a detour around
    a segment end, so that the pair can never claim it."""
    dist = prep.dist
    va, wa, ha = prep.ends[a]
    vb, wb, hb = prep.ends[b]
    length = xa + dist[va][vb] + xb
    alts = (
        xa + dist[va][wb] + hb - xb,
        ha - xa + dist[wa][vb] + xb,
        ha - xa + dist[wa][wb] + hb - xb,
    )
    return length > min(alts)


def _self_shut(prep: PreparedInstance, i: int, xl: int, xr: int) -> bool:
    """Whether the outside route between two fixed placements of segment i,
    at offsets ``xl`` and ``xr`` from its ends, is longer than the inside."""
    p = prep.fed.paths[i]
    return xl + prep.dist[p.left][p.right] + xr > p.h - xl - xr


def _open_mask(
    prep: PreparedInstance, a: Anchor, xa: int, b: Anchor, xb: int, va: int, vb: int
) -> int:
    """The route mask of the ordered anchor pair (a, b) with placements at
    offsets ``xa`` and ``xb``, or -1 when its gate is shut there.  Stored in
    ``prep.open_masks``; callers look there first.  A shut pair's route mask
    is never worked out."""
    if a[0] == b[0]:
        shut = _self_shut(prep, a[0], xa, xb)
    else:
        shut = _cross_shut(prep, a, b, xa, xb)
    mask = -1
    if not shut:
        mask = prep.route_masks.get((va, vb))
        if mask is None:
            mask = _route_mask(prep, va, vb)
    prep.open_masks[(a, xa, b, xb)] = mask
    return mask


def refute_guess(prep: PreparedInstance, applied: AppliedGuess) -> str | None:
    """Why the guess's program is infeasible at its root, without building it.

    Every ordered anchor pair is tested at the lower corner of the placement
    ranges: a leafed end at its fixed offset, any other end at 1, the least
    offset its ``>= 1`` row allows.  Each gap :func:`_cross_shut` and
    :func:`_self_shut` compare is nondecreasing in both offsets, so a pair
    shut at that corner is shut for every placement, which is the
    ``gate <= 0`` that root propagation derives; any other pair is open.
    Returns ``"cover"`` when a target lies on no open pair's route,
    ``"margin"`` when a fixed offset above 1 has no open pair leaving its
    end, and None otherwise.  Each case is a row of the program that root
    propagation proves infeasible.
    """
    fixed = _fixed_offsets(prep, applied)
    memo = prep.open_masks
    reach = 0
    leaving = set()
    for a, b, va, vb in _anchor_pairs(prep, applied.classes):
        xa, xb = fixed.get(a, 1), fixed.get(b, 1)
        mask = memo.get((a, xa, b, xb))
        if mask is None:
            mask = _open_mask(prep, a, xa, b, xb, va, vb)
        if mask >= 0:
            reach |= mask
            leaving.add(a)
    if _target_mask(prep, applied) & ~reach:
        return "cover"
    if any(x > 1 and a not in leaving for a, x in fixed.items()):
        return "margin"
    return None


def apply_guess(prep: PreparedInstance, ctx: GuessContext) -> AppliedGuess:
    """Work out what a guess forces, without editing the fixpoint graph.

    Chosen branch vertices are forced and count as leafed.  An unleafed
    segment with a chosen endpoint and a strictly shorter outside route
    forces one more, pinned vertex: at the midpoint when both ends are
    chosen, otherwise at the deepest position the chosen end can still
    cover.  Forcing a vertex acts as a pendant leaf there would: a leaf l
    at s has I(l, x) = {l} | I(s, x) and changes no other distance.
    """
    st = set(ctx.chosen)
    counts = dict(ctx.interior_counts)
    forced = list(ctx.chosen)
    classes: list[str] = []
    leafed: list[tuple[int, ...]] = []
    for p in prep.fed.paths:
        h = p.h
        positions = set(p.leaf_positions)
        if p.left in st:
            positions.add(0)
        if p.right in st:
            positions.add(h)
        if not p.leaf_positions and positions:
            d = prep.dist[p.left][p.right]
            if h > d:
                if p.left in st and p.right in st:
                    pos = h // 2
                elif p.left in st:
                    pos = (h + d) // 2
                else:
                    pos = h - (h + d) // 2
                forced.append(p.vertices[pos])
                positions.add(pos)
        if positions:
            classes.append(LEAFED)
        else:
            classes.append(_COUNT_CLASS[counts[p.index]])
        leafed.append(tuple(sorted(positions)))
    return AppliedGuess(ctx, tuple(forced), tuple(classes), tuple(leafed))


def emit_ilp(prep: PreparedInstance, applied: AppliedGuess) -> tuple[IlpModel, dict]:
    """Build the placement feasibility program for one applied guess.

    Variables, in id order: route claims for the ordered anchor pairs of
    :func:`_anchor_pairs` (across segments, then within a segment),
    short-margin flags, route comparison helpers, and last the two
    placement offsets of every single and pair segment.  Placements of
    leafed segments are constants and fold into the rows instead of
    becoming variables.
    """
    paths = prep.fed.paths
    dist = prep.dist
    classes = applied.classes
    # the edge count of the fixpoint with a leaf at every forced vertex
    big = 100 * (prep.work.m + len(applied.forced))
    active = [i for i, c in enumerate(classes) if c != EMPTY]
    anchors = [(i, r) for i in active for r in (0, 1)]
    pairs = _anchor_pairs(prep, classes)
    model = IlpModel([], [])

    gates = [model.add_variable(0, 1) for _ in pairs]
    z_cross: dict[tuple[Anchor, Anchor], int] = {}
    z_self: dict[Anchor, int] = {}
    cross_from: dict[Anchor, list[int]] = {a: [] for a in anchors}
    for (a, b, _va, _vb), gate in zip(pairs, gates):
        if a[0] != b[0]:
            z_cross[(a, b)] = gate
            cross_from[a].append(gate)
        else:
            z_self[a] = gate
    margin_ok = {a: model.add_variable(0, 1) for a in anchors}
    helper = {}
    for pair in z_cross:
        if classes[pair[0][0]] != LEAFED or classes[pair[1][0]] != LEAFED:
            helper[pair] = tuple(model.add_variable(0, 1) for _ in range(3))
    fixed = _fixed_offsets(prep, applied)
    placed: dict[Anchor, int] = {}
    for i in active:
        if classes[i] != LEAFED:
            h = paths[i].h
            placed[(i, 0)] = model.add_variable(0, h)
            placed[(i, 1)] = model.add_variable(0, h)

    def offset(a: Anchor) -> Expr:
        if a in fixed:
            return [], fixed[a]
        return [(placed[a], 1)], 0

    def neg(expr: Expr) -> Expr:
        terms, const = expr
        return [(v, -c) for v, c in terms], -const

    def route_gap(gate: int, plus: list[Expr], minus: list[Expr]) -> None:
        """Add sum(plus) - sum(minus) <= big * (1 - gate), folding constants."""
        terms: list[tuple[int, int]] = []
        const = 0
        for t, c in plus:
            terms.extend(t)
            const += c
        for t, c in minus:
            terms.extend((v, -k) for v, k in t)
            const -= c
        if terms:
            model.add_constraint(terms + [(gate, big)], "<=", big - const)
        elif const > 0:
            model.add_constraint([(gate, 1)], "<=", 0)

    # placement ranges and interior spacing per open segment
    for i in active:
        if classes[i] == LEAFED:
            continue
        h = paths[i].h
        d = dist[paths[i].left][paths[i].right]
        xl, xr = placed[(i, 0)], placed[(i, 1)]
        model.add_constraint([(xl, 1)], ">=", 1)
        model.add_constraint([(xr, 1)], ">=", 1)
        if classes[i] == SINGLE:
            model.add_constraint([(xl, 1), (xr, 1)], "<=", h)
            model.add_constraint([(xl, 1), (xr, 1)], ">=", h)
        else:
            model.add_constraint([(xl, 1), (xr, 1)], "<=", h - 1)
            model.add_constraint([(xl, -2), (xr, -2)], "<=", d - h)

    # an ordered cross pair may claim its through route only if that route
    # is no longer than any of the three detours around a segment end;
    # within one segment, the outside route between the two placements may
    # be claimed only if it is no longer than the inside stretch.  Every
    # target (see _target_mask) must lie on a claimed route: one covering
    # row per target, in bit order.
    targets = _target_mask(prep, applied)
    cover = {1 << t: [] for t in range(targets.bit_length()) if targets >> t & 1}
    for (a, b, va, vb), gate in zip(pairs, gates):
        mask = prep.route_masks.get((va, vb))
        if mask is None:
            mask = _route_mask(prep, va, vb)
        hit = mask & targets
        while hit:
            cover[hit & -hit].append((gate, 1))
            hit &= hit - 1
        ia, ib = a[0], b[0]
        if ia == ib:
            if a in fixed:
                if _self_shut(prep, ia, fixed[a], fixed[b]):
                    model.add_constraint([(gate, 1)], "<=", 0)
            else:
                row = [(placed[a], 2), (placed[b], 2), (gate, big)]
                model.add_constraint(row, "<=", big + paths[ia].h - dist[va][vb])
        elif (a, b) not in helper:
            if _cross_shut(prep, a, b, fixed[a], fixed[b]):
                model.add_constraint([(gate, 1)], "<=", 0)
        else:
            wa, ha = prep.ends[a][1:]
            wb, hb = prep.ends[b][1:]
            through = [offset(a), offset(b), ([], dist[va][vb])]
            detours = (
                [offset(a), neg(offset(b)), ([], dist[va][wb] + hb)],
                [neg(offset(a)), offset(b), ([], dist[wa][vb] + ha)],
                [neg(offset(a)), neg(offset(b)), ([], dist[wa][wb] + ha + hb)],
            )
            for flag, detour in zip(helper[(a, b)], detours):
                route_gap(flag, through, detour)
            f1, f2, f3 = helper[(a, b)]
            model.add_constraint([(f1, 1), (f2, 1), (f3, 1), (gate, -3)], ">=", 0)
    for terms in cover.values():
        model.add_constraint(terms, ">=", 1)

    # a placement deeper than one step from its segment end needs a claimed
    # route leaving through that end
    for a in anchors:
        flag = margin_ok[a]
        if a in fixed:
            if fixed[a] > 1:
                model.add_constraint([(flag, 1)], "<=", 0)
        else:
            model.add_constraint([(placed[a], 1), (flag, big)], "<=", big + 1)
        terms = [(flag, 1)]
        terms.extend((gate, 1) for gate in cross_from[a])
        terms.append((z_self[a], 1))
        model.add_constraint(terms, ">=", 1)

    meta = {
        "active": tuple(active),
        "fixed": dict(fixed),
        "placed": dict(placed),
    }
    return model, meta


def reconstruct(
    prep: PreparedInstance,
    applied: AppliedGuess,
    assignment: dict[int, int],
    meta: dict,
) -> tuple[int, ...]:
    """Resolve a feasible assignment into a solution of the fixpoint graph:
    its leaves, the forced vertices and the placements."""
    classes = applied.classes

    def value(key: tuple[int, int]) -> int:
        if key in meta["fixed"]:
            return meta["fixed"][key]
        return assignment[meta["placed"][key]]

    solution = {v for v in prep.work.labels() if prep.work.degree(v) == 1}
    solution.update(applied.forced)
    for i in meta["active"]:
        if classes[i] == LEAFED:
            continue
        path = prep.fed.paths[i]
        lo = value((i, 0))
        hi = path.h - value((i, 1))
        if classes[i] == SINGLE:
            assert lo == hi
            solution.add(path.vertices[lo])
        else:
            assert lo < hi
            solution.update((path.vertices[lo], path.vertices[hi]))
    assert len(solution) == candidate_size(prep, applied.ctx)
    return tuple(sorted(solution))


def _fill_right(
    counts: list[int], caps: tuple[int, ...], start: int, total: int
) -> None:
    """Spread ``total`` over ``counts[start:]``, as far right as the caps allow."""
    for j in range(len(counts) - 1, start - 1, -1):
        counts[j] = min(caps[j], total)
        total -= counts[j]


def _count_tuples(caps: tuple[int, ...], total: int) -> Iterator[tuple[int, ...]]:
    """Every count tuple bounded by ``caps`` with sum ``total``, lexicographically.

    ``total`` must not exceed ``sum(caps)``.  Each step moves one unit from
    the suffix into the rightmost position that can still grow and packs
    the rest of the suffix to the right again.
    """
    counts = [0] * len(caps)
    _fill_right(counts, caps, 0, total)
    while True:
        yield tuple(counts)
        tail = 0
        for i in range(len(counts) - 1, -1, -1):
            if tail and counts[i] < caps[i]:
                counts[i] += 1
                _fill_right(counts, caps, i + 1, tail - 1)
                break
            tail += counts[i]
        else:
            return


def _effective_items(
    prep: PreparedInstance,
) -> Iterator[tuple[int, tuple, GuessContext]]:
    """Every guess once, lazily, by candidate size then guess order.

    Guess order takes branch subsets by size then numeric pattern, and
    within a subset the interior counts by total then lexicographically;
    the yielded ``seq`` is that order's sort key.  A segment with a chosen
    endpoint gets no count: neither :func:`apply_guess` nor
    :func:`candidate_size` would read it, so guesses differing only there
    would be the same guess.  A segment of length h gets only the counts
    its h - 1 interior vertices can hold, at most two.

    A subset fixes a base size (leaves, chosen vertices, pinned segments),
    and each of its guesses adds its count total.  A heap keyed by
    ``(size, subset size, pattern)`` holds one entry per subset, its next
    count total; popping it yields that total's count tuples and pushes
    the next total.  Subsets of size p enter the heap only when its
    smallest size reaches ``leaf_count + p``, the least size any of them
    can have, so memory stays bounded by the subsets opened so far.  An
    entry keeps only the chosen vertices; the segments are worked out
    again when it is popped.
    """
    nb = len(prep.open_branch)
    heap: list[tuple[int, int, int, int, tuple[int, ...]]] = []
    layer = 0
    while True:
        while layer <= nb and (not heap or heap[0][0] >= prep.leaf_count + layer):
            for bits in itertools.combinations(range(nb), layer):
                chosen = tuple(prep.open_branch[b] for b in bits)
                base, _free, _caps = _subset_shape(prep, chosen)
                mask = sum(1 << b for b in bits)
                heapq.heappush(heap, (base, layer, mask, 0, chosen))
            layer += 1
        if not heap:
            return
        size, popcount, mask, total, chosen = heapq.heappop(heap)
        _base, free, caps = _subset_shape(prep, chosen)
        for counts in _count_tuples(caps, total):
            ctx = GuessContext(chosen, tuple(zip(free, counts)))
            yield candidate_size(prep, ctx), (popcount, mask, total, counts), ctx
        if total < sum(caps):
            heapq.heappush(heap, (size + 1, popcount, mask, total + 1, chosen))


# where a guess ended, each counted in ``SolveResult.stats`` under its name
OUTCOMES = (
    "guesses_refuted_cover",
    "guesses_refuted_margin",
    "ilp_root_infeasible",
    "ilp_search_infeasible",
    "ilp_feasible",
    "ilp_budget_exhausted",
)


def _process_guess(
    prep: PreparedInstance, ctx: GuessContext, node_budget: int | None
) -> tuple[str, int, tuple[int, ...] | None]:
    """Decide one guess: its outcome (see ``OUTCOMES``), the ILP nodes it
    took and, when feasible, the certified solution of the fixpoint graph."""
    applied = apply_guess(prep, ctx)
    refuted = refute_guess(prep, applied)
    if refuted is not None:
        return f"guesses_refuted_{refuted}", 0, None
    model, meta = emit_ilp(prep, applied)
    res = solve_ilp(model, node_budget=node_budget)
    if res.status == BUDGET_EXHAUSTED:
        return "ilp_budget_exhausted", res.nodes, None
    if res.status == INFEASIBLE:
        kind = "ilp_search_infeasible" if res.nodes else "ilp_root_infeasible"
        return kind, res.nodes, None
    assert res.assignment is not None
    solution = reconstruct(prep, applied, res.assignment, meta)
    graph, labels = prep.work.to_graph()
    index = {lab: j for j, lab in enumerate(labels)}
    if not is_geodetic(graph, [index[v] for v in solution]):
        raise VerificationError(f"reduced-graph solution {solution} is not geodetic")
    return "ilp_feasible", res.nodes, solution


def _solve_guesses(
    prep: PreparedInstance, node_budget: int | None
) -> tuple[str, int | None, tuple[int, ...] | None, int | None, dict]:
    best: int | None = None
    best_witness: tuple[int, ...] | None = None
    min_exhausted: int | None = None
    nodes_total = 0
    generated = 0
    outcomes = dict.fromkeys(OUTCOMES, 0)
    for size, _seq, ctx in _effective_items(prep):
        kind, nodes, witness = _process_guess(prep, ctx, node_budget)
        generated += 1
        nodes_total += nodes
        outcomes[kind] += 1
        if kind == "ilp_budget_exhausted":
            min_exhausted = size if min_exhausted is None else min(min_exhausted, size)
        elif kind == "ilp_feasible":
            best, best_witness = size, witness
            break
    if best is None and min_exhausted is None:
        raise AssertionError("guess space exhausted without a feasible candidate")
    status = OPTIMAL
    if best is None or (min_exhausted is not None and min_exhausted < best):
        status = UNKNOWN
    stats = {
        "guesses_generated": generated,
        "ilp_nodes": nodes_total,
        **outcomes,
    }
    return status, best, best_witness, min_exhausted, stats


def solve_fpt(
    g: Graph,
    k: int | None = None,
    *,
    node_budget: int | None = None,
) -> SolveResult:
    """Minimum geodetic set of a connected graph, with a verified witness.

    ``k`` only affects the reported yes/no answer.  ``node_budget`` caps
    the search effort per guess; when it bites, the status degrades to
    unknown instead of risking a wrong optimum.  A witness that fails its
    check, on the reduced graph or on ``g``, raises
    :class:`~geodetic.graph.VerificationError`.
    """
    if g.n == 0:
        raise GraphError("empty graph has no geodetic set")
    if not is_connected(g):
        raise DisconnectedError("solver requires a connected graph")
    # connected, so the feedback edge number is m - n + 1
    stats: dict = {"fen": g.m - g.n + 1}
    if g.n == 1:
        return SolveResult(
            OPTIMAL, 1, (0,), None if k is None else k >= 1, "single", stats
        )
    red = reduce_to_fixpoint(g)
    stats["k_decrease"] = red.k_decrease
    stats["trace_length"] = len(red.trace)
    lower: int | None = None
    if red.decomposition is None:
        # the fixpoint is connected, so it is a tree exactly when m = n - 1
        if red.graph.m == red.graph.n - 1:
            algorithm = "tree"
            size_r, witness_r = solve_tree(red.graph)
        else:
            algorithm = "cycle"
            size_r, witness_r = solve_fen1_optimum(red.graph)
        status = OPTIMAL
    else:
        algorithm = "guess-ilp"
        prep = prepare(red.graph, red.decomposition)
        status, size_r, witness_r, lower, gstats = _solve_guesses(prep, node_budget)
        stats.update(gstats)
    if size_r is None:
        answer = None
        if k is not None and lower is not None and lower + red.k_decrease > k:
            answer = False
        return SolveResult(UNKNOWN, None, None, answer, algorithm, stats)
    witness = lift_witness(red.trace, witness_r)
    optimum = size_r + red.k_decrease
    if len(witness) != optimum:
        raise VerificationError(
            f"lifted witness has {len(witness)} vertices, optimum is {optimum}"
        )
    if not is_geodetic(g, witness):
        raise VerificationError(f"lifted witness {witness} is not geodetic")
    answer: bool | None = None
    if k is not None:
        if optimum <= k:
            answer = True
        elif status == OPTIMAL:
            answer = False
    return SolveResult(status, optimum, witness, answer, algorithm, stats)
