"""Exact geodetic set solver parameterized by the number of independent cycles.

The pipeline reduces the input to a fixpoint and then splits on what is
left.  Trees and lone cycles are closed forms.  Everything else goes
through guess enumeration: which unleafed branch vertices join the
solution, and how many solution vertices sit in the interior of each
segment they leave unleafed.  A guess is one record: a branch subset's
record, what the subset forces, is worked out once with every count at 0,
and each of its guesses lays its counts over a copy.  A guess fixes the
candidate size outright and leaves only the exact placements open, which
a small integer feasibility program decides.  Before the program is
built, every ordered pair of segment ends is tested at the lower corner
of the placement ranges; a pair shut there is shut for every placement.
The guess is refuted when a target lies on no open pair's route
(``cover``) or a fixed placement deeper than one step has no open pair
leaving its end (``margin``).  Otherwise an open pair of two fixed
placements claims its route outright, and the program holds a 0/1 gate
per open pair with a placed end and the placements of the single and pair
segments, nothing else.  Guesses are processed by candidate size, so the
first feasible one realizes the optimum of the reduced graph.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import reduce
from operator import itemgetter, or_

from geodetic.graph import (
    Graph,
    GraphError,
    VerificationError,
    interval_closure,
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


@dataclass(frozen=True)
class PreparedInstance:
    """Fixpoint graph with everything the guess loop reads over and over.

    Segment i has length ``h[i]``, and its two ends lie ``d[i]`` apart in
    the graph.  Its ends, the anchors, are numbered ``a = 2*i + r`` for
    end r (0 at ``left``, 1 at ``right``): ``end[a]`` is the anchor's
    vertex and ``end[a ^ 1]`` the vertex at the other end of its segment.

    ``gaps[a * len(end) + b]`` is the gap triple of an ordered pair of
    anchors on different segments: the through route between placements at
    offsets 0 from a and from b, minus each of the three detours around a
    segment end (see :class:`_OpenRow`); None within one segment.
    Placements at offsets xa and xb add ``2*xb``, ``2*xa`` and
    ``2*xa + 2*xb`` to the three gaps, so the triple serves the shut test
    and the model's detour rows alike.

    ``route_masks`` memoises :func:`_route_mask` per ordered pair of segment
    end vertices.  ``open_rows`` memoises the shut tests for
    :func:`refute_guess` and :func:`emit_ilp`: the row of anchor a at offset
    x sits under the key ``a * width + x``, with ``width = max(h) + 1``, and
    maps the key ``b * width + xb`` of an anchor b at offset xb to the
    pair's route mask with the bit ``open_bit`` (just above the target bits)
    set, or to 0 when the pair is shut there or b = a.  Its rows start empty
    and fill as guesses reach the pairs (see :class:`_OpenRow`).
    """

    work: MutableGraph
    fed: FeedbackEdgeDecomposition
    open_branch: tuple[int, ...]
    empty_segments: tuple[int, ...]
    dist: dict[int, dict[int, int]]
    leaf_count: int
    end: tuple[int, ...]
    h: tuple[int, ...]
    d: tuple[int, ...]
    gaps: tuple[tuple[int, int, int] | None, ...]
    width: int
    open_bit: int
    route_masks: dict[tuple[int, int], int] = field(default_factory=dict)
    open_rows: dict[int, _OpenRow] = field(default_factory=dict)


@dataclass
class AppliedGuess:
    """A guess and what it fixes on the fixpoint graph, which it leaves untouched.

    ``chosen`` lists the unleafed branch vertices that join the solution;
    ``interior_counts`` maps each unleafed segment with no chosen endpoint
    to the number of solution vertices inside it.  ``forced``, the chosen
    branch vertices and the pinned supports, and ``offsets`` depend on the
    branch subset alone; ``classes`` gives each segment's class.
    ``offsets[a]`` is anchor a's offset at the lower corner of the
    placement ranges: on a leafed segment, the fixed distance from that
    end to the nearest leafed position (a leaf of the fixpoint, a chosen
    end or a pin); on any other, 1, the least its placement's domain
    allows.  ``targets`` is the bitmask of what must lie on a
    claimed route: bit i for an empty segment i with h >= 2, and bit
    ``len(paths) + j`` for ``open_branch[j]`` unchosen.  ``anchors`` lists,
    in increasing order, the anchors of the segments that are not empty:
    the ends between which routes can be claimed.
    """

    chosen: tuple[int, ...]
    interior_counts: tuple[tuple[int, int], ...]
    forced: tuple[int, ...]
    classes: tuple[str, ...]
    offsets: tuple[int, ...]
    targets: int
    anchors: tuple[int, ...]


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
    end = tuple(v for p in fed.paths for v in (p.left, p.right))
    h = tuple(p.h for p in fed.paths)
    d = tuple(dist[p.left][p.right] for p in fed.paths)
    other = [end[a ^ 1] for a in range(len(end))]
    seg_h = [h[a >> 1] for a in range(len(end))]
    gaps: list[tuple[int, int, int] | None] = []
    for a, va in enumerate(end):
        from_v, from_w, ha = dist[va], dist[other[a]], seg_h[a]
        row: list[tuple[int, int, int] | None] = [
            (
                from_v[vb] - from_v[wb] - hb,
                from_v[vb] - from_w[vb] - ha,
                from_v[vb] - from_w[wb] - ha - hb,
            )
            for vb, wb, hb in zip(end, other, seg_h)
        ]
        row[a & ~1] = row[a | 1] = None
        gaps += row
    width = max(h, default=0) + 1
    open_bit = 1 << (len(h) + len(open_branch))
    prep = PreparedInstance(
        work, fed, open_branch, empties, dist, leaf_count, end, h, d,
        tuple(gaps), width, open_bit,
    )
    prep.open_rows.update(
        (a * width + x, _OpenRow(prep, a, x))
        for a in range(len(end))
        for x in range(seg_h[a] + 1)
    )
    return prep


def _pin(prep: PreparedInstance, i: int, left: bool, right: bool) -> int | None:
    """Where an unleafed segment i with its ``left`` or ``right`` end chosen
    forces a pinned vertex, if its outside route is strictly shorter: at the
    midpoint when both ends are chosen, else as deep as the chosen end covers."""
    h, d = prep.h[i], prep.d[i]
    if not (left or right) or h <= d:
        return None
    if left and right:
        return h // 2
    return (h + d) // 2 if left else h - (h + d) // 2


def _base_size(prep: PreparedInstance, chosen: tuple[int, ...]) -> int:
    """Candidate size of a subset's guess with every count at 0, before its
    record is built: the leaves, the chosen vertices and the pins."""
    st, end = set(chosen), prep.end
    return prep.leaf_count + len(chosen) + sum(
        _pin(prep, i, end[2 * i] in st, end[2 * i + 1] in st) is not None
        for i in prep.empty_segments
    )


def candidate_size(prep: PreparedInstance, guess: AppliedGuess) -> int:
    """Size every feasible candidate of this guess must have: the leaves,
    the forced vertices and the count total."""
    return prep.leaf_count + len(guess.forced) + sum(
        c for _i, c in guess.interior_counts
    )


def _route_mask(prep: PreparedInstance, va: int, vb: int) -> int:
    """The targets on a shortest va-vb path as a bitmask (see
    ``AppliedGuess.targets``): empty segments with h >= 2 that such a path
    can cross end to end, and open branch vertices.  Stored in
    ``prep.route_masks``; callers look there first."""
    end, hs = prep.end, prep.h
    row_a, row_b = prep.dist[va], prep.dist[vb]
    d = row_a[vb]
    mask = 0
    for i in prep.empty_segments:
        if hs[i] >= 2 and row_a[end[2 * i]] + hs[i] + row_b[end[2 * i + 1]] == d:
            mask |= 1 << i
    shift = len(hs)
    for j, v in enumerate(prep.open_branch):
        if row_a[v] + row_b[v] == d:
            mask |= 1 << (shift + j)
    prep.route_masks[(va, vb)] = mask
    return mask


def _self_shut(prep: PreparedInstance, i: int, xl: int, xr: int) -> bool:
    """Whether the outside route between two fixed placements of segment i,
    at offsets ``xl`` and ``xr`` from its ends, is longer than the inside."""
    return xl + prep.d[i] + xr > prep.h[i] - xl - xr


class _OpenRow(dict):
    """The ``open_rows`` row of anchor ``a`` at offset ``xa``.  A missing
    key ``b * width + xb`` is worked out on its first read: 0 when b = a or
    the pair is shut there, else the pair's route mask with ``open_bit``
    set, so a shut pair's route mask is never worked out.  A pair across
    segments is shut when its through route is longer than a detour around
    a segment end: one of its gaps (see ``PreparedInstance.gaps``) is
    positive at these offsets.  A pair within a segment is shut as
    :func:`_self_shut` says."""

    __slots__ = ("prep", "a", "xa", "gap_row")

    def __init__(self, prep: PreparedInstance, a: int, xa: int) -> None:
        self.prep, self.a, self.xa = prep, a, xa
        self.gap_row = a * len(prep.end)

    def __missing__(self, key: int) -> int:
        prep, xa = self.prep, self.xa
        b = key // prep.width
        xb = key - b * prep.width
        gap = prep.gaps[self.gap_row + b]
        if gap is not None:
            g1, g2, g3 = gap
            shut = g1 + 2 * xb > 0 or g2 + 2 * xa > 0 or g3 + 2 * (xa + xb) > 0
        else:
            shut = b == self.a or _self_shut(prep, b >> 1, xa, xb)
        entry = 0
        if not shut:
            va, vb = prep.end[self.a], prep.end[b]
            mask = prep.route_masks.get((va, vb))
            if mask is None:
                mask = _route_mask(prep, va, vb)
            entry = mask | prep.open_bit
        self[key] = entry
        return entry


def refute_guess(prep: PreparedInstance, applied: AppliedGuess) -> str | None:
    """Why the guess's program is infeasible at its root, without building it.

    Every ordered pair of ``applied.anchors`` on different segments, and
    every anchor with the other end of its own segment, is tested at
    ``applied.offsets``, the lower corner of the placement ranges.  Each gap
    the shut tests of :class:`_OpenRow` compare is nondecreasing in both
    offsets, so a pair shut at that corner is shut for every placement,
    which is the ``gate <= 0`` that root propagation derives; any other pair
    is open.  Returns ``"cover"`` when a target lies on no open pair's
    route (the OR of the ``open_rows`` entries), ``"margin"`` when a fixed
    offset above 1 has no open pair leaving its end, and None otherwise.
    Each case is a row of the program that root propagation proves
    infeasible.
    """
    offsets, anchors = applied.offsets, applied.anchors
    reach = 0
    margin = False
    if anchors:
        width, open_bit, rows = prep.width, prep.open_bit, prep.open_rows
        keys = [b * width + offsets[b] for b in anchors]
        # anchors come in pairs, so the getter always returns a tuple
        get = itemgetter(*keys)
        for a, key in zip(anchors, keys):
            union = reduce(or_, get(rows[key]))
            reach |= union
            if not union & open_bit and offsets[a] > 1:
                margin = True
    if applied.targets & ~reach:
        return "cover"
    if margin:
        return "margin"
    return None


def _subset_record(prep: PreparedInstance, chosen: tuple[int, ...]) -> AppliedGuess:
    """What a branch subset forces, as its guess with every count at 0.

    Chosen branch vertices are forced and count as leafed.  An unleafed
    segment with a chosen endpoint may force one more, pinned vertex, where
    :func:`_pin` says.  Forcing a vertex acts as a pendant leaf there
    would: a leaf l at s has I(l, x) = {l} | I(s, x) and changes no other
    distance.  Every other unleafed segment is counted, here empty.
    """
    st = set(chosen)
    forced = list(chosen)
    classes: list[str] = []
    offsets: list[int] = []
    anchors: list[int] = []
    counts: list[tuple[int, int]] = []
    targets = 0
    for p in prep.fed.paths:
        i = p.index
        h = prep.h[i]
        left, right = prep.end[2 * i] in st, prep.end[2 * i + 1] in st
        positions = set(p.leaf_positions)
        if left:
            positions.add(0)
        if right:
            positions.add(h)
        pos = None if p.leaf_positions else _pin(prep, i, left, right)
        if pos is not None:
            forced.append(p.vertices[pos])
            positions.add(pos)
        if positions:
            classes.append(LEAFED)
            offsets += (min(positions), h - max(positions))
            anchors += (2 * i, 2 * i + 1)
        else:
            classes.append(EMPTY)
            offsets += (1, 1)
            counts.append((i, 0))
            if h >= 2:
                targets |= 1 << i
    for j, v in enumerate(prep.open_branch):
        if v not in st:
            targets |= 1 << (len(classes) + j)
    return AppliedGuess(
        chosen, tuple(counts), tuple(forced), tuple(classes), tuple(offsets),
        targets, tuple(anchors),
    )


def apply_guess(record: AppliedGuess, counts: tuple[int, ...]) -> AppliedGuess:
    """The guess of a subset's record with ``counts``, one per counted
    segment in ``record.interior_counts`` order, laid over it: a segment
    counted above 0 turns single or pair, stops being a target and adds
    anchors."""
    classes = list(record.classes)
    targets = record.targets
    anchors = list(record.anchors)
    interior = tuple((i, c) for (i, _zero), c in zip(record.interior_counts, counts))
    for i, c in interior:
        if c:
            classes[i] = _COUNT_CLASS[c]
            targets &= ~(1 << i)
            anchors += (2 * i, 2 * i + 1)
    anchors.sort()
    return AppliedGuess(
        record.chosen, interior, record.forced, tuple(classes),
        record.offsets, targets, tuple(anchors),
    )


def emit_ilp(
    prep: PreparedInstance, applied: AppliedGuess
) -> tuple[IlpModel, dict[int, int]]:
    """Build the placement feasibility program for one applied guess.

    The program holds the ordered pairs of ``applied.anchors`` that are
    open at ``applied.offsets``, the lower corner of the placement ranges:
    first the pairs across segments in anchors x anchors order, then each
    anchor with the other end of its own segment.  Each pair's verdict and
    route mask come from the ``open_rows`` rows :func:`refute_guess` reads.
    A pair shut at the corner is shut for every placement, and root
    propagation would pin its gate at 0, so it gets no gate and no rows.

    Placements of leafed segments are fixed: they are the constants
    ``applied.offsets`` and fold into the rows.  A pair of two fixed ends
    open at the corner is open at its real placement, so its route is
    claimed outright: it gets no gate, its targets no covering row and its
    first anchor no margin row.  A cross pair gets a row for each detour
    that some placement in range makes shorter than its through route, and
    no row is built that every value in the domains satisfies.  Variables,
    in id order: the gates, then the two placements of every single and
    pair segment, each in ``[1, h]``.  Returns the model and the id of each
    placement variable by anchor.
    """
    end, hs, gaps = prep.end, prep.h, prep.gaps
    classes, offsets, anchors = applied.classes, applied.offsets, applied.anchors
    # the edge count of the fixpoint with a leaf at every forced vertex
    big = 100 * (prep.work.m + len(applied.forced))
    model = IlpModel([], [])

    # (a, b, open_rows entry) of every pair open at the corner with a placed
    # end; the routes of the pairs of two fixed ends are claimed outright
    width, rows = prep.width, prep.open_rows
    keys = {a: a * width + offsets[a] for a in anchors}
    fixed = {a for a in anchors if classes[a >> 1] == LEAFED}
    order = [(a, b) for a in anchors for b in anchors if a >> 1 != b >> 1]
    order += [(a, a ^ 1) for a in anchors]
    pairs, claimed, settled = [], 0, set()
    for a, b in order:
        entry = rows[keys[a]][keys[b]]
        if not entry:
            continue
        if a in fixed and b in fixed:
            claimed |= entry
            settled.add(a)
        else:
            pairs.append((a, b, entry))
    gates = [model.add_variable(0, 1) for _ in pairs]
    leaving: dict[int, list[int]] = {a: [] for a in anchors}
    for (a, _b, _entry), gate in zip(pairs, gates):
        leaving[a].append(gate)
    placed = {
        a: model.add_variable(1, hs[a >> 1]) for a in anchors if a not in fixed
    }

    # interior spacing per open segment, whose two anchors follow each other
    # in placed; with both placements at least 1, xl + xr >= h holds for
    # every value when h = 2, and -2xl - 2xr <= d - h when h - d <= 4
    for a in list(placed)[::2]:
        h, d = hs[a >> 1], prep.d[a >> 1]
        xl, xr = placed[a], placed[a + 1]
        if classes[a >> 1] == SINGLE:
            model.add_constraint([(xl, 1), (xr, 1)], "<=", h)
            if h > 2:
                model.add_constraint([(xl, 1), (xr, 1)], ">=", h)
        else:
            model.add_constraint([(xl, 1), (xr, 1)], "<=", h - 1)
            if h - d > 4:
                model.add_constraint([(xl, -2), (xr, -2)], "<=", d - h)

    # an ordered cross pair may claim its through route only if that route
    # is no longer than any of the three detours around a segment end: each
    # gap, the through route minus one detour, may be positive only while
    # the gate is 0.  A gap grows by twice the offset of each end it reads,
    # so its row is built only if some placement in range makes it
    # positive; any other such row holds for every value.  Within one
    # segment, the outside route between the two placements may be claimed
    # only if it is no longer than the inside stretch.  Every target (see
    # AppliedGuess) off the claimed routes must lie on a gated one: one
    # covering row per target, in bit order.
    targets = applied.targets & ~claimed
    cover = {1 << t: [] for t in range(targets.bit_length()) if targets >> t & 1}
    # each end's doubled share of a gap: its terms, fixed part and top value
    side = {a: ([], 2 * offsets[a], 2 * offsets[a]) for a in fixed}
    side.update((a, ([(x, 2)], 0, 2 * hs[a >> 1])) for a, x in placed.items())
    for (a, b, entry), gate in zip(pairs, gates):
        hit = entry & targets
        while hit:
            cover[hit & -hit].append((gate, 1))
            hit &= hit - 1
        ia = a >> 1
        if ia == b >> 1:
            row = [(placed[a], 2), (placed[b], 2), (gate, big)]
            model.add_constraint(row, "<=", big + hs[ia] - prep.d[ia])
        else:
            g1, g2, g3 = gaps[a * len(end) + b]
            (ta, fa, ua), (tb, fb, ub) = side[a], side[b]
            for gap, terms, low, top in (
                (g1, tb, fb, ub), (g2, ta, fa, ua), (g3, ta + tb, fa + fb, ua + ub)
            ):
                if gap + top > 0:
                    model.add_constraint(terms + [(gate, big)], "<=", big - gap - low)
    for terms in cover.values():
        model.add_constraint(terms, ">=", 1)

    # a placement deeper than one step from its segment end needs a claimed
    # route leaving through that end: x - h * (leaving gates) <= 1, which
    # one gate at 1 makes hold for every x up to h
    for a in anchors:
        if a in placed:
            row = [(placed[a], 1)] + [(gate, -hs[a >> 1]) for gate in leaving[a]]
            model.add_constraint(row, "<=", 1)
        elif offsets[a] > 1 and a not in settled:
            model.add_constraint([(gate, 1) for gate in leaving[a]], ">=", 1)
    return model, placed


def reconstruct(
    prep: PreparedInstance,
    applied: AppliedGuess,
    assignment: dict[int, int],
    placed: dict[int, int],
) -> tuple[int, ...]:
    """Resolve a feasible assignment into a solution of the fixpoint graph:
    its leaves, the forced vertices and the placements of every single and
    pair segment, read through ``placed``, the placement variable ids that
    :func:`emit_ilp` returns by anchor."""
    solution = {v for v in prep.work.labels() if prep.work.degree(v) == 1}
    solution.update(applied.forced)
    for i, c in enumerate(applied.classes):
        if c not in (SINGLE, PAIR):
            continue
        path = prep.fed.paths[i]
        lo = assignment[placed[2 * i]]
        hi = prep.h[i] - assignment[placed[2 * i + 1]]
        if c == SINGLE and lo != hi:
            raise VerificationError(
                f"segment {i} holds one vertex but its placements are {lo} and {hi}"
            )
        if c == PAIR and lo >= hi:
            raise VerificationError(
                f"segment {i} holds two vertices but its placements are {lo} and {hi}"
            )
        solution.update((path.vertices[lo], path.vertices[hi]))
    size = candidate_size(prep, applied)
    if len(solution) != size:
        raise VerificationError(
            f"reconstructed solution has {len(solution)} vertices, the guess {size}"
        )
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
) -> Iterator[tuple[int, tuple, AppliedGuess]]:
    """Every guess once, lazily, by candidate size then guess order.

    Guess order takes branch subsets by size then numeric pattern, and
    within a subset the interior counts by total then lexicographically;
    the yielded ``seq`` is that order's sort key.  A counted segment of
    length h gets the counts 0 to min(2, h - 1) its interior can hold.

    A heap keyed by ``(size, subset size, pattern)`` holds one entry per
    subset, for its next count total; the size, the subset's base size plus
    that total, is the one yielded.  Popping an entry yields the total's
    guesses and pushes the next total.  Subsets of size p enter the heap
    only when its smallest size reaches ``leaf_count + p``, the least any
    of them can have, so memory stays bounded by the subsets opened so far.
    The subset's record is built at its first pop and kept in its entry,
    and each of its guesses is that record with its counts laid over it.
    """
    nb = len(prep.open_branch)
    heap: list[tuple] = []
    layer = 0
    while True:
        while layer <= nb and (not heap or heap[0][0] >= prep.leaf_count + layer):
            for bits in itertools.combinations(range(nb), layer):
                chosen = tuple(prep.open_branch[b] for b in bits)
                mask = sum(1 << b for b in bits)
                entry = (_base_size(prep, chosen), layer, mask, 0, chosen, None)
                heapq.heappush(heap, entry)
            layer += 1
        if not heap:
            return
        size, popcount, mask, total, chosen, record = heapq.heappop(heap)
        if record is None:
            record = _subset_record(prep, chosen)
        caps = tuple(min(2, prep.h[i] - 1) for i, _c in record.interior_counts)
        for counts in _count_tuples(caps, total):
            guess = apply_guess(record, counts)
            yield size, (popcount, mask, total, counts), guess
        if total < sum(caps):
            heapq.heappush(heap, (size + 1, popcount, mask, total + 1, chosen, record))


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
    prep: PreparedInstance, applied: AppliedGuess, node_budget: int | None
) -> tuple[str, int, IlpModel | None, tuple[int, ...] | None]:
    """Decide one guess: its outcome (see ``OUTCOMES``), the ILP nodes it
    took, the model it solved if any and, when feasible, the certified
    solution of the fixpoint graph."""
    refuted = refute_guess(prep, applied)
    if refuted is not None:
        return f"guesses_refuted_{refuted}", 0, None, None
    model, placed = emit_ilp(prep, applied)
    res = solve_ilp(model, node_budget=node_budget)
    if res.status == BUDGET_EXHAUSTED:
        return "ilp_budget_exhausted", res.nodes, model, None
    if res.status == INFEASIBLE:
        kind = "ilp_search_infeasible" if res.nodes else "ilp_root_infeasible"
        return kind, res.nodes, model, None
    assert res.assignment is not None
    solution = reconstruct(prep, applied, res.assignment, placed)
    graph, labels = prep.work.to_graph()
    index = {lab: j for j, lab in enumerate(labels)}
    if not is_geodetic(graph, [index[v] for v in solution]):
        raise VerificationError(f"reduced-graph solution {solution} is not geodetic")
    return "ilp_feasible", res.nodes, model, solution


def _solve_guesses(
    prep: PreparedInstance, node_budget: int | None
) -> tuple[str, int | None, tuple[int, ...] | None, int | None, dict]:
    best: int | None = None
    best_witness: tuple[int, ...] | None = None
    min_exhausted: int | None = None
    nodes_total = vars_max = rows_max = 0
    outcomes = dict.fromkeys(OUTCOMES, 0)
    for size, _seq, guess in _effective_items(prep):
        kind, nodes, model, witness = _process_guess(prep, guess, node_budget)
        nodes_total += nodes
        outcomes[kind] += 1
        if model is not None:
            vars_max = max(vars_max, len(model.variables))
            rows_max = max(rows_max, len(model.constraints))
        if kind == "ilp_budget_exhausted":
            min_exhausted = size if min_exhausted is None else min(min_exhausted, size)
        elif kind == "ilp_feasible":
            best, best_witness = size, witness
            break
    if best is None and min_exhausted is None:
        raise AssertionError("guess space exhausted without a feasible candidate")
    # sizes never fall, so min_exhausted <= best when both are set
    status = OPTIMAL if min_exhausted in (None, best) else UNKNOWN
    stats = {
        "guesses_generated": sum(outcomes.values()),
        "ilp_nodes": nodes_total,
        # the largest model solved
        "ilp_vars_max": vars_max,
        "ilp_rows_max": rows_max,
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
    unknown and ``optimum`` is None.  A witness found even so is still
    verified and returned, as an upper bound.  The answer is yes when the
    witness has at most k vertices, no when the optimum is known or every
    candidate of at most k vertices was refuted or found infeasible, else
    None.  A witness that fails its check, on the reduced graph or on
    ``g``, raises :class:`~geodetic.graph.VerificationError`.  A
    disconnected ``g`` raises :class:`~geodetic.graph.DisconnectedError`
    from the reduction, which searches its components once.
    """
    if g.n == 0:
        raise GraphError("empty graph has no geodetic set")
    # one vertex is connected and the reduction rejects any other
    # disconnected g, so the feedback edge number is m - n + 1
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
    witness = None
    if size_r is not None:
        witness = lift_witness(red.trace, witness_r)
        size = size_r + red.k_decrease
        if len(witness) != size:
            raise VerificationError(
                f"lifted witness has {len(witness)} vertices, optimum is {size}"
            )
        # the reduction found g connected, so no second component search
        if len(interval_closure(g, witness)) != g.n:
            raise VerificationError(f"lifted witness {witness} is not geodetic")
    # every guess below lower, when set, was refuted or found infeasible
    answer: bool | None = None
    if k is not None:
        if witness is not None and len(witness) <= k:
            answer = True
        elif status == OPTIMAL or (lower is not None and lower + red.k_decrease > k):
            answer = False
    optimum = len(witness) if status == OPTIMAL else None
    return SolveResult(status, optimum, witness, answer, algorithm, stats)
