"""The lazy guess stream, the memoised ILP rows and the guess records
against the code they replaced, and each guess's model against what it
must mean.

``eager_items`` is the guess list the solver used to build and sort in
full, each guess a plain ``(chosen, interior_counts)`` pair sized by the
segment-by-segment ``reference_candidate_size``; the stream's records
must match it in chosen set, counts, size and order.
``pairwise_emit_ilp`` is the model builder that rescanned every ordered
anchor pair for each covered target; the model the solver builds must
search like it.  ``reference_graft``, ``reference_record`` and
``reference_reconstruct`` are the guess application that copied the
fixpoint graph, hung a leaf on every forced vertex and read the offsets,
targets and solution off that grafted copy; they read a guess record's
``chosen`` and ``interior_counts`` only.  ``reference_cross_shut``
compares the through route with the three detours one by one, and
``pairwise_refute_guess`` looks each ordered anchor pair up on its own.
They are kept here as the references for
:func:`geodetic.fpt._effective_items`,
:func:`geodetic.fpt.candidate_size`, :func:`geodetic.fpt.apply_guess`,
:func:`geodetic.fpt.reconstruct`, the shut test of
:class:`geodetic.fpt._OpenRow` and :func:`geodetic.fpt.refute_guess`.

:func:`geodetic.fpt.emit_ilp` is checked by what its model means, not by
its rows: with the placements fixed at any point of their ranges, the
model is feasible exactly when the point is of the guess's class and the
candidate it reads is geodetic on the grafted graph.
"""

import collections
import itertools
import math
import random

from geodetic.fpt import (
    EMPTY,
    LEAFED,
    SINGLE,
    _effective_items,
    _route_mask,
    _self_shut,
    emit_ilp,
    prepare,
    reconstruct,
    refute_guess,
)
from geodetic.generators import random_fen_graph
from geodetic.graph import Graph, is_geodetic
from geodetic.ilp import FEASIBLE, INFEASIBLE, IlpModel, solve as solve_ilp
from geodetic.reduction import (
    MutableGraph,
    TraceEntry,
    lift_witness,
    reduce_to_fixpoint,
)


def reference_graft(prep, guess):
    """Reference: a copy of the fixpoint graph with ``guess`` grafted on,
    and the trace of the leaves it hung.

    Chosen branch vertices get a stand-in leaf.  An unleafed segment with
    a chosen endpoint and a strictly shorter outside route gets one more
    pinned leaf: at the midpoint when both ends are chosen, otherwise at
    the deepest position the chosen end can still cover.
    """
    st = set(guess.chosen)
    work = MutableGraph()
    for v in prep.work.labels():
        work.add_vertex(v)
    for u in prep.work.labels():
        for v in prep.work.neighbors(u):
            if u < v:
                work.add_edge(u, v)
    trace = []
    for v in guess.chosen:
        leaf = work.attach_leaf(v)
        # lift_witness undoes a pin by putting the support back in place of
        # the leaf, which is all a stand-in leaf needs
        trace.append(TraceEntry("margin", 0, (), (leaf,), (leaf,), (v,)))
    for p in prep.fed.paths:
        h = p.h
        if p.leaf_positions or not (p.left in st or p.right in st):
            continue
        d = prep.dist[p.left][p.right]
        if h > d:
            if p.left in st and p.right in st:
                pos, rule = h // 2, "shortcut"
            elif p.left in st:
                pos, rule = (h + d) // 2, "margin"
            else:
                pos, rule = h - (h + d) // 2, "margin"
            support = p.vertices[pos]
            leaf = work.attach_leaf(support)
            trace.append(TraceEntry(rule, 0, (), (leaf,), (leaf,), (support,)))
    return work, trace


def reference_record(prep, guess, work):
    """Reference: what the grafted copy ``work`` fixes for ``guess``.

    Returns the offset of each end 2*i + r of every segment i that carries
    a leafed vertex, the distance from that end to the nearest one, and the
    targets as a bitmask: bit i for a segment i of length h >= 2 with no
    leafed vertex and an interior count of 0, and bit ``len(paths) + j``
    for ``open_branch[j]`` when the guess hung no leaf on it.
    """
    counts = dict(guess.interior_counts)
    fixed = {}
    targets = 0
    for i, p in enumerate(prep.fed.paths):
        leafed = [j for j, v in enumerate(p.vertices) if work.is_leafed(v)]
        if leafed:
            fixed[2 * i] = leafed[0]
            fixed[2 * i + 1] = p.h - leafed[-1]
        elif counts[i] == 0 and p.h >= 2:
            targets |= 1 << i
    shift = len(prep.fed.paths)
    for j, v in enumerate(prep.open_branch):
        if not work.is_leafed(v):
            targets |= 1 << (shift + j)
    return fixed, targets


def reference_reconstruct(prep, applied, work, assignment, placed):
    """Reference: a solution of the grafted graph ``work``, its leaves and
    the placements."""
    solution = {v for v in work.labels() if work.degree(v) == 1}
    for i, c in enumerate(applied.classes):
        if c in (LEAFED, EMPTY):
            continue
        path = prep.fed.paths[i]
        lo = assignment[placed[2 * i]]
        hi = path.h - assignment[placed[2 * i + 1]]
        solution.update((path.vertices[lo], path.vertices[hi]))
    return tuple(sorted(solution))


def geodetic_on(work, solution):
    graph, labels = work.to_graph()
    index = {lab: j for j, lab in enumerate(labels)}
    return is_geodetic(graph, [index[v] for v in solution])


def reference_candidate_size(prep, chosen, interior_counts):
    """Reference: the candidate size summed segment by segment."""
    st = set(chosen)
    counts = dict(interior_counts)
    size = prep.leaf_count + len(chosen)
    for p in prep.fed.paths:
        if p.leaf_positions:
            continue
        if p.left in st or p.right in st:
            if p.h > prep.dist[p.left][p.right]:
                size += 1
        else:
            size += counts[p.index]
    return size


def eager_items(prep):
    """Reference: every guess built up front as a plain ``(chosen,
    interior_counts)`` pair, sorted by (size, seq)."""
    items = []
    seq = 0
    masks = sorted(
        range(1 << len(prep.open_branch)), key=lambda m: (bin(m).count("1"), m)
    )
    for mask in masks:
        chosen = tuple(v for b, v in enumerate(prep.open_branch) if mask >> b & 1)
        st = set(chosen)
        free = [
            i
            for i in prep.empty_segments
            if prep.fed.paths[i].left not in st
            and prep.fed.paths[i].right not in st
        ]
        for assign in sorted(
            itertools.product((0, 1, 2), repeat=len(free)),
            key=lambda t: (sum(t), t),
        ):
            counts = tuple(zip(free, assign))
            size = reference_candidate_size(prep, chosen, counts)
            items.append((size, seq, (chosen, counts)))
            seq += 1
    items.sort(key=lambda t: (t[0], t[1]))
    return items


def structurally_possible(prep, guess):
    """The rule the solver once applied after building a guess, given as a
    ``(chosen, interior_counts)`` pair: a segment of length h holds one
    interior vertex only if h >= 2, two only if h >= 3.  Counted segments
    are exactly those classed single or pair by the guess."""
    return all(c < prep.fed.paths[i].h for i, c in guess[1])


def pairwise_emit_ilp(prep, applied):
    """Reference: the model builder that rescans all anchor pairs per target."""
    fed = prep.fed
    dist = prep.dist
    classes = applied.classes
    work = reference_graft(prep, applied)[0]
    big = 100 * work.m
    active = [i for i, c in enumerate(classes) if c != EMPTY]
    sweep = [i for i, c in enumerate(classes) if c == EMPTY]
    anchors = [2 * i + r for i in active for r in (0, 1)]
    model = IlpModel([], [])

    # the end vertex of each anchor, looked up once
    end = {
        2 * i + r: fed.paths[i].left if r == 0 else fed.paths[i].right
        for i in active
        for r in (0, 1)
    }

    z_cross = {}
    cross_from = {a: [] for a in anchors}
    for a in anchors:
        for b in anchors:
            if a // 2 != b // 2:
                z_cross[(a, b)] = model.add_variable(0, 1)
                cross_from[a].append(z_cross[(a, b)])
    z_self = {a: model.add_variable(0, 1) for a in anchors}
    margin_ok = {a: model.add_variable(0, 1) for a in anchors}
    helper = {}
    for pair in z_cross:
        if classes[pair[0] // 2] != LEAFED or classes[pair[1] // 2] != LEAFED:
            helper[pair] = tuple(model.add_variable(0, 1) for _ in range(3))
    fixed, _targets = reference_record(prep, applied, work)
    placed = {}
    for i in active:
        h = fed.paths[i].h
        if classes[i] != LEAFED:
            placed[2 * i] = model.add_variable(0, h)
            placed[2 * i + 1] = model.add_variable(0, h)

    def offset(a):
        if a in fixed:
            return [], fixed[a]
        return [(placed[a], 1)], 0

    def neg(expr):
        terms, const = expr
        return [(v, -c) for v, c in terms], -const

    def route_gap(gate, plus, minus):
        terms = []
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

    for i in active:
        if classes[i] == LEAFED:
            continue
        h = fed.paths[i].h
        d = dist[fed.paths[i].left][fed.paths[i].right]
        xl, xr = placed[2 * i], placed[2 * i + 1]
        model.add_constraint([(xl, 1)], ">=", 1)
        model.add_constraint([(xr, 1)], ">=", 1)
        if classes[i] == SINGLE:
            model.add_constraint([(xl, 1), (xr, 1)], "<=", h)
            model.add_constraint([(xl, 1), (xr, 1)], ">=", h)
        else:
            model.add_constraint([(xl, 1), (xr, 1)], "<=", h - 1)
            model.add_constraint([(xl, -2), (xr, -2)], "<=", d - h)

    for (a, b), gate in z_cross.items():
        ia, ra = divmod(a, 2)
        ib, rb = divmod(b, 2)
        ha, hb = fed.paths[ia].h, fed.paths[ib].h
        va, wa = end[a], end[2 * ia + 1 - ra]
        vb, wb = end[b], end[2 * ib + 1 - rb]
        if (a, b) in helper:
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
        else:
            xa, xb = fixed[a], fixed[b]
            length = xa + dist[va][vb] + xb
            alts = (
                xa + dist[va][wb] + hb - xb,
                ha - xa + dist[wa][vb] + xb,
                ha - xa + dist[wa][wb] + hb - xb,
            )
            if length > min(alts):
                model.add_constraint([(gate, 1)], "<=", 0)

    for a, gate in z_self.items():
        i, r = divmod(a, 2)
        h = fed.paths[i].h
        d = dist[fed.paths[i].left][fed.paths[i].right]
        other = 2 * i + 1 - r
        if a in fixed:
            through = fixed[a] + d + fixed[other]
            inside = h - fixed[a] - fixed[other]
            if through > inside:
                model.add_constraint([(gate, 1)], "<=", 0)
        else:
            xa, xo = placed[a], placed[other]
            model.add_constraint([(xa, 2), (xo, 2), (gate, big)], "<=", big + h - d)

    ordered_pairs = [(end[a], end[b], gate) for (a, b), gate in z_cross.items()]
    ordered_pairs += [
        (end[a], end[a ^ 1], gate) for a, gate in z_self.items()
    ]

    for i in sweep:
        h = fed.paths[i].h
        if h < 2:
            continue
        left, right = fed.paths[i].left, fed.paths[i].right
        terms = []
        for va, vb, gate in ordered_pairs:
            if dist[va][left] + h + dist[right][vb] == dist[va][vb]:
                terms.append((gate, 1))
        model.add_constraint(terms, ">=", 1)

    chosen = set(applied.chosen)
    for v in prep.open_branch:
        if v in chosen:
            continue
        terms = []
        for va, vb, gate in ordered_pairs:
            if dist[va][v] + dist[v][vb] == dist[va][vb]:
                terms.append((gate, 1))
        model.add_constraint(terms, ">=", 1)

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

    return model, placed


def reference_gate_pairs(anchors):
    """The ordered anchor pairs in the order :func:`pairwise_emit_ilp`
    numbers its gates from 0: cross pairs, then self pairs."""
    pairs = [(a, b) for a in anchors for b in anchors if a >> 1 != b >> 1]
    return pairs + [(a, a ^ 1) for a in anchors]


def reference_pair_shut(prep, a, b, xa, xb):
    """Reference: whether the ordered anchor pair (a, b) is shut at offsets
    ``xa`` and ``xb``, within one segment or across two."""
    if a >> 1 == b >> 1:
        return _self_shut(prep, a >> 1, xa, xb)
    return reference_cross_shut(prep, a, b, xa, xb)


def row_shut(prep, a, b, xa, xb):
    """Whether the ``open_rows`` row of anchor a at offset ``xa`` holds
    anchor b at offset ``xb`` as shut."""
    return not prep.open_rows[a * prep.width + xa][b * prep.width + xb]


def reference_cross_shut(prep, a, b, xa, xb):
    """Reference: whether the through route between placements at offsets
    ``xa`` from anchor a and ``xb`` from anchor b is longer than one of the
    three detours around a segment end."""
    dist, end, hs = prep.dist, prep.end, prep.h
    va, wa, ha = end[a], end[a ^ 1], hs[a >> 1]
    vb, wb, hb = end[b], end[b ^ 1], hs[b >> 1]
    length = xa + dist[va][vb] + xb
    alts = (
        xa + dist[va][wb] + hb - xb,
        ha - xa + dist[wa][vb] + xb,
        ha - xa + dist[wa][wb] + hb - xb,
    )
    return length > min(alts)


def pairwise_refute_guess(prep, applied, memo):
    """Reference: the refutation that looked up each ordered anchor pair on
    its own, memoising its route mask, or -1 when shut, in ``memo`` under
    ``(a, xa, b, xb)``."""
    offsets, anchors = applied.offsets, applied.anchors
    pairs = [(a, b) for a in anchors for b in anchors if a >> 1 != b >> 1]
    for a in anchors[::2]:
        pairs += [(a, a + 1), (a + 1, a)]
    reach = leaving = 0
    for a, b in pairs:
        key = (a, offsets[a], b, offsets[b])
        mask = memo.get(key)
        if mask is None:
            if a >> 1 == b >> 1:
                shut = _self_shut(prep, a >> 1, offsets[a], offsets[b])
            else:
                shut = reference_cross_shut(prep, a, b, offsets[a], offsets[b])
            mask = memo[key] = -1 if shut else _route_mask(
                prep, prep.end[a], prep.end[b]
            )
        if mask >= 0:
            reach |= mask
            leaving |= 1 << a
    if applied.targets & ~reach:
        return "cover"
    if any(x > 1 and not leaving >> a & 1 for a, x in enumerate(offsets)):
        return "margin"
    return None


def seeded_kernels(seed, count, stretch):
    """Prepared kernels of seeded random graphs with fen 2-7 that reach guessing.

    With ``stretch`` > 0 each edge of a smaller draw is subdivided by up to
    that many vertices, so that segments are long enough to hold counts.
    """
    draws = random.Random(seed)
    kernels = []
    while len(kernels) < count:
        n = draws.randint(6, 22 if stretch == 0 else 12)
        g = random_fen_graph(n, draws.randint(2, 7), draws)
        if stretch:
            edges, nxt = [], g.n
            for u, v in g.edges():
                for _ in range(draws.randint(0, stretch)):
                    edges.append((u, nxt))
                    u, nxt = nxt, nxt + 1
                edges.append((min(u, v), max(u, v)))
            g = Graph(nxt, edges)
        red = reduce_to_fixpoint(g)
        if red.decomposition is not None:
            kernels.append(prepare(red.graph, red.decomposition))
    return kernels


def raw_guess_count(prep):
    """Guesses the eager reference builds, before any were pruned."""
    bit = {v: 1 << b for b, v in enumerate(prep.open_branch)}
    touches = [
        bit.get(prep.fed.paths[i].left, 0) | bit.get(prep.fed.paths[i].right, 0)
        for i in prep.empty_segments
    ]
    return sum(
        3 ** sum(1 for t in touches if not t & mask)
        for mask in range(1 << len(prep.open_branch))
    )


def test_stream_matches_eager_reference():
    # the reference builds every guess, so kernels stay below 20 000 raw guesses
    kernels = [
        prep
        for prep in seeded_kernels(31, 200, 0) + seeded_kernels(33, 200, 2)
        if raw_guess_count(prep) <= 20_000
    ]
    assert len(kernels) >= 300
    yielded = pruned = 0
    for prep in kernels:
        eager = eager_items(prep)
        kept = [t for t in eager if structurally_possible(prep, t[2])]
        stream = [
            (size, seq, (guess.chosen, guess.interior_counts))
            for size, seq, guess in _effective_items(prep)
        ]
        assert [(size, guess) for size, _seq, guess in stream] == [
            (size, guess) for size, _seq, guess in kept
        ]
        # seq sorts the stream into the reference's guess order
        assert [t[2] for t in sorted(stream, key=lambda t: t[1])] == [
            t[2] for t in sorted(kept, key=lambda t: t[1])
        ]
        yielded += len(stream)
        pruned += len(eager) - len(kept)
    assert yielded > 25_000 and pruned > 300_000


def in_class(prep, applied, x):
    """Whether the placements ``x``, by anchor, hold one vertex in each
    single segment (xl + xr = h) and two in each pair segment
    (xl + xr <= h - 1)."""
    return all(
        x[a] + x[a + 1] == prep.h[a >> 1]
        if applied.classes[a >> 1] == SINGLE
        else x[a] + x[a + 1] <= prep.h[a >> 1] - 1
        for a in list(x)[::2]
    )


def test_models_are_feasible_exactly_at_geodetic_placements():
    # the first 40 guesses of each kernel whose placement box has at most
    # 200 points: with its placements fixed at a point of the box, a model
    # is feasible exactly when the point is of the guess's class and the
    # candidate it reads is geodetic on the grafted graph.  No candidate of
    # a refuted guess is geodetic.
    seen = collections.Counter()
    for prep in seeded_kernels(32, 120, 0) + seeded_kernels(33, 120, 2):
        for _size, _seq, applied in itertools.islice(_effective_items(prep), 40):
            model, placed = emit_ilp(prep, applied)
            box = [range(1, prep.h[a >> 1] + 1) for a in placed]
            if math.prod(map(len, box)) > 200:
                seen["skipped"] += 1
                continue
            refuted = refute_guess(prep, applied) is not None
            work = reference_graft(prep, applied)[0]
            graph, labels = work.to_graph()
            index = {lab: j for j, lab in enumerate(labels)}
            for point in itertools.product(*box):
                x = dict(zip(placed, point))
                assignment = {placed[a]: xa for a, xa in x.items()}
                pinned = IlpModel(list(model.variables), model.constraints)
                for v, xa in assignment.items():
                    pinned.variables[v] = (xa, xa)
                feasible = solve_ilp(pinned).status == FEASIBLE
                seen["points"] += 1
                if not in_class(prep, applied, x):
                    assert not feasible, (applied, x)
                    continue
                candidate = reference_reconstruct(
                    prep, applied, work, assignment, placed
                )
                geodetic = is_geodetic(graph, [index[v] for v in candidate])
                assert feasible == geodetic, (applied, x)
                assert not (refuted and geodetic), (applied, x)
                seen["refuted" if refuted else "geodetic" if geodetic else "not"] += 1
            seen["guesses"] += 1
    assert seen["guesses"] > 5_000 and seen["points"] > 90_000, seen
    # in-class points: geodetic, not geodetic, and of a refuted guess
    assert seen["geodetic"] > 1_000 and seen["not"] > 400, seen
    assert seen["refuted"] > 7_000, seen


def test_grafted_solutions_lift_to_kernel_solutions():
    # the first feasible model of each kernel: the grafted solution lifts
    # to the kernel solution, and the two certificates agree on it and on
    # every move of one vertex that is not a grafted leaf to a neighbour
    # outside the solution
    verdicts = [0, 0]
    for prep in seeded_kernels(32, 200, 0):
        for _size, _seq, applied in _effective_items(prep):
            if refute_guess(prep, applied) is not None:
                continue
            model, placed = emit_ilp(prep, applied)
            res = solve_ilp(model)
            if res.status == FEASIBLE:
                break
        assert res.status == FEASIBLE
        work, trace = reference_graft(prep, applied)
        grafted = reference_reconstruct(prep, applied, work, res.assignment, placed)
        solution = reconstruct(prep, applied, res.assignment, placed)
        assert lift_witness(trace, grafted) == solution
        assert geodetic_on(work, grafted) and geodetic_on(prep.work, solution)
        leaves = {leaf for e in trace for leaf in e.added}
        for v in set(grafted) - leaves:
            for w in sorted(prep.work.neighbors(v) - set(solution)):
                moved = [w if u == v else u for u in grafted]
                verdict = geodetic_on(work, moved)
                assert verdict == geodetic_on(prep.work, lift_witness(trace, moved))
                verdicts[verdict] += 1
    assert min(verdicts) > 20, verdicts


def test_compact_model_searches_like_the_full_model():
    # every guess the refutation lets through, up to the first feasible
    # one: the model emit_ilp builds keeps the status, the placements and
    # the solution of the full reference model, and only ever saves search
    # nodes
    solved = fewer = 0
    for prep in seeded_kernels(32, 200, 0):
        for _size, _seq, applied in _effective_items(prep):
            if refute_guess(prep, applied) is not None:
                continue
            model, placed = emit_ilp(prep, applied)
            full_model, full_placed = pairwise_emit_ilp(prep, applied)
            res, full = solve_ilp(model), solve_ilp(full_model)
            assert res.status == full.status, applied
            assert res.nodes <= full.nodes, applied
            solved += 1
            fewer += res.nodes < full.nodes
            if res.status == FEASIBLE:
                break
        assert res.status == FEASIBLE
        assert {a: res.assignment[v] for a, v in placed.items()} == {
            a: full.assignment[v] for a, v in full_placed.items()
        }
        assert reconstruct(prep, applied, res.assignment, placed) == reconstruct(
            prep, applied, full.assignment, full_placed
        )
    assert solved >= 200 and fewer >= 1, (solved, fewer)


def test_models_hold_only_gates_and_placements():
    # every model the solver builds on stretched kernels, up to the first
    # feasible one: a 0/1 gate per open pair with a placed end, then the
    # placements of the single and pair segments, each in [1, h], and only
    # rows that some values in the domains break
    models = placements = detours = 0
    for prep in seeded_kernels(37, 60, 2):
        for _size, _seq, applied in _effective_items(prep):
            if refute_guess(prep, applied) is not None:
                continue
            model, placed = emit_ilp(prep, applied)
            offsets, anchors = applied.offsets, applied.anchors
            fixed = {a for a in anchors if applied.classes[a >> 1] == LEAFED}
            gates = sum(
                1
                for a, b in reference_gate_pairs(anchors)
                if not {a, b} <= fixed
                and not reference_pair_shut(prep, a, b, offsets[a], offsets[b])
            )
            assert sorted(placed) == [a for a in anchors if a not in fixed]
            assert list(placed.values()) == list(range(gates, len(model.variables)))
            assert model.variables == [(0, 1)] * gates + [
                (1, prep.h[a >> 1]) for a in placed
            ]
            # the greatest left side of a row, each term at its upper bound
            # if its coefficient is positive, exceeds its right side; a row
            # with a gate term c * gate, c > 0, is a detour row
            for coeffs, rhs in model.constraints:
                most = sum(c * model.variables[v][c > 0] for v, c in coeffs)
                assert most > rhs, (applied, coeffs, rhs)
                detours += any(v < gates and c > 0 for v, c in coeffs)
            models += 1
            placements += len(placed)
            if solve_ilp(model).status == FEASIBLE:
                break
    assert models > 150 and placements > 4 * models, (models, placements)
    assert detours > 20 * models, (models, detours)


def test_refuted_guesses_are_infeasible_at_the_ilp_root():
    # the first 80 guesses of kernels with fen 2-9: a guess is refuted
    # exactly when root propagation alone proves its model infeasible
    draws = random.Random(35)
    kinds = collections.Counter()
    kernels = 0
    while kernels < 40:
        fen = draws.randint(2, 9)
        red = reduce_to_fixpoint(random_fen_graph(draws.randint(fen + 4, 22), fen, draws))
        if red.decomposition is None:
            continue
        kernels += 1
        prep = prepare(red.graph, red.decomposition)
        for _size, _seq, applied in itertools.islice(_effective_items(prep), 80):
            kind = refute_guess(prep, applied)
            kinds[kind] += 1
            # a zero budget stops the search right after root propagation
            res = solve_ilp(emit_ilp(prep, applied)[0], node_budget=0)
            root_infeasible = (res.status, res.nodes) == (INFEASIBLE, 0)
            assert root_infeasible == (kind is not None), (kind, applied)
    assert min(kinds["cover"], kinds["margin"]) >= 20, kinds
    assert kinds[None] >= 200, kinds


def test_gap_triple_shut_test_matches_three_detours():
    # the kernels of test_shut_tests_grow_with_the_offsets, every ordered
    # pair of anchors on different segments, every offset pair up to h
    compared = shut = 0
    for prep in seeded_kernels(36, 40, 3):
        anchors = range(len(prep.end))
        for a, b in itertools.permutations(anchors, 2):
            if a >> 1 == b >> 1:
                continue
            ha, hb = prep.h[a >> 1], prep.h[b >> 1]
            for xa, xb in itertools.product(range(ha + 1), range(hb + 1)):
                verdict = row_shut(prep, a, b, xa, xb)
                assert verdict == reference_cross_shut(prep, a, b, xa, xb), (
                    a, b, xa, xb
                )
                compared += 1
                shut += verdict
    assert 0.1 * compared < shut < 0.9 * compared, (shut, compared)


def test_refutation_matches_pairwise_reference():
    # every guess the solver processes, up to its first feasible model,
    # on kernels with fen 2-7 and on draws with fen 10-14, where guesses
    # are most numerous
    kernels = seeded_kernels(38, 40, 0) + seeded_kernels(39, 20, 2)
    draws = random.Random(44)
    while len(kernels) < 72:
        fen = draws.randint(10, 14)
        red = reduce_to_fixpoint(random_fen_graph(draws.randint(18, 22), fen, draws))
        if red.decomposition is not None:
            kernels.append(prepare(red.graph, red.decomposition))
    kinds = collections.Counter()
    for prep in kernels:
        memo = {}
        for _size, _seq, applied in _effective_items(prep):
            kind = refute_guess(prep, applied)
            assert kind == pairwise_refute_guess(prep, applied, memo), applied
            kinds[kind] += 1
            if kind is None and solve_ilp(emit_ilp(prep, applied)[0]).status == FEASIBLE:
                break
    assert min(kinds.values()) >= 30, kinds
    assert kinds["cover"] > 5_000, kinds
