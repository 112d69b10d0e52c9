"""Tests for the guess-and-check exact solver."""

import functools
import json
import os
import random
import re
import subprocess
import sys
from itertools import islice, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import geodetic
from geodetic import fpt, graph, reduction
from geodetic.fpt import (
    OPTIMAL,
    UNKNOWN,
    _effective_items,
    candidate_size,
    emit_ilp,
    prepare,
    reconstruct,
    refute_guess,
    solve_fpt,
)
from geodetic.generators import random_fen_graph
from geodetic.graph import DisconnectedError, Graph, VerificationError, is_geodetic
from geodetic.ilp import FEASIBLE, solve as solve_ilp
from geodetic.oracle import min_geodetic_brute
from geodetic.reduction import MutableGraph, reduce_to_fixpoint

from conftest import complete_graph, cycle_graph, path_graph, star_graph, theta_graph
from test_fpt_reference import (
    raw_guess_count,
    reference_candidate_size,
    reference_graft,
    reference_record,
    row_shut,
    seeded_kernels,
)


def prepared(g):
    red = reduce_to_fixpoint(g)
    assert red.decomposition is not None
    return red, prepare(red.graph, red.decomposition)


def test_single_vertex():
    res = solve_fpt(Graph(1, []))
    assert res.status == OPTIMAL
    assert res.optimum == 1
    assert res.witness == (0,)
    assert res.algorithm == "single"


def test_disconnected_rejected():
    with pytest.raises(DisconnectedError):
        solve_fpt(Graph(4, [(0, 1), (2, 3)]))


def test_solve_searches_the_components_of_g_once(monkeypatch):
    """The reduction's check is the only one on ``g``; the final certificate
    does not search its components again."""
    g = random_fen_graph(500, 4, random.Random(1))
    calls = 0
    real = graph.is_connected

    def counting(h):
        nonlocal calls
        calls += h is g
        return real(h)

    for module in (fpt, reduction, graph):
        monkeypatch.setattr(module, "is_connected", counting, raising=False)
    assert solve_fpt(g).status == OPTIMAL
    assert calls == 1


def test_tree_route():
    res = solve_fpt(star_graph(5))
    assert res.status == OPTIMAL
    assert res.optimum == 5
    assert res.algorithm == "tree"
    res = solve_fpt(path_graph(7))
    assert res.optimum == 2


def test_cycle_route():
    even = solve_fpt(cycle_graph(8))
    assert (even.optimum, even.algorithm) == (2, "cycle")
    odd = solve_fpt(cycle_graph(9))
    assert (odd.optimum, odd.algorithm) == (3, "cycle")


def test_complete_graph_goes_through_guessing():
    res = solve_fpt(complete_graph(4))
    assert res.algorithm == "guess-ilp"
    assert res.status == OPTIMAL
    assert res.optimum == 4
    assert is_geodetic(complete_graph(4), res.witness)


# K4 with a pendant at 0: optimum 4, witness (1, 2, 3, 4), solved by guessing
PENDANT_K4 = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)])
CORRUPTIONS = {
    "drop": lambda w: w[1:],
    # same size, but the simplicial vertex 1 is left uncovered
    "swap": lambda w: (0,) + w[1:],
}
# (fpt function whose result is corrupted, how, expected error message)
CERTIFICATE_CASES = [
    ("lift_witness", "drop", "lifted witness has 3 vertices, optimum is 4"),
    ("lift_witness", "swap", r"lifted witness \(0, 2, 3, 4\) is not geodetic"),
    ("reconstruct", "drop", "reduced-graph solution .* is not geodetic"),
]


def corrupted_solve_error(name: str, how: str) -> str | None:
    """Message of the VerificationError raised by ``solve_fpt(PENDANT_K4)``
    while ``fpt.<name>`` returns a corrupted result; None if none is raised."""
    real = getattr(fpt, name)
    setattr(fpt, name, lambda *args: CORRUPTIONS[how](real(*args)))
    try:
        solve_fpt(PENDANT_K4)
    except VerificationError as exc:
        return str(exc)
    finally:
        setattr(fpt, name, real)
    return None


def perturbed_placement_errors() -> dict[str, str]:
    """Message of the VerificationError that ``reconstruct`` raises, by
    segment class, once one placement of a feasible assignment is moved:
    off its partner on a single segment, onto it on a pair segment.  The
    assignments are the first feasible ones of seeded kernels."""
    errors: dict[str, str] = {}
    for prep in seeded_kernels(40, 30, 3):
        for _size, _seq, applied in _effective_items(prep):
            if refute_guess(prep, applied) is not None:
                continue
            model, placed = emit_ilp(prep, applied)
            res = solve_ilp(model)
            if res.status == FEASIBLE:
                break
        for i, c in enumerate(applied.classes):
            if c not in (fpt.SINGLE, fpt.PAIR) or c in errors:
                continue
            moved = dict(res.assignment)
            xl, xr = placed[2 * i], placed[2 * i + 1]
            moved[xl] = moved[xl] + 1 if c == fpt.SINGLE else prep.h[i] - moved[xr]
            try:
                reconstruct(prep, applied, moved, placed)
            except VerificationError as exc:
                errors[c] = str(exc)
        if len(errors) == 2:
            break
    return errors


def test_reconstruct_rejects_a_moved_placement():
    errors = perturbed_placement_errors()
    assert set(errors) == {fpt.SINGLE, fpt.PAIR}
    assert re.fullmatch(
        r"segment \d+ holds one vertex but its placements are (\d+) and (?!\1)\d+",
        errors[fpt.SINGLE],
    )
    assert re.fullmatch(
        r"segment \d+ holds two vertices but its placements are (\d+) and \1",
        errors[fpt.PAIR],
    )


@pytest.mark.parametrize("name,how,message", CERTIFICATE_CASES)
def test_corrupted_witness_raises_verification_error(name, how, message):
    assert solve_fpt(PENDANT_K4).witness == (1, 2, 3, 4)
    error = corrupted_solve_error(name, how)
    assert error is not None and re.fullmatch(message, error)


def test_certificates_survive_python_optimize():
    # asserts vanish under -O; the certificates must not
    tests_dir = Path(__file__).resolve().parent
    src_dir = Path(geodetic.__file__).resolve().parent.parent
    script = (
        "import re, sys, test_fpt\n"
        "print(sys.flags.optimize, __debug__)\n"
        "for name, how, message in test_fpt.CERTIFICATE_CASES:\n"
        "    error = test_fpt.corrupted_solve_error(name, how)\n"
        "    print(name, how, bool(error and re.fullmatch(message, error)))\n"
        "print(sorted(test_fpt.perturbed_placement_errors().items()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "1 False"
    assert lines[1:-1] == [f"{name} {how} True" for name, how, _ in CERTIFICATE_CASES]
    assert lines[-1] == str(sorted(perturbed_placement_errors().items()))


def test_theta_graph_optimum():
    g = theta_graph((2, 2, 3))
    res = solve_fpt(g)
    oracle = min_geodetic_brute(g)
    assert res.status == OPTIMAL
    assert res.optimum == oracle.size
    assert is_geodetic(g, res.witness)


def guesses(prep):
    return [guess for _size, _seq, guess in _effective_items(prep)]


def test_guess_count_is_full_product():
    _, prep = prepared(theta_graph((2, 2, 3)))
    assert len(prep.open_branch) == 2
    assert len(prep.empty_segments) == 3
    # the 2**2 * 3**3 = 108 raw (subset, counts) points, with the counts of
    # segments next to a chosen branch vertex dropped, are 30 shapes; the 15
    # guesses are those whose segments can hold their counts (1 needs
    # h >= 2, 2 needs h >= 3)
    shapes = set()
    for mask, counts in product(range(4), product((0, 1, 2), repeat=3)):
        chosen = tuple(v for b, v in enumerate(prep.open_branch) if mask >> b & 1)
        kept = tuple(
            (i, c)
            for i, c in zip(prep.empty_segments, counts)
            if prep.fed.paths[i].left not in chosen
            and prep.fed.paths[i].right not in chosen
        )
        shapes.add((chosen, kept))
    assert len(shapes) == 30
    holdable = {
        (chosen, kept)
        for chosen, kept in shapes
        if all(c < prep.fed.paths[i].h for i, c in kept)
    }
    effective = [(g.chosen, g.interior_counts) for g in guesses(prep)]
    assert len(effective) == len(set(effective)) == 15
    assert set(effective) == holdable


def test_guess_count_with_leafed_segment():
    # pendant on the long path leaves two unleafed segments and both
    # branch vertices open: 4 subsets times 9 count patterns, 12 of them
    # distinct once a chosen endpoint drops its segment's count; both
    # segments have length 2 and take no count of 2, which leaves 4 + 1 + 1 + 1
    g = Graph(7, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1), (4, 6)])
    _, prep = prepared(g)
    assert len(prep.open_branch) == 2
    assert len(prep.empty_segments) == 2
    assert len(guesses(prep)) == 7


def test_guess_order_subsets_then_counts():
    _, prep = prepared(theta_graph((2, 2, 3)))
    items = list(_effective_items(prep))
    keys = [(size, seq) for size, seq, _guess in items]
    assert keys == sorted(keys)
    in_seq = [guess for _size, _seq, guess in sorted(items, key=lambda t: t[1])]
    subsets = [len(guess.chosen) for guess in in_seq]
    assert subsets == sorted(subsets)
    assert len(set(subsets)) > 1
    for chosen in {guess.chosen for guess in in_seq}:
        counts = [
            tuple(n for _, n in guess.interior_counts)
            for _size, _seq, guess in items
            if guess.chosen == chosen
        ]
        assert counts == sorted(counts, key=lambda t: (sum(t), t))


def test_guess_stream_is_lazy():
    # a 40-rung ladder keeps 76 open branch vertices, so 2**76 subsets: the
    # first guess must come without walking the subset space
    rails = [(i, i + 1) for i in range(39)] + [(i, i + 1) for i in range(40, 79)]
    rungs = [(i, i + 40) for i in range(40)]
    _, prep = prepared(Graph(80, rails + rungs))
    assert len(prep.open_branch) == 76
    size, _seq, guess = next(_effective_items(prep))
    assert guess.chosen == ()
    assert len(guess.interior_counts) == len(prep.empty_segments)
    assert all(c == 0 for _i, c in guess.interior_counts)
    assert size == prep.leaf_count


def test_guess_record_matches_grafted_reference():
    # every guess of seeded kernels: a leafed anchor sits at its distance to
    # the nearest leafed vertex of the grafted copy, any other anchor at 1,
    # and the targets are the grafted copy's empty segments and unleafed
    # open branch vertices
    guesses_seen = deep_seen = 0
    for prep in seeded_kernels(37, 60, 2):
        if raw_guess_count(prep) > 3_000:
            continue
        for _size, _seq, applied in _effective_items(prep):
            work, _trace = reference_graft(prep, applied)
            fixed, targets = reference_record(prep, applied, work)
            anchors = range(len(applied.offsets))
            leafed = [a for a in anchors if applied.classes[a // 2] == fpt.LEAFED]
            assert leafed == sorted(fixed)
            assert applied.offsets == tuple(fixed.get(a, 1) for a in anchors)
            assert applied.targets == targets
            guesses_seen += 1
            deep_seen += sum(x > 1 for x in fixed.values())
    # 3202 guesses on 35 kernels, with 7113 fixed offsets above 1
    assert guesses_seen > 3_000 and deep_seen > 5_000, (guesses_seen, deep_seen)


def test_guess_leaves_do_not_change_branch_distances():
    # forcing a vertex stands for a pendant leaf there, which must leave the
    # branch distances that emit_ilp reads as they are
    _, prep = prepared(theta_graph((2, 3, 4)))
    for guess in guesses(prep):
        work, _trace = reference_graft(prep, guess)
        for b in prep.fed.branch_vertices:
            after = work.bfs(b)
            for c in prep.fed.branch_vertices:
                assert after[c] == prep.dist[b][c]


def test_prepare_reuses_the_segment_rules_bfs_rows(monkeypatch):
    """Counts, not clock time: on the fixpoint each branch vertex is
    searched at most once, by the segment rules or else by prepare."""
    searched: list[int] = []
    bfs = MutableGraph.bfs
    build_feg = reduction.build_feg

    def counting_bfs(self, source):
        searched.append(source)
        return bfs(self, source)

    def fresh_build_feg(work):
        # searches before the last decomposition ran on an earlier graph
        searched.clear()
        return build_feg(work)

    monkeypatch.setattr(MutableGraph, "bfs", counting_bfs)
    monkeypatch.setattr(reduction, "build_feg", fresh_build_feg)
    draws = random.Random(41)
    kernels = reused = 0
    while kernels < 150:
        g = random_fen_graph(draws.randint(6, 40), draws.randint(2, 7), draws)
        red = reduce_to_fixpoint(g)
        if red.decomposition is None:
            continue
        by_rules = list(searched)
        searched.clear()
        prep = prepare(red.graph, red.decomposition)
        assert not set(searched) & set(by_rules)
        assert sorted(by_rules + searched) == sorted(set(by_rules + searched))
        assert set(by_rules + searched) == set(prep.fed.branch_vertices)
        kernels += 1
        reused += len(by_rules)
    assert reused > 100


def test_candidate_size_matches_reconstruction():
    _, prep = prepared(theta_graph((2, 3, 4)))
    for guess in guesses(prep):
        model, placed = emit_ilp(prep, guess)
        res = solve_ilp(model)
        if res.status != FEASIBLE:
            continue
        solution = reconstruct(prep, guess, res.assignment, placed)
        assert len(solution) == candidate_size(prep, guess)
    # every guess the stream yields on seeded kernels, feasible or not: the
    # size the heap keys by, worked out before the subset's record is built,
    # is the record's leaves, forced vertices and count total, and the
    # reference's segment-by-segment sum
    seen = pinned = 0
    for prep in seeded_kernels(41, 30, 2):
        for size, _seq, guess in islice(_effective_items(prep), 400):
            total = sum(c for _i, c in guess.interior_counts)
            assert size == candidate_size(prep, guess), guess
            assert size == prep.leaf_count + len(guess.forced) + total, guess
            assert size == reference_candidate_size(
                prep, guess.chosen, guess.interior_counts
            ), guess
            seen += 1
            pinned += len(guess.forced) > len(guess.chosen)
    assert seen > 5_000 and pinned > 0, (seen, pinned)


def test_matches_oracle_on_random_graphs(rng):
    for _ in range(120):
        n = rng.randint(4, 18)
        fen = rng.randint(0, min(4, (n - 1) * (n - 2) // 2))
        g = random_fen_graph(n, fen, rng)
        oracle = min_geodetic_brute(g)
        res = solve_fpt(g)
        assert res.status == OPTIMAL, (g.n, g.edges)
        assert res.optimum == oracle.size, (g.n, g.edges, oracle.size, res.optimum)
        assert is_geodetic(g, res.witness)


def test_matches_oracle_on_multihub_graphs(rng):
    for _ in range(25):
        p = rng.randint(3, 5)
        lengths = sorted(rng.randint(2, 5) for _ in range(p))
        g = theta_graph(tuple(lengths))
        oracle = min_geodetic_brute(g)
        res = solve_fpt(g)
        assert res.optimum == oracle.size, lengths


@st.composite
def tree_plus_chords(draw):
    """A random tree on n <= 18 vertices plus fen 5-9 chords."""
    fen = draw(st.integers(5, 9))
    n = 3
    while (n - 1) * (n - 2) // 2 < fen:
        n += 1
    n = draw(st.integers(n, 18))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    picks = draw(
        st.lists(
            st.integers(0, len(chords) - 1), min_size=fen, max_size=fen, unique=True
        )
    )
    return Graph(n, sorted(tree | {chords[i] for i in picks}))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(tree_plus_chords())
def test_matches_oracle_at_fen_5_to_9(g):
    oracle = min_geodetic_brute(g)
    res = solve_fpt(g)
    assert res.status == OPTIMAL
    assert res.optimum == oracle.size
    assert is_geodetic(g, res.witness)


def test_matches_oracle_at_fen_10_to_14():
    # above fen 9, where most guesses are refuted before a model is built
    draws = random.Random(43)
    for _ in range(30):
        fen = draws.randint(10, 14)
        g = random_fen_graph(draws.randint(18, 22), fen, draws)
        oracle = min_geodetic_brute(g)
        res = solve_fpt(g)
        assert res.status == OPTIMAL, (g.n, g.edges)
        assert res.optimum == oracle.size, (g.n, g.edges, oracle.size, res.optimum)
        assert is_geodetic(g, res.witness)


def test_budget_exhaustion_degrades_to_unknown():
    # its guesses need 5 search nodes in all; at one node a guess of size
    # 6 runs out of budget before one of size 7 is found feasible, so the
    # 7-vertex witness is only an upper bound and no optimum is reported
    g = random_fen_graph(14, 6, random.Random(5))
    res = solve_fpt(g, node_budget=1)
    assert (res.status, res.optimum) == (UNKNOWN, None)
    assert len(res.witness) == 7 and is_geodetic(g, res.witness)
    assert solve_fpt(g, 7, node_budget=1).answer is True
    assert solve_fpt(g, 6, node_budget=1).answer is None
    # every guess below size 6 was refuted or infeasible: a definite no
    assert solve_fpt(g, 5, node_budget=1).answer is False
    assert res.stats["ilp_budget_exhausted"] > 0
    # a generous budget restores the exact answer
    res = solve_fpt(g, node_budget=100000)
    assert (res.status, res.optimum, res.stats["ilp_nodes"]) == (OPTIMAL, 6, 5)
    # K4's only model is empty: its one node branches on nothing, so it
    # spends no budget and even a zero budget finds the optimum
    res = solve_fpt(complete_graph(4), node_budget=0)
    assert (res.status, res.optimum, res.stats["ilp_nodes"]) == (OPTIMAL, 4, 1)


def test_dense_hub_instance_stays_cheap():
    # several branch vertices sharing unit segments once blew the search
    # past 300k nodes on one infeasible guess; the row-guided branching
    # must keep the whole solve within a small node count
    g = Graph(
        11,
        [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 9), (0, 10),
            (1, 2), (1, 4), (2, 5), (4, 7), (5, 7), (6, 8),
        ],
    )
    res = solve_fpt(g)
    assert res.status == OPTIMAL
    assert res.optimum == 7
    assert res.optimum == min_geodetic_brute(g).size
    assert res.stats["ilp_nodes"] < 5000


def test_guess_outcomes_add_up(rng):
    # every guess ends in exactly one of the outcome counters; a budget of
    # one node still runs out on these draws (26 times)
    totals = dict.fromkeys(fpt.OUTCOMES, 0)
    for budget in (None, 1):
        for _ in range(12):
            fen = rng.randint(2, 9)
            res = solve_fpt(random_fen_graph(rng.randint(fen + 4, 20), fen, rng),
                            node_budget=budget)
            if res.algorithm != "guess-ilp":
                continue
            assert sum(res.stats[k] for k in fpt.OUTCOMES) == res.stats[
                "guesses_generated"
            ]
            if budget is None:
                assert res.stats["ilp_feasible"] == 1
                assert res.stats["ilp_budget_exhausted"] == 0
            for k in fpt.OUTCOMES:
                totals[k] += res.stats[k]
    # refutation leaves no model that dies at its root on these draws, and
    # an infeasible model that needs search is rare: 4 in 660 seeded solves
    assert totals.pop("ilp_root_infeasible") == 0, totals
    del totals["ilp_search_infeasible"]
    assert min(totals.values()) > 0, totals


def test_refuted_guesses_build_no_ilp(monkeypatch):
    # count-based guard: only guesses that survive the refutation reach
    # emit_ilp, so of this graph's 16 guesses only the feasible one builds
    # a model
    built = []
    real = fpt.emit_ilp

    def counting(prep, applied):
        built.append(applied)
        return real(prep, applied)

    monkeypatch.setattr(fpt, "emit_ilp", counting)
    res = solve_fpt(random_fen_graph(18, 7, random.Random(9)))
    stats = res.stats
    survivors = (
        stats["guesses_generated"]
        - stats["guesses_refuted_cover"]
        - stats["guesses_refuted_margin"]
    )
    assert len(built) == survivors == 1
    assert stats["guesses_generated"] == 16


def test_model_size_stats_are_the_largest_model_solved(monkeypatch):
    # this draw builds two models of as many variables, and the first has
    # the most rows: each maximum is taken over every model, not the last
    sizes = []
    real = fpt.emit_ilp

    def recording(prep, applied):
        model, placed = real(prep, applied)
        sizes.append((len(model.variables), len(model.constraints)))
        return model, placed

    monkeypatch.setattr(fpt, "emit_ilp", recording)
    stats = solve_fpt(random_fen_graph(18, 7, random.Random(139))).stats
    assert sizes == [(38, 85), (38, 83)]
    assert (stats["ilp_vars_max"], stats["ilp_rows_max"]) == (38, 85)


def test_shut_tests_grow_with_the_offsets():
    # refute_guess tests each anchor pair at the lower corner of its
    # placement ranges, which is sound because a pair shut at offsets
    # (xa, xb) stays shut when either offset grows: so shut at (1, 1) or at
    # a fixed corner means shut at every placement above it
    mixed = 0
    for prep in seeded_kernels(36, 40, 3):
        # every ordered pair of anchors 2*i + r, across and within segments
        for a, b in permutations(range(2 * len(prep.h)), 2):
            shut_at = functools.partial(row_shut, prep, a, b)
            ha, hb = prep.h[a // 2], prep.h[b // 2]
            grid = [
                [shut_at(xa, xb) for xb in range(1, hb + 1)] for xa in range(1, ha + 1)
            ]
            for xa in range(ha):
                for xb in range(hb):
                    if grid[xa][xb]:
                        assert xa + 1 == ha or grid[xa + 1][xb], (a, b, xa + 1, xb + 1)
                        assert xb + 1 == hb or grid[xa][xb + 1], (a, b, xa + 1, xb + 1)
            mixed += 0 < sum(map(sum, grid)) < ha * hb
    # the implications bite only on pairs that are shut at some offsets
    # and open at others: 4004 of them on these kernels
    assert mixed > 2_000, mixed


def test_route_masks_are_computed_once_per_pair(monkeypatch):
    # count-based guard: refutation and model building read one route
    # table, so each ordered pair of segment ends is worked out once
    computed, preps, built = [], [], []
    real_mask, real_prepare, real_emit = fpt._route_mask, fpt.prepare, fpt.emit_ilp

    def counting_mask(prep, va, vb):
        computed.append((va, vb))
        return real_mask(prep, va, vb)

    def keeping_prepare(work, fed):
        preps.append(real_prepare(work, fed))
        return preps[-1]

    def counting_emit(prep, applied):
        built.append(applied)
        return real_emit(prep, applied)

    monkeypatch.setattr(fpt, "_route_mask", counting_mask)
    monkeypatch.setattr(fpt, "prepare", keeping_prepare)
    monkeypatch.setattr(fpt, "emit_ilp", counting_emit)
    solve_fpt(random_fen_graph(18, 7, random.Random(9)))
    (prep,) = preps
    assert built and computed
    assert sorted(computed) == sorted(prep.route_masks)


def test_answer_tracks_threshold():
    g = complete_graph(4)
    assert solve_fpt(g, k=4).answer is True
    assert solve_fpt(g, k=3).answer is False
    assert solve_fpt(g).answer is None


def test_deterministic_across_runs(rng):
    g = random_fen_graph(14, 3, rng)
    a = solve_fpt(g)
    b = solve_fpt(g)
    assert (a.status, a.optimum, a.witness, a.algorithm) == (
        b.status,
        b.optimum,
        b.witness,
        b.algorithm,
    )


GOLDEN = Path(__file__).resolve().parent / "data" / "fen_golden.json"


def test_matches_golden_draws():
    # 120 draws, fen 2-9 and n 6-22: with r = random.Random(seed),
    # n = r.randint(max(6, fen + 3), 22), then random_fen_graph(n, fen, r).
    # Their status, optimum and witness are pinned as first solved, and
    # checked against min_geodetic_brute when they were recorded.
    draws = json.loads(GOLDEN.read_text())
    assert len(draws) == 120
    for draw in draws:
        g = Graph(draw["n"], [tuple(e) for e in draw["edges"]])
        assert g.m - g.n + 1 == draw["fen"]
        res = solve_fpt(g)
        got = (res.status, res.optimum, list(res.witness))
        assert got == (draw["status"], draw["optimum"], draw["witness"]), draw["seed"]
