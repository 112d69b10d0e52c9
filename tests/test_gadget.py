from __future__ import annotations

import random

import pytest

from geodetic import gadget as gadget_module
from geodetic.gadget import (
    GadgetBudgetError,
    GadgetError,
    build_gadget,
    canonical_solution,
    exhaustive_no_check,
    expected_edge_count,
    expected_vertex_count,
    format_registry,
    verify_structure,
)
from geodetic.graph import (
    VerificationError,
    format_graph,
    interval_closure,
    is_geodetic,
)
from geodetic.gridtiling import (
    GridTilingInstance,
    grid_tiling_brute,
    random_no_instance,
    random_yes_instance,
)


def uniform_instance() -> GridTilingInstance:
    tile = ((1, 1),)
    return GridTilingInstance(2, 1, 1, ((tile, tile), (tile, tile)))


def test_counts_smallest_case():
    gadget = build_gadget(uniform_instance())
    assert gadget.graph.n == 1100
    assert gadget.graph.n == expected_vertex_count(2, 1, 1)
    assert gadget.graph.m == 1188
    assert gadget.graph.m == expected_edge_count(2, 1, 1)
    assert gadget.k_prime == 8
    assert gadget.hub_count() == 64
    assert len(gadget.tile_ids) == 4


def test_count_mismatch_raises(monkeypatch):
    # an explicit check, so it also runs under python -O
    def off_by_one(k: int, m: int, n: int) -> int:
        return expected_vertex_count(k, m, n) + 1

    monkeypatch.setattr(gadget_module, "expected_vertex_count", off_by_one)
    with pytest.raises(VerificationError, match="formulas"):
        build_gadget(uniform_instance())


def test_pendants_are_the_only_leaves():
    gadget = build_gadget(uniform_instance())
    g = gadget.graph
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    assert sorted(gadget.pendants.values()) == leaves
    assert len(leaves) == 4


def test_build_rejects_bad_parameters():
    tile = ((1, 1),)
    odd = GridTilingInstance(1, 1, 1, ((tile,),))
    with pytest.raises(GadgetError):
        build_gadget(odd)
    with pytest.raises(GadgetError):
        build_gadget(uniform_instance(), vertical_coefficient=3)


def test_build_rejects_budgets_from_three():
    # seeds 1, 3 and 6 plant a set that is not geodetic at m = 3
    for m in (3, 4):
        inst, _sol = random_yes_instance(2, m, 1, random.Random(1))
        with pytest.raises(GadgetError):
            build_gadget(inst)
    inst, _sol = random_yes_instance(2, 2, 1, random.Random(1))
    gadget = build_gadget(inst)
    assert is_geodetic(gadget.graph, canonical_solution(gadget))


def test_rebuild_is_byte_identical():
    a = build_gadget(uniform_instance())
    b = build_gadget(uniform_instance())
    assert format_graph(a.graph) == format_graph(b.graph)
    assert format_registry(a) == format_registry(b)
    assert a.tile_ids == b.tile_ids


def test_structure_report_smallest_case():
    gadget = build_gadget(uniform_instance())
    report = verify_structure(gadget)
    assert report.ok
    assert report.degree_one_count == 4
    assert report.hub_count == 64
    assert report.hubs_removed_is_forest
    assert report.pendant_closure_exact
    assert report.diameter <= 36 * 1 + 6


def test_structure_report_with_vertical_coefficient_two():
    gadget = build_gadget(uniform_instance(), vertical_coefficient=2)
    assert gadget.graph.n == 1100 and gadget.graph.m == 1188
    assert verify_structure(gadget).ok


def test_canonical_solution_is_geodetic():
    gadget = build_gadget(uniform_instance())
    chosen = canonical_solution(gadget)
    assert len(chosen) == 8
    assert is_geodetic(gadget.graph, chosen)


def test_canonical_solution_yes_instance(rng: random.Random):
    inst, planted = random_yes_instance(2, 2, 2, rng)
    gadget = build_gadget(inst)
    chosen = canonical_solution(gadget, planted)
    assert is_geodetic(gadget.graph, chosen)
    assert not exhaustive_no_check(gadget)


def test_no_instance_has_no_candidate(rng: random.Random):
    inst = random_no_instance(2, 2, 2, rng)
    gadget = build_gadget(inst)
    assert grid_tiling_brute(inst) is None
    assert exhaustive_no_check(gadget)
    with pytest.raises(GadgetError):
        canonical_solution(gadget)


def test_no_check_budget():
    inst = build_gadget(uniform_instance())
    with pytest.raises(GadgetBudgetError):
        exhaustive_no_check(inst, budget=0)


def test_mismatch_uncovers_only_plain_hubs():
    # every cell offers (1,1) and (2,2); consistent picks are all-first or
    # all-second, and any mix breaks an agreement constraint
    tile = ((1, 1), (2, 2))
    inst = GridTilingInstance(2, 2, 2, ((tile, tile), (tile, tile)))
    gadget = build_gadget(inst)
    all_first = (((1, 1), (1, 1)), ((1, 1), (1, 1)))
    good = canonical_solution(gadget, all_first)
    assert is_geodetic(gadget.graph, good)
    mixed = set(good)
    mixed.discard(gadget.tile_ids[(1, 1, 1)])
    mixed.add(gadget.tile_ids[(1, 1, 2)])
    assert not is_geodetic(gadget.graph, mixed)
    missing = frozenset(range(gadget.graph.n)) - interval_closure(gadget.graph, mixed)
    assert missing
    assert missing <= frozenset(gadget.plain_hubs)
