from __future__ import annotations

import random

import pytest

from geodetic.gridtiling import (
    GridTilingError,
    GridTilingInstance,
    format_grid_tiling,
    grid_tiling_brute,
    random_instance,
    random_no_instance,
    random_yes_instance,
    solution_valid,
)


def uniform_instance() -> GridTilingInstance:
    tile = ((1, 1),)
    return GridTilingInstance(2, 1, 1, ((tile, tile), (tile, tile)))


def test_validation_rejects_bad_instances():
    tile = ((1, 1),)
    with pytest.raises(GridTilingError):
        GridTilingInstance(0, 1, 1, ())
    with pytest.raises(GridTilingError):
        GridTilingInstance(2, 1, 1, ((tile,), (tile,)))
    with pytest.raises(GridTilingError):
        GridTilingInstance(1, 1, 2, ((((1, 1), (1, 1)),),))
    with pytest.raises(GridTilingError):
        GridTilingInstance(1, 1, 1, ((((1, 2)),),))
    with pytest.raises(GridTilingError):
        GridTilingInstance(1, 2, 2, (((((2, 1), (1, 1))),),))  # unsorted


def test_brute_uniform_yes():
    inst = uniform_instance()
    solution = grid_tiling_brute(inst)
    assert solution is not None
    assert solution_valid(inst, solution)


def test_brute_mismatched_row_is_no():
    tiles = (
        (((1, 1),), ((2, 1),)),
        (((1, 1),), ((2, 1),)),
    )
    inst = GridTilingInstance(2, 2, 1, tiles)
    assert grid_tiling_brute(inst) is None


def test_solution_valid_rejects_wrong_picks():
    inst = uniform_instance()
    good = (((1, 1), (1, 1)), ((1, 1), (1, 1)))
    assert solution_valid(inst, good)
    bad = (((1, 1), (1, 1)), ((1, 1), (2, 2)))
    assert not solution_valid(inst, bad)


def read_tiles(text: str) -> GridTilingInstance:
    """Reader for the ``.tiles`` text: ``k m n``, then k*k row-major cell
    lines of n ``x,y`` entries."""
    head, *cells = text.splitlines()
    k, m, n = (int(x) for x in head.split())
    flat = [
        tuple(tuple(int(c) for c in entry.split(",")) for entry in line.split())
        for line in cells
    ]
    rows = tuple(tuple(flat[i * k : (i + 1) * k]) for i in range(k))
    return GridTilingInstance(k, m, n, rows)


def test_round_trip():
    rng = random.Random(5)
    inst = random_instance(2, 3, 2, rng)
    text = format_grid_tiling(inst)
    assert read_tiles(text) == inst
    assert format_grid_tiling(read_tiles(text)) == text


def test_random_yes_has_planted_solution(rng: random.Random):
    for _ in range(20):
        inst, planted = random_yes_instance(2, 3, 2, rng)
        assert solution_valid(inst, planted)
        assert grid_tiling_brute(inst) is not None


def test_random_no_has_no_solution(rng: random.Random):
    for _ in range(10):
        inst = random_no_instance(2, 2, 1, rng)
        assert grid_tiling_brute(inst) is None


def test_random_no_rejects_trivial_parameters(rng: random.Random):
    with pytest.raises(GridTilingError):
        random_no_instance(2, 1, 1, rng)


def test_wrap_around_constraints():
    # row wrap: columns k-1 and 0 must also agree on x
    tiles = (
        (((1, 1), (2, 1)), ((1, 1), (2, 1))),
        (((1, 1), (2, 1)), ((1, 1), (2, 1))),
    )
    inst = GridTilingInstance(2, 2, 2, tiles)
    pick = (((1, 1), (1, 1)), ((1, 1), (1, 1)))
    assert solution_valid(inst, pick)
    mixed = (((1, 1), (2, 1)), ((1, 1), (2, 1)))
    assert not solution_valid(inst, mixed)
