"""Grid tiling instances: generation, text output, and brute-force solving.

An instance is a k-by-k grid of cells, each holding exactly n pairs from
[1, m] x [1, m].  A solution picks one pair per cell so that horizontally
adjacent cells (cyclically, so column k wraps to column 1) agree on the
first coordinate and vertically adjacent cells agree on the second.  Cells
are indexed [i][j] zero-based row-major in code; values are 1-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from geodetic.graph import VerificationError

Entry = tuple[int, int]
Solution = tuple[tuple[Entry, ...], ...]


class GridTilingError(ValueError):
    """Malformed instance, or generation parameters that admit none."""


def _check_sizes(k: int, m: int, n: int) -> None:
    if k < 1 or m < 1 or n < 1:
        raise GridTilingError("k, m, n must all be positive")


@dataclass(frozen=True)
class GridTilingInstance:
    k: int
    m: int
    n: int
    tiles: tuple[tuple[tuple[Entry, ...], ...], ...]  # [i][j] -> sorted entries

    def __post_init__(self) -> None:
        _check_sizes(self.k, self.m, self.n)
        if len(self.tiles) != self.k or any(len(row) != self.k for row in self.tiles):
            raise GridTilingError("tile grid must be k by k")
        for row in self.tiles:
            for tile in row:
                if len(tile) != self.n:
                    raise GridTilingError(f"each cell needs exactly {self.n} entries")
                if len(set(tile)) != self.n:
                    raise GridTilingError("cell entries must be distinct")
                if list(tile) != sorted(tile):
                    raise GridTilingError("cell entries must be sorted")
                for x, y in tile:
                    if not (1 <= x <= self.m and 1 <= y <= self.m):
                        raise GridTilingError(f"entry ({x}, {y}) out of range")


def solution_valid(inst: GridTilingInstance, pick: Solution) -> bool:
    """Check the row/column agreement constraints for a full assignment."""
    k = inst.k
    for i in range(k):
        for j in range(k):
            if pick[i][j] not in inst.tiles[i][j]:
                return False
            if pick[i][j][0] != pick[i][(j + 1) % k][0]:
                return False
            if pick[i][j][1] != pick[(i + 1) % k][j][1]:
                return False
    return True


def grid_tiling_brute(inst: GridTilingInstance) -> Solution | None:
    """First valid assignment in lexicographic cell-entry order, or None."""
    k = inst.k
    cells = [(i, j) for i in range(k) for j in range(k)]
    for choice in product(*(inst.tiles[i][j] for i, j in cells)):
        pick = tuple(
            tuple(choice[i * k + j] for j in range(k)) for i in range(k)
        )
        if solution_valid(inst, pick):
            return pick
    return None


def format_grid_tiling(inst: GridTilingInstance) -> str:
    out = [f"{inst.k} {inst.m} {inst.n}"]
    for i in range(inst.k):
        for j in range(inst.k):
            out.append(" ".join(f"{x},{y}" for x, y in inst.tiles[i][j]))
    return "\n".join(out) + "\n"


def _pad_tile(
    forced: list[Entry], m: int, n: int, rng: random.Random
) -> tuple[Entry, ...]:
    entries = set(forced)
    universe = [(x, y) for x in range(1, m + 1) for y in range(1, m + 1)]
    if n > len(universe):
        raise GridTilingError(f"cannot fill a cell with {n} distinct entries")
    spare = [e for e in universe if e not in entries]
    rng.shuffle(spare)
    while len(entries) < n:
        entries.add(spare.pop())
    return tuple(sorted(entries))


def random_yes_instance(
    k: int, m: int, n: int, rng: random.Random
) -> tuple[GridTilingInstance, Solution]:
    """Instance with a planted solution: one x per row, one y per column."""
    _check_sizes(k, m, n)
    row_x = [rng.randrange(1, m + 1) for _ in range(k)]
    col_y = [rng.randrange(1, m + 1) for _ in range(k)]
    planted = tuple(
        tuple((row_x[i], col_y[j]) for j in range(k)) for i in range(k)
    )
    tiles = tuple(
        tuple(_pad_tile([planted[i][j]], m, n, rng) for j in range(k))
        for i in range(k)
    )
    inst = GridTilingInstance(k, m, n, tiles)
    if not solution_valid(inst, planted):
        raise VerificationError("the planted tiling is not a solution")
    return inst, planted


def random_instance(k: int, m: int, n: int, rng: random.Random) -> GridTilingInstance:
    _check_sizes(k, m, n)
    tiles = tuple(
        tuple(_pad_tile([], m, n, rng) for _ in range(k)) for _ in range(k)
    )
    return GridTilingInstance(k, m, n, tiles)


def random_no_instance(
    k: int, m: int, n: int, rng: random.Random, max_tries: int = 10000
) -> GridTilingInstance:
    """Rejection-sample instances until one has no solution.

    Impossible for m = 1 (everything matches trivially), so callers must
    pass m >= 2; still raises if sampling keeps finding solvable instances.
    """
    _check_sizes(k, m, n)
    if m < 2:
        raise GridTilingError("no-instances need m >= 2")
    for _ in range(max_tries):
        inst = random_instance(k, m, n, rng)
        if grid_tiling_brute(inst) is None:
            return inst
    raise GridTilingError(f"no unsolvable instance found in {max_tries} tries")
