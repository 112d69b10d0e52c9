"""Brute-force minimum geodetic set search.

This is the reference solver the fast algorithms are checked against, so it
stays deliberately simple: enumerate candidate sets by increasing size and
lexicographic order, with interval coverage tracked as integer bitmasks.
Degree-1 vertices are seeded into every candidate because no shortest path
between two other vertices passes through them, yet they must be covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from geodetic.graph import (
    DisconnectedError,
    Graph,
    VerificationError,
    _bfs_order,
    is_connected,
    is_geodetic,
)

OPTIMAL = "optimal"
BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class OracleResult:
    status: str
    size: int | None
    witness: tuple[int, ...] | None
    tested: int


def pair_interval_masks(g: Graph, vertices: Sequence[int]) -> dict[tuple[int, int], int]:
    """Bitmask of the shortest-path interval for each pair from ``vertices``.

    Keys are (u, v) with u <= v; the diagonal entry is the singleton bit.
    Only pairs in the same component get an entry.
    """
    vs = sorted(set(vertices))
    rows = {v: _bfs_order(g.adj, v)[0] for v in vs}
    masks: dict[tuple[int, int], int] = {}
    for i, u in enumerate(vs):
        masks[(u, u)] = 1 << u
        du = rows[u]
        for v in vs[i + 1 :]:
            dv = rows[v]
            duv = du[v]
            if duv < 0:
                continue
            mask = 0
            for w in range(g.n):
                if du[w] + dv[w] == duv:
                    mask |= 1 << w
            masks[(u, v)] = mask
    return masks


class _BudgetExhausted(Exception):
    pass


def min_geodetic_brute(g: Graph, node_budget: int | None = None) -> OracleResult:
    """Exact minimum geodetic set of a connected graph by exhaustive search.

    ``node_budget`` caps the number of candidate sets evaluated; hitting it
    yields status ``budget-exhausted`` with ``size`` and ``witness`` unset.
    """
    if not is_connected(g):
        raise DisconnectedError("brute-force search requires a connected graph")
    n = g.n
    if n == 0:
        return OracleResult(OPTIMAL, 0, (), 0)
    masks = pair_interval_masks(g, range(n))
    full = (1 << n) - 1
    forced = [v for v in range(n) if g.degree(v) == 1]
    free = [v for v in range(n) if g.degree(v) != 1]

    base_mask = 0
    for i, u in enumerate(forced):
        base_mask |= masks[(u, u)]
        for v in forced[i + 1 :]:
            base_mask |= masks[(u, v)]
    # everything a single free vertex can ever contribute, for pruning
    cross_base: dict[int, int] = {}
    reach: dict[int, int] = {}
    for c in free:
        cb = masks[(c, c)]
        for f in forced:
            cb |= masks[(min(c, f), max(c, f))]
        cross_base[c] = cb
        r = cb
        for o in free:
            if o != c:
                r |= masks[(min(c, o), max(c, o))]
        reach[c] = r
    potential = [0] * (len(free) + 1)
    for i in range(len(free) - 1, -1, -1):
        potential[i] = potential[i + 1] | reach[free[i]]

    tested = 0

    def search(extra: int) -> tuple[int, ...] | None:
        nonlocal tested
        chosen: list[int] = []

        def rec(start: int, mask: int, remaining: int) -> tuple[int, ...] | None:
            nonlocal tested
            if remaining == 0:
                if node_budget is not None and tested >= node_budget:
                    raise _BudgetExhausted
                tested += 1
                if mask == full:
                    return tuple(sorted(forced + chosen))
                return None
            if mask | potential[start] != full:
                return None
            for idx in range(start, len(free) - remaining + 1):
                c = free[idx]
                add = cross_base[c]
                for s in chosen:
                    add |= masks[(min(c, s), max(c, s))]
                chosen.append(c)
                found = rec(idx + 1, mask | add, remaining - 1)
                chosen.pop()
                if found is not None:
                    return found
            return None

        return rec(0, base_mask, extra)

    try:
        for extra in range(len(free) + 1):
            witness = search(extra)
            if witness is not None:
                # independent set-based verification of the mask arithmetic
                if not is_geodetic(g, witness):
                    raise VerificationError(f"brute witness {witness} is not geodetic")
                return OracleResult(OPTIMAL, len(witness), witness, tested)
    except _BudgetExhausted:
        return OracleResult(BUDGET_EXHAUSTED, None, None, tested)
    raise AssertionError("full vertex set is always geodetic")  # pragma: no cover

