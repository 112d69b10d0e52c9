"""Small exact integer linear feasibility solver.

Pure-integer depth-first branch and bound with interval propagation; no
floating point anywhere, so answers on the tiny models built here are exact
by construction.  A model stores each row in ``<=`` form when it is added,
duplicate terms merged, so the search reads the rows as they are.  Each
search node branches on the first row, in model order, that some
completion of the current bounds could still violate.  It splits that
row's unfixed variable of smallest id and tries first the half that helps
the row hold: the lower half where the variable raises the row's left
side, the upper half otherwise.  Once no row can be violated, the lower
bounds are a solution.  Runs are deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXHAUSTED = "budget-exhausted"


class IlpError(ValueError):
    """Malformed model or query."""


Row = tuple[tuple[tuple[int, int], ...], int]  # ((var id, coefficient), ...), rhs


@dataclass
class IlpModel:
    """Variable domains as ``(lo, hi)`` pairs, indexed by variable id, and
    rows as ``(coeffs, rhs)`` meaning ``sum of coeff * var <= rhs``."""

    variables: list[tuple[int, int]]
    constraints: list[Row]

    def add_variable(self, lo: int, hi: int) -> int:
        if lo > hi:
            raise IlpError(f"empty domain [{lo}, {hi}]")
        self.variables.append((lo, hi))
        return len(self.variables) - 1

    def add_constraint(
        self, coeffs: Sequence[tuple[int, int]], sense: str, rhs: int
    ) -> None:
        """Add ``sum of coeff * var (sense) rhs``, stored in ``<=`` form with
        duplicate terms merged, zero terms dropped and terms sorted by id."""
        if sense not in ("<=", ">="):
            raise IlpError(f"unknown sense {sense!r}")
        merged: dict[int, int] = {}
        for vid, c in coeffs:
            if not 0 <= vid < len(self.variables):
                raise IlpError(f"unknown variable {vid}")
            merged[vid] = merged.get(vid, 0) + c
        sign = 1 if sense == "<=" else -1
        items = tuple(sorted((v, sign * c) for v, c in merged.items() if c != 0))
        self.constraints.append((items, sign * rhs))


@dataclass(frozen=True)
class IlpResult:
    status: str
    assignment: dict[int, int] | None
    nodes: int


def solve(model: IlpModel, node_budget: int | None = None) -> IlpResult:
    """Find any integral assignment satisfying every constraint."""
    rows = model.constraints
    lo = [a for a, _b in model.variables]
    hi = [b for _a, b in model.variables]
    for vid, (a, b) in enumerate(model.variables):
        if a > b:
            raise IlpError(f"variable {vid} has empty domain")

    trail: list[tuple[int, int, int]] = []  # (var, 0=lo/1=hi, old value)

    def set_lo(v: int, val: int) -> None:
        trail.append((v, 0, lo[v]))
        lo[v] = val

    def set_hi(v: int, val: int) -> None:
        trail.append((v, 1, hi[v]))
        hi[v] = val

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v, which, old = trail.pop()
            if which == 0:
                lo[v] = old
            else:
                hi[v] = old

    # each variable's rows, for the queue of rows whose bounds may tighten
    rows_of: list[list[int]] = [[] for _ in lo]
    for r, (coeffs, _rhs) in enumerate(rows):
        for v, _c in coeffs:
            rows_of[v].append(r)
    queue: deque[int] = deque()
    queued = bytearray(len(rows))

    def tighten(r: int) -> bool:
        """Apply row r to the bounds once; False when it cannot hold.

        The row's own tightenings leave its minimum activity unchanged, so
        only the other rows of a tightened variable are queued again.
        """
        coeffs, rhs = rows[r]
        min_act = 0
        for v, c in coeffs:
            min_act += c * lo[v] if c > 0 else c * hi[v]
        if min_act > rhs:
            return False
        for v, c in coeffs:
            if lo[v] == hi[v]:
                continue
            contrib = c * lo[v] if c > 0 else c * hi[v]
            allowed = rhs - (min_act - contrib)
            if c > 0:
                bound = allowed // c
                if bound >= hi[v]:
                    continue
                if bound < lo[v]:
                    return False
                set_hi(v, bound)
            else:
                bound = -(allowed // (-c))
                if bound <= lo[v]:
                    continue
                if bound > hi[v]:
                    return False
                set_lo(v, bound)
            for q in rows_of[v]:
                if not queued[q] and q != r:
                    queued[q] = 1
                    queue.append(q)
        return True

    def propagate(pending: Sequence[int]) -> bool:
        """Tighten bounds from the pending rows until no bound moves.

        Tightening is monotone, so the fixpoint, and whether it is empty,
        does not depend on the order the queued rows are taken in.
        """
        for r in pending:
            if not queued[r]:
                queued[r] = 1
                queue.append(r)
        while queue:
            r = queue.popleft()
            queued[r] = 0
            if not tighten(r):
                for q in queue:
                    queued[q] = 0
                queue.clear()
                return False
        return True

    def next_var() -> tuple[int, bool] | None:
        """Unfixed variable from the first row not yet settled for every
        completion, with the half to try first; None means all rows are."""
        for coeffs, rhs in rows:
            max_act = 0
            for v, c in coeffs:
                max_act += c * hi[v] if c > 0 else c * lo[v]
            if max_act <= rhs:
                continue
            for v, c in coeffs:
                if lo[v] < hi[v]:
                    return v, c < 0
        return None

    nodes = 0
    if not propagate(range(len(rows))):
        return IlpResult(INFEASIBLE, None, nodes)
    stack: list[list] = []  # frames [var, tried, trail mark, upper first]
    state = "descend"
    while True:
        if state == "descend":
            if node_budget is not None and nodes >= node_budget:
                return IlpResult(BUDGET_EXHAUSTED, None, nodes)
            nodes += 1
            pick = next_var()
            if pick is None:
                assignment = dict(enumerate(lo))
                for coeffs, rhs in rows:
                    assert sum(c * assignment[i] for i, c in coeffs) <= rhs
                return IlpResult(FEASIBLE, assignment, nodes)
            stack.append([pick[0], 0, len(trail), pick[1]])
            state = "branch"
        else:  # branch
            if not stack:
                return IlpResult(INFEASIBLE, None, nodes)
            frame = stack[-1]
            v, tried, mark, upper_first = frame
            undo(mark)
            mid = (lo[v] + hi[v]) // 2
            if tried == 2:
                stack.pop()
                continue
            frame[1] = tried + 1
            take_upper = upper_first == (tried == 0)
            if take_upper:
                set_lo(v, mid + 1)
            else:
                set_hi(v, mid)
            state = "descend" if propagate(rows_of[v]) else "branch"
