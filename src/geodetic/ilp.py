"""Small exact integer linear feasibility solver.

Pure-integer depth-first branch and bound with interval propagation; no
floating point anywhere, so answers on the tiny models built here are exact
by construction.  A model stores each row in ``<=`` form when it is added,
duplicate terms merged, so the search reads the rows as they are.

Each search node owns its lists of lower and upper bounds, copied when its
parent branched, so backtracking undoes nothing, and propagation sums each
queued row afresh.  A node branches on the first row, in model order, that
some completion of its bounds could still break.  Bounds only tighten on
descent, so a child resumes that scan at the row where its parent's scan
stopped.  The node splits that row's unfixed variable of smallest id and
tries first the half that helps the row hold: the lower half where the
variable raises the row's left side, the upper half otherwise.  Once no
row can be broken, the lower bounds are a solution.  Runs are
deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXHAUSTED = "budget-exhausted"


class IlpError(ValueError):
    """Malformed model or query, or a solution that breaks a row."""


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
        terms sorted by id, duplicate terms merged and zero terms dropped."""
        if sense not in ("<=", ">="):
            raise IlpError(f"unknown sense {sense!r}")
        terms = sorted(coeffs)
        if terms:
            first, last = terms[0][0], terms[-1][0]
            if first < 0 or last >= len(self.variables):
                raise IlpError(f"unknown variable {first if first < 0 else last}")
        merged: list[tuple[int, int]] = []
        for term in terms:
            if merged and merged[-1][0] == term[0]:
                term = (term[0], merged.pop()[1] + term[1])
            merged.append(term)
        if sense == "<=":
            self.constraints.append((tuple(t for t in merged if t[1]), rhs))
        else:
            self.constraints.append((tuple((v, -c) for v, c in merged if c), -rhs))


@dataclass(frozen=True)
class IlpResult:
    status: str
    assignment: dict[int, int] | None
    nodes: int


def solve(model: IlpModel, node_budget: int | None = None) -> IlpResult:
    """Find any integral assignment satisfying every constraint.  The
    solution is checked against every row; one that breaks a row raises
    :class:`IlpError`.

    ``node_budget`` caps the nodes that branch: a node where every row is
    settled returns its solution, and is counted, whatever the budget."""
    rows = model.constraints
    lo = [a for a, _b in model.variables]
    hi = [b for _a, b in model.variables]
    for vid, (a, b) in enumerate(model.variables):
        if a > b:
            raise IlpError(f"variable {vid} has empty domain")
    rows_of: list[list[int]] = [[] for _ in lo]
    for r, (coeffs, _rhs) in enumerate(rows):
        for v, _c in coeffs:
            rows_of[v].append(r)

    def propagate(lo: list[int], hi: list[int], pending: Sequence[int]) -> bool:
        """Tighten the bounds from the pending rows until none moves; False
        when a row cannot hold.  Tightening is monotone, so the fixpoint
        does not depend on the order the rows are taken in.  A row's own
        tightenings leave its slack as it was, so only the other rows of a
        tightened variable are queued again."""
        queue = deque(pending)
        queued = set(pending)
        while queue:
            r = queue.popleft()
            queued.discard(r)
            coeffs, rhs = rows[r]
            least = most = 0
            for v, c in coeffs:
                if c > 0:
                    least += c * lo[v]
                    most += c * hi[v]
                else:
                    least += c * hi[v]
                    most += c * lo[v]
            slack = rhs - least
            if slack < 0:
                return False
            if most - least <= slack:
                continue
            for v, c in coeffs:
                # slack >= 0, so no new bound crosses the other one
                if c > 0:
                    bound = lo[v] + slack // c
                    if bound >= hi[v]:
                        continue
                    hi[v] = bound
                else:
                    bound = hi[v] - slack // -c
                    if bound <= lo[v]:
                        continue
                    lo[v] = bound
                for q in rows_of[v]:
                    if q not in queued and q != r:
                        queued.add(q)
                        queue.append(q)
        return True

    def next_var(lo: list[int], hi: list[int], start: int) -> tuple | None:
        """From row ``start`` on, the first row some completion of the
        bounds could still break, its unfixed variable of smallest id and
        whether to try the upper half first; None when every row is
        settled."""
        for r in range(start, len(rows)):
            coeffs, rhs = rows[r]
            if sum(c * (hi[v] if c > 0 else lo[v]) for v, c in coeffs) > rhs:
                for v, c in coeffs:
                    if lo[v] < hi[v]:
                        return r, v, c < 0
        return None

    nodes = 0
    # the nodes still to visit, the next one last: each node's bounds, the
    # rows to propagate first and the row where its parent's scan stopped
    stack = [(lo, hi, range(len(rows)), 0)]
    while stack:
        lo, hi, pending, start = stack.pop()
        if not propagate(lo, hi, pending):
            continue
        pick = next_var(lo, hi, start)
        if pick is not None and node_budget is not None and nodes >= node_budget:
            return IlpResult(BUDGET_EXHAUSTED, None, nodes)
        nodes += 1
        if pick is None:
            for coeffs, rhs in rows:
                if sum(c * lo[v] for v, c in coeffs) > rhs:
                    raise IlpError(f"solution breaks the row {coeffs} <= {rhs}")
            return IlpResult(FEASIBLE, dict(enumerate(lo)), nodes)
        # split the variable, the half that helps the row hold tried first;
        # each child owns its bound lists
        r, v, upper_first = pick
        mid = (lo[v] + hi[v]) // 2
        upper = (lo[:], hi[:], rows_of[v], r)
        upper[0][v] = mid + 1
        hi[v] = mid
        lower = (lo, hi, rows_of[v], r)
        stack += [lower, upper] if upper_first else [upper, lower]
    return IlpResult(INFEASIBLE, None, nodes)
