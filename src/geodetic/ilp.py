"""Small exact integer linear feasibility solver.

Pure-integer depth-first branch and bound with interval propagation; no
floating point anywhere, so answers on the tiny models built here are exact
by construction.  A model stores each row in ``<=`` form when it is added,
duplicate terms merged, so the search reads the rows as they are.

The search keeps each row's minimum and maximum activity, the least and
the greatest value its left side can take within the current bounds.  Every
bound change goes on a trail and shifts the activities of the variable's
rows by the change; backtracking pops the trail and shifts them back.  So
propagating a row reads its minimum activity instead of summing the row,
and a row whose activity spread fits in its slack is passed over at once.

Each search node branches on the first row, in model order, that some
completion of the current bounds could still violate: its maximum activity
exceeds its right side.  Bounds only tighten on descent, so a row settled
at a node stays settled below it, and a child resumes that scan at the row
where its parent's scan stopped.  The node splits that row's unfixed
variable of smallest id and tries first the half that helps the row hold:
the lower half where the variable raises the row's left side, the upper
half otherwise.  Once no row can be violated, the lower bounds are a
solution.  Runs are deterministic.
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
    """Find any integral assignment satisfying every constraint.

    ``node_budget`` caps the nodes that branch: a node where every row is
    settled returns its solution, and is counted, whatever the budget."""
    rows = model.constraints
    lo = [a for a, _b in model.variables]
    hi = [b for _a, b in model.variables]
    for vid, (a, b) in enumerate(model.variables):
        if a > b:
            raise IlpError(f"variable {vid} has empty domain")

    # each row's least and greatest left side within the bounds; a rise of
    # lo[v] by one adds c to act_min of each row where v has a coefficient
    # c > 0 and to act_max where c < 0, a rise of hi[v] the other way
    rhs_of = [rhs for _coeffs, rhs in rows]
    act_min: list[int] = []
    act_max: list[int] = []
    # each variable's rows, and its coefficient in each
    rows_of: list[list[int]] = [[] for _ in lo]
    coeffs_of: list[list[int]] = [[] for _ in lo]
    for r, (coeffs, _rhs) in enumerate(rows):
        least = most = 0
        for v, c in coeffs:
            rows_of[v].append(r)
            coeffs_of[v].append(c)
            if c > 0:
                least += c * lo[v]
                most += c * hi[v]
            else:
                least += c * hi[v]
                most += c * lo[v]
        act_min.append(least)
        act_max.append(most)

    trail: list[tuple[int, int, int]] = []  # (var, 0=lo/1=hi, old value)

    def shift(v: int, delta: int, rising: list[int], falling: list[int]) -> None:
        """Move the activities of v's rows by a change of ``delta`` in one
        bound of v: ``rising`` where v's coefficient is positive, else
        ``falling``."""
        for r, c in zip(rows_of[v], coeffs_of[v]):
            if c > 0:
                rising[r] += c * delta
            else:
                falling[r] += c * delta

    def set_lo(v: int, val: int) -> None:
        trail.append((v, 0, lo[v]))
        shift(v, val - lo[v], act_min, act_max)
        lo[v] = val

    def set_hi(v: int, val: int) -> None:
        trail.append((v, 1, hi[v]))
        shift(v, val - hi[v], act_max, act_min)
        hi[v] = val

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v, which, old = trail.pop()
            if which == 0:
                shift(v, old - lo[v], act_min, act_max)
                lo[v] = old
            else:
                shift(v, old - hi[v], act_max, act_min)
                hi[v] = old

    queue: deque[int] = deque()
    queued = bytearray(len(rows))

    def tighten(r: int) -> bool:
        """Apply row r to the bounds once; False when it cannot hold.

        The row's own tightenings leave its minimum activity unchanged, so
        only the other rows of a tightened variable are queued again.  No
        term can tighten when the whole activity spread fits in the slack.
        """
        slack = rhs_of[r] - act_min[r]
        if slack < 0:
            return False
        if act_max[r] - act_min[r] <= slack:
            return True
        for v, c in rows[r][0]:
            a, b = lo[v], hi[v]
            if a == b:
                continue
            if c > 0:
                bound = a + slack // c
                if bound >= b:
                    continue
                if bound < a:
                    return False
                set_hi(v, bound)
            else:
                bound = b - slack // -c
                if bound <= a:
                    continue
                if bound > b:
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

    def next_var(start: int) -> tuple[int, int, bool] | None:
        """From row ``start`` on, the first row not yet settled for every
        completion, its unfixed variable of smallest id and whether to try
        the upper half first; None means all rows are settled."""
        for r in range(start, len(rows)):
            if act_max[r] > rhs_of[r]:
                for v, c in rows[r][0]:
                    if lo[v] < hi[v]:
                        return r, v, c < 0
        return None

    nodes = 0
    if not propagate(range(len(rows))):
        return IlpResult(INFEASIBLE, None, nodes)
    # frames [var, tried, trail mark, upper first, row the scan stopped at]
    stack: list[list] = []
    state = "descend"
    while True:
        if state == "descend":
            pick = next_var(stack[-1][4] if stack else 0)
            if pick is not None and node_budget is not None and nodes >= node_budget:
                return IlpResult(BUDGET_EXHAUSTED, None, nodes)
            nodes += 1
            if pick is None:
                for coeffs, rhs in rows:
                    if sum(c * lo[v] for v, c in coeffs) > rhs:
                        raise IlpError(f"solution breaks the row {coeffs} <= {rhs}")
                return IlpResult(FEASIBLE, dict(enumerate(lo)), nodes)
            r, v, upper_first = pick
            stack.append([v, 0, len(trail), upper_first, r])
            state = "branch"
        else:  # branch
            if not stack:
                return IlpResult(INFEASIBLE, None, nodes)
            frame = stack[-1]
            v, tried, mark, upper_first, _r = frame
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
