from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from itertools import product

import pytest

from geodetic.fpt import _effective_items, emit_ilp, prepare
from geodetic.generators import random_fen_graph
from geodetic.ilp import (
    BUDGET_EXHAUSTED,
    FEASIBLE,
    INFEASIBLE,
    IlpError,
    IlpModel,
    IlpResult,
    solve,
)
from geodetic.reduction import reduce_to_fixpoint


def fresh_model() -> IlpModel:
    return IlpModel([], [])


def reference_normalized(triple):
    """Reference: one ``(coeffs, sense, rhs)`` constraint as (coeffs, rhs)
    in <= form, duplicate terms merged."""
    coeffs, sense, rhs = triple
    merged: dict[int, int] = {}
    for vid, c in coeffs:
        merged[vid] = merged.get(vid, 0) + c
    items = tuple(sorted((v, c) for v, c in merged.items() if c != 0))
    if sense == "<=":
        return items, rhs
    return tuple((v, -c) for v, c in items), -rhs


def reference_solve(model, node_budget=None):
    """Reference: the solver that re-swept every row until no bound moved."""
    rows = model.constraints
    ids = list(range(len(model.variables)))
    lo = {i: a for i, (a, _b) in enumerate(model.variables)}
    hi = {i: b for i, (_a, b) in enumerate(model.variables)}
    for i in ids:
        if lo[i] > hi[i]:
            raise IlpError(f"variable {i} has empty domain")

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

    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for coeffs, rhs in rows:
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
                        if bound < hi[v]:
                            if bound < lo[v]:
                                return False
                            set_hi(v, bound)
                            changed = True
                    else:
                        bound = -(allowed // (-c))
                        if bound > lo[v]:
                            if bound > hi[v]:
                                return False
                            set_lo(v, bound)
                            changed = True
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
    if not propagate():
        return IlpResult(INFEASIBLE, None, nodes)
    stack: list[list] = []  # frames [var, tried, trail mark, upper first]
    state = "descend"
    while True:
        if state == "descend":
            pick = next_var()
            # only a node that branches spends budget
            if pick is not None and node_budget is not None and nodes >= node_budget:
                return IlpResult(BUDGET_EXHAUSTED, None, nodes)
            nodes += 1
            if pick is None:
                assignment = {i: lo[i] for i in ids}
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
            state = "descend" if propagate() else "branch"


def test_kept_activities_match_full_sweep_after_backtracking():
    # rows of two to seven terms with coefficients of magnitude 2 or 3 over
    # domains up to 0..7, often paired into a narrow band, so propagation
    # leaves much to the search and both halves of a split are searched:
    # sibling branches that shared bound lists would show as a different
    # search
    rng = random.Random(17)
    searched = {FEASIBLE: 0, INFEASIBLE: 0}
    for _ in range(200):
        m = fresh_model()
        n = rng.randrange(4, 8)
        for _ in range(n):
            m.add_variable(0, rng.randrange(2, 8))
        for _ in range(rng.randrange(2, 6)):
            picked = rng.sample(range(n), rng.randrange(2, n + 1))
            coeffs = [(v, rng.choice((-3, -2, 2, 3))) for v in picked]
            rhs = rng.randrange(-5, 12)
            m.add_constraint(coeffs, "<=", rhs)
            if rng.random() < 0.5:
                m.add_constraint(coeffs, ">=", rhs - rng.randrange(0, 2))
        got = solve(m)
        assert got == reference_solve(m)
        searched[got.status] += got.nodes > 2
    assert searched[FEASIBLE] >= 40 and searched[INFEASIBLE] >= 5, searched


Triple = tuple[list[tuple[int, int]], str, int]


def random_model(rng: random.Random) -> tuple[IlpModel, list[Triple]]:
    """A model of up to four small-domain variables and up to five rows,
    with the ``(coeffs, sense, rhs)`` triples it was given."""
    m = fresh_model()
    raw: list[Triple] = []
    nvars = rng.randrange(1, 5)
    for _ in range(nvars):
        lo = rng.randrange(-2, 2)
        m.add_variable(lo, lo + rng.randrange(0, 5))
    for _ in range(rng.randrange(1, 6)):
        coeffs = [
            (v, rng.randrange(-3, 4))
            for v in range(nvars)
            if rng.random() < 0.8
        ]
        sense = "<=" if rng.random() < 0.5 else ">="
        raw.append((coeffs, sense, rng.randrange(-6, 11)))
        m.add_constraint(*raw[-1])
    return m, raw


def random_models(rng: random.Random) -> Iterator[tuple[IlpModel, list[Triple]]]:
    """600 random models: those of test_matches_brute_force, then larger
    ones with more variables and rows of three terms, repeats allowed."""
    for trial in range(600):
        m, raw = random_model(rng)
        if trial >= 150:
            for _ in range(rng.randrange(0, 8)):
                m.add_variable(0, rng.randrange(1, 4))
            n = len(m.variables)
            for _ in range(rng.randrange(2, 12)):
                coeffs = [(rng.randrange(n), rng.randrange(-3, 4)) for _ in range(3)]
                sense = "<=" if rng.random() < 0.5 else ">="
                raw.append((coeffs, sense, rng.randrange(-4, 8)))
                m.add_constraint(*raw[-1])
        yield m, raw


BUDGETS = (0, 1, 30, None)


def brute_force_feasible(model: IlpModel, raw: list[Triple]) -> bool:
    domains = [range(lo, hi + 1) for lo, hi in model.variables]
    for values in product(*domains):
        ok = True
        for coeffs, sense, rhs in raw:
            total = sum(c * values[v] for v, c in coeffs)
            if sense == "<=" and total > rhs:
                ok = False
                break
            if sense == ">=" and total < rhs:
                ok = False
                break
        if ok:
            return True
    return False


def test_simple_feasible():
    m = fresh_model()
    x = m.add_variable(0, 5)
    y = m.add_variable(0, 5)
    m.add_constraint([(x, 1), (y, 1)], "<=", 3)
    m.add_constraint([(x, 1)], ">=", 1)
    m.add_constraint([(y, 1)], ">=", 1)
    result = solve(m)
    assert result.status == FEASIBLE
    assert result.assignment[x] + result.assignment[y] <= 3
    assert result.assignment[x] >= 1 and result.assignment[y] >= 1


def test_simple_infeasible():
    m = fresh_model()
    x = m.add_variable(0, 5)
    m.add_constraint([(x, 1)], "<=", 1)
    m.add_constraint([(x, 1)], ">=", 2)
    assert solve(m).status == INFEASIBLE


def test_empty_sum_row_infeasible():
    # a >= 1 row with no terms encodes an unmeetable requirement
    m = fresh_model()
    m.add_variable(0, 1)
    m.add_constraint([], ">=", 1)
    assert solve(m).status == INFEASIBLE


def test_empty_sum_row_vacuous():
    m = fresh_model()
    m.add_variable(0, 1)
    m.add_constraint([], "<=", 0)
    assert solve(m).status == FEASIBLE


def test_indicator_chain_propagates():
    # z = 1 forces all three y binaries through 3z <= y1 + y2 + y3
    m = fresh_model()
    z = m.add_variable(0, 1)
    ys = [m.add_variable(0, 1) for _ in range(3)]
    m.add_constraint([(z, 3)] + [(y, -1) for y in ys], "<=", 0)
    m.add_constraint([(z, 1)], ">=", 1)
    result = solve(m)
    assert result.status == FEASIBLE
    assert all(result.assignment[y] == 1 for y in ys)
    assert result.nodes == 1  # pure propagation, no branching


def test_negative_coefficients():
    m = fresh_model()
    x = m.add_variable(0, 10)
    y = m.add_variable(0, 10)
    m.add_constraint([(x, -2), (y, 1)], "<=", -5)  # 2x - y >= 5
    m.add_constraint([(x, 1)], "<=", 4)
    result = solve(m)
    assert result.status == FEASIBLE
    assert 2 * result.assignment[x] - result.assignment[y] >= 5


def test_duplicate_terms_merge():
    m = fresh_model()
    x = m.add_variable(0, 5)
    m.add_constraint([(x, 1), (x, 1)], "<=", 3)  # 2x <= 3
    result = solve(m)
    assert result.status == FEASIBLE
    assert result.assignment[x] <= 1


def test_unconstrained_variables_cost_no_nodes():
    # search only branches on variables of rows that are still unsettled,
    # so padding variables resolve to their lower bounds for free
    m = fresh_model()
    xs = [m.add_variable(0, 9) for _ in range(50)]
    m.add_constraint([(xs[0], 1)], ">=", 1)
    result = solve(m)
    assert result.status == FEASIBLE
    assert result.nodes <= 3
    assert set(result.assignment) == set(range(50))
    assert result.assignment[xs[0]] >= 1
    assert all(result.assignment[v] == 0 for v in xs[1:])


def test_value_choice_determinism():
    # branching raises the first variable of the unsatisfied row, then the
    # remaining free variables settle at their lower bounds
    m = fresh_model()
    xs = [m.add_variable(0, 5) for _ in range(3)]
    m.add_constraint([(x, 1) for x in xs], ">=", 2)
    a = solve(m)
    b = solve(m)
    assert a == b
    assert a.assignment == {xs[0]: 3, xs[1]: 0, xs[2]: 0}


def test_node_budget():
    m = fresh_model()
    xs = [m.add_variable(0, 1) for _ in range(12)]
    m.add_constraint([(x, 1) for x in xs], ">=", 6)
    m.add_constraint([(x, 1) for x in xs], "<=", 6)
    result = solve(m, node_budget=2)
    assert result.status == BUDGET_EXHAUSTED
    assert result.nodes == 2
    assert solve(m, node_budget=10**6).status == FEASIBLE


def test_zero_budget_answers_a_model_settled_at_the_root():
    # a node that does not branch spends no budget: an empty model, and one
    # whose root propagation settles every row, are feasible at node 1
    m = fresh_model()
    assert solve(m, node_budget=0) == IlpResult(FEASIBLE, {}, 1)
    x = m.add_variable(0, 3)
    m.add_constraint([(x, 1)], ">=", 3)
    assert solve(m, node_budget=0) == IlpResult(FEASIBLE, {x: 3}, 1)
    # a row left open must branch, which a zero budget forbids
    y, z = m.add_variable(0, 1), m.add_variable(0, 1)
    m.add_constraint([(y, 1), (z, 1)], ">=", 1)
    assert solve(m, node_budget=0) == IlpResult(BUDGET_EXHAUSTED, None, 0)
    assert solve(m, node_budget=1) == IlpResult(FEASIBLE, {x: 3, y: 1, z: 0}, 2)


def test_rejects_bad_model():
    m = fresh_model()
    with pytest.raises(IlpError):
        m.add_variable(3, 2)
    x = m.add_variable(0, 1)
    with pytest.raises(IlpError):
        m.add_constraint([(x + 7, 1)], "<=", 0)
    with pytest.raises(IlpError):
        m.add_constraint([(x, 1)], "==", 0)


def test_matches_brute_force(rng: random.Random):
    for _ in range(150):
        m, raw = random_model(rng)
        got = solve(m)
        assert (got.status == FEASIBLE) == brute_force_feasible(m, raw)


def test_rows_are_stored_in_le_form(rng: random.Random):
    # the draws hold both senses, repeated terms and zero coefficients
    seen = {"<=": 0, ">=": 0, "repeat": 0, "zero": 0}
    for m, raw in random_models(rng):
        assert m.constraints == [reference_normalized(t) for t in raw]
        for coeffs, sense, _rhs in raw:
            seen[sense] += 1
            seen["repeat"] += len({v for v, _c in coeffs}) < len(coeffs)
            seen["zero"] += any(c == 0 for _v, c in coeffs)
    assert min(seen.values()) >= 100


def test_row_queue_matches_full_sweep_on_random_models(rng: random.Random):
    statuses = set()
    for m, _raw in random_models(rng):
        for budget in BUDGETS:
            got = solve(m, node_budget=budget)
            assert got == reference_solve(m, node_budget=budget)
            statuses.add(got.status)
    assert statuses == {FEASIBLE, INFEASIBLE, BUDGET_EXHAUSTED}


def test_row_queue_matches_full_sweep_on_emitted_models():
    # guess models of dense graphs (n 14-24, fen 5-9), refuted guesses too,
    # up to each graph's first feasible guess
    draws = random.Random(9)
    seen = {FEASIBLE: 0, INFEASIBLE: 0, BUDGET_EXHAUSTED: 0}
    searched = 0
    while min(seen.values()) < 20 or searched < 20:
        g = random_fen_graph(draws.randint(14, 24), draws.randint(5, 9), draws)
        red = reduce_to_fixpoint(g)
        if red.decomposition is None:
            continue
        prep = prepare(red.graph, red.decomposition)
        for _size, _seq, guess in itertools.islice(_effective_items(prep), 40):
            model, _placed = emit_ilp(prep, guess)
            for budget in BUDGETS:
                got = solve(model, node_budget=budget)
                assert got == reference_solve(model, node_budget=budget)
                seen[got.status] += 1
            searched += got.nodes > 1
            if got.status == FEASIBLE:
                break
