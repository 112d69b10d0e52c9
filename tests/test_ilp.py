from __future__ import annotations

import random
from itertools import product

import pytest

from geodetic.ilp import (
    BUDGET_EXHAUSTED,
    FEASIBLE,
    INFEASIBLE,
    IlpError,
    IlpModel,
    solve,
)


def fresh_model() -> IlpModel:
    return IlpModel([], [])


def brute_force_feasible(model: IlpModel) -> bool:
    domains = [range(v.lo, v.hi + 1) for v in model.variables]
    for values in product(*domains):
        ok = True
        for con in model.constraints:
            total = sum(c * values[v] for v, c in con.coeffs)
            if con.sense == "<=" and total > con.rhs:
                ok = False
                break
            if con.sense == ">=" and total < con.rhs:
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
        m = fresh_model()
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
            m.add_constraint(coeffs, sense, rng.randrange(-6, 11))
        got = solve(m)
        assert (got.status == FEASIBLE) == brute_force_feasible(m)
