"""Exact simplex: frozen examples, vertex-enumeration differential, duality."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mccwe.errors import CertificateError, MalformedLP, SizeLimit
from mccwe.lp import (
    EQ,
    GE,
    LE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _check_certificates,
    make_lp,
    solve_lp,
)

F = Fraction


def _solve_square(rows, rhs):
    """Gaussian elimination; None when the system is singular."""
    n = len(rhs)
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = F(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [aug[r][k] - f * aug[col][k] for k in range(n + 1)]
    return [aug[r][-1] for r in range(n)]


def vertex_enumeration_optimum(lp):
    """Brute-force optimum of a bounded feasible LP over x >= 0.

    Intersects every choice of n active constraints (rows treated as
    equalities plus coordinate planes), keeps the feasible points, and
    maximizes the objective.  Independent of the simplex path.
    """
    n = len(lp.objective)
    planes = [(row, rhs) for row, _rel, rhs in lp.constraints]
    planes += [(tuple(F(int(j == k)) for k in range(n)), F(0)) for j in range(n)]
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        point = _solve_square([planes[i][0] for i in combo], [planes[i][1] for i in combo])
        if point is None or any(x < 0 for x in point):
            continue
        ok = True
        for coeffs, rel, rhs in lp.constraints:
            lhs = sum(c * x for c, x in zip(coeffs, point))
            if (rel == LE and lhs > rhs) or (rel == GE and lhs < rhs) or (rel == EQ and lhs != rhs):
                ok = False
                break
        if ok:
            value = sum(c * x for c, x in zip(lp.objective, point))
            if best is None or value > best:
                best = value
    return best


def check_dual_from_outside(lp, sol):
    """Dual sign per relation, A^T y >= c, complementary slackness, strong duality."""
    n = len(lp.objective)
    for (coeffs, rel, rhs), y in zip(lp.constraints, sol.dual):
        assert (rel == LE and y >= 0) or (rel == GE and y <= 0) or rel == EQ
        lhs = sum(c * x for c, x in zip(coeffs, sol.primal))
        assert y == 0 or lhs == rhs  # a dual price only on a tight row
    for j in range(n):
        reduced = sum(coeffs[j] * y for (coeffs, _rel, _rhs), y in zip(lp.constraints, sol.dual))
        assert reduced >= lp.objective[j]
        assert sol.primal[j] == 0 or reduced == lp.objective[j]
    assert sum(c * x for c, x in zip(lp.objective, sol.primal)) == sol.objective_value
    assert sum(r * y for (_c, _rel, r), y in zip(lp.constraints, sol.dual)) == sol.objective_value


def test_single_variable_box():
    sol = solve_lp(make_lp([1], [([1], LE, 1)]))
    assert sol.status == OPTIMAL
    assert sol.primal == (F(1),)
    assert sol.objective_value == F(1)


def test_forced_corner():
    sol = solve_lp(make_lp([1, 1], [([1, 1], LE, 1), ([1, 0], LE, 0)]))
    assert sol.status == OPTIMAL
    assert sol.primal == (F(0), F(1))
    assert sol.objective_value == F(1)


def test_two_constraint_example_matches_vertex_oracle():
    lp = make_lp([3, 4], [([1, 2], LE, 4), ([3, 1], LE, 6)])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    # Frozen from the vertex oracle: optimum at the row intersection (8/5, 6/5).
    assert sol.objective_value == F(48, 5)
    assert vertex_enumeration_optimum(lp) == F(48, 5)


def test_infeasible():
    sol = solve_lp(make_lp([1], [([1], GE, 2), ([1], LE, 1)]))
    assert sol.status == INFEASIBLE
    assert sol.primal is None


def test_unbounded():
    sol = solve_lp(make_lp([1, 1], [([1, -1], LE, 1)]))
    assert sol.status == UNBOUNDED


def test_equality_rows_and_duality():
    lp = make_lp([2, 3], [([1, 1], EQ, 2), ([1, 0], LE, 1)])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == F(6)  # x=(0,2)
    check_dual_from_outside(lp, sol)


def test_duplicated_equality_row_gets_zero_dual():
    # Phase 1 drops the copy as redundant; its dual stays 0.
    lp = make_lp([2, 3], [([1, 1], EQ, 2), ([1, 1], EQ, 2)])
    sol = solve_lp(lp)
    assert (sol.status, sol.primal, sol.dual, sol.objective_value) == (
        OPTIMAL, (F(0), F(2)), (F(3), F(0)), F(6)
    )


def test_redundant_row_left_in_another_rows_place():
    # Phase 1 ends with one = row's artificial basic in an all-zero row
    # that began as a different row.  The dual is read off the final
    # reduced costs, so no row has to be named as the redundant one.
    lp = make_lp(
        [0, 2],
        [([-2, 1], EQ, -1), ([-3, -3], LE, -6), ([1, -1], EQ, 0), ([0, 1], EQ, 1)],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == (F(1), F(1))
    assert sol.objective_value == F(2) == vertex_enumeration_optimum(lp)
    check_dual_from_outside(lp, sol)


def test_negative_rhs_row_is_handled():
    # -x <= -1 forces x >= 1.
    sol = solve_lp(make_lp([-1], [([-1], LE, -1)]))
    assert sol.status == OPTIMAL
    assert sol.primal == (F(1),)
    assert sol.objective_value == F(-1)


def test_malformed_rows_rejected():
    with pytest.raises(MalformedLP):
        make_lp([1, 2], [([1], LE, 1)])
    with pytest.raises(MalformedLP):
        make_lp([1], [([1], "<", 1)])


def test_variable_cap():
    with pytest.raises(SizeLimit):
        make_lp([0] * 200_001, [])


def test_no_constraints():
    assert solve_lp(make_lp([0, 0], [])).objective_value == 0
    assert solve_lp(make_lp([1, 0], [])).status == UNBOUNDED


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_small_lps_match_vertex_enumeration(data):
    n = data.draw(st.integers(1, 4), label="vars")
    n_rows = data.draw(st.integers(0, 4), label="rows")
    coeff = st.integers(-4, 4)
    constraints = []
    for _ in range(n_rows):
        coeffs = data.draw(st.lists(coeff, min_size=n, max_size=n))
        rhs = data.draw(st.integers(0, 8))
        constraints.append((coeffs, LE, rhs))
    # Box rows keep the region bounded so the vertex oracle is total.
    for j in range(n):
        constraints.append(([int(k == j) for k in range(n)], LE, 6))
    objective = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    lp = make_lp(objective, constraints)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL  # origin feasible, box-bounded
    assert sol.objective_value == vertex_enumeration_optimum(lp)
    check_dual_from_outside(lp, sol)


def _random_mixed_lp(rng):
    """<=, >= and = rows, negative right-hand sides, one duplicated row, a box."""
    n = rng.randint(1, 3)
    witness = [rng.randint(0, 3) for _ in range(n)] if rng.random() < 0.7 else None
    constraints = []
    for _ in range(rng.randint(1, 4)):
        coeffs = [rng.randint(-4, 4) for _ in range(n)]
        rel = rng.choice((LE, GE, EQ))
        if witness is None:
            rhs = rng.randint(-8, 8)
        else:  # feasible at the witness, so phase 1 mostly succeeds
            lhs = sum(a * x for a, x in zip(coeffs, witness))
            rhs = lhs + {LE: rng.randint(0, 2), GE: -rng.randint(0, 2), EQ: 0}[rel]
        constraints.append((coeffs, rel, rhs))
    if rng.random() < 0.5:
        constraints.insert(rng.randint(0, len(constraints)), rng.choice(constraints))
    constraints += [([int(k == j) for k in range(n)], LE, 6) for j in range(n)]
    objective = [rng.randint(-5, 5) for _ in range(n)]
    return make_lp(objective, constraints)


@pytest.mark.parametrize("seed", range(4))
def test_random_mixed_lps_match_vertex_enumeration(seed):
    rng = random.Random(seed)
    statuses = set()
    for _ in range(100):
        lp = _random_mixed_lp(rng)
        sol = solve_lp(lp)
        statuses.add(sol.status)
        best = vertex_enumeration_optimum(lp)
        if best is None:
            assert sol.status == INFEASIBLE
            continue
        assert sol.status == OPTIMAL  # box-bounded
        assert sol.objective_value == best
        check_dual_from_outside(lp, sol)
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_corrupted_certificates_raise():
    lp = make_lp([3, 4], [([1, 2], LE, 4), ([3, 1], LE, 6), ([1, 0], GE, 0)])
    sol = solve_lp(lp)
    primal, dual, value = list(sol.primal), list(sol.dual), sol.objective_value
    assert primal == [F(8, 5), F(6, 5)] and dual == [F(9, 5), F(2, 5), F(0)]
    _check_certificates(lp, primal, dual, value)
    bad_primal = [F(-1), primal[1]]
    with pytest.raises(CertificateError, match="primal negativity"):
        _check_certificates(lp, bad_primal, dual, value)
    with pytest.raises(CertificateError, match="sign violation on <= row"):
        _check_certificates(lp, primal, [-dual[0], dual[1], dual[2]], value)
    with pytest.raises(CertificateError, match="sign violation on >= row"):
        _check_certificates(lp, primal, [dual[0], dual[1], F(1)], value)
    with pytest.raises(CertificateError, match="dual infeasibility"):
        _check_certificates(lp, primal, [F(0), dual[1], dual[2]], value)
    with pytest.raises(CertificateError, match="strong duality gap"):
        _check_certificates(lp, primal, dual, value + 1)
    eq_lp = make_lp([1], [([1], EQ, 1)])
    with pytest.raises(CertificateError, match="equality row violated"):
        _check_certificates(eq_lp, [F(2)], [F(1)], F(2))
