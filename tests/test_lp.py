"""Exact simplex: frozen examples, vertex-enumeration differential, duality.

Programs are given by their rows (`lp_reference.LinearProgram`) and pivoted
by the library's `simplex` through `lp_reference.library_solve`."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_reference import BLAND, DANTZIG, Cycled, LinearProgram, library_solve, read_basis
from lp_reference import solve as reference_solve
from mccwe.errors import CertificateError
from mccwe.lp import OPTIMAL, UNBOUNDED, simplex

F = Fraction


def _lp(objective, rows):
    """A LinearProgram from plain ints: rows are (coeffs, rhs), meaning <=."""
    return LinearProgram(
        tuple(objective), tuple((tuple(coeffs), rhs) for coeffs, rhs in rows)
    )


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


def vertex_enumeration_optimum(objective, rows):
    """Brute-force max of objective . x over {x >= 0 : coeffs . x <= rhs}.

    Intersects every choice of n active constraints (rows treated as
    equalities plus coordinate planes), keeps the feasible points, and
    maximizes the objective; None when no vertex is feasible.  Any sign of
    right-hand side is allowed.  Independent of the simplex path; the
    maximum is the LP optimum whenever the LP is bounded.
    """
    n = len(objective)
    planes = list(rows)
    planes += [(tuple(F(int(j == k)) for k in range(n)), F(0)) for j in range(n)]
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        point = _solve_square([planes[i][0] for i in combo], [planes[i][1] for i in combo])
        if point is None or any(x < 0 for x in point):
            continue
        if any(sum(c * x for c, x in zip(coeffs, point)) > rhs for coeffs, rhs in rows):
            continue
        value = sum(c * x for c, x in zip(objective, point))
        if best is None or value > best:
            best = value
    return best


def dual_is_feasible(lp):
    """Is {y >= 0 : A^T y >= c} nonempty?  By vertex enumeration over y.

    The origin is feasible for every LP here, so by LP duality the program
    is unbounded exactly when this dual region is empty.
    """
    n_rows = len(lp.constraints)
    dual_rows = [
        (tuple(-coeffs[j] for coeffs, _rhs in lp.constraints), -lp.objective[j])
        for j in range(len(lp.objective))
    ]
    return vertex_enumeration_optimum([F(0)] * n_rows, dual_rows) is not None


def check_dual_from_outside(lp, sol):
    """Dual signs, A^T y >= c, complementary slackness, strong duality."""
    n = len(lp.objective)
    for (coeffs, rhs), y in zip(lp.constraints, sol.dual):
        assert y >= 0
        lhs = sum(c * x for c, x in zip(coeffs, sol.primal))
        assert y == 0 or lhs == rhs  # a dual price only on a tight row
    for j in range(n):
        reduced = sum(coeffs[j] * y for (coeffs, _rhs), y in zip(lp.constraints, sol.dual))
        assert reduced >= lp.objective[j]
        assert sol.primal[j] == 0 or reduced == lp.objective[j]
    assert sum(c * x for c, x in zip(lp.objective, sol.primal)) == sol.objective_value
    assert sum(r * y for (_c, r), y in zip(lp.constraints, sol.dual)) == sol.objective_value


def test_single_variable_box():
    sol = library_solve(_lp([1], [([1], 1)]))
    assert sol.status == OPTIMAL
    assert sol.primal == (F(1),)
    assert sol.objective_value == F(1)


def test_forced_corner():
    sol = library_solve(_lp([1, 1], [([1, 1], 1), ([1, 0], 0)]))
    assert sol.status == OPTIMAL
    assert sol.primal == (F(0), F(1))
    assert sol.objective_value == F(1)


def test_two_constraint_example_matches_vertex_oracle():
    lp = _lp([3, 4], [([1, 2], 4), ([3, 1], 6)])
    sol = library_solve(lp)
    assert sol.status == OPTIMAL
    # Frozen from the vertex oracle: optimum at the row intersection (8/5, 6/5).
    assert sol.objective_value == F(48, 5)
    assert vertex_enumeration_optimum(lp.objective, lp.constraints) == F(48, 5)


def test_unbounded():
    sol = library_solve(_lp([1, 1], [([1, -1], 1)]))
    assert sol.status == UNBOUNDED


def test_duplicated_row_gets_zero_dual():
    # x1 has the larger reduced cost and enters; the two copies tie on
    # right-hand side 2 in the ratio test, and the second copy's row,
    # (2, e_1), is lexicographically below the first's, (2, e_0), so the
    # second copy's slack leaves.  The first copy stays slack-basic at level
    # 0, so its dual is 0.
    lp = _lp([2, 3], [([1, 1], 2), ([1, 1], 2)])
    sol = library_solve(lp)
    assert (sol.status, sol.primal, sol.dual, sol.objective_value) == (
        OPTIMAL, (F(0), F(2)), (F(0), F(3)), F(6)
    )
    check_dual_from_outside(lp, sol)


def test_largest_coefficient_rule_cycles_where_the_lexicographic_test_terminates():
    # Chvatal's cycling example (Linear Programming, 1983, p. 31) in
    # integers: its two degenerate rows doubled, with their slacks written
    # as explicit columns of coefficient 2, so every reduced cost compares as
    # in the original.  The largest-coefficient rule with basis-index ties
    # meets the basis it had after pivot 2 again after pivot 8; the same
    # entering rule with the lexicographic ratio test stops after 2 pivots.
    lp = _lp(
        [10, -57, -9, -24, 0, 0],
        [([1, -11, -5, 18, 2, 0], 0), ([1, -3, -1, 2, 0, 2], 0), ([1, 0, 0, 0, 0, 0], 1)],
    )
    with pytest.raises(Cycled, match="recurs after 8 pivots"):
        reference_solve(lp, DANTZIG)
    sol = library_solve(lp)
    assert sol == reference_solve(lp)
    assert sol.pivots == 2
    assert sol.objective_value == 1 == vertex_enumeration_optimum(lp.objective, lp.constraints)
    check_dual_from_outside(lp, sol)
    assert reference_solve(lp, BLAND).objective_value == 1


def _disguised_chvatal(rng):
    """Chvatal's example above with up to two zero right-hand-side rows and
    up to two costly columns of random entries added, and every row scaled
    by a random positive factor, which changes no reduced cost."""
    objective = [10, -57, -9, -24, 0, 0]
    rows = [[1, -11, -5, 18, 2, 0, 0], [1, -3, -1, 2, 0, 2, 0], [1, 0, 0, 0, 0, 0, 1]]
    for _ in range(rng.randint(0, 2)):
        objective.append(rng.randint(-60, -30))
        for row in rows:
            row.insert(-1, rng.randint(-4, 4))
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randint(0, len(rows)), [rng.randint(-3, 3) for _ in objective] + [0])
    rows = [[a * k for a in row] for row, k in zip(rows, (rng.randint(1, 3) for _ in rows))]
    return _lp(objective, [(row[:-1], row[-1]) for row in rows])


def test_the_lexicographic_test_terminates_where_the_largest_coefficient_rule_cycles():
    # Seeded disguises of Chvatal's example: the largest-coefficient rule
    # with basis-index ties cycles on 50 of these 100, and the library's
    # rule stops on every one at Bland's value, pivoting as the reference.
    rng = random.Random("lp/chvatal")
    cycled = 0
    for _ in range(100):
        lp = _disguised_chvatal(rng)
        try:
            reference_solve(lp, DANTZIG)
        except Cycled:
            cycled += 1
        sol = library_solve(lp)
        assert sol == reference_solve(lp)
        bland = reference_solve(lp, BLAND)
        assert (sol.status, sol.objective_value) == (OPTIMAL, bland.objective_value)
        check_dual_from_outside(lp, sol)
    assert cycled == 50


def test_a_pricing_that_misses_a_basic_column_raises():
    # A pricing without the row multipliers keeps pricing the column it
    # just entered; without the check the loop would pivot on it forever.
    with pytest.raises(CertificateError, match="basic column a nonzero reduced cost"):
        simplex(1, [1], lambda d, lam: [4 * d], lambda j: [(0, 1)])


def _unit_program():
    """max 3x + 2y subject to x + y <= 1, x + z <= 1, y <= 1, with a
    costless z: the closures `simplex` takes, x, y and z as columns 0-2."""
    columns = [[(0, 1), (1, 1)], [(0, 1), (2, 1)], [(1, 1)]]

    def price(d, lam):
        return [d * c + sum(lam[r] * a for r, a in col) for c, col in zip((3, 2, 0), columns)]

    return 3, [1, 1, 1], price, columns.__getitem__


def test_a_start_basis_is_taken_in_closed_form():
    # Row 0 basic in x: x's entry in row 1 makes row 1's slack e_1 - e_0,
    # at right-hand side 0, and lam_0 = -3.  x = 1 is optimal, so no pivot.
    start = simplex(*_unit_program(), start=[(0, 0, 3)])
    assert (start.basis, start.values, start.dual, start.pivots) == ((0, 4, 5), (1, 0, 1), (3, 0, 0), 0)
    # From the slacks x enters, rows 0 and 1 tie at right-hand side 1, and
    # row 1's slack leaves, e_1 being lexicographically below e_0; y then
    # enters row 0 at level 0: another optimal basis, of the same value 3.
    slack = simplex(*_unit_program())
    assert (slack.basis, slack.values, slack.dual) == ((1, 0, 5), (0, 1, 1), (2, 1, 0))
    assert slack.pivots == 2
    value = read_basis((3, 2, 0), start).objective_value
    assert read_basis((3, 2, 0), slack).objective_value == value == 3


@pytest.mark.parametrize(
    "start, match",
    [
        ([(0, 0, 3), (0, 1, 2)], "distinct rows"),  # two start columns in one row
        ([(3, 2, 0)], "distinct rows"),  # the program has no row 3
        ([(0, 0, 3), (1, 2, 0)], "unit column"),  # x has an entry in start row 1
        ([(2, 1, 2), (0, 0, 3)], "unit column"),  # y has an entry in start row 0
        ([(1, 1, 2)], "unit column"),  # y has no entry in row 1
        ([(0, 3, 0)], "not a structural column"),
        ([(0, 0, 2)], "basic column a nonzero reduced cost"),  # x's cost is 3
    ],
)
def test_a_malformed_start_raises(start, match):
    with pytest.raises(CertificateError, match=match):
        simplex(*_unit_program(), start)


def test_an_infeasible_start_raises():
    # Row 0 basic in x, whose entry 2 in row 1 overdraws row 1's capacity.
    columns = [[(0, 1), (1, 2)]]
    with pytest.raises(CertificateError, match="infeasible"):
        simplex(1, [1, 1], lambda d, lam: [d + lam[0] + 2 * lam[1]], columns.__getitem__, [(0, 0, 1)])


def test_no_constraints():
    assert library_solve(_lp([0, 0], [])).objective_value == 0
    assert library_solve(_lp([1, 0], [])).status == UNBOUNDED


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
        constraints.append((coeffs, rhs))
    # Box rows keep the region bounded so the vertex oracle is total.
    for j in range(n):
        constraints.append(([int(k == j) for k in range(n)], 6))
    objective = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    lp = _lp(objective, constraints)
    sol = library_solve(lp)
    assert sol.status == OPTIMAL  # origin feasible, box-bounded
    assert sol.objective_value == vertex_enumeration_optimum(lp.objective, lp.constraints)
    check_dual_from_outside(lp, sol)


def _random_mixed_lp(rng):
    """Mixed-sign rows, degenerate zero right-hand sides, one duplicated row,
    and a box on only some of the variables, so some programs are unbounded."""
    n = rng.randint(1, 3)
    constraints = []
    for _ in range(rng.randint(1, 4)):
        coeffs = [rng.randint(-4, 4) for _ in range(n)]
        constraints.append((coeffs, rng.choice((0, rng.randint(0, 8)))))
    if rng.random() < 0.5:
        constraints.insert(rng.randint(0, len(constraints)), rng.choice(constraints))
    constraints += [
        ([int(k == j) for k in range(n)], 6) for j in range(n) if rng.random() < 0.7
    ]
    objective = [rng.randint(-5, 5) for _ in range(n)]
    return _lp(objective, constraints)


@pytest.mark.parametrize("seed", range(4))
def test_random_mixed_lps_match_vertex_enumeration(seed):
    rng = random.Random(seed)
    statuses = set()
    for _ in range(100):
        lp = _random_mixed_lp(rng)
        sol = library_solve(lp)
        statuses.add(sol.status)
        if not dual_is_feasible(lp):
            assert sol.status == UNBOUNDED
            continue
        assert sol.status == OPTIMAL
        assert sol.objective_value == vertex_enumeration_optimum(lp.objective, lp.constraints)
        check_dual_from_outside(lp, sol)
    assert statuses == {OPTIMAL, UNBOUNDED}
