"""The integer tableau against the `Fraction` simplex it replaced.

Both solvers pivot by the same rule on the same program (the largest
reduced cost enters, and the lexicographic ratio test picks the row that
leaves), so they must agree on every pivot: the tests require identical
status, primal, dual, value and pivot count, not merely the same optimum.
Bland's rule alone, the library's rule before, must reach the same value.
The item-pricing LP hands `simplex` closures, not rows: each program it
solves is rebuilt as rows from them and solved by the reference too.
"""

import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from configlp_reference import build_config_lp as dense_config_lp, pruned_config_lp
from lp_reference import BLAND, LinearProgram, library_solve, read_basis
from lp_reference import solve as reference_solve, solve_lp as reference_solve_lp
from mccwe import CertificateError, induced_partition, singleton_partition
from mccwe import oracle
from mccwe.instances import built_in, generate, partition_reduction
from mccwe.lp import OPTIMAL, UNBOUNDED, simplex
from mccwe.oracle import best_single_minded_item_pricing, optimal_integral
from test_lp import check_dual_from_outside

F = Fraction


def _answer(sol):
    return (sol.status, sol.primal, sol.dual, sol.objective_value, sol.pivots)


def _assert_same(lp):
    sol = library_solve(lp)
    assert _answer(sol) == _answer(reference_solve_lp(lp))
    return sol.status


def _assert_blands_value(lp):
    """The same status and value as Bland's rule alone, and a certificate
    that holds from outside the solver."""
    sol = library_solve(lp)
    bland = reference_solve(lp, BLAND)
    assert (sol.status, sol.objective_value) == (bland.status, bland.objective_value)
    if sol.status == OPTIMAL:
        check_dual_from_outside(lp, sol)
    return sol, bland


def _coefficient(rng):
    """Mixed sign, often zero, often fractional."""
    return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))


def _cleared(values):
    """The values times the LCM of their denominators, as ints."""
    scale = lcm(*(v.denominator for v in values))
    return tuple(int(v * scale) for v in values)


def _row(coeffs, rhs):
    *coeffs, rhs = _cleared((*coeffs, rhs))
    return tuple(coeffs), rhs


def _random_fractional_lp(rng):
    """Fractional mixed-sign rows, zero right-hand sides, duplicated rows, and a
    box on only some of the variables, so some programs are unbounded.  The
    solver takes integers, so each row and the objective are drawn as
    fractions and cleared by the LCM of their denominators."""
    n = rng.randint(1, 5)
    constraints = []
    for _ in range(rng.randint(1, 5)):
        coeffs = tuple(_coefficient(rng) for _ in range(n))
        rhs = rng.choice((F(0), F(rng.randint(0, 9), rng.randint(1, 5))))
        constraints.append(_row(coeffs, rhs))
    if rng.random() < 0.5:
        constraints.insert(rng.randint(0, len(constraints)), rng.choice(constraints))
    for j in range(n):
        if rng.random() < 0.7:
            box = tuple(F(int(k == j)) for k in range(n))
            constraints.append(_row(box, F(rng.randint(1, 12), rng.randint(1, 3))))
    objective = _cleared([_coefficient(rng) for _ in range(n)])
    return LinearProgram(objective, tuple(constraints))


@pytest.mark.parametrize("seed", range(4))
def test_random_fractional_lps_match_the_reference(seed):
    rng = random.Random(f"lp-differential/{seed}")
    statuses = [_assert_same(_random_fractional_lp(rng)) for _ in range(150)]
    assert {OPTIMAL, UNBOUNDED} <= set(statuses)


def _random_started_lp(rng, zeros=1):
    """A packing program with a feasible start planted in it: each start
    row's column has entry 1 there and 0 in the other start rows, and every
    other row's right-hand side covers what the start draws from it.  Rows
    are mixed-sign and only some columns are boxed, so some programs are
    unbounded.  A row's right-hand side is drawn as 0 with odds `zeros` to
    1 before the start is planted.  Returns the program and its (row,
    column) start pairs."""
    n, n_rows = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n_rows)]
    rhs = [rng.choice((0,) * zeros + (rng.randint(0, 9),)) for _ in range(n_rows)]
    picks = rng.randint(1, min(n, n_rows))
    start = list(zip(rng.sample(range(n_rows), picks), rng.sample(range(n), picks)))
    for j in range(n):
        if rng.random() < 0.6:
            rows.append([int(k == j) for k in range(n)])
            rhs.append(rng.randint(1, 12))
    starts = {r for r, _j in start}
    for r, j in start:
        for s in starts:
            rows[s][j] = int(s == r)
    for s in range(len(rows)):
        if s not in starts:
            drawn = sum(rows[s][j] * rhs[r] for r, j in start)
            rhs[s] = max(rhs[s], drawn + rng.choice((0, rng.randint(0, 4))))
    objective = tuple(rng.randint(-5, 8) for _ in range(n))
    return LinearProgram(objective, tuple(zip(map(tuple, rows), rhs))), start


@pytest.mark.parametrize("seed", range(4))
def test_random_started_lps_match_the_reference(seed):
    # The dense tableau pivoted into the start, uncounted, then run by the
    # same rule: every pivot the same, and the slack-basis solve's value.
    rng = random.Random(f"lp-differential/started/{seed}")
    statuses = []
    for _ in range(150):
        lp, start = _random_started_lp(rng)
        sol = library_solve(lp, start)
        assert _answer(sol) == _answer(reference_solve_lp(lp, start))
        slack = library_solve(lp)
        assert (sol.status, sol.objective_value) == (slack.status, slack.objective_value)
        if sol.status == OPTIMAL:
            check_dual_from_outside(lp, sol)
        statuses.append(sol.status)
    assert {OPTIMAL, UNBOUNDED} <= set(statuses)


@pytest.mark.parametrize("seed", range(4))
def test_the_lexicographic_rule_never_cycles_on_degenerate_lps(seed):
    # Right-hand sides drawn 0 four times in five, solved from the slacks
    # and from a planted start by the reference, which raises Cycled when a
    # basis recurs: no basis recurs, each solve reaches Bland's status and
    # value, and the library pivots as the reference.
    rng = random.Random(f"lp-differential/degenerate/{seed}")
    degenerate = 0
    for _ in range(150):
        lp, start = _random_started_lp(rng, zeros=4)
        bland = reference_solve(lp, BLAND)
        degenerate += any(b == 0 for _coeffs, b in lp.constraints)
        for pairs in ((), start):
            sol = reference_solve_lp(lp, pairs)
            assert (sol.status, sol.objective_value) == (bland.status, bland.objective_value)
            assert _answer(library_solve(lp, pairs)) == _answer(sol)
    assert degenerate >= 130  # a degenerate slack basis


def _gap_markets():
    """Every market shape of the `gap` benchmark workload, at small seeds."""
    rng = random.Random("lp-differential/gap")
    markets = [
        built_in("fig1a"),
        built_in("fig1a", eps=F(37, 100)),
        built_in("nonuniform_identical_budget"),
        built_in("nonuniform_identical_budget", eps=F(3, 100)),
    ]
    for size in (5, 6, 7):
        markets.append(partition_reduction([rng.randint(1, 9) for _ in range(size)]))
    for family in ("random_superadditive", "random_single_minded", "random_uniform_budget_additive"):
        for n in (2, 3):
            markets.append(generate(family, 6, n, rng.getrandbits(32)))
    return markets


@pytest.mark.parametrize("seed", range(2))
def test_random_fractional_lps_reach_blands_value(seed):
    rng = random.Random(f"lp-differential/{seed}")
    statuses = [_assert_blands_value(_random_fractional_lp(rng))[0].status for _ in range(150)]
    assert {OPTIMAL, UNBOUNDED} <= set(statuses)


def test_configuration_lps_reach_blands_value_in_fewer_pivots():
    pivots = {"library": 0, "bland": 0}
    for instance in _gap_markets():
        x, _welfare = optimal_integral(instance)
        for partition in (singleton_partition(instance.m), induced_partition(x)[0]):
            sol, bland = _assert_blands_value(pruned_config_lp(instance, partition))
            pivots["library"] += sol.pivots
            pivots["bland"] += bland.pivots
    assert pivots == {"library": 157, "bland": 381}


@pytest.mark.parametrize("instance", _gap_markets(), ids=lambda inst: inst.name)
def test_configuration_lps_match_the_reference(instance):
    # The dense programs keep the integer tableau meeting wide programs
    # (up to 2 * 127 columns here); the pruned ones are what the library solves.
    x, _welfare = optimal_integral(instance)
    for partition in (singleton_partition(instance.m), induced_partition(x)[0]):
        assert _assert_same(dense_config_lp(instance, partition)) == OPTIMAL
        assert _assert_same(pruned_config_lp(instance, partition)) == OPTIMAL


def _rows(ncols, rhs, price, column):
    """The program the closures describe, as rows: the objective is the
    reduced cost at d = 1 and zero multipliers, each row read off the
    columns' entries."""
    objective = tuple(price(1, [0] * len(rhs)))
    rows = [[0] * ncols for _ in rhs]
    for j in range(ncols):
        for r, a in column(j):
            rows[r][j] = a
    return LinearProgram(objective, tuple((tuple(row), b) for row, b in zip(rows, rhs)))


def test_item_pricing_lps_pivot_as_the_reference(monkeypatch):
    solves = []

    def recording(*program):
        solves.append((program, simplex(*program)))
        return solves[-1][1]

    monkeypatch.setattr(oracle, "simplex", recording)
    for seed in range(12):
        best_single_minded_item_pricing(generate("random_single_minded", 5, 4, seed))
    assert best_single_minded_item_pricing(built_in("bundling_necessity", m=9)) == 7
    assert len(solves) > 12
    for program, basic in solves:
        lp = _rows(*program)
        assert read_basis(lp.objective, basic) == reference_solve_lp(lp)


def _shifted(field, pick, delta):
    """A corruption of a basis: entry `pick(basis)` of `field` moved by delta."""

    def corrupt(basic):
        entries = list(getattr(basic, field))
        entries[pick(basic)] += delta
        return replace(basic, **{field: tuple(entries)})

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _shifted("dual", lambda basic: 0, 1),
        _shifted("dual", lambda basic: 1, 1),
        _shifted("values", lambda basic: basic.basis.index(0), 1),
        _shifted("values", lambda basic: basic.basis.index(7), -2),
        lambda basic: _shifted("dual", lambda b: 3, -1)(
            _shifted("values", lambda b: b.basis.index(4), -1)(basic)
        ),
        lambda basic: replace(basic, status=UNBOUNDED),
    ],
    ids=["winner-dual", "loser-dual", "price", "negative-slack", "no-t", "unbounded"],
)
def test_a_corrupted_item_pricing_basis_is_caught(corrupt, monkeypatch):
    # bundling_necessity(4) solves one LP, for the winner family {0}: agents
    # 0 and 1 want overlapping pairs, agent 2 every item.  Its basis prices
    # item 0 at agent 0's value, 5, and holds t = 1 and agent 2's slack, 1.
    # Each corruption fails one check of the re-check: a dual raised in the
    # winner's row breaks strong duality, in a loser's row the cover of the
    # items it desires; a higher price overfills the winner's row, the slack
    # turns negative, and t = 0 with a zero dual on t <= 1 leaves t's column
    # uncovered.  The re-check is no assert, so it holds under -O.
    inst = built_in("bundling_necessity", m=4)
    assert best_single_minded_item_pricing(inst) == 5
    solves = []

    def corrupted(*program):
        solves.append(program)
        return corrupt(simplex(*program))

    monkeypatch.setattr(oracle, "simplex", corrupted)
    with pytest.raises(CertificateError, match="integer re-check"):
        best_single_minded_item_pricing(inst)
    assert len(solves) == 1  # refused at the one LP, not a later one
