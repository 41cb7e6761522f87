"""The undominated-column configuration LP against the dense one it replaced.

On the built-in markets and seeded markets of the three random families,
over the singleton partition, random coarser partitions and the partitions
that allocations induce, `fractional_opt` must have the dense LP's value,
its duals must be feasible for the dense LP, and `supporting_prices` must
raise `NotMCCWE` exactly where the dense LP says the allocation is not
supportable, with prices that pass `verify --mode mccwe` everywhere else.
The full-column dual re-check must accept and refuse exactly the duals that
the integer re-check it replaced (`configlp_reference.check_full_dual`)
does, on random tables and on duals just feasible and just infeasible.

`fractional_opt` pivots the program on its slack block from the block
DP's optimum and prices columns from the value tables;
`configlp_reference.pruned_config_lp` builds the same program as rows, and
`lp_reference.solve_lp`, the dense `Fraction` simplex, pivots it from the
same start, taken from the unpruned reference DP.  On every (market,
partition) that a seed-1 and a seed-2 gap pass and `best_mccwe` on each of
its markets solve, and on the cases above, both must give the same y,
duals, value and pivot count, and the value of the slack-basis solve.
"""

import io
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from configlp_reference import check_full_dual, covers_every_column, dense_opt
from configlp_reference import dense_supportable, pruned_config_lp
import oracle_reference
from lp_reference import library_solve, solve_lp
from mccwe import CertificateError, NotMCCWE, Partition, allocation, induced_partition
from mccwe import cli, configlp, market, singleton_partition, social_welfare
from mccwe.configlp import fractional_opt, supporting_prices
from mccwe.equilibria import MCCWE, verify
from mccwe.instances import FAMILIES, built_in, generate, partition_reduction
from mccwe.lp import simplex
from mccwe.market import block_tables
from mccwe.oracle import best_mccwe, optimal_integral
from test_configlp import _gap_workload

F = Fraction


def _markets():
    rng = random.Random("configlp-differential")
    markets = [
        built_in("fig1a"),
        built_in("fig1a", eps=F(37, 100)),
        built_in("fig1b"),
        built_in("revenue_example"),
        built_in("revenue_example", big=F(5, 2)),
        built_in("bundling_necessity", m=4),
        built_in("nonuniform_identical_budget"),
        built_in("nonuniform_identical_budget", eps=F(3, 100)),
        partition_reduction([3, 1, 4, 1, 5]),
    ]
    for family in FAMILIES:
        for _ in range(12):
            m, n, seed = rng.randint(2, 5), rng.randint(1, 4), rng.getrandbits(32)
            identical = family == "random_uniform_budget_additive" and rng.random() < 0.3
            markets.append(generate(family, m, n, seed, identical))
    return markets


def _random_allocation(rng, m, n):
    owners = [rng.randrange(-1, n) for _ in range(m)]
    bundles = [sum(1 << j for j, o in enumerate(owners) if o == i) for i in range(n)]
    return allocation(m, bundles, x0=sum(1 << j for j, o in enumerate(owners) if o < 0))


def _coarser_partition(rng, m):
    labels = [rng.randrange(m) for _ in range(m)]
    blocks = {}
    for j, label in enumerate(labels):
        blocks[label] = blocks.get(label, 0) | 1 << j
    return Partition(m, tuple(sorted(blocks.values(), key=lambda b: b & -b)))


def _cases(instance):
    """Partitions to solve and allocations to support, drawn per market."""
    rng = random.Random(f"configlp-differential/{instance.name}/{instance.agents}")
    m, n = instance.m, instance.n
    x_opt, _welfare = optimal_integral(instance)
    allocations = [x_opt] + [_random_allocation(rng, m, n) for _ in range(3)]
    partitions = [singleton_partition(m)] + [_coarser_partition(rng, m) for _ in range(2)]
    partitions += [induced_partition(x)[0] for x in allocations]
    return partitions, allocations


def _disagreements(instance):
    """Every way the library's answers differ from the dense LP's, as text."""
    partitions, allocations = _cases(instance)
    found = []
    for partition in partitions:
        try:
            sol = fractional_opt(instance, partition)
        except CertificateError as exc:
            found.append(f"{partition.blocks}: {exc}")
            continue
        value, _u, _q = dense_opt(instance, partition)
        if sol.value != value:
            found.append(f"{partition.blocks}: value {sol.value} against {value}")
        if not covers_every_column(instance, partition, sol.dual_u, sol.dual_q):
            found.append(f"{partition.blocks}: the dual misses a dense column")
    for x in allocations:
        try:
            outcome = supporting_prices(instance, x)
        except NotMCCWE as exc:
            gap = dense_opt(instance, induced_partition(x)[0])[0] - social_welfare(instance, x)
            if dense_supportable(instance, x) or exc.gap != gap:
                found.append(f"{x}: NotMCCWE({exc.gap}) where the dense gap is {gap}")
        except CertificateError as exc:
            found.append(f"{x}: {exc}")
        else:
            if not dense_supportable(instance, x):
                found.append(f"{x}: supported where the dense LP is not")
            elif not verify(instance, outcome, MCCWE).ok:
                found.append(f"{x}: its supporting prices fail verify")
    return found


_MARKETS = _markets()


@pytest.mark.parametrize("instance", _MARKETS, ids=lambda inst: inst.name)
def test_undominated_columns_answer_as_the_dense_lp(instance):
    assert _disagreements(instance) == []


def test_the_markets_prune_columns_and_refuse_allocations():
    # The comparison means something only if columns really go and some
    # allocations are refused.
    pruned = refused = 0
    for instance in _MARKETS:
        partitions, allocations = _cases(instance)
        for partition in partitions:
            kept = len(pruned_config_lp(instance, partition).objective)
            pruned += kept < instance.n * ((1 << len(partition.blocks)) - 1)
        refused += sum(not dense_supportable(instance, x) for x in allocations)
    assert pruned >= 200 and refused >= 100


def _drop_last_column(monkeypatch):
    """A mutant filter that also drops each agent's last undominated column
    (and, as the DP's fold shares the scan, each middle agent's last
    undominated bundle)."""
    undominated = market._undominated
    monkeypatch.setattr(market, "_undominated", lambda table: undominated(table)[:-1])


def test_a_filter_that_drops_an_undominated_column_is_caught(monkeypatch):
    _drop_last_column(monkeypatch)
    with pytest.raises(CertificateError, match="misses a pruned column"):
        fractional_opt(built_in("fig1a"), singleton_partition(4))
    caught = [inst.name for inst in _markets() if _disagreements(inst)]
    assert len(caught) > 30


def test_a_skipped_full_column_recheck_is_caught(monkeypatch):
    # Without the re-check the mutant filter's answers come back unchecked,
    # and the dense comparison sees the lost value.
    _drop_last_column(monkeypatch)
    monkeypatch.setattr(configlp, "_check_full_dual", lambda tables, d, dual_u, dual_q: None)
    fig1a = built_in("fig1a")
    assert fractional_opt(fig1a, singleton_partition(4)).value < 8
    caught = [inst.name for inst in _markets() if _disagreements(inst)]
    assert len(caught) > 30


def _accepts_fractions(tables, dual_u, dual_q) -> bool:
    """Does the library's re-check accept the `Fraction` duals, given as
    numerators over their common denominator?"""
    d = lcm(*(y.denominator for y in (*dual_u, *dual_q)))
    numerators = [[y.numerator * (d // y.denominator) for y in duals] for duals in (dual_u, dual_q)]
    return _accepts(configlp._check_full_dual, tables, d, *numerators)


def _accepts(check, tables, *duals) -> bool:
    try:
        check(tables, *duals)
    except CertificateError:
        return False
    return True


def test_the_full_dual_recheck_matches_the_integer_reference():
    rng = random.Random("full-dual-differential")
    for _ in range(600):
        n, k = rng.randint(1, 4), rng.randint(0, 5)
        tables = [[0] + [rng.randint(0, 30) for _ in range(1, 1 << k)] for _ in range(n)]
        dual_q = tuple(F(rng.randint(0, 40), rng.randint(1, 6)) for _ in range(k))
        # the least feasible u_i: agent i's best utility at the block duals
        tight = [
            max(
                value - sum((dual_q[j] for j in range(k) if mask >> j & 1), F(0))
                for mask, value in enumerate(table)
            )
            for table in tables
        ]
        short = rng.randrange(n)
        cases = [
            tuple(tight),
            tuple(u - F(1, rng.randint(1, 1000)) if i == short else u for i, u in enumerate(tight)),
            tuple(F(rng.randint(-5, 30), rng.randint(1, 6)) for _ in range(n)),
        ]
        expected = [_accepts(check_full_dual, tables, u, dual_q) for u in cases]
        assert [_accepts_fractions(tables, u, dual_q) for u in cases] == expected
        assert expected[:2] == [True, False]  # just feasible, just infeasible


def _reference_start(instance, partition, lp, labels):
    """`configlp`'s start restated over the built program: the reference
    DP's optimum over the partition (a lone agent takes every block), and
    for each agent i whose bundle S_i has value > 0, row i basic in the
    highest of its columns within S_i of S_i's value."""
    k = len(partition.blocks)
    tables = block_tables(instance, partition)
    sets = ((1 << k) - 1,)
    if instance.n > 1:
        sets = oracle_reference._winner_determination(k, tables)[0]
    start = {}
    for j, (i, mask) in enumerate(labels):
        if mask | sets[i] == sets[i] and lp.objective[j] == tables[i][sets[i]] > 0:
            start[i] = j
    return sorted(start.items())


def _reference_answer(instance, partition):
    """(y, dual_u, dual_q, value, pivots) of the dense `Fraction` simplex on
    the built program from `_reference_start`, each column labelled (agent,
    mask) from its own rows, and the value of `library_solve` from the
    slack basis."""
    lp = pruned_config_lp(instance, partition)
    n, scale = instance.n, instance.scale
    rows = [coeffs for coeffs, _rhs in lp.constraints]
    labels = [
        (next(i for i in range(n) if rows[i][j]), sum(row[j] << b for b, row in enumerate(rows[n:])))
        for j in range(len(lp.objective))
    ]
    sol = solve_lp(lp, _reference_start(instance, partition, lp, labels))
    y = {labels[j]: x for j, x in enumerate(sol.primal) if x}
    dual = [d / scale for d in sol.dual]
    value = sol.objective_value / scale
    answer = y, tuple(dual[:n]), tuple(dual[n:]), value, sol.pivots
    return answer, library_solve(lp).objective_value / scale


def _comparing_solves(monkeypatch):
    """Hook `fractional_opt`'s solves: each is compared with the reference
    answer, and the (market, partition, matched) triples are returned."""
    seen, pivots = [], []
    solve = configlp._solve

    def counting(*args):
        basic = simplex(*args)
        pivots.append(basic.pivots)
        return basic

    def compared(instance, partition):
        sol = solve(instance, partition)
        answer = (dict(sol.y), sol.dual_u, sol.dual_q, sol.value, pivots[-1])
        reference = _reference_answer(instance, partition)
        seen.append((instance.name, partition.blocks, reference == (answer, sol.value)))
        return sol

    monkeypatch.setattr(configlp, "simplex", counting)
    monkeypatch.setattr(configlp, "_solve", compared)
    return seen


@pytest.mark.parametrize("seed, lps", [(1, 434), (2, 430)])
def test_gap_pass_lps_pivot_as_the_built_program(seed, lps, tmp_path, monkeypatch):
    # gap skips best_mccwe where the singleton LP is integral, so each
    # market's search runs here too, on the instance gap loaded: its probes
    # are compared, and the LPs gap solved are not solved again.
    requests = _gap_workload(seed, tmp_path, monkeypatch)
    seen = _comparing_solves(monkeypatch)
    loaded = []
    load = cli._load_instance

    def kept(path):
        loaded.append(load(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load_instance", kept)
    for argv in requests:
        assert cli.main(argv, out=io.StringIO()) == 0
        best_mccwe(loaded[-1])
    assert len(seen) == lps
    assert [case for case in seen if not case[2]] == []


def test_the_cases_pivot_as_the_built_program(monkeypatch):
    seen = _comparing_solves(monkeypatch)
    for instance in _MARKETS:
        partitions, _allocations = _cases(instance)
        for partition in partitions:
            # a fresh memo, so every case is solved here
            fractional_opt(replace(instance), partition)
    assert len(seen) == sum(len(_cases(instance)[0]) for instance in _MARKETS)
    assert [case for case in seen if not case[2]] == []
