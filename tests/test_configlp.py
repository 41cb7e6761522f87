"""Configuration LP: counts, optima, the supportability characterization."""

import copy
import importlib.util
import io
import pickle
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from mccwe import (
    Additive,
    BudgetAdditive,
    CertificateError,
    Instance,
    NotMCCWE,
    Partition,
    SingleMinded,
    SizeLimit,
    allocation,
    induced_partition,
    singleton_partition,
    social_welfare,
)
from configlp_reference import build_config_lp as dense_config_lp, pruned_config_lp
from mccwe.bits import mask_of
from mccwe import cli, configlp, market, oracle
from mccwe.configlp import MAX_VARIABLES, fractional_opt, supporting_prices
from mccwe.equilibria import MCCWE, verify
from mccwe.instances import BUILTINS, built_in, generate, parse_instance, write_instance
from mccwe.lp import UNBOUNDED, simplex
from mccwe.market import block_tables
from mccwe.oracle import best_mccwe, optimal_integral, optimal_over_partition
from value_reference import reduced_value

F = Fraction


def _peaks_at(inst, x):
    """Does the LP over the allocation's own bundles peak at its welfare?"""
    partition, _owners = induced_partition(x)
    return fractional_opt(inst, partition).value == social_welfare(inst, x)


def test_build_counts_single_agent_single_block():
    inst = Instance(2, (BudgetAdditive(F(5), (F(2), F(2))),))
    p = Partition(2, (0b11,))
    lp = pruned_config_lp(inst, p)
    assert len(lp.objective) == 1
    assert fractional_opt(inst, p).value == 4


def test_build_counts_two_agents_two_blocks():
    inst = Instance(
        2,
        (BudgetAdditive(F(5), (F(2), F(2))), BudgetAdditive(F(5), (F(1), F(1)))),
    )
    lp = pruned_config_lp(inst, singleton_partition(2))
    assert len(lp.objective) == 2 * 3
    assert len(lp.constraints) == 2 + 2


def test_build_counts_fig1a():
    # Only undominated columns are built: 10 of the dense LP's 5 * 15.
    inst = built_in("fig1a")
    lp = pruned_config_lp(inst, singleton_partition(4))
    assert len(lp.objective) == 10
    assert len(lp.constraints) == 5 + 4
    dense = dense_config_lp(inst, singleton_partition(4))
    assert len(dense.objective) == 5 * 15
    assert len(dense.constraints) == 5 + 4


def _counting_solves(monkeypatch):
    """Every configuration LP's `simplex` result, from here on."""
    solutions = []

    def counting(*args):
        solutions.append(simplex(*args))
        return solutions[-1]

    monkeypatch.setattr(configlp, "simplex", counting)
    return solutions


def test_gap_on_fig1a_solves_one_lp_per_partition(tmp_path, monkeypatch):
    # The fractional line and the optimum's probe share the singleton LP,
    # and the block DP refuses all but one of the other probes without an LP.
    # Each LP starts at its partition's DP optimum (from the slack basis
    # the two took 7 and 4 pivots).
    path = tmp_path / "fig1a.json"
    path.write_text(write_instance(built_in("fig1a")))
    solutions = _counting_solves(monkeypatch)
    runs = []
    real = market._winner_determination

    def counted(k, tables, middle):
        runs.append(k)
        return real(k, tables, middle)

    monkeypatch.setattr(market, "_winner_determination", counted)
    assert cli.main(["gap", "-i", str(path)], out=io.StringIO()) == 0
    assert len(solutions) == 2
    assert [sol.pivots for sol in solutions] == [4, 2]
    # one singleton DP (4 blocks) for optimal_integral, best_mccwe and the
    # singleton LP's start together, then one DP per probe over its induced
    # partition, which also starts the one LP solved: two of the three
    # probes are refused without an LP.  The grand bundle to agent 0 (one
    # block) is below best_mccwe's floor, max_i v_i(M) - 1, and is not probed.
    assert runs == [4, 2, 2, 2]


def _gap_workload(seed, workdir, monkeypatch):
    """The markets of the benchmark's `gap` workload at `seed`, written by
    the `gen` verb, as `gap` argv lists."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    markets = workloads.WORKLOADS["gap"].markets(seed, str(workdir))
    for market in markets:
        assert cli.main([*market.gen, "-o", market.instance], out=io.StringIO()) == 0
    return [list(request) for market in markets for request in market.requests]


def test_gap_runs_no_dp_over_the_items_of_a_winner_set_market(tmp_path, monkeypatch):
    # optimal_integral searches these single-minded markets over their 2^n
    # winner sets, as 2^n < (n+1)^m, and keeps its answer in Instance.optima
    # as the DP would, so the singleton LP's start reads it there: gap runs
    # no block DP over the items.  The gap workload's single-minded markets
    # at seeds 1 and 2, and larger seeded ones.
    paths = []
    for seed in (1, 2):
        workdir = tmp_path / f"gap{seed}"
        workdir.mkdir()
        paths += [argv[-1] for argv in _gap_workload(seed, workdir, monkeypatch)]
    for m, n, seed in ((15, 6, 1), (8, 4, 1), (8, 4, 2), (10, 5, 3)):
        paths.append(str(tmp_path / f"sm_{m}_{n}_{seed}.json"))
        argv = ["gen", "random_single_minded", "--m", str(m), "--n", str(n)]
        assert cli.main([*argv, "--seed", str(seed), "-o", paths[-1]], out=io.StringIO()) == 0
    markets = []
    for path in paths:
        text = Path(path).read_text()
        inst = parse_instance(text)
        if not all(isinstance(v, SingleMinded) for v in inst.agents):
            continue
        assert 1 << inst.n < (inst.n + 1) ** inst.m
        optimal_integral(inst)
        items = singleton_partition(inst.m)
        fresh = parse_instance(text)
        assert inst.optima == {items.blocks: market._optimum(fresh, items)}
        markets.append((path, inst.m))
    assert len(markets) == 2 * 36 + 4
    runs = []
    real = market._winner_determination

    def counted(k, tables, middle):
        runs.append(k)
        return real(k, tables, middle)

    monkeypatch.setattr(market, "_winner_determination", counted)
    for path, m in markets:
        runs.clear()
        assert cli.main(["gap", "-i", path], out=io.StringIO()) == 0
        assert m not in runs, path


@pytest.mark.parametrize("seed, lps, pivots", [(1, 290, 943), (2, 286, 1032)])
def test_gap_pass_pivots_and_lp_solves(seed, lps, pivots, tmp_path, monkeypatch):
    # One pass over the benchmark's gap markets, every LP started at its
    # partition's DP optimum.  From the slack basis the same LPs take 1855
    # and 1911 pivots; Bland's rule alone takes 1168 and 1196 from the
    # start, and 4340 and 4795 from the slack basis.  Where the singleton LP is
    # integral (161 of the 216 markets at seed 1), gap runs no best_mccwe
    # search and so no second LP.
    requests = _gap_workload(seed, tmp_path, monkeypatch)
    solutions = _counting_solves(monkeypatch)
    for argv in requests:
        assert cli.main(argv, out=io.StringIO()) == 0
    assert len(requests) == 216
    assert len(solutions) == lps
    assert sum(sol.pivots for sol in solutions) == pivots


def test_gap_on_an_integral_singleton_lp_runs_no_search(tmp_path, monkeypatch):
    path = tmp_path / "pr.json"
    argv = ["gen", "partition_reduction", "--a", "1,1,2", "-o", str(path)]
    assert cli.main(argv, out=io.StringIO()) == 0
    solutions = _counting_solves(monkeypatch)

    def refused(*_args, **_kwargs):
        raise AssertionError("gap entered best_mccwe")

    monkeypatch.setattr(oracle, "best_mccwe", refused)
    out = io.StringIO()
    assert cli.main(["gap", "-i", str(path)], out=out) == 0
    assert out.getvalue() == (
        "instance=partition_reduction\nfractional=4\nintegral=4\nbest_mccwe=4\n"
    )
    assert len(solutions) == 1


def test_fractional_opt_returns_the_memoized_solution(monkeypatch):
    inst = parse_instance(write_instance(built_in("fig1a")))
    assert inst.config_lps == {}
    solutions = _counting_solves(monkeypatch)
    first = fractional_opt(inst, singleton_partition(4))
    assert fractional_opt(inst, singleton_partition(4)) is first
    assert len(solutions) == 1
    assert list(inst.config_lps) == [singleton_partition(4).blocks]
    # another instance of the same market has its own, empty memo
    assert built_in("fig1a").config_lps == {}
    with pytest.raises(TypeError):
        first.y[(0, 1)] = F(1)


def _solved_fresh(instance, before):
    """`fractional_opt` over the singleton partition and every partition
    that `best_mccwe` solves, on a fresh copy of the market on which
    `before` ran first."""
    probed = copy.deepcopy(instance)
    best_mccwe(probed)
    fresh = copy.deepcopy(instance)
    before(fresh)
    partitions = [singleton_partition(instance.m)]
    partitions += [Partition(instance.m, blocks) for blocks in probed.config_lps]
    return [fractional_opt(fresh, partition) for partition in partitions]


@pytest.mark.parametrize("seed", [1, 2])
def test_fractional_opt_does_not_depend_on_what_ran_before(seed, tmp_path, monkeypatch):
    # Each LP starts at its partition's DP optimum, which is computed when
    # it is not kept: the same solution, duals included, whether or not
    # optimal_integral or best_mccwe filled the memos first.
    markets = []
    if seed == 1:
        params = {"partition_reduction": {"weights": [3, 1, 4, 1, 5]}, "bundling_necessity": {"m": 4}}
        markets = [built_in(name, **params.get(name, {})) for name in BUILTINS]
    for argv in _gap_workload(seed, tmp_path, monkeypatch):
        with open(argv[-1], encoding="utf-8") as handle:
            markets.append(parse_instance(handle.read()))
    runs = (lambda inst: None, optimal_integral, best_mccwe)
    for inst in markets:
        first, *others = (_solved_fresh(inst, before) for before in runs)
        assert all(other == first for other in others), inst.name
    assert len(markets) == 216 + (len(BUILTINS) if seed == 1 else 0)


def test_the_dp_and_the_lp_scan_each_table_once(monkeypatch):
    # The DP scans the middle agents' tables, the singleton LP's columns
    # the first and last agents' and reuse the rest; a second partition's
    # tables are scanned on their own.
    undominated = market._undominated
    scanned = []
    monkeypatch.setattr(
        market, "_undominated", lambda table: scanned.append(table) or undominated(table)
    )
    for n in range(1, 6):
        inst = generate("random_uniform_budget_additive", 5, n, n)
        singles = singleton_partition(5)
        tables = block_tables(inst, singles)
        scanned.clear()
        optimal_integral(inst)
        fractional_opt(inst, singles)
        best_mccwe(inst)
        first_and_last = [tables[0], tables[-1]] if n > 1 else [tables[0]]
        assert scanned[:n] == [*tables[1:-1], *first_and_last]
        assert len({id(table) for table in scanned}) == len(scanned)
        partition = Partition(5, (0b00011, 0b11100))
        scanned.clear()
        fractional_opt(inst, partition)
        assert scanned == list(block_tables(inst, partition))


def test_copies_of_a_market_start_an_empty_memo():
    inst = built_in("fig1a")
    fractional_opt(inst, singleton_partition(4))
    for copied in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert copied == inst and copied.scale == inst.scale
        assert copied.config_lps == {}
    assert len(inst.config_lps) == 1


def test_fractional_opt_paper_values():
    assert fractional_opt(built_in("fig1a"), singleton_partition(4)).value == 8
    assert fractional_opt(built_in("fig1b"), singleton_partition(7)).value == 8
    inst = built_in("nonuniform_identical_budget", eps=F(1, 8))
    assert fractional_opt(inst, singleton_partition(3)).value == F(17, 4)


def test_solution_invariants():
    inst = built_in("fig1a")
    p = singleton_partition(4)
    sol = fractional_opt(inst, p)
    assert sum(sol.dual_u, F(0)) + sum(sol.dual_q, F(0)) == sol.value
    total = F(0)
    for (agent, bundle_set), weight in sol.y.items():
        assert 0 <= weight <= 1
        total += weight * reduced_value(inst.agents[agent], p, bundle_set)
    assert total == sol.value


def test_is_mccwe_single_agent_whole_market():
    inst = Instance(3, (SingleMinded(0b111, F(4)),))
    x = allocation(3, [0b111])
    assert _peaks_at(inst, x)
    out = supporting_prices(inst, x)
    assert verify(inst, out, MCCWE).ok


def test_fig1b_no_walrasian_but_bundled_support():
    inst = built_in("fig1b")
    x_opt, welfare = optimal_integral(inst)
    assert welfare == 7
    # no Walrasian equilibrium: the item LP beats the optimum's welfare
    assert fractional_opt(inst, singleton_partition(7)).value > social_welfare(inst, x_opt)


def test_supporting_prices_rejects_unsupportable():
    inst = built_in("fig1b")
    # one item per agent keeps the induced partition all-singleton
    x = allocation(7, [1 << 0, 1 << 1, 1 << 6, 1 << 3])
    if not _peaks_at(inst, x):
        with pytest.raises(NotMCCWE) as err:
            supporting_prices(inst, x)
        assert err.value.gap > 0


def test_capacity_pair_bundling_supported():
    inst = built_in("revenue_example", big=F(100))
    x = allocation(3, [0b001, 0b110])
    assert _peaks_at(inst, x)
    assert social_welfare(inst, x) == 201
    out = supporting_prices(inst, x)
    assert verify(inst, out, MCCWE).ok


def test_pair_bundle_support_is_allocation_sensitive():
    # Welfare 7 arises under several bundlings of the gap market, but only
    # some of them support prices: handing c2 the {a3,a4} pair closes the
    # fractional gap, while leaving a3 and a4 as separate blocks keeps a
    # fractional mix worth 15/2 alive.
    inst = built_in("fig1a", eps=F(1, 10))
    bundled_pair = allocation(4, [0b0011, 0b1100, 0, 0, 0])
    assert social_welfare(inst, bundled_pair) == 7
    assert _peaks_at(inst, bundled_pair)
    out = supporting_prices(inst, bundled_pair)
    assert verify(inst, out, MCCWE).ok

    split_pair = allocation(4, [0b0011, 0b1000, 0, 0b0100, 0])
    assert social_welfare(inst, split_pair) == 7
    assert not _peaks_at(inst, split_pair)
    with pytest.raises(NotMCCWE) as err:
        supporting_prices(inst, split_pair)
    assert err.value.gap == F(1, 2)


def test_integrality_gap_values():
    def gap(inst, partition):
        _owners, integral = optimal_over_partition(inst, partition)
        return fractional_opt(inst, partition).value / integral

    inst = built_in("fig1a", eps=F(1, 10))
    assert gap(inst, Partition(4, (0b1111,))) == 1
    assert gap(inst, singleton_partition(4)) == F(8) / F(79, 10)
    assert gap(built_in("fig1b"), singleton_partition(7)) == F(8, 7)


def test_fractional_dominates_block_assignments():
    for seed in range(15):
        inst = generate("random_uniform_budget_additive", 4, 3, seed + 300)
        p = Partition(4, (mask_of([0, 1]), mask_of([2]), mask_of([3])))
        frac = fractional_opt(inst, p).value
        _owners, integral = optimal_over_partition(inst, p)
        assert frac >= integral


def test_coarsening_never_raises_fractional_value():
    for seed in range(12):
        inst = generate("random_uniform_budget_additive", 4, 3, seed + 900)
        fine = fractional_opt(inst, singleton_partition(4)).value
        merged = Partition(4, (mask_of([0, 1]), mask_of([2]), mask_of([3])))
        coarse = fractional_opt(inst, merged).value
        assert coarse <= fine
        one_block = fractional_opt(inst, Partition(4, (0b1111,))).value
        assert one_block <= coarse


def test_support_roundtrip_on_random_allocations():
    for seed in range(25):
        inst = generate("random_single_minded", 4, 3, seed + 40)
        digits = [(seed * 7 + 3 * j) % 4 for j in range(4)]
        bundles = [0, 0, 0]
        x0 = 0
        for j, d in enumerate(digits):
            if d == 3:
                x0 |= 1 << j
            else:
                bundles[d] |= 1 << j
        x = allocation(4, bundles, x0=x0)
        if _peaks_at(inst, x):
            assert verify(inst, supporting_prices(inst, x), MCCWE).ok
        else:
            with pytest.raises(NotMCCWE):
                supporting_prices(inst, x)


def test_broken_lp_answers_raise_certificate_error(monkeypatch):
    inst = built_in("fig1a")
    p = singleton_partition(4)

    def unbounded(*args):
        return replace(simplex(*args), status=UNBOUNDED)

    monkeypatch.setattr(configlp, "simplex", unbounded)
    with pytest.raises(CertificateError, match="feasible and bounded"):
        fractional_opt(inst, p)

    def off_by_one(*args):
        basic = simplex(*args)
        return replace(basic, dual=(basic.dual[0] + 1,) + basic.dual[1:])

    monkeypatch.setattr(configlp, "simplex", off_by_one)
    with pytest.raises(CertificateError, match="do not sum to its optimum"):
        fractional_opt(inst, p)


def test_priced_unallocated_block_raises_certificate_error(monkeypatch):
    inst = Instance(2, (Additive((F(1), F(0))),))
    x = allocation(2, [0b01])  # item 1 stays unallocated
    assert supporting_prices(inst, x).allocation == x

    def priced_everywhere(instance, partition):
        sol = fractional_opt(instance, partition)
        return replace(sol, dual_q=tuple(q + 1 for q in sol.dual_q))

    monkeypatch.setattr(configlp, "fractional_opt", priced_everywhere)
    with pytest.raises(CertificateError, match="unallocated block priced"):
        supporting_prices(inst, x)


def test_size_bound_is_checked_before_any_table_is_built(monkeypatch):
    def no_tables(v, partition, scale):
        raise AssertionError(f"built a table over {len(partition.blocks)} blocks")

    monkeypatch.setattr("mccwe.market.value_table", no_tables)
    # n * 2^k above MAX_VARIABLES: a lone agent over 18 blocks, four over 16,
    # seven over 15.  Before, a separate 16-block cap refused a lone agent
    # at 17 blocks, whose program fits the variable cap.
    for m, n in ((18, 1), (16, 4), (15, 7)):
        assert n << m > MAX_VARIABLES
        many = Instance(m, (Additive((1,) * m),) * n)
        with pytest.raises(SizeLimit, match="exceed the variable cap"):
            fractional_opt(many, singleton_partition(m))
