"""Market data model: allocations, partitions, accounting identities."""

import tracemalloc
from fractions import Fraction

import pytest

from mccwe import (
    Additive,
    Allocation,
    BadParams,
    BudgetAdditive,
    CappedCardinalityAdditive,
    Instance,
    Outcome,
    Partition,
    SingleMinded,
    SuperadditiveExplicit,
    UNALLOCATED,
    allocation,
    best_mccwe,
    best_single_minded_item_pricing,
    built_in,
    bundle_efficient_full_surplus,
    demand_query,
    fractional_opt,
    full_surplus_outcome,
    identical_budget_cleanup,
    induced_partition,
    log_bundling_mechanism,
    optimal_integral,
    optimal_over_partition,
    parse_instance,
    priced_blocks,
    relative_demand_query,
    revenue,
    single_minded_mccwe,
    singleton_partition,
    social_welfare,
    replay_trace,
    superadditive_mccwe,
    supporting_prices,
    uniform_budget_additive_mccwe,
    verify,
    write_instance,
    write_outcome,
)
from mccwe.bits import mask_of
from mccwe.equilibria import demand_correspondence
from mccwe.instances import generate, parse_allocation, parse_outcome, write_allocation
from mccwe.market import block_tables, check_fits
from mccwe.mechanisms import MechanismTrace
from mccwe.valuations import demand_utilities, is_superadditive_family, preferred, value_table
from value_reference import reduced_value, utility

F = Fraction


def _fig1a_c2():
    # budget 4, interested in a2,a3,a4 with shared values (1,4,2,2)
    return BudgetAdditive(F(4), (F(0), F(4), F(2), F(2)))


def test_instance_rejects_agents_not_over_its_items():
    fits = (
        SingleMinded(0b100, F(1)),
        SuperadditiveExplicit((F(0),) * 8),
        BudgetAdditive(F(4), (F(1),) * 3),
        CappedCardinalityAdditive((F(1),) * 3, 2),
    )
    assert Instance(3, fits).scale == 1
    for misfit, reason in (
        (SingleMinded(0b1000, F(1)), "desires items outside the market"),
        (SuperadditiveExplicit((F(0),) * 16), "is over 4 items, expected 3"),
        (Additive((F(1),) * 2), "is over 2 items, expected 3"),
    ):
        with pytest.raises(BadParams, match=f"agent 4 {reason}"):
            Instance(3, fits + (misfit,))


def test_list_built_objects_hold_tuples_and_equal_their_twins():
    # Before: each kept the caller's list, so it equalled no tuple-built
    # twin, could not be hashed, and a market could change under its memos.
    twins = (
        (Additive([1, 2]), Additive((1, 2))),
        (BudgetAdditive(3, [1, 2]), BudgetAdditive(3, (1, 2))),
        (CappedCardinalityAdditive([1, 2], 1), CappedCardinalityAdditive((1, 2), 1)),
        (SuperadditiveExplicit([0, 1, 1, 3]), SuperadditiveExplicit((0, 1, 1, 3))),
        (Instance(2, [Additive((1, 2))]), Instance(2, (Additive((1, 2)),))),
        (Allocation(2, 0, [1, 2]), Allocation(2, 0, (1, 2))),
        (Outcome(allocation(2, (1, 2)), prices=[1, 2]), Outcome(allocation(2, (1, 2)), (1, 2))),
        (
            Outcome(allocation(2, (1, 2)), item_prices=[1, 2]),
            Outcome(allocation(2, (1, 2)), item_prices=(1, 2)),
        ),
    )
    for listed, tupled in twins:
        assert listed == tupled and hash(listed) == hash(tupled), listed
    agents = [Additive((1, 2)), Additive((2, 1))]
    inst = Instance(2, agents)
    assert optimal_integral(inst) == (Allocation(2, 0, (0b10, 0b01)), 4)
    agents.append(Additive((5, 5)))
    assert inst.agents == tuple(agents[:2])
    assert optimal_integral(inst) == (Allocation(2, 0, (0b10, 0b01)), 4)
    assert optimal_integral(Instance(2, agents))[1] == 10
    # a tuple is kept as it is, with no copy
    values = (1, 2)
    assert Additive(values).item_values is values


def test_instance_admits_only_the_valuation_families():
    class ValueTable:  # duck-typed, with nothing to show it is monotone
        scale = 1
        item_values = (F(0),) * 2

        def scaled_value(self, mask):
            return 1 if mask == 0b01 else 0

    for stranger, kind in ((object(), "object"), (ValueTable(), "ValueTable")):
        with pytest.raises(BadParams, match=f"five families, got {kind}"):
            Instance(2, (Additive((F(1), F(1))), stranger))
    # Before, a generator of agents built a market whose n raised TypeError.
    with pytest.raises(BadParams, match="agents must be a tuple or a list, got generator"):
        Instance(2, (a for a in (Additive((F(1), F(1))),)))


def test_singleton_partition_needs_an_int_item_count():
    for m in (2.0, True, "2"):
        with pytest.raises(BadParams, match="item count must be an int"):
            singleton_partition(m)
    assert singleton_partition(2).blocks == (0b01, 0b10)


def test_every_item_count_lies_in_one_to_max_items():
    # Before, the first three leaked ValueError from a negative shift, and
    # Partition and Allocation took any int.
    for call in (
        lambda: singleton_partition(-1),
        lambda: allocation(-1, [1]),
        lambda: Partition(-1, ()),
        lambda: Allocation(-1, 0, ()),
        lambda: singleton_partition(0),
        lambda: Instance(0, (SingleMinded(1, 1),)),
    ):
        with pytest.raises(BadParams, match="need at least one item and at most 4096 items"):
            call()
    assert singleton_partition(4096).m == 4096


def test_item_counts_past_the_bound_build_no_mask():
    # Before, singleton_partition(20000) built its 20,000 masks (52 MiB
    # peak) and Partition(8 * 10**7, (1,)) the 10 MB full mask.
    for call in (lambda: singleton_partition(4097), lambda: Partition(8 * 10**7, (1,))):
        tracemalloc.start()
        try:
            with pytest.raises(BadParams, match="at most 4096 items"):
                call()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_value_query_single_minded():
    v = SingleMinded(mask_of([0, 1]), F(5))
    assert v.value(mask_of([0, 1, 2])) == 5
    assert v.value(mask_of([0])) == 0


def test_value_query_budget_additive_caps():
    assert _fig1a_c2().value(mask_of([2, 3])) == 4  # min(4, 2+2)


def test_reduced_value_empty_and_singletons():
    v = _fig1a_c2()
    p = singleton_partition(4)
    table = value_table(v, p, v.scale)
    assert reduced_value(v, p, 0) == table[0] == 0
    for j in range(4):
        assert reduced_value(v, p, 1 << j) == v.value(1 << j)
        assert table[1 << j] == v.value(1 << j) * v.scale


def test_reduced_value_on_merged_block():
    # budget 2, unit values on two items grouped into one block
    v = BudgetAdditive(F(2), (F(1), F(1), F(0)))
    p = Partition(3, (mask_of([0, 1]), mask_of([2])))
    assert reduced_value(v, p, 0b01) == 2
    assert value_table(v, p, 3 * v.scale)[0b01] == 2 * 3 * v.scale


def test_reduced_value_identical_budget_market_pair_block():
    # d1 on the block {a1,b1} of the no-equilibrium market: min(2, 1+1)
    from mccwe.instances import built_in

    inst = built_in("fig1b")
    d1 = inst.agents[2]
    pair = mask_of([2, 4])  # items a1 and b1
    blocks = (pair,) + tuple(1 << j for j in range(7) if not pair >> j & 1)
    p = Partition(7, blocks)
    idx = p.blocks.index(pair)
    assert reduced_value(d1, p, 1 << idx) == 2
    assert value_table(d1, p, inst.scale)[1 << idx] == 2 * inst.scale


def test_induced_partition_all_unallocated():
    x = Allocation(3, mask_of([0, 1, 2]), (0, 0))
    part, owners = induced_partition(x)
    assert part.blocks == (mask_of([0, 1, 2]),)
    assert owners == (UNALLOCATED,)


def test_induced_partition_two_singletons():
    x = allocation(2, [1 << 0, 1 << 1])
    part, owners = induced_partition(x)
    assert part.blocks == (1 << 0, 1 << 1)
    assert owners == (0, 1)


def test_induced_partition_orders_by_lowest_item():
    x = allocation(4, [mask_of([2]), mask_of([0, 1]), 0, mask_of([3]), 0])
    part, owners = induced_partition(x)
    assert part.blocks == (mask_of([0, 1]), mask_of([2]), mask_of([3]))
    assert owners == (1, 0, 3)


def test_allocation_rejects_overlap_and_gaps():
    with pytest.raises(BadParams):
        Allocation(2, 0, (0b01, 0b01))
    with pytest.raises(BadParams):
        Allocation(2, 0, (0b01,))
    # Before, a bare mask in place of the bundles or blocks raised TypeError.
    with pytest.raises(BadParams, match="bundles must be a tuple or a list"):
        Allocation(3, 0, 5)
    with pytest.raises(BadParams, match="blocks must be a tuple or a list"):
        Partition(3, 5)


def test_social_welfare_empty_and_fig1a_row():
    agents = (
        BudgetAdditive(F(3), (F(1), F(4), F(0), F(0))),
        BudgetAdditive(F(4), (F(0), F(4), F(2), F(2))),
        BudgetAdditive(F(9, 10), (F(0), F(0), F(2), F(0))),
        BudgetAdditive(F(2), (F(0), F(0), F(2), F(2))),
        BudgetAdditive(F(9, 10), (F(0), F(0), F(0), F(2))),
    )
    inst = Instance(4, agents)
    empty = Allocation(4, mask_of([0, 1, 2, 3]), (0,) * 5)
    assert social_welfare(inst, empty) == 0
    per_item = allocation(4, [1 << 0, 1 << 1, 1 << 2, 1 << 3, 0])
    assert social_welfare(inst, per_item) == F(8) - F(1, 10)


def test_utility_revenue_capacity_two_bidder():
    # single-minded on a1 at 1; capacity-2 additive with values (R-1, R, R)
    R = F(100)
    buyer2 = CappedCardinalityAdditive((R - 1, R, R), 2)
    p = Partition(3, (mask_of([0]), mask_of([1, 2])))
    prices = (F(1), R + 2)
    assert utility(buyer2, p, 0b10, prices) == 98
    assert utility(buyer2, p, 0b01, prices) == 98
    utils, scale = demand_utilities(buyer2, p, prices)
    assert utils[0b10] == utils[0b01] == 98 * scale

    inst = Instance(3, (SingleMinded(1 << 0, F(1)), buyer2))
    x = allocation(3, [mask_of([0]), mask_of([1, 2])])
    bundled = Outcome(x, prices=(F(1), R + 2))
    assert revenue(inst, bundled) == 103
    item_priced = Outcome(x, item_prices=(F(1), F(2), F(2)))
    assert revenue(inst, item_priced) == 5

    zero = Outcome(x, prices=(F(0), F(0)))
    assert revenue(inst, zero) == 0


def test_full_surplus_revenue_equals_welfare():
    inst = Instance(
        3,
        (
            SingleMinded(mask_of([0, 1]), F(7)),
            BudgetAdditive(F(2), (F(1), F(1), F(1))),
        ),
    )
    x = allocation(3, [mask_of([0, 1]), mask_of([2])])
    out = full_surplus_outcome(inst, x)
    assert revenue(inst, out) == social_welfare(inst, x)


def test_welfare_invariant_under_item_listing_order():
    inst = Instance(3, (BudgetAdditive(F(5), (F(1), F(2), F(3))),))
    a = allocation(3, [mask_of([0, 2, 1])])
    b = allocation(3, [mask_of([1, 0, 2])])
    assert social_welfare(inst, a) == social_welfare(inst, b)


def test_outcome_validation():
    x = allocation(2, [0b01, 0b10])
    with pytest.raises(BadParams):
        Outcome(x)  # no prices at all
    with pytest.raises(BadParams):
        Outcome(x, prices=(F(1),))  # wrong arity
    for prices in ({"prices": 5}, {"item_prices": 5}):  # before: TypeError
        with pytest.raises(BadParams, match="prices must be a tuple or a list"):
            Outcome(x, **prices)
    with pytest.raises(BadParams):
        Outcome(x, prices=(F(-1), F(0)))
    with pytest.raises(BadParams):
        Outcome(x, prices=(F(1), F(1)), item_prices=(F(0), F(0)))
    empty_second = allocation(2, [0b11, 0])
    with pytest.raises(BadParams):
        Outcome(empty_second, prices=(F(1), F(1)))  # price on an empty bundle


def test_reduced_value_of_owned_block_reproduces_value_query():
    agents = (
        BudgetAdditive(F(3), (F(1), F(4), F(0), F(0))),
        BudgetAdditive(F(4), (F(0), F(4), F(2), F(2))),
    )
    inst = Instance(4, agents)
    x = allocation(4, [mask_of([0, 1]), mask_of([3])])
    part, owners = induced_partition(x)
    for idx, owner in enumerate(owners):
        if owner != UNALLOCATED:
            v = inst.agents[owner]
            assert reduced_value(v, part, 1 << idx) == v.value(x.bundles[owner])
            table = value_table(v, part, inst.scale)
            assert table[1 << idx] == v.value(x.bundles[owner]) * inst.scale


def test_library_calls_reject_another_markets_shapes():
    fig1a = built_in("fig1a")
    necessity = built_in("bundling_necessity", m=4)
    for call in (
        lambda: fractional_opt(fig1a, singleton_partition(5)),
        lambda: optimal_over_partition(fig1a, singleton_partition(3)),
        lambda: bundle_efficient_full_surplus(necessity, singleton_partition(3)),
        lambda: supporting_prices(fig1a, allocation(4, [0b1111])),
        lambda: supporting_prices(fig1a, allocation(3, [0b111] + [0] * 4)),
    ):
        with pytest.raises(BadParams, match="the instance has"):
            call()


def test_accounting_rejects_another_markets_allocation():
    fig1a = built_in("fig1a")  # four items, five agents
    for x in (allocation(4, [0b1111]), allocation(3, [0b111] + [0] * 4)):
        with pytest.raises(BadParams, match="the instance has 4 items and 5 agents"):
            social_welfare(fig1a, x)
        with pytest.raises(BadParams, match="the instance has"):
            full_surplus_outcome(fig1a, x)
        with pytest.raises(BadParams, match="the instance has"):
            revenue(fig1a, Outcome(x, prices=(F(0),) * x.n))


_FIG1A_ALL_TO_0 = Outcome(allocation(4, [0b1111, 0, 0, 0, 0]), prices=(F(0),) * 5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify(built_in("fig1a"), 5, "mccwe"), "the outcome must be an Outcome, got int"),
        (lambda: verify(5, _FIG1A_ALL_TO_0, "mccwe"), "the instance must be an Instance, got int"),
        (
            lambda: social_welfare(5, _FIG1A_ALL_TO_0.allocation),
            "the instance must be an Instance, got int",
        ),
        (
            lambda: supporting_prices(built_in("fig1a"), 5),
            "the allocation must be an Allocation, got int",
        ),
        (
            lambda: uniform_budget_additive_mccwe(built_in("fig1a"), 5),
            "the allocation must be an Allocation, got int",
        ),
        (
            lambda: replay_trace(built_in("fig1a"), 5, MechanismTrace()),
            "the allocation must be an Allocation, got int",
        ),
        (
            lambda: replay_trace(built_in("fig1a"), singleton_partition(4), MechanismTrace()),
            "the allocation must be an Allocation, got Partition",
        ),
        (lambda: fractional_opt(built_in("fig1a"), 5), "the partition must be a Partition, got int"),
        (
            lambda: optimal_over_partition(built_in("fig1a"), 5),
            "the partition must be a Partition, got int",
        ),
        (
            lambda: optimal_over_partition(built_in("fig1a"), allocation(4, [0b1111])),
            "the partition must be a Partition, got Allocation",
        ),
        (lambda: block_tables(5, singleton_partition(4)), "the instance must be an Instance, got int"),
        (lambda: block_tables(built_in("fig1a"), 5), "the partition must be a Partition, got int"),
    ],
    ids=[
        "verify-outcome",
        "verify-instance",
        "social_welfare-instance",
        "supporting_prices",
        "uba",
        "replay_trace",
        "replay_trace-partition",
        "fractional_opt",
        "optimal_over_partition",
        "optimal_over_partition-allocation",
        "block_tables",
        "block_tables-partition",
    ],
)
def test_entry_points_check_the_kinds_of_market_and_argument(call, message):
    # One rule, check_fits, checks the market, then the argument's kind,
    # then its shape, so no entry point leaks AttributeError.
    with pytest.raises(BadParams, match=message):
        call()


def test_accounting_rejects_what_is_not_an_allocation_or_an_outcome():
    # Each of these leaked AttributeError ("'int' object has no attribute
    # 'n'", "... 'm'", "... 'allocation'") before.
    fig1a = built_in("fig1a")
    for call, message in (
        (lambda: Outcome(5, prices=(F(1),)), "the allocation must be an Allocation, got int"),
        (lambda: social_welfare(fig1a, 5), "the allocation must be an Allocation, got int"),
        (lambda: full_surplus_outcome(fig1a, 5), "the allocation must be an Allocation, got int"),
        (lambda: revenue(fig1a, 5), "the outcome must be an Outcome, got int"),
        (lambda: revenue(fig1a, allocation(4, [0b1111])), "must be an Outcome, got Allocation"),
    ):
        with pytest.raises(BadParams, match=message):
            call()



def test_the_item_count_must_be_an_int():
    # Each of these leaked TypeError before: the readers compared item
    # indices with m, and allocation() built the full mask from it.
    alloc = '{"format": 1, "x0": [], "x": [[0]]}'
    out = '{"format": 1, "allocation": {"x0": [], "x": [[0]]}, "prices": {"agents": ["1"]}}'
    for m in (None, "1", 1.0, True):
        for call in (
            lambda: parse_allocation(alloc, m),
            lambda: parse_outcome(out, m),
            lambda: allocation(m, [1]),
        ):
            with pytest.raises(BadParams, match="the item count must be an int"):
                call()
    assert parse_allocation(alloc, 1) == allocation(1, [1])
    assert parse_outcome(out, 1).allocation == allocation(1, [1])


_FIG1A, _FIG1B = built_in("fig1a"), built_in("fig1b")
_SM = generate("random_single_minded", 4, 3, 1)
_ONE = singleton_partition(1)
_FOUR = singleton_partition(4)
_VALUATION = "the valuation must be one of the five families, got int"
_INSTANCE = "the instance must be an Instance, got int"
_BUDGET = "the budget must be an OracleBudget, got int"
_TRACE = "a trace must be a MechanismTrace, got int"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: value_table(5, _FOUR, 1), _VALUATION),
        (lambda: value_table(_FIG1A.agents[0], 5, 10), "the partition must be a Partition"),
        (lambda: value_table(_FIG1A.agents[0], _FOUR, "2"), "a scale must be an int, got str"),
        (lambda: relative_demand_query(5, 1), _VALUATION),
        (lambda: is_superadditive_family(5), _VALUATION),
        (lambda: demand_query(5, _ONE, (0,)), _VALUATION),
        (lambda: demand_query(_FIG1A.agents[0], 5, (0,)), "the partition must be a Partition"),
        (lambda: demand_query(_FIG1A.agents[0], _FOUR, 5), "prices must be a tuple or a list"),
        (lambda: demand_correspondence(5, _ONE, (0,)), _VALUATION),
        (lambda: induced_partition(5), "the allocation must be an Allocation"),
        (lambda: priced_blocks(5), "the outcome must be an Outcome"),
        (lambda: allocation(4, 5), "bundles must be a tuple or a list"),
        (lambda: write_instance(5), _INSTANCE),
        (lambda: write_outcome(5), "the outcome must be an Outcome"),
        (lambda: write_allocation(5), "the allocation must be an Allocation"),
        (lambda: parse_instance(5), "a document must be a string"),
        (lambda: parse_allocation(5, 4), "an allocation must be a string or a dict"),
        (lambda: optimal_integral(5), _INSTANCE),
        (lambda: best_mccwe(5), _INSTANCE),
        (lambda: best_single_minded_item_pricing(5), _INSTANCE),
        (lambda: optimal_integral(_FIG1A, 5), _BUDGET),
        (lambda: best_mccwe(_FIG1A, 5), _BUDGET),
        (lambda: optimal_over_partition(_FIG1A, _FOUR, 5), _BUDGET),
        (lambda: best_single_minded_item_pricing(_SM, 5), _BUDGET),
        (lambda: replay_trace(_FIG1A, allocation(4, [0b1111, 0, 0, 0, 0]), 5), _TRACE),
        (lambda: superadditive_mccwe(5), _INSTANCE),
        (lambda: superadditive_mccwe(_SM, 5), _TRACE),
        (lambda: single_minded_mccwe(5), _INSTANCE),
        (lambda: single_minded_mccwe(_SM, 5), _TRACE),
        (lambda: log_bundling_mechanism(5), _INSTANCE),
        (lambda: log_bundling_mechanism(_SM, 5), _TRACE),
        (lambda: bundle_efficient_full_surplus(5, _FOUR), _INSTANCE),
        (lambda: bundle_efficient_full_surplus(_SM, _FOUR, 5), _TRACE),
        (lambda: uniform_budget_additive_mccwe(5, None), _INSTANCE),
        (lambda: uniform_budget_additive_mccwe(_FIG1B, None, 5), _TRACE),
        (lambda: identical_budget_cleanup(5, None), _INSTANCE),
        (lambda: identical_budget_cleanup(_FIG1B, None, 5), _TRACE),
    ],
    ids=[
        "value_table",
        "value_table-partition",
        "value_table-scale",
        "relative_demand_query",
        "is_superadditive_family",
        "demand_query",
        "demand_query-partition",
        "demand_query-prices",
        "demand_correspondence",
        "induced_partition",
        "priced_blocks",
        "allocation",
        "write_instance",
        "write_outcome",
        "write_allocation",
        "parse_instance",
        "parse_allocation",
        "optimal_integral",
        "best_mccwe",
        "item_pricing",
        "optimal_integral-budget",
        "best_mccwe-budget",
        "optimal_over_partition-budget",
        "item_pricing-budget",
        "replay_trace-trace",
        "superadditive",
        "superadditive-trace",
        "singleminded",
        "singleminded-trace",
        "logbundle",
        "logbundle-trace",
        "fullsurplus",
        "fullsurplus-trace",
        "uba",
        "uba-trace",
        "cleanup",
        "cleanup-trace",
    ],
)
def test_entry_points_outside_check_fits_check_their_argument_kinds(call, message):
    # Each of these leaked AttributeError or TypeError on an int before;
    # the market's kind is checked by check_fits, the others by _check_kinds.
    with pytest.raises(BadParams, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: preferred(5), "utilities must be a tuple or a list, got int"),
        (lambda: preferred([0, None]), "utilities must be ints"),
        (lambda: check_fits(_FIG1A, _FOUR, 5), "the kind must be Allocation, Outcome or Partition"),
        (lambda: check_fits(_FIG1A, _FOUR, [Partition]), "the kind must be Allocation"),
    ],
    ids=["preferred", "preferred-entry", "check_fits-kind", "check_fits-list"],
)
def test_demand_and_fit_entry_points_check_their_argument_kinds(call, message):
    # These leaked TypeError ("object of type 'int' has no len()") and
    # KeyError (5) before.
    with pytest.raises(BadParams, match=message):
        call()


def test_priced_blocks_reads_item_prices_as_bundle_prices_of_singletons():
    x = allocation(3, [0b001, 0b100], x0=0b010)
    item_priced = Outcome(x, item_prices=(1, 2, 3))
    assert priced_blocks(item_priced) == (singleton_partition(3), (0, UNALLOCATED, 1), (1, 2, 3))
    assert revenue(Instance(3, (Additive((1, 1, 1)),) * 2), item_priced) == 4
    bundled = Outcome(allocation(3, [0b101], x0=0b010), prices=(4,), x0_price=6)
    partition, owners, prices = priced_blocks(bundled)
    assert (partition.blocks, owners, prices) == ((0b101, 0b010), (0, UNALLOCATED), (4, 6))
