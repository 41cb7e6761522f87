"""Mechanism behavior: hand traces, postconditions, trace replay."""

from fractions import Fraction

import pytest

from mccwe import (
    Additive,
    BadParams,
    BudgetAdditive,
    CappedCardinalityAdditive,
    CertificateError,
    Instance,
    NotIdenticalBudgets,
    NotSingleMinded,
    NotSuperadditive,
    NotUniformBudgetAdditive,
    Partition,
    SingleMinded,
    allocation,
    revenue,
    singleton_partition,
    social_welfare,
)
from mccwe.bits import bits_of, full_mask, mask_of
from mccwe.market import full_surplus_outcome, induced_partition
from mccwe.equilibria import MCCWE, verify
from mccwe.instances import SplitMix64, built_in, generate
from mccwe import mechanisms
from mccwe.mechanisms import (
    MechanismTrace,
    TraceStep,
    _State,
    bundle_efficient_full_surplus,
    identical_budget_cleanup,
    log_bundling_mechanism,
    replay_trace,
    single_minded_mccwe,
    superadditive_mccwe,
    uniform_budget_additive_mccwe,
)
from mccwe.oracle import best_mccwe, optimal_integral, optimal_over_partition
from mccwe.valuations import demand_utilities

F = Fraction


def _empty(instance):
    return allocation(instance.m, [0] * instance.n, x0=full_mask(instance.m))


def test_bundle_efficient_single_agent():
    inst = Instance(2, (SingleMinded(0b11, F(5)),))
    out = bundle_efficient_full_surplus(inst, Partition(2, (0b11,)))
    assert out.allocation.bundles == (0b11,)
    assert out.prices == (F(5),)
    assert verify(inst, out, MCCWE).ok


def test_bundle_efficient_two_disjoint_single_minded():
    inst = Instance(
        4, (SingleMinded(0b0011, F(3)), SingleMinded(0b1100, F(4)))
    )
    p = Partition(4, (0b0011, 0b1100))
    out = bundle_efficient_full_surplus(inst, p)
    assert out.prices == (F(3), F(4))
    assert revenue(inst, out) == 7
    assert verify(inst, out, MCCWE).ok


def test_bundle_efficient_with_worthless_rest_block():
    inst = Instance(
        5, (SingleMinded(mask_of([0, 1]), F(3)), SingleMinded(mask_of([2, 3]), F(4)))
    )
    p = Partition(5, (mask_of([0, 1]), mask_of([2, 3]), mask_of([4])))
    out = bundle_efficient_full_surplus(inst, p)
    assert out.prices == (F(3), F(4))
    assert revenue(inst, out) == 7
    assert verify(inst, out, MCCWE).ok


def test_bundle_efficient_bundling_necessity_blocks():
    inst = built_in("bundling_necessity", m=16)
    small0 = inst.agents[0].desired
    p = Partition(16, (small0, full_mask(16) & ~small0))
    out = bundle_efficient_full_surplus(inst, p)
    assert social_welfare(inst, out.allocation) == 16  # big bidder buys both blocks
    assert verify(inst, out, MCCWE).ok


def test_bundle_efficient_rejects_subadditive_agents():
    inst = built_in("fig1a")
    with pytest.raises(NotSuperadditive):
        bundle_efficient_full_surplus(inst, singleton_partition(4))


def test_bundle_efficient_search_is_bounded_by_its_oracle_alone():
    # 13 blocks for one agent are 2^13 oracle states, far inside its budget
    inst = Instance(13, (Additive(tuple(F(j % 3, 2) for j in range(13))),))
    partition = singleton_partition(13)
    owners, value = optimal_over_partition(inst, partition)
    out = bundle_efficient_full_surplus(inst, partition)
    assert out.allocation.bundles == (mask_of(j for j, o in enumerate(owners) if o == 0),)
    assert social_welfare(inst, out.allocation) == value == 6


def test_superadditive_single_agent():
    inst = Instance(3, (SingleMinded(0b111, F(4)),))
    out = superadditive_mccwe(inst)
    assert out.allocation.bundles == (0b111,)
    assert out.prices == (F(4),)


def test_superadditive_winner_take_all_hand_trace():
    inst = Instance(2, (SingleMinded(0b01, F(3)), SingleMinded(0b11, F(4))))
    trace = MechanismTrace()
    out = superadditive_mccwe(inst, trace)
    assert out.allocation.bundles == (0, 0b11)
    assert out.prices == (F(0), F(4))
    assert social_welfare(inst, out.allocation) == optimal_integral(inst)[1]
    phases = [step.phase for step in trace.steps]
    assert "winner_take_all" in phases
    assert replay_trace(inst, _empty(inst), trace) == out.allocation


def test_trace_welfare_is_the_markets_own_welfare():
    # fractional values at three scales: every step's welfare is read back
    # from the market's units and matches the replayed allocation
    inst = Instance(
        3,
        (
            SingleMinded(0b001, F(3, 2)),
            SingleMinded(0b110, F(7, 3)),
            SingleMinded(0b111, F(13, 4)),
        ),
    )
    for mechanism in (superadditive_mccwe, single_minded_mccwe):
        trace = MechanismTrace()
        out = mechanism(inst, trace)
        state = _State(inst, _empty(inst), None, "")
        welfare = F(0)
        for step in trace.steps:
            assert step.welfare_before == welfare
            state.give(step.phase, step.agent, step.items)
            welfare = social_welfare(inst, state.allocation())
            assert step.welfare_after == welfare
        assert len(trace.steps) >= 2
        assert welfare == social_welfare(inst, out.allocation) > 3


def test_superadditive_bundling_necessity():
    inst = built_in("bundling_necessity", m=16)
    out = superadditive_mccwe(inst)
    assert social_welfare(inst, out.allocation) == 16
    assert revenue(inst, out) == 16
    assert verify(inst, out, MCCWE).ok


def test_superadditive_single_minded_past_24_items():
    # Before: the relative-demand query's 24-item cap raised SizeLimit here,
    # ahead of the single-minded closed form.
    inst = built_in("bundling_necessity", m=64)
    out = superadditive_mccwe(inst)
    assert social_welfare(inst, out.allocation) == optimal_integral(inst)[1] == 64
    assert verify(inst, out, MCCWE).ok

def test_superadditive_merge_phase_runs():
    # seed picked so the density phase leaves a strictly profitable merge
    inst = generate("random_superadditive", 5, 3, 503)
    trace = MechanismTrace()
    out = superadditive_mccwe(inst, trace)
    assert any(step.phase == "merge" for step in trace.steps)
    assert len([s for s in trace.steps if s.phase == "merge"]) <= inst.n**2
    assert verify(inst, out, MCCWE).ok
    assert replay_trace(inst, _empty(inst), trace) == out.allocation


def test_superadditive_rejects_budget_capped():
    with pytest.raises(NotSuperadditive):
        superadditive_mccwe(built_in("fig1a"))


def _additive_family_market(kind, m, n, rng):
    """n agents of one additive family on m items, none binding its budget or
    cap, so each is super-additive; about a third of the item values are 0."""
    agents = []
    for _ in range(n):
        values = tuple(max(0, rng.randint(-3, 9)) for _ in range(m))
        if kind == "additive":
            agents.append(Additive(values))
        elif kind == "budget":
            agents.append(BudgetAdditive(sum(values) + rng.randint(0, 5), values))
        else:
            positives = sum(1 for x in values if x)
            agents.append(CappedCardinalityAdditive(values, positives + rng.randint(0, 3)))
    return Instance(m, tuple(agents))


def test_superadditive_additive_families_past_24_items():
    # Before: the relative-demand query's 24-item cap raised SizeLimit on
    # every one of these; the best item is now its closed form.
    lone = Instance(25, (Additive((F(1),) * 25),))
    out = superadditive_mccwe(lone)
    assert out.allocation.bundles == (full_mask(25),) and out.prices == (25,)
    assert verify(lone, out, MCCWE).ok
    rng = SplitMix64(29)
    for kind in ("additive", "budget", "capped"):
        for m in (64, 256):
            inst = _additive_family_market(kind, m, 3, rng)
            out = superadditive_mccwe(inst)
            # each item goes to its top bidder, so the welfare is the optimum
            top = sum(max(v.item_values[j] for v in inst.agents) for j in range(m))
            assert social_welfare(inst, out.allocation) == top, (kind, m)
            assert verify(inst, out, MCCWE).ok, (kind, m)


def test_single_minded_one_agent():
    inst = Instance(3, (SingleMinded(0b111, F(5)),))
    out = single_minded_mccwe(inst)
    assert out.allocation.bundles == (0b111,)
    assert out.prices == (F(5),)


def test_single_minded_hand_trace():
    inst = Instance(
        4,
        (
            SingleMinded(mask_of([0, 1]), F(5)),
            SingleMinded(mask_of([1, 2]), F(4)),
            SingleMinded(mask_of([0, 1, 2, 3]), F(6)),
        ),
    )
    trace = MechanismTrace()
    out = single_minded_mccwe(inst, trace)
    assert out.allocation.bundles == (0, 0, full_mask(4))
    assert social_welfare(inst, out.allocation) == 6 == optimal_integral(inst)[1]
    assert verify(inst, out, MCCWE).ok
    assert replay_trace(inst, _empty(inst), trace) == out.allocation


def test_single_minded_bundling_necessity():
    inst = built_in("bundling_necessity", m=16)
    out = single_minded_mccwe(inst)
    assert social_welfare(inst, out.allocation) == 16
    assert revenue(inst, out) == 16
    assert verify(inst, out, MCCWE).ok


def test_single_minded_all_large_sets_fallback():
    inst = Instance(
        3, (SingleMinded(0b111, F(2)), SingleMinded(0b110, F(3)))
    )  # both sets of size >= 2 > sqrt(3)
    out = single_minded_mccwe(inst)
    assert out.allocation.bundles == (0, full_mask(3))
    assert out.prices[1] == F(3)
    assert verify(inst, out, MCCWE).ok


def test_single_minded_rejects_other_families():
    with pytest.raises(NotSingleMinded):
        single_minded_mccwe(Instance(1, (Additive((F(1),)),)))


def test_uba_within_budget_returned_unchanged():
    inst = Instance(
        2,
        (BudgetAdditive(F(5), (F(1), F(0))), BudgetAdditive(F(5), (F(0), F(2)))),
    )
    x = allocation(2, [0b01, 0b10])
    out = uniform_budget_additive_mccwe(inst, x)
    assert out.allocation == x
    assert out.prices == (F(1), F(2))


def test_uba_two_budget_hand_trace():
    inst = Instance(
        2,
        (BudgetAdditive(F(1), (F(1), F(1))), BudgetAdditive(F(2), (F(1), F(1)))),
    )
    x = allocation(2, [0b11, 0])
    trace = MechanismTrace()
    out = uniform_budget_additive_mccwe(inst, x, trace)
    assert out.allocation.bundles == (0b10, 0b01)
    assert social_welfare(inst, out.allocation) == 2
    assert out.prices == (F(1), F(1))
    assert verify(inst, out, MCCWE).ok
    assert replay_trace(inst, x, trace) == out.allocation


def test_uba_fig1a_from_optimum():
    inst = built_in("fig1a", eps=F(1, 10))
    x, sw = optimal_integral(inst)
    out = uniform_budget_additive_mccwe(inst, x)
    w = social_welfare(inst, out.allocation)
    assert 2 * w >= sw
    assert verify(inst, out, MCCWE).ok
    assert revenue(inst, out) == w


def test_uba_half_welfare_needs_budgets_that_cover_each_valued_item():
    # Every item is worth 4 to each agent, above the budgets 2 and 3: the
    # rebalance hands both other items to the budget-4 agent, already at its
    # budget, and keeps 4 of the optimum's 9, though zero prices support the
    # optimum itself.  The outcome still clears the market.
    inst = Instance(3, tuple(BudgetAdditive(F(b), (F(4),) * 3) for b in (2, 4, 3)))
    x, sw = optimal_integral(inst)
    assert sw == 9
    out = uniform_budget_additive_mccwe(inst, x)
    assert social_welfare(inst, out.allocation) == 4
    assert verify(inst, out, MCCWE).ok
    assert best_mccwe(inst)[1] == 9


def _budgets_apart_from_values(rng):
    """A uniform budget-additive market (m 3-6, n 2-4) whose budgets are
    drawn independently of the item values, and whether every agent's
    budget is at least each of its positive item values."""
    m, n = rng.randint(3, 6), rng.randint(2, 4)
    shared = [rng.randint(1, 8) for _ in range(m)]
    agents = []
    for _ in range(n):
        wants = rng.randint(1, (1 << m) - 1)
        values = tuple(shared[j] if wants >> j & 1 else 0 for j in range(m))
        agents.append(BudgetAdditive(rng.randint(1, 12), values))
    covered = all(v.budget >= max(v.item_values) for v in agents)
    return Instance(m, tuple(agents)), covered


def _random_allocation(inst, rng):
    """Each item to an agent or to the pool (owner n), drawn from rng."""
    bundles = [0] * (inst.n + 1)
    for j in range(inst.m):
        bundles[rng.randint(0, inst.n)] |= 1 << j
    return allocation(inst.m, bundles[:-1], x0=bundles[-1])


def test_uba_seeded_markets_outside_the_generators_hypothesis():
    # The generator keeps every budget at least each valued item; here the
    # budgets ignore the values.  From the optimum and from a random start
    # the rebalance must clear the market at full-surplus prices; it keeps
    # half the input's welfare only where the hypothesis holds.
    rng = SplitMix64(2014)
    kinds = set()
    for _ in range(1500):
        inst, covered = _budgets_apart_from_values(rng)
        kinds.add(covered)
        for x in (optimal_integral(inst)[0], _random_allocation(inst, rng)):
            out = uniform_budget_additive_mccwe(inst, x)
            w = social_welfare(inst, out.allocation)
            assert verify(inst, out, MCCWE).ok
            assert revenue(inst, out) == w
            if covered:
                assert 2 * w >= social_welfare(inst, x)
    assert kinds == {True, False}


def test_uba_keeps_half_welfare_on_dump_heavy_shape():
    # Two budget-9 agents hold {1,5,9}-valued items whose 5s and 9s a
    # saturated budget-10 agent also wants; stopping only once each owner
    # values its bundle most keeps welfare at 28 (a raw budget-driven purge
    # would fall to 12, below the guaranteed half of 28).
    Z = F(0)
    inst = Instance(
        7,
        (
            BudgetAdditive(F(9), (F(1), F(5), F(9), Z, Z, Z, Z)),
            BudgetAdditive(F(9), (Z, Z, Z, F(1), F(5), F(9), Z)),
            BudgetAdditive(F(10), (Z, F(5), F(9), Z, F(5), F(9), F(10))),
        ),
    )
    x, sw = optimal_integral(inst)
    assert sw == 28
    out = uniform_budget_additive_mccwe(inst, x)
    w = social_welfare(inst, out.allocation)
    assert 2 * w >= sw
    assert w == 28
    assert verify(inst, out, MCCWE).ok


def test_uba_owner_values_every_bundle_most():
    for seed in range(60):
        inst = generate("random_uniform_budget_additive", 5, 4, seed)
        x, _sw = optimal_integral(inst)
        out = uniform_budget_additive_mccwe(inst, x)
        for i, b in enumerate(out.allocation.bundles):
            if b:
                own = inst.agents[i].value(b)
                assert all(v.value(b) <= own for v in inst.agents)


def test_uba_rejects_nonuniform():
    inst = built_in("nonuniform_identical_budget")
    with pytest.raises(NotUniformBudgetAdditive):
        uniform_budget_additive_mccwe(inst, _empty(inst))


def test_log_bundling_block_structure():
    inst = Instance(2, (SingleMinded(0b11, F(3)), SingleMinded(0b01, F(1))))
    out = log_bundling_mechanism(inst)
    assert out.allocation.bundles == (0b11, 0)  # one block: whole market

    inst4 = Instance(4, (SingleMinded(0b1111, F(3)),))
    out4 = log_bundling_mechanism(inst4)
    assert out4.allocation.bundles == (0b1111,)

    two = Instance(
        8,
        (
            SingleMinded(mask_of([0, 1, 2, 3]), F(5)),
            SingleMinded(mask_of([4, 5, 6, 7]), F(5)),
        ),
    )
    out8 = log_bundling_mechanism(two)
    # blocks {0,1,2},{3,4,5},{6,7}: only one desired set fits a block union
    from mccwe.oracle import optimal_over_partition

    blocks = Partition(8, (mask_of([0, 1, 2]), mask_of([3, 4, 5]), mask_of([6, 7])))
    _owners, best = optimal_over_partition(two, blocks)
    assert social_welfare(two, out8.allocation) == best
    assert verify(two, out8, MCCWE).ok


def test_cleanup_noop_when_everyone_values_holdings():
    inst = Instance(
        2,
        (BudgetAdditive(F(2), (F(1), F(0))), BudgetAdditive(F(2), (F(0), F(1)))),
    )
    x = allocation(2, [0b01, 0b10])
    out = identical_budget_cleanup(inst, x)
    assert out.allocation == x
    assert verify(inst, out, MCCWE).ok


def test_cleanup_fig1b_optimum():
    inst = built_in("fig1b")
    x, sw = optimal_integral(inst)
    out = identical_budget_cleanup(inst, x)
    assert social_welfare(inst, out.allocation) == sw == 7
    assert verify(inst, out, MCCWE).ok


def test_cleanup_moves_misplaced_item_and_raises_welfare():
    inst = Instance(
        2,
        (BudgetAdditive(F(2), (F(1), F(0))), BudgetAdditive(F(2), (F(1), F(1)))),
    )
    x = allocation(2, [0b10, 0b01])  # both items misplaced
    before = social_welfare(inst, x)
    out = identical_budget_cleanup(inst, x)
    assert social_welfare(inst, out.allocation) > before
    assert verify(inst, out, MCCWE).ok


def test_cleanup_rejects_differing_budgets():
    inst = built_in("fig1a")
    with pytest.raises(NotIdenticalBudgets):
        identical_budget_cleanup(inst, _empty(inst))


def test_start_allocation_must_match_the_instance_shape():
    fig1a, fig1b = built_in("fig1a"), built_in("fig1b")
    fewer = allocation(fig1a.m, [full_mask(fig1a.m)])
    more = allocation(fig1b.m, [1 << j for j in range(fig1b.m)])
    for call in (
        lambda: uniform_budget_additive_mccwe(fig1a, fewer),
        lambda: uniform_budget_additive_mccwe(fig1b, more),
        lambda: identical_budget_cleanup(fig1b, more),
        lambda: replay_trace(fig1a, fewer, MechanismTrace()),
        lambda: replay_trace(fig1b, more, MechanismTrace()),
    ):
        with pytest.raises(BadParams, match="the instance has"):
            call()


def test_a_start_allocation_of_none_is_refused():
    # Before, None ran each of these from "nothing sold".
    fig1b = built_in("fig1b")
    for call in (
        lambda: uniform_budget_additive_mccwe(fig1b, None),
        lambda: identical_budget_cleanup(fig1b, None),
        lambda: replay_trace(fig1b, None, MechanismTrace()),
    ):
        with pytest.raises(BadParams, match="^the allocation must be an Allocation, got NoneType$"):
            call()


def test_replay_trace_rejects_steps_outside_the_market():
    # Before, agent -1 gave the items to agent 4 and True to agent 1 (as
    # list indices), and agent 9 raised IndexError.
    fig1a = built_in("fig1a")  # four items, five agents
    for agent, items, message in (
        (-1, 0b11, "agent -1 is not in the market"),
        (5, 0b11, "agent 5 is not in the market"),
        (9, 0b11, "agent 9 is not in the market"),
        (True, 0b11, "int item masks and agents, got bool"),
        (0, "3", "int item masks and agents, got str"),
        (None, 1.0, "int item masks and agents, got float"),
    ):
        trace = MechanismTrace("", [TraceStep("move", agent, items, F(0), F(0))])
        with pytest.raises(BadParams, match=message):
            replay_trace(fig1a, _empty(fig1a), trace)
    trace = MechanismTrace("", [TraceStep("move", 4, 0b11, F(0), F(0))])
    assert replay_trace(fig1a, _empty(fig1a), trace).bundles == (0, 0, 0, 0, 0b11)


def test_traces_must_hold_a_list_of_trace_steps():
    # Before, steps that were not a list leaked AttributeError from the
    # recorder or TypeError from the replay, and a step that was not a
    # TraceStep leaked AttributeError.
    fig1a = built_in("fig1a")
    sm = generate("random_single_minded", 4, 3, 1)
    for steps in ("x", (), 5, None):
        with pytest.raises(BadParams, match="a trace's steps must be a list"):
            superadditive_mccwe(sm, MechanismTrace("", steps))
        with pytest.raises(BadParams, match="a trace's steps must be a list"):
            replay_trace(fig1a, _empty(fig1a), MechanismTrace("", steps))
    step = TraceStep("move", 4, 0b11, F(0), F(0))
    for bad in (("move", 4, 0b11), None, 5):
        with pytest.raises(BadParams, match="trace steps must be TraceSteps"):
            replay_trace(fig1a, _empty(fig1a), MechanismTrace("", [step, bad]))


def test_every_mechanism_output_verifies_on_random_families():
    for seed in range(25):
        sa = generate("random_superadditive", 4, 3, seed)
        out = superadditive_mccwe(sa)
        assert verify(sa, out, MCCWE).ok
        assert revenue(sa, out) == social_welfare(sa, out.allocation)

        sm = generate("random_single_minded", 5, 4, seed)
        out = single_minded_mccwe(sm)
        assert verify(sm, out, MCCWE).ok
        assert revenue(sm, out) == social_welfare(sm, out.allocation)

        ba = generate("random_uniform_budget_additive", 4, 3, seed)
        x, _ = optimal_integral(ba)
        out = uniform_budget_additive_mccwe(ba, x)
        assert verify(ba, out, MCCWE).ok


def test_single_minded_welfare_at_least_top_value():
    for seed in range(40):
        inst = generate("random_single_minded", 6, 4, seed + 7)
        out = single_minded_mccwe(inst)
        top = max(v.value_if_served for v in inst.agents)
        assert social_welfare(inst, out.allocation) >= top


def test_single_minded_dominates_greedy_small_sets():
    for seed in range(40):
        inst = generate("random_single_minded", 6, 4, seed + 70)
        out = single_minded_mccwe(inst)
        small = [
            i
            for i in range(inst.n)
            if inst.agents[i].desired.bit_count() ** 2 <= inst.m
        ]
        taken = 0
        greedy = F(0)
        order = sorted(small, key=lambda i: (-inst.agents[i].value_if_served, i))
        for i in order:
            if inst.agents[i].desired & taken == 0:
                greedy += inst.agents[i].value_if_served
                taken |= inst.agents[i].desired
        assert social_welfare(inst, out.allocation) >= greedy


def test_best_mccwe_dominates_every_mechanism():
    for seed in range(8):
        sa = generate("random_superadditive", 4, 3, seed + 11)
        _out, best = best_mccwe(sa)
        assert best >= social_welfare(sa, superadditive_mccwe(sa).allocation)

        sm = generate("random_single_minded", 4, 3, seed + 11)
        _out, best = best_mccwe(sm)
        assert best >= social_welfare(sm, single_minded_mccwe(sm).allocation)

        ba = generate("random_uniform_budget_additive", 4, 3, seed + 11)
        x, _w = optimal_integral(ba)
        _out, best = best_mccwe(ba)
        reshuffled = uniform_budget_additive_mccwe(ba, x)
        assert best >= social_welfare(ba, reshuffled.allocation)


def test_full_surplus_mechanisms_record_replayable_traces():
    inst = Instance(
        8,
        (
            SingleMinded(mask_of([0, 1, 2, 3]), F(5)),
            SingleMinded(mask_of([4, 5, 6, 7]), F(5)),
        ),
    )
    trace = MechanismTrace()
    out = log_bundling_mechanism(inst, trace)
    assert trace.mechanism == "logbundle"
    assert trace.steps
    assert replay_trace(inst, _empty(inst), trace) == out.allocation


def demand_merge_gap(instance, bundles):
    """The largest merge surplus by the demand route: one demand_utilities
    call per agent over the nonempty bundles, priced at the owners' values.
    The merge phase leaves no item unallocated, so those bundles partition
    the items.  Each agent's table is read back from its own scale."""
    owners = {b: j for j, b in enumerate(bundles) if b}
    partition = Partition(instance.m, tuple(owners))
    prices = [instance.agents[owners[b]].value(b) for b in partition.blocks]
    gaps = []
    for v in instance.agents:
        utils, scale = demand_utilities(v, partition, prices)
        gaps.append(F(max(utils), scale))
    return max(gaps)


def test_merge_steps_follow_verifys_first_violation():
    """Each merge hands the first violation's agent its better blocks, on
    the state before the merge, and that violation's gap is the largest
    surplus by the demand route; the last state verifies."""
    checked = 0
    for seed in range(150):
        for family, shapes in (
            ("random_superadditive", ((5, 5), (4, 8))),
            ("random_single_minded", ((3, 6), (4, 8), (5, 5))),
        ):
            m, n = shapes[seed % len(shapes)]
            inst = generate(family, m, n, seed)
            trace = MechanismTrace()
            out = superadditive_mccwe(inst, trace)
            state = _State(inst, _empty(inst), None, "")
            for step in trace.steps:
                if step.phase == "merge":
                    x = state.allocation()
                    first = verify(inst, full_surplus_outcome(inst, x), MCCWE).violations[0]
                    blocks = induced_partition(x)[0].blocks
                    union = sum(blocks[j] for j in bits_of(first.better_bundle))
                    assert (step.agent, step.items) == (first.agent, union)
                    assert first.gap == demand_merge_gap(inst, state.bundles) > 0
                    checked += 1
                state.give(step.phase, step.agent, step.items)
            assert state.allocation() == out.allocation
            assert verify(inst, out, MCCWE).ok
            assert demand_merge_gap(inst, state.bundles) <= 0
    assert checked >= 20


def test_merge_halting_bound_raises(monkeypatch):
    inst = Instance(2, (SingleMinded(0b01, F(1)), SingleMinded(0b10, F(1))))
    # no move takes effect, so the unsold items' violation never clears
    monkeypatch.setattr(_State, "give", lambda self, phase, agent, items: None)
    checks = []
    monkeypatch.setattr(
        mechanisms, "verify", lambda *args: checks.append(1) or verify(*args)
    )
    with pytest.raises(CertificateError, match="halting bound"):
        superadditive_mccwe(inst)
    assert len(checks) == inst.n**2 + 1


def test_merge_phase_takes_any_number_of_agents():
    # Before, the merge phase refused more than 16 agents, a cap that
    # guarded an n * 2^n group table the verifier has since replaced.
    agents = tuple(SingleMinded(1 << (i % 3), F(i % 5)) for i in range(17))
    for inst in (Instance(3, agents), Instance(3, agents[:16])):
        assert verify(inst, superadditive_mccwe(inst), MCCWE).ok


def test_unmovable_envied_bundle_raises(monkeypatch):
    # the top budget holds an item only the smaller budget values
    inst = Instance(
        1,
        (BudgetAdditive(F(1), (F(3),)), BudgetAdditive(F(5), (F(0),))),
    )
    monkeypatch.setattr(mechanisms, "_interested_prepass", lambda state, interest, phase: None)
    with pytest.raises(CertificateError, match="movable item"):
        uniform_budget_additive_mccwe(inst, allocation(1, [0, 0b1]))


def test_rebalance_move_bound_raises(monkeypatch):
    inst = Instance(
        1,
        (BudgetAdditive(F(1), (F(3),)), BudgetAdditive(F(5), (F(3),))),
    )
    # moves that never land keep the envy alive
    monkeypatch.setattr(_State, "give", lambda self, phase, agent, items: None)
    with pytest.raises(CertificateError, match="move bound"):
        uniform_budget_additive_mccwe(inst, allocation(1, [0b1, 0]))
