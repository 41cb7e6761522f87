"""Verifier semantics: demand correspondences, buyer/seller stability."""

from fractions import Fraction

import pytest

from mccwe import (
    Additive,
    BadParams,
    BudgetAdditive,
    CappedCardinalityAdditive,
    Instance,
    Outcome,
    Partition,
    SingleMinded,
    allocation,
    singleton_partition,
)
from mccwe.bits import mask_of
from mccwe.equilibria import CWE, MCCWE, WE, demand_correspondence, verify
from mccwe.instances import SplitMix64, generate

F = Fraction


def _revenue_market(R=F(100)):
    return Instance(
        3,
        (
            SingleMinded(1 << 0, F(1)),
            CappedCardinalityAdditive((R - 1, R, R), 2),
        ),
    )


def test_demand_correspondence_contains_empty_when_overpriced():
    v = BudgetAdditive(F(2), (F(1), F(1)))
    p = singleton_partition(2)
    assert demand_correspondence(v, p, [F(5), F(5)]) == {0}


def test_demand_correspondence_ties():
    inst = _revenue_market()
    p = Partition(3, (mask_of([0]), mask_of([1, 2])))
    d = demand_correspondence(inst.agents[1], p, [F(1), F(102)])
    assert d == {0b01, 0b10}  # both utility 98


def test_demand_correspondence_gap_market_small_bidder():
    # c1 (budget 3, values a1 at 1 and a2 at 4) at prices (1,3,99,99):
    # empty set, {a1}, and {a2} all tie at utility 0.
    from mccwe.instances import built_in

    inst = built_in("fig1a", eps=F(1, 10))
    d = demand_correspondence(
        inst.agents[0], singleton_partition(4), [F(1), F(3), F(99), F(99)]
    )
    assert d == {0b0000, 0b0001, 0b0010}


def test_verify_empty_market_all_modes():
    inst = Instance(2, (Additive((F(0), F(0))),))
    x = allocation(2, [0], x0=0b11)
    for mode, outcome in (
        (WE, Outcome(x, item_prices=(F(0), F(0)))),
        (CWE, Outcome(x, prices=(F(0),))),
        (MCCWE, Outcome(x, prices=(F(0),))),
    ):
        assert verify(inst, outcome, mode).ok


def test_verify_revenue_market_we_and_mccwe():
    inst = _revenue_market()
    x = allocation(3, [0b001, 0b110])
    assert verify(inst, Outcome(x, item_prices=(F(1), F(2), F(2))), WE).ok
    assert verify(inst, Outcome(x, prices=(F(1), F(102))), MCCWE).ok
    # overpricing the bundle breaks buyer stability with the exact gap
    report = verify(inst, Outcome(x, prices=(F(1), F(103))), MCCWE)
    assert not report.ok
    v = report.violations[0]
    assert v.kind == "buyer" and v.agent == 1 and v.gap == F(1)


def test_verify_reports_gaps_in_the_markets_own_values():
    # values in halves, prices in thirds: the table runs in sixths, and the
    # reported gap is read back from them
    inst = Instance(2, (Additive((F(1, 2), F(1, 4))), SingleMinded(0b10, F(1, 3))))
    x = allocation(2, [0, 0b10], x0=0b01)
    report = verify(inst, Outcome(x, prices=(F(0), F(1, 3)), x0_price=F(1, 3)), CWE)
    assert [(v.agent, v.better_bundle, v.gap) for v in report.violations] == [(0, 0b01, F(1, 6))]
    report = verify(inst, Outcome(x, item_prices=(F(1, 5), F(0))), WE)
    gaps = [(v.kind, v.agent, v.gap, v.price) for v in report.violations]
    assert gaps == [("buyer", 0, F(1, 2) - F(1, 5) + F(1, 4), None), ("seller", None, None, F(1, 5))]


def test_verify_seller_stability():
    inst = Instance(2, (SingleMinded(1 << 0, F(3)),))
    x = allocation(2, [0b01])
    priced_leftover = Outcome(x, prices=(F(3),), x0_price=F(1))
    assert verify(inst, priced_leftover, CWE).ok  # clearance not required
    report = verify(inst, priced_leftover, MCCWE)
    assert not report.ok
    assert report.violations[0].kind == "seller"
    we_report = verify(inst, Outcome(x, item_prices=(F(3), F(1))), WE)
    assert not we_report.ok and we_report.violations[0].kind == "seller"


def test_verify_empty_handed_agent_must_demand_nothing():
    inst = Instance(1, (SingleMinded(1, F(5)), SingleMinded(1, F(2))))
    x = allocation(1, [1, 0])
    # at price 1 the loser strictly demands the item: not buyer stable
    report = verify(inst, Outcome(x, prices=(F(1), F(0))), CWE)
    assert not report.ok and report.violations[0].agent == 1
    # at price 2 the loser is indifferent: stable
    assert verify(inst, Outcome(x, prices=(F(2), F(0))), CWE).ok


def test_mccwe_implies_cwe():
    rng = SplitMix64(5)
    for seed in range(30):
        inst = generate("random_uniform_budget_additive", 4, 3, seed)
        x = allocation(4, [0b0011, 0b0100, 0b1000])
        prices = tuple(v.value(b) for v, b in zip(inst.agents, x.bundles))
        out = Outcome(x, prices=prices)
        if verify(inst, out, MCCWE).ok:
            assert verify(inst, out, CWE).ok


def test_raising_other_bundle_price_never_hurts_a_passing_agent():
    for seed in range(40):
        inst = generate("random_uniform_budget_additive", 5, 3, seed + 100)
        x = allocation(5, [0b00011, 0b01100, 0b10000])
        prices = list(v.value(b) for v, b in zip(inst.agents, x.bundles))
        base = verify(inst, Outcome(x, prices=tuple(prices)), CWE)
        passing = {i for i in range(3)} - {v.agent for v in base.violations}
        for bump in range(3):
            bumped = list(prices)
            bumped[bump] += 1
            after = verify(inst, Outcome(x, prices=tuple(bumped)), CWE)
            still_failing = {v.agent for v in after.violations}
            assert not (passing - {bump}) & still_failing


def test_verify_rejects_mismatched_price_shapes():
    inst = Instance(2, (Additive((F(1), F(1))),))
    x = allocation(2, [0b11])
    with pytest.raises(BadParams):
        verify(inst, Outcome(x, prices=(F(1),)), WE)
    with pytest.raises(BadParams):
        verify(inst, Outcome(x, item_prices=(F(1), F(1))), MCCWE)
    with pytest.raises(BadParams):
        verify(inst, Outcome(x, prices=(F(1),)), "walras")


def test_outcome_must_match_the_instance_shape():
    inst = _revenue_market()
    short = Outcome(allocation(3, [0b111]), item_prices=(F(0), F(0), F(0)))
    long = Outcome(allocation(3, [0b001, 0b010, 0b100]), prices=(F(1), F(1), F(1)))
    narrow = Outcome(allocation(2, [0b01, 0b10]), prices=(F(1), F(1)))
    for outcome, mode in ((short, WE), (long, MCCWE), (long, CWE), (narrow, MCCWE)):
        with pytest.raises(BadParams, match="the instance has 3 items and 2 agents"):
            verify(inst, outcome, mode)
