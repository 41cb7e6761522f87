"""The budget mechanisms' integer market scan against the per-move
`Fraction` scans it replaced.

`tests/mechanism_reference.py` keeps those scans.  On seeded uniform
budget-additive markets, with random start allocations, zero values, zero
budgets, both identical and differing budgets, and agents at different
scales, the tests require every trace step, every outcome and every raised
error to be the same, and the scan's facts to equal the `Fraction` ones
times the market's scale.
"""

import random
from collections import Counter
from fractions import Fraction

import mechanism_reference as reference
from mccwe import BudgetAdditive, Instance, MarketError, NotUniformBudgetAdditive, allocation
from mccwe import mechanisms
from mccwe.instances import built_in
from mccwe.mechanisms import MechanismTrace, _uniform_market
from value_reference import shared_item_values

F = Fraction

_BUILT_IN_MARKETS = (
    built_in("fig1a"),
    built_in("fig1b"),
    built_in("nonuniform_identical_budget"),
    built_in("partition_reduction", weights=[F(3, 2), 1, 2, F(1, 2)]),
)

_PAIRS = (
    (reference.uniform_budget_additive_mccwe, mechanisms.uniform_budget_additive_mccwe),
    (reference.identical_budget_cleanup, mechanisms.identical_budget_cleanup),
)


def _random_market(rng):
    """Shared item values (some zero, some fractional); each agent values a
    random subset of the items; budgets identical or not, often zero.  One
    agent in twenty gets its own value for one item, which usually makes
    the market not uniform."""
    m, n = rng.randint(1, 7), rng.randint(1, 5)
    shared = [
        rng.choice((F(0), F(rng.randint(1, 8)), F(rng.randint(1, 8), rng.randint(2, 3))))
        for _ in range(m)
    ]
    identical = rng.random() < 0.5
    common = F(rng.choice((0, rng.randint(0, 10))))
    agents = []
    for _ in range(n):
        values = [x if rng.random() < 0.6 else F(0) for x in shared]
        if rng.random() < 0.05:
            values[rng.randrange(m)] += 1
        budget = common if identical else F(rng.choice((0, rng.randint(0, 10))), rng.randint(1, 2))
        agents.append(BudgetAdditive(budget, tuple(values)))
    return Instance(m, tuple(agents))


def _random_start(rng, instance):
    """Each item to a random agent or the pool; now and then one bundle too
    many, which both sides must reject."""
    n = instance.n + (rng.random() < 0.02)
    owners = [rng.randint(-1, n - 1) for _ in range(instance.m)]
    bundles = [sum(1 << j for j, o in enumerate(owners) if o == i) for i in range(n)]
    return allocation(instance.m, bundles)


def _run(mechanism, instance, start):
    trace = MechanismTrace()
    try:
        outcome = mechanism(instance, start, trace)
    except MarketError as exc:
        return ("error", type(exc), str(exc))
    return ("ok", trace.mechanism, trace.steps, outcome)


def _mixed_scales(instance) -> bool:
    """Uniform budget-additive, with agents at different scales: a scan
    that compared raw units across agents would go wrong here."""
    return (
        shared_item_values(instance) is not None
        and len({v.scale for v in instance.agents}) > 1
    )


def test_item_interest_table_matches_the_per_move_scans():
    rng = random.Random(20141)
    seen = Counter()
    for _ in range(1200):
        instance = _random_market(rng)
        start = _random_start(rng, instance)
        seen["mixed_scales"] += _mixed_scales(instance)
        for ref, lib in _PAIRS:
            expected = _run(ref, instance, start)
            assert _run(lib, instance, start) == expected
            if expected[0] == "error":
                seen[expected[1].__name__] += 1
            else:
                seen.update(step.phase for step in expected[2])
                seen["pool"] += sum(step.agent is None for step in expected[2])
                seen["ok"] += 1
    # every path ran: moves, both pre-pass phases, returns to the pool, and
    # each error the mechanisms raise on these markets
    assert min(seen[key] for key in ("move", "reassign", "cleanup", "pool")) >= 200
    assert seen["ok"] >= 1000
    assert seen["mixed_scales"] >= 100
    errors = ("NotUniformBudgetAdditive", "NotIdenticalBudgets", "BadParams")
    assert min(seen[e] for e in errors) > 0


def _scan_facts(instance):
    """`_uniform_market`'s answer, or None when it finds the market not uniform."""
    try:
        return _uniform_market(instance)
    except NotUniformBudgetAdditive:
        return None


def _reference_facts(instance):
    """The same facts from the `Fraction` data, times the market's scale."""
    shared = shared_item_values(instance)
    if shared is None:
        return None
    scale, agents = instance.scale, instance.agents
    budgets = [v.budget * scale for v in agents]
    interest = [
        [i for i, v in enumerate(agents) if v.item_values[j] > 0] for j in range(instance.m)
    ]
    top = [
        next((i for i in wanted if budgets[i] == max(budgets[k] for k in wanted)), None)
        for wanted in interest
    ]
    return budgets, [x * scale for x in shared], interest, top


def test_uniform_market_scan_matches_the_fraction_reference():
    """Same verdict, and in the market's units the same budgets, shared
    values, interested agents and top-budget agents, on the built-in
    markets and on seeded ones until 150 have agents at different scales."""
    rng = random.Random(20141)
    markets, mixed = list(_BUILT_IN_MARKETS), 0
    while mixed < 150:
        markets.append(_random_market(rng))
        mixed += _mixed_scales(markets[-1])
    verdicts = Counter()
    for instance in markets:
        expected = _reference_facts(instance)
        assert _scan_facts(instance) == expected
        verdicts[expected is not None] += 1
    assert min(verdicts.values()) >= 20
