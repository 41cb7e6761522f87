"""The super-additive merge phase run on the verifier, against the group
search it replaced.

`tests/mechanism_reference.py` keeps `superadditive_mccwe` with its own
merge search, `_best_merge`: every agent against every group of bundles,
ranked by gap, then group size, then (agent, group mask).  The library
merges along `verify`'s first violation instead: gap, then agent, then
fewest blocks, then block-set mask.  On seeded markets of both shapes the
mechanisms benchmark sends superadditive (single-minded 12 x 8 and explicit
super-additive 7 x 6), and on small markets mixing additive, single-minded
and explicit tables with values from 0 to 4, the tests require the same
trace and the same outcome from both.  The two orders part rarely (9 of
220,689 seeded markets of up to 5 items and 7 agents, mostly single-minded,
each time at equal welfare), and two such markets are pinned.
"""

import random

import mechanism_reference as reference
from mccwe import (
    Additive,
    Instance,
    MarketError,
    SingleMinded,
    SuperadditiveExplicit,
    social_welfare,
)
from mccwe import mechanisms
from mccwe.equilibria import MCCWE, verify
from mccwe.instances import generate
from mccwe.mechanisms import MechanismTrace


def _run(mechanism, instance):
    trace = MechanismTrace()
    try:
        outcome = mechanism(instance, trace)
    except MarketError as exc:
        return ("error", type(exc), str(exc))
    return ("ok", trace.mechanism, trace.steps, outcome)


def _merges(instance) -> int:
    """How many merges both sides made on the market (they must agree)."""
    expected = _run(reference.superadditive_mccwe, instance)
    assert _run(mechanisms.superadditive_mccwe, instance) == expected
    return 0 if expected[0] == "error" else sum(s.phase == "merge" for s in expected[2])


def _table(rng, m):
    """Values 0 to 4 on every set, closed under super-additivity by
    rising set size."""
    table = [0] + [rng.randint(0, 4) for _ in range(1, 1 << m)]
    for union in sorted(range(1 << m), key=int.bit_count):
        sub = (union - 1) & union
        while sub:
            table[union] = max(table[union], table[sub] + table[union ^ sub])
            sub = (sub - 1) & union
    return SuperadditiveExplicit(tuple(table))


def _mixed_market(rng):
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    agents = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            agents.append(Additive(tuple(rng.randint(0, 4) for _ in range(m))))
        elif kind == 1:
            agents.append(SingleMinded(rng.randint(1, (1 << m) - 1), rng.randint(0, 4)))
        else:
            agents.append(_table(rng, m))
    return Instance(m, tuple(agents))


def test_benchmark_shapes_match_the_group_search():
    for family, m, n in (("random_single_minded", 12, 8), ("random_superadditive", 7, 6)):
        merges = sum(_merges(generate(family, m, n, seed)) for seed in range(2000))
        assert merges >= 20, family


def test_small_mixed_markets_match_the_group_search():
    rng = random.Random(20142)
    merges = sum(_merges(_mixed_market(rng)) for _ in range(4000))
    assert merges >= 10


def _merge_steps(mechanism, instance):
    trace = MechanismTrace()
    outcome = mechanism(instance, trace)
    assert verify(instance, outcome, MCCWE).ok
    steps = [(s.agent, s.items) for s in trace.steps if s.phase == "merge"]
    return steps, outcome.allocation.bundles, social_welfare(instance, outcome.allocation)


def test_pinned_markets_where_the_tie_rules_part():
    """Behaviour change: both markets tie on the gap, 1, and both sides'
    outcomes verify at welfare 8.

    In the first, phase 1 leaves agent 0 with item 0 (worth 0 to it) and
    agent 2 with items 1 and 3 at price 3; agent 0 gains 1 by adding item
    2's block (two blocks with its own), agent 4 by taking agent 2's (one
    block).  The lower agent now merges first; the group search took the
    smaller group.  Only the trace's order changes.

    In the second, agent 4 holds item 0 at price 1, agent 2 item 1 at 2 and
    agent 0 item 3 at 0.  Agent 4 gains 1 either with its own block and
    item 3's, or with the blocks of items 1 and 3.  Blocks in item order
    make the first the smaller block-set mask (0b1001 against 0b1010); the
    group search took the second, whose agents {0, 2} form a smaller mask
    than {0, 4}.  The outcome changes."""
    first = Instance(
        4,
        (
            SingleMinded(0b0101, 4),
            SingleMinded(0b0100, 3),
            Additive((0, 2, 3, 1)),
            SingleMinded(0b1110, 1),
            SingleMinded(0b1010, 4),
        ),
    )
    assert _merge_steps(mechanisms.superadditive_mccwe, first) == (
        [(0, 0b0101), (4, 0b1010)], (0b0101, 0, 0, 0, 0b1010), 8
    )
    assert _merge_steps(reference.superadditive_mccwe, first) == (
        [(4, 0b1010), (0, 0b0101)], (0b0101, 0, 0, 0, 0b1010), 8
    )
    table = (0, 1, 1, 2, 0, 4, 2, 5, 0, 2, 3, 4, 4, 5, 5, 7)
    second = Instance(
        4,
        (
            SingleMinded(0b0100, 3),
            SingleMinded(0b0100, 4),
            SingleMinded(0b0010, 2),
            SingleMinded(0b1110, 1),
            SuperadditiveExplicit(table),
        ),
    )
    assert _merge_steps(mechanisms.superadditive_mccwe, second) == (
        [(4, 0b1001)], (0, 0b0100, 0b0010, 0, 0b1001), 8
    )
    assert _merge_steps(reference.superadditive_mccwe, second) == (
        [(4, 0b1010)], (0, 0b0100, 0, 0, 0b1011), 8
    )
