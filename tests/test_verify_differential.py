"""The one priced-block verifier against the two-view one it replaced, and
the `verify` verb's bytes on failing outcomes.

`tests/verify_reference.py` keeps the old verifier.  On seeded markets of
every valuation family, with outcomes in both price forms, priced to pass
or to fail, checked in every mode, the tests require equal reports and
equal errors.  The CLI pins hold the text and `--json` reports, exit codes
and error lines of a fixed set of failing outcomes, recorded before the
rewrite: the benchmark's digests only ever see passing verifies.
"""

import hashlib
import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr
from fractions import Fraction

import pytest

import verify_reference as reference
from mccwe import (
    Additive,
    BudgetAdditive,
    CappedCardinalityAdditive,
    Instance,
    MarketError,
    Outcome,
    SingleMinded,
    allocation,
    full_surplus_outcome,
)
from mccwe.cli import main
from mccwe.equilibria import MODES, verify
from mccwe.instances import FAMILIES, built_in, generate, write_instance, write_outcome

F = Fraction

_BUILT_IN_MARKETS = (
    built_in("fig1a"),
    built_in("fig1b"),
    built_in("revenue_example"),
    built_in("bundling_necessity", m=4),
    built_in("nonuniform_identical_budget"),
    built_in("partition_reduction", weights=[F(3, 2), 1, 2, F(1, 2)]),
)


def _price(rng):
    return rng.choice((0, 0, rng.randint(0, 9), F(rng.randint(0, 9), rng.randint(2, 4))))


def _random_market(rng):
    """One of the three seeded families, or additive and capped agents with
    fractional values."""
    m, n = rng.randint(1, 6), rng.randint(1, 4)
    pick = rng.randrange(5)
    if pick < 3:
        return generate(FAMILIES[pick], m, n, rng.getrandbits(32))
    agents = []
    for _ in range(n):
        values = tuple(_price(rng) for _ in range(m))
        if pick == 3:
            agents.append(Additive(values))
        else:
            agents.append(CappedCardinalityAdditive(values, rng.randint(0, m)))
    return Instance(m, tuple(agents))


def _random_outcome(rng, instance):
    """A random allocation (some items unsold), priced by items, by bundles
    at random, or at full surplus; x0 priced now and then.  One time in four
    each item goes to its top single-item bidder at that value, unsold at
    zero when nobody values it, which often passes `we`."""
    m, n = instance.m, instance.n
    form = rng.randrange(4)
    if form == 3:
        tops = [max((v.value(1 << j), -i) for i, v in enumerate(instance.agents)) for j in range(m)]
        owners = [-i if value else -1 for value, i in tops]
    else:
        owners = [rng.randint(-1, n - 1) for _ in range(m)]
    x = allocation(m, [sum(1 << j for j, o in enumerate(owners) if o == i) for i in range(n)])
    if form == 3:
        return Outcome(x, item_prices=tuple(value for value, _i in tops))
    if form == 0:
        return Outcome(x, item_prices=tuple(_price(rng) for _ in range(m)))
    if form == 1:
        prices = tuple(_price(rng) if b else 0 for b in x.bundles)
        return Outcome(x, prices=prices, x0_price=_price(rng) if x.x0 else 0)
    return full_surplus_outcome(instance, x)


def _run(check, instance, outcome, mode):
    try:
        return ("ok", check(instance, outcome, mode))
    except MarketError as exc:
        return ("error", type(exc), str(exc))


def test_one_block_loop_matches_the_two_views_it_replaced():
    rng = random.Random(1997)
    markets = list(_BUILT_IN_MARKETS) + [_random_market(rng) for _ in range(300)]
    seen = Counter()
    for instance in markets:
        for _ in range(4):
            outcome = _random_outcome(rng, instance)
            for mode in MODES + ("walras",):
                expected = _run(reference.verify, instance, outcome, mode)
                assert _run(verify, instance, outcome, mode) == expected
                if expected[0] == "error":
                    seen[expected[1].__name__] += 1
                else:
                    report = expected[1]
                    seen[(mode, report.ok)] += 1
                    seen.update(viol.kind for viol in report.violations)
    # every mode passed and failed, both violation kinds showed, and a
    # wrong price form or mode was rejected
    assert min(seen[(mode, ok)] for mode in MODES for ok in (True, False)) >= 50
    assert min(seen["buyer"], seen["seller"]) >= 100
    assert seen["BadParams"] >= 300


def test_both_verifiers_reject_an_outcome_of_another_market():
    inst = built_in("fig1a")
    other = Outcome(allocation(3, [0b001, 0b010, 0b100]), prices=(1, 1, 1))
    for mode in MODES:
        expected = _run(reference.verify, inst, other, mode)
        assert expected[0] == "error"
        assert _run(verify, inst, other, mode) == expected


def _failing_cases():
    """(name, market, outcome): each fails `verify` in every mode, by a
    buyer or seller violation or by its price form."""
    duel = built_in("revenue_example")
    fig1a, fig1b = built_in("fig1a"), built_in("fig1b")
    small = Instance(2, (Additive((F(1, 2), F(1, 4))), SingleMinded(0b10, F(1, 3))))
    capped = Instance(
        3, (CappedCardinalityAdditive((2, 3, F(5, 2)), 1), BudgetAdditive(3, (2, 2, 2)))
    )
    opt_a = allocation(4, [0b0011, 0b1000, 0, 0b0100, 0])
    part_a = allocation(4, [0b0011, 0b0100, 0, 0, 0])
    fig1b_x = allocation(7, [0b0010101, 0b0101010, 0, 0b1000000])
    small_x = allocation(2, [0, 0b10], x0=0b01)
    cases = [
        ("duel_overpriced", duel, Outcome(allocation(3, [0b001, 0b110]), prices=(1, 103))),
        ("duel_items_unsold", duel, Outcome(allocation(3, [0b001, 0b010]), item_prices=(3, 1, 2))),
        ("fig1a_zero_prices", fig1a, Outcome(opt_a, prices=(0, 0, 0, 0, 0))),
        ("fig1a_priced_x0", fig1a, Outcome(part_a, prices=(5, 2, 0, 0, 0), x0_price=F(7, 3))),
        ("fig1b_items", fig1b, Outcome(fig1b_x, item_prices=(1,) * 7)),
        ("small_fractions", small, Outcome(small_x, prices=(0, F(1, 3)), x0_price=F(1, 3))),
        ("small_items", small, Outcome(small_x, item_prices=(F(1, 5), F(1, 2)))),
        ("capped_empty_better", capped, Outcome(allocation(3, [0b111, 0]), prices=(9, 0))),
    ]
    rng = random.Random(2014)
    while len(cases) < 14:
        instance = _random_market(rng)
        outcome = _random_outcome(rng, instance)
        fitting = [mode for mode in MODES if (outcome.item_prices is None) != (mode == "we")]
        if not any(verify(instance, outcome, mode).ok for mode in fitting):
            cases.append((f"seeded_{len(cases)}", instance, outcome))
    return cases


def _verb_bytes(tmp_path, instance, outcome):
    """Exit code, stdout and stderr of `verify` in every mode, text and --json."""
    inst_path, out_path = tmp_path / "i.json", tmp_path / "o.json"
    inst_path.write_text(write_instance(instance))
    out_path.write_text(write_outcome(outcome))
    runs = []
    for mode in MODES:
        for extra in ((), ("--json",)):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stderr(err):
                argv = ["verify", "-i", str(inst_path), "-a", str(out_path), "--mode", mode]
                code = main([*argv, *extra], out=out)
            runs.append([code, out.getvalue(), err.getvalue()])
    return runs


# sha256 of each case's six runs (see `_verb_bytes`) as JSON, recorded
# with the two-view verifier
_PINNED = {
    "duel_overpriced": "949fe3a9a5e144b1ec59576640d76db41821f732f9f3d5c2fa3e8564fc621085",
    "duel_items_unsold": "c326ddd52f0d82f285e8b0c09b65ccbf3d09c6bfbeec3df92b5ff413fea21e07",
    "fig1a_zero_prices": "a2bfdb3df41c638bb6e0638c66d71bfd7353b13d7b179ebea152d568535d7164",
    "fig1a_priced_x0": "c73c0ccd58ae5bd2917a01ab1675dca465bc0fb882d3c06f80c1c1c3463d481d",
    "fig1b_items": "83d99055866e5700cb9f5fd464667da0f965a42fd363782805ebefe060c0ca00",
    "small_fractions": "a240d87e13e9166d01edcfc0068384321d60f7ec8de59e99c79b52389b5297dc",
    "small_items": "0d59e7df3a1f7285cdb03dbdc548b50f717f69171c8748b34db93b2e88b1f4b2",
    "capped_empty_better": "4a0ddf0f130c8f3f5c8d0e2e9f25969a387a9897a7f34bac23ecac2f5045c0f0",
    "seeded_8": "12c0034cd203fa1997e3bc4bf120e513e181abfaecfcd59524bf8a3bec348919",
    "seeded_9": "f5bb239e96b5dda43bc984024c72b359dbd65b984aec09e823b0a5ae5e0d2f92",
    "seeded_10": "00d35e4cd887b63a869688af897b7f20a54e5fef787c286d5af4419552948f39",
    "seeded_11": "8fdda058edc282ea0d1428d3bc50cdb9fa2369ff92433c3dc10fe097d07fc3cf",
    "seeded_12": "2c5a09acfbdf7d2717d329a44d1e495e62a3bfe6889a431515b45cb661f017e2",
    "seeded_13": "4bef6e91e14b9276abf76252c8453598725ea81b2076a1fa09d1445161e2330f",
}


@pytest.mark.parametrize(
    "name, instance, outcome", [pytest.param(*case, id=case[0]) for case in _failing_cases()]
)
def test_verify_verb_bytes_on_failing_outcomes(tmp_path, name, instance, outcome):
    runs = _verb_bytes(tmp_path, instance, outcome)
    assert all(code in (1, 2) for code, _out, _err in runs)
    digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()
    assert digest == _PINNED[name]
