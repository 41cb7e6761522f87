"""The verifier before outcomes were read as priced blocks, kept as a
reference.

This `verify` builds its view of the outcome twice: for ``we`` from the
item prices over the singleton partition, checking unsold items one by
one, and for ``cwe`` and ``mccwe`` from the bundle prices over the induced
partition, checking the unsold block as a whole.  The tests require the
same reports and the same errors from this and from `mccwe.equilibria`.
"""

from __future__ import annotations

from fractions import Fraction

from mccwe.bits import bits_of
from mccwe.equilibria import MCCWE, MODES, WE, Violation, VerifyReport
from mccwe.errors import BadParams
from mccwe.market import (
    Outcome,
    UNALLOCATED,
    check_fits,
    induced_partition,
    singleton_partition,
)
from mccwe.valuations import demand_utilities, preferred


def verify(instance, outcome, mode) -> VerifyReport:
    if mode not in MODES:
        raise BadParams(f"unknown verification mode {mode!r}")
    check_fits(instance, outcome, Outcome)
    x = outcome.allocation
    buyer_violations = []
    seller_violations = []

    if mode == WE:
        if outcome.item_prices is None:
            raise BadParams("walrasian verification needs item prices")
        partition = singleton_partition(instance.m)
        prices = list(outcome.item_prices)
        owned = list(x.bundles)  # singleton blocks align with items
        for j in bits_of(x.x0):
            if prices[j] != 0:
                seller_violations.append(Violation("seller", block=1 << j, price=prices[j]))
    else:
        if outcome.prices is None:
            raise BadParams("bundle verification needs bundle prices")
        partition, owners = induced_partition(x)
        prices = [outcome.x0_price if o == UNALLOCATED else outcome.prices[o] for o in owners]
        slot = {o: idx for idx, o in enumerate(owners)}
        owned = [1 << slot[i] if i in slot else 0 for i in range(instance.n)]
        if mode == MCCWE and x.x0 and outcome.x0_price != 0:
            seller_violations.append(Violation("seller", block=x.x0, price=outcome.x0_price))

    for i, v in enumerate(instance.agents):
        utils, scale = demand_utilities(v, partition, prices)
        best_mask = preferred(utils)
        gap = utils[best_mask] - utils[owned[i]]
        if gap > 0:
            buyer_violations.append(
                Violation("buyer", agent=i, better_bundle=best_mask, gap=Fraction(gap, scale))
            )

    buyer_violations.sort(key=lambda viol: (-viol.gap, viol.agent))
    seller_violations.sort(key=lambda viol: (-viol.price, viol.block))
    violations = tuple(buyer_violations + seller_violations)
    return VerifyReport(mode, not violations, violations)

