"""Demand correspondences over reduced markets, and one verifier for three modes.

Every outcome is read as priced blocks (`market.priced_blocks`): item
prices price the singleton partition, bundle prices the allocation's
induced partition.  One check then serves all three modes:

* ``we``    — item prices; buyer stability plus a zero price on every
  unsold block (each unallocated item).
* ``cwe``   — bundle prices; buyer stability only.
* ``mccwe`` — bundle prices; cwe plus market clearance: the unallocated
  block, if any, is priced at zero.

An agent with an empty bundle is buyer-stable only when no bundle set has
positive utility (the empty set must itself be demanded).

Demand comes from the one block-utility routine, `valuations._utilities`:
the correspondence and every buyer check read its integer utility rows,
values and prices scaled into one unit; a reported gap is a row's
difference divided back by that unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParams
from .market import Instance, Outcome, Partition, UNALLOCATED, check_fits, priced_blocks
from .valuations import Valuation, _utilities, demand_utilities, preferred, value_table

WE = "we"
CWE = "cwe"
MCCWE = "mccwe"
MODES = (WE, CWE, MCCWE)


@dataclass(frozen=True)
class Violation:
    kind: str  # "buyer" or "seller"
    agent: int | None = None
    better_bundle: int | None = None  # bundle-set mask the agent prefers
    gap: Fraction | None = None
    block: int | None = None  # offending unallocated block (item mask)
    price: Fraction | None = None


@dataclass(frozen=True)
class VerifyReport:
    mode: str
    ok: bool
    violations: tuple[Violation, ...]


def demand_correspondence(v: Valuation, partition: Partition, prices) -> frozenset[int]:
    """Every utility-maximizing bundle set (the full argmax, empty set included)."""
    utils, _scale = demand_utilities(v, partition, prices)
    best = max(utils)
    return frozenset(mask for mask, u in enumerate(utils) if u == best)


def verify(instance: Instance, outcome: Outcome, mode: str) -> VerifyReport:
    """Check buyer stability (all modes) and market clearance (we/mccwe)."""
    if mode not in MODES:
        raise BadParams(f"unknown verification mode {mode!r}")
    check_fits(instance, outcome, Outcome)
    if mode == WE and outcome.item_prices is None:
        raise BadParams("walrasian verification needs item prices")
    if mode != WE and outcome.prices is None:
        raise BadParams("bundle verification needs bundle prices")
    partition, owners, prices = priced_blocks(outcome)
    owned = [0] * instance.n  # each agent's bundle set
    seller_violations: list[Violation] = []
    for idx, (block, owner, price) in enumerate(zip(partition.blocks, owners, prices)):
        if owner != UNALLOCATED:
            owned[owner] |= 1 << idx
        elif mode != CWE and price != 0:
            seller_violations.append(Violation("seller", block=block, price=price))

    buyer_violations: list[Violation] = []
    # One table at a time, not the memo's n tables that would outlive the call
    tables = (value_table(v, partition, instance.scale) for v in instance.agents)
    for i, (utils, unit) in enumerate(_utilities(tables, instance.scale, prices)):
        best_mask = preferred(utils)
        gap = utils[best_mask] - utils[owned[i]]
        if gap > 0:
            buyer_violations.append(
                Violation("buyer", agent=i, better_bundle=best_mask, gap=Fraction(gap, unit))
            )

    buyer_violations.sort(key=lambda viol: (-viol.gap, viol.agent))
    seller_violations.sort(key=lambda viol: (-viol.price, viol.block))
    violations = tuple(buyer_violations + seller_violations)
    return VerifyReport(mode, not violations, violations)
