"""Core market data model: instances, allocations, partitions, outcomes.

Items and agents are 0-indexed dense integers; item sets are int bitmasks.
An allocation always carries the unallocated pool x0 as a first-class set,
and the induced partition keeps x0 (when nonempty) as a single block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .bits import bits_of, full_mask
from .errors import BadParams
from .valuations import _EXACT, _FAMILIES, _INT, _SEQUENCES, _check_kinds, _misfit

UNALLOCATED = -1

# Item sets are bitmasks and partitions hold one mask per block, so a market
# this wide already costs megabytes; every enumeration caps far below it.
MAX_ITEMS = 4096

_ZERO = Fraction(0)


@dataclass(frozen=True, eq=True)
class Instance:
    """A market: m items and one valuation per agent.

    Every agent is one of the five valuation families, all normalized and
    monotone.  `scale`, the LCM of the agents' scales, is the market's one
    integer unit: every agent's values times `scale` are integers.
    """

    m: int
    agents: tuple
    name: str = ""
    metadata: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise BadParams("name must be a string")
        if self.metadata is not None and not isinstance(self.metadata, dict):
            raise BadParams("metadata must be an object")
        try:  # JSON must write and read the metadata back as it is
            ok = self.metadata is None or json.loads(json.dumps(self.metadata)) == self.metadata
        except (TypeError, ValueError, RecursionError):
            ok = False
        if not ok:
            raise BadParams("metadata must be JSON, with string keys")
        _check_kinds((self.m,), _INT, "the item count must be an int")
        if self.m < 1:
            raise BadParams("need at least one item")
        if self.m > MAX_ITEMS:
            raise BadParams(f"at most {MAX_ITEMS} items")
        _check_kinds((self.agents,), _SEQUENCES, "agents must be a tuple or a list")
        if not self.agents:
            raise BadParams("need at least one agent")
        _check_kinds(self.agents, _FAMILIES, "agents must be valuations of the five families")
        for idx, v in enumerate(self.agents):
            misfit = _misfit(v, self.m)
            if misfit:
                raise BadParams(f"agent {idx} {misfit}")
        object.__setattr__(self, "scale", lcm(*(v.scale for v in self.agents)))

    @property
    def n(self) -> int:
        return len(self.agents)

    def scaled_value(self, agent: int, items: int) -> int:
        """The agent's value for `items` times the market's scale."""
        v = self.agents[agent]
        return v.scaled_value(items) * (self.scale // v.scale)


def _check_cover(m: int, sets, noun: str, x0: int = 0) -> None:
    """BadParams unless m is an int, the sets are a tuple or a list, and
    they and x0 are int masks, pairwise disjoint and covering all m items."""
    _check_kinds((m,), _INT, "the item count must be an int")
    _check_kinds((sets,), _SEQUENCES, f"{noun} must be a tuple or a list")
    sets = (x0, *sets)
    _check_kinds(sets, _INT, f"{noun} must be int item masks")
    union = total = 0
    for s in sets:
        union |= s
        total += s.bit_count()
    if union != full_mask(m) or total != m:
        raise BadParams(f"{noun} must be pairwise disjoint and cover all items")


@dataclass(frozen=True)
class Allocation:
    """Disjoint item sets (x0, x_1, ..., x_n) covering all items."""

    m: int
    x0: int
    bundles: tuple[int, ...]

    def __post_init__(self):
        _check_cover(self.m, self.bundles, "bundles", self.x0)

    @property
    def n(self) -> int:
        return len(self.bundles)


def allocation(m: int, bundles, x0: int | None = None) -> Allocation:
    bundles = tuple(bundles)
    if x0 is None:
        _check_kinds(bundles, _INT, "bundles must be int item masks")
        covered = 0
        for b in bundles:
            covered |= b
        x0 = full_mask(m) & ~covered
    return Allocation(m, x0, bundles)


@dataclass(frozen=True)
class Partition:
    """Nonempty disjoint blocks covering all items, ordered by lowest item."""

    m: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        _check_cover(self.m, self.blocks, "blocks")
        if any(b == 0 for b in self.blocks):
            raise BadParams("partition blocks must be nonempty")
        ordered = tuple(sorted(self.blocks, key=lambda b: b & -b))
        if ordered != self.blocks:
            object.__setattr__(self, "blocks", ordered)


def singleton_partition(m: int) -> Partition:
    _check_kinds((m,), _INT, "the item count must be an int")
    return Partition(m, tuple(1 << j for j in range(m)))


def induced_partition(x: Allocation) -> tuple[Partition, tuple[int, ...]]:
    """The partition an allocation induces, plus each block's owner.

    Owners align with the partition's canonical block order; the x0 block
    (present only when nonempty) is owned by UNALLOCATED.
    """
    pairs = [(b, i) for i, b in enumerate(x.bundles) if b]
    if x.x0:
        pairs.append((x.x0, UNALLOCATED))
    pairs.sort(key=lambda p: p[0] & -p[0])
    partition = Partition(x.m, tuple(b for b, _ in pairs))
    owners = tuple(owner for _, owner in pairs)
    return partition, owners


@dataclass(frozen=True)
class Outcome:
    """An allocation plus prices.

    Bundle-priced outcomes carry one price per agent bundle plus a price
    for the unallocated block x0; an empty bundle or an empty x0 is priced
    at zero.  Item-priced outcomes carry one price per item and no x0 price;
    they are the shape the Walrasian verifier needs.  Exactly one form is
    present, and every price is an exact rational (an int or a Fraction).
    """

    allocation: Allocation
    prices: tuple[int | Fraction, ...] | None = None
    x0_price: int | Fraction = _ZERO
    item_prices: tuple[int | Fraction, ...] | None = None

    def __post_init__(self):
        _check_kinds((self.allocation,), {Allocation}, _KIND_RULES[Allocation])
        if (self.prices is None) == (self.item_prices is None):
            raise BadParams("outcome needs exactly one of bundle or item prices")
        x, bundle_priced = self.allocation, self.prices is not None
        listed = self.prices if bundle_priced else self.item_prices
        _check_kinds((listed,), _SEQUENCES, "prices must be a tuple or a list")
        if bundle_priced and len(self.prices) != x.n:
            raise BadParams("one bundle price per agent required")
        if not bundle_priced and len(self.item_prices) != x.m:
            raise BadParams("one item price per item required")
        prices = (self.x0_price, *listed)
        _check_kinds(prices, _EXACT, "prices must be exact rationals")
        if any(p < 0 for p in prices):
            raise BadParams("prices must be nonnegative")
        if not bundle_priced and self.x0_price != 0:
            raise BadParams("item-priced outcomes carry no x0 price")
        if bundle_priced and any(b == 0 and p != 0 for b, p in zip((x.x0, *x.bundles), prices)):
            raise BadParams("empty bundles and an empty x0 cannot carry a price")


_KIND_RULES = {
    Allocation: "the allocation must be an Allocation",
    Outcome: "the outcome must be an Outcome",
    Partition: "the partition must be a Partition",
}


def check_fits(instance: Instance, obj, kind: type) -> None:
    """BadParams unless `instance` is an Instance and `obj` is a `kind` (an
    Allocation, an Outcome or a Partition) over its m items and, but for a
    Partition, its n agents."""
    _check_kinds((instance,), {Instance}, "the instance must be an Instance")
    _check_kinds((obj,), {kind}, _KIND_RULES[kind])
    x = obj.allocation if kind is Outcome else obj
    n = None if kind is Partition else x.n
    if x.m != instance.m or n not in (None, instance.n):
        agents = "" if n is None else f" and {n} agents"
        raise BadParams(
            f"got {x.m} items{agents}; "
            f"the instance has {instance.m} items and {instance.n} agents"
        )


def social_welfare(instance: Instance, x: Allocation) -> Fraction:
    check_fits(instance, x, Allocation)
    total = sum(instance.scaled_value(i, bundle) for i, bundle in enumerate(x.bundles))
    return Fraction(total, instance.scale)


def revenue(instance: Instance, outcome: Outcome) -> Fraction:
    """Sum of prices over bundles allocated to agents (x0 excluded)."""
    check_fits(instance, outcome, Outcome)
    x = outcome.allocation
    total = _ZERO
    if outcome.prices is not None:
        for bundle, price in zip(x.bundles, outcome.prices):
            if bundle:
                total += price
    else:
        for bundle in x.bundles:
            for j in bits_of(bundle):
                total += outcome.item_prices[j]
    return total


def full_surplus_outcome(instance: Instance, x: Allocation) -> Outcome:
    """Price every bundle at its owner's value (and x0 at zero)."""
    check_fits(instance, x, Allocation)
    prices = tuple(v.value(b) for v, b in zip(instance.agents, x.bundles))
    return Outcome(x, prices=prices)
