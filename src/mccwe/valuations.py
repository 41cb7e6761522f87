"""Valuation families and their query implementations.

Five concrete families cover the package: additive, single-minded, explicit
super-additive tables, budget-additive, and cardinality-capped additive.
All of them answer exact value queries on item-set bitmasks; demand and
relative-demand queries are answered by exhaustive enumeration, which is
exact at desk scale.  `value_table` is the package's one value-table
builder, over items (the singleton partition) or over blocks.
`demand_utilities` is the one demand routine: every caller that needs the
utility argmax over block subsets (the demand query and correspondence and
the verifier) reads its table, and `preferred` applies the tie-break below
to it.

Tie-breaking is fully deterministic everywhere: maximum utility (or density),
then fewest elements, then numerically smallest bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import market
from .bits import bits_of
from .errors import BadParams, EmptyPool, SizeLimit

_ZERO = Fraction(0)


def _check_nonnegative(values):
    if any(v < 0 for v in values):
        raise BadParams("negative value in valuation data")


@dataclass(frozen=True)
class Additive:
    item_values: tuple[Fraction, ...]

    def __post_init__(self):
        _check_nonnegative(self.item_values)

    def value(self, mask: int) -> Fraction:
        total = _ZERO
        for j in bits_of(mask):
            total += self.item_values[j]
        return total


@dataclass(frozen=True)
class SingleMinded:
    """Worth `value` for any superset of `desired`, zero otherwise."""

    desired: int
    value_if_served: Fraction

    def __post_init__(self):
        if self.desired == 0:
            raise BadParams("single-minded desired set must be nonempty")
        if self.value_if_served < 0:
            raise BadParams("negative value in valuation data")

    def value(self, mask: int) -> Fraction:
        return self.value_if_served if mask & self.desired == self.desired else _ZERO


@dataclass(frozen=True)
class SuperadditiveExplicit:
    """Explicit 2^m table; the constructor proves it is a valid valuation.

    Rejects tables that are not normalized, hold a negative value, or are
    not super-additive on some disjoint pair (so a submodular table fails).
    A table that passes is monotone: v(S + j) >= v(S) + v({j}) >= v(S).
    """

    table: tuple[Fraction, ...]

    def __post_init__(self):
        size = len(self.table)
        m = size.bit_length() - 1
        if size == 0 or size != 1 << m:
            raise BadParams("table length must be a power of two")
        if m > 12:
            raise SizeLimit("explicit tables are validated only up to 12 items")
        if self.table[0] != 0:
            raise BadParams("table is not normalized: v(empty) != 0")
        _check_nonnegative(self.table)
        for union in range(1, size):
            # each split {S, T} once: S is a nonempty set of the items below
            # union's top item; S = union, T = empty holds since v(empty) = 0
            sub = lower = union ^ 1 << (union.bit_length() - 1)
            while sub:
                if self.table[sub] + self.table[union ^ sub] > self.table[union]:
                    raise BadParams("table is not super-additive")
                sub = (sub - 1) & lower

    def value(self, mask: int) -> Fraction:
        return self.table[mask]


@dataclass(frozen=True)
class BudgetAdditive:
    """min(budget, additive sum)."""

    budget: Fraction
    item_values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.budget < 0:
            raise BadParams("negative budget")
        _check_nonnegative(self.item_values)

    def value(self, mask: int) -> Fraction:
        total = _ZERO
        for j in bits_of(mask):
            total += self.item_values[j]
            if total >= self.budget:
                return self.budget
        return total


@dataclass(frozen=True)
class CappedCardinalityAdditive:
    """Sum of the `cap` largest item values in the set."""

    item_values: tuple[Fraction, ...]
    cap: int

    def __post_init__(self):
        if self.cap < 0:
            raise BadParams("negative cardinality cap")
        _check_nonnegative(self.item_values)

    def value(self, mask: int) -> Fraction:
        picked = sorted((self.item_values[j] for j in bits_of(mask)), reverse=True)
        total = _ZERO
        for v in picked[: self.cap]:
            total += v
        return total


Valuation = Union[
    Additive, SingleMinded, SuperadditiveExplicit, BudgetAdditive, CappedCardinalityAdditive
]


def value_table(v: Valuation, partition: market.Partition) -> list[Fraction]:
    """v of the union of the selected blocks, for every block-subset mask.

    On the singleton partition a block-subset mask is its own item set, so
    the table is v over all 2^m item sets.  Raises BadParams unless the
    valuation is over the partition's m items.
    """
    m = partition.m
    if isinstance(v, SuperadditiveExplicit):
        fits = len(v.table) == 1 << m
    elif isinstance(v, SingleMinded):
        fits = v.desired >> m == 0
    else:
        fits = len(v.item_values) == m
    if not fits:
        raise BadParams(f"the valuation is not over the partition's {m} items")
    blocks = partition.blocks
    size = 1 << len(blocks)
    if isinstance(v, (Additive, BudgetAdditive)):
        block_sums = [sum((v.item_values[j] for j in bits_of(b)), _ZERO) for b in blocks]
        sums = [_ZERO] * size
        for mask in range(1, size):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + block_sums[low.bit_length() - 1]
        if isinstance(v, Additive):
            return sums
        return [min(v.budget, s) for s in sums]
    if len(blocks) == m:
        unions = range(size)
    else:
        unions = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            unions[mask] = unions[mask ^ low] | blocks[low.bit_length() - 1]
    if isinstance(v, SuperadditiveExplicit):
        return [v.table[u] for u in unions]
    if isinstance(v, SingleMinded):
        return [v.value_if_served if u & v.desired == v.desired else _ZERO for u in unions]
    return [v.value(u) for u in unions]


def is_superadditive_family(v: Valuation) -> bool:
    """Structural super-additivity test; exact for every family here.

    Budget-additive data is super-additive only when the budget never binds
    on a split (at most one positively valued item, or the budget covers the
    whole additive mass); capped-additive only when the cap never binds.
    """
    if isinstance(v, (Additive, SingleMinded, SuperadditiveExplicit)):
        return True
    positives = [x for x in v.item_values if x > 0]
    if isinstance(v, BudgetAdditive):
        if v.budget == 0:
            return True
        return len(positives) <= 1 or sum(positives) <= v.budget
    return v.cap == 0 or len(positives) <= v.cap


def demand_utilities(v: Valuation, partition: market.Partition, prices) -> list[Fraction]:
    """Quasilinear utility of every bundle set at the given block prices.

    Indexed by bundle-set mask; the 20-block cap and the one-price-per-block
    count are checked before the 2^k table is built.
    """
    k = len(partition.blocks)
    if k > 20:
        raise SizeLimit(f"{k} blocks exceeds the demand enumeration cap")
    if len(prices) != k:
        raise BadParams(f"{len(prices)} prices for {k} blocks")
    utils = value_table(v, partition)
    costs = [_ZERO] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        cost = prices[low.bit_length() - 1]
        if mask != low:  # a single block costs its price: no Fraction add of zero
            cost += costs[mask ^ low]
        costs[mask] = cost
        utils[mask] -= cost
    return utils


def preferred(utils: list[Fraction]) -> int:
    """The demanded bundle set in a utility table from `demand_utilities`.

    Most utility wins; ties break toward fewer blocks, then the numerically
    smallest mask.
    """
    best = 0
    for mask in range(1, len(utils)):
        util = utils[mask]
        if util > utils[best] or (
            util == utils[best] and mask.bit_count() < best.bit_count()
        ):
            best = mask
    return best


def demand_query(v: Valuation, partition: market.Partition, prices) -> int:
    """Utility-maximizing bundle set at the given block prices (see `preferred`)."""
    return preferred(demand_utilities(v, partition, prices))


def relative_demand_query(v: Valuation, pool: int) -> tuple[int, Fraction]:
    """Nonempty S within `pool` maximizing v(S)/|S|, plus that density.

    Ties break toward smaller sets, then the numerically smallest mask; an
    all-zero valuation therefore yields the pool's first singleton.  Among
    sets of one size the densest is the most valuable, so one walk over the
    pool keeps each size's most valuable set (smallest mask on ties), and
    only those at most 24 winners are compared by density.
    """
    if pool == 0:
        raise EmptyPool("relative-demand query over an empty pool")
    k = pool.bit_count()
    if k > 24:
        raise SizeLimit("relative-demand enumeration capped at 24 items")
    top_values = [-1] * (k + 1)  # below every value: valuations are nonnegative
    top_masks = [0] * (k + 1)
    sub = pool
    while sub:  # masks descend, so >= leaves the smallest mask of a tie
        val = v.value(sub)
        size = sub.bit_count()
        if val >= top_values[size]:
            top_values[size], top_masks[size] = val, sub
        sub = (sub - 1) & pool
    best = 1
    for size in range(2, k + 1):
        if top_values[size] * best > top_values[best] * size:
            best = size
    return top_masks[best], top_values[best] / best


@dataclass(frozen=True)
class ClassifyReport:
    monotone: bool
    normalized: bool
    superadditive: bool
    subadditive: bool
    uniform_budget_additive: bool
    identical_budgets: bool


def classify(instance: market.Instance) -> ClassifyReport:
    """Structural flags for an instance, decided by exhaustive enumeration.

    The super/sub-additive checks walk all disjoint set pairs and need
    m <= 20; uniformity and budget equality are field inspections.
    """
    m = instance.m
    if m > 20:
        raise SizeLimit("classification enumerations capped at 20 items")
    size = 1 << m
    items = market.singleton_partition(m)
    monotone = normalized = True
    superadditive = subadditive = True
    for v in instance.agents:
        table = value_table(v, items)
        if table[0] != 0:
            normalized = False
        for mask in range(size):
            for j in range(m):
                if not mask >> j & 1 and table[mask] > table[mask | 1 << j]:
                    monotone = False
        for union in range(size):
            sub = union
            while sub:
                split = table[sub] + table[union ^ sub]
                if split > table[union]:
                    superadditive = False
                if split < table[union]:
                    subadditive = False
                sub = (sub - 1) & union

    all_ba = all(isinstance(v, BudgetAdditive) for v in instance.agents)
    uniform = shared_item_values(instance) is not None
    identical = all_ba and len({v.budget for v in instance.agents}) <= 1
    return ClassifyReport(monotone, normalized, superadditive, subadditive, uniform, identical)


def shared_item_values(instance: market.Instance) -> list[Fraction] | None:
    """The per-item values every agent shares, when all agents are
    budget-additive and no two of them value an item differently.

    Items valued by nobody get 0.  None when the instance is not uniform
    budget-additive.
    """
    if not all(isinstance(v, BudgetAdditive) for v in instance.agents):
        return None
    values = []
    for j in range(instance.m):
        seen = {v.item_values[j] for v in instance.agents if v.item_values[j] > 0}
        if len(seen) > 1:
            return None
        values.append(seen.pop() if seen else _ZERO)
    return values
