"""Valuation families and their query implementations.

Five concrete families cover the package: additive, single-minded, explicit
super-additive tables, budget-additive, and cardinality-capped additive.
Each valuation is scaled once, when it is built: `scale` is the LCM of the
denominators of its data, its `scaled_*` fields hold that data times
`scale`, and `scaled_value` answers a value query on them, so queries add
and compare only integers.  `value` rebuilds the exact `Fraction` at the
API boundary.  Each family answers in its class for its value table,
relative demand, super-additivity and file fields; their base `_Scaled`
holds the answers most share, and the module functions check their
arguments, then ask the family.  A market's `Instance.scale` is the LCM of
its agents' scales, and `value_table`, the package's one value-table
builder, writes a valuation's integer table at such a scale, over items
(the singleton partition) or over up to 20 blocks.  `_utilities` is the one
block-utility routine: the demand query and correspondence and the verifier
read its rows, and `preferred` applies the tie-break below to one.  Demand
queries enumerate block subsets.  `Partition`, the blocks a table is
indexed by, is defined here with the tables (`market` re-exports it).

Tie-breaking is fully deterministic everywhere: maximum utility (or density),
then fewest elements, then numerically smallest bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import ge, sub as minus
from typing import Union, get_args

from .bits import bits_of, full_mask, items_of, subset_sums, subset_unions
from .errors import BadParams, EmptyPool, SizeLimit

_ZERO = Fraction(0)
_EXACT = frozenset({int, Fraction})
_INT = frozenset({int})
_SEQUENCES = frozenset({tuple, list})  # valuation data, agents, bundles, blocks, prices
_VALUATION_RULE = "the valuation must be one of the five families"
_PARTITION_RULE = "the partition must be a Partition"

# Item sets are bitmasks and partitions hold one mask per block, so a market
# this wide already costs megabytes; every enumeration caps far below it.
MAX_ITEMS = 4096


def _check_kinds(values, kinds, rule: str) -> None:
    """BadParams(rule) unless every value's type is one of `kinds`, such as
    _EXACT (exact rationals) or _INT; a bool is never an int here."""
    if not kinds.issuperset(map(type, values)):  # only a failure builds a set
        odd = set(map(type, values)) - kinds
        raise BadParams(f"{rule}, got {', '.join(sorted(kind.__name__ for kind in odd))}")


def _check_items(m) -> None:
    """BadParams unless m is an int item count in 1..MAX_ITEMS."""
    _check_kinds((m,), _INT, "the item count must be an int")
    if not 1 <= m <= MAX_ITEMS:
        raise BadParams(f"need at least one item and at most {MAX_ITEMS} items, got {m}")


def _freeze(obj, name: str):
    """obj's `name` field, stored back as a tuple when it is a list: no
    caller's list is kept, and equal data compares and hashes equal.  A
    tuple is kept as it is."""
    values = getattr(obj, name)
    if type(values) is list:
        values = tuple(values)
        object.__setattr__(obj, name, values)
    return values


def _scale_data(v, **data) -> None:
    """Set v.scale to the LCM of the data's denominators and each named
    field to its data times v.scale, read off each datum's numerator and
    denominator (an int has both); BadParams on a negative value or on a
    datum that is not an exact rational in a tuple or a list.  Data that is
    all int (a bool is no int here) has scale 1 and is stored as it is,
    with no LCM and no per-datum arithmetic."""
    for values in data.values():
        _check_kinds((values,), _SEQUENCES, "valuation data must be a tuple or a list")
    whole = all(_INT.issuperset(map(type, values)) for values in data.values())
    if not whole:
        for values in data.values():
            _check_kinds(values, _EXACT, "valuation data must be exact rationals")
    scale = 1 if whole else lcm(*{x.denominator for values in data.values() for x in values})
    object.__setattr__(v, "scale", scale)
    for name, values in data.items():
        units = tuple(values if whole else (x.numerator * (scale // x.denominator) for x in values))
        if min(units, default=0) < 0:
            raise BadParams("negative value in valuation data")
        object.__setattr__(v, name, units)


def _check_mask(v, mask, noun: str) -> None:
    """BadParams unless `mask` is an int mask of items v is over."""
    _check_kinds((mask,), _INT, f"a {noun} must be an int item mask")
    count = v.item_count()
    if mask < 0 or count is not None and mask >> count:
        raise BadParams(f"the {noun} holds items the valuation is not over")


class _Scaled:
    """The families' base: the answers a family gives unless it overrides them."""

    def value(self, mask: int) -> Fraction:
        """v(mask), exactly."""
        _check_mask(self, mask, "mask")
        return Fraction(self.scaled_value(mask), self.scale)

    def item_count(self) -> int | None:
        return len(self.item_values)

    def misfit(self, m: int) -> str | None:
        """Why this is not a valuation over m items, or None when it is."""
        count = self.item_count()
        return None if count == m else f"is over {count} items, expected {m}"

    def table_over(self, partition, factor: int) -> list[int]:
        """scaled_value times factor at the union of every block subset."""
        blocks, value = partition.blocks, self.scaled_value
        unions = range(1 << partition.m) if len(blocks) == partition.m else subset_unions(blocks)
        return [value(u) * factor for u in unions]

    def relative_demand(self, pool: int) -> tuple[int, Fraction]:
        """The pool's most valuable item, lowest index on ties: the densest
        set when v(S) <= |S| * max v({j}), as for the additive families."""
        value = self.scaled_value
        item = 1 << max(bits_of(pool), key=lambda j: value(1 << j))  # max keeps the lowest best
        return item, Fraction(value(item), self.scale)

    def superadditive(self) -> bool:
        return True


@dataclass(frozen=True)
class Additive(_Scaled):
    item_values: tuple[int | Fraction, ...]

    def __post_init__(self):
        _scale_data(self, scaled_items=_freeze(self, "item_values"))

    def scaled_value(self, mask: int) -> int:
        items = self.scaled_items
        return sum(items[j] for j in bits_of(mask))

    def table_over(self, partition, factor: int) -> list[int]:
        items = self.scaled_items
        return subset_sums([sum(items[j] for j in bits_of(b)) * factor for b in partition.blocks])

    def to_json(self) -> dict:
        return {"family": "additive", "item_values": [str(x) for x in self.item_values]}


@dataclass(frozen=True)
class SingleMinded(_Scaled):
    """Worth `value_if_served` for any superset of `desired`, zero otherwise."""

    desired: int
    value_if_served: int | Fraction

    def __post_init__(self):
        _check_kinds((self.desired,), _INT, "a desired set must be an int item mask")
        if self.desired <= 0:
            raise BadParams("single-minded desired set must be a nonempty item mask")
        _scale_data(self, scaled_served=(self.value_if_served,))

    def scaled_value(self, mask: int) -> int:
        return self.scaled_served[0] if mask & self.desired == self.desired else 0

    def item_count(self) -> None:
        return None  # it fits any market that holds its desired set

    def misfit(self, m: int) -> str | None:
        return "desires items outside the market" if self.desired >> m else None

    def relative_demand(self, pool: int) -> tuple[int, Fraction]:
        """The desired set if in the pool and worth something, else the pool's first singleton."""
        served = self.scaled_served[0]
        if pool & self.desired == self.desired and served > 0:
            return self.desired, Fraction(served, self.scale * self.desired.bit_count())
        return pool & -pool, _ZERO

    def to_json(self) -> dict:
        return {
            "family": "single_minded",
            "desired": items_of(self.desired),
            "value": str(self.value_if_served),
        }


@dataclass(frozen=True)
class SuperadditiveExplicit(_Scaled):
    """Explicit 2^m table; the constructor proves it is a valid valuation.

    Rejects tables that are not normalized, hold a negative value, or are
    not super-additive on some disjoint pair (so a submodular table fails),
    checking the integer table.  A table that passes is monotone:
    v(S + j) >= v(S) + v({j}) >= v(S).

    Super-additivity is checked on the synergy w = v less its additive
    part, which is zero on singletons and super-additive exactly when v
    is.  It holds iff (1) w[S + j] >= w[S] for every S and item j above
    S's top item, and (2) w[S] + w[T] <= w[S + T] for every S with
    w[S] > 0 and every nonempty T of the items below S's top item and
    outside S.  Both are split checks, so no valid table fails.
    Conversely (1) gives w >= 0, as w climbs from the singleton of a set's
    lowest item to the set, one item up at a time.  Take a split {S, T},
    S holding the union's top item: (2) covers it when w[S] > 0, and w >= 0
    when w[S] = w[T] = 0.  When only w[T] > 0, (2) adds to T the items of
    S below T's top item without lowering w, and (1) then adds the rest,
    so w[S + T] >= w[T] = w[S] + w[T].  (1) is 2^m - 1 comparisons, a
    block of 2^j per item j, and (2) visits a subset of the
    (3^m - 1)/2 - (2^m - 1) splits, so a table costs at most those splits
    plus 2^m, and far fewer when few sets carry synergy.
    """

    table: tuple[int | Fraction, ...]

    def __post_init__(self):  # kind, length and cap before the scaled copy
        _check_kinds((self.table,), _SEQUENCES, "valuation data must be a tuple or a list")
        size = len(self.table)
        m = size.bit_length() - 1
        if size == 0 or size != 1 << m:
            raise BadParams("table length must be a power of two")
        if m > 12:
            raise SizeLimit("explicit tables are validated only up to 12 items")
        _scale_data(self, scaled_table=_freeze(self, "table"))
        table = self.scaled_table
        if table[0] != 0:
            raise BadParams("table is not normalized: v(empty) != 0")
        # w = v less its additive part: zero on singletons, super-additive iff v is
        w = list(map(minus, table, subset_sums([table[1 << j] for j in range(m)])))
        # (1) a block at a time: w[S + j] >= w[S] for every S below item j
        if not all(all(map(ge, w[1 << j : 2 << j], w[: 1 << j])) for j in range(m)):
            raise BadParams("table is not super-additive")
        for s in compress(range(size), w):  # (2) on the sets with synergy
            ws = w[s]
            t = free = ((1 << s.bit_length() - 1) - 1) & ~s  # below S's top item, outside S
            while t:
                if ws + w[t] > w[s | t]:
                    raise BadParams("table is not super-additive")
                t = (t - 1) & free

    def scaled_value(self, mask: int) -> int:
        return self.scaled_table[mask]

    def item_count(self) -> int:
        return len(self.table).bit_length() - 1

    def relative_demand(self, pool: int) -> tuple[int, Fraction]:
        """One walk of the pool keeps each size's most valuable set (smallest
        mask on ties); only those are compared by density, in integers."""
        value = self.scaled_value
        k = pool.bit_count()
        top_values = [-1] * (k + 1)  # below every value: valuations are nonnegative
        top_masks = [0] * (k + 1)
        sub = pool
        while sub:  # masks descend, so >= leaves the smallest mask of a tie
            val = value(sub)
            size = sub.bit_count()
            if val >= top_values[size]:
                top_values[size], top_masks[size] = val, sub
            sub = (sub - 1) & pool
        best = 1
        for size in range(2, k + 1):
            if top_values[size] * best > top_values[best] * size:
                best = size
        return top_masks[best], Fraction(top_values[best], self.scale * best)

    def to_json(self) -> dict:
        return {"family": "superadditive_explicit", "table": [str(x) for x in self.table]}


@dataclass(frozen=True)
class BudgetAdditive(_Scaled):
    """min(budget, additive sum)."""

    budget: int | Fraction
    item_values: tuple[int | Fraction, ...]

    def __post_init__(self):
        _scale_data(self, scaled_budget=(self.budget,), scaled_items=_freeze(self, "item_values"))

    def scaled_value(self, mask: int) -> int:
        items, (budget,) = self.scaled_items, self.scaled_budget
        total = 0
        for j in bits_of(mask):
            total += items[j]
            if total >= budget:
                return budget
        return total

    def table_over(self, partition, factor: int) -> list[int]:
        budget = self.scaled_budget[0] * factor
        return [s if s < budget else budget for s in Additive.table_over(self, partition, factor)]

    def superadditive(self) -> bool:
        """Only when the budget never binds on a split: at most one
        positively valued item, or the budget covers the whole additive mass."""
        positives = [x for x in self.scaled_items if x > 0]
        budget = self.scaled_budget[0]
        return budget == 0 or len(positives) <= 1 or sum(positives) <= budget

    def to_json(self) -> dict:
        return {**Additive.to_json(self), "family": "budget_additive", "budget": str(self.budget)}


@dataclass(frozen=True)
class CappedCardinalityAdditive(_Scaled):
    """Sum of the `cap` largest item values in the set."""

    item_values: tuple[int | Fraction, ...]
    cap: int

    def __post_init__(self):
        _check_kinds((self.cap,), _INT, "a cardinality cap must be an int")
        if self.cap < 0:
            raise BadParams("negative cardinality cap")
        _scale_data(self, scaled_items=_freeze(self, "item_values"))

    def scaled_value(self, mask: int) -> int:
        picked = sorted((self.scaled_items[j] for j in bits_of(mask)), reverse=True)
        return sum(picked[: self.cap])

    def superadditive(self) -> bool:
        """Only when the cap never binds."""
        return self.cap == 0 or sum(x > 0 for x in self.scaled_items) <= self.cap

    def to_json(self) -> dict:
        return {**Additive.to_json(self), "family": "capped_additive", "cap": self.cap}


Valuation = Union[
    Additive, SingleMinded, SuperadditiveExplicit, BudgetAdditive, CappedCardinalityAdditive
]
_FAMILIES = frozenset(get_args(Valuation))


def _check_cover(m: int, sets, noun: str, x0: int = 0) -> None:
    """BadParams unless m is an item count, the sets are a tuple or a list,
    and they and x0 are int masks, pairwise disjoint and covering all m items."""
    _check_items(m)
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


def value_table(v: Valuation, partition, scale: int) -> list[int]:
    """v of the union of the selected blocks times `scale`, for every
    block-subset mask; past 20 blocks, SizeLimit before any entry is built.

    `scale` must be a positive int multiple of v.scale, such as the market's
    `Instance.scale`, so every entry is an integer.  On the singleton
    partition a block-subset mask is its own item set, so the table is v
    over all 2^m item sets.  Raises BadParams unless the valuation is over
    the partition's m items.
    """
    _check_kinds((v,), _FAMILIES, _VALUATION_RULE)
    _check_kinds((partition,), {Partition}, _PARTITION_RULE)
    _check_kinds((scale,), _INT, "a scale must be an int")
    m, k = partition.m, len(partition.blocks)
    if k > 20:
        raise SizeLimit(f"{k} blocks exceeds the 20-block table cap")
    if v.misfit(m):
        raise BadParams(f"the valuation is not over the partition's {m} items")
    if scale < 1 or scale % v.scale:
        raise BadParams(f"scale {scale} is not a multiple of the valuation's {v.scale}")
    return v.table_over(partition, scale // v.scale)


def is_superadditive_family(v: Valuation) -> bool:
    """Structural super-additivity test; exact for every family here."""
    _check_kinds((v,), _FAMILIES, _VALUATION_RULE)
    return v.superadditive()


def _utilities(tables, scale, prices):
    """Yield (row, unit) per integer value table at `scale`: row[S] is block
    set S's utility at the exact block prices times unit, the LCM of `scale`
    and the prices' denominators.  The costs are summed once, on the first
    table, so a table over too many blocks raises before they are."""
    unit = lcm(scale, *(p.denominator for p in prices))
    factor = unit // scale
    costs = None
    for table in tables:
        costs = costs or subset_sums([p.numerator * (unit // p.denominator) for p in prices])
        yield [value * factor - cost for value, cost in zip(table, costs)], unit


def demand_utilities(v: Valuation, partition, prices) -> tuple[list[int], int]:
    """Quasilinear utility of every bundle set at the given block prices.

    Returns (utilities, scale): the utilities are indexed by bundle-set
    mask and given times `scale`, the LCM of v.scale and the prices'
    denominators, so they are integers.  The one-price-per-block count and
    `value_table`'s 20-block cap are checked before the 2^k table is built.
    """
    _check_kinds((v,), _FAMILIES, _VALUATION_RULE)
    _check_kinds((partition,), {Partition}, _PARTITION_RULE)
    _check_kinds((prices,), _SEQUENCES, "prices must be a tuple or a list")
    k = len(partition.blocks)
    if len(prices) != k:
        raise BadParams(f"{len(prices)} prices for {k} blocks")
    _check_kinds(prices, _EXACT, "prices must be exact rationals")
    return next(_utilities((value_table(v, partition, v.scale),), v.scale, prices))


def preferred(utils: list[int]) -> int:
    """The demanded bundle set in a utility table from `demand_utilities`.

    Most utility wins; ties break toward fewer blocks, then the numerically
    smallest mask.
    """
    _check_kinds((utils,), _SEQUENCES, "utilities must be a tuple or a list")
    best = 0
    try:  # the entries are checked only when they fail to compare
        for mask in range(1, len(utils)):
            util = utils[mask]
            if util > utils[best] or (
                util == utils[best] and mask.bit_count() < best.bit_count()
            ):
                best = mask
    except TypeError:
        raise BadParams("utilities must be ints") from None
    return best


def demand_query(v: Valuation, partition, prices) -> int:
    """Utility-maximizing bundle set at the given block prices (see `preferred`)."""
    return preferred(demand_utilities(v, partition, prices)[0])


def relative_demand_query(v: Valuation, pool: int) -> tuple[int, Fraction]:
    """Nonempty S within `pool` maximizing v(S)/|S|, plus that density.

    Ties break toward smaller sets, then the numerically smallest mask; an
    all-zero valuation therefore yields the pool's first singleton.  Raises
    BadParams when the pool holds an item the valuation is not over.
    """
    _check_kinds((v,), _FAMILIES, _VALUATION_RULE)
    _check_mask(v, pool, "pool")
    if pool == 0:
        raise EmptyPool("relative-demand query over an empty pool")
    return v.relative_demand(pool)
