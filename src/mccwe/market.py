"""Core market data model: instances, allocations, partitions, outcomes.

Items and agents are 0-indexed dense integers; item sets are int bitmasks.
An allocation always carries the unallocated pool x0 as a first-class set,
and the induced partition keeps x0 (when nonempty) as a single block.
`Partition` itself is defined with the value tables it indexes, in
`valuations`, so that the table builders can check their arguments' kinds.
What a market computes once per partition lives here, next to the memos
that keep it: the block tables, their dominance scans and the welfare
optimum by winner determination (`_optimum`), which the oracles return
and the configuration LP starts from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .bits import bits_of, full_mask, subset_sums, subset_unions
from .errors import BadParams, CertificateError
from .valuations import (
    _EXACT,
    _FAMILIES,
    _INT,
    _PARTITION_RULE,
    _SEQUENCES,
    Partition,
    _check_cover,
    _check_items,
    _check_kinds,
    _freeze,
    value_table,
)

UNALLOCATED = -1

_ZERO = Fraction(0)

_MEMOS = ("block_tables", "optima", "config_lps")


@dataclass(frozen=True, eq=True)
class Instance:
    """A market: m items and one valuation per agent.

    Every agent is one of the five valuation families, all normalized and
    monotone.  `scale`, the LCM of the agents' scales, is the market's one
    integer unit: every agent's values times `scale` are integers.
    Three memos, each keyed by partition blocks, hold what is computed once
    per partition: `block_tables` the agents' value tables and their
    `_undominated_masks` (see `block_tables`), `optima` the welfare optima
    (`_optimum`; `oracle.optimal_integral`'s single-minded winner-set
    search fills the singleton entry with the same answer) and
    `config_lps` `configlp.fractional_opt`'s solutions.  They start empty,
    and a market never changes (its agents are kept as a tuple, a list
    copied, and its metadata as a JSON copy), so each entry holds while the
    instance lives.
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
        try:  # JSON, with no NaN or Infinity, must write and read it back as it is
            copy = json.loads(json.dumps(self.metadata, allow_nan=False))
            ok = copy == self.metadata
        except (TypeError, ValueError, RecursionError):
            ok = False
        if not ok:
            raise BadParams("metadata must be JSON, with string keys")
        object.__setattr__(self, "metadata", copy)  # the caller's dict is not kept
        _check_items(self.m)
        _check_kinds((self.agents,), _SEQUENCES, "agents must be a tuple or a list")
        if not _freeze(self, "agents"):
            raise BadParams("need at least one agent")
        _check_kinds(self.agents, _FAMILIES, "agents must be valuations of the five families")
        for idx, v in enumerate(self.agents):
            misfit = v.misfit(self.m)
            if misfit:
                raise BadParams(f"agent {idx} {misfit}")
        object.__setattr__(self, "scale", lcm(*(v.scale for v in self.agents)))
        for memo in _MEMOS:
            object.__setattr__(self, memo, {})

    def __getstate__(self):
        # A pickled or deep-copied market starts its own, empty memos: the
        # LP solutions hold read-only mappings, which do not pickle.
        return {**self.__dict__, **{memo: {} for memo in _MEMOS}}

    @property
    def n(self) -> int:
        return len(self.agents)

    def scaled_value(self, agent: int, items: int) -> int:
        """The agent's value for `items` times the market's scale."""
        v = self.agents[agent]
        return v.scaled_value(items) * (self.scale // v.scale)


def block_tables(instance: Instance, partition: Partition) -> tuple[tuple[int, ...], ...]:
    """Every agent's `value_table` over the partition's block subsets at the
    market's scale, as immutable tuples.  They are built on the first call
    per partition and kept in `instance.block_tables`; later calls return
    the same object.  When the singleton partition's tables are kept, a
    coarser partition's are read off them at the block subsets' unions
    (`subset_unions`), the same integers, as a table's entry for S is
    v(union of S) at the market's scale.  The memo entry also holds one
    slot per agent for `_undominated_masks`."""
    check_fits(instance, partition, Partition)
    memo = instance.block_tables
    entry = memo.get(partition.blocks)
    if entry is None:
        singles = memo.get(tuple(1 << j for j in range(instance.m)))
        if singles is not None:
            pick = itemgetter(*subset_unions(partition.blocks))
            tables = tuple(map(pick, singles[0]))
        else:
            scale = instance.scale
            tables = tuple(tuple(value_table(v, partition, scale)) for v in instance.agents)
        entry = memo[partition.blocks] = tables, [None] * instance.n
    return entry[0]


def _undominated_masks(instance, partition, agent) -> list[int]:
    """`_undominated` over the agent's table for the partition, which
    `block_tables` has built, scanned on the first call and kept in the
    tables' memo entry: winner determination's fold and the configuration
    LP's columns read the same list."""
    tables, masks = instance.block_tables[partition.blocks]
    kept = masks[agent]
    if kept is None:
        kept = masks[agent] = _undominated(tables[agent])
    return kept


def _undominated(table: tuple[int, ...]) -> list[int]:
    """The nonempty bundle-set masks S with table[S] > table[S minus any one
    block], in increasing order; table[S] > 0 follows, as table[0] is 0.
    The one dominance filter: the configuration LP keeps only these columns,
    and winner determination folds only these bundles for its middle agents."""
    kept = []
    for mask in range(1, len(table)):
        value = table[mask]
        rest = mask
        while rest:
            low = rest & -rest
            if table[mask ^ low] >= value:
                break
            rest ^= low
        else:
            kept.append(mask)
    return kept


def _optimum(instance, partition):
    """(sets, welfare): the welfare optimum over the partition's blocks as
    one block mask per agent, and its welfare in the market's units, charging
    no budget.  A lone agent takes every block at v(full), with no table.
    The first call per partition computes it, over the instance's
    `block_tables` and the middle agents' `_undominated_masks`, and later
    calls return the same object (`Instance.optima`)."""
    memo = instance.optima
    found = memo.get(partition.blocks)
    if found is None:
        k = len(partition.blocks)
        if instance.n == 1:
            found = ((1 << k) - 1,), instance.scaled_value(0, (1 << instance.m) - 1)
        else:
            tables = block_tables(instance, partition)
            middle = [_undominated_masks(instance, partition, i) for i in range(1, instance.n - 1)]
            found = _winner_determination(k, tables, middle)
        memo[partition.blocks] = found
    return found


def _winner_determination(k, tables, middle):
    """Welfare-maximal assignment of all k units to the two or more agents
    behind the integer value `tables`, all at one scale; `middle` holds the
    `_undominated` masks of agents 1..n-2.

    Returns (sets, welfare): one unit mask per agent, and the welfare as the
    sum of the chosen table entries.  The DP runs on integer keys
    t_i(T)*n^k - i*W(T), where t_i is agent i's table and W(T) is the sum of
    n^(k-1-j) over units j in T.  A key's welfare part outweighs every digit
    part, and the digit part is the owner vector read in base n, so the one
    maximal key is the lexicographically smallest optimal owner vector.

    Agents 1..n-2 are folded over their undominated bundles alone.  When
    agent i >= 1 holds a bundle with a unit j that adds nothing to it,
    moving j to agent 0 keeps agent i's value, cannot lower agent 0's (the
    tables are monotone) and turns j's digit from i into 0: the key rises
    strictly.  So the maximal key of every unit set
    gives these agents undominated bundles or none, and the pruned fold
    finds the same maximum and the same shares.  The last agent is folded
    for the full set only, over all its bundles.
    """
    n = len(tables)
    size = 1 << k
    full = size - 1
    weights = subset_sums([n ** (k - 1 - j) for j in range(k)])
    unit = n**k
    keys = [
        [value * unit - i * w for value, w in zip(table, weights)]
        for i, table in enumerate(tables)
    ]

    # best[S]: the maximal key of an assignment of S to the agents folded in
    # so far; choices[i-1][S]: agent i's share of it.  Agent 0 starts the
    # fold and the last agent is folded in for the full set only.  A middle
    # agent takes nothing or an undominated bundle t, raising best[r | t]
    # for every r disjoint from t.
    best = keys[0]
    choices = []
    for masks, key in zip(middle, keys[1:-1]):
        folded = list(best)
        share = [0] * size
        for t in masks:
            gain = key[t]
            free = full ^ t
            r = free
            while True:
                val = best[r] + gain
                s = r | t
                if val > folded[s]:
                    folded[s] = val
                    share[s] = t
                if not r:
                    break
                r = (r - 1) & free
        best = folded
        choices.append(share)
    top, arg = _best_split(full, best, keys[-1])

    sets = [0] * n
    sets[-1] = arg
    rest = full ^ arg
    for i in range(n - 2, 0, -1):
        sets[i] = choices[i - 1][rest]
        rest ^= sets[i]
    sets[0] = rest

    _check_assignment(full, sets, keys, top)
    return tuple(sets), sum(table[t] for table, t in zip(tables, sets))


def _best_split(s, best, key):
    """max over t ⊆ s of best[s ^ t] + key[t], and the t that attains it."""
    top = best[0] + key[s]
    arg = t = s
    while t:
        t = (t - 1) & s
        val = best[s ^ t] + key[t]
        if val > top:
            top, arg = val, t
    return top, arg


def _check_assignment(full, sets, keys, top):
    """Raise CertificateError unless `sets` are pairwise disjoint, cover
    `full`, and their keys add up to the DP maximum."""
    covered = total = 0
    for i, t in enumerate(sets):
        if covered & t:
            raise CertificateError(f"reconstructed bundle of agent {i} overlaps another set")
        covered |= t
        total += keys[i][t]
    if covered != full:
        raise CertificateError("reconstructed sets do not cover every unit")
    if total != top:
        raise CertificateError(
            f"reconstructed key {total} differs from the DP maximum {top}"
        )


@dataclass(frozen=True)
class Allocation:
    """Disjoint item sets (x0, x_1, ..., x_n) covering all items."""

    m: int
    x0: int
    bundles: tuple[int, ...]

    def __post_init__(self):
        _check_cover(self.m, self.bundles, "bundles", self.x0)
        _freeze(self, "bundles")

    @property
    def n(self) -> int:
        return len(self.bundles)


def allocation(m: int, bundles, x0: int | None = None) -> Allocation:
    _check_items(m)
    _check_kinds((bundles,), _SEQUENCES, "bundles must be a tuple or a list")
    bundles = tuple(bundles)
    if x0 is None:
        _check_kinds(bundles, _INT, "bundles must be int item masks")
        covered = 0
        for b in bundles:
            covered |= b
        x0 = full_mask(m) & ~covered
    return Allocation(m, x0, bundles)


def singleton_partition(m: int) -> Partition:
    _check_items(m)
    return Partition(m, tuple(1 << j for j in range(m)))


def induced_partition(x: Allocation) -> tuple[Partition, tuple[int, ...]]:
    """The partition an allocation induces, plus each block's owner.

    Owners align with the partition's canonical block order; the x0 block
    (present only when nonempty) is owned by UNALLOCATED.
    """
    _check_kinds((x,), {Allocation}, _KIND_RULES[Allocation])
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
        listed = _freeze(self, "prices" if bundle_priced else "item_prices")
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
    Partition: _PARTITION_RULE,
}


def check_fits(instance: Instance, obj=None, kind: type | None = None) -> None:
    """BadParams unless `instance` is an Instance and, when a `kind` is
    given, `obj` is a `kind` (an Allocation, an Outcome or a Partition) over
    its m items and, but for a Partition, its n agents."""
    _check_kinds((instance,), {Instance}, "the instance must be an Instance")
    if kind is None:
        return
    rule = _KIND_RULES.get(kind) if isinstance(kind, type) else None
    if rule is None:
        raise BadParams("the kind must be Allocation, Outcome or Partition")
    _check_kinds((obj,), {kind}, rule)
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


def priced_blocks(outcome: Outcome) -> tuple[Partition, tuple[int, ...], tuple]:
    """The outcome as (partition, owner of each block, price of each block).

    Item prices are bundle prices over the singleton partition: item j is
    block j, owned by its holder.  Bundle prices price the induced partition
    (see `induced_partition`), the x0 block at the x0 price.  Unsold blocks
    are owned by UNALLOCATED.
    """
    _check_kinds((outcome,), {Outcome}, _KIND_RULES[Outcome])
    x = outcome.allocation
    if outcome.item_prices is not None:
        owners = [UNALLOCATED] * x.m
        for i, bundle in enumerate(x.bundles):
            for j in bits_of(bundle):
                owners[j] = i
        return singleton_partition(x.m), tuple(owners), outcome.item_prices
    partition, owners = induced_partition(x)
    prices = (outcome.x0_price if o == UNALLOCATED else outcome.prices[o] for o in owners)
    return partition, owners, tuple(prices)


def revenue(instance: Instance, outcome: Outcome) -> Fraction:
    """Sum of prices over blocks sold to agents (x0 excluded)."""
    check_fits(instance, outcome, Outcome)
    _partition, owners, prices = priced_blocks(outcome)
    return sum((p for o, p in zip(owners, prices) if o != UNALLOCATED), _ZERO)


def full_surplus_outcome(instance: Instance, x: Allocation) -> Outcome:
    """Price every bundle at its owner's value (and x0 at zero)."""
    check_fits(instance, x, Allocation)
    prices = tuple(v.value(b) for v, b in zip(instance.agents, x.bundles))
    return Outcome(x, prices=prices)
