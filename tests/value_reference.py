"""The `Fraction` value paths that the integer value layer replaced, kept as
references.

Every value here comes straight from a valuation's `Fraction` data, by the
definition of its family, never from its scaled integers: the tests compare
the integer tables, relative-demand answers, utilities, the integer
super-additivity check and the budget mechanisms' integer uniformity test
against these.  `fraction_instance` is the instance reader that loaded every
number as a `Fraction`; the tests compare the integer reader against it.
`regex_rat_list` is the list reader that matched one pattern per entry, and
`general_scale` the scaling formula that took an LCM and a product per
datum; the batched digit check and the int-only scaling are compared
against them.  `subset_sums` and `subset_unions` are the per-mask loops
that `mccwe.bits` replaced with one doubling pass per bit.
`per_size_relative_demand` is the subset walk, on the integer values, that
the additive families' best-item closed form replaced.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

from mccwe.bits import bits_of, mask_of
from mccwe.errors import ParseError
from mccwe.market import Instance
from mccwe.valuations import (
    Additive,
    BudgetAdditive,
    CappedCardinalityAdditive,
    SingleMinded,
    SuperadditiveExplicit,
)

_ZERO = Fraction(0)


def fraction_value(v, mask: int) -> Fraction:
    """v(mask) from the valuation's `Fraction` data."""
    if isinstance(v, SingleMinded):
        return Fraction(v.value_if_served) if mask & v.desired == v.desired else _ZERO
    if isinstance(v, SuperadditiveExplicit):
        return Fraction(v.table[mask])
    if not isinstance(v, (Additive, BudgetAdditive, CappedCardinalityAdditive)):
        return Fraction(v.value(mask))  # a test's own valuation, outside the five families
    picked = sorted((Fraction(v.item_values[j]) for j in bits_of(mask)), reverse=True)
    if isinstance(v, CappedCardinalityAdditive):
        return sum(picked[: v.cap], _ZERO)
    total = sum(picked, _ZERO)
    return min(total, Fraction(v.budget)) if isinstance(v, BudgetAdditive) else total


def reduced_value(v, partition, bundle_set: int) -> Fraction:
    """Value of the union of the selected blocks."""
    union = 0
    for j in bits_of(bundle_set):
        union |= partition.blocks[j]
    return fraction_value(v, union)


def utility(v, partition, bundle_set: int, prices) -> Fraction:
    """Quasilinear utility: reduced value minus the selected block prices."""
    total = reduced_value(v, partition, bundle_set)
    for j in bits_of(bundle_set):
        total -= prices[j]
    return total


def per_size_relative_demand(v, pool: int) -> tuple[int, Fraction]:
    """`relative_demand_query` by the per-size walk that answered it for
    every family but single-minded: among sets of one size the densest is
    the most valuable, so one walk over the pool keeps each size's most
    valuable set (smallest mask on ties), and the densest of those wins,
    the smallest size on ties, all on the valuation's integer values."""
    k = pool.bit_count()
    top_values = [-1] * (k + 1)  # below every value: valuations are nonnegative
    top_masks = [0] * (k + 1)
    sub = pool
    while sub:  # masks descend, so >= leaves the smallest mask of a tie
        val = v.scaled_value(sub)
        size = sub.bit_count()
        if val >= top_values[size]:
            top_values[size], top_masks[size] = val, sub
        sub = (sub - 1) & pool
    best = 1
    for size in range(2, k + 1):
        if top_values[size] * best > top_values[best] * size:
            best = size
    return top_masks[best], Fraction(top_values[best], v.scale * best)


def item_table(v, m: int) -> list[Fraction]:
    return [fraction_value(v, mask) for mask in range(1 << m)]


def splits_superadditive(table) -> bool:
    """The split loop of the old `Fraction` check: every unordered split
    {S, T} of every set, S nonempty and below the set's top item."""
    for union in range(1, len(table)):
        sub = lower = union ^ 1 << (union.bit_length() - 1)
        while sub:
            if table[sub] + table[union ^ sub] > table[union]:
                return False
            sub = (sub - 1) & lower
    return True


def valid_table(table) -> bool:
    """What `SuperadditiveExplicit` accepts: normalized, nonnegative and
    super-additive on every split (tables of at most 12 items)."""
    return table[0] == 0 and min(table) >= 0 and splits_superadditive(table)


def subadditive(table) -> bool:
    """v(S) + v(T) >= v(S + T) for every disjoint pair, by brute force."""
    return all(
        table[s] + table[t ^ s] >= table[t]
        for t in range(len(table))
        for s in range(t + 1)
        if s & t == s
    )


def monotone(table) -> bool:
    return all(
        table[s] <= table[t] for t in range(len(table)) for s in range(t + 1) if s & t == s
    )


def identical_budgets(instance) -> bool:
    """Every agent budget-additive, all with one budget."""
    return (
        all(isinstance(v, BudgetAdditive) for v in instance.agents)
        and len({v.budget for v in instance.agents}) == 1
    )


def shared_item_values(instance) -> list[Fraction] | None:
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


def fraction_rational(text) -> Fraction:
    """A well-formed JSON integer, "p" or "p/q" as a `Fraction`."""
    if isinstance(text, int):
        return Fraction(text)
    num, den = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", text).groups()
    return Fraction(int(num), int(den or 1))


def fraction_instance(text: str) -> Instance:
    """A well-formed instance document, every number read as a `Fraction`."""
    doc = json.loads(text)

    def rationals(values):
        return tuple(map(fraction_rational, values))

    agents = []
    for obj in doc["agents"]:
        family = obj["family"]
        if family == "additive":
            agents.append(Additive(rationals(obj["item_values"])))
        elif family == "single_minded":
            value = fraction_rational(obj["value"])
            agents.append(SingleMinded(mask_of(obj["desired"]), value))
        elif family == "superadditive_explicit":
            agents.append(SuperadditiveExplicit(rationals(obj["table"])))
        elif family == "budget_additive":
            budget = fraction_rational(obj["budget"])
            agents.append(BudgetAdditive(budget, rationals(obj["item_values"])))
        else:
            capped = CappedCardinalityAdditive(rationals(obj["item_values"]), obj["cap"])
            agents.append(capped)
    return Instance(
        doc["m"], tuple(agents), name=doc.get("name", ""), metadata=doc.get("metadata")
    )


_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def regex_rational(text) -> int | Fraction:
    """One rational by pattern match alone; ValueError carries the message."""
    if isinstance(text, str) and (match := _RAT_RE.fullmatch(text)):
        num, den = match.groups()
        if den is None:
            return int(num)
        num, den = int(num), int(den)
        if den == 0:
            raise ValueError("zero denominator")
        return Fraction(num, den)
    if isinstance(text, int) and not isinstance(text, bool):
        return int(text)
    raise ValueError(f"expected a rational like '3' or '3/4', got {text!r}")


def regex_rat_list(values, where: str) -> tuple:
    """A JSON list of rationals, one `regex_rational` per entry; a bad
    entry's ParseError names `where[index]`."""
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected a list")
    parsed = []
    try:
        for v in values:
            parsed.append(regex_rational(v))
    except ValueError as exc:
        raise ParseError(f"{where}[{len(parsed)}]: {exc}") from exc
    return tuple(parsed)


def general_scale(*data) -> tuple[int, tuple]:
    """(scale, scaled data): the LCM of every datum's denominator, and each
    sequence of data times it, read off numerators and denominators."""
    scale = lcm(*{x.denominator for values in data for x in values})
    return scale, tuple(
        tuple(x.numerator * (scale // x.denominator) for x in values) for values in data
    )


def subset_sums(values) -> list[int]:
    """The sum of values[j] over the bits j of every mask, one mask at a time."""
    table = [0] * (1 << len(values))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] + values[low.bit_length() - 1]
    return table


def subset_unions(masks) -> list[int]:
    """The union of masks[j] over the bits j of every mask, one mask at a time."""
    table = [0] * (1 << len(masks))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] | masks[low.bit_length() - 1]
    return table
