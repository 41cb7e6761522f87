"""The `Fraction` value paths that the integer value layer replaced, kept as
references.

Every value here comes straight from a valuation's `Fraction` data, by the
definition of its family, never from its scaled integers: the tests compare
the integer tables, relative-demand answers, utilities, the integer
super-additivity check and the budget mechanisms' integer uniformity test
against these.
"""

from __future__ import annotations

from fractions import Fraction

from mccwe.bits import bits_of
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
