"""Brute-force ground truth: integral optima, block-restricted optima,
exhaustive bundle-equilibrium search, and single-minded item-pricing bounds.

Enumeration is item-major base-(n+1) counting with agents as digits
0..n-1 and "unallocated" last, so ties resolve to the lexicographically
smallest assignment vector.  Every operation charges an enumeration budget
up front and aborts with SizeLimit rather than exceed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import configlp
from .bits import bits_of
from .errors import NotSingleMinded, SizeLimit
from .lp import GE, LE, OPTIMAL, LinearProgram, solve_lp
from .market import (
    Allocation,
    Instance,
    Outcome,
    Partition,
    UNALLOCATED,
    reduced_value_table,
)
from .valuations import SingleMinded, value_table

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_STATE_LIMIT = 10_000_000

# Above this table size, leaf evaluations query valuations directly.
_TABLE_CAP = 1 << 20


@dataclass
class OracleBudget:
    """Enumeration allowance; operations abort instead of exceeding it."""

    limit: int = DEFAULT_STATE_LIMIT
    used: int = field(default=0)

    def charge(self, states: int) -> None:
        if states > self.limit - self.used:
            raise SizeLimit(
                f"{states} enumeration states exceed the remaining budget "
                f"({self.limit - self.used})"
            )
        self.used += states


def _table_scorer(tables):
    """Leaf score of a complete assignment: the sum of per-agent table lookups."""
    n = len(tables)

    def evaluate(masks, _x0):
        total = _ZERO
        for i in range(n):
            total += tables[i][masks[i]]
        return total

    return evaluate


def _item_scorer(instance: Instance):
    """_table_scorer over item value tables, or, when 2^m exceeds _TABLE_CAP,
    a scorer that queries the valuations directly."""
    if 1 << instance.m <= _TABLE_CAP:
        return _table_scorer([value_table(v, instance.m) for v in instance.agents])
    agents = instance.agents

    def evaluate(masks, _x0):
        total = _ZERO
        for v, mask in zip(agents, masks):
            total += v.value(mask)
        return total

    return evaluate


class _Stop(Exception):
    """Raised by a candidate callback to end an assignment walk early."""


def _search_assignments(m, n, evaluate, on_candidate):
    """Walk all (n+1)^m digit vectors in lexicographic order.

    `evaluate(masks, x0)` scores a complete assignment; `on_candidate`
    decides whether a strictly better score was found (first maximum wins)
    and may raise _Stop once nothing later can matter.
    """
    masks = [0] * n

    def rec(j, x0):
        if j == m:
            on_candidate(evaluate(masks, x0), masks, x0)
            return
        bit = 1 << j
        for d in range(n):
            masks[d] |= bit
            rec(j + 1, x0)
            masks[d] ^= bit
        rec(j + 1, x0 | bit)

    try:
        rec(0, 0)
    except _Stop:
        pass


def optimal_integral(
    instance: Instance, budget: OracleBudget | None = None
) -> tuple[Allocation, Fraction]:
    """Welfare-maximal allocation by exhaustive assignment enumeration.

    Single-minded markets whose assignment space exceeds the budget fall
    back to exact winner-set search over the 2^n disjoint-set families,
    which returns the same value and the same lexicographic tie-break.
    """
    budget = budget or OracleBudget()
    m, n = instance.m, instance.n
    states = (n + 1) ** m
    if states > budget.limit - budget.used and all(
        isinstance(v, SingleMinded) for v in instance.agents
    ):
        return _single_minded_optimum(instance, budget)
    budget.charge(states)
    evaluate = _item_scorer(instance)
    best = {"welfare": None, "bundles": None, "x0": 0}

    def on_candidate(welfare, masks, x0):
        if best["welfare"] is None or welfare > best["welfare"]:
            best["welfare"] = welfare
            best["bundles"] = tuple(masks)
            best["x0"] = x0

    _search_assignments(m, n, evaluate, on_candidate)
    return Allocation(m, best["x0"], best["bundles"]), best["welfare"]


def _disjoint_winner_sets(instance):
    """Yield (winners, welfare) for every agent set, in increasing mask
    order, whose single-minded desired sets are pairwise disjoint."""
    desired = [v.desired for v in instance.agents]
    values = [v.value_if_served for v in instance.agents]
    for winners in range(1 << instance.n):
        union = 0
        welfare = _ZERO
        for i in bits_of(winners):
            if union & desired[i]:
                break
            union |= desired[i]
            welfare += values[i]
        else:
            yield winners, welfare


def _single_minded_optimum(instance, budget):
    n = instance.n
    budget.charge(1 << n)
    desired = [v.desired for v in instance.agents]

    best_welfare = None
    best_vector = None
    for winners, welfare in _disjoint_winner_sets(instance):
        if best_welfare is not None and welfare < best_welfare:
            continue
        vector = []
        for j in range(instance.m):
            owner = 0
            for i in bits_of(winners):
                if desired[i] >> j & 1:
                    owner = i
                    break
            vector.append(owner)
        vector = tuple(vector)
        if best_welfare is None or welfare > best_welfare or vector < best_vector:
            best_welfare = welfare
            best_vector = vector

    bundles = [0] * n
    for j, owner in enumerate(best_vector):
        bundles[owner] |= 1 << j
    return Allocation(instance.m, 0, tuple(bundles)), best_welfare


def optimal_over_partition(
    instance: Instance, partition: Partition, budget: OracleBudget | None = None
) -> tuple[tuple[int, ...], Fraction]:
    """Welfare-maximal assignment of whole blocks to agents.

    Returns one owner per block (UNALLOCATED for unassigned) and the value;
    this realizes bundle-efficiency over the partition's blocks.
    """
    budget = budget or OracleBudget()
    n = instance.n
    k = len(partition.blocks)
    budget.charge((n + 1) ** k)
    evaluate = _table_scorer([reduced_value_table(v, partition) for v in instance.agents])
    best = {"welfare": None, "sets": None}

    def on_candidate(welfare, sets, _rest):
        if best["welfare"] is None or welfare > best["welfare"]:
            best["welfare"] = welfare
            best["sets"] = tuple(sets)

    _search_assignments(k, n, evaluate, on_candidate)

    owners = [UNALLOCATED] * k
    for i, block_set in enumerate(best["sets"]):
        for j in bits_of(block_set):
            owners[j] = i
    return tuple(owners), best["welfare"]


def allocation_from_block_assignment(
    instance: Instance, partition: Partition, owners
) -> Allocation:
    bundles = [0] * instance.n
    x0 = 0
    for block, owner in zip(partition.blocks, owners):
        if owner == UNALLOCATED:
            x0 |= block
        else:
            bundles[owner] |= block
    return Allocation(instance.m, x0, tuple(bundles))


def best_mccwe(
    instance: Instance, budget: OracleBudget | None = None
) -> tuple[Outcome, Fraction]:
    """Max welfare over all supportable allocations, with supporting prices.

    Ties go to the first supportable allocation in enumeration order at the
    winning welfare.  The search first walks the unconstrained-optimum
    welfare level (where super-additive markets always succeed on the first
    try); only if no allocation there is supportable does it rescan with
    the usual prune-below-the-incumbent rule, so the expensive LP runs only
    on strict improvements.
    """
    budget = budget or OracleBudget()
    m, n = instance.m, instance.n
    states = (n + 1) ** m
    budget.charge(2 * states)
    evaluate = _item_scorer(instance)
    top = {"welfare": _ZERO}

    def track_top(welfare, _masks, _x0):
        if welfare > top["welfare"]:
            top["welfare"] = welfare

    _search_assignments(m, n, evaluate, track_top)

    best = {"welfare": None, "bundles": None, "x0": 0}

    def record(welfare, masks, x0):
        best["welfare"] = welfare
        best["bundles"] = tuple(masks)
        best["x0"] = x0

    def at_top_level(welfare, masks, x0):
        if welfare == top["welfare"]:
            x = Allocation(m, x0, tuple(masks))
            if configlp.is_mccwe_allocation(instance, x):
                record(welfare, masks, x0)
                raise _Stop

    _search_assignments(m, n, evaluate, at_top_level)

    if best["welfare"] is None:
        budget.charge(states)

        def on_improvement(welfare, masks, x0):
            if best["welfare"] is not None and welfare <= best["welfare"]:
                return
            x = Allocation(m, x0, tuple(masks))
            if configlp.is_mccwe_allocation(instance, x):
                record(welfare, masks, x0)

        _search_assignments(m, n, evaluate, on_improvement)

    x = Allocation(m, best["x0"], best["bundles"])
    return configlp.supporting_prices(instance, x), best["welfare"]


def best_single_minded_item_pricing(
    instance: Instance, budget: OracleBudget | None = None
) -> Fraction:
    """Best welfare supportable by item prices with disjoint demand sets.

    Winners must afford their desired sets, losers must not strictly demand
    theirs; feasibility of each winner family is decided exactly by LP.
    An indifferent loser counts as satisfied with the empty set.
    """
    if not all(isinstance(v, SingleMinded) for v in instance.agents):
        raise NotSingleMinded("item-pricing bound needs single-minded agents")
    budget = budget or OracleBudget()
    m, n = instance.m, instance.n
    budget.charge(1 << n)
    desired = [v.desired for v in instance.agents]
    values = [v.value_if_served for v in instance.agents]

    best = _ZERO  # empty winner set is always feasible
    for winners, welfare in _disjoint_winner_sets(instance):
        if welfare <= best:
            continue
        rows = []
        for i in range(n):
            coeffs = tuple(
                _ONE if desired[i] >> j & 1 else _ZERO for j in range(m)
            )
            relation = LE if winners >> i & 1 else GE
            rows.append((coeffs, relation, values[i]))
        lp = LinearProgram(tuple([_ZERO] * m), tuple(rows))
        if solve_lp(lp).status == OPTIMAL:
            best = welfare
    return best
