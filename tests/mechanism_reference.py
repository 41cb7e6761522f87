"""The per-move `Fraction` scans that the budget mechanisms' one integer
market scan replaced, and the super-additive merge phase's own group
search that the verifier replaced, kept as references.

`uniform_budget_additive_mccwe` and `identical_budget_cleanup` here test
uniformity with `shared_item_values`, order and compare by `Fraction`
budgets and item values, and rescan every agent for every item: the
pre-pass looks up each item's holder and its lowest-index interested agent,
and every rebalance move recomputes the movable items and the recipient
from the agents' item values.  The tests require the same traces, outcomes
and errors from these and from `mccwe.mechanisms`.

`superadditive_mccwe` here runs the density phase as `density_grants`,
which asks every agent again after every grant where the library keeps
each answer until a grant takes one of its items, then merges by
`_best_merge`: an n*2^n table of every agent against every group of
bundles, ranked by gap, then group size, then (agent, group mask).
"""

from __future__ import annotations

from mccwe.bits import bits_of, full_mask, subset_sums, subset_unions
from mccwe.errors import (
    CertificateError,
    NotIdenticalBudgets,
    NotUniformBudgetAdditive,
    SizeLimit,
)
from mccwe.market import allocation, full_surplus_outcome
from mccwe.mechanisms import _require_superadditive, _State
from mccwe.valuations import relative_demand_query
from value_reference import shared_item_values


def _interested_prepass(instance, state, phase) -> None:
    for j in range(instance.m):
        bit = 1 << j
        holder = None
        for i, b in enumerate(state.bundles):
            if b & bit:
                holder = i
                break
        if holder is not None and instance.agents[holder].item_values[j] > 0:
            continue
        wanted_by = next(
            (i for i, v in enumerate(instance.agents) if v.item_values[j] > 0), None
        )
        if wanted_by is not None:
            state.give(phase, wanted_by, bit)
        elif holder is not None:
            state.give(phase, None, bit)


def uniform_budget_additive_mccwe(instance, x, trace=None):
    shared = shared_item_values(instance)
    if shared is None:
        raise NotUniformBudgetAdditive("agents must share per-item values")
    n = instance.n
    budgets = [v.budget for v in instance.agents]
    state = _State(instance, x, trace, "uniform_budget_additive")
    _interested_prepass(instance, state, "reassign")

    moves = 0
    for i in sorted(range(n), key=lambda i: (budgets[i], i)):
        while True:
            bundle = state.bundles[i]
            own = instance.scaled_value(i, bundle)
            if all(
                instance.scaled_value(other, bundle) <= own for other in range(n) if other != i
            ):
                break
            movable = [
                j
                for j in bits_of(bundle)
                if any(
                    budgets[other] > budgets[i]
                    and instance.agents[other].item_values[j] > 0
                    for other in range(n)
                )
            ]
            if not movable:
                raise CertificateError("an envied bundle always holds a movable item")
            j = min(movable, key=lambda j: (shared[j], j))
            recipient = None
            for other in range(n):
                if instance.agents[other].item_values[j] > 0 and (
                    recipient is None or budgets[other] > budgets[recipient]
                ):
                    recipient = other
            moves += 1
            if moves > n * instance.m:
                raise CertificateError("rebalance exceeded its move bound")
            state.give("move", recipient, 1 << j)

    return full_surplus_outcome(instance, state.allocation())


def identical_budget_cleanup(instance, x, trace=None):
    if shared_item_values(instance) is None:
        raise NotUniformBudgetAdditive("agents must share per-item values")
    if len({v.budget for v in instance.agents}) > 1:
        raise NotIdenticalBudgets("agents' budgets differ")
    state = _State(instance, x, trace, "identical_budget_cleanup")
    _interested_prepass(instance, state, "cleanup")
    return full_surplus_outcome(instance, state.allocation())


def superadditive_mccwe(instance, trace=None):
    _require_superadditive(instance)
    m, n = instance.m, instance.n
    if n > 16:
        raise SizeLimit("merge phase capped at 16 agents")
    state = _State(instance, allocation(m, [0] * n), trace, "superadditive")

    for agent, found in density_grants(instance):
        state.give("density", agent, found)

    whole = [instance.scaled_value(i, full_mask(m)) for i in range(n)]
    top = max(range(n), key=lambda i: (whole[i], -i))
    if whole[top] > state.welfare():
        state.give("winner_take_all", top, full_mask(m))

    merges = 0
    while True:
        move = _best_merge(instance, state.bundles)
        if move is None:
            break
        merges += 1
        if merges > n * n:
            raise CertificateError("merge phase exceeded its halting bound")
        _gap, _size, agent, group_mask = move
        union = 0
        for j in bits_of(group_mask):
            union |= state.bundles[j]
        state.give("merge", agent, union)

    return full_surplus_outcome(instance, state.allocation())


def density_grants(instance):
    """The density phase's grants, (agent, items) in order, asking every
    agent for relative demand over the whole pool after every grant."""
    grants = []
    pool = full_mask(instance.m)
    while pool:
        best = None
        for i, v in enumerate(instance.agents):
            found, density = relative_demand_query(v, pool)
            if best is None or density > best[0]:
                best = (density, i, found)
        _density, agent, found = best
        grants.append((agent, found))
        pool &= ~found
    return grants


def _best_merge(instance, bundles):
    """Max of v_i(union of group bundles) minus the group's bundle values,
    in the market's units.

    Ties: smaller group, then smaller (agent, group mask).  None when no
    group yields a strict surplus.
    """
    n = len(bundles)
    unions = subset_unions(bundles)
    totals = subset_sums([instance.scaled_value(j, bundles[j]) for j in range(n)])
    best = None
    for i in range(n):
        for mask in range(1, 1 << n):
            gap = instance.scaled_value(i, unions[mask]) - totals[mask]
            if gap <= 0:
                continue
            size = mask.bit_count()
            if (
                best is None
                or gap > best[0]
                or (gap == best[0] and (size, i, mask) < (best[1], best[2], best[3]))
            ):
                best = (gap, size, i, mask)
    return best
