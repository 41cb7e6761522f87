"""The per-move `Fraction` scans that the budget mechanisms' one integer
market scan replaced, kept as references.

`uniform_budget_additive_mccwe` and `identical_budget_cleanup` here test
uniformity with `shared_item_values`, order and compare by `Fraction`
budgets and item values, and rescan every agent for every item: the
pre-pass looks up each item's holder and its lowest-index interested agent,
and every rebalance move recomputes the movable items and the recipient
from the agents' item values.  The tests require the same traces, outcomes
and errors from these and from `mccwe.mechanisms`.
"""

from __future__ import annotations

from mccwe.bits import bits_of
from mccwe.errors import CertificateError, NotIdenticalBudgets, NotUniformBudgetAdditive
from mccwe.market import full_surplus_outcome
from mccwe.mechanisms import _State
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
