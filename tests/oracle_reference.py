"""`best_mccwe` before its block-DP pre-filter, kept as a reference.

This search solves the configuration LP of every candidate it probes.  The
library first runs the block DP over the candidate's induced partition and
refuses the candidate without an LP when some whole-block assignment beats
it.  The tests require the same outcome and welfare from both.
"""

from __future__ import annotations

from fractions import Fraction

from mccwe.configlp import supporting_prices
from mccwe.errors import NotMCCWE
from mccwe.market import Allocation, singleton_partition
from mccwe.oracle import _assignments, optimal_integral
from mccwe.valuations import value_table


def _supported(instance, x):
    try:
        return supporting_prices(instance, x)
    except NotMCCWE:
        return None


def best_mccwe(instance):
    """(outcome, welfare): the unconstrained optimum when it is supportable,
    else the first supportable allocation in owner-vector order at the top
    supportable welfare, found by probing every strict improvement with an
    LP."""
    m, scale = instance.m, instance.scale
    x, top = optimal_integral(instance)
    outcome = _supported(instance, x)
    if outcome is not None:
        return outcome, top
    singletons = singleton_partition(m)
    tables = [value_table(v, singletons, scale) for v in instance.agents]
    best = None
    for welfare, sets, rest in _assignments(m, tables):
        if best is not None and welfare <= best:
            continue
        candidate = Allocation(m, rest, tuple(sets))
        if candidate == x:
            continue
        found = _supported(instance, candidate)
        if found is not None:
            if Fraction(welfare, scale) == top:
                return found, top
            outcome, best = found, welfare
    return outcome, None if best is None else Fraction(best, scale)
