"""`best_mccwe` before its block-DP pre-filter and its pruned walk, kept as
a reference.

This search steps through every assignment with the plain odometer
`_assignments` and solves the configuration LP of every candidate it probes.
The library skips every owner-vector prefix whose completion bound cannot
beat its best supportable welfare so far, and it first runs the block DP
over the candidate's induced partition and refuses the candidate without an
LP when some whole-block assignment beats it.  The tests require the same
outcome and welfare from both.
"""

from __future__ import annotations

from fractions import Fraction

from mccwe.configlp import supporting_prices
from mccwe.errors import NotMCCWE
from mccwe.market import Allocation, singleton_partition
from mccwe.oracle import optimal_integral
from mccwe.valuations import value_table


def _assignments(k, tables):
    """Yield (welfare, sets, rest) for every assignment of k units to the
    agents behind `tables` or to "unallocated", in lexicographic owner-vector
    order: unit 0 most significant, agents as digits 0..n-1, "unallocated"
    last.  The welfare is in the tables' units.  `sets` holds the agents'
    unit masks and is updated in place."""
    n = len(tables)
    owners = [0] * k
    sets = [(1 << k) - 1] + [0] * (n - 1)
    rest = 0
    while True:
        welfare = 0
        for table, t in zip(tables, sets):
            welfare += table[t]
        yield welfare, sets, rest
        j = k - 1
        while j >= 0 and owners[j] == n:  # "unallocated" wraps to agent 0
            rest ^= 1 << j
            sets[0] |= 1 << j
            owners[j] = 0
            j -= 1
        if j < 0:
            return
        d = owners[j]
        sets[d] ^= 1 << j
        if d + 1 < n:
            sets[d + 1] |= 1 << j
        else:
            rest |= 1 << j
        owners[j] = d + 1


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
