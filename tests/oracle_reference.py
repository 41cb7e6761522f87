"""`best_mccwe` before its block-DP pre-filter and its pruned walk, and
winner determination before its dominance pruning, kept as references.

This search steps through every assignment with the plain odometer
`_assignments` and solves the configuration LP of every candidate it probes.
The library skips every owner-vector prefix whose completion bound cannot
beat its best supportable welfare so far, and it first runs the block DP
over the candidate's induced partition and refuses the candidate without an
LP when some whole-block assignment beats it.  The tests require the same
outcome and welfare from both.

`_winner_determination` folds every middle agent over all its bundles, n
3^k subset pairs in all, where the library folds each over its undominated
bundles only.  The tests require the same sets and welfare from both.
"""

from __future__ import annotations

from fractions import Fraction

from mccwe.bits import subset_sums
from mccwe.configlp import supporting_prices
from mccwe.errors import NotMCCWE
from mccwe.market import Allocation, singleton_partition
from mccwe.market import _best_split, _check_assignment
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


def _winner_determination(k, tables):
    """Welfare-maximal assignment of all k units to the two or more agents
    behind the integer value `tables`, all at one scale.

    Returns (sets, welfare): one unit mask per agent, and the welfare as the
    sum of the chosen table entries.  The DP runs on integer keys
    t_i(T)*n^k - i*W(T), where t_i is agent i's table and W(T) is the sum of
    n^(k-1-j) over units j in T.  A key's welfare part outweighs every digit
    part, and the digit part is the owner vector read in base n, so the one
    maximal key is the lexicographically smallest optimal owner vector.
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
    # fold and the last agent is folded in for the full set only.
    best = keys[0]
    choices = []
    for key in keys[1:-1]:
        splits = [_best_split(s, best, key) for s in range(size)]
        best = [top for top, _arg in splits]
        choices.append([arg for _top, arg in splits])
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
