"""Ground truth: integral optima, block-restricted optima, exhaustive
bundle-equilibrium search, and single-minded item-pricing bounds.

Every valuation family is normalized and monotone, so handing an
unallocated unit to agent 0 keeps the welfare and lowers the owner vector:
the lexicographically smallest optimum assigns every unit.  Optima come
from an exact integer subset DP for winner determination (after Rothkopf,
Pekec and Harstad, 1998; `market._winner_determination`) over the agents'
integer value tables at the market's scale (`Instance.scale`), with the
tie-break folded into the same integer key, so the DP returns the
lexicographically smallest owner vector among the optima, item 0 most
significant and agents as digits 0..n-1.  The DP folds each middle agent
over its undominated bundles only, those in which every unit adds value
(`market._undominated`, the one dominance filter, whose masks the
configuration LP's columns share): handing a unit that adds nothing to
agent 0 keeps the welfare and lowers the owner vector, so no optimal key
gives an agent a dominated bundle.
All three optima share one routine, `market._optimum`, which computes
each (market, partition) optimum once, over the market's `block_tables`,
and also gives the configuration LP its start; a lone agent takes every
item or block in closed form, with no table, and the single-minded
winner-set search keeps its optimum in the same memo.  The
supportable-optimum search steps through the assignments, "unallocated" as
the last digit, with one depth-first walk, `_assignments`, that skips every
owner-vector prefix whose monotone completion bound cannot beat its floor
(branch and bound, after Land and Doig, 1960): max_i v_i(M) - 1 at first,
as the grand bundle M sold to an agent of largest v(M) is always
supportable, then the best supportable welfare found so far.  Each prefix
bounds its children from one read of each agent's table, and one more per
agent, before it enters any.  The budget bounds
the work: each search charges it before it starts (SizeLimit rather than
exceed it), and `value_table`'s 20-block cap bounds each table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import configlp
from .bits import bits_of
from .errors import BadParams, CertificateError, NotMCCWE, NotSingleMinded, SizeLimit
from .lp import OPTIMAL, simplex
from .market import Allocation, Instance, Outcome, Partition
from .market import _optimum, block_tables, check_fits, singleton_partition
from .valuations import SingleMinded, _INT, _check_kinds

DEFAULT_STATE_LIMIT = 10_000_000


@dataclass
class OracleBudget:
    """Enumeration allowance, the oracles' bound on work: operations charge
    it first and abort instead of exceeding it.  BadParams unless `limit`
    and `used` are ints >= 0."""

    limit: int = DEFAULT_STATE_LIMIT
    used: int = 0

    def __post_init__(self):
        _check_kinds((self.limit, self.used), _INT, "a budget's limit and used must be ints")
        if self.limit < 0 or self.used < 0:
            raise BadParams("a budget's limit and used must be >= 0")

    def charge(self, states: int) -> None:
        if states > self.limit - self.used:
            raise SizeLimit(
                f"{states} enumeration states exceed the remaining budget "
                f"({self.limit - self.used})"
            )
        self.used += states


def _allowance(budget) -> OracleBudget:
    """`budget`, or a fresh default one for None; BadParams unless it is an
    OracleBudget."""
    if budget is None:
        return OracleBudget()
    _check_kinds((budget,), {OracleBudget}, "the budget must be an OracleBudget")
    return budget


def _assignments(k, tables, floor):
    """Yield (welfare, sets, rest) for every assignment of k units to the
    agents behind `tables` or to "unallocated" whose welfare beats the floor
    `floor[0]`, in lexicographic owner-vector order: unit 0 most significant,
    agents as digits 0..n-1, "unallocated" last.  The welfare is in the
    tables' units; `sets` holds the agents' unit masks and is updated in
    place.  floor[0] is a welfare, and the caller may raise it between
    yields.

    The walk recurses depth first over owner-vector prefixes, one unit per
    level, trying the agents in order and then "unallocated".  A prefix's
    completion bound is sum_i t_i[S_i | R], S_i agent i's units so far and
    R the units not yet assigned; every table is monotone, so no completion
    beats it, and a prefix whose bound is at most the floor is skipped with
    every assignment below it.  The root's bound is sum_i t_i[full].  A
    prefix at depth j reads each table once, without[i] = t_i[S_i | R'] for
    R' the units after j, and bounds its children from base = sum(without):
    the child that gives unit j to agent i by base - without[i] +
    t_i[S_i | unit j | R'], the "unallocated" child by base.  The floor is
    read just before each child is entered, so a floor the caller raised
    since the last yield applies.  At depth k R is empty, the bound is the
    welfare, and the leaf is yielded without a read.
    """
    full = (1 << k) - 1
    sets = [0] * len(tables)
    agents = tuple(enumerate(tables))

    def walk(j, rest, bound):
        if j == k:
            yield bound, sets, rest
            return
        unit = 1 << j
        free = full >> j + 1 << j + 1
        without = [table[s | free] for table, s in zip(tables, sets)]
        base = sum(without)
        for i, table in agents:
            s = sets[i]
            child = base - without[i] + table[s | unit | free]
            if child > floor[0]:
                sets[i] = s | unit
                yield from walk(j + 1, rest, child)
                sets[i] = s
        if base > floor[0]:
            yield from walk(j + 1, rest | unit, base)

    bound = sum(table[full] for table in tables)
    if bound > floor[0]:
        yield from walk(0, 0, bound)


def optimal_integral(
    instance: Instance, budget: OracleBudget | None = None
) -> tuple[Allocation, Fraction]:
    """Welfare-maximal allocation by the exact integer subset DP, charged
    (n+1)^m states, the size of the assignment space.

    Ties go to the lexicographically smallest owner vector, which the DP
    encodes in its integer key.  A single-minded market with fewer winner
    sets than assignments, 2^n < (n+1)^m, is searched over its disjoint
    winner sets instead and charged 2^n; the search breaks ties by the DP's
    own digits, so it returns the same allocation and value.
    """
    check_fits(instance)
    budget = _allowance(budget)
    m, n = instance.m, instance.n
    states = (n + 1) ** m
    if 1 << n < states and all(isinstance(v, SingleMinded) for v in instance.agents):
        return _single_minded_optimum(instance, budget)
    budget.charge(states)
    sets, welfare = _optimum(instance, singleton_partition(m))
    return Allocation(m, 0, sets), Fraction(welfare, instance.scale)


def _disjoint_winner_sets(instance):
    """Yield (winners, welfare) for every agent set, in increasing mask
    order, whose single-minded desired sets are pairwise disjoint; welfare
    in the market's units."""
    desired = [v.desired for v in instance.agents]
    values = [instance.scaled_value(i, desired[i]) for i in range(instance.n)]
    for winners in range(1 << instance.n):
        union = 0
        welfare = 0
        for i in bits_of(winners):
            if union & desired[i]:
                break
            union |= desired[i]
            welfare += values[i]
        else:
            yield winners, welfare


def _single_minded_optimum(instance, budget):
    """optimal_integral over the disjoint winner sets, charged 2^n.  Each
    winner takes its desired set and agent 0 the rest.  A set at the best
    welfare so far is scored by the DP's digits (`market._winner_determination`):
    agent i adds i*n^(m-1-j) for each item j it takes, so the fewest digits
    are the smallest owner vector.  The answer is kept in `Instance.optima`
    under the singleton partition's blocks, as `market._optimum` keeps the
    DP's, so the singleton configuration LP starts from it without a DP."""
    m, n = instance.m, instance.n
    budget.charge(1 << n)
    desired = [v.desired for v in instance.agents]
    powers = [n ** (m - 1 - j) for j in range(m)]
    digits = [i * sum(powers[j] for j in bits_of(d)) for i, d in enumerate(desired)]
    best = (0, 0, 0)  # (welfare, -digits, winners) of the empty winner set
    for winners, welfare in _disjoint_winner_sets(instance):
        if welfare >= best[0]:
            best = max(best, (welfare, -sum(digits[i] for i in bits_of(winners)), winners))
    welfare, _digits, winners = best
    bundles = [desired[i] if winners >> i & 1 else 0 for i in range(n)]
    bundles[0] |= (1 << m) - 1 ^ sum(bundles)
    instance.optima.setdefault(singleton_partition(m).blocks, (tuple(bundles), welfare))
    return Allocation(m, 0, tuple(bundles)), Fraction(welfare, instance.scale)


def optimal_over_partition(
    instance: Instance, partition: Partition, budget: OracleBudget | None = None
) -> tuple[tuple[int, ...], Fraction]:
    """Welfare-maximal assignment of whole blocks to agents.

    Returns one owner per block and the value; every block gets an owner,
    as valuations are monotone.  This realizes bundle-efficiency over the
    partition's blocks.  It is the same integer subset DP as
    optimal_integral over block value tables, with blocks as units and ties
    to the smallest block-major owner vector.  The budget is charged (n+1)^k
    states for k blocks before any table is built.
    """
    check_fits(instance, partition, Partition)
    budget = _allowance(budget)
    k = len(partition.blocks)
    budget.charge((instance.n + 1) ** k)
    sets, welfare = _optimum(instance, partition)
    owners = [0] * k
    for i, block_set in enumerate(sets):
        for j in bits_of(block_set):
            owners[j] = i
    return tuple(owners), Fraction(welfare, instance.scale)


def _supported(instance, x):
    """Supporting prices for `x`, or None when it is not supportable."""
    try:
        return configlp.supporting_prices(instance, x)
    except NotMCCWE:
        return None


def best_mccwe(
    instance: Instance, budget: OracleBudget | None = None
) -> tuple[Outcome, Fraction]:
    """Max welfare over all supportable allocations, with supporting prices.

    Ties go to the first supportable allocation in enumeration order at the
    winning welfare W*.  The search first tries the optimum x that
    `optimal_integral` returns, under that call's charge (super-additive
    markets always succeed here), then walks the assignments in
    owner-vector order (`_assignments`) above a floor, in the market's
    integer units: at x's welfare it returns the first other supportable
    allocation, and below it probes only strict improvements on the floor,
    which rises to each supported candidate's welfare, and returns the last
    one when the walk ends.

    The floor starts at W_g - 1, where W_g = max_i v_i(M).  The grand
    bundle M sold to an agent of largest v(M) is supportable (see the
    comment at the end), so W* >= W_g, and the floor changes no answer.
    Take the walk with no floor, which probes each candidate that beats F,
    the best supportable welfare so far.  Candidate by candidate, the floor
    here is max(W_g - 1, F): a candidate at W_g or above beats it exactly
    when it beats F, and if supported raises both to its welfare; one below
    W_g is probed by the unfloored walk alone and raises F to at most
    W_g - 1.  The unfloored walk's answer is the first supportable
    candidate at W*, and every floor in force before it is below W*: F is,
    as no earlier candidate is supportable at W*, and W_g - 1 is.  So this
    walk probes that candidate too, and keeps it, as no later one beats
    W*.  `_assignments` skips only assignments at or below the floor in
    force, which would not be probed.

    Each candidate is probed in integers, through the memos keyed by its
    induced partition's blocks, built straight from the walk's masks; a
    `Partition` is built only on a miss.  The block DP over those blocks
    comes first: when some whole-block assignment beats the candidate, the
    LP's value, which is at least that, does too, and the candidate is
    refused without an LP.  Otherwise the LP is solved once per partition
    and its value compared with the candidate's welfare.  Only a candidate
    whose LP value equals its welfare is built as an `Allocation` and
    priced by `configlp.supporting_prices`, with all its re-checks.  The
    walk is charged (n+1)^m states when it starts, after x's probe fails;
    like the probes' LPs, their block DPs are not charged.  Raises
    CertificateError if the walk supports no candidate, which cannot
    happen.
    """
    budget = _allowance(budget)
    x, best = optimal_integral(instance, budget)
    outcome = _supported(instance, x)
    if outcome is not None:
        return outcome, best
    # A lone agent never walks: its optimum is supportable, as its LP over
    # the one block peaks at v(full), its welfare.
    m, scale = instance.m, instance.scale
    top = best.numerator * (scale // best.denominator)
    budget.charge((instance.n + 1) ** m)
    tables = block_tables(instance, singleton_partition(m))
    full = (1 << m) - 1
    floor = [max(table[full] for table in tables) - 1]  # raised as probes succeed
    skip = (x.x0, list(x.bundles))
    optima, lps = instance.optima, instance.config_lps
    for welfare, sets, rest in _assignments(m, tables, floor):
        if (rest, sets) == skip:
            continue
        # the induced partition's blocks, in `Partition`'s order: by lowest item
        blocks = tuple(sorted([s for s in (*sets, rest) if s], key=lambda b: b & -b))
        dp = optima.get(blocks) or _optimum(instance, Partition(m, blocks))
        if dp[1] > welfare:
            continue
        lp = lps.get(blocks) or configlp.fractional_opt(instance, Partition(m, blocks))
        if lp.value.numerator * scale != welfare * lp.value.denominator:
            continue
        found = _supported(instance, Allocation(m, rest, tuple(sets)))
        if found is not None:
            if welfare == top:
                return found, best
            outcome, floor[0] = found, welfare
    # The grand bundle M given to an agent of largest v(M) has welfare W_g,
    # above the first floor, and it is not x, or x would be supported.  Its
    # one-block DP and LP both peak at W_g, so it is supported: the walk
    # finds an outcome, there or at an earlier success that raised the floor.
    if outcome is None:
        raise CertificateError("the walk found no supportable allocation")
    return outcome, Fraction(floor[0], scale)


def _item_prices_support(m, desired, values, winners):
    """Does the winner family's item-pricing LP reach t = 1?

    Column j < m is item j's price: +1 in the row of the winner that
    desires j, -1 in the rows of the losers that do.  Column m is t: v'_l in
    each loser l's row, and 1 in row n, t <= 1.  A winner's row has
    right-hand side v'_w, a loser's 0.  The basis is re-checked in integers:
    no row filled past b d, x >= 0, y >= 0, y.A_j >= d c_j, and y.b = x_t.
    """
    n = len(desired)
    lost = [not winners >> i & 1 for i in range(n)]
    columns = [
        [(i, -1 if lost[i] else 1) for i in range(n) if desired[i] >> j & 1] for j in range(m)
    ]
    columns.append([(i, v) for i, v in enumerate(values) if lost[i] and v] + [(n, 1)])
    rhs = [0 if out else v for out, v in zip(lost, values)] + [1]

    def price(d, lam):
        costs = [sum(lam[r] * a for r, a in col) for col in columns]
        costs[m] += d
        return costs

    basic = simplex(m + 1, rhs, price, columns.__getitem__)
    d, dual = basic.d, basic.dual
    x = dict(zip(basic.basis, basic.values))
    filled = [0] * (n + 1)
    covers = [0] * (m + 1)
    for j, col in enumerate(columns):
        for r, a in col:
            filled[r] += a * x.get(j, 0)
            covers[j] += a * dual[r]
    t = x.get(m, 0)
    if (
        basic.status != OPTIMAL
        or min(basic.values + dual) < 0
        or any(f > b * d for f, b in zip(filled, rhs))
        or min(covers[:m]) < 0
        or covers[m] < d
        or sum(y * b for y, b in zip(dual, rhs)) != t
    ):
        raise CertificateError("item-pricing LP basis fails its integer re-check")
    return t == d


def best_single_minded_item_pricing(
    instance: Instance, budget: OracleBudget | None = None
) -> Fraction:
    """Best welfare supportable by item prices with disjoint demand sets.

    Winners must afford their desired sets, losers must not strictly demand
    theirs; an indifferent loser counts as satisfied with the empty set.
    Each winner family is decided exactly by one packing LP in the item
    prices p and a scale t, in the market's units (`Instance.scale`, so
    prices p' = scale*p and values v' = scale*v): maximize t subject to
    p'(D_w) <= v'_w for each winner, v'_l*t - p'(D_l) <= 0 for each loser,
    and t <= 1.  Scaling the price columns changes no optimum t, and the
    family is feasible exactly when the optimum reaches t = 1.
    """
    check_fits(instance)
    if not all(isinstance(v, SingleMinded) for v in instance.agents):
        raise NotSingleMinded("item-pricing bound needs single-minded agents")
    _allowance(budget).charge(1 << instance.n)
    desired = [v.desired for v in instance.agents]
    values = [instance.scaled_value(i, d) for i, d in enumerate(desired)]
    best = 0  # empty winner set is always feasible
    for winners, welfare in _disjoint_winner_sets(instance):
        if welfare > best and _item_prices_support(instance.m, desired, values, winners):
            best = welfare
    return Fraction(best, instance.scale)
