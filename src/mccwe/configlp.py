"""Configuration LP over a partitioned market, and what it certifies.

For a partition into k blocks the LP has one variable y[i, S] per agent i
and nonempty block subset S, maximizing total reduced value subject to one
row per agent (at most one set) and one row per block (sold at most once).

An allocation is supportable as a market-clearing bundle equilibrium exactly
when this LP, built over the allocation's own induced partition, attains its
optimum at that allocation; supporting bundle prices then fall out of the
dual block variables by complementary slackness.

The program is built over undominated columns only: (i, S) is kept when
v_i(S) exceeds v_i of S minus any one block (`market._undominated`, the one
dominance filter, whose masks winner determination's fold shares).
Valuations are monotone and block duals nonnegative, so a dual that covers
the undominated columns covers the rest (u_i + q(S) >= u_i + q(S - j) >=
v_i(S - j) = v_i(S)), and the smaller program has the full one's value and
optimal duals.
`fractional_opt` pivots the program with `lp.simplex` without building its
rows: column (i, S) is agent i's row plus the rows of the blocks in S, so
it is priced from agent i's value table and the row multipliers.  The
solve starts at the block DP's optimum over the partition
(`market._optimum`), an integral vertex of the program, not at the slack
basis; the DP is a function of the market and the partition alone, so the
solution is too, whatever ran before.  It re-checks its answer in
integers, its dual against every column of the full program, and solves
each partition of a market once: its solutions are kept on the
`Instance`, keyed by the partition's blocks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .bits import bits_of, subset_sums
from .errors import CertificateError, NotMCCWE, SizeLimit
from .lp import OPTIMAL, simplex
from .market import (
    Allocation,
    Instance,
    Outcome,
    Partition,
    UNALLOCATED,
    _optimum,
    _undominated_masks,
    block_tables,
    check_fits,
    induced_partition,
    social_welfare,
)

MAX_VARIABLES = 200_000

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ConfigLPSolution:
    """The configuration LP's exact optimum in the market's own values: the
    LP runs on values times `Instance.scale`, and its value and duals are
    divided back by it.  Solutions are shared through the instance's memo,
    so `y` is a read-only mapping."""

    value: Fraction
    y: MappingProxyType  # (agent, bundle-set mask) -> Fraction, nonzero entries only
    dual_u: tuple[Fraction, ...]  # per agent
    dual_q: tuple[Fraction, ...]  # per block


def _program(instance, partition):
    """Every agent's full value table at the market's scale (`block_tables`)
    and the program's undominated columns (agent, bundle-set mask), agent by
    agent by increasing mask.  The variable cap bounds n 2^k before any
    table is built, and so keeps k within `value_table`'s 20 blocks."""
    if instance.n << len(partition.blocks) > MAX_VARIABLES:
        raise SizeLimit("configuration LP would exceed the variable cap")
    tables = block_tables(instance, partition)
    masks = (_undominated_masks(instance, partition, i) for i in range(instance.n))
    return tables, [(i, mask) for i, kept in enumerate(masks) for mask in kept]


def _start(instance, partition, tables):
    """`simplex`'s start basis at the block DP's optimum over the partition:
    (agent row i, column, t_i[S]) for each agent i whose DP bundle S_i has
    t_i[S_i] > 0, with S the largest undominated mask within S_i of the
    same value.  S is S_i itself when S_i is undominated (a strict subset
    of the same value would dominate it), as it is for agents 1..n-2; the
    first and last agents' bundles may be dominated, and S drops the blocks
    that add nothing to them.  The DP's bundles are disjoint, so each
    column meets only its own agent row among the start rows, and every
    block row keeps its slack: the block rows of the S's start at
    right-hand side 0, the others at 1."""
    start = []
    offset = 0
    for i, (table, s) in enumerate(zip(tables, _optimum(instance, partition)[0])):
        masks = _undominated_masks(instance, partition, i)
        value = table[s]
        pos = bisect_right(masks, s) if value else 0
        while pos:
            pos -= 1
            mask = masks[pos]
            if mask | s == s and table[mask] == value:
                start.append((i, offset + pos, value))
                break
        offset += len(masks)
    return start


def _check_full_dual(tables, d, dual_u, dual_q) -> None:
    """CertificateError when some u_i + q(S) < v_i(S), with the duals given
    as numerators over d and the tables at the program's scale, compared in
    integers; else the pruned program's dual is feasible, and optimal, for
    the full one, whose every column this checks."""
    paid = subset_sums(dual_q)
    for table, u in zip(tables, dual_u):
        if max([d * value - cost for value, cost in zip(table, paid)]) > u:
            raise CertificateError("configuration-LP dual misses a pruned column")


def _solve(instance, partition):
    """The program over `_program`'s columns, pivoted by `simplex` on its
    slack block from `_start`.

    Column (i, S) is agent row i plus the block rows in S, so its reduced
    cost is d t_i[S] + lam_i + Q[S], with Q the block multipliers' subset
    sums, built once per pivot.  The answer is re-checked from the basis
    alone, in integers: the primal fills no row past d, the duals are
    nonnegative and sum to the value, and `_check_full_dual` holds.
    """
    tables, columns = _program(instance, partition)
    n = instance.n

    def price(d, lam):
        paid = subset_sums(lam[n:])
        return [d * tables[i][mask] + lam[i] + paid[mask] for i, mask in columns]

    def column(j):
        i, mask = columns[j]
        return [(i, 1)] + [(n + b, 1) for b in bits_of(mask)]

    rows = n + len(partition.blocks)
    basic = simplex(len(columns), [1] * rows, price, column, _start(instance, partition, tables))
    if basic.status != OPTIMAL:
        raise CertificateError("configuration LPs are feasible and bounded")
    d = basic.d
    filled = [0] * rows
    value = 0
    y = {}
    for j, x in zip(basic.basis, basic.values):
        if j >= len(columns) or not x:
            continue
        i, mask = columns[j]
        if x < 0:
            raise CertificateError("configuration-LP primal is negative")
        filled[i] += x
        for b in bits_of(mask):
            filled[n + b] += x
        value += tables[i][mask] * x
        y[i, mask] = Fraction(x, d)
    if max(filled) > d:
        raise CertificateError("configuration-LP primal overfills a row")
    if min(basic.dual) < 0:
        raise CertificateError("configuration-LP dual is negative")
    if sum(basic.dual) != value:
        raise CertificateError("configuration-LP duals do not sum to its optimum")
    _check_full_dual(tables, d, basic.dual[:n], basic.dual[n:])
    unit = d * instance.scale
    dual = [Fraction(num, unit) for num in basic.dual]
    return ConfigLPSolution(
        Fraction(value, unit), MappingProxyType(y), tuple(dual[:n]), tuple(dual[n:])
    )


def fractional_opt(instance: Instance, partition: Partition) -> ConfigLPSolution:
    """Exact fractional optimum with its dual certificate.

    Scaling the objective by a positive constant changes no sign and no
    ratio test, so the pivots, and with them the primal, are the unscaled
    program's; the value and the duals are divided back by the scale.  The
    first call per partition solves, and later calls on the same instance
    return that same solution (`Instance.config_lps`).
    """
    check_fits(instance, partition, Partition)
    memo = instance.config_lps
    sol = memo.get(partition.blocks)
    if sol is None:
        sol = memo[partition.blocks] = _solve(instance, partition)
    return sol


def supporting_prices(instance: Instance, x: Allocation) -> Outcome:
    """Bundle prices certifying the allocation, from the LP dual.

    Raises NotMCCWE (with the exact gap) when the fractional optimum
    strictly exceeds the allocation's welfare.
    """
    check_fits(instance, x, Allocation)
    partition, owners = induced_partition(x)
    sol = fractional_opt(instance, partition)
    welfare = social_welfare(instance, x)
    if sol.value != welfare:
        raise NotMCCWE(sol.value - welfare)
    prices = [_ZERO] * instance.n
    for idx, owner in enumerate(owners):
        if owner == UNALLOCATED:
            # Complementary slackness: the unsold block's row is slack in the
            # integral optimum, so every optimal dual prices it at zero.
            if sol.dual_q[idx] != 0:
                raise CertificateError("unallocated block priced by the dual")
        else:
            prices[owner] = sol.dual_q[idx]
    return Outcome(x, prices=tuple(prices))

