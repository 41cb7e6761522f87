"""Configuration LP over a partitioned market, and what it certifies.

For a partition into k blocks the LP has one variable y[i, S] per agent i
and nonempty block subset S, maximizing total reduced value subject to one
row per agent (at most one set) and one row per block (sold at most once).

An allocation is supportable as a market-clearing bundle equilibrium exactly
when this LP, built over the allocation's own induced partition, attains its
optimum at that allocation; supporting bundle prices then fall out of the
dual block variables by complementary slackness.

The program is built over undominated columns only: (i, S) is kept when
v_i(S) exceeds v_i of S minus any one block.  Valuations are monotone and
block duals nonnegative, so a dual that covers the undominated columns
covers the rest (u_i + q(S) >= u_i + q(S - j) >= v_i(S - j) = v_i(S)), and
the smaller program has the full one's value and optimal duals.
`fractional_opt` re-checks its dual in integers against every column of the
full program, and solves each partition of a market once: its solutions are
kept on the `Instance`, keyed by the partition's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import CertificateError, NotMCCWE, SizeLimit
from .lp import MAX_VARIABLES, OPTIMAL, LinearProgram, solve_lp
from .market import (
    Allocation,
    Instance,
    Outcome,
    Partition,
    UNALLOCATED,
    block_tables,
    check_fits,
    induced_partition,
    social_welfare,
)
from .valuations import _utilities

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


def _undominated(table: tuple[int, ...]) -> list[int]:
    """The nonempty bundle-set masks S with table[S] > table[S minus any one
    block], in increasing order; table[S] > 0 follows, as table[0] is 0."""
    kept = []
    for mask in range(1, len(table)):
        value = table[mask]
        rest = mask
        while rest:
            low = rest & -rest
            if table[mask ^ low] >= value:
                break
            rest ^= low
        else:
            kept.append(mask)
    return kept


def _program(instance, partition):
    """The configuration LP, each column's (agent, bundle-set mask), and
    every agent's full value table at the market's scale (`block_tables`)."""
    n = instance.n
    k = len(partition.blocks)
    if n << k > MAX_VARIABLES:
        raise SizeLimit("configuration LP would exceed the variable cap")
    tables = block_tables(instance, partition)
    columns = [(i, mask) for i, table in enumerate(tables) for mask in _undominated(table)]
    objective = tuple(tables[i][mask] for i, mask in columns)
    rows = [(tuple(int(agent == i) for agent, _mask in columns), 1) for i in range(n)]
    rows += [(tuple(mask >> j & 1 for _agent, mask in columns), 1) for j in range(k)]
    return LinearProgram(objective, tuple(rows)), columns, tables


def build_config_lp(instance: Instance, partition: Partition) -> LinearProgram:
    """One variable per agent and undominated nonempty block subset; n + k rows.

    Column (i, S) is kept when v_i(S) > v_i(S minus any one block), so also
    v_i(S) > 0; columns run agent by agent, by increasing mask.  The
    objective is each kept value at the market's scale (`Instance.scale`),
    so the program's optimum and duals are the configuration LP's times
    that scale; every row is 0/1 with right-hand side 1.  The variable cap
    bounds n 2^k, past the full program's n(2^k - 1) columns, before any
    table is built, and so keeps k within `value_table`'s 20 blocks.
    """
    check_fits(instance, partition, Partition)
    return _program(instance, partition)[0]


def _check_full_dual(tables, dual_u, dual_q) -> None:
    """CertificateError when some utility v_i(S) - q(S) at the block duals
    exceeds u_i, compared in integers; else u_i + q(S) >= v_i(S) everywhere,
    and the pruned program's dual is feasible, and optimal, for the full one."""
    for (row, unit), u in zip(_utilities(tables, 1, dual_q), dual_u):
        if max(row) * u.denominator > u.numerator * unit:
            raise CertificateError("configuration-LP dual misses a pruned column")


def _solve(instance, partition):
    lp, columns, tables = _program(instance, partition)
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise CertificateError("configuration LPs are feasible and bounded")
    if sum(sol.dual) != sol.objective_value:
        raise CertificateError("configuration-LP duals do not sum to its optimum")
    n = instance.n
    _check_full_dual(tables, sol.dual[:n], sol.dual[n:])
    y = {columns[idx]: val for idx, val in enumerate(sol.primal) if val}
    scale = instance.scale
    dual = [d / scale for d in sol.dual]
    return ConfigLPSolution(
        sol.objective_value / scale, MappingProxyType(y), tuple(dual[:n]), tuple(dual[n:])
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

