"""Configuration LP over a partitioned market, and what it certifies.

For a partition into k blocks the LP has one variable y[i, S] per agent i
and nonempty block subset S, maximizing total reduced value subject to one
row per agent (at most one set) and one row per block (sold at most once).

An allocation is supportable as a market-clearing bundle equilibrium exactly
when this LP, built over the allocation's own induced partition, attains its
optimum at that allocation; supporting bundle prices then fall out of the
dual block variables by complementary slackness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, NotMCCWE, SizeLimit
from .lp import MAX_VARIABLES, OPTIMAL, LinearProgram, solve_lp
from .market import (
    Allocation,
    Instance,
    Outcome,
    Partition,
    UNALLOCATED,
    check_fits,
    induced_partition,
    social_welfare,
)
from .valuations import value_table

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ConfigLPSolution:
    """The configuration LP's exact optimum in the market's own values: the
    LP runs on values times `Instance.scale`, and its value and duals are
    divided back by it."""

    value: Fraction
    y: dict  # (agent, bundle-set mask) -> Fraction, nonzero entries only
    dual_u: tuple[Fraction, ...]  # per agent
    dual_q: tuple[Fraction, ...]  # per block


def _check_size(n: int, k: int) -> None:
    if k > 16:
        raise SizeLimit(f"{k} blocks exceeds the configuration-LP cap")
    if n * (1 << k) > MAX_VARIABLES:
        raise SizeLimit("configuration LP would exceed the variable cap")


def build_config_lp(instance: Instance, partition: Partition) -> LinearProgram:
    """One variable per (agent, nonempty block subset); n + k rows.

    The objective is every agent's integer value table at the market's
    scale (`Instance.scale`), so the program's optimum and duals are the
    configuration LP's times that scale; every row is 0/1 with right-hand
    side 1.
    """
    check_fits(instance, partition, Partition)
    n = instance.n
    k = len(partition.blocks)
    _check_size(n, k)
    sets_per_agent = (1 << k) - 1

    objective = []
    for v in instance.agents:
        objective.extend(value_table(v, partition, instance.scale)[1:])

    rows = []
    for i in range(n):
        coeffs = [0] * (i * sets_per_agent) + [1] * sets_per_agent
        coeffs += [0] * ((n - i - 1) * sets_per_agent)
        rows.append((tuple(coeffs), 1))
    for j in range(k):
        rows.append((tuple(mask >> j & 1 for mask in range(1, 1 << k)) * n, 1))
    return LinearProgram(tuple(objective), tuple(rows))


def fractional_opt(instance: Instance, partition: Partition) -> ConfigLPSolution:
    """Exact fractional optimum with its dual certificate.

    Scaling the objective by a positive constant changes no sign and no
    ratio test, so the pivots, and with them the primal, are the unscaled
    program's; the value and the duals are divided back by the scale.
    """
    lp = build_config_lp(instance, partition)
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise CertificateError("configuration LPs are feasible and bounded")
    if sum(sol.dual) != sol.objective_value:
        raise CertificateError("configuration-LP duals do not sum to its optimum")
    n = instance.n
    k = len(partition.blocks)
    sets_per_agent = (1 << k) - 1
    y = {}
    for idx, val in enumerate(sol.primal):
        if val:
            agent, offset = divmod(idx, sets_per_agent)
            y[(agent, offset + 1)] = val
    scale = instance.scale
    dual = [d / scale for d in sol.dual]
    return ConfigLPSolution(sol.objective_value / scale, y, tuple(dual[:n]), tuple(dual[n:]))


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

