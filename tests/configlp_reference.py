"""The dense configuration LP that `mccwe.configlp` replaced, kept as a reference.

`build_config_lp` builds every one of the n(2^k - 1) columns (agent,
nonempty block set), agent by agent in increasing mask order, as the
library did before it kept undominated columns only; `pruned_config_lp`
builds the library's program as rows.  `dense_opt` solves the dense
program with the library's integer simplex, and `covers_every_column`
checks a dual against each of its columns in `Fraction`s, from the
valuations' own data (`value_reference`), not from the integer tables.
`check_full_dual` is the integer re-check the library ran before it read
utilities from the one block-utility routine.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from lp_reference import LinearProgram, library_solve
from mccwe.bits import bits_of, subset_sums
from mccwe.configlp import _program
from mccwe.errors import CertificateError
from mccwe.lp import OPTIMAL
from mccwe.market import induced_partition, social_welfare
from mccwe.valuations import value_table
from value_reference import reduced_value


def build_config_lp(instance, partition) -> LinearProgram:
    """One variable per (agent, nonempty block subset); n + k rows, at the
    market's scale."""
    n = instance.n
    k = len(partition.blocks)
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


def pruned_config_lp(instance, partition) -> LinearProgram:
    """The library's program: its undominated columns, n agent rows and k
    block rows, each with right-hand side 1."""
    tables, columns = _program(instance, partition)
    k = len(partition.blocks)
    rows = [tuple(int(agent == i) for agent, _mask in columns) for i in range(instance.n)]
    rows += [tuple(mask >> j & 1 for _agent, mask in columns) for j in range(k)]
    objective = tuple(tables[i][mask] for i, mask in columns)
    return LinearProgram(objective, tuple((row, 1) for row in rows))


def dense_opt(instance, partition) -> tuple[Fraction, tuple, tuple]:
    """(value, agent duals, block duals) of the dense LP, in market units."""
    sol = library_solve(build_config_lp(instance, partition))
    assert sol.status == OPTIMAL
    dual = [d / instance.scale for d in sol.dual]
    return sol.objective_value / instance.scale, tuple(dual[: instance.n]), tuple(dual[instance.n :])


def covers_every_column(instance, partition, dual_u, dual_q) -> bool:
    """Is the dual feasible for the dense LP: u_i + q(S) >= v_i(S) for every
    agent i and nonempty block set S, with nonnegative duals?"""
    if any(d < 0 for d in (*dual_u, *dual_q)):
        return False
    for i, v in enumerate(instance.agents):
        for bundle_set in range(1, 1 << len(partition.blocks)):
            paid = sum((dual_q[j] for j in bits_of(bundle_set)), Fraction(0))
            if dual_u[i] + paid < reduced_value(v, partition, bundle_set):
                return False
    return True


def check_full_dual(tables, dual_u, dual_q) -> None:
    """CertificateError unless u_i + q(S) >= v_i(S) for every agent i and
    every block set S, in integers over the LCM of the duals' denominators."""
    unit = lcm(*(d.denominator for d in dual_u), *(d.denominator for d in dual_q))
    paid = subset_sums([q.numerator * (unit // q.denominator) for q in dual_q])
    for table, u in zip(tables, dual_u):
        u = u.numerator * (unit // u.denominator)
        if any(u + cost < value * unit for value, cost in zip(table, paid)):
            raise CertificateError("configuration-LP dual misses a pruned column")


def dense_supportable(instance, x) -> bool:
    """Does the dense LP over the allocation's induced partition peak at it?"""
    partition, _owners = induced_partition(x)
    return dense_opt(instance, partition)[0] == social_welfare(instance, x)
