"""Exact rational-arithmetic linear programming.

Everything here runs on `fractions.Fraction`; there is no floating point
anywhere in the package.  The solver is a dense one-phase primal simplex
with Bland's pivoting rule, which terminates even on the highly degenerate
programs produced by configuration LPs.  Speed is a non-goal; exactness and
determinism are the contract.

Conventions
-----------
* Programs are packing-shaped: maximize c.x subject to A x <= b, x >= 0,
  with every right-hand side b_i >= 0, so the origin is feasible and the
  slacks are the starting basis.  A row with a negative right-hand side is
  rejected when the program is built.
* Each row's dual y_i >= 0 is read off the final reduced cost of its
  slack column; no separate dual solve runs.
* For every optimal result, primal feasibility, dual feasibility and exact
  strong duality (c.x == y.b) are re-checked before returning.  A failed
  check raises `CertificateError`, also under `python -O`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, MalformedLP, SizeLimit

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

MAX_VARIABLES = 200_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x  subject to coeffs . x <= rhs for each row, x >= 0."""

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self):
        width = len(self.objective)
        if width > MAX_VARIABLES:
            raise SizeLimit(f"{width} variables exceeds the {MAX_VARIABLES} cap")
        for idx, (coeffs, rhs) in enumerate(self.constraints):
            if len(coeffs) != width:
                raise MalformedLP(f"row {idx} has width {len(coeffs)}, expected {width}")
            if rhs < 0:
                raise MalformedLP(f"row {idx} has negative right-hand side {rhs}")


@dataclass(frozen=True)
class LPSolution:
    status: str
    primal: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None
    objective_value: Fraction | None


def _pivot(tableau, obj, row, col):
    """Pivot the tableau (rows of length ncols+1, rhs last) on (row, col)."""
    pivrow = tableau[row]
    inv = _ONE / pivrow[col]
    if inv != _ONE:
        tableau[row] = pivrow = [v * inv for v in pivrow]
    width = len(pivrow)
    for r, other in enumerate(tableau):
        if r == row:
            continue
        factor = other[col]
        if factor:
            tableau[r] = [other[k] - factor * pivrow[k] for k in range(width)]
    factor = obj[col]
    if factor:
        for k in range(width):
            obj[k] -= factor * pivrow[k]


def _run_simplex(tableau, basis, obj):
    """Bland-rule simplex to optimality; returns OPTIMAL or UNBOUNDED."""
    ncols = len(obj) - 1
    while True:
        entering = -1
        for j in range(ncols):
            if obj[j] > 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        leaving = -1
        best_ratio = None
        for r, row in enumerate(tableau):
            coeff = row[entering]
            if coeff > 0:
                ratio = row[-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return UNBOUNDED
        _pivot(tableau, obj, leaving, entering)
        basis[leaving] = entering


def _check_certificates(lp, primal, dual, value):
    n = len(lp.objective)
    if any(x < 0 for x in primal):
        raise CertificateError("primal negativity")
    for (coeffs, rhs), y in zip(lp.constraints, dual):
        lhs = sum((coeffs[j] * primal[j] for j in range(n)), _ZERO)
        if not (lhs <= rhs and y >= 0):
            raise CertificateError("primal/dual sign violation on <= row")
    for j in range(n):
        col = sum((coeffs[j] * y for (coeffs, _rhs), y in zip(lp.constraints, dual)), _ZERO)
        if col < lp.objective[j]:
            raise CertificateError("dual infeasibility")
    dual_value = sum((rhs * y for (_c, rhs), y in zip(lp.constraints, dual)), _ZERO)
    if dual_value != value:
        raise CertificateError("strong duality gap")


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Exact optimum of a packing-shaped LP (see the module conventions).

    Returns status optimal (with primal, dual and value) or unbounded.
    Deterministic: Bland's rule fixes every pivot choice.
    """
    n = len(lp.objective)
    n_rows = len(lp.constraints)

    # Row i's slack is column n + i and starts basic; the objective row holds
    # the reduced costs c_j - z_j, which are c itself at the slack basis.
    tableau = []
    for i, (coeffs, rhs) in enumerate(lp.constraints):
        row = list(coeffs) + [_ZERO] * n_rows + [rhs]
        row[n + i] = _ONE
        tableau.append(row)
    basis = list(range(n, n + n_rows))
    obj = list(lp.objective) + [_ZERO] * (n_rows + 1)
    if _run_simplex(tableau, basis, obj) == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None, None)

    primal = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            primal[b] = tableau[r][-1]
    value = sum((lp.objective[j] * primal[j] for j in range(n)), _ZERO)
    dual = [-obj[n + i] for i in range(n_rows)]

    _check_certificates(lp, primal, dual, value)
    return LPSolution(OPTIMAL, tuple(primal), tuple(dual), value)
