"""The exact `Fraction` simplex that `mccwe.lp` replaced, kept as a reference.

A dense one-phase primal simplex over `Fraction` entries with Bland's rule,
on the same packing-shaped programs as `mccwe.lp.solve_lp`.  Tests compare
the two solvers' `(status, primal, dual, objective_value)` on the same
programs; the integer tableau must reproduce every pivot choice, so the
answers are identical, not merely equal in value.
"""

from __future__ import annotations

from fractions import Fraction

from mccwe.errors import CertificateError
from mccwe.lp import OPTIMAL, UNBOUNDED, LinearProgram, LPSolution

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
