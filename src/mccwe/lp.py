"""Exact rational-arithmetic linear programming.

Everything here runs on `fractions.Fraction`; there is no floating point
anywhere in the package.  The solver is a dense two-phase primal simplex
with Bland's pivoting rule, which terminates even on the highly degenerate
programs produced by configuration LPs.  Speed is a non-goal; exactness and
determinism are the contract.

Conventions
-----------
* Programs are maximizations over nonnegative variables.
* Constraint relations are the strings "<=", ">=", "=".
* Dual values are reported in the original row orientation: rows with
  relation "<=" get duals >= 0, rows with ">=" get duals <= 0, equality rows
  are free.  They are read off the final reduced costs of each row's slack,
  surplus or artificial column; no separate dual solve runs.
* For every optimal result, primal feasibility, dual feasibility and exact
  strong duality (c.x == y.b) are re-checked before returning.  A failed
  check raises `CertificateError`, also under `python -O`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, MalformedLP, SizeLimit

Rat = Fraction

LE = "<="
GE = ">="
EQ = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

MAX_VARIABLES = 200_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x  subject to the given rows, x >= 0."""

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]

    def __post_init__(self):
        width = len(self.objective)
        if width > MAX_VARIABLES:
            raise SizeLimit(f"{width} variables exceeds the {MAX_VARIABLES} cap")
        for idx, (coeffs, relation, _rhs) in enumerate(self.constraints):
            if len(coeffs) != width:
                raise MalformedLP(f"row {idx} has width {len(coeffs)}, expected {width}")
            if relation not in (LE, GE, EQ):
                raise MalformedLP(f"row {idx} has unknown relation {relation!r}")


@dataclass(frozen=True)
class LPSolution:
    status: str
    primal: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None
    objective_value: Fraction | None


def make_lp(objective, constraints) -> LinearProgram:
    """Build a LinearProgram from plain lists of ints/Fractions."""
    obj = tuple(Fraction(c) for c in objective)
    rows = tuple(
        (tuple(Fraction(a) for a in coeffs), relation, Fraction(rhs))
        for coeffs, relation, rhs in constraints
    )
    return LinearProgram(obj, rows)


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


def _reduced_costs(tableau, basis, costs, ncols):
    """Objective row c_j - z_j plus the current value in the last slot."""
    obj = [costs[j] for j in range(ncols)] + [_ZERO]
    for r, row in enumerate(tableau):
        cb = costs[basis[r]]
        if cb:
            for k in range(ncols + 1):
                obj[k] -= cb * row[k]
    return obj


def _run_simplex(tableau, basis, obj, n_enter):
    """Bland-rule simplex to optimality; returns OPTIMAL or UNBOUNDED.

    Only the columns below `n_enter` may enter the basis.
    """
    while True:
        entering = -1
        for j in range(n_enter):
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
    for (coeffs, relation, rhs), y in zip(lp.constraints, dual):
        lhs = sum((coeffs[j] * primal[j] for j in range(n)), _ZERO)
        if relation == LE:
            if not (lhs <= rhs and y >= 0):
                raise CertificateError("primal/dual sign violation on <= row")
        elif relation == GE:
            if not (lhs >= rhs and y <= 0):
                raise CertificateError("primal/dual sign violation on >= row")
        elif lhs != rhs:
            raise CertificateError("equality row violated")
    for j in range(n):
        col = sum(
            (coeffs[j] * y for (coeffs, _rel, _rhs), y in zip(lp.constraints, dual)),
            _ZERO,
        )
        if col < lp.objective[j]:
            raise CertificateError("dual infeasibility")
    dual_value = sum(
        (rhs * y for (_c, _rel, rhs), y in zip(lp.constraints, dual)), _ZERO
    )
    if dual_value != value:
        raise CertificateError("strong duality gap")


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Exact optimum of a maximization LP over nonnegative variables.

    Returns status optimal (with primal, dual and value), infeasible, or
    unbounded.  Deterministic: Bland's rule fixes every pivot choice.
    """
    n = len(lp.objective)

    # Standard form: rhs >= 0 (a row with rhs < 0 is negated, sign -1),
    # one slack per <=, one surplus per >=, artificials for >= and = rows.
    rows = [
        ([-a for a in coeffs], _flip(relation), -rhs, -1)
        if rhs < 0
        else (list(coeffs), relation, rhs, 1)
        for coeffs, relation, rhs in lp.constraints
    ]
    n_slack = sum(1 for _c, rel, _b, _s in rows if rel in (LE, GE))
    n_art = sum(1 for _c, rel, _b, _s in rows if rel in (GE, EQ))
    n_real = n + n_slack
    ncols = n_real + n_art

    # Row i's dual is read off the final reduced cost of its dual column:
    # y = -cost at its slack (<=), +cost at its surplus (>=), -cost at its
    # artificial (=), negated again when the row was flipped.
    tableau = []
    basis = []
    dual_cols = []
    slack_at = n
    art_at = n_real
    for coeffs, relation, rhs, sign in rows:
        row = coeffs + [_ZERO] * (n_slack + n_art) + [rhs]
        if relation == LE:
            row[slack_at] = _ONE
            dual_cols.append((slack_at, -sign))
            basis.append(slack_at)
            slack_at += 1
        elif relation == GE:
            row[slack_at] = -_ONE
            dual_cols.append((slack_at, sign))
            slack_at += 1
            row[art_at] = _ONE
            basis.append(art_at)
            art_at += 1
        else:
            row[art_at] = _ONE
            dual_cols.append((art_at, -sign))
            basis.append(art_at)
            art_at += 1
        tableau.append(row)

    if n_art:
        costs = [_ZERO] * n_real + [-_ONE] * n_art
        obj = _reduced_costs(tableau, basis, costs, ncols)
        if _run_simplex(tableau, basis, obj, ncols) != OPTIMAL:
            raise CertificateError("phase 1 cannot be unbounded")
        if obj[-1] != 0:
            return LPSolution(INFEASIBLE, None, None, None)
        # Pivot leftover artificials out of the basis.  An all-zero row is
        # redundant and is dropped; the artificial basic in it keeps reduced
        # cost 0, so the row that owns that artificial reads a dual of 0.
        r = 0
        while r < len(tableau):
            if basis[r] >= n_real:
                col = next((j for j in range(n_real) if tableau[r][j] != 0), None)
                if col is None:
                    del tableau[r]
                    del basis[r]
                    continue
                _pivot(tableau, obj, r, col)
                basis[r] = col
            r += 1

    # Phase 2 keeps the artificial columns, at cost 0, but never lets them
    # enter: their reduced costs are the duals of the = rows.
    costs = list(lp.objective) + [_ZERO] * (ncols - n)
    obj = _reduced_costs(tableau, basis, costs, ncols)
    if _run_simplex(tableau, basis, obj, n_real) == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None, None)

    primal = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            primal[b] = tableau[r][-1]
    value = sum((lp.objective[j] * primal[j] for j in range(n)), _ZERO)
    dual = [sign * obj[col] for col, sign in dual_cols]

    _check_certificates(lp, primal, dual, value)
    return LPSolution(OPTIMAL, tuple(primal), tuple(dual), value)


def _flip(relation: str) -> str:
    if relation == LE:
        return GE
    if relation == GE:
        return LE
    return EQ
