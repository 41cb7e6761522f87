"""The exact `Fraction` simplex that `mccwe.lp` replaced, kept as a reference.

A dense one-phase primal simplex over `Fraction` entries, on packing-shaped
programs given by their rows, with three pivot rules:

* `LEXICOGRAPHIC`, the library's: the largest positive reduced cost
  (Dantzig's rule), lowest index on ties, and the lexicographic ratio test
  (Dantzig, Orden and Wolfe 1955) over the right-hand side, then the slack
  columns of the rows that do not start basic in a structural column, then
  those of the rows that do, each by row;
* `BLAND`: the first positive reduced cost, the rule the library entered
  by before Dantzig's;
* `DANTZIG`: the largest positive reduced cost, as the library enters.

`BLAND` and `DANTZIG` break ratio-test ties by the smallest basis index,
under which `DANTZIG` can cycle.  Every rule raises `Cycled` when a basis
recurs.  A solve may start from a caller's basis instead of the slacks: the
dense tableau is first pivoted on each (row, column) of the start, and
those pivots are not counted.  Tests compare the library's `simplex`
(`library_solve` runs it on the rows) with `LEXICOGRAPHIC` on status,
primal, dual, value and pivot count; the integer tableau must reproduce
every pivot choice, so the answers are identical, not merely equal in
value.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from mccwe.errors import CertificateError
from mccwe.lp import OPTIMAL, UNBOUNDED, simplex

# max objective . x subject to coeffs . x <= rhs for each (coeffs, rhs), x >= 0
LinearProgram = namedtuple("LinearProgram", "objective constraints")
LPSolution = namedtuple("LPSolution", "status primal dual objective_value pivots")

_ZERO = Fraction(0)
_ONE = Fraction(1)

LEXICOGRAPHIC = "lexicographic"
BLAND = "bland"
DANTZIG = "dantzig"

# Far more pivots than any program of the tests takes.
MAX_PIVOTS = 10_000


class Cycled(Exception):
    """A rule met a basis it had left before, so it would pivot forever."""


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


def _entering(obj, ncols, first):
    """The first column with a positive reduced cost if `first`, else the
    one with the largest, lowest index on ties; -1 if there is none."""
    entering = -1
    for j in range(ncols):
        if obj[j] > 0:
            if first:
                return j
            if entering < 0 or obj[j] > obj[entering]:
                entering = j
    return entering


def _run_simplex(tableau, basis, obj, rule, order):
    """Simplex to optimality by `rule`: OPTIMAL or UNBOUNDED, and the pivots.
    `order` lists the tableau's columns after the right-hand side that the
    lexicographic ratio test compares."""
    ncols = len(obj) - 1
    pivots = 0
    seen = {tuple(basis)}
    while True:
        entering = _entering(obj, ncols, rule == BLAND)
        if entering < 0:
            return OPTIMAL, pivots
        candidates = []
        for r, row in enumerate(tableau):
            coeff = row[entering]
            if coeff > 0:
                if rule == LEXICOGRAPHIC:
                    key = tuple(row[k] / coeff for k in [-1, *order])
                else:
                    key = (row[-1] / coeff, basis[r])
                candidates.append((key, r))
        if not candidates:
            return UNBOUNDED, pivots
        leaving = min(candidates)[1]
        _pivot(tableau, obj, leaving, entering)
        basis[leaving] = entering
        pivots += 1
        if tuple(basis) in seen:
            raise Cycled(f"basis {basis} recurs after {pivots} pivots")
        seen.add(tuple(basis))


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


def solve(lp: LinearProgram, rule: str = LEXICOGRAPHIC, start=()) -> LPSolution:
    """Exact optimum of a packing-shaped LP by `rule`.

    `start` holds (row, column) pairs: the slack tableau is pivoted on each
    in turn, uncounted, and the run starts from the basis that leaves.
    Returns status optimal (with primal, dual, value and pivots) or
    unbounded (with pivots).
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
    for row, col in start:
        _pivot(tableau, obj, row, col)
        basis[row] = col
    starts = {row for row, _col in start}
    order = [n + i for i in range(n_rows) if i not in starts]
    order += [n + i for i in range(n_rows) if i in starts]
    status, pivots = _run_simplex(tableau, basis, obj, rule, order)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None, None, pivots)

    primal = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            primal[b] = tableau[r][-1]
    value = sum((lp.objective[j] * primal[j] for j in range(n)), _ZERO)
    dual = [-obj[n + i] for i in range(n_rows)]

    _check_certificates(lp, primal, dual, value)
    return LPSolution(OPTIMAL, tuple(primal), tuple(dual), value, pivots)


def solve_lp(lp: LinearProgram, start=()) -> LPSolution:
    """`solve` by the library's rule, LEXICOGRAPHIC."""
    return solve(lp, LEXICOGRAPHIC, start)


def library_solve(lp: LinearProgram, start=()) -> LPSolution:
    """The library's integer `simplex` on the program, priced from its rows,
    from the (row, column) pairs of `start`.  `simplex` prices once per
    pivot and once more to stop, so a rule that cycles raises `Cycled`
    after `MAX_PIVOTS` pivots instead of running forever."""
    rows = [coeffs for coeffs, _rhs in lp.constraints]
    pricings = iter(range(MAX_PIVOTS + 1))

    def price(d, lam):
        if next(pricings, None) is None:
            raise Cycled(f"no optimum after {MAX_PIVOTS} pivots")
        costs = [sum(y * row[j] for y, row in zip(lam, rows)) for j in range(len(lp.objective))]
        return [d * c + cost for c, cost in zip(lp.objective, costs)]

    def column(j):
        return [(r, row[j]) for r, row in enumerate(rows) if row[j]]

    rhs = [b for _coeffs, b in lp.constraints]
    triples = [(r, j, lp.objective[j]) for r, j in start]
    return read_basis(lp.objective, simplex(len(lp.objective), rhs, price, column, triples))


def read_basis(objective, basic) -> LPSolution:
    """A `simplex` basis over these objective coefficients, in `Fraction`s."""
    if basic.status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None, None, basic.pivots)
    primal = [_ZERO] * len(objective)
    for j, x in zip(basic.basis, basic.values):
        if j < len(objective):
            primal[j] = Fraction(x, basic.d)
    value = sum((c * x for c, x in zip(objective, primal)), _ZERO)
    dual = tuple(Fraction(y, basic.d) for y in basic.dual)
    return LPSolution(OPTIMAL, tuple(primal), dual, value, basic.pivots)
