"""Exact linear programming: one fraction-free integer simplex loop.

There is no floating point anywhere in the package.  The solver is a
one-phase primal simplex.  The entering column is the one with the largest
positive reduced cost (Dantzig's rule), which takes far fewer pivots than
Bland's rule (Math. Oper. Res. 1977).  Dantzig's rule alone can cycle on
degenerate programs, and configuration LPs are highly degenerate, so the
ratio test breaks ties lexicographically (Dantzig, Orden and Wolfe,
Pacific J. Math. 1955), which terminates under any entering rule.
The simplex pivots in integers (Edmonds 1967; Bareiss, Math. Comp. 1968):

* Programs come in integral: every objective coefficient, column entry and
  right-hand side is an `int`.  Callers scale their data once, as the
  configuration LP does with `Instance.scale`.
* The tableau's entries all share one running denominator d: the last
  pivot element, 1 at the start.  A pivot on p keeps the pivot row as it
  is, replaces each entry a of every other row by (a*p - a_c*r_k) // d,
  where a_c is the row's entry in the pivot column and r_k the pivot row's
  entry below a, and sets d = p.  Every entry is a minor of the program's
  matrix, so the division is exact; p > 0, so d stays positive.
* Only the slack block of the tableau is kept, with the right-hand side
  and the objective row's slack part, as in the revised simplex (Dantzig
  and Orchard-Hays 1954).  Every row is a fixed integer combination of the
  program's rows, and the slack block holds its multipliers, so a
  structural column and its reduced cost are computed from the caller's
  `price` and `column` closures when needed; no row is built.  The
  configuration LP prices its columns from the value tables, and the
  item-pricing LP from its columns.
* The ratio test cross-multiplies: every candidate pivot is positive, and
  all rows share d, so a row's ratios compare as its integers do.

Conventions
-----------
* Programs are packing-shaped: maximize c.x subject to A x <= b, x >= 0,
  with every right-hand side b_i >= 0, so the origin is feasible.
* A solve starts from the slacks, or from a caller's feasible basis
  ("advanced starting basis", Dantzig and Orchard-Hays 1954): each start
  row basic in a structural column with entry 1 there and none in another
  start row, every other row in its slack.  Such a basis matrix is I + N
  with N^2 = 0, so its inverse is I - N and its tableau is written down in
  closed form, with d = 1 and no factorization.
* At the optimum a basic variable is its row's right-hand side over d.
  Row i's dual y_i >= 0 is read off the final reduced cost of its slack
  column: y_i = -obj[slack_i] / d.  No separate dual solve runs.
* The caller re-checks every optimum in integers on its own program,
  apart from the loop: primal feasibility, dual feasibility and exact
  strong duality (c.x == y.b).  A failed check raises `CertificateError`,
  also under `python -O`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Basis:
    """Where `simplex` stopped: status optimal or unbounded, the running
    denominator d, each row's basic column, its right-hand side numerator
    (the basic variable's value times d), each row's dual numerator (minus
    its slack's reduced cost, over d) and the pivots taken."""

    status: str
    d: int
    basis: tuple[int, ...]
    values: tuple[int, ...]
    dual: tuple[int, ...]
    pivots: int


def simplex(ncols, rhs, price, column, start=()) -> Basis:
    """The one-phase simplex over ncols structural columns and one row, and
    one slack, per right-hand side, from the slack basis but for `start`.

    `start` holds (row r, column j, c_j) triples: row r starts basic in
    structural column j, of objective coefficient c_j.  Column j's entry in
    row r must be 1 and its entries in the other start rows 0, and the
    start rows must differ; else, or when the start is infeasible, the
    solve raises CertificateError.  With a_s column j's entry in row s, the
    start tableau is closed form (see the module docstring): slack row s
    is e_s - sum_r a_s e_r with right-hand side b_s - sum_r a_s b_r, start
    row r keeps e_r and b_r, and lam_r = -c_j.  A wrong c_j leaves column j
    a nonzero reduced cost, which the first pricing refuses.

    Only the slack block M of the fraction-free tableau, its right-hand
    side and the objective row's slack part (the multipliers lam) are kept.
    Every tableau row is a fixed integer combination of the program's rows,
    so structural column j of the tableau is M times the program's column
    A_j, and its reduced cost is d c_j + lam . A_j; slack r's is lam[r].
    `price(d, lam)` returns the structural reduced costs in column order,
    and `column(j)` column j's nonzero (row, coefficient) pairs.  These are
    the integers a full tableau would hold, so the pivots are its pivots.

    The entering column has the largest positive reduced cost, the lowest
    index on ties, slacks after the structural columns.  The leaving row is
    the lexicographic minimum, over the rows with a positive entry in the
    entering column, of (right-hand side, M's row) over that entry, M's
    columns in this order: the slack columns of the rows that start in
    their slacks, then the start rows' columns, each by row.  The rows of
    M are linearly independent, so no two rows tie.

    This terminates (Dantzig, Orden and Wolfe 1955).  Call a row positive
    when its first nonzero entry in that order is positive.  At the start
    every row is: each right-hand side is >= 0, slack row s has its 1 at
    column s, before the start rows' columns where its other entries lie,
    and start row r is e_r; the plain slack basis is the case of no start
    rows.  The lexicographic minimum keeps every row positive, so each
    pivot takes a positive multiple of a positive row from the objective
    row (minus the objective value, then lam in that order), which thus
    falls strictly in the lexicographic order.  The objective row is fixed
    by the basis, so no basis recurs, and there are finitely many.
    """
    size = len(rhs)
    # Rows of M with the right-hand side last; the last row is the objective
    # row's slack part, lam, without a right-hand side: nothing reads the value.
    tableau = [[0] * r + [1] + [0] * (size - r - 1) + [b] for r, b in enumerate(rhs)]
    objective = [0] * size
    tableau.append(objective)
    basis = list(range(ncols, ncols + size))
    rows = {r for r, _j, _c in start}
    if len(rows) != len(start) or not rows <= set(range(size)):
        raise CertificateError("start rows must be distinct rows of the program")
    for r, j, cost in start:
        if not 0 <= j < ncols:
            raise CertificateError(f"start column {j} is not a structural column")
        entries = dict(column(j))
        if entries.pop(r, 0) != 1 or not rows.isdisjoint(entries):
            raise CertificateError(f"start column {j} is not a unit column of its start row {r}")
        for s, a in entries.items():
            tableau[s][r] -= a
            tableau[s][-1] -= a * rhs[r]
        basis[r] = j
        objective[r] = -cost
    if min([row[-1] for row in tableau[:size]], default=0) < 0:
        raise CertificateError("the start basis is infeasible")
    d = 1
    pivots = 0
    status = OPTIMAL
    # The right-hand side, then M's columns in the lexicographic order.
    order = [-1] + sorted(range(size), key=rows.__contains__)
    while True:
        lam = tableau[-1][:size]
        reduced = price(d, lam) + lam
        if any(reduced[b] for b in basis):
            raise CertificateError("the pricing gives a basic column a nonzero reduced cost")
        top = max(reduced, default=0)
        if top <= 0:
            break
        entering = reduced.index(top)
        if entering < ncols:
            factors = [0] * size
            for s, a in column(entering):
                factors = [f + a * row[s] for f, row in zip(factors, tableau)]
            factors.append(reduced[entering])
        else:
            factors = [row[entering - ncols] for row in tableau]
        leaving = -1
        for r, coeff in enumerate(factors[:size]):
            if coeff > 0:
                if leaving >= 0:
                    # row r over coeff against the leader's row over its entry
                    row, best, lead = tableau[r], tableau[leaving], factors[leaving]
                    for k in order:  # M's rows are independent: some k differs
                        if diff := row[k] * lead - best[k] * coeff:
                            break
                    if diff > 0:
                        continue
                leaving = r
        if leaving < 0:
            status = UNBOUNDED
            break
        pivrow = tableau[leaving]
        p = factors[leaving]
        pivots += 1
        for r, row in enumerate(tableau):
            if r == leaving:
                continue
            factor = factors[r]
            if not factor:
                if p != d:
                    tableau[r] = [a * p // d for a in row]
            elif p == d:  # d divides factor * k; most pivots of a 0/1 program
                tableau[r] = [a - factor * k // d for a, k in zip(row, pivrow)]
            else:
                tableau[r] = [(a * p - factor * k) // d for a, k in zip(row, pivrow)]
        d = p
        basis[leaving] = entering
    values = tuple(row[-1] for row in tableau[:size])
    return Basis(status, d, tuple(basis), values, tuple(-y for y in tableau[-1][:size]), pivots)

