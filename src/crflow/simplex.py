"""Revised simplex method for linear programs in standard form.

Solves   minimize c.x   subject to   A x = b,  x >= 0
from a feasible starting basis that the caller supplies, so no phase 1 is
needed. The inverse of the m x m basis matrix B is kept up to date by a
rank-one (eta) update at each pivot, the product form of the inverse, and
computed afresh with one `np.linalg.inv` every REFACTOR_EVERY pivots.
Optimality is declared only on a fresh inverse: when pricing finds no
improving column on an updated one, B is inverted again and priced again.
So rounding cannot build up from pivot to pivot in what is returned: the
basic solution x_B = B^-1 b and the simplex multipliers y = c_B B^-1 of the
final basis carry the error of one inversion of B, however many pivots led
there. All columns are priced in one product, c - y A. The entering
column is chosen by Dantzig's rule (most negative reduced cost); once the
objective has stalled for more than m + 10 pivots the solver switches for
good to Bland's rule (lowest improving index, lowest leaving label among
tied ratios), which guarantees termination on degenerate problems.

The multipliers are returned with the solution, so a caller can certify
optimality itself: at the optimum A^T y <= c up to the pivot tolerance and
b.y equals c.x.
"""

from __future__ import annotations

import numpy as np

from crflow.errors import NumericalError


# Absolute tolerance on reduced costs and on pivot entries.
PIVOT_TOL = 1e-9
# Relative tolerance within which two ratios of the ratio test tie.
TIE_TOL = 1e-13
# Pivots between two fresh inversions of the basis; the eta update between
# them costs O(m^2) where an inversion costs O(m^3).
REFACTOR_EVERY = 50


class SimplexError(NumericalError):
    """The solver hit an unbounded ray, a singular basis or its pivot budget."""


def _pivot_budget(m: int, n: int) -> int:
    return 20 * (m + n) + 1000


def _inverse(A, basis):
    try:
        return np.linalg.inv(A[:, basis])
    except np.linalg.LinAlgError:
        raise SimplexError("singular basis matrix") from None


def solve_lp(c, A, b, basis):
    """Return (value, x, y) of min c.x s.t. A x = b, x >= 0.

    basis lists the m columns of the starting basis, one per row of A; its
    basic solution must be feasible. y holds the simplex multipliers of
    the optimal basis, one per row. The pivot budget is 20 (m + n) + 1000
    for m rows and n columns.
    """
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    basis = np.array(basis, dtype=np.intp)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,) or basis.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if len(set(basis.tolist())) != m or np.any((basis < 0) | (basis >= n)):
        raise ValueError("basis must name m distinct columns of A")
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise SimplexError("LP data is not finite")
    max_pivots = _pivot_budget(m, n)

    inv = _inverse(A, basis)
    fresh = True
    pivots = 0
    use_bland = False
    stalled = 0
    last_obj = np.inf
    while True:
        x_basic = inv @ b
        c_basic = c[basis]
        y = c_basic @ inv
        obj = float(c_basic @ x_basic)
        if pivots == 0 and np.any(x_basic < -PIVOT_TOL * np.abs(b).max()):
            raise ValueError("starting basis is infeasible")
        red = c - y @ A
        red[basis] = 0.0
        if use_bland:
            improving = np.flatnonzero(red < -PIVOT_TOL)
            col = int(improving[0]) if improving.size else -1
        else:
            col = int(red.argmin())
            if red[col] >= -PIVOT_TOL:
                col = -1
        if col < 0:
            if fresh:
                break
            # A refresh is not a pivot: it spends no budget and no stall.
            inv = _inverse(A, basis)
            fresh = True
            continue
        if not use_bland:
            if obj >= last_obj - PIVOT_TOL:
                stalled += 1
                if stalled > m + 10:
                    use_bland = True
            else:
                stalled = 0
            last_obj = obj
        if pivots == max_pivots:
            raise SimplexError(
                f"simplex exceeded {max_pivots} pivots (m={m}, n={n})"
            )

        d = inv @ A[:, col]
        ok = d > PIVOT_TOL
        if not ok.any():
            raise SimplexError("LP is unbounded along column %d" % col)
        ratios = np.divide(np.maximum(x_basic, 0.0), d,
                           out=np.full(m, np.inf), where=ok)
        best = float(ratios.min())
        # Bland tie-break: smallest basic label among the ratios equal to
        # the minimum up to rounding. A looser tie would let a basic
        # variable go negative by the slack it allows.
        cand = np.flatnonzero(ratios <= best * (1.0 + TIE_TOL))
        r = cand[basis[cand].argmin()]
        basis[r] = col
        pivots += 1
        fresh = pivots % REFACTOR_EVERY == 0
        if fresh:
            inv = _inverse(A, basis)
        else:
            row = inv[r] / d[r]
            inv -= np.outer(d, row)
            inv[r] = row

    x = np.zeros(n)
    x[basis] = x_basic
    return obj, x, y
