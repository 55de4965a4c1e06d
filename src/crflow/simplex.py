"""Simplex solver for small linear programs on a condensed tableau.

Solves   maximize c.x   subject to   A x <= b,  x >= 0,   with b >= 0,
so the all-slack basis is feasible and no phase-1 is required. Pivoting
uses Dantzig's rule for speed and switches permanently to Bland's rule
once the objective stalls, which guarantees termination on degenerate
problems.

The tableau keeps only the n nonbasic columns and the right-hand side:
(m + 1) x (n + 1) entries instead of the (m + 1) x (n + m + 1) of the full
tableau, where every basic column is a unit vector. The flat-norm LP of
40 atoms has m = 1601 rows and n = 42 columns, so this is 0.55 MB instead
of 21 MB. A pivot swaps the entering and the leaving variable's labels
and writes the leaving variable's column with the same floating-point
operations the full tableau applies to it, so on finite data the pivots,
the value and x are bit for bit those of the full tableau. The reduced
costs are also kept by variable label, so both pricing rules break ties
in the order of the full tableau.
"""

from __future__ import annotations

import numpy as np

from crflow.errors import NumericalError


# Absolute optimality tolerance on reduced costs and pivot entries.
PIVOT_TOL = 1e-9


class SimplexError(NumericalError):
    """The solver exceeded its pivot budget or hit an unbounded ray."""


def solve_lp(c, A, b):
    """Return (optimal value, optimal x) of max c.x s.t. Ax <= b, x >= 0.

    Requires b >= 0 elementwise. The pivot budget is 200 (m + n) + 1000
    for m constraints and n variables.
    """
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if np.any(b < 0):
        raise ValueError("solve_lp requires b >= 0")
    max_pivots = 200 * (m + n) + 1000

    # Tableau: columns = nonbasic vars (labels in `nonbasic`), rhs. Last
    # row = -c (so a negative entry marks an improving column), objective
    # value in corner. `red` holds the reduced costs by variable label,
    # 0 for basic ones, and `where` the column of each nonbasic label.
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[-1, :n] = -c
    basis = np.arange(n, n + m)
    nonbasic = np.arange(n)
    where = list(range(n + m))
    red = np.zeros(n + m)
    red[:n] = T[-1, :n]

    use_bland = False
    stalled = 0
    last_obj = 0.0
    for _ in range(max_pivots):
        if use_bland:
            improving = np.flatnonzero(red < -PIVOT_TOL)
            if improving.size == 0:
                break
            col = int(improving[0])
        else:
            col = int(red.argmin())
            if red[col] >= -PIVOT_TOL:
                break
        j = where[col]
        piv = T[:m, j]
        ok = piv > PIVOT_TOL
        if not ok.any():
            raise SimplexError("LP is unbounded along column %d" % col)
        ratios = np.divide(T[:m, -1], piv, out=np.full(m, np.inf), where=ok)
        best = float(ratios.min())
        # Bland tie-break: smallest basis variable index among min ratios.
        cand = np.flatnonzero(ratios <= best + PIVOT_TOL * max(1.0, abs(best)))
        row = int(cand[basis[cand].argmin()])

        # Column j goes to the leaving variable: put its unit column there
        # and pivot as the full tableau does.
        pivot = T[row, j]
        factors = T[:, j].copy()
        factors[row] = 0.0
        T[:, j] = 0.0
        T[row, j] = 1.0
        T[row] /= pivot
        T -= np.outer(factors, T[row])
        leaving = int(basis[row])
        basis[row] = col
        nonbasic[j] = leaving
        where[leaving] = j
        red[nonbasic] = T[-1, :n]
        red[col] = 0.0

        obj = T[-1, -1]
        if not use_bland:
            if obj <= last_obj + PIVOT_TOL:
                stalled += 1
                if stalled > m + 10:
                    use_bland = True
            else:
                stalled = 0
            last_obj = obj
    else:
        raise SimplexError(
            f"simplex exceeded {max_pivots} pivots (m={m}, n={n})"
        )

    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    return float(T[-1, -1]), x[:n]
