"""Dense simplex solver for small linear programs.

Solves   maximize c.x   subject to   A x <= b,  x >= 0,   with b >= 0,
so the all-slack basis is feasible and no phase-1 is required. Pivoting
uses Dantzig's rule for speed and switches permanently to Bland's rule
once the objective stalls, which guarantees termination on degenerate
problems. Problem sizes here are a few hundred rows at most, so a dense
tableau is fine.
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

    # Tableau: columns = structural vars, slacks, rhs. Last row = -c (so a
    # negative entry marks an improving column), objective value in corner.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -c
    basis = np.arange(n, n + m)

    use_bland = False
    stalled = 0
    last_obj = 0.0
    for _ in range(max_pivots):
        red = T[-1, :-1]
        if use_bland:
            improving = np.flatnonzero(red < -PIVOT_TOL)
            if improving.size == 0:
                break
            col = int(improving[0])
        else:
            col = int(np.argmin(red))
            if red[col] >= -PIVOT_TOL:
                break
        piv = T[:m, col]
        ok = piv > PIVOT_TOL
        if not np.any(ok):
            raise SimplexError("LP is unbounded along column %d" % col)
        ratios = np.full(m, np.inf)
        ratios[ok] = T[:m, -1][ok] / piv[ok]
        best = ratios.min()
        # Bland tie-break: smallest basis variable index among min ratios.
        cand = np.flatnonzero(ratios <= best + PIVOT_TOL * max(1.0, abs(best)))
        row = int(cand[np.argmin(basis[cand])])

        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        basis[row] = col

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
