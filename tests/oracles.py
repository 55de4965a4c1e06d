"""Independent oracles used by the test suite.

The flat-norm oracle never touches the package's simplex solver: for a
fixed sup bound s (and Lipschitz budget L = 1 - s, which is optimal since
enlarging either bound only relaxes the feasible set), it enumerates the
vertices of the test-function polytope directly and takes the best
objective; the outer maximization over s is concave, so a coarse grid plus
ternary refinement is exact to the stated resolution.

`flat_norm_highs` solves the flat-norm LP in its direct form (free test
function values, sup bound s, Lipschitz bound L) with scipy's HiGHS.

`dense_solve_lp` is the full-tableau simplex solver that
`crflow.simplex.solve_lp` replaced. It keeps every slack column, so it is
the reference for the condensed tableau: the same pivots must give the same
bits. `loop_flat_norm_lp` assembles the package's flat-norm LP row by row,
the reference for its vectorised assembly.
"""

import itertools

import numpy as np

from crflow.simplex import PIVOT_TOL, SimplexError


def _inner_vertex_max(weights, metric, s, L, tol=1e-9):
    """Exact max of sum w_i f_i over |f_i| <= s, |f_i - f_j| <= L d_ij."""
    n = len(weights)
    if n == 1:
        return abs(weights[0]) * s
    rows = []
    rhs = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(e.copy())
        rhs.append(s)
        rows.append(-e)
        rhs.append(s)
    for i in range(n):
        for j in range(n):
            if i != j:
                e = np.zeros(n)
                e[i] = 1.0
                e[j] = -1.0
                rows.append(e)
                rhs.append(L * metric[i, j])
    A = np.array(rows)
    b = np.array(rhs)
    best = -np.inf
    for combo in itertools.combinations(range(len(rows)), n):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        f = np.linalg.solve(sub, b[list(combo)])
        if np.all(A @ f <= b + tol):
            best = max(best, float(np.dot(weights, f)))
    return best


def flat_norm_bruteforce(weights, metric, coarse=41, refine=80):
    """Flat norm of a small signed measure by direct search.

    Only intended for supports of up to ~4 atoms (vertex enumeration is
    combinatorial in the atom count).
    """
    weights = np.asarray(weights, dtype=float)
    metric = np.asarray(metric, dtype=float)

    def value(s):
        return _inner_vertex_max(weights, metric, s, 1.0 - s)

    grid = np.linspace(0.0, 1.0, coarse)
    vals = [value(s) for s in grid]
    k = int(np.argmax(vals))
    lo = grid[max(0, k - 1)]
    hi = grid[min(coarse - 1, k + 1)]
    for _ in range(refine):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if value(m1) < value(m2):
            lo = m1
        else:
            hi = m2
    return value(0.5 * (lo + hi))


def flat_norm_highs(weights, metric):
    """Flat norm by HiGHS: max sum w_i f_i over |f_i| <= s,
    f_i - f_j <= L d_ij (i != j), s + L <= 1, s, L >= 0."""
    from scipy.optimize import linprog

    w = np.asarray(weights, dtype=float)
    metric = np.asarray(metric, dtype=float)
    n = w.size
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    eye = np.eye(n)
    sup = np.hstack([np.vstack([eye, -eye]), -np.ones((2 * n, 1)),
                     np.zeros((2 * n, 1))])
    lip = np.zeros((i.size, n + 2))
    lip[np.arange(i.size), i] = 1.0
    lip[np.arange(i.size), j] = -1.0
    lip[:, n + 1] = -metric[i, j]
    budget = np.zeros((1, n + 2))
    budget[0, n:] = 1.0
    A = np.vstack([sup, lip, budget])
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    cost = np.concatenate([-w, [0.0, 0.0]])
    bounds = [(None, None)] * n + [(0.0, None), (0.0, None)]
    res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def loop_flat_norm_lp(weights, metric):
    """(c, A, b) of the package's flat-norm LP, one row at a time."""
    n = weights.shape[0]
    rows = []
    for i in range(n):
        r = np.zeros(n + 2)
        r[i] = 1.0
        r[n] = -2.0
        rows.append(r)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            r = np.zeros(n + 2)
            r[i] = 1.0
            r[j] = -1.0
            r[n + 1] = -metric[i, j]
            rows.append(r)
    r = np.zeros(n + 2)
    r[n] = 1.0
    r[n + 1] = 1.0
    rows.append(r)
    A = np.array(rows)
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    c = np.concatenate([weights, [-weights.sum(), 0.0]])
    return c, A, b


def dense_solve_lp(c, A, b):
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
