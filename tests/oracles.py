"""Independent oracles used by the test suite.

The flat-norm oracle never touches the package's simplex solver: for a
fixed sup bound s (and Lipschitz budget L = 1 - s, which is optimal since
enlarging either bound only relaxes the feasible set), it enumerates the
vertices of the test-function polytope directly and takes the best
objective; the outer maximization over s is concave, so a coarse grid plus
ternary refinement is exact to the stated resolution.

`flat_norm_highs` solves the flat-norm LP in its direct form (free test
function values, sup bound s, Lipschitz bound L) with scipy's HiGHS.

The package once solved the flat norm in this direct form, with n + n(n-1)
+ 1 rows, on a simplex tableau that it never refactorized.
`tableau_flat_norm` is that code: its LP, vectorised, on
`tableau_solve_lp`, which keeps the nonbasic columns only.
`dense_solve_lp` is the full tableau it replaced, and `loop_flat_norm_lp`
assembles the same LP row by row; the two pairs give the same bits. All
four are exact on small spaces and drift on 2-D grids beyond 8x8, where
the rounding error of thousands of pivots piles up in the tableau.

`reference_integrate` steps any right-hand side as `integrate` does, in a
loop written out anew; `reduced_ode_trajectory` and `compare_to_ode` use it
to check the measure-valued system against the classical n-species ODE.
The kernel Lipschitz bound and the bullet actions of a function and of a
kernel on a measure are the paper's estimates, written out for the tests
that check them.

`breakeven` bisects one atom's break-even level to a bracket of
BREAKEVEN_TOL, evaluating the rates on a Python float; it is the oracle
for `rates.breakevens`, which solves the quadratic that uptake = mortality
multiplies out to. `fmt17_csv` is the trajectory.csv text that
`cli.write_trajectory_csv` wrote one `format` call per value.
"""

import itertools
import math

import numpy as np

from crflow.dynamics import Trajectory, integrate
from crflow.errors import ConfigError, DimensionError
from crflow.measure import DiscreteMeasure, flat_distance
from crflow.simplex import SimplexError

# The pivot tolerance of the tableau solvers.
PIVOT_TOL = 1e-9
# `breakeven` stops once its bracket is narrower than this.
BREAKEVEN_TOL = 1e-10


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
    f_i - f_j <= L d_ij (i != j), s + L <= 1, s, L >= 0.

    The constraint matrix is sparse: 2n + n(n-1) + 1 rows of at most n + 2
    columns, 160k rows at 400 atoms."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    w = np.asarray(weights, dtype=float)
    metric = np.asarray(metric, dtype=float)
    n = w.size
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    atoms = np.arange(n)
    arcs = 2 * n + np.arange(i.size)
    budget = 2 * n + i.size
    rows = np.concatenate([atoms, n + atoms, np.arange(2 * n), arcs, arcs, arcs,
                           [budget, budget]])
    cols = np.concatenate([atoms, atoms, np.full(2 * n, n), i, j,
                           np.full(i.size, n + 1), [n, n + 1]])
    vals = np.concatenate([np.ones(n), -np.ones(n), -np.ones(2 * n),
                           np.ones(i.size), -np.ones(i.size), -metric[i, j], [1.0, 1.0]])
    A = coo_matrix((vals, (rows, cols)), shape=(budget + 1, n + 2)).tocsr()
    b = np.zeros(budget + 1)
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


def tableau_solve_lp(c, A, b):
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


def tableau_flat_norm(weights: np.ndarray, metric: np.ndarray) -> float:
    """Build and solve the flat-norm LP for a weight vector.

    Maximize sum_i f_i w_i over test functions with sup bound s and
    Lipschitz bound L, s + L <= 1. The substitution g_i = f_i + s keeps
    every variable nonnegative: variables are (g_0..g_{n-1}, s, L) with
        g_i - 2 s <= 0,   g_i - g_j - L d(i,j) <= 0 (i != j),   s + L <= 1,
    and the objective sum_i w_i g_i - (sum_i w_i) s. The pair rows run
    over (i, j) in row-major order.
    """
    n = weights.shape[0]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    pair_rows = n + np.arange(i.size)
    A = np.zeros((n + i.size + 1, n + 2))
    A[:n, :n] = np.eye(n)
    A[:n, n] = -2.0
    A[pair_rows, i] = 1.0
    A[pair_rows, j] = -1.0
    A[pair_rows, n + 1] = -metric[i, j]
    A[-1, n:] = 1.0
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    c = np.concatenate([weights, [-weights.sum(), 0.0]])
    return tableau_solve_lp(c, A, b)[0]


def reference_integrate(rhs, state0, t_end, control):
    """Step rhs(S, w) from state0 to t_end: integrate() redone by hand.

    Fixed-step RK4 or step doubling by control.method. Records every
    accepted step and returns (times, S, W) arrays.
    """

    def rk4(S, w, h):
        k1S, k1w = rhs(S, w)
        k2S, k2w = rhs(S + 0.5 * h * k1S, w + 0.5 * h * k1w)
        k3S, k3w = rhs(S + 0.5 * h * k2S, w + 0.5 * h * k2w)
        k4S, k4w = rhs(S + h * k3S, w + h * k3w)
        return (S + (h / 6.0) * (k1S + 2.0 * k2S + 2.0 * k3S + k4S),
                w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w))

    def accept(S, w, t, h):
        assert math.isfinite(S) and np.all(np.isfinite(w)), (t, h)
        assert w.min() > -1e-9
        w = np.where((w < 0.0) & (w > -1e-9), 0.0, w)
        times.append(t)
        S_hist.append(S)
        w_hist.append(w)
        return w

    S, w = float(state0.S), state0.mu.weights.copy()
    times, S_hist, w_hist = [0.0], [S], [w]
    dt = control.dt
    if control.method == "rk4":
        n_full = int(math.floor(t_end / dt + 1e-9))
        for i in range(n_full):
            S, w = rk4(S, w, dt)
            w = accept(S, w, (i + 1) * dt, dt)
        rem = t_end - n_full * dt
        if rem > 1e-12:
            S, w = rk4(S, w, rem)
            accept(S, w, t_end, rem)
    else:
        t = 0.0
        while t < t_end - 1e-13:
            dt = min(dt, t_end - t)
            S1, w1 = rk4(S, w, dt)
            S2, w2 = rk4(*rk4(S, w, 0.5 * dt), 0.5 * dt)
            err = (abs(S2 - S1) + float(np.abs(w2 - w1).max())) / 15.0
            if err <= control.tolerance:
                t += dt
                S = S2
                w = accept(S2, w2, t, dt)
            dt *= min(5.0, max(0.2, 0.9 * (control.tolerance / max(err, 1e-300)) ** 0.2))
    return np.array(times), np.array(S_hist), np.array(w_hist)


def reduced_ode_trajectory(state0, t_end, control, rates):
    """The classical n-species system, stepped by reference_integrate.

    S' = inflow - dilution*S - sum_j B_j(S) I_j,  I_j' = (B_j(S) - D_j(S)) I_j.
    This is the finite special case the measure-valued system must reproduce
    exactly under the pure-selection kernel.
    """
    dt = control.dt
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if abs(round(t_end / dt) * dt - t_end) > 1e-9:
        raise ConfigError("reduced ODE comparison needs dt dividing t_end")

    def rhs(S, I):
        B = rates.uptake_values(S)
        Dm = rates.mortality_values(S)
        dS = rates.inflow - rates.dilution * S - float(np.dot(B, I))
        return dS, B * I - Dm * I

    times, S, W = reference_integrate(rhs, state0, t_end, control)
    return Trajectory(state0.space, times, S, W, {"integrator": "reduced-ode"})


def compare_to_ode(state0, t_end, control, rates, K):
    """Max deviation between integrate's run and the reduced system.

    Requires the pure-selection kernel; with it the two right-hand sides are
    the same finite system, so the deviation is at machine-precision level.
    """
    if not np.array_equal(K.rows, np.eye(K.space.size)):
        raise ConfigError("compare_to_ode requires the pure-selection kernel")
    if control.method != "rk4":
        raise ConfigError("compare_to_ode requires the fixed-step integrator")
    full = integrate(state0, t_end, control, rates, K)
    reduced = reduced_ode_trajectory(state0, t_end, control, rates)
    if len(full) != len(reduced):
        raise ConfigError("trajectory grids do not align")
    dev_S = np.abs(full.S - reduced.S).max()
    dev_w = np.abs(full.weights - reduced.weights).max()
    return float(max(dev_S, dev_w))


def row_measure(K, i):
    """Row i of a kernel as a measure: the offspring distribution of atom i."""
    return DiscreteMeasure(K.space, K.rows[i])


def kernel_lipschitz_bound(K):
    """Largest flat-distance difference quotient between kernel rows.

    Places the kernel in the class of Lipschitz maps into probability
    functionals with this bound. 0 on a singleton space.
    """
    n = K.space.size
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            quot = flat_distance(row_measure(K, i), row_measure(K, j)) / K.space.metric[i, j]
            best = max(best, quot)
    return best


def _same_space(a, b):
    if not a.space.same_as(b.space):
        raise DimensionError("operands live on different strategy spaces")


def pair(mu, g):
    """Duality pairing mu[g] = sum_i g(i) mu(i) of a measure and an AtomFunction."""
    _same_space(mu, g)
    return float(np.dot(g.values, mu.weights))


def bullet_fn(f, mu):
    """Action of a function on a measure: (f . mu)[g] = mu[f g]."""
    _same_space(f, mu)
    return DiscreteMeasure(mu.space, f.values * mu.weights)


def bullet_kernel(K, mu):
    """Action of a kernel on a measure: nu_j = sum_i K(i,j) mu_i.

    Transpose application, so that pairing nu against g equals pairing mu
    against the function q -> (row of K at q applied to g).
    """
    _same_space(K, mu)
    return DiscreteMeasure(mu.space, K.rows.T @ mu.weights)


def breakeven(rates, i, S_max):
    """Break-even level of atom i on [0, S_max]: a bisection on a Python
    float that evaluates the rates of every atom at each step; None when
    the difference has no sign change."""

    def f(S):
        return float(rates.uptake_values(S)[i] - rates.mortality_values(S)[i])

    lo, hi = 0.0, float(S_max)
    flo, fhi = f(lo), f(hi)
    if flo > 0:
        return lo
    if fhi < 0 or flo == fhi == 0:
        return None if fhi < 0 else lo
    while hi - lo > BREAKEVEN_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fmt17_csv(traj):
    """trajectory.csv as text, each value by its own format(x, ".17g")."""
    n = traj.space.size
    header = ["t", "S", "mass"] + [f"w_{i}" for i in range(n)]
    mass = traj.mass()
    lines = ["# scenario_hash=%s version=%s" % (
        traj.metadata.get("scenario_hash", ""), traj.metadata.get("version", ""))]
    lines.append(",".join(header))
    for k in range(len(traj)):
        row = [traj.times[k], traj.S[k], mass[k]] + list(traj.weights[k])
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"
