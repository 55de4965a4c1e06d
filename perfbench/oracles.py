"""Independent reference answers, built without any crflow code.

The flat norm of a discrete signed measure w on points with distances d is
the value of the linear program

    maximize  sum_i w_i f_i   over f (free), s >= 0, L >= 0
    s.t.      |f_i| <= s,  f_i - f_j <= L d(i, j)  (i != j),  s + L <= 1,

solved here by HiGHS. Trajectory endpoints are checked against
scipy.integrate.solve_ivp (DOP853) on the same right-hand side, written out
from the scenario document. scipy is imported only by these functions, which
run after the timed region.
"""

from __future__ import annotations

import itertools

import numpy as np

FLAT_TOL = 1e-9
# Largest accepted |endpoint - DOP853 reference| per integration method,
# about 50 times the worst error seen on seeds 1 and 2: fixed-step RK4 at
# dt = 0.01 2.2e-10, step-doubling RK4 at local tolerance 1e-8 1.4e-8, and
# Picard (lambda = 10, 512 trapezoid nodes per unit window) 1.5e-7.
ENDPOINT_TOL = {"rk4": 1e-8, "adaptive": 1e-6, "picard": 1e-5}
ODE_RTOL = ODE_ATOL = 1e-12


def grid_points(space: dict) -> np.ndarray:
    g = space["grid"]
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(g["bounds"], g["counts"])]
    return np.array(list(itertools.product(*axes)), dtype=float)


def distances(points: np.ndarray) -> np.ndarray:
    return np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))


def flat_norm(space: dict, weights) -> float:
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    w = np.asarray(weights, dtype=float)
    d = distances(grid_points(space))
    n = w.size
    s_col, l_col = n, n + 1
    rows, cols, vals, rhs = [], [], [], []

    def add(entries, bound):
        r = len(rhs)
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        rhs.append(bound)

    for i in range(n):
        add([(i, 1.0), (s_col, -1.0)], 0.0)
        add([(i, -1.0), (s_col, -1.0)], 0.0)
        for j in range(n):
            if i != j:
                add([(i, 1.0), (j, -1.0), (l_col, -d[i, j])], 0.0)
    add([(s_col, 1.0), (l_col, 1.0)], 1.0)
    A = coo_matrix((vals, (rows, cols)), shape=(len(rhs), n + 2)).tocsr()
    cost = np.concatenate([-w, [0.0, 0.0]])
    bounds = [(None, None)] * n + [(0.0, None), (0.0, None)]
    res = linprog(cost, A_ub=A, b_ub=np.array(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def _coeff(value, n):
    return np.broadcast_to(np.asarray(value, dtype=float), (n,))


def endpoint(cfg: dict):
    """(S, weights) at t_end from DOP853 on the scenario's equations."""
    from scipy.integrate import solve_ivp

    points = grid_points(cfg["space"])
    n = len(points)
    kern = cfg["kernel"]
    if kern["family"] == "gaussian":
        k = np.exp(-distances(points) ** 2 / (2.0 * kern["width"] ** 2))
        k /= k.sum(axis=1, keepdims=True)
    else:
        k = np.eye(n)
    rates = cfg["rates"]
    up, mo = rates["uptake"], rates["mortality"]
    b = _coeff(up["b"], n)
    a = _coeff(up.get("a", 1.0), n)
    d0 = _coeff(mo["d0"], n)
    c = _coeff(mo.get("c", 0.0), n)
    inflow, dilution = rates["inflow"], rates["dilution"]
    S0 = cfg["initial"]["S"]
    w0 = np.asarray(cfg["initial"]["weights"], dtype=float)
    clamp = cfg.get("truncation")
    if clamp is None:   # the documented default truncation level
        clamp = 2.0 * max(S0, inflow / dilution, w0.sum(), 0.5)

    def rhs(_t, y):
        S, w = y[0], y[1:]
        Sc = min(max(S, 0.0), clamp)
        B = b * Sc / (a + Sc) if up["family"] == "monod" else b * Sc
        D = d0 + c / (1.0 + Sc) if mo["family"] == "decreasing" else d0
        dS = inflow - dilution * S - B @ w
        return np.concatenate([[dS], k.T @ (B * w) - D * w])

    sol = solve_ivp(rhs, (0.0, cfg["control"]["t_end"]), np.concatenate([[S0], w0]),
                    method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL)
    if not sol.success:
        raise RuntimeError(f"solve_ivp failed: {sol.message}")
    return float(sol.y[0, -1]), sol.y[1:, -1]


def endpoint_error(cfg: dict, S: float, weights) -> float:
    S_ref, w_ref = endpoint(cfg)
    return max(abs(S - S_ref), float(np.abs(np.asarray(weights) - w_ref).max()))
