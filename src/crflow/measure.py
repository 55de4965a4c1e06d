"""Discrete measures, the duality pairing, the flat norm, and the bullet actions.

A measure is a signed weight vector over the atoms of a StrategySpace. The
flat norm (bounded-Lipschitz dual norm) of a discrete measure metrizes
weak* convergence and is the distance used throughout the dynamics and
diagnostics. It is computed exactly by a linear program in its flow form,
n + 2 rows for n atoms, and every value is certified by the optimal test
function that the solver's multipliers give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crflow.errors import DimensionError, NumericalError
from crflow.simplex import solve_lp
from crflow.space import StrategySpace

# Relative tolerance of the flat-norm certificate.
CERT_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """Signed weights over the atoms of a strategy space.

    The type admits signed weights; dynamics restrict trajectories to the
    nonnegative cone but differences of trajectories are genuinely signed.
    """

    space: StrategySpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != self.space.size:
            raise DimensionError(
                f"{w.shape[0]} weights for {self.space.size} atoms"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        _check_same_space(self, other)
        return DiscreteMeasure(self.space, self.weights + other.weights)

    def __sub__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        _check_same_space(self, other)
        return DiscreteMeasure(self.space, self.weights - other.weights)

    def __mul__(self, alpha: float) -> "DiscreteMeasure":
        return DiscreteMeasure(self.space, self.weights * float(alpha))

    __rmul__ = __mul__


@dataclass(frozen=True)
class AtomFunction:
    """A bounded Lipschitz test function restricted to the atoms."""

    space: StrategySpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.shape[0] != self.space.size:
            raise DimensionError(
                f"{v.shape[0]} values for {self.space.size} atoms"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def dirac(space: StrategySpace, atom: int) -> DiscreteMeasure:
    w = np.zeros(space.size)
    w[atom] = 1.0
    return DiscreteMeasure(space, w)


def _check_same_space(a, b):
    if not a.space.same_as(b.space):
        raise DimensionError("operands live on different strategy spaces")


def pair(mu: DiscreteMeasure, g: AtomFunction) -> float:
    """Duality pairing mu[g] = sum_i g(i) mu(i)."""
    _check_same_space(mu, g)
    return float(np.dot(g.values, mu.weights))


def bl_norm_fn(g: AtomFunction) -> float:
    """Bounded-Lipschitz norm: sup norm plus the largest difference quotient."""
    space = g.space
    sup = float(np.abs(g.values).max())
    n = space.size
    if n == 1:
        return sup
    diff = np.abs(g.values[:, None] - g.values[None, :])
    mask = ~np.eye(n, dtype=bool)
    lip = float((diff[mask] / space.metric[mask]).max())
    return sup + lip


def _flow_lp(weights: np.ndarray, metric: np.ndarray):
    """(c, A, b, basis) of the flow form of the flat norm of a weight vector.

    Columns: created mass a+ and a- (n each), one flow pi_ij per ordered
    pair i != j in row-major order, the value t and the slacks of its two
    bounds. Rows: a+_i - a-_i + sum_j (pi_ij - pi_ji) = w_i for each atom,
    then sum(a+ + a-) - t + sigma_s = 0 and sum_ij d_ij pi_ij - t + sigma_L
    = 0. The starting basis creates every weight where it sits, with
    t = sigma_L = ||w||_1.
    """
    n = weights.shape[0]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    atoms = np.arange(n)
    arcs = 2 * n + np.arange(i.size)
    t = 2 * n + i.size
    A = np.zeros((n + 2, t + 3))
    A[atoms, atoms] = 1.0
    A[atoms, n + atoms] = -1.0
    A[i, arcs] = 1.0
    A[j, arcs] = -1.0
    A[n, :2 * n] = 1.0
    A[n + 1, arcs] = metric[i, j]
    A[n:, t] = -1.0
    A[n, t + 1] = 1.0
    A[n + 1, t + 2] = 1.0
    b = np.zeros(n + 2)
    b[:n] = weights
    c = np.zeros(t + 3)
    c[t] = 1.0
    basis = np.concatenate([np.where(weights >= 0.0, atoms, n + atoms), [t, t + 2]])
    return c, A, b, basis


def bl_dual_norm(mu: DiscreteMeasure) -> float:
    """Flat norm: sup of |mu[g]| over test functions with BL norm <= 1.

    By LP duality this is the least max(||a||_1, sum_ij d_ij pi_ij) over
    splittings mu = a + div pi into created mass a and a flow pi >= 0
    between atoms (the created-plus-transported form of the flat metric).
    That LP has n + 2 rows, and `solve_lp` inverts its basis afresh at
    every pivot. Its multipliers are the optimal test function f on the
    atom rows and -s, -L on the two bound rows, where s is the sup bound
    and L the Lipschitz bound of f. The value is accepted only with a
    certificate: bl_norm_fn(f) <= 1 + CERT_TOL, the flow reproduces mu and
    meets both bounds to CERT_TOL * ||mu||_1, and the duality gap
    |t - mu[f]| is at most CERT_TOL * t. Otherwise a NumericalError is
    raised instead of returning a number.

    Exact for finite supports: the optimal test function extends to the
    whole space with the same sup and Lipschitz bounds, so the finite LP
    value is the true dual norm.
    """
    if not np.any(mu.weights):
        return 0.0
    # Scale by the power of two that brings the largest weight into
    # [1/2, 1): exact, and every LP then has the scale its tolerances assume.
    exponent = int(np.frexp(np.abs(mu.weights).max())[1])
    w = np.ldexp(mu.weights, -exponent)
    c, A, b, basis = _flow_lp(w, mu.space.metric)
    value, x, y = solve_lp(c, A, b, basis)
    f = AtomFunction(mu.space, y[:w.size])
    checks = (
        ("test function BL norm", bl_norm_fn(f), 1.0 + CERT_TOL),
        ("flow error", max(float(np.abs(A @ x - b).max()), -float(x.min())),
         CERT_TOL * float(np.abs(w).sum())),
        ("duality gap", abs(value - float(np.dot(f.values, w))), CERT_TOL * value),
    )
    for what, got, bound in checks:
        if not got <= bound:
            raise NumericalError(
                f"flat norm certificate failed on {w.size} atoms: "
                f"{what} {got!r} exceeds {bound!r}"
            )
    return float(np.ldexp(value, exponent))


def flat_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Flat-metric distance between two measures on the same space."""
    _check_same_space(mu, nu)
    return bl_dual_norm(mu - nu)


def bullet_fn(f: AtomFunction, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Action of a function on a measure: (f . mu)[g] = mu[f g]."""
    _check_same_space(f, mu)
    return DiscreteMeasure(mu.space, f.values * mu.weights)


def bullet_kernel(K, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Action of a kernel on a measure: nu_j = sum_i K(i,j) mu_i.

    Transpose application, so that pairing nu against g equals pairing mu
    against the function q -> (row of K at q applied to g).
    """
    if not K.space.same_as(mu.space):
        raise DimensionError("kernel and measure live on different spaces")
    return DiscreteMeasure(mu.space, K.rows.T @ mu.weights)
