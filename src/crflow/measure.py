"""Discrete measures, the duality pairing, the flat norm, and the bullet actions.

A measure is a signed weight vector over the atoms of a StrategySpace. The
flat norm (bounded-Lipschitz dual norm) of a discrete measure is computed
exactly by a small linear program; it metrizes weak* convergence and is the
distance used throughout the dynamics and diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crflow.errors import DimensionError
from crflow.simplex import solve_lp
from crflow.space import StrategySpace


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


def _dual_norm_lp(weights: np.ndarray, metric: np.ndarray) -> float:
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
    return solve_lp(c, A, b)[0]


def bl_dual_norm(mu: DiscreteMeasure) -> float:
    """Flat norm: sup of |mu[g]| over test functions with BL norm <= 1.

    Exact for finite supports: the optimal test function extends to the
    whole space with the same sup and Lipschitz bounds, so the finite LP
    value is the true dual norm.
    """
    if not np.any(mu.weights):
        return 0.0
    return _dual_norm_lp(mu.weights, mu.space.metric)


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
