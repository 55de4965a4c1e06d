"""Diagnostics linking trajectories to conservation and boundedness claims."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from crflow.errors import ConfigError
from crflow.dynamics import Trajectory
from crflow.measure import DiscreteMeasure, dirac, flat_distance
from crflow.rates import VitalRates, breakevens, dissipativity_bound


def concentration(mu: DiscreteMeasure):
    """Winner atom and flat distance of the normalized measure to its Dirac.

    Ties break toward the lowest atom index. Scaling-invariant: the measure
    is normalized to unit mass first.
    """
    w = mu.weights
    if np.any(w < 0):
        raise ConfigError("concentration needs a nonnegative measure")
    total = w.sum()
    if total <= 0:
        raise ConfigError("concentration of the zero measure is undefined")
    winner = int(np.argmax(w))
    normalized = DiscreteMeasure(mu.space, w / total)
    return winner, flat_distance(normalized, dirac(mu.space, winner))


def mass_balance_residual(traj: Trajectory, rates: VitalRates) -> float | None:
    """Largest relative conservation residual at interior points.

    The fourth-order five-point difference of M(t) = S + total mass,
    (M[k-2] - 8 M[k-1] + 8 M[k+1] - M[k+2]) / (12 dt), against the analytic
    balance inflow - dilution*S - mu[D(S,.)]; the birth terms cancel
    because kernel rows have unit mass. Its own error scales as dt^4, as
    RK4's does. None, as the stencil does not apply, below 5 points or on a
    non-uniform time grid.
    """
    t = traj.times
    if len(t) < 5 or np.abs(np.diff(t) - (t[1] - t[0])).max() > 1e-9:
        return None
    dt = t[1] - t[0]
    M = traj.mass()
    fd = (M[:-4] - 8.0 * M[1:-3] + 8.0 * M[3:-1] - M[4:]) / (12.0 * dt)
    Dm = rates.mortality_values(traj.S)          # (k, n)
    rhs = (
        rates.inflow
        - rates.dilution * traj.S
        - (Dm * traj.weights).sum(axis=1)
    )[2:-2]
    scale = np.maximum(1.0, np.abs(rhs))
    return float((np.abs(fd - rhs) / scale).max())


@dataclass
class DiagnosticsReport:
    """Aggregated invariant checks for one trajectory."""

    dissipativity_bound: float
    mass_bound: float                  # max{M(0), dissipativity bound}
    max_mass_observed: float
    limsup_proxy: float                # max of M over the final 10% of time
    min_weight_observed: float
    min_substrate_observed: float
    mass_balance_max_residual: float | None
    winner_atom: int | None
    concentration_distance: float | None
    breakevens: list = field(default_factory=list)
    clamped_weights: int = 0


def diagnostics(traj: Trajectory, rates: VitalRates) -> DiagnosticsReport:
    """Build the standard report for one trajectory under its rates.

    Break-evens are sought on [0, rates.clamp], the truncation level every
    VitalRates carries. The mass-balance residual is None when the
    trajectory has fewer than 5 points or a non-uniform grid.
    """
    bound = dissipativity_bound(rates)
    M = traj.mass()
    tail = max(1, int(0.1 * len(M)))
    final = traj.endpoint()
    winner = dist = None
    if np.all(final.mu.weights >= 0) and final.mu.total_mass() > 0:
        winner, dist = concentration(final.mu)
    return DiagnosticsReport(
        dissipativity_bound=bound,
        mass_bound=max(float(M[0]), bound),
        max_mass_observed=float(M.max()),
        limsup_proxy=float(M[-tail:].max()),
        min_weight_observed=float(traj.weights.min()),
        min_substrate_observed=float(traj.S.min()),
        mass_balance_max_residual=mass_balance_residual(traj, rates),
        winner_atom=winner,
        concentration_distance=dist,
        breakevens=breakevens(rates),
        clamped_weights=int(traj.metadata.get("clamped_weights", 0)),
    )
