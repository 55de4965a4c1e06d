"""Time evolution of the resource/population pair.

Two independent integrators are provided: a classical RK4 stepper (fixed
step by default, step-doubling adaptivity opt-in) and a Picard fixed-point
solver that iterates the mild-solution integral operator on a discretized
trajectory, a contraction in an exponentially weighted sup norm. The Picard
route is a faithful executable of the existence argument and doubles as a
cross-validation oracle for the RK4 route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from crflow.errors import (
    ConfigError,
    ConvergenceError,
    NumericalError,
    PositivityError,
    StiffnessError,
)
from crflow.kernel import MutationKernel
from crflow.measure import DiscreteMeasure
from crflow.rates import VitalRates, dissipativity_bound
from crflow.space import StrategySpace

WEIGHT_CLAMP_TOL = 1e-9
MIN_ADAPTIVE_STEP = 1e-12
MAX_STEPS = 50_000_000      # steps (Picard: nodes) one run may take
PICARD_TOL = 1e-12          # sup increment between iterates that ends a window
PICARD_NODES = 512          # trapezoid intervals per window
PICARD_MAX_ITER = 200       # iterations per window before ConvergenceError
PICARD_WINDOW = 1.0         # longest window; longer horizons chain windows
METHODS = ("rk4", "adaptive", "picard")


@dataclass(frozen=True)
class SystemState:
    """Substrate level plus the population measure."""

    S: float
    mu: DiscreteMeasure

    @property
    def space(self) -> StrategySpace:
        return self.mu.space

    def total_mass(self) -> float:
        return self.S + self.mu.total_mass()

    def in_cone(self) -> bool:
        return self.S >= 0.0 and bool(np.all(self.mu.weights >= 0.0))


@dataclass(frozen=True)
class StepControl:
    """Integrator selection and step control; the horizon is each run's own
    argument. Building one raises a ConfigError unless method is in METHODS,
    dt and tolerance are positive and record_every is an integer >= 1."""

    method: str = "rk4"          # one of METHODS; "picard" runs picard_solve
    dt: float = 1e-3
    tolerance: float = 1e-8      # adaptive local error target
    record_every: int = 1        # keep steps (Picard: nodes) k, 2k, ... and the last
    lam: float | None = None     # picard contraction weight; None derives it

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown integrator {self.method!r}")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance!r}")
        k = self.record_every
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise ConfigError(f"record_every must be an integer >= 1, got {k!r}")


@dataclass
class Trajectory:
    """Recorded states of one integration run."""

    space: StrategySpace
    times: np.ndarray
    S: np.ndarray
    weights: np.ndarray          # (len(times), atom count)
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)

    def state(self, idx: int) -> SystemState:
        return SystemState(
            float(self.S[idx]), DiscreteMeasure(self.space, self.weights[idx])
        )

    def endpoint(self) -> SystemState:
        return self.state(len(self.times) - 1)

    def mass(self) -> np.ndarray:
        """M(t) = S(t) + total population mass at every recorded time."""
        return self.S + self.weights.sum(axis=1)


def _make_rhs(rates: VitalRates, K: MutationKernel):
    KT = np.ascontiguousarray(K.rows.T)
    inflow = rates.inflow
    dilution = rates.dilution

    def rhs(S, w):
        B = rates.uptake_values(S)
        Dm = rates.mortality_values(S)
        dS = inflow - dilution * S - float(np.dot(B, w))
        dw = np.dot(KT, B * w) - Dm * w
        return dS, dw

    return rhs


def _check_inputs(state0: SystemState, t_end: float, rates: VitalRates,
                  K: MutationKernel):
    """Raise a ConfigError unless t_end is positive and finite and the kernel
    and both rate families live on the atoms of the state."""
    if not 0.0 < t_end < math.inf:
        raise ConfigError(f"t_end must be positive and finite, got {t_end!r}")
    if not K.space.same_as(state0.space):
        raise ConfigError("kernel and state live on different spaces")
    n = state0.space.size
    if rates.uptake.b.shape != (n,) or rates.mortality.d0.shape != (n,):
        raise ConfigError("rate coefficients do not match the atom count")


def _rk4(rhs, S, w, dt, k1=None):
    k1S, k1w = rhs(S, w) if k1 is None else k1
    k2S, k2w = rhs(S + 0.5 * dt * k1S, w + 0.5 * dt * k1w)
    k3S, k3w = rhs(S + 0.5 * dt * k2S, w + 0.5 * dt * k2w)
    k4S, k4w = rhs(S + dt * k3S, w + dt * k3w)
    Sn = S + (dt / 6.0) * (k1S + 2.0 * k2S + 2.0 * k3S + k4S)
    wn = w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return Sn, wn


def _clamp_weights(w, counter):
    """w, or a copy with its entries in (-WEIGHT_CLAMP_TOL, 0) set to zero
    and counted in counter[0]. w is one weight vector or a stack of them, one
    per row, and counts and fails as a row at a time would: an entry at or
    below -WEIGHT_CLAMP_TOL raises a PositivityError that names the minimum
    of the first row holding one, after counting the rows up to it."""
    if w.min() >= 0.0:
        return w
    small = (w < 0.0) & (w > -WEIGHT_CLAMP_TOL)
    bad = np.atleast_2d(w <= -WEIGHT_CLAMP_TOL).any(axis=1)
    if np.any(bad):
        first = int(bad.argmax())
        counter[0] += int(np.atleast_2d(small)[:first + 1].sum())
        raise PositivityError(
            f"weight {float(np.atleast_2d(w)[first].min())!r} below "
            f"-{WEIGHT_CLAMP_TOL}; positivity should hold for cone initial data"
        )
    if np.any(small):
        w = np.where(small, 0.0, w)
        counter[0] += int(small.sum())
    return w


def integrate(
    state0: SystemState,
    t_end: float,
    control: StepControl,
    rates: VitalRates,
    K: MutationKernel,
) -> Trajectory:
    """Integrate on [0, t_end]: fixed-step RK4 or step doubling.

    control.method is "rk4" or "adaptive"; Picard runs go through
    picard_solve. Every accepted step takes the same path: a finiteness
    check, the weight clamp, then recording when the step count is a
    multiple of record_every or the step is the last. Weights drifting into
    (-1e-9, 0) are clamped to zero and counted in the metadata; larger
    violations abort with a positivity error. A run takes at most MAX_STEPS
    steps.
    """
    _check_inputs(state0, t_end, rates, K)
    if control.method == "picard":
        raise ConfigError("integrate does not run picard; picard_solve does")
    dt = control.dt
    if control.method == "rk4" and t_end / dt > MAX_STEPS:
        raise ConfigError(f"horizon {t_end!r} needs more than MAX_STEPS steps of dt {dt!r}")
    rhs = _make_rhs(rates, K)
    clamped = [0]
    steps = 0
    S = float(state0.S)
    w = state0.mu.weights.copy()
    times, S_hist, w_hist = [0.0], [S], [w]

    def accept(S, w, t, h, last):
        nonlocal steps
        # A finite sum means every term is finite; only then skip the scan.
        if not math.isfinite(S + w.sum()) and not (
            math.isfinite(S) and np.all(np.isfinite(w))
        ):
            raise NumericalError(
                f"non-finite state at t={t!r} (dt={h!r}): "
                f"S={S!r}, weights={np.asarray(w).tolist()!r}"
            )
        w = _clamp_weights(w, clamped)
        steps += 1
        # Each step leaves w a fresh array that nothing mutates later, so
        # the history stores it without a copy.
        if steps % control.record_every == 0 or last:
            times.append(t)
            S_hist.append(S)
            w_hist.append(w)
        return w

    if control.method == "rk4":
        n_full = int(math.floor(t_end / dt + 1e-9))
        rem = t_end - n_full * dt
        # A horizon shorter than dt is one step of its own length.
        tail = rem > 1e-12 or n_full == 0
        for i in range(n_full):
            S, w = _rk4(rhs, S, w, dt)
            w = accept(S, w, (i + 1) * dt, dt, i == n_full - 1 and not tail)
        if tail:
            S, w = _rk4(rhs, S, w, rem)
            accept(S, w, t_end, rem, True)
    else:
        tol = control.tolerance
        t = 0.0
        last = False
        while not last:
            if steps >= MAX_STEPS:
                raise NumericalError(
                    f"horizon {t_end!r} needs more than MAX_STEPS steps at t={t!r}")
            # Underflow is the controller's; the step ending on t_end may be shorter.
            if dt < MIN_ADAPTIVE_STEP:
                raise StiffnessError(
                    f"step size underflow at t={t!r} (dt={dt!r})"
                )
            dt = min(dt, t_end - t)
            # Both steps from (S, w) start from the same right-hand side.
            k1 = rhs(S, w)
            S1, w1 = _rk4(rhs, S, w, dt, k1)
            Sh, wh = _rk4(rhs, S, w, 0.5 * dt, k1)
            S2, w2 = _rk4(rhs, Sh, wh, 0.5 * dt)
            err = (abs(S2 - S1) + float(np.abs(w2 - w1).max())) / 15.0
            if not math.isfinite(err):
                raise NumericalError(
                    f"non-finite error estimate at t={t!r}, dt={dt!r}"
                )
            if err <= tol:
                t += dt
                S = S2
                last = t >= t_end - 1e-13
                w = accept(S, w2, t, dt, last)
            factor = 0.9 * (tol / max(err, 1e-300)) ** 0.2
            dt *= min(5.0, max(0.2, factor))

    return Trajectory(
        space=state0.space,
        times=np.asarray(times),
        S=np.asarray(S_hist),
        weights=np.asarray(w_hist),
        metadata={"dt": control.dt, "t_end": t_end, "clamped_weights": clamped[0],
                  "integrator": control.method},
    )


def _cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    """Composite-trapezoid cumulative integral along axis 0."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * h * (y[1:] + y[:-1]), axis=0)
    return out


def contraction_weight_default(rates: VitalRates, mass_bound: float, T: float) -> float:
    """Heuristic weight for the exponentially weighted sup norm.

    Twice a crude bound on the integral operator's Lipschitz constant,
    assembled from the sampled sup/Lipschitz norms of the truncated rates
    (rates.assumptions), the dilution and the mass bound. Any value above
    the true constant makes the operator a contraction in that norm.
    """
    rep = rates.assumptions
    b_bl = rep.uptake_sup + rep.uptake_lip
    d_bl = rep.mortality_sup + rep.mortality_lip
    f21_sup = rep.uptake_sup * mass_bound
    f21_lip = b_bl * (1.0 + mass_bound)
    n_t = (
        d_bl * mass_bound
        + f21_lip * (d_bl * T + 1.0)
        + T * f21_sup * d_bl
        + rep.uptake_sup
        + mass_bound * rep.uptake_lip
        + rates.dilution
    )
    return 2.0 * max(n_t, 1.0)


def picard_solve(
    state0: SystemState,
    t_end: float,
    control: StepControl,
    rates: VitalRates,
    K: MutationKernel,
) -> Trajectory:
    """Fixed-point integration of the mild-solution operator on [0, t_end].

    The operator sends a candidate trajectory zeta to
        S(t)  = e^(-dilution*t) S0 + int_0^t e^(-dilution*(t-s)) F11(zeta(s)) ds
        mu(t) = E(0,t) . mu0 + int_0^t E(s,t) . F21(zeta(s)) ds
    where F11 = inflow - mu[B(S,.)], F21 is the birth measure pushed through
    the kernel, and E(s,t) decays each atom by its accumulated mortality.
    Time integrals use the composite trapezoid rule on PICARD_NODES
    intervals; windows of length at most PICARD_WINDOW are chained for
    longer horizons.
    A window ends when the sup distance between successive iterates (|dS|
    plus a total-variation proxy for the flat norm) drops below PICARD_TOL.
    The rates must be truncated: the operator contracts only on those.

    Of the control it reads lam and record_every: record_every k keeps nodes
    k, 2k, ... and the last, as integrate keeps steps. control.lam (None:
    contraction_weight_default) is not a stop rule but the weight of the
    norm sup e^(-lam*t)|.| in which the operator contracts; the metadata's
    contraction_ratio is the largest ratio of successive distances in that
    norm while they are at least PICARD_TOL.
    """
    _check_inputs(state0, t_end, rates, K)
    if not state0.in_cone():
        raise ConfigError("picard_solve needs cone initial data")
    n_windows = max(1, int(math.ceil(t_end / PICARD_WINDOW - 1e-12)))
    if n_windows * PICARD_NODES > MAX_STEPS:
        raise ConfigError(f"horizon {t_end!r} needs more than MAX_STEPS Picard nodes")
    mass_bound = max(state0.total_mass(), dissipativity_bound(rates))
    Tw = t_end / n_windows
    lam = control.lam
    if lam is None:
        lam = contraction_weight_default(rates, mass_bound, Tw)

    KT_rows = K.rows  # nu = x @ rows gives nu_j = sum_i x_i rows[i, j]
    inflow, dilution = rates.inflow, rates.dilution
    h = Tw / PICARD_NODES
    tau = np.linspace(0.0, Tw, PICARD_NODES + 1)
    decay_weight = np.exp(-lam * tau)
    grow = np.exp(dilution * tau)
    shrink = np.exp(-dilution * tau)

    all_times = [np.array([0.0])]
    all_S = [np.array([state0.S])]
    all_W = [state0.mu.weights.copy()[None, :]]
    ratios = []
    iterations = []
    clamped = [0]

    S0 = float(state0.S)
    W0 = state0.mu.weights.copy()
    t_offset = 0.0
    for _ in range(n_windows):
        S_arr = np.full(PICARD_NODES + 1, S0)
        W_arr = np.tile(W0, (PICARD_NODES + 1, 1))
        prev_weighted = None
        for it in range(1, PICARD_MAX_ITER + 1):
            B = rates.uptake_values(S_arr)          # (m+1, n)
            Dm = rates.mortality_values(S_arr)
            birth = B * W_arr
            F11 = inflow - birth.sum(axis=1)
            F21 = birth @ KT_rows
            S_new = shrink * (S0 + _cumtrapz(grow * F11, h))
            Idm = _cumtrapz(Dm, h)
            W_new = np.exp(-Idm) * (W0 + _cumtrapz(np.exp(Idm) * F21, h))
            increment = np.abs(S_new - S_arr) + np.abs(W_new - W_arr).sum(axis=1)
            weighted = float(np.max(decay_weight * increment))
            if prev_weighted is not None and weighted >= PICARD_TOL:
                ratios.append(weighted / prev_weighted)
            prev_weighted = weighted
            S_arr, W_arr = S_new, W_new
            if float(np.max(increment)) < PICARD_TOL:
                iterations.append(it)
                break
        else:
            ratio = max(ratios[-5:]) if ratios else float("nan")
            raise ConvergenceError(
                f"picard iteration did not converge in {PICARD_MAX_ITER} steps "
                f"(last contraction ratio {ratio!r})"
            )
        W_arr = _clamp_weights(W_arr, clamped)
        all_times.append(t_offset + tau[1:])
        all_S.append(S_arr[1:])
        all_W.append(W_arr[1:])
        S0 = float(S_arr[-1])
        W0 = W_arr[-1].copy()
        t_offset += Tw

    times, S, W = np.concatenate(all_times), np.concatenate(all_S), np.vstack(all_W)
    keep = np.r_[0:len(times) - 1:control.record_every, len(times) - 1]
    times, S, W = times[keep], S[keep], W[keep]
    return Trajectory(
        space=state0.space,
        times=times,
        S=S,
        weights=W,
        metadata={
            "integrator": "picard",
            "lambda": lam,
            "nodes": PICARD_NODES,
            "windows": n_windows,
            "iterations": iterations,
            "contraction_ratio": max(ratios) if ratios else 0.0,
            "clamped_weights": clamped[0],
        },
    )
