"""Vital rates: per-strategy uptake and mortality families.

Uptake B(S, q) must vanish at S = 0, be nondecreasing in S, and Lipschitz
uniformly over strategies. Mortality D(S, q) must be nonincreasing in S
with a positive floor (inherent mortality). Families are closed forms with
per-atom coefficients; building a VitalRates samples the closed forms once
(VitalRates.assumptions) and refuses rates that fail those checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from crflow.errors import ConfigError, ValidationError

UPTAKE_FAMILIES = ("monod", "linear")
MORTALITY_FAMILIES = ("constant", "decreasing")
# Substrate levels, evenly spaced on [0, clamp], at which the closed forms
# are sampled for VitalRates.assumptions.
RATE_SAMPLES = 256


def _coeff(value, n: int, name: str) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(value, dtype=float), (n,)).copy()
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"coefficient {name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class UptakeSpec:
    """Uptake family: monod b*S/(a+S) or linear b*S, coefficients per atom."""

    family: str
    b: np.ndarray
    a: np.ndarray | None = None

    @classmethod
    def build(cls, family: str, n: int, b, a=None) -> "UptakeSpec":
        if family not in UPTAKE_FAMILIES:
            raise ConfigError(f"unknown uptake family {family!r}")
        bv = _coeff(b, n, "b")
        if np.any(bv <= 0):
            raise ConfigError("uptake coefficient b must be positive")
        av = None
        if family == "monod":
            if a is None:
                raise ConfigError("monod uptake needs half-saturation a")
            av = _coeff(a, n, "a")
            if np.any(av <= 0):
                raise ConfigError("half-saturation a must be positive")
        return cls(family=family, b=bv, a=av)


@dataclass(frozen=True)
class MortalitySpec:
    """Mortality family: constant d0 or decreasing d0 + c/(1+S), per atom."""

    family: str
    d0: np.ndarray
    c: np.ndarray | None = None

    @classmethod
    def build(cls, family: str, n: int, d0, c=None) -> "MortalitySpec":
        if family not in MORTALITY_FAMILIES:
            raise ConfigError(f"unknown mortality family {family!r}")
        d0v = _coeff(d0, n, "d0")
        cv = None
        if family == "decreasing":
            cv = _coeff(0.0 if c is None else c, n, "c")
            if np.any(cv < 0):
                raise ConfigError("decreasing mortality needs c >= 0")
        return cls(family=family, d0=d0v, c=cv)


@dataclass(frozen=True)
class RateValidationReport:
    floor: float
    uptake_sup: float
    uptake_lip: float
    mortality_sup: float
    mortality_lip: float


@dataclass(frozen=True)
class VitalRates:
    """Inflow, dilution, the per-strategy rate families and the truncation
    level clamp.

    Both families see the substrate truncated to [0, clamp]; outside that
    band the rates are frozen at the boundary values, making them globally
    bounded and Lipschitz. Building one raises a ConfigError unless inflow
    >= 0, dilution > 0 and clamp is positive and finite, and a
    ValidationError when a sampled check of `assumptions` fails, so every
    VitalRates is admissible as it is. dataclasses.replace(rates, clamp=N)
    gives the same rates at another level.
    """

    inflow: float
    dilution: float
    uptake: UptakeSpec
    mortality: MortalitySpec
    clamp: float

    def __post_init__(self):
        if not self.inflow >= 0:
            raise ConfigError("inflow must be nonnegative")
        if not self.dilution > 0:
            raise ConfigError("dilution must be positive")
        if not self.clamp > 0:
            raise ConfigError("truncation level must be positive")
        if not self.clamp < math.inf:
            raise ConfigError("truncation level must be finite")
        self.assumptions            # samples once; raises unless admissible

    @functools.cached_property
    def assumptions(self) -> RateValidationReport:
        """Sampled admissibility checks on [0, clamp], computed once, when
        the rates are built.

        Checks uptake monotonicity and zero at S = 0, positivity for S > 0,
        mortality monotonicity and a positive floor, and raises a
        ValidationError naming every check that fails. Estimates uniform
        Lipschitz constants of both families by finite differences.
        """
        grid = np.linspace(0.0, self.clamp, RATE_SAMPLES)
        B = self.uptake_values(grid)     # (samples, n)
        D = self.mortality_values(grid)
        messages = []
        if np.any(np.abs(B[0]) > 0):
            messages.append("uptake does not vanish at S = 0")
        if np.any(B[1:] <= 0):
            messages.append("uptake must be positive for S > 0")
        dB = np.diff(B, axis=0)
        if np.any(dB < -1e-12):
            messages.append("uptake is not nondecreasing in S")
        dD = np.diff(D, axis=0)
        if np.any(dD > 1e-12):
            messages.append("mortality is not nonincreasing in S")
        floor = float(D.min())
        if floor <= 0:
            messages.append(f"mortality floor {floor!r} is not positive")
        if messages:
            raise ValidationError("rate assumptions failed: " + "; ".join(messages))
        h = grid[1] - grid[0]
        return RateValidationReport(
            floor=floor,
            uptake_sup=float(np.abs(B).max()),
            uptake_lip=float(np.abs(dB).max()) / h,
            mortality_sup=float(np.abs(D).max()),
            mortality_lip=float(np.abs(dD).max()) / h,
        )

    # Every right-hand side evaluates both rates, so each is one frame: the
    # clamp, then the closed form. A Python float S, the substrate of every
    # RK4 stage, is clamped with min/max, the same IEEE result as np.clip
    # (-0.0 and NaN included) at a fraction of its cost.

    def uptake_values(self, S) -> np.ndarray:
        """B(S, .) over all atoms; S may be a scalar or an array."""
        clamp, up = self.clamp, self.uptake
        if isinstance(S, float):
            S = min(max(S, 0.0), clamp)
        else:
            S = np.clip(np.asarray(S, dtype=float), 0.0, clamp)[..., None]
        if up.family == "monod":
            return up.b * S / (up.a + S)
        return up.b * S

    def mortality_values(self, S) -> np.ndarray:
        """D(S, .) over all atoms; S may be a scalar or an array."""
        clamp, mo = self.clamp, self.mortality
        if isinstance(S, float):
            if mo.family == "constant":
                return mo.d0.copy()
            S = min(max(S, 0.0), clamp)
        else:
            S = np.asarray(S, dtype=float)
            if mo.family == "constant":
                return np.broadcast_to(mo.d0, S.shape + mo.d0.shape).copy()
            S = np.clip(S, 0.0, clamp)[..., None]
        return mo.d0 + mo.c / (1.0 + S)


def dissipativity_bound(rates: VitalRates) -> float:
    """Eventual mass bound inflow / min{dilution, 1, mortality floor}.

    The floor is rates.assumptions.floor, sampled on [0, N] for the
    truncation level N = rates.clamp, so it matches what the dynamics can
    actually see; building the rates made it positive.
    """
    return rates.inflow / min(rates.dilution, 1.0, rates.assumptions.floor)


def breakevens(rates: VitalRates) -> list:
    """Substrate level where uptake meets mortality, for every strategy.

    With f = B - D and top the truncation level rates.clamp, f(0) = -D(0)
    < 0 for admissible rates. An entry is None when f(top) < 0 (no
    persistence at any attainable level), and else the root in (0, top] of
    the quadratic qa S^2 + qb S + qc that f = 0 multiplies out to (constant
    mortality is c = 0), as -2 qc / (qb + sqrt(qb^2 - 4 qa qc)): free of
    cancellation, with a positive denominator when f(0) < 0 <= f(top).
    """
    top = float(rates.clamp)
    f_hi = rates.uptake_values(top) - rates.mortality_values(top)
    out = [None] * len(f_hi)
    i = np.flatnonzero(f_hi >= 0)
    b, d0 = rates.uptake.b[i], rates.mortality.d0[i]
    c = 0.0 if rates.mortality.c is None else rates.mortality.c[i]
    qa, qb, qc = b, b - d0, -(d0 + c)                  # linear: f (1 + S)
    if rates.uptake.family == "monod":                 # monod: f (a + S)(1 + S)
        a = rates.uptake.a[i]
        qa, qb, qc = b - d0, b - d0 * (1.0 + a) - c, a * qc
    roots = -2.0 * qc / (qb + np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)))
    for k, root in zip(i.tolist(), np.minimum(roots, top).tolist()):
        out[k] = root
    return out


def default_truncation_level(inflow: float, dilution: float, S0: float,
                             mass0: float) -> float:
    """Level at which trajectories from (S0, mass0) never reach the clamp.

    Twice the largest of the initial substrate, the washout equilibrium
    inflow / dilution, and the initial mass; bounded trajectories stay
    strictly inside. A dilution <= 0 has no washout level and adds none:
    VitalRates refuses it.
    """
    washout = inflow / dilution if dilution > 0 else 0.0
    return 2.0 * max(S0, washout, mass0, 0.5)
