"""Vital rates: per-strategy uptake and mortality families.

Uptake B(S, q) must vanish at S = 0, be nondecreasing in S, and Lipschitz
uniformly over strategies. Mortality D(S, q) must be nonincreasing in S
with a positive floor (inherent mortality). Families are closed forms with
per-atom coefficients; VitalRates.assumptions samples the closed forms once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

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
    ok: bool
    messages: tuple
    floor: float
    uptake_sup: float
    uptake_lip: float
    mortality_sup: float
    mortality_lip: float


@dataclass(frozen=True)
class VitalRates:
    """Inflow, dilution, and the per-strategy rate families.

    clamp, when set, truncates the substrate argument of both families to
    [0, clamp] before evaluation; outside that band the rates are frozen at
    the boundary values, making them globally bounded and Lipschitz.
    """

    inflow: float
    dilution: float
    uptake: UptakeSpec
    mortality: MortalitySpec
    clamp: float | None = None

    def __post_init__(self):
        if self.inflow < 0:
            raise ConfigError("inflow must be nonnegative")
        if self.dilution <= 0:
            raise ConfigError("dilution must be positive")
        if self.clamp is not None and self.clamp <= 0:
            raise ConfigError("truncation level must be positive")

    @functools.cached_property
    def assumptions(self) -> RateValidationReport:
        """Sampled admissibility checks on [0, clamp], computed at most once.

        Checks uptake monotonicity and zero at S = 0, positivity for S > 0,
        mortality monotonicity and a positive floor, and estimates uniform
        Lipschitz constants of both families by finite differences.
        """
        if self.clamp is None:
            raise ConfigError("rate assumptions need truncated rates")
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
        h = grid[1] - grid[0]
        return RateValidationReport(
            ok=not messages,
            messages=tuple(messages),
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
            if clamp is not None:
                S = min(max(S, 0.0), clamp)
        else:
            S = np.asarray(S, dtype=float)
            if clamp is not None:
                S = np.clip(S, 0.0, clamp)
            S = S[..., None]
        if up.family == "monod":
            return up.b * S / (up.a + S)
        return up.b * S

    def mortality_values(self, S) -> np.ndarray:
        """D(S, .) over all atoms; S may be a scalar or an array."""
        clamp, mo = self.clamp, self.mortality
        if isinstance(S, float):
            if mo.family == "constant":
                return mo.d0.copy()
            if clamp is not None:
                S = min(max(S, 0.0), clamp)
        else:
            S = np.asarray(S, dtype=float)
            if mo.family == "constant":
                return np.broadcast_to(mo.d0, S.shape + mo.d0.shape).copy()
            if clamp is not None:
                S = np.clip(S, 0.0, clamp)
            S = S[..., None]
        return mo.d0 + mo.c / (1.0 + S)


def dissipativity_bound(rates: VitalRates) -> float:
    """Eventual mass bound inflow / min{dilution, 1, mortality floor}.

    The floor is rates.assumptions.floor, sampled on [0, N] for the
    truncation level N = rates.clamp, so it matches what the dynamics can
    actually see.
    """
    floor = rates.assumptions.floor
    if floor <= 0:
        raise ValidationError(f"mortality floor {floor!r} is not positive")
    return rates.inflow / min(rates.dilution, 1.0, floor)


def breakevens(rates: VitalRates) -> list:
    """Substrate level where uptake meets mortality, for every strategy.

    With f = B - D and top the truncation level rates.clamp, an entry is 0.0
    when f(0) > 0 or f(0) = 0 <= f(top), None when f(top) < 0 (no
    persistence at any attainable level), and else the root in (0, top] of
    the quadratic qa S^2 + qb S + qc that f = 0 multiplies out to (constant
    mortality is c = 0), as -2 qc / (qb + sqrt(qb^2 - 4 qa qc)): free of
    cancellation, with a positive denominator when f(0) < 0 <= f(top).
    """
    if rates.clamp is None:
        raise ConfigError("break-evens need truncated rates")
    top = float(rates.clamp)
    f_lo = rates.uptake_values(0.0) - rates.mortality_values(0.0)
    f_hi = rates.uptake_values(top) - rates.mortality_values(top)
    out = [0.0 if fl > 0 or not fh < 0 else None
           for fl, fh in zip(f_lo.tolist(), f_hi.tolist())]
    i = np.flatnonzero((f_lo < 0) & (f_hi >= 0))
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


def truncate(rates: VitalRates, N: float) -> VitalRates:
    """Clamp the substrate argument of both rate families to [0, N]."""
    return replace(rates, clamp=float(N))


def default_truncation_level(rates: VitalRates, S0: float, mass0: float) -> float:
    """Level at which trajectories from (S0, mass0) never reach the clamp.

    Twice the largest of the initial substrate, the washout equilibrium,
    and the initial mass; bounded trajectories stay strictly inside.
    """
    return 2.0 * max(S0, rates.inflow / rates.dilution, mass0, 0.5)
