"""Mutation kernels: row-stochastic offspring distributions per strategy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from crflow.errors import ConfigError, DimensionError
from crflow.space import StrategySpace

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class MutationKernel:
    """Row i is the offspring distribution of strategy i over the atoms.

    Entries must be finite and nonnegative and rows sum to one within
    ROW_SUM_TOL. Pass renormalize=True to rescale row sums explicitly; it is
    never silent.
    """

    space: StrategySpace
    rows: np.ndarray
    renormalize: bool = field(default=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        n = self.space.size
        if rows.shape != (n, n):
            raise DimensionError(
                f"kernel shape {rows.shape} does not match {n} atoms"
            )
        report = validate_stochastic(rows)
        if (report.negative_entries or not np.isfinite(report.max_row_sum_error)
                or report.messages and not self.renormalize):
            raise ConfigError(report.messages[0])
        if self.renormalize:
            sums = rows.sum(axis=1)
            if np.any(sums <= 0):
                raise ConfigError("cannot renormalize a zero row")
            rows = rows / sums[:, None]
        rows = np.ascontiguousarray(rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)


def pure_selection_kernel(space: StrategySpace) -> MutationKernel:
    """Offspring keep the parent strategy exactly: the identity kernel."""
    return MutationKernel(space, np.eye(space.size))


def local_mutation_kernel(space: StrategySpace, width: float) -> MutationKernel:
    """Gaussian mutation: row i proportional to exp(-d(i,j)^2 / (2 width^2))."""
    if width <= 0:
        raise ConfigError("mutation width must be positive")
    scale = 2.0 * width ** 2
    if scale == 0.0:
        raise ConfigError(f"mutation width {width:g} is too small: 2 width^2 underflows to 0")
    with np.errstate(over="ignore"):        # -inf is the limit: exp gives 0
        logw = -(space.metric ** 2) / scale
    rows = np.exp(logw)
    return MutationKernel(space, rows / rows.sum(axis=1)[:, None])


@dataclass(frozen=True)
class StochasticityReport:
    ok: bool
    max_row_sum_error: float
    negative_entries: tuple
    messages: tuple


def validate_stochastic(rows) -> StochasticityReport:
    """Report non-finite and negative entries and row-sum deviations beyond
    tolerance; max_row_sum_error is not finite when an entry is not."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    messages = [
        f"non-finite entry {float(rows[i, j])!r} at ({i}, {j})"
        for i, j in zip(*np.nonzero(~np.isfinite(rows)))
    ]
    negs = [
        (int(i), int(j)) for i, j in zip(*np.nonzero(rows < 0))
    ]
    for i, j in negs:
        messages.append(f"negative entry {float(rows[i, j])!r} at ({i}, {j})")
    sums = rows.sum(axis=1)
    err = float(np.abs(sums - 1.0).max()) if sums.size else 0.0
    for i in np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL):
        messages.append(f"row {int(i)} sums to {float(sums[i])!r}")
    ok = not messages
    return StochasticityReport(
        ok=ok,
        max_row_sum_error=err,
        negative_entries=tuple(negs),
        messages=tuple(messages),
    )
