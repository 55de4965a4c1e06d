"""Mutation kernels: row-stochastic offspring distributions per strategy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crflow.errors import ConfigError, DimensionError
from crflow.space import StrategySpace

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class MutationKernel:
    """Row i is the offspring distribution of strategy i over the atoms.

    Entries must be finite and nonnegative and rows sum to one within
    ROW_SUM_TOL.
    """

    space: StrategySpace
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        n = self.space.size
        if rows.shape != (n, n):
            raise DimensionError(
                f"kernel shape {rows.shape} does not match {n} atoms"
            )
        # First fault wins.
        for bad, what in ((~np.isfinite(rows), "non-finite"), (rows < 0, "negative")):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ConfigError(f"{what} entry {float(rows[i, j])!r} at ({i}, {j})")
        with np.errstate(over="ignore"):        # an inf sum is reported below
            sums = rows.sum(axis=1)
        off = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if off.size:
            raise ConfigError(f"row {off[0]} sums to {float(sums[off[0]])!r}")
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
