"""Finite strategy spaces: a point cloud plus an explicit metric."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from crflow.errors import ConfigError

# Triangle-inequality verification is O(n^3); skip it above this size.
_TRIANGLE_CHECK_LIMIT = 256


@dataclass(frozen=True)
class StrategySpace:
    """A compact strategy space discretized to atoms with a distance matrix.

    points: (n, dim) coordinates of the atoms.
    metric: (n, n) symmetric distances, zero diagonal, positive off-diagonal;
    None is the Euclidean distance. An error names its argument first.
    """

    points: np.ndarray
    metric: np.ndarray | None = None

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ConfigError("points: expected a 2-D array with a row per atom, "
                              f"got shape {points.shape}")
        metric = np.asarray(
            euclidean_metric(points) if self.metric is None else self.metric, dtype=float)
        n = points.shape[0]
        if metric.shape != (n, n):
            raise ConfigError(
                f"metric: shape {metric.shape} does not match {n} points"
            )
        if not np.allclose(metric, metric.T, atol=0.0):
            raise ConfigError("metric: must be symmetric")
        if np.any(np.diag(metric) != 0.0):
            raise ConfigError("metric: diagonal must be zero")
        off = metric[~np.eye(n, dtype=bool)]
        if off.size and np.any(off <= 0.0):
            raise ConfigError("metric: off-diagonal distances must be positive")
        if n <= _TRIANGLE_CHECK_LIMIT:
            # d(i,k) <= d(i,j) + d(j,k) for all triples
            via = metric[:, :, None] + metric[None, :, :]
            if np.any(metric > via.min(axis=1) + 1e-12):
                raise ConfigError("metric: violates the triangle inequality")
        points.setflags(write=False)
        metric.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "metric", metric)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def same_as(self, other: "StrategySpace") -> bool:
        return (
            self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.metric, other.metric)
        )


def build_grid(dim, bounds, counts) -> StrategySpace:
    """Regular lattice over a box with the Euclidean metric.

    bounds: per-axis (lo, hi) pairs; counts: per-axis point counts (>= 1).
    A degenerate axis (lo == hi) is allowed only with count 1.
    """
    bounds = [tuple(map(float, b)) for b in bounds]
    counts = [int(c) for c in np.atleast_1d(counts)]
    if len(bounds) != dim or len(counts) != dim:
        raise ConfigError("bounds and counts must have one entry per axis")
    axes = []
    for (lo, hi), c in zip(bounds, counts):
        if c < 1:
            raise ConfigError("counts must be >= 1 per axis")
        if hi < lo:
            raise ConfigError(f"inverted bounds ({lo}, {hi})")
        if c > 1 and hi == lo:
            raise ConfigError("degenerate axis requires count 1")
        axes.append(np.linspace(lo, hi, c))
    pts = np.array([p for p in itertools.product(*axes)], dtype=float)
    return StrategySpace(points=pts)


def euclidean_metric(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diff = pts[:, None, :] - pts[None, :, :]
    metric = np.sqrt((diff ** 2).sum(axis=-1))
    np.fill_diagonal(metric, 0.0)
    return metric
