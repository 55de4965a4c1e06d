"""Finite strategy spaces: a point cloud plus an explicit metric."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from crflow.errors import ConfigError

# Sums d_ik + d_kj that detour_lengths holds at once: 256 KB of float64,
# which keeps a block in cache and the peak memory small.
_DETOUR_BLOCK = 1 << 15


@dataclass(frozen=True)
class StrategySpace:
    """A compact strategy space discretized to atoms with a distance matrix.

    points: (n, dim) coordinates of the atoms.
    metric: (n, n) symmetric distances, zero diagonal, positive off-diagonal;
    None is the Euclidean distance. A given metric is checked against the
    triangle inequality; a computed one needs no check. An error names its
    argument first. `detours` is computed at most once per space.
    """

    points: np.ndarray
    metric: np.ndarray | None = None

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ConfigError("points: expected a 2-D array with a row per atom, "
                              f"got shape {points.shape}")
        given = self.metric is not None
        metric = np.asarray(self.metric if given else euclidean_metric(points), dtype=float)
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
        points.setflags(write=False)
        metric.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "metric", metric)
        if given and np.any(metric > self.detours + 1e-12):
            raise ConfigError("metric: violates the triangle inequality")

    @functools.cached_property
    def detours(self) -> np.ndarray:
        """detour_lengths of the metric, read-only."""
        out = detour_lengths(self.metric)
        out.setflags(write=False)
        return out

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


def detour_lengths(metric: np.ndarray) -> np.ndarray:
    """(n, n) array of min over k not in {i, j} of d_ik + d_kj, for i != j.

    The shortest way from i to j through a third atom; +inf when there is
    none. The diagonal holds no detour and is left for the caller to mask.
    Rows i are taken a block at a time, so memory stays O(n^2) at any size.
    """
    d = np.array(metric, dtype=float)
    n = d.shape[0]
    d.flat[::n + 1] = np.inf
    out = np.empty((n, n))
    rows = max(1, _DETOUR_BLOCK // (n * n))
    for start in range(0, n, rows):
        np.min(d[start:start + rows, :, None] + d[None, :, :], axis=1,
               out=out[start:start + rows])
    return out


def euclidean_metric(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diff = pts[:, None, :] - pts[None, :, :]
    metric = np.sqrt((diff ** 2).sum(axis=-1))
    np.fill_diagonal(metric, 0.0)
    return metric
