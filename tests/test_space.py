import numpy as np
import pytest

import crflow.space
from crflow.errors import ConfigError
from crflow.space import StrategySpace, build_grid, detour_lengths, euclidean_metric

from conftest import random_space


def test_uniform_line_grid():
    sp = build_grid(1, [(0.0, 1.0)], [3])
    assert np.allclose(sp.points.ravel(), [0.0, 0.5, 1.0])
    assert sp.metric[0, 2] == 1.0


def test_degenerate_single_point():
    sp = build_grid(1, [(0.0, 0.0)], [1])
    assert sp.size == 1
    assert sp.metric[0, 0] == 0.0
    assert sp.metric.max() == 0.0


def test_square_lattice_distances():
    sp = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [2, 2])
    assert sp.size == 4
    assert sp.metric.max() == pytest.approx(np.sqrt(2.0))


def test_line_endpoints_diameter():
    sp = build_grid(1, [(0.0, 1.0)], [3])
    assert sp.metric.max() == 1.0


def test_invalid_configurations():
    with pytest.raises(ConfigError):
        build_grid(1, [(0.0, 1.0)], [0])
    with pytest.raises(ConfigError):
        build_grid(1, [(1.0, 0.0)], [2])
    with pytest.raises(ConfigError):
        build_grid(1, [(0.0, 0.0)], [2])


def test_metric_shape_mismatch():
    with pytest.raises(ConfigError):
        StrategySpace(np.array([[0.0], [1.0]]), np.zeros((3, 3)))


def test_metric_axioms_on_random_grids(rng):
    for _ in range(20):
        sp = random_space(rng, max_atoms=6, dim=int(rng.integers(1, 3)))
        m = sp.metric
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)
        n = sp.size
        off = m[~np.eye(n, dtype=bool)]
        assert np.all(off > 0)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i, k] <= m[i, j] + m[j, k] + 1e-12


def test_triangle_violation_rejected():
    bad = np.array([
        [0.0, 1.0, 5.0],
        [1.0, 0.0, 1.0],
        [5.0, 1.0, 0.0],
    ])
    with pytest.raises(ConfigError):
        StrategySpace(np.array([[0.0], [1.0], [2.0]]), bad)


def test_triangle_violation_rejected_at_any_size():
    # 300 atoms, one pair of distances too long by 1e-9
    pts = np.linspace(0.0, 1.0, 300)[:, None]
    bad = euclidean_metric(pts)
    bad[0, 299] = bad[299, 0] = 1.0 + 1e-9
    with pytest.raises(ConfigError, match="triangle"):
        StrategySpace(pts, bad)


@pytest.mark.parametrize("block", [1 << 20, 50])
def test_detour_lengths_match_every_third_atom(monkeypatch, rng, block):
    # a block of 50 sums is one row at a time
    monkeypatch.setattr(crflow.space, "_DETOUR_BLOCK", block)
    for _ in range(5):
        d = random_space(rng, max_atoms=9).metric
        n = d.shape[0]
        got = detour_lengths(d)
        for i in range(n):
            for j in range(n):
                if i != j:
                    via = [d[i, k] + d[k, j] for k in range(n) if k not in (i, j)]
                    assert got[i, j] == min(via, default=np.inf)


def test_build_grid_deterministic():
    a = build_grid(2, [(0.0, 1.0), (-1.0, 1.0)], [3, 4])
    b = build_grid(2, [(0.0, 1.0), (-1.0, 1.0)], [3, 4])
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.metric, b.metric)


def test_custom_metric_accepted():
    # non-Euclidean but valid metric
    m = np.array([[0.0, 2.0], [2.0, 0.0]])
    sp = StrategySpace(np.array([[0.0], [1.0]]), m)
    assert sp.metric.max() == 2.0


def test_euclidean_metric_matches_norm(rng):
    pts = rng.normal(size=(5, 3))
    m = euclidean_metric(pts)
    assert m[1, 3] == pytest.approx(np.linalg.norm(pts[1] - pts[3]))
