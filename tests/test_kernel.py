import numpy as np
import pytest

from crflow.errors import ConfigError
from crflow.kernel import (
    MutationKernel,
    local_mutation_kernel,
    pure_selection_kernel,
)
from crflow.measure import DiscreteMeasure, flat_distance
from crflow.space import StrategySpace, build_grid

from conftest import random_space
from oracles import bullet_kernel, kernel_lipschitz_bound, row_measure


def test_pure_selection_is_identity():
    sp = build_grid(1, [(0.0, 1.0)], [3])
    K = pure_selection_kernel(sp)
    assert np.array_equal(K.rows, np.eye(3))


def test_pure_selection_singleton():
    sp = build_grid(1, [(0.0, 0.0)], [1])
    assert np.array_equal(pure_selection_kernel(sp).rows, [[1.0]])


def test_pure_selection_acts_as_identity(rng):
    sp = random_space(rng, max_atoms=5)
    mu = DiscreteMeasure(sp, rng.normal(size=sp.size))
    out = bullet_kernel(pure_selection_kernel(sp), mu)
    assert np.array_equal(out.weights, mu.weights)


def test_gaussian_rows_sum_to_one():
    sp = build_grid(1, [(0.0, 1.0)], [7])
    K = local_mutation_kernel(sp, 0.3)
    assert np.allclose(K.rows.sum(axis=1), 1.0, atol=1e-15)
    assert np.all(K.rows >= 0)


def test_gaussian_narrow_width_approaches_identity():
    sp = build_grid(1, [(0.0, 1.0)], [5])
    K = local_mutation_kernel(sp, sp.metric.max() / 1000.0)
    off = K.rows[~np.eye(5, dtype=bool)]
    assert off.max() < 1e-6
    # d^2 / (2 width^2) overflows to inf, whose exp is the 0 it tends to
    with np.errstate(all="raise"):
        assert np.array_equal(local_mutation_kernel(sp, 1e-160).rows, np.eye(5))


def test_gaussian_singleton_any_width():
    sp = build_grid(1, [(0.0, 0.0)], [1])
    assert np.array_equal(local_mutation_kernel(sp, 5.0).rows, [[1.0]])


def test_gaussian_rejects_bad_width():
    sp = build_grid(1, [(0.0, 1.0)], [2])
    with pytest.raises(ConfigError):
        local_mutation_kernel(sp, 0.0)


class TestLipschitzBound:
    def test_constant_kernel_is_zero(self):
        sp = build_grid(1, [(0.0, 1.0)], [3])
        rows = np.tile([0.2, 0.3, 0.5], (3, 1))
        assert kernel_lipschitz_bound(MutationKernel(sp, rows)) == 0.0

    def test_singleton_is_zero(self):
        sp = build_grid(1, [(0.0, 0.0)], [1])
        assert kernel_lipschitz_bound(pure_selection_kernel(sp)) == 0.0

    def test_pure_selection_closed_form(self):
        sp = build_grid(1, [(0.0, 1.0)], [4])
        K = pure_selection_kernel(sp)
        n = sp.size
        expected = max(
            2.0 / (2.0 + sp.metric[i, j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        assert kernel_lipschitz_bound(K) == pytest.approx(expected, abs=1e-9)
        assert kernel_lipschitz_bound(K) <= 1.0

    def test_two_atom_row_difference(self):
        sp = StrategySpace(
            np.array([[0.0], [1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        K = MutationKernel(sp, np.array([[1.0, 0.0], [0.5, 0.5]]))
        expected = flat_distance(row_measure(K, 0), row_measure(K, 1))
        assert kernel_lipschitz_bound(K) == pytest.approx(expected, abs=1e-12)

    def test_pure_selection_bound_below_one_on_random_spaces(self, rng):
        for _ in range(5):
            sp = random_space(rng, max_atoms=5)
            assert kernel_lipschitz_bound(pure_selection_kernel(sp)) <= 1.0

    def test_invariant_under_atom_relabeling(self, rng):
        sp = build_grid(1, [(0.0, 1.0)], [4])
        rows = rng.dirichlet(np.ones(4), size=4)
        K = MutationKernel(sp, rows)
        perm = rng.permutation(4)
        sp_p = StrategySpace(sp.points[perm], sp.metric[np.ix_(perm, perm)])
        K_p = MutationKernel(sp_p, K.rows[np.ix_(perm, perm)])
        assert kernel_lipschitz_bound(K_p) == pytest.approx(
            kernel_lipschitz_bound(K), abs=1e-9
        )


class TestValidation:
    def test_identity_passes(self):
        sp = build_grid(1, [(0.0, 1.0)], [2])
        assert np.array_equal(MutationKernel(sp, np.eye(2)).rows, np.eye(2))

    # The first fault names the error, in the order non-finite entry,
    # negative entry, row sum; the values print as plain floats, so the text
    # does not depend on the numpy version.
    @pytest.mark.parametrize("rows, message", [
        ([[0.6, 0.5], [0.5, 0.5]], "row 0 sums to 1.1"),
        ([[0.5, 0.5], [0.3, 0.3]], "row 1 sums to 0.6"),
        ([[-0.1, 1.1], [0.5, 0.5]], "negative entry -0.1 at (0, 0)"),
        ([[0.5, 0.5], [1.2, -0.5]], "negative entry -0.5 at (1, 1)"),
        ([[np.nan, 0.5], [0.5, 0.5]], "non-finite entry nan at (0, 0)"),
        ([[0.6, -0.5], [np.inf, 0.5]], "non-finite entry inf at (1, 0)"),
        ([[-0.5, 2.0], [0.5, 0.5]], "negative entry -0.5 at (0, 0)"),
        ([[np.inf, 0.5], [0.5, 0.5]], "non-finite entry inf at (0, 0)"),
        ([[1e308, 1e308], [0.5, 0.5]], "row 0 sums to inf"),
        ([[0.0, 0.0], [0.5, 0.5]], "row 0 sums to 0.0"),
    ])
    def test_constructor_names_the_first_fault(self, rows, message):
        sp = build_grid(1, [(0.0, 1.0)], [2])
        with pytest.raises(ConfigError) as info:
            MutationKernel(sp, np.array(rows))
        assert str(info.value) == message

    def test_rejected_before_it_divides(self):
        sp = build_grid(1, [(0.0, 1.0)], [2])
        # no floating-point warning
        with np.errstate(all="raise"), pytest.raises(ConfigError, match="width 1e-300 is too small"):
            local_mutation_kernel(sp, 1e-300)


def test_mass_invariance_random_kernels(rng):
    for _ in range(10):
        sp = random_space(rng, max_atoms=6)
        K = MutationKernel(sp, rng.dirichlet(np.ones(sp.size), size=sp.size))
        mu = DiscreteMeasure(sp, rng.uniform(0.0, 1.0, sp.size))
        out = bullet_kernel(K, mu)
        assert abs(out.total_mass() - mu.total_mass()) <= 1e-12
