import numpy as np
import pytest

import crflow.kernel as kern
import crflow.measure
import crflow.space
from crflow.errors import DimensionError, NumericalError
from crflow.measure import (
    AtomFunction,
    DiscreteMeasure,
    _arcs,
    _flow_lp,
    bl_dual_norm,
    bl_norm_fn,
    dirac,
    flat_distance,
)
from crflow.space import StrategySpace, build_grid

from conftest import random_space
from oracles import (
    bullet_fn,
    bullet_kernel,
    dense_solve_lp,
    flat_norm_bruteforce,
    flat_norm_highs,
    loop_flat_norm_lp,
    pair,
    row_measure,
)


@pytest.fixture
def line2():
    return build_grid(1, [(0.0, 1.0)], [2])


def measure(space, w):
    return DiscreteMeasure(space, np.asarray(w, dtype=float))


def fn(space, v):
    return AtomFunction(space, np.asarray(v, dtype=float))


class TestPairing:
    def test_total_mass(self, line2):
        assert pair(measure(line2, [2, 3]), fn(line2, [1, 1])) == 5.0

    def test_zero_function(self, line2):
        assert pair(measure(line2, [2, 3]), fn(line2, [0, 0])) == 0.0

    def test_defining_sum(self, line2):
        assert pair(measure(line2, [2, 3]), fn(line2, [0.5, 1.0])) == 4.0

    def test_space_mismatch(self, line2):
        other = build_grid(1, [(0.0, 1.0)], [3])
        with pytest.raises(DimensionError):
            pair(measure(line2, [1, 1]), fn(other, [1, 1, 1]))


class TestBLNorm:
    def test_constant_function(self, line2):
        assert bl_norm_fn(fn(line2, [1, 1])) == 1.0

    def test_unit_step(self, line2):
        assert bl_norm_fn(fn(line2, [0, 1])) == 2.0

    def test_zero(self, line2):
        assert bl_norm_fn(fn(line2, [0, 0])) == 0.0

    def test_singleton_has_no_lip_term(self):
        sp = build_grid(1, [(0.0, 0.0)], [1])
        assert bl_norm_fn(fn(sp, [3.0])) == 3.0


class TestDualNorm:
    def test_single_dirac_has_unit_norm(self, line2):
        assert bl_dual_norm(dirac(line2, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_measure(self, line2):
        assert bl_dual_norm(measure(line2, [0, 0])) == 0.0

    def test_dirac_pair_closed_form(self):
        # closed form 2d/(2+d) for a Dirac difference at distance d
        for d in (0.25, 1.0, 2.0, 7.5):
            sp = StrategySpace(
                np.array([[0.0], [d]]), np.array([[0.0, d], [d, 0.0]])
            )
            got = bl_dual_norm(dirac(sp, 0) - dirac(sp, 1))
            assert got == pytest.approx(2 * d / (2 + d), abs=1e-10)

    def test_nonnegative_measure_norm_is_total_mass(self, rng):
        for _ in range(20):
            sp = random_space(rng, max_atoms=6)
            w = rng.uniform(0.0, 2.0, sp.size)
            assert bl_dual_norm(measure(sp, w)) == pytest.approx(
                w.sum(), abs=1e-9
            )

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(8):
            sp = random_space(rng, max_atoms=3)
            w = rng.normal(0.0, 1.0, sp.size)
            lp = bl_dual_norm(measure(sp, w))
            bf = flat_norm_bruteforce(w, sp.metric)
            assert lp == pytest.approx(bf, abs=1e-4)

    def test_absolute_homogeneity(self, rng):
        sp = random_space(rng, max_atoms=5)
        w = rng.normal(0.0, 1.0, sp.size)
        base = bl_dual_norm(measure(sp, w))
        for alpha in (-2.0, 0.5, 3.0):
            assert bl_dual_norm(measure(sp, alpha * w)) == pytest.approx(
                abs(alpha) * base, abs=1e-9
            )

    @pytest.mark.parametrize("k", [-1071, -30, 30, 1000])
    def test_power_of_two_scaling_is_exact(self, k):
        # down to subnormal weights, where a relative tolerance underflows
        sp = build_grid(1, [(0.0, 1.0)], [2])
        w = np.array([-0.75, 0.625])
        assert bl_dual_norm(measure(sp, np.ldexp(w, k))) == np.ldexp(
            bl_dual_norm(measure(sp, w)), k)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            sp = random_space(rng, max_atoms=5)
            u = measure(sp, rng.normal(0.0, 1.0, sp.size))
            v = measure(sp, rng.normal(0.0, 1.0, sp.size))
            slack = bl_dual_norm(u) + bl_dual_norm(v) - bl_dual_norm(u + v)
            assert slack >= -1e-9

    def test_duality_bound(self, rng):
        for _ in range(20):
            sp = random_space(rng, max_atoms=5)
            mu = measure(sp, rng.normal(0.0, 1.0, sp.size))
            g = fn(sp, rng.normal(0.0, 1.0, sp.size))
            assert abs(pair(mu, g)) <= (
                bl_dual_norm(mu) * bl_norm_fn(g) + 1e-9
            )


class TestFlatDistance:
    def test_identity(self, line2):
        mu = measure(line2, [0.4, 0.6])
        assert flat_distance(mu, mu) == 0.0

    def test_symmetry(self, rng):
        sp = random_space(rng, max_atoms=4)
        mu = measure(sp, rng.normal(size=sp.size))
        nu = measure(sp, rng.normal(size=sp.size))
        assert flat_distance(mu, nu) == pytest.approx(
            flat_distance(nu, mu), abs=1e-12
        )

    def test_dirac_pair_at_distance_two(self):
        sp = StrategySpace(
            np.array([[0.0], [2.0]]), np.array([[0.0, 2.0], [2.0, 0.0]])
        )
        assert flat_distance(dirac(sp, 0), dirac(sp, 1)) == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize("dim, counts", [(1, [40]), (2, [6, 6])])
    def test_matches_highs_at_benchmark_sizes(self, rng, dim, counts):
        # the largest 1-D and 2-D spaces of the flatnorm benchmark
        sp = build_grid(dim, [(0.0, 1.0)] * dim, counts)
        for _ in range(2):
            mu = measure(sp, rng.uniform(0.0, 1.0, sp.size))
            nu = measure(sp, rng.uniform(0.0, 1.0, sp.size))
            ref = flat_norm_highs(mu.weights - nu.weights, sp.metric)
            assert flat_distance(mu, nu) == pytest.approx(ref, abs=1e-9)


class TestArcs:
    """The flow LP keeps only the arcs that no detour dominates."""

    @pytest.mark.parametrize("n, bounds", [
        (2, (0.0, 1.0)), (3, (-1.0, 2.0)), (40, (0.0, 1.0)), (123, (-3.7, 11.1)),
        (400, (1e-3, 2e-3)),
    ])
    def test_line_keeps_its_neighbour_arcs(self, n, bounds):
        sp = build_grid(1, [bounds], [n])
        c, A, b, basis = _flow_lp(np.ones(n), sp)
        assert A.shape == (n + 2, 2 * n + 2 * (n - 1) + 3)
        i, j = _arcs(sp)
        assert np.array_equal(np.abs(i - j), np.ones(2 * (n - 1)))

    def test_given_metric_matches_the_unpruned_lp(self):
        # the l1 metric on a random cloud: every atom in the box spanned by
        # i and j is a detour as short as the arc, up to rounding
        rng = np.random.default_rng(14)
        pts = rng.random((12, 2))
        sp = StrategySpace(pts, np.abs(pts[:, None] - pts[None]).sum(axis=-1))
        assert _arcs(sp)[0].size < 12 * 11
        for _ in range(20):
            w = rng.normal(size=sp.size)
            want = dense_solve_lp(*loop_flat_norm_lp(w, sp.metric))[0]
            assert bl_dual_norm(measure(sp, w)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("given", [False, True])
    def test_detours_are_computed_once_per_space(self, monkeypatch, given):
        calls = []
        detour_lengths = crflow.space.detour_lengths
        monkeypatch.setattr(crflow.space, "detour_lengths",
                            lambda d: calls.append(d.shape) or detour_lengths(d))
        grid = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [3, 3])
        # a given metric is checked against the triangle inequality with
        # the detours that the flat norm then reads
        sp = StrategySpace(grid.points, grid.metric) if given else grid
        assert calls == ([(9, 9)] if given else [])
        rng = np.random.default_rng(3)
        for _ in range(3):
            flat_distance(measure(sp, rng.random(9)), measure(sp, rng.random(9)))
        assert calls == [(9, 9)]
        assert not sp.detours.flags.writeable

    def test_distance_near_zero_keeps_every_arc(self):
        # 1e-20 + 1 rounds to 1, so each arc to atom 2 has a detour as long
        # as itself through the other atom, and pruning would cut atom 2 off
        sp = StrategySpace(np.array([[0.0], [1e-20], [1.0]]))
        assert _arcs(sp)[0].size == 6
        assert flat_distance(dirac(sp, 0), dirac(sp, 2)) == pytest.approx(2 / 3, rel=1e-12)


class TestFlatNormGate:
    """The flat norm against HiGHS at every size, and its certificate."""

    # (dimension, atoms per axis, seed). The first pair of seed 1 at 9x9
    # and the fourth pair of seed 0 at 10x10 are pairs on which the former
    # tableau solver returned 5.415 and 4.414 without raising.
    @pytest.mark.parametrize("dim, count, seed", [
        (1, 40, 40),
        (1, 100, 100),
        pytest.param(1, 200, 200, marks=pytest.mark.slow),
        pytest.param(1, 400, 400, marks=pytest.mark.slow),
        (2, 6, 6),
        (2, 8, 8),
        (2, 9, 1),
        (2, 10, 0),
        pytest.param(2, 16, 16, marks=pytest.mark.slow),
    ])
    def test_matches_highs_on_random_pairs(self, dim, count, seed):
        sp = build_grid(dim, [(0.0, 1.0)] * dim, [count] * dim)
        rng = np.random.default_rng(seed)
        # 5 pairs above 200 atoms, where each side takes seconds per pair
        for _ in range(20 if sp.size <= 200 else 5):
            mu = measure(sp, rng.random(sp.size))
            nu = measure(sp, rng.random(sp.size))
            ref = flat_norm_highs(mu.weights - nu.weights, sp.metric)
            assert flat_distance(mu, nu) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("weights", [
        [1e-9, 2.0, 3.0, 10.0, 1e-9, 0.0, -1.0, -1.0],
        [1e-9 - 1.0, 1.0, 1.0],
    ])
    def test_near_tied_ratios_keep_the_flow_feasible(self, weights):
        # ratios 1 and 1 + 1e-9 meet in the ratio test; taking the larger
        # one as a tie drives a basic variable to -1e-9
        sp = build_grid(1, [(0.0, 1.0)], [len(weights)])
        mu = measure(sp, weights)
        assert bl_dual_norm(mu) == pytest.approx(
            flat_norm_highs(mu.weights, sp.metric), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("corrupt, field", [
        (lambda value, x, y: (value, x, 1.001 * y), "BL norm"),
        (lambda value, x, y: (value, 1.001 * x, y), "flow error"),
        (lambda value, x, y: (value * (1.0 + 1e-9), x, y), "duality gap"),
    ])
    def test_corrupted_solution_raises(self, monkeypatch, corrupt, field):
        solve = crflow.measure.solve_lp
        monkeypatch.setattr(crflow.measure, "solve_lp",
                            lambda *lp: corrupt(*solve(*lp)))
        sp = build_grid(2, [(0.0, 1.0)] * 2, [3, 3])
        rng = np.random.default_rng(5)
        mu = measure(sp, rng.random(sp.size) - rng.random(sp.size))
        with pytest.raises(NumericalError, match="certificate failed") as err:
            bl_dual_norm(mu)
        assert field in str(err.value)


class TestBulletActions:
    def test_unit_function_is_identity(self, line2):
        mu = measure(line2, [2, 3])
        out = bullet_fn(fn(line2, [1, 1]), mu)
        assert np.array_equal(out.weights, mu.weights)

    def test_zero_function_annihilates(self, line2):
        out = bullet_fn(fn(line2, [0, 0]), measure(line2, [2, 3]))
        assert np.all(out.weights == 0.0)

    def test_pointwise_product(self, line2):
        out = bullet_fn(fn(line2, [0.5, 1.0]), measure(line2, [2, 3]))
        assert np.array_equal(out.weights, [1.0, 3.0])
        assert out.total_mass() == 4.0

    def test_identity_kernel_action(self, line2):
        K = kern.pure_selection_kernel(line2)
        mu = measure(line2, [0.3, 0.7])
        assert np.array_equal(bullet_kernel(K, mu).weights, mu.weights)

    def test_transpose_application(self, line2):
        K = kern.MutationKernel(line2, np.array([[0.5, 0.5], [0.0, 1.0]]))
        out = bullet_kernel(K, measure(line2, [1.0, 0.0]))
        assert np.allclose(out.weights, [0.5, 0.5])

    def test_mass_preserved_by_stochastic_kernel(self, rng):
        sp = random_space(rng, max_atoms=6)
        rows = rng.dirichlet(np.ones(sp.size), size=sp.size)
        K = kern.MutationKernel(sp, rows)
        mu = measure(sp, rng.uniform(0.0, 1.0, sp.size))
        out = bullet_kernel(K, mu)
        assert out.total_mass() == pytest.approx(mu.total_mass(), abs=1e-12)

    def test_pairing_adjoint_identity(self, rng):
        # pairing nu against g equals pairing mu against q -> gamma(q)[g]
        sp = random_space(rng, max_atoms=5)
        rows = rng.dirichlet(np.ones(sp.size), size=sp.size)
        K = kern.MutationKernel(sp, rows)
        mu = measure(sp, rng.normal(size=sp.size))
        g = fn(sp, rng.normal(size=sp.size))
        lhs = pair(bullet_kernel(K, mu), g)
        rhs = pair(mu, fn(sp, K.rows @ g.values))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_function_action_norm_bound(self, rng):
        for _ in range(15):
            sp = random_space(rng, max_atoms=5)
            f = fn(sp, rng.normal(size=sp.size))
            mu = measure(sp, rng.normal(size=sp.size))
            lhs = bl_dual_norm(bullet_fn(f, mu))
            rhs = bl_norm_fn(f) * bl_dual_norm(mu)
            assert lhs <= rhs + 1e-9

    def test_kernel_action_norm_bound_on_cone(self, rng):
        for _ in range(15):
            sp = random_space(rng, max_atoms=5)
            rows = rng.dirichlet(np.ones(sp.size), size=sp.size)
            K = kern.MutationKernel(sp, rows)
            mu = measure(sp, rng.uniform(0.0, 1.0, sp.size))
            row_norm = max(
                bl_dual_norm(row_measure(K, i)) for i in range(sp.size)
            )
            lhs = bl_dual_norm(bullet_kernel(K, mu))
            assert lhs <= row_norm * bl_dual_norm(mu) + 1e-9

    def test_kernel_action_bilinear(self, rng):
        sp = random_space(rng, max_atoms=4)
        n = sp.size
        A = rng.dirichlet(np.ones(n), size=n)
        B = rng.dirichlet(np.ones(n), size=n)
        mu = measure(sp, rng.normal(size=n))
        nu = measure(sp, rng.normal(size=n))
        KA = kern.MutationKernel(sp, A)
        KB = kern.MutationKernel(sp, B)
        # linear in the measure
        lhs = bullet_kernel(KA, mu + 2.0 * nu).weights
        rhs = bullet_kernel(KA, mu).weights + 2.0 * bullet_kernel(KA, nu).weights
        assert np.allclose(lhs, rhs, atol=1e-12)
        # linear in the kernel entries (mix of two stochastic matrices)
        mix = kern.MutationKernel(sp, 0.5 * KA.rows + 0.5 * KB.rows)
        lhs = bullet_kernel(mix, mu).weights
        rhs = 0.5 * bullet_kernel(KA, mu).weights + 0.5 * bullet_kernel(KB, mu).weights
        assert np.allclose(lhs, rhs, atol=1e-12)
