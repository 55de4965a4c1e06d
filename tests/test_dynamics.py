import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from crflow.dynamics import (
    StepControl,
    SystemState,
    _clamp_weights,
    _make_rhs,
    integrate,
    picard_solve,
)
from crflow.errors import ConfigError, NumericalError, PositivityError, ValidationError
from crflow.kernel import (
    MutationKernel,
    local_mutation_kernel,
    pure_selection_kernel,
)
from crflow.measure import DiscreteMeasure, flat_distance
from crflow.rates import MortalitySpec, UptakeSpec, VitalRates, truncate
from crflow.scenario import build_scenario, run
from crflow.space import build_grid

from conftest import random_admissible_scenario
from oracles import reference_integrate


def washout_setup():
    """No population: dS = inflow - dilution*S with inflow = dilution = 1."""
    sp = build_grid(1, [(0.0, 0.0)], [1])
    rates = VitalRates(
        inflow=1.0,
        dilution=1.0,
        uptake=UptakeSpec.build("monod", 1, 1.0, a=1.0),
        mortality=MortalitySpec.build("constant", 1, 0.3),
    )
    state0 = SystemState(0.0, DiscreteMeasure(sp, np.zeros(1)))
    return sp, rates, pure_selection_kernel(sp), state0


def single_strain(b=1.0, a=1.0, d0=0.3, S0=1.0, m0=0.5):
    sp = build_grid(1, [(0.5, 0.5)], [1])
    rates = VitalRates(
        inflow=1.0,
        dilution=1.0,
        uptake=UptakeSpec.build("monod", 1, b, a=a),
        mortality=MortalitySpec.build("constant", 1, d0),
    )
    state0 = SystemState(S0, DiscreteMeasure(sp, np.array([m0])))
    return sp, rates, pure_selection_kernel(sp), state0


class TestVectorField:
    """The right-hand side (dS, dw) that integrate steps."""

    def test_washout_field(self):
        _, rates, K, _ = washout_setup()
        dS, dw = _make_rhs(rates, K)(0.25, np.zeros(1))
        assert dS == pytest.approx(1.0 - 0.25)
        assert np.all(dw == 0.0)

    def test_equilibrium_substrate_no_population(self):
        _, rates, K, _ = washout_setup()
        dS, dw = _make_rhs(rates, K)(1.0, np.zeros(1))
        assert dS == 0.0
        assert np.all(dw == 0.0)

    def test_breakeven_population_is_stationary(self):
        # monod b = a = 1, d0 = 0.3: B(S) = D at S = 0.3/0.7 = 3/7
        _, rates, K, _ = single_strain()
        _, dw = _make_rhs(rates, K)(3.0 / 7.0, np.array([0.8]))
        assert dw[0] == pytest.approx(0.0, abs=1e-15)

    def test_consumption_lowers_substrate(self):
        _, rates, K, _ = single_strain()
        dS, _ = _make_rhs(rates, K)(1.0, np.array([2.0]))
        # inflow 1, dilution*S = 1, consumption 0.5*2 = 1
        assert dS == pytest.approx(-1.0)

    def test_space_mismatch_rejected(self):
        # integrate checks that the kernel lives on the state's space
        _, rates, _, state0 = single_strain()
        other = build_grid(1, [(0.0, 1.0)], [2])
        with pytest.raises(ConfigError, match="different spaces"):
            integrate(state0, 1.0, StepControl(), rates, pure_selection_kernel(other))


class TestStepRK4:
    """One fixed RK4 step: integrate over a single step of length dt."""

    def test_exponential_decay_frozen_value(self):
        # inflow 0, no population: dS = -S. One RK4 step of dt = 0.1 from
        # S = 1 gives 1 - (0.1/6)(1 + 1.9 + 1.905 + 0.90475) = 0.9048375
        sp = build_grid(1, [(0.0, 0.0)], [1])
        rates = VitalRates(
            inflow=0.0,
            dilution=1.0,
            uptake=UptakeSpec.build("monod", 1, 1.0, a=1.0),
            mortality=MortalitySpec.build("constant", 1, 0.3),
        )
        state = SystemState(1.0, DiscreteMeasure(sp, np.zeros(1)))
        K = pure_selection_kernel(sp)
        traj = integrate(state, 0.1, StepControl(dt=0.1), rates, K)
        assert traj.times.tolist() == [0.0, 0.1]
        out = traj.endpoint()
        assert out.S == pytest.approx(0.9048375, abs=1e-12)
        assert abs(out.S - math.exp(-0.1)) < 1e-7

    def test_rejects_nonpositive_dt(self):
        sp, rates, K, state0 = single_strain()
        with pytest.raises(ConfigError):
            integrate(state0, 0.1, StepControl(dt=0.0), rates, K)


class TestIntegrate:
    def test_washout_matches_closed_form(self):
        _, rates, K, state0 = washout_setup()
        control = StepControl(dt=1e-3)
        traj = integrate(state0, 1.0, control, rates, K)
        assert traj.endpoint().S == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)
        # whole trajectory, not just the endpoint
        exact = 1.0 - np.exp(-traj.times)
        assert np.abs(traj.S - exact).max() < 1e-6

    def test_noninteger_step_count_lands_on_t_end(self):
        _, rates, K, state0 = washout_setup()
        traj = integrate(state0, 0.25, StepControl(dt=0.1), rates, K)
        assert traj.times[-1] == pytest.approx(0.25, abs=1e-12)
        assert traj.endpoint().S == pytest.approx(
            1.0 - math.exp(-0.25), abs=1e-6
        )

    def test_cone_preserved_on_random_scenarios(self, rng):
        for _ in range(5):
            sc = random_admissible_scenario(rng, max_atoms=8)
            traj = integrate(
                sc["state0"], 5.0, StepControl(dt=0.01), sc["rates"], sc["kernel"]
            )
            assert traj.S.min() >= -1e-9
            assert traj.weights.min() >= -1e-9

    @pytest.mark.parametrize("method, rows", [("rk4", 2), ("adaptive", 2),
                                              ("picard", 513)])
    def test_horizon_below_the_end_tolerances_is_stepped(self, method, rows):
        # 1e-13 is no longer than the rk4 remainder and adaptive end
        # tolerances, yet a positive horizon is a run that ends on it
        rates, K, state0 = mutation_setup()
        solve = picard_solve if method == "picard" else integrate
        traj = solve(state0, 1e-13, StepControl(method=method), rates, K)
        assert len(traj) == rows
        assert traj.times[-1] == 1e-13
        assert traj.S[-1] != state0.S

    def test_record_every_thins_output(self):
        _, rates, K, state0 = washout_setup()
        traj = integrate(
            state0, 1.0, StepControl(dt=0.01, record_every=10), rates, K
        )
        assert len(traj) == 11
        assert traj.times[1] == pytest.approx(0.1)

    def test_adaptive_matches_fixed_step(self):
        sp, rates, K, state0 = single_strain()
        fixed = integrate(state0, 2.0, StepControl(dt=1e-3), rates, K)
        adaptive = integrate(
            state0,
            2.0,
            StepControl(method="adaptive", dt=0.05, tolerance=1e-10),
            rates,
            K,
        )
        assert adaptive.times[-1] == pytest.approx(2.0, abs=1e-10)
        assert adaptive.endpoint().S == pytest.approx(
            fixed.endpoint().S, abs=1e-7
        )

    def test_unknown_method_rejected(self):
        _, rates, K, state0 = washout_setup()
        with pytest.raises(ConfigError):
            integrate(state0, 1.0, StepControl(method="euler"), rates, K)

    def test_picard_method_rejected(self):
        _, rates, K, state0 = washout_setup()
        with pytest.raises(ConfigError):
            integrate(state0, 1.0, StepControl(method="picard"), rates, K)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_adaptive_rejects_nonpositive_dt(self, dt):
        _, rates, K, state0 = washout_setup()
        with pytest.raises(ConfigError):
            integrate(state0, 1.0, StepControl(method="adaptive", dt=dt), rates, K)

    @pytest.mark.parametrize("tolerance", [float("nan"), 0.0, -1.0])
    def test_adaptive_rejects_nonpositive_tolerance(self, tolerance):
        _, rates, K, state0 = washout_setup()
        with pytest.raises(ConfigError, match="tolerance must be positive"):
            control = StepControl(method="adaptive", tolerance=tolerance)
            integrate(state0, 1.0, control, rates, K)

    @pytest.mark.parametrize("tolerance", [float("nan"), 0.0, -1.0])
    def test_rk4_rejects_nonpositive_tolerance(self, tolerance):
        _, rates, K, state0 = washout_setup()
        with pytest.raises(ConfigError, match="tolerance must be positive"):
            control = StepControl(dt=0.01, tolerance=tolerance)
            integrate(state0, 0.1, control, rates, K)

    def test_large_negative_weight_aborts(self):
        sp, rates, K, _ = single_strain()
        bad = SystemState(1.0, DiscreteMeasure(sp, np.array([-0.5])))
        with pytest.raises(PositivityError):
            integrate(bad, 1.0, StepControl(dt=0.1), rates, K)


class TestSemiflow:
    def test_time_zero_is_rejected(self):
        # a zero horizon is no run; the identity at t = 0 is the first row
        _, rates, K, state0 = single_strain()
        with pytest.raises(ConfigError) as info:
            integrate(state0, 0.0, StepControl(), rates, K)
        assert str(info.value) == "t_end must be positive and finite, got 0.0"

    def test_composition_law(self, rng):
        control = StepControl(dt=1e-3)
        for _ in range(3):
            sc = random_admissible_scenario(rng, max_atoms=6)
            rates, K = sc["rates"], sc["kernel"]
            direct = integrate(sc["state0"], 2.0, control, rates, K).endpoint()
            mid = integrate(sc["state0"], 0.75, control, rates, K).endpoint()
            relay = integrate(mid, 1.25, control, rates, K).endpoint()
            gap = abs(direct.S - relay.S) + flat_distance(direct.mu, relay.mu)
            assert gap <= 1e-6

    def test_lipschitz_in_initial_data(self):
        # the gap after time 1 stays within a fixed multiple of the
        # initial gap
        sp, rates, K, state0 = single_strain()
        eps = 1e-6
        pert = SystemState(
            state0.S + eps, DiscreteMeasure(sp, state0.mu.weights + eps)
        )
        control = StepControl(dt=1e-3)
        a = integrate(state0, 1.0, control, rates, K).endpoint()
        b = integrate(pert, 1.0, control, rates, K).endpoint()
        gap0 = eps + flat_distance(state0.mu, pert.mu)
        gap1 = abs(a.S - b.S) + flat_distance(a.mu, b.mu)
        assert gap1 <= 100.0 * gap0

    def test_negative_time_rejected(self):
        _, rates, K, state0 = single_strain()
        with pytest.raises(ConfigError):
            integrate(state0, -1.0, StepControl(), rates, K)


class TestPicard:
    def test_equilibrium_is_fixed_point_in_one_iteration(self):
        # constant trajectory: the operator reproduces it up to quadrature in
        # one iteration, and a second iteration changes nothing
        sp, rates, K, _ = washout_setup()
        state = SystemState(1.0, DiscreteMeasure(sp, np.zeros(1)))
        traj = picard_solve(state, 1.0, StepControl(), truncate(rates, 2.0), K)
        assert traj.metadata["iterations"] == [2]
        # quadrature error of the trapezoid rule sets the scale here
        assert np.abs(traj.S - 1.0).max() < 1e-6

    def test_washout_closed_form(self):
        _, rates, K, state0 = washout_setup()
        traj = picard_solve(state0, 1.0, StepControl(), truncate(rates, 2.0), K)
        exact = 1.0 - np.exp(-traj.times)
        assert np.abs(traj.S - exact).max() < 1e-6

    def test_contraction_ratio_below_one(self, rng):
        for _ in range(3):
            sc = random_admissible_scenario(rng, max_atoms=6)
            traj = picard_solve(sc["state0"], 1.0, StepControl(), sc["rates"], sc["kernel"])
            assert traj.metadata["contraction_ratio"] < 1.0

    def test_matches_rk4(self, rng):
        control = StepControl(dt=1e-3)
        for _ in range(3):
            sc = random_admissible_scenario(rng, max_atoms=6)
            rk = integrate(sc["state0"], 1.0, control, sc["rates"], sc["kernel"])
            pc = picard_solve(sc["state0"], 1.0, StepControl(), sc["rates"], sc["kernel"])
            a, b = rk.endpoint(), pc.endpoint()
            gap = abs(a.S - b.S) + flat_distance(a.mu, b.mu)
            assert gap <= 1e-5

    def test_long_horizon_windows(self):
        sp, rates, K, state0 = single_strain()
        traj = picard_solve(state0, 3.0, StepControl(), truncate(rates, 2.0), K)
        assert traj.metadata["windows"] == 3
        assert traj.times[-1] == pytest.approx(3.0, abs=1e-12)
        rk = integrate(state0, 3.0, StepControl(dt=1e-3), rates, K)
        assert traj.endpoint().S == pytest.approx(rk.endpoint().S, abs=1e-5)

    @pytest.mark.parametrize("cfg", [
        {   # 6 atoms to T = 4; the contraction weight derives to about 260
            "space": {"grid": {"dim": 1, "bounds": [[0.0, 1.0]], "counts": [6]}},
            "kernel": {"family": "pure_selection"},
            "rates": {"inflow": 1.894, "dilution": 1.435,
                      "uptake": {"family": "monod", "a": 0.573,
                                 "b": [1.342, 1.579, 1.568, 0.931, 0.885, 1.050]},
                      "mortality": {"family": "decreasing", "d0": 0.109, "c": 0.109}},
            "initial": {"S": 0.315,
                        "weights": [0.466, 0.096, 0.289, 0.111, 0.216, 0.427]},
            "control": {"method": "picard", "t_end": 4.0},
        },
        {   # 16 atoms to T = 3; the contraction weight derives to about 290
            "space": {"grid": {"dim": 1, "bounds": [[0.0, 1.0]], "counts": [16]}},
            "kernel": {"family": "gaussian", "width": 0.232},
            "rates": {"inflow": 1.662, "dilution": 1.243,
                      "uptake": {"family": "linear",
                                 "b": [0.847, 0.693, 0.856, 0.884, 1.056, 0.839,
                                       0.566, 0.832, 0.559, 0.748, 0.749, 1.105,
                                       0.922, 0.508, 1.166, 1.059]},
                      "mortality": {"family": "constant", "d0": 0.319}},
            "initial": {"S": 0.859,
                        "weights": [0.272, 0.093, 0.364, 0.409, 0.060, 0.270,
                                    0.281, 0.208, 0.364, 0.269, 0.291, 0.404,
                                    0.465, 0.196, 0.292, 0.474]},
            "control": {"method": "picard", "t_end": 3.0},
        },
    ], ids=["6_atoms", "16_atoms"])
    def test_default_weight_matches_dop853(self, cfg):
        # The weight sets the norm of the contraction ratio, not when to
        # stop: a weight this large discounts all but the start of a window.
        sc = build_scenario(cfg)
        traj, _ = run(sc)
        assert traj.metadata["lambda"] > 200.0
        rates, rows = sc.rates, sc.kernel.rows

        def rhs(_t, y):
            S, w = y[0], y[1:]
            B = rates.uptake_values(S)
            return np.concatenate([[rates.inflow - rates.dilution * S - B @ w],
                                   rows.T @ (B * w) - rates.mortality_values(S) * w])

        y0 = np.concatenate([[sc.state0.S], sc.state0.mu.weights])
        ref = solve_ivp(rhs, (0.0, sc.t_end), y0, method="DOP853",
                        rtol=1e-12, atol=1e-12).y[:, -1]
        end = np.concatenate([[traj.S[-1]], traj.weights[-1]])
        assert np.abs(end - ref).max() <= 1e-5

    def test_rejects_bad_input(self):
        sp, rates, K, state0 = single_strain()
        with pytest.raises(ConfigError) as info:
            picard_solve(state0, 0.0, StepControl(), rates, K)
        assert str(info.value) == "t_end must be positive and finite, got 0.0"
        bad = SystemState(-1.0, state0.mu)
        with pytest.raises(ConfigError):
            picard_solve(bad, 1.0, StepControl(), rates, K)

    def test_rejects_rates_of_another_atom_count(self):
        sp = build_grid(1, [(0.0, 1.0)], [3])
        rates = VitalRates(
            inflow=1.0,
            dilution=1.0,
            uptake=UptakeSpec.build("monod", 2, [1.0, 1.0], a=1.0),
            mortality=MortalitySpec.build("constant", 2, 0.3),
        )
        state0 = SystemState(1.0, DiscreteMeasure(sp, np.full(3, 0.2)))
        with pytest.raises(ConfigError, match="do not match the atom count"):
            picard_solve(state0, 1.0, StepControl(), rates, pure_selection_kernel(sp))


def rates_on(n_uptake, n_mortality, d0=0.3):
    return truncate(VitalRates(
        inflow=1.0,
        dilution=1.0,
        uptake=UptakeSpec.build("monod", n_uptake, 1.0, a=1.0),
        mortality=MortalitySpec.build("constant", n_mortality, d0),
    ), 2.0)


SOLVERS = {
    "rk4": lambda state, T, rates, K: integrate(state, T, StepControl(), rates, K),
    "adaptive": lambda state, T, rates, K: integrate(
        state, T, StepControl(method="adaptive"), rates, K),
    "picard": lambda state, T, rates, K: picard_solve(
        state, T, StepControl(method="picard"), rates, K),
}


class TestInputChecks:
    """integrate and picard_solve check kernel, rates and horizon alike."""

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_kernel_on_another_space(self, solver):
        _, _, _, state0 = single_strain()
        other = build_grid(1, [(5.0, 5.0)], [1])
        with pytest.raises(ConfigError, match="different spaces"):
            SOLVERS[solver](state0, 1.0, rates_on(1, 1), pure_selection_kernel(other))

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("counts", [(2, 3), (3, 2)], ids=["uptake", "mortality"])
    def test_rates_of_another_atom_count(self, solver, counts):
        sp = build_grid(1, [(0.0, 1.0)], [3])
        state0 = SystemState(1.0, DiscreteMeasure(sp, np.full(3, 0.2)))
        with pytest.raises(ConfigError, match="do not match the atom count"):
            SOLVERS[solver](state0, 1.0, rates_on(*counts), pure_selection_kernel(sp))

    def test_picard_needs_truncated_rates(self):
        _, rates, K, state0 = single_strain()
        with pytest.raises(ConfigError, match="need truncated rates"):
            picard_solve(state0, 1.0, StepControl(), rates, K)

    @pytest.mark.parametrize("d0", [0.0, -0.1])
    def test_picard_needs_a_positive_mortality_floor(self, d0):
        _, _, K, state0 = single_strain()
        with pytest.raises(ValidationError, match="is not positive"):
            picard_solve(state0, 1.0, StepControl(), rates_on(1, 1, d0), K)

    # one horizon rule for every method: positive and finite
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_horizon_must_be_finite(self, solver, T):
        _, _, K, state0 = single_strain()
        with pytest.raises(ConfigError) as info:
            SOLVERS[solver](state0, T, rates_on(1, 1), K)
        assert str(info.value) == f"t_end must be positive and finite, got {T!r}"

    @pytest.mark.parametrize("solver, T, dt", [
        ("rk4", 1e308, 1e-3), ("rk4", 1.0, 1e-300), ("picard", 1e308, None),
    ])
    def test_step_budget(self, solver, T, dt):
        _, _, K, state0 = single_strain()
        with pytest.raises(ConfigError, match="needs more than MAX_STEPS"):
            if solver == "picard":
                picard_solve(state0, T, StepControl(), rates_on(1, 1), K)
            else:
                integrate(state0, T, StepControl(dt=dt), rates_on(1, 1), K)


def test_mass_bound_along_trajectory(rng):
    sc = random_admissible_scenario(rng, max_atoms=8)
    rates = sc["rates"]
    traj = integrate(
        sc["state0"], 20.0, StepControl(dt=0.01), rates, sc["kernel"]
    )
    d = min(rates.dilution, 1.0, rates.assumptions.floor)
    bound = max(sc["state0"].total_mass(), rates.inflow / d)
    assert traj.mass().max() <= bound + 1e-6


def array_rate_rhs(rates, K):
    """The right-hand side with every rate evaluated through np.array([S]).

    The array path of the rate methods is the reference for their
    scalar-substrate path.
    """
    KT = np.ascontiguousarray(K.rows.T)

    def rhs(S, w):
        S_arr = np.array([S])
        B = rates.uptake_values(S_arr)[0]
        Dm = rates.mortality_values(S_arr)[0]
        dS = rates.inflow - rates.dilution * S - float(np.dot(B, w))
        return dS, KT @ (B * w) - Dm * w

    return rhs


def mutation_setup():
    """Four atoms, gaussian kernel, decreasing mortality, truncated rates."""
    sp = build_grid(1, [(0.0, 1.0)], [4])
    rates = VitalRates(
        inflow=1.3,
        dilution=0.8,
        uptake=UptakeSpec.build("monod", 4, [0.8, 1.0, 1.2, 1.4], a=[1.0, 0.9, 1.2, 1.5]),
        mortality=MortalitySpec.build("decreasing", 4, [0.3, 0.35, 0.4, 0.45], c=0.2),
    )
    state0 = SystemState(0.7, DiscreteMeasure(sp, np.array([0.4, 0.1, 0.0, 0.3])))
    return truncate(rates, 6.0), local_mutation_kernel(sp, 0.3), state0


def selection_setup():
    """Three atoms, pure selection, linear uptake, untruncated rates."""
    sp = build_grid(1, [(0.0, 1.0)], [3])
    rates = VitalRates(
        inflow=0.9,
        dilution=1.1,
        uptake=UptakeSpec.build("linear", 3, [0.9, 1.1, 1.3]),
        mortality=MortalitySpec.build("constant", 3, [0.25, 0.3, 0.5]),
    )
    state0 = SystemState(1.5, DiscreteMeasure(sp, np.array([0.2, 0.5, 0.3])))
    return rates, pure_selection_kernel(sp), state0


class TestBitIdentity:
    """integrate() equals, bit for bit, a loop that evaluates rates on arrays."""

    @pytest.mark.parametrize("setup", [mutation_setup, selection_setup])
    @pytest.mark.parametrize("t_end, control", [
        (1.005, StepControl(method="rk4", dt=0.01)),
        (2.0, StepControl(method="adaptive", dt=0.05, tolerance=1e-10)),
    ])
    def test_matches_array_rate_reference(self, setup, t_end, control):
        rates, K, state0 = setup()
        traj = integrate(state0, t_end, control, rates, K)
        times, S, W = reference_integrate(array_rate_rhs(rates, K), state0,
                                          t_end, control)
        assert len(traj) > 20
        assert np.array_equal(traj.times.view(np.uint64), times.view(np.uint64))
        assert np.array_equal(traj.S.view(np.uint64), S.view(np.uint64))
        assert np.array_equal(traj.weights.view(np.uint64), W.view(np.uint64))


class TestRecordEvery:
    """record_every = k keeps rows k, 2k, ... and the last of the full record."""

    @pytest.mark.parametrize("k", [3, 7, np.int64(3)], ids=["3", "7", "int64_3"])
    @pytest.mark.parametrize("t_end, control", [
        (1.005, StepControl(method="rk4", dt=0.01)),
        (2.0, StepControl(method="adaptive", dt=0.05, tolerance=1e-10)),
        (2.0, StepControl(method="picard")),            # 1024 nodes
    ])
    def test_thinned_rows_equal_full_record_rows(self, t_end, control, k):
        rates, K, state0 = mutation_setup()
        solve = picard_solve if control.method == "picard" else integrate
        full = solve(state0, t_end, control, rates, K)
        thin = solve(state0, t_end, replace(control, record_every=k), rates, K)
        last = len(full) - 1
        keep = sorted(set(range(0, last + 1, k)) | {last})
        assert last % k != 0         # the final row is kept off the k grid
        for name in ("times", "S", "weights"):
            assert np.array_equal(getattr(thin, name).view(np.uint64),
                                  getattr(full, name)[keep].view(np.uint64))

    def test_rk4_times_strictly_increase(self):
        # 100 full steps of 0.01, a remainder of 0.005, and record_every 7,
        # which divides neither 100 nor 101: the last step is recorded once
        rates, K, state0 = mutation_setup()
        traj = integrate(state0, 1.005, StepControl(dt=0.01, record_every=7),
                         rates, K)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == 1.005
        assert len(traj) == 1 + 101 // 7 + 1


class TestStepControl:
    """A StepControl exists only if its rules hold, whichever method runs."""

    @pytest.mark.parametrize("method", ["rk4", "adaptive", "picard"])
    @pytest.mark.parametrize("fields, message", [
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": -1.0}, "dt must be positive"),
        ({"dt": float("nan")}, "dt must be positive"),
        ({"tolerance": 0.0}, "tolerance must be positive, got 0.0"),
        ({"tolerance": -1.0}, "tolerance must be positive, got -1.0"),
    ])
    def test_rules_hold_for_every_method(self, method, fields, message):
        with pytest.raises(ConfigError) as info:
            StepControl(method=method, **fields)
        assert str(info.value) == message

    @pytest.mark.parametrize("method", ["rk4", "adaptive", "picard"])
    @pytest.mark.parametrize("k", [0, 2.5, True])
    def test_record_every_is_an_integer_of_at_least_one(self, method, k):
        rates, K, state0 = mutation_setup()
        solve = picard_solve if method == "picard" else integrate
        with pytest.raises(ConfigError) as info:
            solve(state0, 1.0, StepControl(method=method, record_every=k), rates, K)
        assert str(info.value) == f"record_every must be an integer >= 1, got {k!r}"

    @pytest.mark.parametrize("k", [1, 5, np.int64(5), np.uint8(5)])
    def test_record_every_takes_any_integer_type(self, k):
        assert StepControl(record_every=k).record_every == k

    def test_frozen(self):
        control = StepControl()
        with pytest.raises(FrozenInstanceError):
            control.dt = -1.0
        with pytest.raises(ConfigError, match="dt must be positive"):
            replace(control, dt=-1.0)


class TestStepChecks:
    def test_nonnegative_weights_pass_through(self):
        w = np.array([0.5, 0.0, -0.0])
        counter = [0]
        assert _clamp_weights(w, counter) is w
        assert counter == [0]

    def test_tiny_negatives_are_zeroed_and_counted(self):
        counter = [3]
        out = _clamp_weights(np.array([0.5, -1e-12, -5e-10]), counter)
        assert out.tolist() == [0.5, 0.0, 0.0]
        assert counter == [5]

    def test_large_negative_is_rejected(self):
        with pytest.raises(PositivityError, match=r"^weight -1e-06 below"):
            _clamp_weights(np.array([0.5, -1e-12, -1e-6]), [0])

    @staticmethod
    def row_at_a_time(W, counter):
        """A Picard window clamped one row at a time, as the window once was."""
        out = []
        for w in W:
            if w.min() < 0.0:
                small = (w < 0.0) & (w > -1e-9)
                w = np.where(small, 0.0, w)
                counter[0] += int(small.sum())
                if np.any(w <= -1e-9):
                    raise PositivityError(
                        f"weight {float(w.min())!r} below -1e-09; "
                        "positivity should hold for cone initial data")
            out.append(w)
        return np.vstack(out)

    def test_window_clamps_as_one_row_at_a_time(self):
        W = np.array([[0.5, 0.2], [-1e-12, 0.3], [0.1, -5e-10], [0.4, 0.0]])
        want_counter, got_counter = [2], [2]
        want = self.row_at_a_time(W, want_counter)
        got = _clamp_weights(W, got_counter)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert got_counter == want_counter == [4]

    def test_window_names_the_first_bad_row(self):
        # row 1 is only clamped; row 2 is the first below -1e-9 and row 3
        # is lower still, but a row-at-a-time clamp never reaches it
        W = np.array([[0.5, 0.2], [-1e-12, 0.3], [-5e-10, -2e-6], [-1e-3, -1e-11]])
        messages, counters = [], []
        for clamp in (self.row_at_a_time, _clamp_weights):
            counter = [0]
            with pytest.raises(PositivityError) as info:
                clamp(W, counter)
            messages.append(str(info.value))
            counters.append(counter)
        assert messages[0] == messages[1]
        assert messages[1].startswith("weight -2e-06 below -1e-09; ")
        assert counters == [[2], [2]]

    def test_nonfinite_state_aborts(self):
        rates, K, _ = selection_setup()
        state0 = SystemState(1e300, DiscreteMeasure(K.space, np.array([0.2, 0.5, 0.3])))
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as info:
            integrate(state0, 1.0, StepControl(dt=0.1), rates, K)
        assert "non-finite state at t=0.1" in str(info.value)
