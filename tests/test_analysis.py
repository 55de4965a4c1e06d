import dataclasses
from pathlib import Path

import numpy as np
import pytest

from crflow.analysis import (
    breakevens,
    concentration,
    diagnostics,
    dissipativity_bound,
    mass_balance_residual,
)
from crflow.dynamics import StepControl, SystemState, integrate
from crflow.errors import ConfigError, ValidationError
from crflow.kernel import local_mutation_kernel, pure_selection_kernel
from crflow.measure import DiscreteMeasure, dirac
from crflow.rates import MortalitySpec, UptakeSpec, VitalRates
from crflow.scenario import build_scenario, load_config
from crflow.space import StrategySpace, build_grid

from conftest import random_admissible_scenario
from oracles import BREAKEVEN_TOL, breakeven, compare_to_ode, reduced_ode_trajectory

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def make_rates(n=1, b=1.0, a=1.0, d_family="constant", d0=0.3, c=None,
               inflow=1.0, dilution=1.0, clamp=4.0):
    return VitalRates(
        inflow=inflow,
        dilution=dilution,
        uptake=UptakeSpec.build("monod", n, b, a=a),
        mortality=MortalitySpec.build(d_family, n, d0, c=c),
        clamp=clamp,
    )


class TestDissipativityBound:
    def test_all_rates_one(self):
        r = make_rates(d0=1.0)
        assert dissipativity_bound(r) == 1.0

    def test_dilution_limited(self):
        r = make_rates(inflow=2.0, dilution=0.5, d0=3.0)
        assert dissipativity_bound(r) == 4.0

    def test_zero_inflow(self):
        r = make_rates(inflow=0.0)
        assert dissipativity_bound(r) == 0.0

    def test_uses_truncation_level_by_default(self):
        r = make_rates(d_family="decreasing", d0=0.5, c=0.5)
        # floor at S = 4 is 0.5 + 0.5/5 = 0.6
        assert dissipativity_bound(r) == pytest.approx(1.0 / 0.6)

    def test_zero_floor_rejected(self):
        with pytest.raises(ValidationError):
            dissipativity_bound(make_rates(d0=0.0))


class TestConcentration:
    def test_dirac_concentrates_at_itself(self):
        sp = build_grid(1, [(0.0, 1.0)], [3])
        winner, dist = concentration(dirac(sp, 2))
        assert winner == 2
        assert dist == pytest.approx(0.0, abs=1e-12)

    def test_uniform_two_atoms(self):
        # weights (0.5, 0.5) at distance 1: distance to dirac(0) is the
        # flat norm of 0.5*(delta_0 - delta_1) = 0.5 * 2/3 = 1/3
        sp = build_grid(1, [(0.0, 1.0)], [2])
        winner, dist = concentration(DiscreteMeasure(sp, np.array([0.5, 0.5])))
        assert winner == 0
        assert dist == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_skewed_two_atoms(self):
        sp = build_grid(1, [(0.0, 1.0)], [2])
        winner, dist = concentration(DiscreteMeasure(sp, np.array([0.9, 0.1])))
        assert winner == 0
        assert dist == pytest.approx(0.1 * 2.0 / 3.0, abs=1e-9)

    def test_scaling_invariance(self, rng):
        sp = build_grid(1, [(0.0, 1.0)], [4])
        w = rng.uniform(0.0, 1.0, 4)
        base = concentration(DiscreteMeasure(sp, w))
        scaled = concentration(DiscreteMeasure(sp, 7.0 * w))
        assert base[0] == scaled[0]
        assert base[1] == pytest.approx(scaled[1], abs=1e-9)

    def test_zero_measure_rejected(self):
        sp = build_grid(1, [(0.0, 1.0)], [2])
        with pytest.raises(ConfigError):
            concentration(DiscreteMeasure(sp, np.zeros(2)))

    def test_signed_measure_rejected(self):
        sp = build_grid(1, [(0.0, 1.0)], [2])
        with pytest.raises(ConfigError):
            concentration(DiscreteMeasure(sp, np.array([1.0, -0.1])))


class TestBreakeven:
    def test_monod_closed_form(self):
        # b*S/(a+S) = d0 at S = a*d0/(b - d0); b = a = 1, d0 = 0.3 gives 3/7
        r = make_rates(clamp=10.0)
        assert breakevens(r)[0] == pytest.approx(3.0 / 7.0, rel=1e-15)

    def test_no_root_when_mortality_dominates(self):
        r = make_rates(b=0.5, d0=0.6, clamp=100.0)
        assert breakevens(r) == [None]

    def test_per_atom(self):
        r = make_rates(n=2, b=[1.0, 1.0], a=[0.5, 1.5], d0=0.3, clamp=10.0)
        lo, hi = breakevens(r)
        assert lo == pytest.approx(0.5 * 0.3 / 0.7, rel=1e-15)
        assert hi == pytest.approx(1.5 * 0.3 / 0.7, rel=1e-15)
        assert lo < hi

    def test_desk_chemostat(self):
        sc = build_scenario(load_config(SCENARIOS / "desk_chemostat.json"))
        got = breakevens(sc.rates)
        assert got == pytest.approx([3.0 / 5.0, 3.0 / 7.0, 1.0 / 3.0], rel=1e-15)


class TestCompetitiveExclusion:
    """Pure selection on the chemostat: the substrate settles at the least
    break-even level and only the atom that has it persists (Hsu, "Limiting
    behavior for competing species", SIAM J. Appl. Math. 1978)."""

    def test_substrate_settles_at_least_breakeven(self):
        sp = build_grid(1, [(0.0, 1.0)], [2])
        rates = make_rates(n=2, b=[1.0, 1.0], a=[0.5, 1.5], d0=0.3)
        state0 = SystemState(1.0, DiscreteMeasure(sp, np.array([0.3, 0.3])))
        end = integrate(state0, 200.0, StepControl(dt=0.01, record_every=20000),
                        rates, pure_selection_kernel(sp)).endpoint()
        s_star = breakevens(rates)
        least = min(s_star)
        assert least == s_star[0] < s_star[1]
        assert abs(end.S - least) <= 1e-12
        assert 0.0 <= end.mu.weights[1] <= 1e-12
        # the survivor takes what the dilution leaves: 1 - S = d0 * w
        assert end.mu.weights[0] == pytest.approx((1.0 - least) / 0.3, rel=1e-12)


# (b, a, d0, c) per atom: four ordinary roots, mortality above uptake
# everywhere (no root), a near-tie of uptake and mortality, and, for linear
# uptake on [0, 10], f = 0.2 * 5 - 1 = 0 exactly at the bisection's first
# midpoint. Admissible rates have f(0) = -D(0) < 0 at every atom.
BREAKEVEN_ATOMS = [
    (1.0, 1.0, 0.3, 0.1), (0.7, 0.6, 0.2, 0.0), (1.3, 2.0, 0.4, 0.3),
    (2.0, 0.5, 0.9, 0.05), (0.5, 1.0, 50.0, 0.2),
    (1.0, 1e-3, 0.999, 0.0), (0.2, 1.0, 1.0, 0.0),
]


class TestBreakevensMatchScalarBisection:
    """breakevens lies within the bracket of one scalar bisection per atom."""

    @pytest.mark.parametrize("family,d_family", [
        ("monod", "constant"), ("monod", "decreasing"),
        ("linear", "constant"), ("linear", "decreasing"),
    ])
    @pytest.mark.parametrize("top", [2.5, 10.0, 1e-11])
    def test_within_bisection_bracket(self, family, d_family, top):
        b, a, d0, c = (list(col) for col in zip(*BREAKEVEN_ATOMS))
        n = len(b)
        r = VitalRates(
            inflow=1.0, dilution=1.0,
            uptake=UptakeSpec.build(family, n, b, a=a),
            mortality=MortalitySpec.build(
                d_family, n, d0, c=c if d_family == "decreasing" else None),
            clamp=top,
        )
        got = breakevens(r)
        want = [breakeven(r, i, top) for i in range(n)]
        assert [type(x) for x in got] == [type(x) for x in want]
        for x, y in zip(got, want):
            assert x is None or abs(x - y) <= BREAKEVEN_TOL

    def test_cases_are_covered(self):
        n = len(BREAKEVEN_ATOMS)
        b, a, d0, c = (list(col) for col in zip(*BREAKEVEN_ATOMS))
        r = VitalRates(
            inflow=1.0, dilution=1.0, uptake=UptakeSpec.build("monod", n, b, a=a),
            mortality=MortalitySpec.build("decreasing", n, d0, c=c), clamp=2.5)
        got = breakevens(r)
        assert got[4] is None
        assert all(0.0 < x < 2.5 for x in got[:4])

    @pytest.mark.parametrize("d0, c", [(-0.2, 0.1), (0.0, 0.0)])
    def test_no_rates_with_f_at_zero_nonnegative(self, d0, c):
        # f(0) > 0 and f(0) = 0 need D(0) <= 0, which building refuses
        with pytest.raises(ValidationError, match="mortality floor"):
            make_rates(d_family="decreasing", d0=d0, c=c)


class TestUnification:
    def test_single_strain_exact(self):
        sp = build_grid(1, [(0.5, 0.5)], [1])
        rates = make_rates()
        state0 = SystemState(1.0, DiscreteMeasure(sp, np.array([0.5])))
        dev = compare_to_ode(
            state0, 2.0, StepControl(dt=1e-3), rates, pure_selection_kernel(sp)
        )
        assert dev <= 1e-12

    def test_three_strains_exact(self):
        sp = build_grid(1, [(0.0, 1.0)], [3])
        rates = make_rates(n=3, b=[1.0, 1.2, 0.8], a=[1.0, 0.7, 1.3], d0=0.3)
        state0 = SystemState(
            1.0, DiscreteMeasure(sp, np.array([0.2, 0.3, 0.1]))
        )
        dev = compare_to_ode(
            state0, 2.0, StepControl(dt=1e-3), rates, pure_selection_kernel(sp)
        )
        assert dev <= 1e-12

    def test_mutation_kernel_rejected(self):
        sp = build_grid(1, [(0.0, 1.0)], [3])
        rates = make_rates(n=3)
        state0 = SystemState(1.0, DiscreteMeasure(sp, np.full(3, 0.2)))
        with pytest.raises(ConfigError):
            compare_to_ode(
                state0,
                1.0,
                StepControl(dt=1e-3),
                rates,
                local_mutation_kernel(sp, 0.25),
            )

    def test_mutation_genuinely_differs_from_reduced_system(self):
        sp = build_grid(1, [(0.0, 1.0)], [3])
        rates = make_rates(n=3, b=[1.4, 1.0, 0.6], d0=0.3)
        state0 = SystemState(1.0, DiscreteMeasure(sp, np.array([0.0, 0.0, 0.4])))
        K = local_mutation_kernel(sp, 0.3)
        full = integrate(state0, 3.0, StepControl(dt=1e-3), rates, K)
        reduced = reduced_ode_trajectory(state0, 3.0, StepControl(dt=1e-3), rates)
        gap = np.abs(full.weights - reduced.weights).max()
        assert gap > 1e-3


class TestMassBalance:
    def test_residual_small_on_fine_grid(self, rng):
        sc = random_admissible_scenario(rng, max_atoms=6)
        traj = integrate(
            sc["state0"], 2.0, StepControl(dt=1e-3), sc["rates"], sc["kernel"]
        )
        assert mass_balance_residual(traj, sc["rates"]) <= 1e-6

    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    def test_substrate_drift_fails(self, rng, dt):
        # The RK4 run passes the 1e-6 tolerance at both steps; S drifting by
        # 1e-5 t breaks dM/dt = balance by about 1e-5, which it must catch.
        for _ in range(5):
            sc = random_admissible_scenario(rng, max_atoms=6)
            traj = integrate(
                sc["state0"], 2.0, StepControl(dt=dt), sc["rates"], sc["kernel"]
            )
            assert mass_balance_residual(traj, sc["rates"]) <= 1e-6
            traj.S = traj.S + 1e-5 * traj.times
            assert mass_balance_residual(traj, sc["rates"]) > 1e-6

    @pytest.mark.parametrize("t_end, control", [
        (4e-3, StepControl(dt=1e-3)),                   # 4 steps, 5 points
        (3e-3, StepControl(dt=1e-3)),                   # 4 points: too short
        (2.0, StepControl(method="adaptive", dt=0.05, tolerance=1e-8)),
    ], ids=["five_points", "four_points", "adaptive"])
    def test_none_where_the_stencil_does_not_apply(self, rng, t_end, control):
        sc = random_admissible_scenario(rng, max_atoms=4)
        traj = integrate(sc["state0"], t_end, control, sc["rates"], sc["kernel"])
        residual = mass_balance_residual(traj, sc["rates"])
        assert (residual is None) == (len(traj) < 5 or control.method == "adaptive")
        assert diagnostics(traj, sc["rates"]).mass_balance_max_residual == residual


class TestDiagnostics:
    def test_report_fields(self, rng):
        sc = random_admissible_scenario(rng, max_atoms=6)
        traj = integrate(
            sc["state0"], 2.0, StepControl(dt=1e-3), sc["rates"], sc["kernel"]
        )
        report = diagnostics(traj, sc["rates"])
        assert report.max_mass_observed <= report.mass_bound + 1e-6
        assert report.limsup_proxy <= report.max_mass_observed + 1e-15
        assert report.min_weight_observed >= -1e-9
        assert report.mass_balance_max_residual is not None
        assert report.mass_balance_max_residual <= 1e-6
        assert len(report.breakevens) == sc["space"].size
        d = dataclasses.asdict(report)
        assert set(d) >= {
            "dissipativity_bound",
            "mass_bound",
            "winner_atom",
            "concentration_distance",
            "breakevens",
        }

    def test_reduced_ode_rejects_nonpositive_dt(self):
        sp = build_grid(1, [(0.5, 0.5)], [1])
        state0 = SystemState(1.0, DiscreteMeasure(sp, np.array([0.5])))
        with pytest.raises(ConfigError, match="dt must be positive"):
            reduced_ode_trajectory(state0, 1.0, StepControl(dt=0.0), make_rates())

    def test_reduced_ode_needs_matching_grid(self):
        sp = build_grid(1, [(0.5, 0.5)], [1])
        state0 = SystemState(1.0, DiscreteMeasure(sp, np.array([0.5])))
        with pytest.raises(ConfigError):
            reduced_ode_trajectory(
                state0, 1.05, StepControl(dt=0.1), make_rates()
            )
