"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line with the measured residual so the
suite doubles as a release report: run with `pytest tests/test_acceptance.py
-v -s`. Tolerances are the contract values; tests fail if any is exceeded.
"""

import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from crflow.analysis import breakevens
from crflow.dynamics import (
    StepControl,
    SystemState,
    integrate,
    picard_solve,
)
from crflow.kernel import MutationKernel, pure_selection_kernel
from crflow.measure import (
    AtomFunction,
    DiscreteMeasure,
    bl_dual_norm,
    bl_norm_fn,
    dirac,
    flat_distance,
)
from crflow.rates import (
    MortalitySpec,
    UptakeSpec,
    VitalRates,
    truncate,
)
from crflow.space import StrategySpace, build_grid

from conftest import random_admissible_scenario, random_space
from oracles import (
    bullet_fn,
    bullet_kernel,
    compare_to_ode,
    flat_norm_bruteforce,
    row_measure,
)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def scenario_batch(seed, count, max_atoms=20):
    rng = np.random.default_rng(seed)
    return [random_admissible_scenario(rng, max_atoms) for _ in range(count)]


@pytest.fixture(scope="module")
def long_runs():
    """20 seeded scenarios integrated over [0, 200], shared by criteria 1-2."""
    start = time.monotonic()
    runs = []
    for sc in scenario_batch(101, 20):
        traj = integrate(
            sc["state0"], 200.0, StepControl(dt=0.05, record_every=4),
            sc["rates"], sc["kernel"],
        )
        runs.append((sc, traj))
    return runs, time.monotonic() - start


def test_01_dissipativity(long_runs):
    runs, elapsed = long_runs
    worst_over = -np.inf
    worst_tail = -np.inf
    for sc, traj in runs:
        rates = sc["rates"]
        d = min(rates.dilution, 1.0, rates.assumptions.floor)
        eventual = rates.inflow / d
        bound = max(sc["state0"].total_mass(), eventual)
        M = traj.mass()
        worst_over = max(worst_over, float(M.max()) - bound)
        worst_tail = max(worst_tail, float(M[-1]) - eventual)
    ok = worst_over <= 1e-6 and worst_tail <= 0.01 and elapsed < 60.0
    report(
        "dissipativity",
        ok,
        f"max overshoot {worst_over:.3e} (tol 1e-6), "
        f"M(200) excess {worst_tail:.3e} (tol 0.01), runtime {elapsed:.1f}s",
    )


def test_02_positivity(long_runs):
    runs, _ = long_runs
    worst = min(
        min(float(traj.weights.min()), float(traj.S.min()))
        for _, traj in runs
    )
    report("positivity", worst >= -1e-9, f"min component {worst:.3e} (tol -1e-9)")


def test_03_mass_balance():
    worst = 0.0
    for sc in scenario_batch(202, 5, max_atoms=10):
        traj = integrate(
            sc["state0"], 2.0, StepControl(dt=1e-3), sc["rates"], sc["kernel"]
        )
        from crflow.analysis import mass_balance_residual

        worst = max(worst, mass_balance_residual(traj, sc["rates"]))
    report("mass_balance", worst <= 1e-6, f"max residual {worst:.3e} (tol 1e-6)")


def test_04_semiflow_law():
    control = StepControl(dt=1e-3)
    worst = 0.0
    for sc in scenario_batch(303, 5, max_atoms=10):
        rates, K = sc["rates"], sc["kernel"]
        direct = integrate(sc["state0"], 2.0, control, rates, K).endpoint()
        mid = integrate(sc["state0"], 0.5, control, rates, K).endpoint()
        relay = integrate(mid, 1.5, control, rates, K).endpoint()
        gap = abs(direct.S - relay.S) + flat_distance(direct.mu, relay.mu)
        worst = max(worst, gap)
    report("semiflow_law", worst <= 1e-6, f"max gap {worst:.3e} (tol 1e-6)")


def test_05_unification():
    control = StepControl(dt=1e-3)
    devs = []
    sp1 = build_grid(1, [(0.5, 0.5)], [1])
    rates1 = truncate(
        VitalRates(
            inflow=1.0, dilution=1.0,
            uptake=UptakeSpec.build("monod", 1, 1.0, a=1.0),
            mortality=MortalitySpec.build("constant", 1, 0.3),
        ),
        4.0,
    )
    state1 = SystemState(1.0, DiscreteMeasure(sp1, np.array([0.5])))
    devs.append(compare_to_ode(state1, 2.0, control, rates1,
                               pure_selection_kernel(sp1)))

    sp3 = build_grid(1, [(0.0, 1.0)], [3])
    rates3 = truncate(
        VitalRates(
            inflow=1.0, dilution=0.8,
            uptake=UptakeSpec.build("monod", 3, [1.0, 1.2, 0.9],
                                    a=[1.0, 0.6, 1.4]),
            mortality=MortalitySpec.build("decreasing", 3, [0.3, 0.35, 0.25],
                                          c=[0.1, 0.0, 0.05]),
        ),
        4.0,
    )
    state3 = SystemState(
        0.8, DiscreteMeasure(sp3, np.array([0.2, 0.4, 0.1]))
    )
    devs.append(compare_to_ode(state3, 2.0, control, rates3,
                               pure_selection_kernel(sp3)))
    worst = max(devs)
    report("unification", worst <= 1e-12,
           f"max deviation vs reduced system {worst:.3e} (tol 1e-12)")


def test_06_flat_norm_correctness():
    rng = np.random.default_rng(404)
    details = []

    # Dirac pairs against the closed form 2d/(2+d)
    worst = 0.0
    for d in np.geomspace(0.01, 100.0, 10):
        sp = StrategySpace(np.array([[0.0], [d]]),
                           np.array([[0.0, d], [d, 0.0]]))
        got = bl_dual_norm(dirac(sp, 0) - dirac(sp, 1))
        worst = max(worst, abs(got - 2.0 * d / (2.0 + d)))
    ok_pairs = worst <= 1e-8
    details.append(f"dirac pairs {worst:.3e} (tol 1e-8)")

    # Nonnegative measures: norm equals total mass
    worst = 0.0
    for _ in range(50):
        sp = random_space(rng, max_atoms=8)
        w = rng.uniform(0.0, 2.0, sp.size)
        worst = max(worst, abs(bl_dual_norm(DiscreteMeasure(sp, w)) - w.sum()))
    ok_mass = worst <= 1e-8
    details.append(f"total mass {worst:.3e} (tol 1e-8)")

    # Triangle inequality on random triples
    worst_slack = np.inf
    for _ in range(100):
        sp = random_space(rng, max_atoms=6)
        u = DiscreteMeasure(sp, rng.normal(size=sp.size))
        v = DiscreteMeasure(sp, rng.normal(size=sp.size))
        slack = bl_dual_norm(u) + bl_dual_norm(v) - bl_dual_norm(u + v)
        worst_slack = min(worst_slack, slack)
    ok_tri = worst_slack >= -1e-9
    details.append(f"triangle slack {worst_slack:.3e} (tol -1e-9)")

    # Brute-force oracle on small supports
    worst = 0.0
    for _ in range(10):
        sp = random_space(rng, max_atoms=3)
        w = rng.normal(size=sp.size)
        lp = bl_dual_norm(DiscreteMeasure(sp, w))
        bf = flat_norm_bruteforce(w, sp.metric)
        worst = max(worst, abs(lp - bf))
    ok_bf = worst <= 1e-4
    details.append(f"bruteforce {worst:.3e} (tol 1e-4)")

    report("flat_norm", ok_pairs and ok_mass and ok_tri and ok_bf,
           "; ".join(details))


def test_07_picard_rk_cross_validation():
    control = StepControl(dt=1e-3)
    worst_gap = 0.0
    worst_ratio = 0.0
    for sc in scenario_batch(505, 5, max_atoms=10):
        rk = integrate(sc["state0"], 1.0, control, sc["rates"],
                       sc["kernel"]).endpoint()
        pic = picard_solve(sc["state0"], 1.0, control, sc["rates"], sc["kernel"])
        end = pic.endpoint()
        worst_gap = max(
            worst_gap, abs(rk.S - end.S) + flat_distance(rk.mu, end.mu)
        )
        worst_ratio = max(worst_ratio, pic.metadata["contraction_ratio"])
    ok = worst_gap <= 1e-5 and worst_ratio < 1.0
    report("picard_vs_rk", ok,
           f"max endpoint gap {worst_gap:.3e} (tol 1e-5), "
           f"max contraction ratio {worst_ratio:.3f} (< 1)")


def test_08_bullet_inequalities():
    rng = np.random.default_rng(606)
    worst = np.inf
    for _ in range(200):
        sp = random_space(rng, max_atoms=6)
        n = sp.size
        f = AtomFunction(sp, rng.normal(size=n))
        mu_signed = DiscreteMeasure(sp, rng.normal(size=n))
        slack_f = (
            bl_norm_fn(f) * bl_dual_norm(mu_signed)
            - bl_dual_norm(bullet_fn(f, mu_signed))
        )
        K = MutationKernel(sp, rng.dirichlet(np.ones(n), size=n))
        mu_pos = DiscreteMeasure(sp, rng.uniform(0.0, 1.0, n))
        row_norm = max(bl_dual_norm(row_measure(K, i)) for i in range(n))
        slack_k = (
            row_norm * bl_dual_norm(mu_pos)
            - bl_dual_norm(bullet_kernel(K, mu_pos))
        )
        worst = min(worst, slack_f, slack_k)
    report("bullet_inequalities", worst >= -1e-9,
           f"min slack over 200 instances {worst:.3e} (tol -1e-9)")


def test_09_concentration():
    start = time.monotonic()
    sp = build_grid(1, [(0.0, 1.0)], [2])
    rates = truncate(
        VitalRates(
            inflow=1.0, dilution=1.0,
            uptake=UptakeSpec.build("monod", 2, [1.0, 1.0], a=[0.5, 1.5]),
            mortality=MortalitySpec.build("constant", 2, 0.3),
        ),
        4.0,
    )
    # distinct break-evens: atom 0 survives at lower substrate
    s_star = breakevens(rates)
    assert s_star[0] < s_star[1]
    state0 = SystemState(1.0, DiscreteMeasure(sp, np.array([0.3, 0.3])))
    traj = integrate(
        state0, 500.0, StepControl(dt=0.01, record_every=100),
        rates, pure_selection_kernel(sp),
    )
    final = traj.endpoint().mu
    winner = int(np.argmax(final.weights))
    dist = flat_distance(
        DiscreteMeasure(sp, final.weights / final.total_mass()),
        dirac(sp, winner),
    )

    # independent 3-ODE oracle for the winner
    def rhs(t, y):
        S, i0, i1 = y
        B = rates.uptake_values(S)
        return [
            1.0 - S - B[0] * i0 - B[1] * i1,
            (B[0] - 0.3) * i0,
            (B[1] - 0.3) * i1,
        ]

    sol = solve_ivp(rhs, (0.0, 500.0), [1.0, 0.3, 0.3],
                    rtol=1e-9, atol=1e-12, method="RK45")
    oracle_winner = int(np.argmax(sol.y[1:, -1]))
    elapsed = time.monotonic() - start
    ok = (winner == 0 and winner == oracle_winner and dist < 0.05
          and elapsed < 30.0)
    report("concentration", ok,
           f"winner atom {winner} (oracle {oracle_winner}), "
           f"distance to Dirac {dist:.3e} (tol 0.05), runtime {elapsed:.1f}s")


def test_10_rk4_order_and_truncation():
    sc = scenario_batch(707, 1, max_atoms=6)[0]
    rates, K, state0 = sc["rates"], sc["kernel"], sc["state0"]

    def endpoint(dt):
        end = integrate(state0, 2.0, StepControl(dt=dt), rates, K).endpoint()
        return end.S, end.mu.weights

    def err(a, ref):
        return abs(a[0] - ref[0]) + float(np.abs(a[1] - ref[1]).max())

    ref = endpoint(0.1 / 8.0)
    ratio = err(endpoint(0.1), ref) / err(endpoint(0.05), ref)
    ok_order = 8.0 <= ratio <= 32.0

    N = rates.clamp
    wide = integrate(state0, 2.0, StepControl(dt=1e-3),
                     truncate(rates, 2.0 * N), K).endpoint()
    tight = integrate(state0, 2.0, StepControl(dt=1e-3), rates, K).endpoint()
    gap = abs(wide.S - tight.S) + float(
        np.abs(wide.mu.weights - tight.mu.weights).max()
    )
    ok_trunc = gap <= 1e-10
    report("rk4_order_truncation", ok_order and ok_trunc,
           f"error ratio dt=0.1 vs 0.05 is {ratio:.1f} (target 16, "
           f"window [8, 32]); truncation N vs 2N gap {gap:.3e} (tol 1e-10)")
