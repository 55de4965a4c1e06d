import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from crflow.dynamics import SystemState
from crflow.kernel import local_mutation_kernel, pure_selection_kernel
from crflow.measure import DiscreteMeasure
from crflow.rates import (
    MortalitySpec,
    UptakeSpec,
    VitalRates,
    default_truncation_level,
)
from crflow.space import StrategySpace, build_grid, euclidean_metric


def random_space(rng, max_atoms=8, dim=1):
    n = int(rng.integers(1, max_atoms + 1))
    pts = np.sort(rng.uniform(0.0, 3.0, (n, dim)), axis=0)
    pts += np.arange(n)[:, None] * 1e-3  # keep atoms distinct
    return StrategySpace(pts, euclidean_metric(pts))


def random_admissible_scenario(rng, max_atoms=20):
    """A random scenario satisfying the admissibility assumptions.

    Coefficient ranges are chosen so rates stay O(1) and a fixed step of
    0.05 is comfortably inside the RK4 stability region.
    """
    n = int(rng.integers(1, max_atoms + 1))
    if n == 1:
        space = build_grid(1, [(0.5, 0.5)], [1])
    else:
        space = build_grid(1, [(0.0, 1.0)], [n])
    b = rng.uniform(0.5, 1.5, n)
    a = rng.uniform(0.5, 2.0, n)
    uptake = UptakeSpec.build("monod", n, b, a=a)
    d0 = rng.uniform(0.25, 0.8, n)
    if rng.random() < 0.5:
        mortality = MortalitySpec.build(
            "decreasing", n, d0, c=rng.uniform(0.0, 0.3, n)
        )
    else:
        mortality = MortalitySpec.build("constant", n, d0)
    inflow = float(rng.uniform(0.2, 1.5))
    dilution = float(rng.uniform(0.3, 1.5))
    if n > 1 and rng.random() < 0.6:
        K = local_mutation_kernel(space, float(rng.uniform(0.05, 0.5)))
    else:
        K = pure_selection_kernel(space)
    S0 = float(rng.uniform(0.0, 2.0))
    w = rng.uniform(0.0, 1.0, n)
    w = w * float(rng.uniform(0.1, 2.0)) / max(w.sum(), 1e-9)
    state0 = SystemState(S0, DiscreteMeasure(space, w))
    N = default_truncation_level(inflow, dilution, S0, float(w.sum()))
    return {
        "space": space,
        "rates": VitalRates(inflow, dilution, uptake, mortality, clamp=N),
        "kernel": K,
        "state0": state0,
        "truncation": N,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
