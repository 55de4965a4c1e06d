"""Consumer-resource evolutionary dynamics on discrete measures.

The state of the system is a pair (S, mu): a scalar resource level and a
population distribution over a finite strategy space. The package provides
the flat (bounded-Lipschitz dual) norm on signed measures, mutation
kernels, vital-rate families, two independent time integrators, and
diagnostics tying trajectories to conservation and boundedness properties.
`run` integrates a scenario built by `crflow.scenario.build_scenario`.
"""

__version__ = "0.1.0"

from crflow.space import StrategySpace, build_grid
from crflow.measure import (
    AtomFunction,
    DiscreteMeasure,
    bl_dual_norm,
    bl_norm_fn,
    flat_distance,
)
from crflow.kernel import (
    MutationKernel,
    local_mutation_kernel,
    pure_selection_kernel,
)
from crflow.rates import (
    MortalitySpec,
    UptakeSpec,
    VitalRates,
    breakevens,
    dissipativity_bound,
    truncate,
)
from crflow.dynamics import (
    StepControl,
    SystemState,
    Trajectory,
    integrate,
    picard_solve,
)
from crflow.analysis import (
    concentration,
    diagnostics,
)
from crflow.scenario import run
