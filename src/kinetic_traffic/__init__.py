"""Discrete kinetic traffic flow with game-based speed changes.

Vehicles occupy n discrete speed classes on a single lane.  Pairwise
interactions move the slower or faster vehicle one class up or down with
probabilities set by the total density, and the resulting mean-field
dynamics conserve density while relaxing toward a unique steady state
(in the congested phase, from starts with a nonempty slowest class).
The package integrates those dynamics, evaluates the steady states in
closed form, classifies their stability, and sweeps fundamental
diagrams, with a CLI wrapping all of it.
"""

from .diagrams import (
    METHOD_INTEGRATE,
    METHOD_RECURSIVE,
    RHO_MAX,
    V_MAX,
    Diagram,
    DiagramPoint,
    build_grid,
    detect_sigma,
    rescale_dimensional,
    sweep,
)
from .dynamics import (
    DEFAULT_SEED,
    BatchStats,
    IntegrationConfig,
    Observables,
    continuity_gap,
    integrate_batch,
    observables,
    random_state,
    random_state_batch,
    run_trajectory,
)
from .equilibrium import (
    CRITICAL_DENSITY,
    MARGINAL,
    PHASE_CONGESTED,
    PHASE_FREE,
    STABLE,
    UNSTABLE,
    EquilibriumCandidate,
    EquilibriumResult,
    StabilityReport,
    equilibrium_bruteforce,
    equilibrium_recursive,
    is_attracting,
    jacobian,
    stability_report,
)
from .errors import (
    ConsistencyError,
    IntegrationDivergedError,
    KineticModelError,
    MalformedDiagramError,
)
from .lattice import (
    GameTable,
    SpeedLattice,
    build_game_table,
    build_lattice,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "METHOD_INTEGRATE",
    "METHOD_RECURSIVE",
    "RHO_MAX",
    "V_MAX",
    "Diagram",
    "DiagramPoint",
    "build_grid",
    "detect_sigma",
    "rescale_dimensional",
    "sweep",
    "DEFAULT_SEED",
    "BatchStats",
    "IntegrationConfig",
    "Observables",
    "continuity_gap",
    "integrate_batch",
    "observables",
    "random_state",
    "random_state_batch",
    "run_trajectory",
    "CRITICAL_DENSITY",
    "MARGINAL",
    "PHASE_CONGESTED",
    "PHASE_FREE",
    "STABLE",
    "UNSTABLE",
    "EquilibriumCandidate",
    "EquilibriumResult",
    "StabilityReport",
    "equilibrium_bruteforce",
    "equilibrium_recursive",
    "is_attracting",
    "jacobian",
    "stability_report",
    "ConsistencyError",
    "IntegrationDivergedError",
    "KineticModelError",
    "MalformedDiagramError",
    "GameTable",
    "SpeedLattice",
    "build_game_table",
    "build_lattice",
    "CheckResult",
    "run_suite",
]
