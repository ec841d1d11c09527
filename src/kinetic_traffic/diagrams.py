"""Fundamental and speed diagrams swept over the density range.

The flux peaks at q = 1/2 at the critical density 1/2 for every class
count, but in double precision only at 1/2 itself, the grid point that
build_grid inserts.  The closed form is continuous there, yet the layer
above 1/2 in which q stays near 1/2 thins doubly exponentially with n:
one ulp above 1/2, q is 0.48721 at n = 6 and 0.07496 at n = 40.

The diagrams are dimensionless; rescale_dimensional and --units physical
relabel them in veh/km and km/h by the constants RHO_MAX and V_MAX.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import IntegrationConfig, _flux_speed, integrate_batch
from .equilibrium import CRITICAL_DENSITY, PHASE_CONGESTED, PHASE_FREE, _closed_form
from .errors import MalformedDiagramError
from .lattice import _check_n

__all__ = [
    "METHOD_RECURSIVE",
    "METHOD_INTEGRATE",
    "UNITS_DIMENSIONLESS",
    "UNITS_PHYSICAL",
    "RHO_MAX",
    "V_MAX",
    "U_TOL",
    "INTEGRATE_U_TOL",
    "DiagramPoint",
    "Diagram",
    "build_grid",
    "sweep",
    "detect_sigma",
    "rescale_dimensional",
]

METHOD_RECURSIVE = "recursive"
METHOD_INTEGRATE = "integrate"

UNITS_DIMENSIONLESS = "dimensionless"
UNITS_PHYSICAL = "physical"

# jam density in vehicles/km and top speed in km/h of physical units
RHO_MAX = 200.0
V_MAX = 100.0

# mean-speed slack for calling a point free flow
U_TOL = 1e-9

# integrated steady states stop at a finite derivative norm, which leaves
# the mean speed up to ~1e-7 below one in the free phase, so those sweeps
# need a coarser threshold; congested speeds sit percent-level below one,
# leaving four orders of margin
INTEGRATE_U_TOL = 1e-6

# integrate sweeps start from a uniform split, so near-critical and very
# thin grid points need a long horizon before the derivative dies down
_SWEEP_CONFIG = IntegrationConfig(dt=0.02, t_final=4000.0, steady_tol=1e-10)


@dataclass(frozen=True)
class DiagramPoint:
    rho: float
    q: float
    u: float
    phase: str
    converged: bool = True


@dataclass(frozen=True, eq=False)
class Diagram:
    """Observables over a density grid, one column per quantity.

    rho, q, u (float) and converged (bool) hold one entry per grid point,
    in grid order, and phase one string each; all are stored as read-only
    copies.  points is a view that nothing in the package reads; the
    benchmark tracer (perfbench/tracer.py) counts sweep points with it.
    """

    n: int
    method: str
    units: str
    sigma: float
    q_max: float
    rho: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    phase: tuple[str, ...] = field(repr=False)
    converged: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, dtype in (("rho", float), ("q", float), ("u", float), ("converged", bool)):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype))
            getattr(self, name).setflags(write=False)
        object.__setattr__(self, "phase", tuple(self.phase))
        r = self.rho
        if r.ndim != 1 or r.size < 2:
            raise ValueError("a diagram needs at least two grid points")
        if any(len(c) != r.size for c in (self.q, self.u, self.phase, self.converged)):
            raise ValueError("diagram columns differ in length")
        # a nan compares false either way, so it passes, as it always has
        if np.any(r[1:] <= r[:-1]):
            raise ValueError("grid densities must be strictly increasing")

    @property
    def points(self) -> tuple[DiagramPoint, ...]:
        """The columns as one DiagramPoint per grid point, built on each access."""
        return tuple(map(DiagramPoint, self.rho.tolist(), self.q.tolist(), self.u.tolist(),
                         self.phase, self.converged.tolist()))


def build_grid(steps: int) -> np.ndarray:
    """Uniform density grid on [0, 1] with the critical point inserted.

    The flux has a kink at density 1/2; sampling it exactly keeps the
    peak of the diagram on the grid for every step count.
    """
    if steps < 2:
        raise ValueError(f"grid needs at least 2 points, got {steps}")
    grid = np.linspace(0.0, 1.0, steps)
    # not np.unique, whose first call imports numpy.ma (about 15 ms)
    i = int(np.searchsorted(grid, CRITICAL_DENSITY))
    return grid if grid[i] == CRITICAL_DENSITY else np.insert(grid, i, CRITICAL_DENSITY)


def sweep(
    n: int,
    grid: np.ndarray,
    method: str = METHOD_RECURSIVE,
    config: IntegrationConfig | None = None,
) -> Diagram:
    """Equilibrium observables across a density grid.

    Args:
        n: number of speed classes, at least 2.
        grid: densities to sample, strictly increasing in [0, 1].
        method: "recursive" evaluates the closed form, running its level
            recursion class by class over all densities at once;
            "integrate" relaxes a uniform split at each density until
            steady, all densities in one batch.  Points whose derivative
            never drops below the steady tolerance are kept but marked
            converged=False.  Either way each point's flux and mean
            speed come from its state and its grid density.
        config: stepper settings in model time for the integrate
            method (integrate_batch); the recursive method ignores it.

    Returns:
        Diagram over the grid with the detected critical density.
    """
    if method not in (METHOD_RECURSIVE, METHOD_INTEGRATE):
        raise ValueError(f"unknown sweep method {method!r}")
    _check_n(n)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a vector of at least 2 densities")
    if not np.isfinite(grid).all() or grid.min() < 0.0 or grid.max() > 1.0:
        raise ValueError("grid densities must lie in [0, 1]")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid densities must be strictly increasing")
    if method == METHOD_RECURSIVE:
        F, converged = _closed_form(n, grid), np.ones(grid.size, dtype=bool)
    else:
        F0 = np.outer(grid, np.full(n, 1.0 / n))
        F, converged, _, _ = integrate_batch(F0, config or _SWEEP_CONFIG)
    q, u = _flux_speed(F, grid)
    good = q[converged]
    # the grid is increasing, so the free points come first
    free = int(np.searchsorted(grid, CRITICAL_DENSITY, side="right"))
    return Diagram(
        n=int(n), method=method, units=UNITS_DIMENSIONLESS,
        sigma=_free_end(grid, u, converged, method),
        q_max=float(good.max()) if good.size else float("nan"),
        rho=grid, q=q, u=u, converged=converged,
        phase=(PHASE_FREE,) * free + (PHASE_CONGESTED,) * (grid.size - free),
    )


def _free_end(rho: np.ndarray, u: np.ndarray, converged: np.ndarray, method: str) -> float:
    """detect_sigma on the columns, which sweep calls before its Diagram exists."""
    u_tol = INTEGRATE_U_TOL if method == METHOD_INTEGRATE else U_TOL
    free = rho[converged & (rho > 0.0) & (u >= 1.0 - u_tol)]
    if not free.size:
        raise MalformedDiagramError(
            "no converged point with positive density moves at full speed; "
            "there is no free phase to delimit"
        )
    sigma = float(free.max())
    if sigma >= rho[-1]:
        warnings.warn("free phase spans the whole density range", stacklevel=3)
    return sigma


def detect_sigma(diagram: Diagram) -> float:
    """End of the free phase: largest density still moving at full speed.

    Scans converged points for the largest rho with u >= 1 - u_tol, where
    u_tol is INTEGRATE_U_TOL for an integrate sweep and U_TOL otherwise,
    as sweep takes it, so the result is the diagram's own sigma.  The
    flux peaks there, so this locates the capacity of the road without
    relying on the argmax of q, which is flat to first order.
    """
    if diagram.units != UNITS_DIMENSIONLESS:
        raise ValueError("sigma detection expects a dimensionless diagram")
    return _free_end(diagram.rho, diagram.u, diagram.converged, diagram.method)


def rescale_dimensional(diagram: Diagram) -> Diagram:
    """Convert a dimensionless diagram to vehicles/km and km/h (RHO_MAX, V_MAX)."""
    if diagram.units != UNITS_DIMENSIONLESS:
        raise ValueError("diagram is already in physical units")
    return replace(
        diagram, units=UNITS_PHYSICAL, sigma=diagram.sigma * RHO_MAX,
        q_max=diagram.q_max * RHO_MAX * V_MAX,
        rho=diagram.rho * RHO_MAX, q=diagram.q * RHO_MAX * V_MAX, u=diagram.u * V_MAX,
    )
