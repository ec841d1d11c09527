"""Self-checks for the model invariants, runnable from the command line.

Each group exercises one structural property end to end:

  stochasticity   interaction tables are exact probability distributions
  conservation    density is preserved along trajectories
  continuity      nearby initial data stay within the growth bound
  uniqueness      one attracting equilibrium per density, matching the
                  closed form
  attractivity    random initial data relax onto that equilibrium
  sigma           the detected critical density sits at one half

The conservation, continuity and attractivity groups step their rows of
one n as one batch: the loop takes a first step, horizon and steady
tolerance per row, each its group's, in model time (the time of
eta0 = 1), and returns each row's result and density drift.  Rows never
interact, so each row's result is the one its group would get alone.
The three checks then read their rows of every n's result.  The
uniqueness group enumerates candidates by brute force at every n, in at
most n branches per density.

The table builder is injectable so the stochasticity group can be pointed
at a deliberately broken construction; it must then fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._pcg64 import _uniform
from .diagrams import METHOD_RECURSIVE, build_grid, sweep
from .dynamics import (
    DEFAULT_SEED,
    IntegrationConfig,
    _continuity_bounds,
    _continuity_rows,
    _integrate_batch,
    random_state_batch,
)
from .equilibrium import _closed_form, equilibrium_bruteforce, is_attracting
from .lattice import GameTable, build_game_table

__all__ = ["CheckResult", "run_suite", "VERIFY_DENSITIES"]

# densities probed by the equilibrium groups; both phases, away from the
# critical point where relaxation is algebraically slow
VERIFY_DENSITIES = (0.2, 0.4, 0.6, 0.8)

_ATTRACT_TOL = 1e-6
_MATCH_TOL = 1e-10

# the stepping groups' settings; continuity pairs run to t = 5 with the
# default first step and no steady exit
_CONSERVATION = IntegrationConfig(dt=0.02, t_final=60.0)
_CONTINUITY = IntegrationConfig(t_final=5.0, steady_tol=0.0)
# the slowest rate here, 0.024 at rho = 0.2, acts on one Jordan block of
# size n - 1 in the free phase, so the time to steady grows with n: the
# slowest attractivity run turns steady at t = 766 for n = 2, 1,777 for
# n = 12, 4,483 for n = 40 and 6,486 for n = 60, about 100 more per
# class.  A horizon of 1e5 is 15 times the n = 60 time; a steady row
# leaves the batch, so the horizon only shortens a run's last step, and
# the rows of the shorter groups leave at their own horizons
_ATTRACTIVITY = IntegrationConfig(dt=0.02, t_final=1e5)
_SAMPLES = 3

TableBuilder = Callable[[int, float], GameTable]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_stochasticity(n_max: int, table_builder: TableBuilder) -> tuple[bool, str]:
    # eight uniform densities per n, one stream over all n
    u = _uniform(DEFAULT_SEED, 8 * (n_max - 1))
    for n in range(2, n_max + 1):
        densities = [0.0, 0.25, 0.5, 0.75, 1.0] + u[8 * (n - 2) : 8 * (n - 1)]
        for rho in densities:
            A = table_builder(n, float(rho)).A
            if A.min() < 0.0 or A.max() > 1.0:
                return False, f"entry outside [0, 1] at n={n}, rho={rho:g}"
            sums = A.sum(axis=2)
            dev = float(np.abs(sums - 1.0).max())
            if dev != 0.0:
                return False, f"row sum off by {dev:.3e} at n={n}, rho={rho:g}"
            support = np.count_nonzero(A, axis=2)
            if support.max() > 2:
                return False, f"row with >2 outcomes at n={n}, rho={rho:g}"
    return True, "max row-sum deviation 0"


@dataclass(frozen=True)
class _Stepped:
    """What the stepping groups read of one n's batch.

    drift is the conservation rows' largest density drift, gaps and
    bounds are the continuity pairs', three per density, and final and
    converged the attractivity rows' end states and steady flags,
    _SAMPLES per density.
    """

    n: int
    drift: float
    gaps: np.ndarray
    bounds: np.ndarray
    final: np.ndarray
    converged: np.ndarray


def _step(n: int) -> _Stepped:
    """Step the conservation, continuity and attractivity rows of n as one batch."""

    def starts(count, seed):
        return np.concatenate(
            [random_state_batch(n, rho, count, seed=seed) for rho in VERIFY_DENSITIES]
        )

    pairs = starts(6, DEFAULT_SEED + 7 * n)
    F0, G0 = pairs[0::2], pairs[1::2]
    groups = [
        (starts(4, DEFAULT_SEED + n), _CONSERVATION),
        (_continuity_rows(F0, G0), _CONTINUITY),
        (starts(_SAMPLES, DEFAULT_SEED + 13 * n), _ATTRACTIVITY),
    ]
    sizes = [len(rows) for rows, _ in groups]
    # one row of (dt, t_final, steady_tol) per batch row
    settings = np.repeat([[c.dt, c.t_final, c.steady_tol] for _, c in groups], sizes, axis=0)
    F, conv, _, _, D, drift = _integrate_batch(np.concatenate([r for r, _ in groups]), *settings.T)
    a, b = sizes[0], sizes[0] + sizes[1]
    gaps, bounds = _continuity_bounds(F0, G0, F[a:b], D[a:b], _CONTINUITY.t_final)
    return _Stepped(n, float(drift[:a].max()), gaps, bounds, F[b:], conv[b:])


def _check_conservation(runs: list[_Stepped]) -> tuple[bool, str]:
    worst = 0.0
    for run in runs:
        worst = max(worst, run.drift)
        if run.drift > 1e-12:
            return False, f"density drifted by {run.drift:.3e} at n={run.n}"
    return True, f"max density drift {worst:.3e}"


def _check_continuity(runs: list[_Stepped]) -> tuple[bool, str]:
    for run in runs:
        bad = np.flatnonzero(run.gaps > run.bounds)
        if bad.size:
            i = bad[0]
            rho = VERIFY_DENSITIES[i // 3]
            return False, (f"gap {run.gaps[i]:.3e} exceeds bound {run.bounds[i]:.3e} "
                           f"at n={run.n}, rho={rho:g}")
    return True, f"all sampled pairs within the growth bound up to t={_CONTINUITY.t_final:g}"


def _check_uniqueness(n_max: int) -> tuple[bool, str]:
    for n in range(2, n_max + 1):
        closed_forms = _closed_form(n, np.array(VERIFY_DENSITIES))
        for rho, closed in zip(VERIFY_DENSITIES, closed_forms):
            candidates = equilibrium_bruteforce(n, rho)
            attracting = [
                c for c in candidates if is_attracting(c.verdict, c.from_larger_roots)
            ]
            if len(attracting) != 1:
                return False, f"{len(attracting)} attracting equilibria at n={n}, rho={rho:g}"
            err = float(np.abs(attracting[0].f - closed).max())
            if err > _MATCH_TOL:
                return False, (f"attracting equilibrium off the closed form by {err:.3e} "
                               f"at n={n}, rho={rho:g}")
    return True, f"one attracting equilibrium per density, matching within {_MATCH_TOL:g}"


def _check_attractivity(runs: list[_Stepped]) -> tuple[bool, str]:
    worst = 0.0
    for run in runs:
        if not run.converged.all():
            return False, f"{int((~run.converged).sum())} runs never went steady at n={run.n}"
        targets = np.repeat(_closed_form(run.n, np.array(VERIFY_DENSITIES)), _SAMPLES, axis=0)
        err = float(np.abs(run.final - targets).max())
        worst = max(worst, err)
        if err > _ATTRACT_TOL:
            return False, f"final state off by {err:.3e} at n={run.n}"
    return True, f"max distance to equilibrium {worst:.3e}"


def _check_sigma(n_max: int) -> tuple[bool, str]:
    grid = build_grid(101)
    spacing = 1.0 / 100.0
    for n in range(2, n_max + 1):
        d = sweep(n, grid, METHOD_RECURSIVE)
        if abs(d.sigma - 0.5) > spacing / 2:
            return False, f"detected sigma {d.sigma:g} at n={n}, expected 0.5"
    return True, "critical density 0.5 recovered for every n"


def run_suite(n_max: int = 6, table_builder: TableBuilder = build_game_table) -> list[CheckResult]:
    """Run every invariant group for n = 2 .. n_max.

    Returns one CheckResult per group, in a fixed order.  Each _check_
    function returns (passed, detail) and stops at its first failure; the
    stepping groups read one batch per n, stepped before any check.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    runs = [_step(n) for n in range(2, n_max + 1)]
    return [
        CheckResult("stochasticity", *_check_stochasticity(n_max, table_builder)),
        CheckResult("conservation", *_check_conservation(runs)),
        CheckResult("continuity", *_check_continuity(runs)),
        CheckResult("uniqueness", *_check_uniqueness(n_max)),
        CheckResult("attractivity", *_check_attractivity(runs)),
        CheckResult("sigma", *_check_sigma(n_max)),
    ]
