"""Self-checks for the model invariants, runnable from the command line.

Each group exercises one structural property end to end:

  stochasticity   interaction tables are exact probability distributions
  conservation    density is preserved along trajectories
  continuity      nearby initial data stay within the growth bound
  uniqueness      one attracting equilibrium per density, matching the
                  closed form
  attractivity    random initial data relax onto that equilibrium
  sigma           the detected critical density sits at one half

The table builder is injectable so the stochasticity group can be pointed
at a deliberately broken construction; it must then fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagrams import METHOD_RECURSIVE, build_grid, sweep
from .dynamics import (
    DEFAULT_SEED,
    IntegrationConfig,
    _continuity_gaps,
    integrate_batch,
    random_state_batch,
)
from .equilibrium import (
    BRUTEFORCE_MAX_N,
    _closed_form,
    equilibrium_bruteforce,
    is_attracting,
)
from .lattice import GameTable, ModelParams, build_game_table

__all__ = ["CheckResult", "run_suite", "VERIFY_DENSITIES"]

# densities probed by the equilibrium groups; both phases, away from the
# critical point where relaxation is algebraically slow
VERIFY_DENSITIES = (0.2, 0.4, 0.6, 0.8)

_ATTRACT_TOL = 1e-6
_MATCH_TOL = 1e-10

TableBuilder = Callable[[int, float], GameTable]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_stochasticity(n_max: int, table_builder: TableBuilder) -> tuple[bool, str]:
    rng = np.random.default_rng(DEFAULT_SEED)
    for n in range(2, n_max + 1):
        densities = [0.0, 0.25, 0.5, 0.75, 1.0] + list(rng.uniform(0, 1, 8))
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


def _check_conservation(n_max: int) -> tuple[bool, str]:
    config = IntegrationConfig(dt=0.02, t_final=60.0)
    worst = 0.0
    for n in range(2, n_max + 1):
        F0 = np.concatenate(
            [random_state_batch(n, rho, 4, seed=DEFAULT_SEED + n) for rho in VERIFY_DENSITIES]
        )
        _, _, _, stats = integrate_batch(F0, ModelParams(n=n), config)
        worst = max(worst, stats.max_drift)
        if stats.max_drift > 1e-12:
            return False, f"density drifted by {stats.max_drift:.3e} at n={n}"
    return True, f"max density drift {worst:.3e}"


def _check_continuity(n_max: int) -> tuple[bool, str]:
    t = 5.0
    for n in range(2, n_max + 1):
        # three pairs per density, all densities of one n in one batch
        starts = np.concatenate(
            [random_state_batch(n, rho, 6, seed=DEFAULT_SEED + 7 * n) for rho in VERIFY_DENSITIES]
        )
        gaps, bounds = _continuity_gaps(starts[0::2], starts[1::2], t, ModelParams(n=n))
        bad = np.flatnonzero(gaps > bounds)
        if bad.size:
            i = bad[0]
            rho = VERIFY_DENSITIES[i // 3]
            return False, f"gap {gaps[i]:.3e} exceeds bound {bounds[i]:.3e} at n={n}, rho={rho:g}"
    return True, f"all sampled pairs within the growth bound up to t={t:g}"


def _check_uniqueness(n_max: int) -> tuple[bool, str]:
    for n in range(2, min(n_max, BRUTEFORCE_MAX_N) + 1):
        params = ModelParams(n=n)
        closed_forms = _closed_form(n, np.array(VERIFY_DENSITIES))
        for rho, closed in zip(VERIFY_DENSITIES, closed_forms):
            candidates = equilibrium_bruteforce(n, rho, params)
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


def _check_attractivity(n_max: int) -> tuple[bool, str]:
    # the slowest rate here, 0.024 at rho = 0.2, acts on one Jordan block
    # of size n - 1 in the free phase, so the time to steady grows with n:
    # the slowest of these runs turns steady at t = 766 for n = 2, 1,777
    # for n = 12, 4,483 for n = 40 and 6,486 for n = 60, about 100 more per
    # class.  A horizon of 1e5 is 15 times the n = 60 time; steady runs
    # leave the batch, so it only shortens a run's last step
    config = IntegrationConfig(dt=0.02, t_final=1e5)
    samples = 3
    worst = 0.0
    for n in range(2, n_max + 1):
        F0 = np.concatenate(
            [
                random_state_batch(n, rho, samples, seed=DEFAULT_SEED + 13 * n)
                for rho in VERIFY_DENSITIES
            ]
        )
        F, conv, _, _ = integrate_batch(F0, ModelParams(n=n), config)
        if not conv.all():
            return False, f"{int((~conv).sum())} runs never went steady at n={n}"
        targets = np.repeat(_closed_form(n, np.array(VERIFY_DENSITIES)), samples, axis=0)
        err = float(np.abs(F - targets).max())
        worst = max(worst, err)
        if err > _ATTRACT_TOL:
            return False, f"final state off by {err:.3e} at n={n}"
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
    function returns (passed, detail) and stops at its first failure.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    return [
        CheckResult("stochasticity", *_check_stochasticity(n_max, table_builder)),
        CheckResult("conservation", *_check_conservation(n_max)),
        CheckResult("continuity", *_check_continuity(n_max)),
        CheckResult("uniqueness", *_check_uniqueness(n_max)),
        CheckResult("attractivity", *_check_attractivity(n_max)),
        CheckResult("sigma", *_check_sigma(n_max)),
    ]
