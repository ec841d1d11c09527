"""Self-checks for the model invariants, runnable from the command line.

Each group exercises one structural property end to end:

  stochasticity   interaction tables are exact probability distributions
  conservation    density is preserved along trajectories
  continuity      nearby initial data stay within the growth bound
  uniqueness      the stationary set is the n shifted closed forms, and
                  every face but the closed form is unstable
  attractivity    the monotone brackets certify that the closed form
                  attracts every start with a non-empty slowest class,
                  and at or below one half every start
  sigma           the detected critical density sits at one half

The conservation and continuity groups step their rows of one n as one
batch: the loop takes a first step, horizon and steady tolerance per
row, each its group's, in model time (the time of eta0 = 1), and
returns each row's result and density drift.  Rows never interact, so
each row's result is the one its group would get alone.  The two checks
then read their rows of every n's result.  The uniqueness and
attractivity groups read one brute-force enumeration per n and density,
of at most n branches.  The attractivity group steps nothing: it checks
the certificate that the dynamics module docstring turns into a proof,
the signs of the vector field at the two brackets, the closed form
between them and no other stationary face there.  The stochasticity
group calls build_game_table by its module name, so a test that rebinds
that name points the group at a broken construction, which must then
fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pass import _rhs_batch
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
from .equilibrium import (
    MARGINAL,
    UNSTABLE,
    _RATE_TOL,
    _attractor,
    _closed_form,
    equilibrium_bruteforce,
)
from .lattice import build_game_table

__all__ = ["CheckResult", "run_suite", "VERIFY_DENSITIES"]

# densities probed by the equilibrium groups; both phases, away from the
# critical point where relaxation is algebraically slow
VERIFY_DENSITIES = (0.2, 0.4, 0.6, 0.8)

_MATCH_TOL = 1e-10

# the stepping groups' settings; continuity pairs run to t = 5 with the
# default first step and no steady exit
_CONSERVATION = IntegrationConfig(dt=0.02, t_final=60.0)
_CONTINUITY = IntegrationConfig(t_final=5.0, steady_tol=0.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_stochasticity(n_max: int) -> tuple[bool, str]:
    # eight uniform densities per n, one stream over all n
    u = _uniform(DEFAULT_SEED, 8 * (n_max - 1))
    for n in range(2, n_max + 1):
        densities = [0.0, 0.25, 0.5, 0.75, 1.0] + u[8 * (n - 2) : 8 * (n - 1)]
        for rho in densities:
            A = build_game_table(n, float(rho)).A
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

    drift is the conservation rows' largest density drift, and gaps and
    bounds are the continuity pairs', three per density.
    """

    n: int
    drift: float
    gaps: np.ndarray
    bounds: np.ndarray


def _step(n: int) -> _Stepped:
    """Step the conservation and continuity rows of n as one batch."""

    def starts(count, seed):
        return np.concatenate(
            [random_state_batch(n, rho, count, seed=seed) for rho in VERIFY_DENSITIES]
        )

    pairs = starts(6, DEFAULT_SEED + 7 * n)
    F0, G0 = pairs[0::2], pairs[1::2]
    rows = [starts(4, DEFAULT_SEED + n), _continuity_rows(F0, G0)]
    a = len(rows[0])
    # one row of (dt, t_final, steady_tol) per batch row, its group's
    settings = np.repeat([[c.dt, c.t_final, c.steady_tol] for c in (_CONSERVATION, _CONTINUITY)],
                         [len(r) for r in rows], axis=0)
    F, _, _, _, D, drift = _integrate_batch(np.concatenate(rows), *settings.T)
    gaps, bounds = _continuity_bounds(F0, G0, F[a:], D[a:], _CONTINUITY.t_final)
    return _Stepped(n, float(drift[:a].max()), gaps, bounds)


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


def _check_uniqueness(found: dict) -> tuple[bool, str]:
    """Brute force's whole stationary set, found[n][i] at VERIFY_DENSITIES[i]."""
    for n, by_rho in found.items():
        closed_forms = _closed_form(n, np.array(VERIFY_DENSITIES))
        for rho, closed, cands in zip(VERIFY_DENSITIES, closed_forms, by_rho):
            # n faces above 1/2, one fewer where the duplicate rule merges
            # faces n - 1 and n - 2, which differ by 2 rho - 1; one at or below
            want = n - (2.0 * rho - 1.0 <= 1e-10) if rho > 0.5 else 1
            if len(cands) != want:
                return False, f"{len(cands)} faces, expected {want}, at n={n}, rho={rho:g}"
            att = _attractor(cands)
            err = float(np.abs(att.f - closed).max())
            # face j >= 1 grows at rho^2 (2 rho - 1), which the verdict calls
            # marginal where it is at most 1e-9 rho^2
            allowed = {UNSTABLE, MARGINAL} if 2.0 * rho - 1.0 <= _RATE_TOL else {UNSTABLE}
            others = {c.verdict for c in cands if c is not att}
            if err > _MATCH_TOL or att.verdict == UNSTABLE or others - allowed:
                return False, (f"the attractor {att.verdict}, {err:.3e} off the closed form; "
                               f"the others {sorted(others)}; at n={n}, rho={rho:g}")
    return True, (f"every stationary face found; all but the closed form, within {_MATCH_TOL:g}, "
                  "unstable")


def _check_attractivity(found: dict) -> tuple[bool, str]:
    """The monotone-bracket certificate at every n of found and every density."""
    rho = np.array(VERIFY_DENSITIES)
    m = rho.size
    for n, by_rho in found.items():
        closed = _closed_form(n, rho)
        # the lower bracket's f_1 is half the stopped class, (2 rho - 1) / 2
        # above 1/2; at or below 1/2 it is 0, and the bracket the closed form
        eps = closed[:, 0] / 2.0
        # the upper brackets' rows, then the lower ones'
        brackets = np.zeros((2 * m, n))
        brackets[:m, 0], brackets[m:, 0], brackets[m:, -1] = rho, eps, rho - eps
        dP = np.cumsum(_rhs_batch(brackets), axis=1)[:, :-1]
        if (dP[:m] > 0.0).any() or dP[:m, 1:].any() or (dP[m:] < 0.0).any():
            return False, f"a bracket's derivative has the wrong sign at n={n}"
        for r, e, f, cands in zip(VERIFY_DENSITIES, eps, closed, by_rho):
            # the closed form lies between the brackets, eps <= P_j <= rho for
            # j < n, to rounding: the top class is rho less the float sum of
            # the rest, so the float cumsum exceeds rho by at most 2 n u
            # relatively, u = 2^-53.  Where that sum itself rounds above rho,
            # the top class is 0 and the excess is the classes' rounding, at
            # most 0.33 n u rho over seven n from 2 to 200 and 3,403
            # densities (measured).  Every other face lies below the lower
            # bracket, P_1 = f_1 < eps: f_1 = 0 < eps above 1/2, and at or
            # below 1/2, where eps = 0, there is no other face
            if not cands:
                return False, f"no stationary face at n={n}, rho={r:g}"
            P, att = np.cumsum(f)[:-1], _attractor(cands)
            if (not ((P >= e) & (P <= r * (1.0 + 2 * n * 2.0**-53))).all()
                    or any(c.f[0] >= e for c in cands if c is not att)):
                return False, ("the closed form is not the one face between the brackets "
                               f"at n={n}, rho={r:g}")
    return True, "bracket signs hold, and the closed form is the one stationary face between them"


def _check_sigma(n_max: int) -> tuple[bool, str]:
    grid = build_grid(101)
    spacing = 1.0 / 100.0
    for n in range(2, n_max + 1):
        d = sweep(n, grid, METHOD_RECURSIVE)
        if abs(d.sigma - 0.5) > spacing / 2:
            return False, f"detected sigma {d.sigma:g} at n={n}, expected 0.5"
    return True, "critical density 0.5 recovered for every n"


def run_suite(n_max: int = 6) -> list[CheckResult]:
    """Run every invariant group for n = 2 .. n_max.

    Returns one CheckResult per group, in a fixed order.  Each _check_
    function returns (passed, detail) and stops at its first failure; the
    stepping groups read one batch per n, and the equilibrium groups one
    enumeration per n and density, both made before any check.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    runs = [_step(n) for n in range(2, n_max + 1)]
    found = {n: [equilibrium_bruteforce(n, rho) for rho in VERIFY_DENSITIES]
             for n in range(2, n_max + 1)}
    return [
        CheckResult("stochasticity", *_check_stochasticity(n_max)),
        CheckResult("conservation", *_check_conservation(runs)),
        CheckResult("continuity", *_check_continuity(runs)),
        CheckResult("uniqueness", *_check_uniqueness(found)),
        CheckResult("attractivity", *_check_attractivity(found)),
        CheckResult("sigma", *_check_sigma(n_max)),
    ]
