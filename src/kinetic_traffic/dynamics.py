"""Relaxation dynamics of the class populations.

The state of the homogeneous road is the vector f = (f_1, ..., f_n) of
densities per speed class.  Binary interactions redistribute mass between
classes while the total density rho = sum_j f_j stays constant:

    df_j/dt = eta(rho) * ( sum_{h,k} A[h][k][j](rho) f_h f_k - rho f_j ).

The gain term counts interactions that land a vehicle in class j, the loss
term counts interactions that remove one.  Because every (h, k) row of the
game table has at most two nonzero entries (at classes h and h+1, or at
classes k and h), the double sum collapses to running prefix and suffix
sums of f.  The stepper below evaluates that closed form in O(n) per state
and never builds the n^3 table.

Time integration uses the classical fourth-order Runge-Kutta rule with a
fixed step.  After each step, components that dip below zero by at most
1e-12 are clamped back to zero and the clamped mass is returned to the
largest component, which keeps the density bit-for-bit meaningful; a dip
below -1e-12 aborts the run as a genuine failure.

One stepping loop, _integrate_batch, serves every entry point: step,
integrate_to_steady, integrate_batch, run_trajectory (through a recorder
callback) and continuity_gap.  It applies one conservation policy: a
row's density may move by at most 1e-13 in a single step, checked
against the previous step's row sums, or the run raises ConsistencyError.
The measured per-step drift is below 1e-15.

The loop takes a batch of states as the rows of a matrix.  Rows evolve
independently, and a row that reaches steady state is frozen, so results
never depend on how a batch was assembled.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, IntegrationDivergedError
from .lattice import ModelParams, SpeedLattice

__all__ = [
    "KineticState",
    "Observables",
    "IntegrationConfig",
    "BatchStats",
    "DEFAULT_SEED",
    "rhs",
    "step",
    "integrate_to_steady",
    "integrate_batch",
    "run_trajectory",
    "observables",
    "continuity_gap",
    "random_state",
    "random_state_batch",
]

DEFAULT_SEED = 1729

# positivity policy thresholds
_CLAMP_TOL = 1e-12
_DRIFT_TOL = 1e-13


@dataclass(frozen=True)
class KineticState:
    """Class populations at one instant.

    Attributes:
        f: length-n vector of per-class densities, f[j-1] is class j.
        t: simulation time.
    """

    f: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        arr = np.array(self.f, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("state must be a vector with at least two classes")
        if not np.all(np.isfinite(arr)):
            raise ValueError("state contains non-finite values")
        if arr.min() < -_CLAMP_TOL:
            raise ValueError(f"negative class population {arr.min()!r}")
        s = float(arr.sum())
        if s > 1.0 + 1e-9:
            raise ValueError(f"total density {s} exceeds 1")
        arr.setflags(write=False)
        object.__setattr__(self, "f", arr)

    @property
    def n(self) -> int:
        return self.f.size

    @property
    def rho(self) -> float:
        return float(self.f.sum())


@dataclass(frozen=True)
class Observables:
    """Macroscopic readouts: density, flux and mean speed."""

    rho: float
    q: float
    u: float


@dataclass
class IntegrationConfig:
    """Fixed-step integrator settings.

    Attributes:
        dt: time step.
        t_final: horizon; integration stops here even if not steady.
        steady_tol: 1-norm of the derivative below which a state counts
            as steady.
        record_stride: step interval between recorded trajectory samples.
    """

    dt: float = 0.01
    t_final: float = 200.0
    steady_tol: float = 1e-10
    record_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if not self.steady_tol >= 0:
            raise ValueError("steady_tol must be nonnegative")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")

    def step_budget(self) -> int:
        return math.ceil(self.t_final / self.dt - 1e-9)


@dataclass
class BatchStats:
    """Worst-case integrity monitors accumulated over a batched run."""

    min_preclamp: float = 0.0
    max_drift: float = 0.0
    max_clamp_delta: float = 0.0


def _rhs_batch(F: np.ndarray, eta0: float) -> np.ndarray:
    """Interaction gain minus loss for each row of F, times eta(rho).

    F has shape (m, n).  The j-th gain splits into the slower-or-equal
    encounters of class j itself, the acceleration inflow from class j-1,
    and the braking inflow of faster vehicles meeting class j; suffix sums
    T and prefix sums P of each row provide all of them.
    """
    T = np.flip(np.cumsum(np.flip(F, -1), -1), -1)  # T[:, j-1] = f_j + ... + f_n
    s = T[:, :1]                                    # row density, same rounding as T
    om = 1.0 - s
    P = s - T                                       # P[:, j-1] = f_1 + ... + f_{j-1}
    z = np.zeros_like(s)
    Tnext = np.concatenate([T[:, 1:], z], axis=1)
    Fprev = np.concatenate([z, F[:, :-1]], axis=1)
    Tprev = np.concatenate([z, T[:, :-1]], axis=1)
    G = s * F * (T + Tnext) + om * (Fprev * Tprev + F * P)
    # class n never accelerates: its self-encounters keep probability one
    G[:, -1] = F[:, -1] * F[:, -1] + om[:, 0] * (
        Fprev[:, -1] * Tprev[:, -1] + F[:, -1] * P[:, -1]
    )
    return (eta0 * s) * (G - s * F)


def _rk4_step_batch(F: np.ndarray, dt: float, eta0: float, k1: np.ndarray) -> np.ndarray:
    k2 = _rhs_batch(F + (0.5 * dt) * k1, eta0)
    k3 = _rhs_batch(F + (0.5 * dt) * k2, eta0)
    k4 = _rhs_batch(F + dt * k3, eta0)
    return F + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _clamp_batch(F: np.ndarray, stats: BatchStats | None) -> np.ndarray:
    """Apply the positivity policy row by row.

    Raises:
        IntegrationDivergedError: if any component is below -1e-12.
    """
    m = float(F.min())
    if stats is not None and m < stats.min_preclamp:
        stats.min_preclamp = m
    if m >= 0.0:
        return F
    if m < -_CLAMP_TOL or not math.isfinite(m):
        raise IntegrationDivergedError(
            f"class population fell to {m!r}, below the -1e-12 clamp window"
        )
    neg = F < 0.0
    deficit = np.where(neg, F, 0.0).sum(axis=1)  # <= 0 per row
    Fc = np.where(neg, 0.0, F)
    rows = np.arange(F.shape[0])
    top = Fc.argmax(axis=1)
    Fc[rows, top] += deficit  # absorb so the row sum is unchanged
    if stats is not None:
        delta = max(-m, float(-deficit.min()))
        if delta > stats.max_clamp_delta:
            stats.max_clamp_delta = delta
    return Fc


def _integrate_batch(
    F0: np.ndarray,
    eta0: float,
    config: IntegrationConfig,
    stats: BatchStats | None = None,
    record: Callable[[int, np.ndarray], None] | None = None,
):
    """March every row of F0 until steady, t_final or the step budget.

    A row whose derivative 1-norm falls below steady_tol is frozen in
    place.  After every record_stride-th step, record(i, F) receives the
    step count i and the current rows.  Returns (F, converged,
    steps_taken) where converged is a boolean row mask and steps_taken
    counts the steps each row actually advanced before freezing.

    Raises:
        ConsistencyError: if a row's density moves by more than 1e-13 in
            one step.
    """
    F = np.array(F0, dtype=float)
    if F.ndim != 2:
        raise ValueError("batch must be a 2-D array of row states")
    rows = F.shape[0]
    active = np.ones(rows, dtype=bool)
    steps_taken = np.zeros(rows, dtype=int)
    dt = config.dt
    s_ref = s_prev = F.sum(axis=1)
    for i in range(1, config.step_budget() + 1):
        k1 = _rhs_batch(F, eta0)
        active &= np.abs(k1).sum(axis=1) >= config.steady_tol
        if not active.any():
            break
        Fnew = _clamp_batch(_rk4_step_batch(F, dt, eta0, k1), stats)
        F = np.where(active[:, None], Fnew, F)
        steps_taken += active
        s_now = F.sum(axis=1)
        drift = np.abs(s_now - s_prev).max()
        if not math.isfinite(drift):
            raise IntegrationDivergedError("non-finite values in trajectory")
        if drift > _DRIFT_TOL:
            raise ConsistencyError(f"density drift {drift!r} in a single step")
        s_prev = s_now
        if stats is not None:
            total = np.abs(s_now - s_ref).max()
            if total > stats.max_drift:
                stats.max_drift = total
        if record is not None and i % config.record_stride == 0:
            record(i, F)
    else:
        # budget exhausted: final residual decides who converged
        resid = np.abs(_rhs_batch(F, eta0)).sum(axis=1)
        active &= resid >= config.steady_tol
    return F, ~active, steps_taken


def rhs(state: KineticState, params: ModelParams) -> np.ndarray:
    """Time derivative of the class populations.

    Args:
        state: current populations.
        params: model constants (eta0 enters as an overall rate).

    Returns:
        Vector df/dt; its entries sum to zero up to roundoff because the
        game table is row-stochastic.
    """
    if state.n != params.n:
        raise ValueError(f"state has {state.n} classes, params expect {params.n}")
    return _rhs_batch(state.f[None, :], params.eta0)[0]


def step(state: KineticState, dt: float, params: ModelParams) -> KineticState:
    """Advance one Runge-Kutta step under the positivity and drift policies."""
    config = IntegrationConfig(dt=dt, t_final=dt, steady_tol=0.0)
    return integrate_to_steady(state, params, config)[0]


def integrate_to_steady(
    state: KineticState,
    params: ModelParams,
    config: IntegrationConfig | None = None,
) -> tuple[KineticState, bool, int]:
    """Integrate until the derivative is negligible or the horizon ends.

    Args:
        state: initial populations.
        params: model constants.
        config: stepper settings; defaults to IntegrationConfig().

    Returns:
        (final state, converged flag, steps taken).
    """
    config = config or IntegrationConfig()
    if state.n != params.n:
        raise ValueError(f"state has {state.n} classes, params expect {params.n}")
    F, conv, steps = _integrate_batch(state.f[None, :], params.eta0, config)
    k = int(steps[0])
    return KineticState(f=F[0], t=state.t + k * config.dt), bool(conv[0]), k


def integrate_batch(
    F0: np.ndarray,
    params: ModelParams,
    config: IntegrationConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, BatchStats]:
    """Batched variant of integrate_to_steady over the rows of F0.

    Returns:
        (final rows, converged mask, per-row steps, integrity stats).
    """
    config = config or IntegrationConfig()
    stats = BatchStats()
    F, conv, steps = _integrate_batch(np.asarray(F0, float), params.eta0, config, stats)
    return F, conv, steps, stats


def run_trajectory(
    state: KineticState,
    params: ModelParams,
    config: IntegrationConfig | None = None,
):
    """Integrate to the horizon recording samples every record_stride steps.

    Returns:
        (times, samples, converged) where samples[i] is the state at
        times[i]; the initial state is always the first sample and the
        final state the last.  Stops early once steady.
    """
    config = config or IntegrationConfig()
    if state.n != params.n:
        raise ValueError(f"state has {state.n} classes, params expect {params.n}")
    times = [state.t]
    samples = [state.f]

    def record(i, F):
        times.append(state.t + i * config.dt)
        samples.append(F[0].copy())

    F, conv, steps = _integrate_batch(state.f[None, :], params.eta0, config, record=record)
    taken = int(steps[0])
    if taken % config.record_stride != 0:
        record(taken, F)
    return np.array(times), np.array(samples), bool(conv[0])


def observables(state: KineticState, lattice: SpeedLattice) -> Observables:
    """Density, flux q = sum_j v_j f_j and mean speed u = q / rho.

    The mean speed of an empty road is taken to be 1, the continuous
    limit of u as rho -> 0.
    """
    if state.n != lattice.n:
        raise ValueError(f"state has {state.n} classes, lattice has {lattice.n}")
    r = state.rho
    q = float(lattice.speeds @ state.f)
    u = q / r if r > 0.0 else 1.0
    return Observables(rho=r, q=q, u=u)


def continuity_gap(
    f0: KineticState,
    g0: KineticState,
    t: float,
    params: ModelParams,
    config: IntegrationConfig | None = None,
) -> tuple[float, float]:
    """A priori distance bound between two same-density trajectories.

    Evolves both initial states to time t and measures

        gap = |g(t) - f(t)|_1 + |g'(t) - f'(t)|_1,

    which the well-posedness estimate of the model bounds by
    (1 + 3 eta0) exp(3 eta0 t) |g0 - f0|_1.

    Args:
        f0, g0: initial states with equal density (within 1e-12).
        t: comparison time, positive.
        params: model constants.
        config: optional stepper settings; dt is adjusted to land on t.

    Returns:
        (gap, bound).
    """
    if f0.n != g0.n:
        raise ValueError("states must have the same number of classes")
    if abs(f0.rho - g0.rho) > 1e-12:
        raise ValueError(
            f"density mismatch: {f0.rho!r} vs {g0.rho!r}; the estimate "
            "applies to equal-density pairs"
        )
    if not t > 0:
        raise ValueError(f"comparison time must be positive, got {t}")
    config = config or IntegrationConfig()
    nsteps = max(1, round(t / config.dt))
    dt = t / nsteps
    run = IntegrationConfig(dt=dt, t_final=t, steady_tol=0.0)
    pair = np.vstack([f0.f, g0.f])
    F, _, _ = _integrate_batch(pair, params.eta0, run)
    D = _rhs_batch(F, params.eta0)
    gap = float(np.abs(F[1] - F[0]).sum() + np.abs(D[1] - D[0]).sum())
    eta0 = params.eta0
    bound = (1.0 + 3.0 * eta0) * math.exp(3.0 * eta0 * t) * float(
        np.abs(g0.f - f0.f).sum()
    )
    return gap, bound


def random_state(n: int, rho: float, seed: int = DEFAULT_SEED) -> KineticState:
    """Uniformly random population split at density rho.

    Breaks the stick [0, rho] at n-1 sorted uniform cuts, so the vector of
    pieces is uniform on the scaled simplex.
    """
    return KineticState(f=random_state_batch(n, rho, 1, seed)[0])


def random_state_batch(n: int, rho: float, count: int, seed: int = DEFAULT_SEED):
    """Matrix of `count` independent uniform simplex points scaled to rho."""
    if n < 2:
        raise ValueError(f"need at least two speed classes, got n={n}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"density {rho} outside [0, 1]")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.random((count, n - 1)), axis=1)
    bounds = np.concatenate(
        [np.zeros((count, 1)), cuts, np.ones((count, 1))], axis=1
    )
    return np.diff(bounds, axis=1) * rho
