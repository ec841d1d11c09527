"""Relaxation dynamics of the class populations.

The state of the homogeneous road is the vector f = (f_1, ..., f_n) of
densities per speed class.  Binary interactions at rate eta0 rho move
vehicles between classes by the game table A[h][k][j] of the lattice
module and conserve the density rho = sum_j f_j.  A vehicle moves one
class up or down to its partner's class, so in the cumulative sums
P_j = f_1 + ... + f_j (P_0 = 0, P_n = rho) the gain-minus-loss sum over
the table collapses to a two-term stencil.  In the model time
tau = eta0 t it reads

    dP_j/dtau = rho [rho P_j (rho - P_j) - (1 - rho) f_j (rho - P_{j-1})],

j = 1 .. n-1: faster vehicles braking into the classes up to j, and
class j accelerating out of them.  df_j/dtau is its difference with
dP_0/dtau = dP_n/dtau = 0, from one running sum per state, in O(n).  The
same sums give the exact eigenvalues of the linearization (see the
equilibrium module), which bound the step size.  The state stays in f,
because f = diff(P) would lose relative accuracy in small classes.

eta0 only sets the clock: the run at eta0 = c is the eta0 = 1 run read
at t = tau / c.  So below the entry points that take a caller's time
(integrate_batch, run_trajectory, continuity_gap) nothing takes eta0:
they scale dt and t_final by it going in, times and derivatives back
coming out, and refuse a scaled time that is not a normal float, on
which the loop would hang (0, inf) or round the times it returns.

Time integration uses the Dormand-Prince 5(4) embedded pair (Dormand &
Prince 1980) with a PI step-size controller (Gustafsson 1991; Hairer,
Norsett & Wanner, Solving ODEs I, section II.4).  Every row carries its
own time and step size.  A step is accepted when its embedded error
estimate, in the RMS norm weighted by 1e-12 + 1e-8 |f|, is at most one;
a rejected step does not advance its row.  The last stage of an accepted
step is the derivative at its end point and serves as the next step's
first stage and as the steady-state test.  The seven stages of a pass
are one (7, m, n) array, and each weighted stage sum is one product and
one reduce along the stage axis, which adds in stage order from +0.0.
Trajectory samples come from the pair's fourth-order continuous
extension, so the sample spacing does not limit the step size.

After each accepted step, and at every sample, components that dip below
zero by at most 1e-12 are clamped back to zero and the clamped mass is
returned to the largest component, which keeps the density bit-for-bit
meaningful; a dip below -1e-12 aborts the run as a genuine failure.

One stepping loop, _integrate_batch, serves every entry point:
integrate_batch, run_trajectory, continuity_gap and verify.  It takes
the first step, horizon and steady tolerance as arguments, each one
value or one value per row: the entry points pass their one
IntegrationConfig's, continuity_gap steps its pair in one batch, and
verify steps the conservation, continuity and attractivity rows of one
n, each with its group's settings, as one batch.  The loop hands each
accepted step (its time, size, start, end and stages) to a recorder
callback; run_trajectory keeps them and evaluates
the samples of all steps in one batch after the loop, so a sample below
the clamp window raises when the loop has ended.  The loop applies one
conservation policy: a row's density may move by at most 1e-13 in a
single accepted step, checked against the row sum before the step, or
the run raises ConsistencyError.  The measured per-step drift is below
1e-15.  The loop also returns each row's largest drift from its start,
so the rows of one group in a mixed batch read their own.  It raises its
own errors on non-finite values and runs with numpy's floating-point
warnings off.

The loop takes a batch of states as the rows of a matrix.  Rows evolve
independently through elementwise arithmetic in a fixed order, so a
row's result never depends on which other rows share its batch, and a
row leaves the working array, with its settings, once it is steady or
has reached its horizon.  A pass in which every row accepts keeps its new
arrays whole; only a pass with rejections gathers and scatters rows.

The working arrays are class-major: column j of an (m, n) array, class j
of every row, is one contiguous run of m values.  A batch has few
classes and up to a few dozen rows, so numpy's per-call cost, not
arithmetic, bounds a pass, and class-major an elementwise operation or
a class slice runs over runs of m instead of m runs of n.  A pass's
buffers live in one _Workspace per batch shape (module _pass), rebuilt
only when rows leave: the stage stack with its stage-sum products,
_rhs_batch's sums, stencil, temporaries and (m, 1) column, which also
give the step bound, the error-norm buffers, and every view these are
read through, built once.  No array leaves a pass as a view of them:
k1 is copied from the last stage, each stage's solution Y is a new
array, and the recorder and the results get copies.  Boolean row
indexing returns row-major arrays, so rows are dropped by taking
columns of the transposed array.  Entry and exit stay row-major, and
every row sum (density, drift, steady-state and error norms, clamp
deficit) is taken over row-major memory: numpy sums a contiguous row
pairwise, a class-major row one class at a time, and from n = 8 on the
two round differently.

Random starts take their uniforms from _pcg64._uniform, numpy's
default_rng(seed).random() bit for bit without numpy's random module.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._pass import _Workspace, _combine, _rhs_batch, _stable_step, _stencil
from ._pcg64 import _uniform
from .errors import ConsistencyError, IntegrationDivergedError
from .lattice import _CLAMP_TOL, ModelParams, _check_n, _check_rho, _check_states, build_lattice

__all__ = [
    "KineticState",
    "Observables",
    "IntegrationConfig",
    "BatchStats",
    "DEFAULT_SEED",
    "integrate_batch",
    "run_trajectory",
    "observables",
    "continuity_gap",
    "random_state",
    "random_state_batch",
]

DEFAULT_SEED = 1729

# positivity policy thresholds; the clamp window _CLAMP_TOL is the state rule's
_DRIFT_TOL = 1e-13

# error control: a step is accepted when the RMS over its row of
# error / (_ATOL + _RTOL |f|) is at most one; trajectory samples then stay
# within 1e-9 of a fine fixed-step solution
_RTOL = 1e-8
_ATOL = 1e-12

# PI controller (Hairer, Norsett & Wanner's DOPRI5 defaults): safety
# factor, step growth between 1/5 and 10 per step, and exponents
_SAFE = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
_BETA = 0.04
_ALPHA = 0.2 - 0.75 * _BETA

# Dormand-Prince 5(4): stage rows a_ij (the last row is the fifth-order
# solution, whose derivative is the first stage of the next step), the
# error weights b_i - bhat_i and the dense-output weights
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)
_D = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)


# each weight row as a (k, 1, 1) column over the first k stages, zeros included
_A_W = tuple(np.array(row)[:, None, None] for row in _A)
_E_W, _D_W = (np.array(w)[:, None, None] for w in (_E, _D))

# values per block of the dense output (64 KiB per buffer), so the gathered
# coefficients stay in cache instead of filling fresh memory
_DENSE_BLOCK = 8192


@dataclass(frozen=True, eq=False)
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
        _check_states(arr)
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


@dataclass(frozen=True)
class IntegrationConfig:
    """Integrator settings; dt and t_final are in the caller's time t (module docstring).

    Attributes:
        dt: first trial step of every row, and the spacing of trajectory
            samples; later steps are chosen by the error control.
        t_final: horizon; integration stops here even if not steady.
        steady_tol: 1-norm of df/dtau below which a state counts as
            steady, so eta0 does not move the model time at which a run
            turns steady.
        record_stride: trajectory samples are taken every record_stride
            multiples of dt.
    """

    dt: float = 0.01
    t_final: float = 200.0
    steady_tol: float = 1e-10
    record_stride: int = 1

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_final > 0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if not self.steady_tol >= 0:
            raise ValueError("steady_tol must be nonnegative")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass
class BatchStats:
    """Integrity monitors and work counts accumulated over a batched run.

    rhs_evals counts row evaluations of the vector field, accepted and
    rejected count row steps; each is the sum of what the rows would
    count on their own.  max_drift is the largest distance of a row's
    density from its start over every run; the loop returns each row's
    own.
    """

    min_preclamp: float = 0.0
    max_drift: float = 0.0
    max_clamp_delta: float = 0.0
    rhs_evals: int = 0
    accepted: int = 0
    rejected: int = 0


def _dp_step(F, h, k1, ws=None):
    """One Dormand-Prince attempt from every row of F with steps h (a column).

    Returns the fifth-order solution Y, a new array, and the seven stages
    K, shape (7, m, n), and running sums of Y in the buffers of ws, a
    _Workspace of F's shape (a new one if not given); K[6] is the
    derivative at Y.
    """
    ws = ws or _Workspace(*F.shape)
    K, acc = ws.K, ws.acc
    K[0] = k1
    # _rhs_batch is this module's name, so a hook set here sees every stage
    for i, (w, prod) in enumerate(zip(_A_W, ws.prods), 1):
        Y = F + np.multiply(h, _combine(w, K, prod, acc), out=acc)
        K[i] = _rhs_batch(Y, out=ws.stages[i], sums=ws.sums)
    return Y, K, ws.sums[-1]


def _dense(F, Y, K, h, at, theta, x=None):
    """Fourth-order continuous extension of the steps F -> Y.

    Sample i lies in step at[i], at the fraction theta[i] of it (theta is
    a column).  The coefficients are formed once per step and gathered per
    sample, _DENSE_BLOCK values at a time into one reused buffer.  Each
    block of F + theta (dy + (1 - theta) (b + theta (c + (1 - theta) d)))
    is evaluated from the inside out in its rows of the returned array x,
    one operation at a time in the order of the nested expression; x is
    a new array unless a C-contiguous (samples, n) one is given.
    """
    dy = Y - F
    b = h * K[0] - dy
    c = dy - h * K[6] - b
    d = h * _combine(_D_W, K)
    if x is None:
        x = np.empty((at.size, F.shape[1]))
    size = max(1, _DENSE_BLOCK // F.shape[1])
    buf = np.empty((min(size, at.size), F.shape[1]))
    for lo in range(0, at.size, size):
        i, w, out = at[lo : lo + size], theta[lo : lo + size], x[lo : lo + size]
        g = buf[: i.size]
        # at holds valid step indices; "clip" lets take write into out
        # directly, where "raise" would go through a temporary
        d.take(i, axis=0, out=out, mode="clip")
        omt = 1.0 - w
        for wt, v in ((omt, c), (w, b), (omt, dy), (w, F)):
            v.take(i, axis=0, out=g, mode="clip")
            np.add(g, np.multiply(wt, out, out=out), out=out)
    return x


def _clamp_batch(F: np.ndarray, stats: BatchStats) -> np.ndarray:
    """Apply the positivity policy row by row.

    Returns F itself when no component is negative.

    Raises:
        IntegrationDivergedError: if any component is below -1e-12.
    """
    m = float(F.min())
    if m < stats.min_preclamp:
        stats.min_preclamp = m
    if m >= 0.0:
        return F
    if m < -_CLAMP_TOL or not math.isfinite(m):
        raise IntegrationDivergedError(
            f"class population fell to {m!r}, below the -1e-12 clamp window"
        )
    neg = F < 0.0
    deficit = np.where(neg, F, 0.0).copy(order="C").sum(axis=1)  # <= 0 per row
    Fc = np.where(neg, 0.0, F)
    rows = np.arange(F.shape[0])
    top = Fc.argmax(axis=1)
    Fc[rows, top] += deficit  # absorb so the row sum is unchanged
    delta = max(-m, float(-deficit.min()))
    if delta > stats.max_clamp_delta:
        stats.max_clamp_delta = delta
    return Fc


# the loop raises its own errors on non-finite values, so numpy's warnings
# would only precede them on stderr
@np.errstate(all="ignore")
def _integrate_batch(
    F0: np.ndarray,
    dt,
    t_final,
    steady_tol,
    stats: BatchStats | None = None,
    record: Callable | None = None,
):
    """March every row of F0 until it is steady or reaches its t_final.

    dt (the first trial step), t_final and steady_tol, all in model time,
    are each one value for every row or a sequence of one value per row.
    A row leaves the working array, with its settings, once the 1-norm of
    its derivative is below its steady_tol, or once its last step, cut to
    end exactly on its t_final, is accepted.  stats.max_drift keeps the
    largest density drift it has seen.  After each pass that accepts
    steps, record(rows, t, h, F, Y, K) receives copies, the hook's to
    keep, of what _dense needs to evaluate those steps: the original
    indices of the rows that advanced, their times before the step, the
    step sizes, the states before the step, the unclamped fifth-order
    solutions and the seven stages, shape (7, rows, n).

    Returns (F, converged, steps, t, D, drift): the final rows, a boolean
    mask of rows whose final derivative is below their steady_tol, the
    accepted steps per row, the time each row stopped at, the derivative
    at F, and each row's largest density drift from its start.

    Raises:
        ConsistencyError: if a row's density moves by more than 1e-13 in
            one step.
        IntegrationDivergedError: on non-finite values, a step size too
            small to advance time, or a dip below the clamp window.
    """
    # working arrays are class-major (see the module docstring); every row
    # sum is taken from a row-major copy
    F = np.array(F0, dtype=float, order="F")
    stats = BatchStats() if stats is None else stats
    m, n = F.shape
    t_final, steady_tol = (np.full(m, x, dtype=float) for x in (t_final, steady_tol))
    F_out, D_out = np.empty((m, n)), np.empty((m, n))
    conv_out = np.zeros(m, dtype=bool)
    steps_out = np.zeros(m, dtype=int)
    t_out, drift_out = np.zeros(m), np.zeros(m)

    # working set: original row index, state, the workspace with its
    # first stage, step bound, time, trial step, previous error, whether
    # the last attempt was rejected, steps, row sum, largest drift from
    # the start, horizon and steady tolerance
    rows = np.arange(m)
    ws = _Workspace(m, n)
    ws.K[0] = _rhs_batch(F, out=ws.k1, sums=ws.sums)
    bound = _stable_step(ws.sums)
    stats.rhs_evals += m
    t = np.zeros(m)
    h = np.full(m, dt, dtype=float)
    err_prev = np.full(m, 1e-4)
    rejected = np.zeros(m, dtype=bool)
    steps = np.zeros(m, dtype=int)
    s_ref = F.copy(order="C").sum(axis=1)
    s = s_ref.copy()
    drift = np.zeros(m)
    steady = leave = np.abs(ws.k1, out=ws.sq).sum(axis=1) < steady_tol
    while True:
        if leave.any():
            done = rows[leave]
            F_out[done], D_out[done] = F[leave], ws.k1[leave]
            t_out[done], steps_out[done] = t[leave], steps[leave]
            conv_out[done], drift_out[done] = steady[leave], drift[leave]
            keep = (~leave).nonzero()[0]
            rows, bound, t, h, err_prev, rejected, steps, s, drift, t_final, steady_tol = (
                x[keep]
                for x in (
                    rows, bound, t, h, err_prev, rejected, steps, s, drift, t_final, steady_tol
                )
            )
            # columns of the transposed base, so the rows stay class-major
            F = F.T.take(keep, axis=1).T
            k1, ws = ws.k1, _Workspace(rows.size, n)
            ws.K[0] = k1[keep]
        if not rows.size:
            break
        h = np.minimum(h, bound)
        last = t + h >= t_final
        hs = np.where(last, t_final - t, h)
        hc = hs[:, None]
        Y, K, _ = _dp_step(F, hc, ws.k1, ws)
        stats.rhs_evals += 6 * rows.size
        E = np.multiply(hc, _combine(_E_W, K, ws.prods[6], ws.acc), out=ws.acc)
        scale = np.maximum(np.abs(F, out=ws.scale), np.abs(Y, out=ws.absY), out=ws.scale)
        np.add(_ATOL, np.multiply(_RTOL, scale, out=scale), out=scale)
        err = np.sqrt(np.square(np.divide(E, scale, out=E), out=ws.sq).sum(axis=1) / n)
        if not np.isfinite(err).all():
            raise IntegrationDivergedError("non-finite values in trajectory")
        ok = err <= 1.0
        accepted = int(np.count_nonzero(ok))
        whole = accepted == rows.size
        stats.accepted += accepted
        stats.rejected += rows.size - accepted

        # PI step-size control (plain I control after a rejection); a step
        # right after a rejection may not grow
        grow = err**_ALPHA
        pi = grow / err_prev**_BETA
        fac = (pi if whole else np.where(ok, pi, grow)) / _SAFE
        h = hs / np.minimum(np.maximum(fac, 1.0 / _FAC_MAX), 1.0 / _FAC_MIN)
        h = np.where(rejected if whole else ok & rejected, np.minimum(h, hs), h)
        if not whole and ((t + h == t) & ~ok).any():
            raise IntegrationDivergedError("step size too small to advance time")
        rejected = ~ok

        if accepted:
            # a pass that accepts every row takes views, not gathered copies
            acc = slice(None) if whole else ok.nonzero()[0]
            Ya = Y[acc]
            Fa = _clamp_batch(Ya, stats)
            ka = K[6][acc]
            ba = _stable_step(ws.sums)[acc]
            if Fa is not Ya:
                # the clamp moved these rows: their last stage and bound are
                # stale (the stage is renewed on a copy, since the dense
                # output reads K[6])
                touched = np.flatnonzero((Fa != Ya).any(axis=1))
                sums = _stencil(touched.size, n)
                ka = ka.copy()
                ka[touched] = _rhs_batch(Fa[touched], sums=sums)
                ba[touched] = _stable_step(sums)
                stats.rhs_evals += touched.size
            sa = Fa.copy(order="C").sum(axis=1)
            moved = float(np.abs(sa - s[acc]).max())
            if moved > _DRIFT_TOL:
                raise ConsistencyError(f"density drift {moved!r} in a single step")
            total = np.abs(sa - s_ref[rows[acc]])
            if record is not None:
                a = ok.nonzero()[0]
                record(rows[a], t[a], hs[a], F[a], Y[a], K[:, a])
            # the next pass overwrites K, so k1 takes a copy
            ws.k1[acc] = ka
            if whole:
                # every row advanced: the new arrays replace the old ones
                F, bound, s = Fa, ba, sa
                t = np.where(last, t_final, t + hs)
                err_prev = np.maximum(err, 1e-4)
                drift = np.maximum(drift, total)
            else:
                F[acc], bound[acc], s[acc] = Fa, ba, sa
                t[acc] = np.where(last[acc], t_final[acc], t[acc] + hs[acc])
                err_prev[acc] = np.maximum(err[acc], 1e-4)
                drift[acc] = np.maximum(drift[acc], total)
            steps[acc] += 1
        steady = np.abs(ws.k1, out=ws.sq).sum(axis=1) < steady_tol
        leave = steady | (ok & last)
    stats.max_drift = max(stats.max_drift, float(drift_out.max(initial=0.0)))
    return F_out, conv_out, steps_out, t_out, D_out, drift_out


def integrate_batch(
    F0: np.ndarray,
    params: ModelParams,
    config: IntegrationConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, BatchStats]:
    """Integrate every row of F0, shape (m, n), until it is steady or the horizon ends.

    A single state is a batch of one row; every row must pass KineticState's rule.

    Returns:
        (final rows, converged mask, accepted steps per row, integrity
        stats and work counts).
    """
    F0 = np.asarray(F0, float)
    if F0.ndim != 2:
        raise ValueError("batch must be a 2-D array of row states")
    _check_states(F0)
    config = config or IntegrationConfig()
    stats = BatchStats()
    dt, t_final = _model_time(params.eta0, dt=config.dt, t_final=config.t_final)
    F, conv, steps, *_ = _integrate_batch(F0, dt, t_final, config.steady_tol, stats)
    return F, conv, steps, stats


def _model_time(eta0, **times):
    """The caller's times in model time eta0 t, in order; ValueError unless each is normal."""
    taus = [float(t) * float(eta0) for t in times.values()]
    for (name, t), tau in zip(times.items(), taus):
        if not np.finfo(float).tiny <= tau < math.inf:
            raise ValueError(f"{name} * eta0 = {t!r} * {eta0!r} = {tau!r}, out of range")
    return taus


def run_trajectory(
    state: KineticState,
    params: ModelParams,
    config: IntegrationConfig | None = None,
):
    """Integrate to the horizon, sampling every record_stride multiples of dt.

    Sample i lies at the model time i (dt eta0), at state.t + i (dt eta0)
    / eta0, for the multiples i of record_stride, from the clamped
    continuous extension of the step that contains it, evaluated for all
    steps at once after the loop into the rows of the returned array,
    allocated once at its final size.  So a sample below the clamp window
    raises IntegrationDivergedError when the loop has ended.

    Returns:
        (times, samples, converged) where samples[i] is the state at
        times[i]; the initial state is always the first sample and the
        final state the last, in place of a sample taken at its time.
        A start that is already steady gives one sample.  Stops early
        once steady.
    """
    config = config or IntegrationConfig()
    dt, t_final = _model_time(params.eta0, dt=config.dt, t_final=config.t_final)
    taken = []
    F, conv, _, t_end, *_ = _integrate_batch(
        state.f[None, :], dt, t_final, config.steady_tol, record=lambda *s: taken.append(s)
    )
    ts = np.zeros(0)
    if taken:
        steps = list(zip(*taken))
        t, h, F0, Y = (np.concatenate(x) for x in steps[1:5])
        K = np.concatenate(steps[5], axis=1)
        # sample i * stride * dt belongs to the first step that ends at or after it
        ends = t + h
        # an int64 stride, times k in floats: no wrap, and exact below 2^53; the
        # count in Python floats, where an overflow is inf, not a numpy warning
        stride = float(np.int64(config.record_stride))
        k = np.arange(1, int(float(ends[-1]) / (stride * dt)) + 2)
        ts = (k * stride) * dt
        ts = ts[ts <= ends[-1]]
    # the final state replaces a sample taken at its time, else follows
    m = ts.size + 1 + ((ts[-1] if ts.size else 0.0) != t_end[0])
    times, samples = np.empty(m), np.empty((m, state.n))
    times[0], times[1 : ts.size + 1], times[-1] = 0.0, ts, t_end[0]
    samples[0] = state.f
    if ts.size:
        at = np.searchsorted(ends, ts)
        theta = ((ts - t[at]) / h[at])[:, None]
        inner = samples[1 : ts.size + 1]
        # an unclamped batch is inner itself, which numpy does not copy
        inner[...] = _clamp_batch(_dense(F0, Y, K, h[:, None], at, theta, inner), BatchStats())
    samples[-1] = F[0]
    return state.t + times / params.eta0, samples, bool(conv[0])


def _flux_speed(F: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flux q = sum_j v_j f_j and mean speed u = q / rho of every row of F.

    The speeds are build_lattice(n).speeds for F's own class count n, and
    rho holds the rows' densities.  Each flux is a (1, n) @ (n,) product,
    bit for bit the row's speeds @ f; an (m, n) @ (n,) product rounds
    differently.  The mean speed of an empty road is taken to be 1, the
    continuous limit of u as rho -> 0.
    """
    q = np.matmul(F[:, None, :], build_lattice(F.shape[1]).speeds)[:, 0]
    return q, np.divide(q, rho, out=np.ones_like(q), where=rho > 0.0)


def observables(f: np.ndarray) -> Observables:
    """Density sum_j f_j, and flux and mean speed by _flux_speed, of the state vector f."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise ValueError("state must be a vector of class densities")
    F = f[None, :]
    rho = F.sum(axis=1)
    q, u = _flux_speed(F, rho)
    return Observables(rho=float(rho[0]), q=float(q[0]), u=float(u[0]))


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
        config: optional stepper settings; dt is the first trial step.

    Returns:
        (gap, bound).
    """
    if f0.n != g0.n:
        raise ValueError("states must have the same number of classes")
    gap, bound = _continuity_gaps(f0.f[None, :], g0.f[None, :], t, params, config)
    return float(gap[0]), float(bound[0])


def _continuity_gaps(F0, G0, t, params, config=None):
    """continuity_gap for the pairs (F0[i], G0[i]), stepped as one batch.

    Rows never interact, so each pair's (gap, bound) is bit for bit its
    one-pair value.  Returns the gaps and the bounds as arrays.
    """
    rows, eta0 = _continuity_rows(F0, G0), params.eta0
    dt, tau = _model_time(eta0, dt=(config or IntegrationConfig()).dt, t=t)
    # no steady exit, so every row reaches tau
    F, _, _, _, D, _ = _integrate_batch(rows, dt, tau, 0.0)
    return _continuity_bounds(F0, G0, F, eta0 * D, tau, 1.0 + 3.0 * eta0)


def _continuity_rows(F0, G0):
    """The rows that the pairs (F0[i], G0[i]) step, F0's then G0's.

    Raises:
        ValueError: if a pair's densities differ by more than 1e-12.
    """
    rf, rg = F0.sum(axis=1), G0.sum(axis=1)
    bad = np.flatnonzero(np.abs(rf - rg) > 1e-12)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"density mismatch: {float(rf[i])!r} vs {float(rg[i])!r}; the estimate "
            "applies to equal-density pairs"
        )
    return np.concatenate([F0, G0])


def _continuity_bounds(F0, G0, F, D, tau, slope=4.0):
    """Each pair's gap |g - f|_1 + |g' - f'|_1 at model time tau, and its bound.

    The bound is slope exp(3 tau) |g0 - f0|_1: slope is 4 for D = df/dtau
    and 1 + 3 eta0 for D = df/dt.  F and D are the states at tau and their
    derivatives, of the rows of _continuity_rows in its order.
    """
    f, g = slice(len(F0)), slice(len(F0), None)
    gap = np.abs(F[g] - F[f]).sum(axis=1) + np.abs(D[g] - D[f]).sum(axis=1)
    return gap, slope * math.exp(3.0 * tau) * np.abs(G0 - F0).sum(axis=1)


def random_state(n: int, rho: float, seed: int = DEFAULT_SEED) -> KineticState:
    """Uniformly random population split at density rho.

    Breaks the stick [0, rho] at n-1 sorted uniform cuts, so the vector of
    pieces is uniform on the scaled simplex.
    """
    return KineticState(f=random_state_batch(n, rho, 1, seed)[0])


def random_state_batch(n: int, rho: float, count: int, seed: int = DEFAULT_SEED):
    """Matrix of `count` independent uniform simplex points scaled to rho."""
    _check_n(n)
    _check_rho(rho)
    if count < 1:
        raise ValueError("count must be at least 1")
    cuts = np.sort(np.reshape(_uniform(seed, count * (n - 1)), (count, n - 1)), axis=1)
    bounds = np.concatenate(
        [np.zeros((count, 1)), cuts, np.ones((count, 1))], axis=1
    )
    return np.diff(bounds, axis=1) * rho
