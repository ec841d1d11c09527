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

If P_j = 0 then f_1 = ... = f_j = 0, so the braking term of dP_j/dtau
vanishes with P_j and the acceleration term with f_j: the face P_j = 0,
classes 1..j empty, is invariant, and a start on it stays on it.

The flow keeps the componentwise order of P.  At a fixed density,
dP_j/dtau reads only P_{j-1} and P_j, and with f_j = P_j - P_{j-1}

    d(dP_j/dtau)/dP_{j-1} = rho (1 - rho) (rho - P_{j-1} + f_j) >= 0

on the state space 0 <= P_1 <= ... <= P_{n-1} <= rho, which the flow
keeps: every other off-diagonal partial is zero.  So the system is
cooperative (Kamke's condition; H. L. Smith, Monotone Dynamical Systems,
AMS 1995, ch. 3).  For two runs of the same density, d = P' - P obeys
dd/dtau = M d, with M the Jacobian averaged over the segment from P to
P'; the segment lies in the convex state space, so M's off-diagonal
entries are >= 0.  With c a bound on |M_jj| along the runs,
e = e^{c tau} d solves de/dtau = (M + c I) e with M + c I >= 0
entrywise, so its solution operator, the Peano-Baker series of
nonnegative matrices, is >= 0: P(0) <= P'(0) gives P(tau) <= P'(tau)
for all tau >= 0.

So every start with f_1 > 0 relaxes to the closed form, and above 1/2
no other does; at or below 1/2 every start does.  Take two brackets at
density rho: the upper, all mass in class 1 (P_j = rho for j < n), and
the lower, f_1 = eps and the rest in class n (P_j = eps for j < n).  At
the upper

    dP_1/dtau = -rho^3 (1 - rho) <= 0,    dP_j/dtau = 0 for j >= 2,

and above 1/2, at the lower with 0 < eps <= 2 rho - 1,

    dP_1/dtau = rho^2 eps (2 rho - 1 - eps) >= 0,
    dP_j/dtau = rho^2 eps (rho - eps) >= 0 for j >= 2.

At or below 1/2 take eps = 0: the lower bracket, all mass in class n,
is the closed form itself.  In a cooperative system the orbit of a state
whose derivative is <= 0 falls monotonically in the order, and that of
a state whose derivative is >= 0 rises (Smith, ch. 3); bounded and
monotone, each converges, to a stationary state.  The closed form P*,
stationary, has P*_1 = 2 rho - 1 >= eps and P*_j <= rho, so it lies
between the brackets, and by order preservation the upper orbit stays
above it and the lower orbit below it: both limits lie between the
brackets.  The stationary states are the n shifted closed forms
(equilibrium module docstring), and face j >= 1 has P_1 = 0 < eps, while
at or below 1/2 there is one face.  So both limits are P*, and a start
between the brackets, squeezed between their orbits, relaxes to P* too.
Every start lies below the upper bracket, and above the lower one when
f_1 >= eps, and eps can be any value in (0, 2 rho - 1]: that is every
start with f_1 > 0, or every start at or below 1/2.  A start with
f_1 = 0 stays on its face (above), and above 1/2 relaxes to a shifted
closed form.  The attractor is thus face 0, the stationary state with
the fewest leading zero classes, a rule that reads no stability verdict.
verify checks the certificate in floating point at eps = (2 rho - 1) / 2,
half the stopped class: the signs by _rhs_batch, the closed form between
the brackets and no other stationary face there.

eta0 only sets the clock: the run at eta0 = c is the eta0 = 1 run read
at t = tau / c.  So the library has one clock, the model time: every
entry point reads its IntegrationConfig's dt and t_final, and
run_trajectory returns its times, in tau.  IntegrationConfig refuses a
dt or t_final that is not a positive normal float, on which the loop
would hang (0, inf) or round the times it returns.  The simulate command
alone takes eta0 and converts: dt and t_final times eta0 going in, times
over eta0 coming out.

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

A state is a float vector of class densities, and a batch of states a
2-D array of row states.  Every function of states takes them as such
and checks them with the one state rule, lattice._check_states: a vector
for run_trajectory and observables (and the equilibrium module's
jacobian and stability_report), rows for integrate_batch and
continuity_gap, which takes its pairs as the rows of two batches.  None
writes to its input.

One stepping loop, _integrate_batch, serves every entry point:
integrate_batch, run_trajectory, continuity_gap and verify.  It takes
the first step, horizon and steady tolerance as arguments, in model
time, each one value or one value per row: the entry points pass their
one IntegrationConfig's, continuity_gap steps the rows of all its pairs
in one batch, and verify steps the conservation and continuity rows of
one n, each with its group's settings, as one batch.  The loop hands
each accepted step (its time, size, start, end and stages) to a
recorder callback; run_trajectory keeps them and
evaluates the samples of all steps in one batch after the loop, so a
sample below the clamp window raises when the loop has ended.  The loop
applies one conservation policy: a row's density may move by at most
1e-13 in a single accepted step, checked against the row sum before the
step, or the run raises ConsistencyError.  The measured per-step drift
is below 1e-15.  The loop also returns each row's largest drift from its
start, so the rows of one group in a mixed batch read their own.  It
raises its own errors on non-finite values and runs with numpy's
floating-point warnings off.  Its non-finite check, on each row's error
estimate, runs only on a pass that rejects a row: a nan or inf estimate
fails the acceptance test err <= 1, so a pass that accepts every row
holds none, and the check still sees every one.

The loop takes a batch of states as the rows of a matrix.  Rows evolve
independently through elementwise arithmetic in a fixed order, so a
row's result never depends on which other rows share its batch, and a
row leaves the working array, with its settings, once it is steady or
has reached its horizon.  A pass in which every row accepts keeps its new
arrays whole; only a pass with rejections gathers and scatters rows, and
only the pass after it caps the steps of rows that had been rejected.

The working arrays are class-major: column j of an (m, n) array, class j
of every row, is one contiguous run of m values.  A batch has few
classes and up to a few dozen rows, so numpy's per-call cost, not
arithmetic, bounds a pass, and class-major an elementwise operation or
a class slice runs over runs of m instead of m runs of n.  A pass's
buffers live in one _Workspace per batch shape (module _pass), rebuilt
only when rows leave: the stage stack with its stage-sum products,
the stage and error weights and the step spread to full blocks,
_rhs_batch's sums, stencil, temporaries, density and ones, which also
give the step bound, the error-norm buffers, and every view these are
read through, built once, so every elementwise call of a pass takes
operands of its output's shape or 0-d constants, and its output by
position where numpy allows (module _pass).  No array leaves a pass
as a view of them: k1 is copied from the last stage, each stage's
solution Y is a new array, and the recorder and the results get
copies.  Boolean row indexing returns row-major arrays, so rows are
dropped by taking columns of the transposed array.  Entry and exit
stay row-major, and every row sum (density, drift, steady-state and
error norms, clamp deficit) is taken over row-major memory: numpy sums
a contiguous row pairwise, a class-major row one class at a time, and
from n = 8 on the two round differently.

Random starts take their uniforms from _pcg64._uniform, numpy's
default_rng(seed).random() bit for bit without numpy's random module.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._pass import (
    _Workspace, _absolute, _add, _combine, _divide, _less, _less_equal, _multiply, _power,
    _rhs_batch, _sqrt, _square, _stable_step, _stencil, _subtract,
)
from ._pcg64 import _uniform
from .errors import ConsistencyError, IntegrationDivergedError
from .lattice import _CLAMP_TOL, _check_n, _check_rho, _check_states, build_lattice

__all__ = [
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

# the constants a pass takes as operands are 0-d float64 arrays (module
# _pass); _FAC_MIN and _FAC_MAX, read only through _FAC_LO and _FAC_HI,
# stay floats

# error control: a step is accepted when the RMS over its row of
# error / (_ATOL + _RTOL |f|) is at most _ONE; trajectory samples then
# stay within 1e-9 of a fine fixed-step solution
_RTOL = np.array(1e-8)
_ATOL = np.array(1e-12)
_ONE = np.array(1.0)

# PI controller (Hairer, Norsett & Wanner's DOPRI5 defaults): safety
# factor, step growth between 1/5 and 10 per step as the bounds _FAC_LO
# and _FAC_HI on the factor a step is divided by, and exponents; the
# previous error is taken as at least _ERR_MIN
_SAFE = np.array(0.9)
_FAC_MIN = 0.2
_FAC_MAX = 10.0
_FAC_LO, _FAC_HI = np.array(1.0 / _FAC_MAX), np.array(1.0 / _FAC_MIN)
_BETA = np.array(0.04)
_ALPHA = np.array(0.2 - 0.75 * _BETA)
_ERR_MIN = np.array(1e-4)

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


# each weight row as a (k, 1, 1) column over the first k stages, zeros included;
# a pass's workspace spreads the stage and error weights to full blocks
_A_W = tuple(np.array(row)[:, None, None] for row in _A)
_E_W, _D_W = (np.array(w)[:, None, None] for w in (_E, _D))
_PASS_W = (*_A_W, _E_W)

# values per block of the dense output (64 KiB per buffer), so the gathered
# coefficients stay in cache instead of filling fresh memory
_DENSE_BLOCK = 8192


@dataclass(frozen=True)
class Observables:
    """Macroscopic readouts: density, flux and mean speed."""

    rho: float
    q: float
    u: float


@dataclass(frozen=True)
class IntegrationConfig:
    """Integrator settings, in model time (module docstring).

    Attributes:
        dt: first trial step of every row, and the spacing of trajectory
            samples; later steps are chosen by the error control.
        t_final: horizon; integration stops here even if not steady.
        steady_tol: 1-norm of df/dtau below which a state counts as steady.
        record_stride: trajectory samples are taken every record_stride
            multiples of dt.
    """

    dt: float = 0.01
    t_final: float = 200.0
    steady_tol: float = 1e-10
    record_stride: int = 1

    def __post_init__(self):
        # also false for nan
        if not sys.float_info.min <= self.dt < math.inf:
            raise ValueError(f"dt must be a positive normal float, got {self.dt}")
        if not sys.float_info.min <= self.t_final < math.inf:
            raise ValueError(f"t_final must be a positive normal float, got {self.t_final}")
        if not self.steady_tol >= 0:
            raise ValueError("steady_tol must be nonnegative")
        if not isinstance(self.record_stride, (int, np.integer)):
            raise ValueError(f"record_stride must be an integer, got {self.record_stride}")
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


def _dp_step(F, h, ws):
    """One Dormand-Prince attempt from every row of F with steps h (a column).

    ws is a _Workspace of F's shape with the weights _PASS_W, whose first
    stage ws.k1 the caller has set to the derivative at F.  Returns the
    fifth-order solution Y, a new array, and leaves the seven stages in
    ws.K, shape (7, m, n), K[6] the derivative at Y, the running sums of
    Y in ws.sums, and h in every column of ws.step, until the next call.
    _rhs_batch writes each stage into its buffer through out, and the
    pass reads the buffer, not the returned array, so a substitute for
    _rhs_batch must write its result into out, as _rhs_batch does.
    """
    stages, acc, step = ws.stages, ws.acc, ws.step
    step[...] = h
    # _rhs_batch is this module's name, so a hook set here sees every stage
    for i, w, K, prod in zip(range(1, 7), ws.weights, ws.prefixes, ws.prods):
        Y = _add(F, _multiply(step, _combine(w, K, prod, acc), acc))
        _rhs_batch(Y, out=stages[i], sums=ws.sums)
    return Y


def _dense(F, Y, K, h, at, theta, x):
    """Fourth-order continuous extension of the steps F -> Y.

    Sample i lies in step at[i], at the fraction theta[i] of it (theta is
    a column).  The coefficients are formed once per step and gathered per
    sample, _DENSE_BLOCK values at a time into one reused buffer.  Each
    block of F + theta (dy + (1 - theta) (b + theta (c + (1 - theta) d)))
    is evaluated from the inside out in its rows of x, a C-contiguous
    (samples, n) array, one operation at a time in the order of the nested
    expression; returns x.
    """
    dy = Y - F
    b = h * K[0] - dy
    c = dy - h * K[6] - b
    d = h * _combine(_D_W, K)
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
    m = float(np.minimum.reduce(F, None))
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
    # first stage, step bound, time, trial step, previous error, steps,
    # row sum, row sum at the start, largest drift from the start, horizon
    # and steady tolerance; and whether each row's last attempt was
    # rejected, None after a pass that rejected no row
    rows = np.arange(m)
    ws = _Workspace(m, n, _PASS_W)
    _rhs_batch(F, out=ws.k1, sums=ws.sums)
    bound = _stable_step(ws.sums)
    stats.rhs_evals += m
    t = np.zeros(m)
    h = np.full(m, dt, dtype=float)
    err_prev = np.full(m, _ERR_MIN)
    rejected = None
    steps = np.zeros(m, dtype=int)
    s_ref = F.copy(order="C").sum(axis=1)
    s = s_ref.copy()
    drift = np.zeros(m)
    width = np.array(n, dtype=float)
    steady = leave = np.abs(ws.k1, out=ws.sq).sum(axis=1) < steady_tol
    while True:
        if np.count_nonzero(leave):
            done = rows[leave]
            F_out[done], D_out[done] = F[leave], ws.k1[leave]
            t_out[done], steps_out[done] = t[leave], steps[leave]
            conv_out[done], drift_out[done] = steady[leave], drift[leave]
            keep = (~leave).nonzero()[0]
            rows, bound, t, h, err_prev, steps, s, s_ref, drift, t_final, steady_tol = (
                x[keep]
                for x in (
                    rows, bound, t, h, err_prev, steps, s, s_ref, drift, t_final, steady_tol
                )
            )
            if rejected is not None:
                rejected = rejected[keep]
            # columns of the transposed base, so the rows stay class-major
            F = F.T.take(keep, axis=1).T
            k1, ws = ws.k1, _Workspace(rows.size, n, _PASS_W)
            ws.K[0] = k1[keep]
        if not rows.size:
            break
        h = np.minimum(h, bound)
        last = t + h >= t_final
        hs = np.where(last, t_final - t, h)
        Y, K = _dp_step(F, hs[:, None], ws), ws.K
        stats.rhs_evals += 6 * rows.size
        E = _combine(ws.weights[6], ws.prefixes[6], ws.prods[6], ws.acc)
        _multiply(ws.step, E, E)
        scale = np.maximum(_absolute(F, ws.scale), _absolute(Y, ws.absY), out=ws.scale)
        _add(_ATOL, _multiply(_RTOL, scale, scale), scale)
        err = _add.reduce(_square(_divide(E, scale, E), ws.sq), 1)
        err = _sqrt(_divide(err, width, err), err)
        ok = _less_equal(err, _ONE)
        accepted = int(np.count_nonzero(ok))
        whole = accepted == rows.size
        # a nan or inf err fails err <= 1, so a pass that accepts every
        # row has none
        if not whole and not np.isfinite(err).all():
            raise IntegrationDivergedError("non-finite values in trajectory")
        stats.accepted += accepted
        stats.rejected += rows.size - accepted

        # PI step-size control (plain I control after a rejection); a step
        # right after a rejection may not grow
        grow = _power(err, _ALPHA)
        fac = _divide(grow, _power(err_prev, _BETA))
        if not whole:
            fac = np.where(ok, fac, grow)
        _divide(fac, _SAFE, fac)
        np.minimum(np.maximum(fac, _FAC_LO, out=fac), _FAC_HI, out=fac)
        h = _divide(hs, fac, fac)
        if rejected is not None:
            h = np.where(rejected if whole else ok & rejected, np.minimum(h, hs), h)
        rejected = None if whole else ~ok
        if not whole and ((t + h == t) & rejected).any():
            raise IntegrationDivergedError("step size too small to advance time")

        if accepted:
            # a pass that accepts every row takes its arrays whole
            if whole:
                Ya, ka, ba, sb, sr = Y, K[6], _stable_step(ws.sums), s, s_ref
            else:
                acc = ok.nonzero()[0]
                Ya, ka, ba = Y[acc], K[6][acc], _stable_step(ws.sums)[acc]
                sb, sr = s[acc], s_ref[acc]
            Fa = _clamp_batch(Ya, stats)
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
            sa = _add.reduce(Fa.copy(order="C"), 1)
            moved = float(np.maximum.reduce(_absolute(_subtract(sa, sb))))
            if moved > _DRIFT_TOL:
                raise ConsistencyError(f"density drift {moved!r} in a single step")
            total = _absolute(_subtract(sa, sr))
            if record is not None:
                if whole:
                    record(rows.copy(), t.copy(), hs.copy(), F.copy(), Y.copy(), K.copy())
                else:
                    record(rows[acc], t[acc], hs[acc], F[acc], Y[acc], K[:, acc])
            if whole:
                # every row advanced: the new arrays replace the old ones;
                # the next pass overwrites K, so k1 takes a copy
                ws.k1[...] = ka
                F, bound, s = Fa, ba, sa
                t = np.where(last, t_final, t + hs)
                err_prev = np.maximum(err, _ERR_MIN, out=err)
                drift = np.maximum(drift, total, out=total)
                steps += 1
            else:
                ws.k1[acc] = ka
                F[acc], bound[acc], s[acc] = Fa, ba, sa
                t[acc] = np.where(last[acc], t_final[acc], t[acc] + hs[acc])
                err_prev[acc] = np.maximum(err[acc], _ERR_MIN)
                drift[acc] = np.maximum(drift[acc], total)
                steps[acc] += 1
        steady = _less(_add.reduce(_absolute(ws.k1, ws.sq), 1), steady_tol)
        leave = steady | (last if whole else ok & last)
    stats.max_drift = max(stats.max_drift, float(drift_out.max(initial=0.0)))
    return F_out, conv_out, steps_out, t_out, D_out, drift_out


def integrate_batch(
    F0: np.ndarray, config: IntegrationConfig | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, BatchStats]:
    """Integrate every row of F0, shape (m, n), until it is steady or the horizon ends.

    A single state is a batch of one row; F0 must pass the state rule
    (lattice._check_states) as a batch.

    Returns:
        (final rows, converged mask, accepted steps per row, integrity
        stats and work counts).
    """
    F0 = _check_states(F0, 2)
    config = config or IntegrationConfig()
    stats = BatchStats()
    F, conv, steps, *_ = _integrate_batch(F0, config.dt, config.t_final, config.steady_tol, stats)
    return F, conv, steps, stats


def run_trajectory(f: np.ndarray, config: IntegrationConfig | None = None):
    """Integrate the state f to the horizon, sampling every record_stride multiples of dt.

    f must pass the state rule (lattice._check_states) as a vector.

    Sample i lies at the time i dt, for the multiples i of record_stride,
    from the clamped continuous extension of the step that contains it,
    evaluated for all steps at once after the loop into the rows of the
    returned array, allocated once at its final size.  So a sample below
    the clamp window raises IntegrationDivergedError when the loop has
    ended.

    Returns:
        (times, samples, converged) where samples[i] is the state at
        times[i], from 0; the initial state is always the first sample and
        the final state the last, in place of a sample taken at its time.
        A start that is already steady gives one sample.  Stops early
        once steady, else at exactly config.t_final.
    """
    f = _check_states(f, 1)
    config = config or IntegrationConfig()
    dt = config.dt
    taken = []
    F, conv, _, t_end, *_ = _integrate_batch(
        f[None, :], dt, config.t_final, config.steady_tol, record=lambda *s: taken.append(s)
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
    times, samples = np.empty(m), np.empty((m, f.size))
    times[0], times[1 : ts.size + 1], times[-1] = 0.0, ts, t_end[0]
    samples[0] = f
    if ts.size:
        at = np.searchsorted(ends, ts)
        theta = ((ts - t[at]) / h[at])[:, None]
        inner = samples[1 : ts.size + 1]
        # an unclamped batch is inner itself, which numpy does not copy
        inner[...] = _clamp_batch(_dense(F0, Y, K, h[:, None], at, theta, inner), BatchStats())
    samples[-1] = F[0]
    return times, samples, bool(conv[0])


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
    """Density sum_j f_j, and flux and mean speed by _flux_speed, of the state vector f.

    f must pass the state rule (lattice._check_states) as a vector.
    """
    F = _check_states(f, 1)[None, :]
    rho = F.sum(axis=1)
    q, u = _flux_speed(F, rho)
    return Observables(rho=float(rho[0]), q=float(q[0]), u=float(u[0]))


def continuity_gap(F0, G0, tau: float):
    """A priori distance bounds between same-density trajectories, one pair per row.

    Evolves the pairs (F0[i], G0[i]), as one batch, to the time tau and
    measures each pair's

        gap = |g(tau) - f(tau)|_1 + |g'(tau) - f'(tau)|_1,

    which the well-posedness estimate of the model bounds by
    4 exp(3 tau) |g0 - f0|_1, as a float: inf where it overflows (tau
    above about 236.13), 0 for identical starts.  Rows never interact, so
    each pair's gap and bound are bit for bit those of the pair alone.
    At density rho, |g - f|_1 <= |g|_1 + |f|_1 = 2 rho, and class j loses
    rho f_j times the density it meets (at most rho) to the others, so
    |f'|_1 <= 2 rho^3: no gap exceeds 2 rho + 4 rho^3 <= 6.

    Args:
        F0, G0: batches of the same shape under the state rule
            (lattice._check_states), each pair of equal density (within 1e-12).
        tau: comparison time, refused by IntegrationConfig as a horizon;
            the pairs are stepped from IntegrationConfig's default dt.

    Returns:
        (gaps, bounds), one value per pair.
    """
    F0, G0 = _check_states(F0, 2), _check_states(G0, 2)
    if F0.shape != G0.shape:
        raise ValueError(f"pairs need batches of one shape, got {F0.shape} and {G0.shape}")
    rows = _continuity_rows(F0, G0)
    # no steady exit, so every row reaches tau
    config = IntegrationConfig(t_final=tau, steady_tol=0.0)
    F, _, _, _, D, _ = _integrate_batch(rows, config.dt, config.t_final, config.steady_tol)
    return _continuity_bounds(F0, G0, F, D, config.t_final)


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


def _continuity_bounds(F0, G0, F, D, tau):
    """Each pair's gap at the time tau, at most 2 rho + 4 rho^3, and its float bound.

    F and D are the states at tau and their derivatives, of the rows of
    _continuity_rows in its order.  The bound 4 exp(3 tau) |g0 - f0|_1 is
    inf where the float overflows and 0 for identical starts.
    """
    f, g = slice(len(F0)), slice(len(F0), None)
    gap = np.abs(F[g] - F[f]).sum(axis=1) + np.abs(D[g] - D[f]).sum(axis=1)
    dist = np.abs(G0 - F0).sum(axis=1)
    # 4 exp(709) is past the largest float, and math.exp raises past 709.78
    grow = 4.0 * math.exp(min(3.0 * tau, 709.0))
    with np.errstate(over="ignore"):
        bound = np.multiply(grow, dist, out=np.zeros_like(dist), where=dist > 0.0)
    return gap, bound


def random_state(n: int, rho: float, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Uniformly random population split at density rho, as a state vector.

    Breaks the stick [0, rho] at n-1 sorted uniform cuts, so the vector of
    pieces is uniform on the scaled simplex; the first row of
    random_state_batch(n, rho, 1, seed).
    """
    return random_state_batch(n, rho, 1, seed)[0]


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
