"""The arithmetic of one pass of the dynamics module's stepping loop.

The cumulative stencil of the vector field (_rhs_batch), the rates
lambda_j (_rates, which the equilibrium module's Jacobian and stability
report also call), the step bound from the stencil's sums (_stable_step)
and the weighted stage sums (_combine), each written one operation at a
time into class-major buffers that the loop builds once per batch shape
(_stencil, _Workspace); the dynamics module describes the method and the
loop, all in model time with no eta0 (the dynamics module's one clock).
Its own file lowers no peak memory: without cached bytecode every module
is compiled, and the peak follows the source compiled in all (about
0.05 MB per 100 lines), not the size of the largest module.
"""

from __future__ import annotations

import numpy as np

# a step may not exceed _STAB / max_j |lambda_j|, with lambda_j the exact
# eigenvalues of the linearization: inside the pair's real stability
# interval (-3.31, 0), so the fastest mode is damped (by 0.57 per step at
# worst) instead of sitting undamped at the edge, where the error control
# alone parks it at a distance from steady state set by the tolerance
_STAB = 3.0


def _stencil(m, n):
    """_rhs_batch's class-major buffers for m rows of n classes, and the views it reads.

    The running sums C (C[:, j] = P_j), R[:, j-1] = rho - P_{j-1}, the
    zero-bordered dP, two (m, n-1) temporaries, and the column 1 - rho.
    """
    C, dP = np.zeros((2, n + 1, m)).transpose(0, 2, 1)
    R = np.empty((n, m)).T
    t, u = np.empty((2, n - 1, m)).transpose(0, 2, 1)
    omr = np.empty((m, 1))
    # first what _stable_step reads; C itself last
    return (
        C[:, -1:], C[:, 1:-1], R[:, :-1], t, u, omr,
        C[:, 1:], C[:, :-1], R, R[:, 1:], dP[:, 1:-1], dP[:, 1:], dP[:, :-1], C,
    )


def _rhs_batch(F: np.ndarray, *, out=None, sums=None) -> np.ndarray:
    """Interaction gain minus loss in model time, df/dtau, for each row of F, shape (m, n).

    Evaluates the cumulative stencil dP_j/dtau for j = 1 .. n-1 and
    differences it with dP_0/dtau = dP_n/dtau = 0, one operation at a time
    into the buffers sums of _stencil (new ones if not given), and the
    result into out (a new class-major array if not given).
    """
    rho, P, R0, t, u, omr, C1, C0, R, R1, dP, hi, lo, _ = sums or _stencil(*F.shape)
    np.add.accumulate(F, axis=1, out=C1)
    np.subtract(rho, C0, out=R)
    np.multiply(rho, P, out=t)
    np.multiply(t, R1, out=t)
    np.subtract(1.0, rho, out=omr)
    np.multiply(omr, F[:, :-1], out=u)
    np.multiply(u, R0, out=u)
    np.subtract(t, u, out=t)
    np.multiply(rho, t, out=dP)
    return np.subtract(hi, lo, out=out)


def _rates(rho, P, R0, omr, out=None, tmp=None):
    """lambda_j = rho [rho (rho - 2 P_j) - omr R0], in model time (equilibrium module docstring).

    omr = 1 - rho and R0 = rho - P_{j-1}; one operation at a time into
    out and tmp (new arrays if not given).
    """
    t = np.multiply(2.0, P, out=out)
    np.subtract(rho, t, out=t)
    np.multiply(rho, t, out=t)
    u = np.multiply(omr, R0, out=tmp)
    np.subtract(t, u, out=t)
    return np.multiply(rho, t, out=t)


def _stable_step(sums):
    """Per-row step bound _STAB / max_j |lambda_j| in tau from the sums of _rhs_batch's last call.

    _rates in the call's temporaries; the mass mode is 0.
    """
    rho, P, R0, t, u, omr = sums[:6]
    return _STAB / np.abs(_rates(rho, P, R0, omr, t, u), out=t).max(axis=1)


def _combine(w, K, prod=None, out=None):
    """Weighted sum of the first len(w) stages of K, shape (7, m, n), w a (k, 1, 1) column.

    One product and one reduce along the stage axis, which adds in stage
    order from +0.0; prod and out, if given, receive the products and the
    sum.  For finite stages this is bit for bit sum(w * k for w, k in
    zip(row, K) if w): a sum that starts from +0.0 is never -0.0, since
    x + y is -0.0 only when both are, and adding the +-0.0 of a zero
    weight to anything but -0.0 leaves its bits.
    """
    return np.add.reduce(np.multiply(w, K[: len(w)], out=prod), axis=0, initial=0.0, out=out)


class _Workspace:
    """The class-major buffers of a pass over m rows of n classes, and their views.

    K is the stage stack, shape (7, m, n), with k1 = K[0]; prods[k - 1]
    the products of a sum over k stages; acc a sum; scale and absY the
    error weights; sq, row-major, the squared error.
    """

    def __init__(self, m, n):
        self.K, prod = np.empty((2, 7, n, m)).transpose(0, 1, 3, 2)
        self.stages = tuple(self.K)
        self.k1 = self.stages[0]
        self.prods = tuple(prod[:k] for k in range(1, 8))
        self.acc, self.scale, self.absY = np.empty((3, n, m)).transpose(0, 2, 1)
        self.sq = np.empty((m, n))
        self.sums = _stencil(m, n)
