"""The arithmetic of one pass of the dynamics module's stepping loop.

The cumulative stencil of the vector field (_rhs_batch), the rates
lambda_j (_rates, which the equilibrium module's Jacobian and stability
report also call), the step bound from the stencil's sums (_stable_step)
and the weighted stage sums (_combine), each written one operation at a
time into class-major buffers that the loop builds once per batch shape
(_stencil, _Workspace); the dynamics module describes the method and the
loop, all in model time with no eta0 (the dynamics module's one clock).
Every elementwise call of a pass takes operands of its output's shape
and layout: the density, the stage weights and the step are spread over
full class-major blocks, since at these sizes numpy's per-call cost
for a broadcast (m, 1) column is about twice that of a same-shape
operand.  A constant operand is a 0-d float64 array, never a Python
float, which costs about half as much again per call.  A hot ufunc is
called by its module-level name below with its output by position,
which numpy parses faster than out=; np.maximum and np.minimum keep
out=, since numpy 2.4 deprecates a third positional argument there.
The module stands alone, importing only numpy, because the dynamics
module's loop and the equilibrium module both read it, and neither of
those imports the other.
"""

from __future__ import annotations

import numpy as np

# a step may not exceed _STAB / max_j |lambda_j|, with lambda_j the exact
# eigenvalues of the linearization: inside the pair's real stability
# interval (-3.31, 0), so the fastest mode is damped (by 0.57 per step at
# worst) instead of sitting undamped at the edge, where the error control
# alone parks it at a distance from steady state set by the tolerance
_STAB = np.array(3.0)

# the hot ufuncs of a pass, here and in the dynamics module's loop
_add, _subtract, _multiply, _divide = np.add, np.subtract, np.multiply, np.divide
_absolute, _square, _sqrt, _power = np.absolute, np.square, np.sqrt, np.power
_less, _less_equal = np.less, np.less_equal


def _stencil(m, n):
    """_rhs_batch's class-major buffers for m rows of n classes, and the views it reads.

    The running sums C (C[:, j] = P_j), R[:, j-1] = rho - P_{j-1}, the
    zero-bordered dP, each row's density in every column, a block of
    ones, and three (m, n-1) temporaries, the last for 1 - rho.
    """
    C, dP = np.zeros((2, n + 1, m)).transpose(0, 2, 1)
    R, rho_n = np.empty((2, n, m)).transpose(0, 2, 1)
    t, u, omr = np.empty((3, n - 1, m)).transpose(0, 2, 1)
    # first what _stable_step reads; C itself last
    return (
        rho_n[:, :-1], C[:, 1:-1], R[:, :-1], t, u, omr, np.ones((n - 1, m)).T,
        rho_n, C[:, -1:], C[:, 1:], C[:, :-1], R, R[:, 1:], dP[:, 1:-1], dP[:, 1:], dP[:, :-1], C,
    )


def _rhs_batch(F: np.ndarray, *, out=None, sums=None) -> np.ndarray:
    """Interaction gain minus loss in model time, df/dtau, for each row of F, shape (m, n).

    Evaluates the cumulative stencil dP_j/dtau for j = 1 .. n-1 and
    differences it with dP_0/dtau = dP_n/dtau = 0, one operation at a time
    into the buffers sums of _stencil (new ones if not given), and the
    result into out (a new class-major array if not given).  The density
    is copied from the running sums' last column across its row once.
    """
    rho, P, R0, t, u, omr, one, rho_n, last, C1, C0, R, R1, dP, hi, lo, _ = (
        sums or _stencil(*F.shape)
    )
    _add.accumulate(F, 1, None, C1)
    rho_n[...] = last
    _subtract(rho_n, C0, R)
    _multiply(rho, P, t)
    _multiply(t, R1, t)
    _subtract(one, rho, omr)
    _multiply(omr, F[:, :-1], u)
    _multiply(u, R0, u)
    _subtract(t, u, t)
    _multiply(rho, t, dP)
    return _subtract(hi, lo, out)


def _rates(rho, P, R0, omr, out=None, tmp=None):
    """lambda_j = rho [rho (rho - 2 P_j) - omr R0], in model time (equilibrium module docstring).

    omr = 1 - rho and R0 = rho - P_{j-1}; one operation at a time into
    out and tmp (new arrays if not given); P_j + P_j is 2 P_j exactly.
    """
    t = _add(P, P, out)
    _subtract(rho, t, t)
    _multiply(rho, t, t)
    u = _multiply(omr, R0, tmp)
    _subtract(t, u, t)
    return _multiply(rho, t, t)


def _stable_step(sums):
    """Per-row step bound _STAB / max_j |lambda_j| in tau from the sums of _rhs_batch's last call.

    _rates in the call's temporaries; the mass mode is 0.
    """
    rho, P, R0, t, u, omr = sums[:6]
    return _STAB / np.maximum.reduce(_absolute(_rates(rho, P, R0, omr, t, u), t), 1)


def _combine(w, K, prod=None, out=None):
    """Weighted sum of the k stages K, shape (k, m, n), by the k weights w.

    w is a (k, 1, 1) column or spread to (k, m, n); a pass hands the
    workspace's prefix K[:k] of its stage stack.  One product and one
    reduce along the stage axis, which adds in stage order from +0.0;
    prod and out, if given, receive the products and the sum.  For
    finite stages this is bit for bit sum(w * k for w, k in zip(row, K)
    if w): a sum that starts from +0.0 is never -0.0, since x + y is
    -0.0 only when both are, and adding the +-0.0 of a zero weight to
    anything but -0.0 leaves its bits.
    """
    # reduce's arguments by position: axis, dtype, out, keepdims, initial
    return _add.reduce(_multiply(w, K, prod), 0, None, out, False, 0.0)


class _Workspace:
    """The class-major buffers of a pass over m rows of n classes, and their views.

    K is the stage stack, shape (7, m, n), with k1 = K[0]; stages[i]
    = K[i], and prefixes[k - 1] = K[:k] and prods[k - 1] the stages and
    products of a sum over k stages; weights[i] the (k, 1, 1) column
    weights[i] of the caller spread to (k, m, n); step the step of each
    row in every column; acc a sum; scale and absY the error weights;
    sq, row-major, the squared error and the steady test's |k1|.
    """

    def __init__(self, m, n, weights):
        self.K, prod = np.empty((2, 7, n, m)).transpose(0, 1, 3, 2)
        self.stages = tuple(self.K)
        self.k1 = self.stages[0]
        self.prefixes = tuple(self.K[:k] for k in range(1, 8))
        self.prods = tuple(prod[:k] for k in range(1, 8))
        self.weights = tuple(np.empty((len(w), n, m)).transpose(0, 2, 1) for w in weights)
        for wide, w in zip(self.weights, weights):
            wide[...] = w
        self.step, self.acc, self.scale, self.absY = np.empty((4, n, m)).transpose(0, 2, 1)
        self.sq = np.empty((m, n))
        self.sums = _stencil(m, n)
