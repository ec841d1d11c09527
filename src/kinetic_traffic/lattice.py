"""Speed lattice and interaction rules of the discrete kinetic traffic model.

Vehicles are sorted into n speed classes with dimensionless speeds

    v_j = (j - 1) / (n - 1),        j = 1, ..., n,

so class 1 stands still and class n travels at the maximum speed.  When two
vehicles interact, the candidate (travelling at v_h) meets a field vehicle
(travelling at v_k) and jumps to a new class j with a probability that
depends on the normalized macroscopic density rho:

* slower or equal candidate (h <= k, h != n): it stays in class h with
  probability rho and accelerates one class with probability 1 - rho;
* top-speed candidate meeting top speed (h = k = n): nothing can change;
* faster candidate (h > k): it is forced down to the field vehicle's class
  with probability rho and keeps its own speed with probability 1 - rho.

These transition probabilities form the game table A[h][k][j].  Each (h, k)
row is an exact probability distribution over j with at most two nonzero
entries.  Interactions fire at rate eta(rho) = eta0 * rho, vanishing in an
empty road.

Everything here is dimensionless, and a record's class count n is its
array's width; diagrams.RHO_MAX and V_MAX relabel results in physical units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpeedLattice",
    "GameTable",
    "build_lattice",
    "build_game_table",
]


def _check_n(n) -> None:
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"need at least two speed classes, got n={n}")


def _check_rho(rho) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"density {rho} outside [0, 1]")


_CLAMP_TOL = 1e-12  # a class may dip below zero by this much (the clamp window)

# what a state must be, by its number of axes: one vector, or a batch of rows
_STATE_SHAPES = {
    1: "state must be a vector of class densities",
    2: "batch must be a 2-D array of row states",
}


def _check_states(F, ndim: int) -> np.ndarray:
    """The state rule: F as a float array of ndim axes (one vector or rows of states).

    Every state has at least two classes (_check_n), finite entries, none
    below the clamp window, and a density of at most 1 (to 1e-9).  Each way
    to fail has one message.  Returns F as a float array, not a copy where
    it already is one; no entry point writes to it.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != ndim:
        raise ValueError(_STATE_SHAPES[ndim])
    _check_n(F.shape[-1])
    if not np.all(np.isfinite(F)):
        raise ValueError("state contains non-finite values")
    low = float(F.min(initial=0.0))
    if low < -_CLAMP_TOL:
        raise ValueError(f"negative class population {low!r}")
    s = float(F.sum(axis=-1).max(initial=0.0))
    if s > 1.0 + 1e-9:
        raise ValueError(f"total density {s} exceeds 1")
    return F


@dataclass(frozen=True, eq=False)
class SpeedLattice:
    """Uniform grid of dimensionless speeds on [0, 1].

    Attributes:
        speeds: array of length n with speeds[j-1] = (j-1)/(n-1); n,
            the number of classes, is its width.
    """

    speeds: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.speeds.setflags(write=False)

    @property
    def n(self) -> int:
        return self.speeds.size


@dataclass(frozen=True, eq=False)
class GameTable:
    """Dense transition-probability table at a fixed density.

    A[h-1, k-1, j-1] is the probability that a candidate of class h ends
    in class j after meeting a field vehicle of class k; n, the number of
    classes, is the cube's width.  The dense cube is convenient for
    inspection and cross-checks; the time stepper never materializes it.
    """

    rho: float
    A: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.A.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def build_lattice(n: int) -> SpeedLattice:
    """Build the uniform speed lattice with n classes.

    Args:
        n: number of speed classes, at least 2.

    Returns:
        SpeedLattice with speeds 0, 1/(n-1), ..., 1.
    """
    _check_n(n)
    speeds = np.arange(n, dtype=float) / (n - 1)
    return SpeedLattice(speeds=speeds)


def build_game_table(n: int, rho: float) -> GameTable:
    """Assemble the dense game table at density rho.

    Args:
        n: number of speed classes, at least 2.
        rho: normalized density in [0, 1].

    Returns:
        GameTable whose (h, k) rows sum to one exactly; the entries are
        rho and 1 - rho placed according to the interaction rules, so no
        floating-point slack is needed.
    """
    _check_n(n)
    _check_rho(rho)
    rho = float(rho)
    stay = rho
    move = 1.0 - rho
    A = np.zeros((n, n, n))
    for h in range(1, n + 1):
        for k in range(1, n + 1):
            if h <= k:
                if h == n:
                    # both at top speed: nothing to negotiate
                    A[h - 1, k - 1, n - 1] = 1.0
                else:
                    A[h - 1, k - 1, h - 1] = stay
                    A[h - 1, k - 1, h] = move
            else:
                A[h - 1, k - 1, k - 1] = stay
                A[h - 1, k - 1, h - 1] = move
    return GameTable(rho=rho, A=A)
