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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelParams",
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


def _check_states(F: np.ndarray) -> None:
    """KineticState's rule and _check_n, on one state or on every row of a batch."""
    _check_n(F.shape[-1] if F.ndim else F.size)
    if not np.all(np.isfinite(F)):
        raise ValueError("state contains non-finite values")
    if F.min(initial=0.0) < -_CLAMP_TOL:
        raise ValueError(f"negative class population {F.min()!r}")
    s = float(F.sum(axis=-1).max(initial=0.0))
    if s > 1.0 + 1e-9:
        raise ValueError(f"total density {s} exceeds 1")


@dataclass(frozen=True)
class ModelParams:
    """Model-wide constants, the same for every number of speed classes.

    Attributes:
        rho_max: physical jam density in vehicles/km, used only when
            rescaling dimensionless results to physical units.
        v_max: physical maximum speed in km/h, same role as rho_max.
        eta0: interaction-rate constant; interactions fire at eta0 * rho,
            so eta0 only sets the clock (dynamics module docstring).
    """

    rho_max: float = 200.0
    v_max: float = 100.0
    eta0: float = 1.0

    def __post_init__(self):
        for name in ("rho_max", "v_max", "eta0"):
            value = getattr(self, name)
            # also false for nan
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SpeedLattice:
    """Uniform grid of dimensionless speeds on [0, 1].

    Attributes:
        n: number of classes.
        speeds: array of length n with speeds[j-1] = (j-1)/(n-1).
    """

    n: int
    speeds: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.speeds.setflags(write=False)


@dataclass(frozen=True)
class GameTable:
    """Dense transition-probability table at a fixed density.

    A[h-1, k-1, j-1] is the probability that a candidate of class h ends
    in class j after meeting a field vehicle of class k.  The dense cube
    is convenient for inspection and cross-checks; the time stepper never
    materializes it.
    """

    n: int
    rho: float
    A: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.A.setflags(write=False)


def build_lattice(n: int) -> SpeedLattice:
    """Build the uniform speed lattice with n classes.

    Args:
        n: number of speed classes, at least 2.

    Returns:
        SpeedLattice with speeds 0, 1/(n-1), ..., 1.
    """
    _check_n(n)
    speeds = np.arange(n, dtype=float) / (n - 1)
    return SpeedLattice(n=int(n), speeds=speeds)


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
    return GameTable(n=int(n), rho=rho, A=A)
