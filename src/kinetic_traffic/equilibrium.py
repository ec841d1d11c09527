"""Steady states of the interaction dynamics and their stability.

Setting the time derivative to zero decouples into one scalar quadratic
per class, solvable from the bottom class upward.  The stationary share
of stopped vehicles is 0 below the critical density 1/2 and 2*rho - 1
above it; each intermediate class solves

    -rho f_j^2 + B f_j + C = 0,
    B = (1 - 3 rho) * (f_1 + ... + f_{j-1}) + rho (2 rho - 1),
    C = (1 - rho) * f_{j-1} * (rho - (f_1 + ... + f_{j-2})),

whose larger root is the attracting one, and the top class takes the
remaining mass.  The recursion runs level by level over the congested
rows of a vector of densities at once (_closed_form), and a single
density runs the same levels in Python floats (_one_density); a density
gets the same bits either way.  Enumerating both roots at every level
instead gives every stationary point, which is how the brute-force
cross-check works.

A zero class is absorbing.  With f_{j-1} = 0 the constant term C
vanishes and the root is max(0, B / rho), which is 0 because B <= 0 for
any density in [0, 1]: in the congested phase the head holds at least
f_1 = 2 rho - 1, which exceeds rho (2 rho - 1) / (3 rho - 1), so B < 0;
in the free phase the head is all zero and B = rho (2 rho - 1) <= 0.
So once a class is zero, every class above it up to the top one is
zero too.  At n = 200 the non-zero classes below the top end by class
28 on the 2001-point grid and by class 32 just above 1/2, so at least
167 of the 198 levels give zero.  In floating point a free row's levels
are +0.0 as well: its head is all +0.0, so S = +0.0, C = +-0 and
B = fl(+-0 + b_const) <= 0, and the root is +0.0 (where B / rho is NaN,
at rho = 0, too).  So only the congested rows, rho > 1/2, run the loop,
and a free row keeps its +0.0 classes and takes rho - 0 as its top class.

The loop stops at a class that is +0.0 in every row when one sign bound
shows, row by row, that every level above gives +0.0 in floating point
too.  Let S be the head's sum and S_lo = S (1 - 4 n u), u = 2^-53.  A
computed sum of k <= n non-negative terms is within gamma_k = k u /
(1 - k u) of the exact sum, in any order, and appended zeros keep the
exact sum, so every later prefix sum S' is at least S (1 - gamma_n) /
(1 + gamma_n) = S (1 - 2 n u) >= S_lo (sums below 2^-1021 are exact).
Rounding is monotone, and b_slope = 1 - 3 rho < -1/2 on every row in
the loop, so every later B = fl(fl(b_slope S') + b_const) is at most the
checked fl(fl(b_slope S_lo) + b_const).  Above a +0.0 class C is +-0,
so the root is +0.0 exactly when B <= 0, and C passes the consistency
check.  So the loop stops once every row has b_slope S_lo + b_const <= 0,
and otherwise runs one more level; either way F is the plain loop's bit
for bit.

A single density is no batch of one.  _one_density runs no level at a
free density, and at a congested one runs the loop's levels in Python
floats: every operation of the level, the exit and the consistency
checks in the batch's order, on the same IEEE doubles, so each rounds
alike (math.sqrt is correctly rounded, as np.sqrt is).  Only the head
sums stay numpy's: each is np.add.reduce over the row's first k - 1
classes, the pairwise sum the batch takes of each of its rows, where a
running Python sum can give other bits from 8 terms on.  No root is -0.0,
so its test for a +0.0 class is == 0.0.  At n = 200 a congested density
takes 35-56 us where a batch of one took 156-353 us (best of 7 x 300
calls, 2-CPU x86-64 host).

The one-density record keeps B, C and delta of every level, the ones
past the exit included, so it takes the n - 2 prefix sums of its row
again, and they must carry the loop's bits; _coefficients then gives the
three without the root choice.  numpy's sum of a float
array starts from +0.0 and adds all its elements with its pairwise sum,
whose blocking decides the last bits.  So a cumsum gives other bits, and
so does a reduceat over the row itself, which starts each segment from
its first element and pairwise-adds only the rest.  A reduceat segment
[0.0, a[:L]] starts from +0.0 and pairwise-adds all of a[:L], as .sum
does, so one reduceat over [0.0, a] whose segments all start at index 0
(_prefix_sums) gives every level's sum bit for bit, with O(n) extra
memory.  This rests on numpy's reduction order, so a test pins it
against the per-level sums on the installed numpy.

Linearization uses the cumulative coordinates P_j = f_1 + ... + f_j,
with P_0 = 0 and P_n = rho, and the model time tau = eta0 t: eta0 only
sets the clock (dynamics module docstring), so nothing here takes it,
and rates in the time t are eta0 times these.  The dynamics read

    dP_j/dtau = rho [rho P_j (rho - P_j) - (1 - rho) f_j (rho - P_{j-1})],

with f_j = P_j - P_{j-1}, for j = 1 .. n-1, and dP_n/dtau = 0.  At fixed
density P_j responds only to P_{j-1} and P_j, so the Jacobian restricted
to the zero-sum hyperplane is lower bidiagonal in these coordinates and
its eigenvalues are the diagonal entries

    lambda_j = rho [rho (rho - 2 P_j) - (1 - rho) (rho - P_{j-1})],

exactly, at any state.  The full spectrum adds the conserved-mass mode 0.
jacobian and stability_report take lambda_j from _pass._rates over one
cumsum of their state, the one function that also gives the
integrator's step bound from the vector field's running sums.

Each rate is the slope of its level's stationarity function.  Let

    g(P_j) = rho P_j (rho - P_j) - (1 - rho) (P_j - P_{j-1}) (rho - P_{j-1}),

the bracket of dP_j/dtau with P_{j-1} held fixed, so dP_j/dtau = rho g.
Then lambda_j = rho g'(P_j), at any state: P_j enters dP_j/dtau only
through g, and g'(P_j) = rho (rho - P_j) - rho P_j - (1 - rho) (rho -
P_{j-1}) = rho (rho - 2 P_j) - (1 - rho) (rho - P_{j-1}).  With
S = P_{j-1} and f = P_j - S, g is the level quadratic -rho f^2 + B f +
rho S (rho - S), and rho S (rho - S) is C once the head is stationary
(g of level j - 1 vanishes there).  For rho > 0, g is concave, g'' =
-2 rho, so with roots r_- <= r_+ it is g = -rho (P_j - r_-) (P_j - r_+),
and

    g'(r_+) = -rho (r_+ - r_-) <= 0 <= rho (r_+ - r_-) = g'(r_-),

equal only at a double root.  The stopped class is level 1, whose roots
are 0 and 2 rho - 1.  So the state of larger roots at every level, the
closed form, has lambda_j <= 0 for every j, zero only at a double root,
while a stationary state that takes a smaller simple root at some level
has a growing mode there.  Which stationary state attracts is not read
from verdicts, though: the monotone brackets of the dynamics module name
it as face 0 below, the one with the fewest leading zero classes.

The level quadratic alone stays in f coordinates.  Solved for P_j from
P_{j-1}, it would return f_j as the difference P_j - P_{j-1}, which
cancels when the classes are small: the residual at n = 200 grows from
about 4e-16 to 4e-14 and about a quarter of the printed fluxes change.

The brute-force enumeration (_bruteforce_levels) keeps exactly n
branches above 1/2 and one at or below it, so it runs at every n.
Level 1 keeps the zero head, every class +0.0, and f_1 = 2 rho - 1
where that is positive.  A head has two children only if both roots
survive: the smaller at least -1e-12 and not clamping to the larger's
value, and for a head with S > 0 the two more than 1e-14 apart.  With
C = 0 the roots are 0 and B / rho; with C > 0 they multiply to
-C / rho < 0, so the smaller must lie in the clamp window [-1e-12, 0).
Every head keeps its larger root, never negative, and only the zero
head branches, so level j ends with j + 1 heads above 1/2 and one at or
below it, and the top class, one per head, gives the count:

- The zero head has S = last = 0, so C = 0 and B is rho (2 rho - 1)
  exactly as _density_terms forms it.  At or below 1/2, B <= 0, and
  the roots B / rho and 0 clamp to one value.  Above 1/2, 2 rho - 1 is
  exact and at least 2^-52, so B / rho > 0 and the zero head branches
  into itself and the head ending in B / rho, however close to 0: its B
  is no rounding noise of a sum, so the 1e-14 merge skips it.
- Any other head holds a positive class, and rho > 1/2.  Its first
  positive class x is 2 rho - 1 or the zero head's B / rho, so
  x = (2 rho - 1)(1 + t) with |t| < 3u, and x >= 2^-53.  With
  b_slope = 1 - 3 rho < 0 and S >= x, the computed

      B = -(2 rho - 1)^2 - (3 rho - 1)(S - x) + e,   |e| < 2e-15,

  so B / rho < 1e-14, and at a level with C = 0 the roots 0 and B / rho
  merge or clamp to one.  With C > 0 and B <= -2e-12 the smaller root
  is at most B / rho < -1e-12.  Otherwise (2 rho - 1)^2 and (S - x) / 2
  are below 2.01e-12, so 1 - rho > 0.49.  The level right after x has
  S = last = x and C = (1 - rho) x rho, and both roots
  (B +- sqrt(B^2 + 4 rho C)) / (2 rho) are at least
  sqrt(C / rho) - |B| / (2 rho) > 7e-9 in size.  A class after x, over
  7e-9, would break the bound on S - x, so the head ends at x, and its
  smaller root lies below -7e-9.

No head is pruned: each is a prefix of a face below, whose exact sums
P_j stay at most rho, as rho P_j (rho - P_j) = (1 - rho) f_j (rho -
P_{j-1}) >= 0 level by level.  The roots do not cancel (the smaller is
-C / (rho r_+)), so each is within a few u of these, relatively.
Measured over n = 2 .. 40, 60, 100 and 200 and 282 densities, the bands
above and their ends included: the exact count, no head pruned, and the
smaller root of a non-zero head with C > 0 nearest the window is
-1.05e-8, at rho = 1/2 + 2^-53.

The stationary set is the n shifted closed forms: face j, j = 0 .. n-1,
is j zeros, then equilibrium_recursive(n - j, rho).f_inf, or rho alone
at j = n - 1.  In exact arithmetic with 0 < rho <= 1: while the head is
all zero, C = 0 and B = rho (2 rho - 1), so the level's roots are 0 and
2 rho - 1.  Let j count a stationary state's leading zeros.  If
j < n - 1, class j + 1 is 2 rho - 1 > 0, so rho > 1/2, and every later
level has one non-negative root, its larger: with C > 0 the roots
multiply to -C / rho < 0, and with C = 0 they are 0 and B / rho, where
S >= 2 rho - 1 and 1 - 3 rho < 0 give B <= -(2 rho - 1)^2 < 0.  The
zeros add nothing to S and no level reads n, so the classes from j + 1
on are the (n - j)-class closed form: face j.  For rho <= 1/2 the n
faces are one state, all mass in the top class.  On face j,
P_i = P_{i-1} = 0 for i <= j gives lambda_i = rho^2 (2 rho - 1), and for
i > j lambda_i is the (n - j)-class form's rate i - j, <= 0 by the
slope argument above (level 1's larger root 2 rho - 1 has rate
rho^2 (1 - 2 rho)).  So above 1/2 face j has exactly j growing modes,
all at the logistic's rate, and face 0 alone has none.  In floating
point the leading +0.0 classes leave every prefix sum's bits, so the
j rates are one number.

The enumeration lists face n - 1 first and face 0 last, the zero head's
root 0 before B / rho.  Faces j and j + 1 differ by 2 rho - 1 in class
j + 1, so the 1e-10 duplicate rule, which keeps the first, merges faces
only where 2 rho - 1 <= 1e-10 (measured at n = 3, 6, 12 and 40 from
2e-14 to 8e-11, and at n = 2 .. 40, 60, 100 and 200 from 2^-52 to
5e-15: faces n - 1 and n - 2 alone), so n - 1 candidates come out
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._pass import _rates, _rhs_batch
from .errors import ConsistencyError
from .lattice import _check_n, _check_rho, _check_states

__all__ = [
    "STABLE",
    "UNSTABLE",
    "MARGINAL",
    "PHASE_FREE",
    "PHASE_CONGESTED",
    "CRITICAL_DENSITY",
    "EquilibriumResult",
    "EquilibriumCandidate",
    "StabilityReport",
    "equilibrium_recursive",
    "equilibrium_bruteforce",
    "jacobian",
    "stability_report",
]

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

PHASE_FREE = "free"
PHASE_CONGESTED = "congested"

CRITICAL_DENSITY = 0.5

_TINY = 1e-12
# a rate lambda_j within _RATE_TOL rho^2 of zero counts as neither
# decaying nor growing (stability_report)
_RATE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Closed-form state at one density, with its level coefficients as rows.

    n, the number of classes, is the width of f_inf.  b, c and delta
    belong to the level quadratics of classes 2 .. n-1; on the empty road
    (rho = 0) no level is solved and the rows are empty.
    """

    rho: float
    f_inf: np.ndarray = field(repr=False)
    phase: str
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.f_inf, self.b, self.c, self.delta):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.f_inf.size


@dataclass(frozen=True, eq=False)
class EquilibriumCandidate:
    """One admissible stationary point found by enumeration."""

    f: np.ndarray = field(repr=False)
    residual: float
    verdict: str


@dataclass(frozen=True)
class StabilityReport:
    """Linearization summary at a stationary point.

    verdict reflects the model-time spectrum on the zero-sum hyperplane,
    real and exact (see stability_report), in descending order in
    hyperplane_real_parts; the full spectrum adds the mass mode's zero.
    """

    verdict: str
    hyperplane_real_parts: tuple[float, ...]
    degenerate_zero_density: bool = False
    nilpotent_hyperplane: bool = False


def _density_terms(rho):
    """The factors of the level quadratic that depend on the density only.

    rho is a vector of densities or one Python float, which gives floats.
    """
    return rho, 1.0 - 3.0 * rho, rho * (2.0 * rho - 1.0), 1.0 - rho, 4.0 * rho, 2.0 * rho


def _coefficients(S: np.ndarray, last: np.ndarray | float, terms: tuple):
    """B, C and delta of -rho f^2 + B f + C = 0 for the class above a head.

    S is the sum of the head, classes 1 .. j-1, and last its class j-1;
    terms comes from _density_terms and is broadcast against S, so S may
    hold one density per row or the levels of one density.  A C below 0
    by at most 1e-12 is taken as 0.
    """
    rho, b_slope, b_const, c_scale, four_rho, _ = terms
    B = b_slope * S + b_const
    C = c_scale * last * (rho - (S - last))
    if C.min() < -_TINY:
        raise _negative_constant(C.min())
    C = np.where(C < 0.0, 0.0, C)
    # with C >= 0 the discriminant is never negative
    return B, C, B * B + four_rho * C


def _level(S: np.ndarray, last: np.ndarray | float, terms: tuple[np.ndarray, ...]):
    """Larger root of the level quadratic (_coefficients) for the class above a head.

    Returns (root, B, C, delta) in the shape of S.  Every root case is
    evaluated everywhere, so call under np.errstate.
    """
    B, C, delta = _coefficients(S, last, terms)
    rho, two_rho = terms[0], terms[5]
    sq = np.sqrt(delta)
    flat = B / rho
    # the last case avoids cancellation between B and sqrt(delta)
    root = np.where(
        C == 0.0,
        np.where(flat > 0.0, flat, 0.0),
        np.where(B >= 0.0, (B + sq) / two_rho, 2.0 * C / (sq - B)),
    )
    return root, B, C, delta


# the messages of both paths; a Python float reads as the batch's numpy scalar
def _negative_constant(C) -> ConsistencyError:
    return ConsistencyError(
        f"negative constant term {np.float64(C)!r} in the level quadratic; "
        "the prefix is not a valid equilibrium head"
    )


def _negative_top(tail) -> ConsistencyError:
    return ConsistencyError(
        f"top class would need mass {np.float64(tail)!r}; recursion inconsistent"
    )


def _sum_floor(S: np.ndarray, n: int) -> np.ndarray:
    """S_lo of the module docstring: below any sum of S's terms with zeros, n in all."""
    return S * (1.0 - 4 * n * 2.0**-53)


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """a[:L].sum() for L = 1 .. a.size, bit for bit, from one np.add.reduceat.

    Each segment of [0.0, a] from index 0 to L + 1 is [0.0, a[:L]]; the
    starts 0, 2, 0, 3, .., 0 lay them over one array, and the single
    elements between them, where the start falls back to 0, are dropped.
    See the module docstring for why every segment has the bits of .sum.
    """
    starts = np.zeros(2 * a.size - 1, dtype=np.intp)
    starts[1::2] = np.arange(2, a.size + 1)
    return np.add.reduceat(np.concatenate(([0.0], a)), starts)[::2]


def _fill_levels(F: np.ndarray, j: int, terms: tuple[np.ndarray, ...]) -> None:
    """Classes j .. n-1 of F from its first j-1, up to the sign bound's exit.

    Every row's density is above 1/2 (module docstring).
    """
    n = F.shape[1]
    _, b_slope, b_const = terms[:3]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(j, n):
            S = F[:, : k - 1].sum(axis=1)
            # +0.0 is the one float whose bits are all zero
            if not np.count_nonzero(F[:, k - 2].view(np.int64)) and np.all(
                b_slope * _sum_floor(S, n) + b_const <= 0.0
            ):
                return
            F[:, k - 1] = _level(S, F[:, k - 2], terms)[0]


def _closed_form(n: int, rho: np.ndarray) -> np.ndarray:
    """Closed-form stationary states, one row per density of the vector rho.

    Returns F, (m, n): the stopped class by the phase rule, the level
    recursion up to class n-1 (_fill_levels) on the congested rows alone,
    gathered into one array, and the top class as the remainder.  A free
    row keeps +0.0 below its top class, all of its mass, and a row at
    rho = 0 comes out all zero.
    """
    F = np.zeros((rho.size, n))
    congested = rho > CRITICAL_DENSITY
    G = np.zeros((np.count_nonzero(congested), n))
    G[:, 0] = 2.0 * rho[congested] - 1.0
    _fill_levels(G, 2, _density_terms(rho[congested]))
    F[congested] = G
    tail = rho - F[:, : n - 1].sum(axis=1)
    if tail.min() < -_TINY:
        raise _negative_top(tail.min())
    F[:, n - 1] = np.where(tail > 0.0, tail, 0.0)
    return F


def _one_density(n: int, rho: float) -> np.ndarray:
    """_closed_form's row at one density, its levels in Python floats.

    A free density runs no level.  A congested one runs _fill_levels'
    levels with the same operations in the same order, the same exit and
    the same errors, and takes each head sum from numpy's own row sum,
    so the row has the batch's bits.
    """
    f = np.zeros(n)
    if rho > CRITICAL_DENSITY:
        _, b_slope, b_const, c_scale, four_rho, two_rho = _density_terms(rho)
        last = f[0] = 2.0 * rho - 1.0
        for k in range(2, n):
            S = float(np.add.reduce(f[: k - 1]))
            # no root is -0.0, so == 0.0 is the batch's +0.0 test
            if last == 0.0 and b_slope * _sum_floor(S, n) + b_const <= 0.0:
                break
            B = b_slope * S + b_const
            C = c_scale * last * (rho - (S - last))
            if C < -_TINY:
                raise _negative_constant(C)
            if C < 0.0:
                C = 0.0
            delta = B * B + four_rho * C
            if C == 0.0:
                flat = B / rho
                last = flat if flat > 0.0 else 0.0
            elif B >= 0.0:
                last = (B + math.sqrt(delta)) / two_rho
            else:
                last = 2.0 * C / (math.sqrt(delta) - B)
            f[k - 1] = last
    tail = rho - float(np.add.reduce(f[: n - 1]))
    if tail < -_TINY:
        raise _negative_top(tail)
    f[n - 1] = tail if tail > 0.0 else 0.0
    return f


def equilibrium_recursive(n: int, rho: float) -> EquilibriumResult:
    """Closed-form stationary state at density rho.

    Builds the vector class by class: the stopped class by the phase
    rule, intermediate classes from the larger quadratic root and the
    top class from mass conservation.  For rho <= 1/2 this collapses to
    all mass sitting in the top class.
    """
    _check_n(n)
    _check_rho(rho)
    n = int(n)
    rho = float(rho)
    f = _one_density(n, rho)
    B = C = delta = np.empty(0)
    if rho > 0.0 and n > 2:
        # the loop's prefix sums, bit for bit, so the coefficients carry its bits
        S = _prefix_sums(f[: n - 2])
        B, C, delta = _coefficients(S, f[: n - 2], _density_terms(rho))
    phase = PHASE_FREE if rho <= CRITICAL_DENSITY else PHASE_CONGESTED
    return EquilibriumResult(rho=rho, f_inf=f, phase=phase, b=B, c=C, delta=delta)


def jacobian(f: np.ndarray) -> np.ndarray:
    """Derivative matrix of the interaction dynamics, in model time, at state f.

    The density is treated as a function of the state, so the derivative
    includes the response of the encounter rate and of the game table to
    mass moving between classes.  Mass conservation makes every column
    sum to zero up to roundoff.  Built in O(n^2) from the cumulative
    form: with L the lower-triangular matrix of ones (P = L f), J is
    L^-1 J_P L, where J_P is bidiagonal plus the density column.

    Args:
        f: state vector under the state rule (lattice._check_states); its
            sum is the density.

    Returns:
        n x n matrix J with J[j, i] = d (df_j/dtau) / d f_i.
    """
    # the partial derivatives of dP_j/dtau, j = 1 .. n-1, by P_j (the
    # hyperplane eigenvalues), by P_{j-1} (unused for j = 1, where P_0 = 0
    # is fixed) and by P_n, the response to the density itself
    f = _check_states(f, 1)
    C = np.zeros(f.size + 1)
    f.cumsum(out=C[1:])
    rho, P, P_prev, fj, n = float(C[-1]), C[1:-1], C[:-2], f[:-1], f.size
    lam = _rates(rho, P, rho - P_prev, 1.0 - rho)
    sub = rho * (1.0 - rho) * (rho + P - 2.0 * P_prev)
    d_rho = (
        rho * P * (3.0 * rho - 2.0 * P)
        - (1.0 - 2.0 * rho) * fj * (rho - P_prev)
        - rho * (1.0 - rho) * fj
    )
    # row j of J_P L: entry i sums J_P[j, k] over k >= i
    JL = np.zeros((n, n))
    JL[:-1] = (
        d_rho[:, None]
        + lam[:, None] * np.tri(n - 1, n)
        + sub[:, None] * np.tri(n - 1, n, k=-1)
    )
    return np.diff(JL, axis=0, prepend=0.0)


def stability_report(f: np.ndarray) -> StabilityReport:
    """Classify a state by its linearization, in O(n).

    The spectrum on the zero-sum hyperplane, the directions that keep the
    density fixed, is exactly the model-time rates lambda_j, j = 1 .. n-1,
    read off the cumulative form (module docstring); the full spectrum
    adds the mass mode 0.  No eigenvalue solver runs, so the defective
    free-phase eigenvalue rho^2 (2 rho - 1) of multiplicity n-1 is not
    scattered.

    Stable means every lambda_j is below -1e-9 rho^2, unstable means
    some lambda_j exceeds +1e-9 rho^2, marginal covers the rest.  Every
    lambda_j carries the factor rho^2, so the tolerance follows the
    rates' own scale.  At the critical density every lambda_j is exactly
    zero while the bidiagonal is not, so the restricted Jacobian is
    nilpotent; that is flagged and marginal.  An all-zero state has a
    frozen linearization (the encounter rate vanishes), which is flagged
    instead of classified.  f must pass the state rule
    (lattice._check_states) as a vector: a batch is refused, not read as
    one wider state.
    """
    f = _check_states(f, 1)
    C = np.zeros(f.size + 1)
    f.cumsum(out=C[1:])
    s = float(C[-1])
    hyper = np.sort(_rates(s, C[1:-1], s - C[:-2], 1.0 - s))[::-1]
    degenerate = s <= _TINY
    nilpotent = not degenerate and not hyper.any()
    tol = _RATE_TOL * s * s
    if degenerate:
        verdict = MARGINAL
    elif np.all(hyper < -tol):
        verdict = STABLE
    elif np.any(hyper > tol):
        verdict = UNSTABLE
    else:
        verdict = MARGINAL
    return StabilityReport(
        verdict=verdict,
        hyperplane_real_parts=tuple(hyper.tolist()),
        degenerate_zero_density=degenerate,
        nilpotent_hyperplane=nilpotent,
    )


def _bruteforce_levels(n: int, rho: float):
    """Every real root combination, one vector per row.

    Each level's heads are the C-contiguous rows of one array, so one
    _level call serves them all and each row sum has the bits of the
    head's own .sum(); a head's children follow it in order, smaller root
    first.
    """
    # the zero head, and the closed form's stopped class where it is positive
    hi = 2.0 * rho - 1.0
    heads = np.array([[0.0], [hi]]) if hi > 0.0 else np.zeros((1, 1))
    terms = _density_terms(np.array([rho]))

    def pos(x):  # max(x, 0.0), as Python takes it
        return np.where(0.0 > x, 0.0, x)

    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2, n):
            S, last = heads.sum(axis=1), heads[:, -1]
            # drop the heads above rho; every class is at least 0, so the
            # rest have C >= -(1 - rho) last 1e-12, which _level accepts,
            # and the zero head is always among them
            live = ~(S > rho + _TINY)
            heads, S, last = heads[live], S[live], last[live]
            r_plus, B, C, _ = _level(S, last, terms)
            # the roots multiply to -C / rho
            r_minus = np.where(C == 0.0, np.minimum(B / rho, 0.0), -C / (rho * r_plus))
            # roots within 1e-14 are one, as a B of rounding noise gives
            # them, but only a sum carries that noise: the zero head's B is
            # rho (2 rho - 1) itself
            double = (S > 0.0) & (np.abs(r_plus - r_minus) <= 1e-14)
            # both roots clamp to one class value, which keeps one branch:
            # at or below 1/2 the zero head's roots are B / rho <= 0 and 0
            single = double | (pos(r_minus) == pos(r_plus))
            vals = np.stack([r_minus, r_plus], axis=1)
            take = ~(vals < -_TINY)
            take[:, 0] &= ~single
            rows, cols = take.nonzero()
            heads = np.concatenate([heads[rows], pos(vals[rows, cols])[:, None]], axis=1)
    tail = rho - heads.sum(axis=1)
    keep = ~(tail < -_TINY)
    return np.concatenate([heads[keep], pos(tail[keep])[:, None]], axis=1)


def equilibrium_bruteforce(n: int, rho: float) -> list[EquilibriumCandidate]:
    """Every admissible stationary point, found by exhausting root choices.

    Enumerates both branches of the stopped class and both roots of every
    level quadratic, keeps the nonnegative vectors whose derivative
    vanishes (1-norm below 1e-10), and attaches a stability verdict to
    each.  Independent of the closed-form recursion, which should appear
    in the output as the attractor (_attractor).

    Args:
        n: number of classes, at least 2; the enumeration keeps n
            branches above 1/2 and one at or below it (module docstring).
        rho: density in (0, 1].
    """
    _check_n(n)
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"density {rho} outside (0, 1]")
    candidates = []
    # the kept vectors as rows, so a new vector meets them all in one call
    kept = np.empty((0, int(n)))
    for vec in _bruteforce_levels(int(n), float(rho)):
        residual = float(np.abs(_rhs_batch(vec[None, :])).sum())
        # the first of vectors within 1e-10 stays
        if residual > 1e-10 or (np.abs(vec - kept).max(axis=1) <= 1e-10).any():
            continue
        candidates.append(EquilibriumCandidate(vec, residual, stability_report(vec).verdict))
        kept = np.vstack((kept, vec))
    return candidates


def _attractor(candidates: list[EquilibriumCandidate]) -> EquilibriumCandidate:
    """The candidate with the fewest leading zero classes: face 0, the attractor.

    The dynamics module docstring proves that every start with f_1 > 0
    relaxes to face 0, and face j >= 1 lies on the invariant face
    P_j = 0.  The rule reads no verdict, so it also holds where every
    face reads marginal; where the duplicate rule keeps face 1's bits for
    face 0 (n = 2 just above 1/2), it names that survivor.
    """
    return min(candidates, key=lambda c: int(np.argmax(c.f != 0.0)))
