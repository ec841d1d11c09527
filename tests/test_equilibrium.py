"""Closed-form steady states, their Jacobian, and stability verdicts."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from kinetic_traffic import (
    MARGINAL,
    PHASE_CONGESTED,
    PHASE_FREE,
    STABLE,
    UNSTABLE,
    ConsistencyError,
    EquilibriumCandidate,
    build_game_table,
    build_grid,
    build_lattice,
    equilibrium_bruteforce,
    equilibrium_recursive,
    jacobian,
    observables,
    stability_report,
    sweep,
)
from kinetic_traffic._pass import _STAB, _rates, _stable_step, _stencil
from kinetic_traffic.dynamics import _rhs_batch
from kinetic_traffic.equilibrium import (
    _RATE_TOL,
    _TINY,
    _attractor,
    _bruteforce_levels,
    _closed_form,
    _density_terms,
    _fill_levels,
    _level,
    _prefix_sums,
    _sum_floor,
)

# worked three-class example at rho = 3/4: the slowest class holds
# 2*rho - 1 = 1/2, the middle class solves the level quadratic with
# B = -1/4, C = 3/32, delta = 11/32, and the top class is the remainder
F2_EXPECTED = 0.22420131331861914  # (sqrt(22) - 2) / 12
F3_EXPECTED = 0.025798686681380856

HALF_DOWN = math.nextafter(0.5, 0.0)
HALF_UP = math.nextafter(0.5, 1.0)

# the edge densities, shuffled and with repeats, as one batch
EDGE_BATCH = np.array([1.0, 0.5, 0.0, HALF_UP, 5e-324, 0.5, 1e-300, HALF_DOWN, 0.0, 1.0, 5e-324])
# the densities at which one density's record meets every other route to
# it: the edges of the density range and of the layer above 1/2
ONE_DENSITY_EDGES = (0.0, -0.0, 5e-324, HALF_DOWN, 0.5, HALF_UP, 0.5 + 1e-15, 0.75, 0.99, 1.0)
# batches whose rows all skip the level loop, all run it, or one runs it
ALL_FREE = np.array([0.3, 0.0, 0.5, HALF_DOWN, 5e-324, 0.5, 0.1])
ALL_CONGESTED = np.array([0.75, HALF_UP, 1.0, 0.5 + 1e-15, 0.99, 0.75, math.nextafter(1.0, 0.0)])
ONE_CONGESTED = np.array([0.3, 0.0, HALF_DOWN, 0.75, 0.5, 0.3])
# the edges of the layer above 1/2, where the classes grow like
# fractional powers of rho - 1/2, and of the density range
PREFIX_EDGES = np.array([HALF_DOWN, 0.5, HALF_UP, 0.5 + 1e-15, 0.5 + 1e-8,
                         math.nextafter(1.0, 0.0), 1.0, 1e-300, 5e-324, 0.0])


def _table_density_derivative(n):
    """Entrywise d/d rho of the game table; entries are +-1 constants."""
    D = np.zeros((n, n, n))
    for h in range(1, n + 1):
        for k in range(1, n + 1):
            if h <= k:
                if h != n:
                    D[h - 1, k - 1, h - 1] = 1.0
                    D[h - 1, k - 1, h] = -1.0
            else:
                D[h - 1, k - 1, k - 1] = 1.0
                D[h - 1, k - 1, h - 1] = -1.0
    return D


def _dense_jacobian(f):
    """Jacobian in model time, contracted from the dense n^3 game table and its derivative."""
    n = f.size
    s = float(f.sum())
    A = build_game_table(n, min(max(s, 0.0), 1.0)).A
    G = np.einsum("hkj,h,k->j", A, f, f)
    M1 = np.einsum("ikj,k->ji", A, f)
    M2 = np.einsum("hij,h->ji", A, f)
    W = np.einsum("hkj,h,k->j", _table_density_derivative(n), f, f)
    return (G - s * f)[:, None] + s * (M1 + M2 + (W - f)[:, None] - s * np.eye(n))


def _helmert_basis(n):
    """Orthonormal rows spanning the zero-sum hyperplane."""
    H = np.zeros((n - 1, n))
    for i in range(1, n):
        H[i - 1, :i] = 1.0
        H[i - 1, i] = -float(i)
        H[i - 1] /= math.sqrt(i * (i + 1.0))
    return H


def _cumulative_block(J):
    """L J L^-1 restricted to the hyperplane, L the cumulative-sum matrix.

    A zero-sum perturbation leaves P_n = rho fixed, so the hyperplane is
    spanned by the first n-1 cumulative coordinates.
    """
    n = J.shape[0]
    L = np.tri(n)
    return (L @ J @ np.linalg.inv(L))[:-1, :-1]


@st.composite
def states(draw, n_max):
    """A state of 2..n_max classes at a density in [0, 1]."""
    n = draw(st.integers(2, n_max))
    rho = draw(st.sampled_from([0.0, HALF_DOWN, 0.5, HALF_UP, 1.0]) | st.floats(0.0, 1.0))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    # a subnormal weight sum would overflow rho / w.sum() to inf
    return w * (rho / w.sum()) if w.sum() >= np.finfo(float).tiny else np.full(n, rho / n)


@st.composite
def density_batches(draw):
    """A shuffled vector of densities in [0, 1] in which some repeat."""
    base = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(base), min_size=1, max_size=4))
    return np.array(draw(st.permutations(base + repeats)))


def _every_example(ns, rhos):
    """@example(n=n, rho=rho) for every n of ns and rho of rhos."""
    def add(test):
        for n, rho in itertools.product(ns, rhos):
            test = example(n=n, rho=rho)(test)
        return test
    return add


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _ragged_row(size):
    """size non-negative values over many binades, a zero and a subnormal among them."""
    row = [((i * 0.6180339887498949) % 1.0) * 2.0 ** -(i % 60) for i in range(size)]
    row[size // 2] = 0.0
    row[size // 3] = 5e-324
    return row


class TestSlowestClass:
    """The phase rule for the stopped class, as the closed form applies it."""

    @staticmethod
    def f1(rho):
        return _closed_form(3, np.array([rho]))[0, 0]

    def test_piecewise_formula(self):
        assert self.f1(0.0) == 0.0
        assert self.f1(0.3) == 0.0
        assert self.f1(0.5) == 0.0
        assert abs(self.f1(0.75) - 0.5) <= 1e-16
        assert abs(self.f1(1.0) - 1.0) <= 1e-16

    def test_continuous_at_critical_density(self):
        below = self.f1(0.5 - 1e-12)
        above = self.f1(0.5 + 1e-12)
        assert abs(above - below) <= 3e-12


class TestRecursion:
    def test_three_class_worked_example(self):
        eq = equilibrium_recursive(3, 0.75)
        assert abs(eq.f_inf[0] - 0.5) <= 1e-16
        assert abs(eq.f_inf[1] - F2_EXPECTED) <= 1e-15
        assert abs(eq.f_inf[2] - F3_EXPECTED) <= 1e-15
        assert eq.phase == PHASE_CONGESTED
        # the one quadratic level, class 2
        assert eq.b.size == eq.c.size == eq.delta.size == 1
        assert abs(eq.b[0] + 0.25) <= 1e-16
        assert abs(eq.c[0] - 0.09375) <= 1e-16
        assert abs(eq.delta[0] - 0.34375) <= 1e-15

    def test_vanishing_residual_everywhere(self):
        """The recursion output must annihilate the vector field."""
        for n in range(2, 9):
            for rho in np.linspace(0.0, 1.0, 41):
                eq = equilibrium_recursive(n, float(rho))
                resid = np.abs(_rhs_batch(eq.f_inf[None, :])).sum()
                assert resid <= 1e-12, f"n={n} rho={rho}: residual {resid}"
        # scaled by rho^2 the residual stays at roundoff for every n: the
        # worst measured, over n = 2..40, 50, 100, 150 and 200, is 6.7e-16 (from
        # n = 6 on, at rho = 0.865)
        rhos = np.concatenate([build_grid(2001), [HALF_DOWN, HALF_UP, 1e-100]])
        for n in (2, 3, 4, 6, 9, 17, 40, 100, 200):
            resid = np.abs(_rhs_batch(_closed_form(n, rhos))).sum(axis=1)
            scaled = resid[rhos > 0] / rhos[rhos > 0] ** 2
            assert resid[rhos == 0].max() == 0.0
            assert scaled.max() <= 1e-15, f"n={n}: scaled residual {scaled.max()}"

    def test_density_is_recovered_exactly(self):
        for n in (2, 5, 8):
            for rho in np.linspace(0.0, 1.0, 101):
                f = equilibrium_recursive(n, float(rho)).f_inf
                assert f.min() >= 0.0
                assert abs(f.sum() - rho) <= 1e-15 * n

    def test_free_phase_piles_everyone_at_top_speed(self):
        for n in (2, 4, 7):
            for rho in (0.1, 0.35, 0.5):
                eq = equilibrium_recursive(n, rho)
                assert eq.phase == PHASE_FREE
                assert np.all(eq.f_inf[:-1] == 0.0)
                assert eq.f_inf[-1] == rho

    def test_empty_road(self):
        eq = equilibrium_recursive(4, 0.0)
        assert np.all(eq.f_inf == 0.0)
        # no level is solved on the empty road
        assert eq.b.size == eq.c.size == eq.delta.size == 0

    def test_full_jam(self):
        eq = equilibrium_recursive(5, 1.0)
        assert eq.f_inf[0] == 1.0
        assert np.all(eq.f_inf[1:] == 0.0)

    def test_discriminant_positive_off_critical(self):
        for n in (3, 5, 8):
            for rho in np.concatenate([np.linspace(0.51, 1.0, 25), [0.501]]):
                eq = equilibrium_recursive(n, float(rho))
                assert eq.delta.size == n - 2
                for j, delta in enumerate(eq.delta, 2):
                    assert delta > 0.0, f"n={n} rho={rho} j={j}"

    def test_discriminant_collapses_at_critical_density(self):
        # B and C both vanish at rho = 1/2, so delta = B^2 + 4 rho C is
        # exactly zero, not merely small
        eq = equilibrium_recursive(5, 0.5)
        assert eq.delta.size == 3, "expected quadratic levels at the critical density"
        assert np.all(eq.b == 0.0)
        assert np.all(eq.c == 0.0)
        assert np.all(eq.delta == 0.0)

    def test_takes_the_larger_root(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            rho = float(rng.uniform(0.55, 0.99))
            eq = equilibrium_recursive(n, rho)
            for root, b, c, delta in zip(eq.f_inf[1:-1], eq.b, eq.c, eq.delta, strict=True):
                other = (b - np.sqrt(delta)) / (2.0 * rho)
                assert root >= other - 1e-15
                value = -rho * root**2 + b * root + c
                assert abs(value) <= 1e-14, f"root misses quadratic by {value}"

    def test_branches_continuous_across_critical_density(self):
        # each quadratic level takes a square root of the one before it,
        # so the congested branch leaves the fold like eps**(1/2**(n-2)):
        # continuous, but with unbounded steepness for larger n
        for n in (2, 4, 6):
            free = equilibrium_recursive(n, 0.5).f_inf
            jumps = []
            for eps in (1e-4, 1e-7, 1e-10):
                above = equilibrium_recursive(n, 0.5 + eps).f_inf
                jump = float(np.abs(above - free).max())
                holder = 3.0 * (2.0 * eps) ** (1.0 / 2 ** (n - 2))
                assert jump <= holder, f"n={n} eps={eps}: {jump} > {holder}"
                jumps.append(jump)
            assert jumps[0] > jumps[1] > jumps[2], f"n={n}: jumps not shrinking {jumps}"

    def test_level_rejects_an_inconsistent_head(self):
        # a head heavier than the density makes the constant term negative
        terms = _density_terms(np.array([0.7, 0.7]))
        head = np.array([[0.4, 0.2], [0.8, 0.1]])
        with pytest.raises(ConsistencyError):
            _level(head.sum(axis=1), head[:, -1], terms)

    def test_level_root_for_either_sign_of_b(self, level_oracle):
        # no head reached from a density in [0, 1] gives B >= 0 with C > 0,
        # so hand-built (rho, S, last) exercise that root case, including
        # B = +0.0 exactly, next to the B < 0 case the recursion takes
        cases = [(0.9, 0.1, 0.05), (0.2, 0.5, 0.4), (0.25, 0.5, 0.4),
                 (0.9, 0.85, 0.05), (0.6, 0.3, 0.1)]
        rho, S, last = (np.array(col) for col in zip(*cases))
        with np.errstate(divide="ignore", invalid="ignore"):
            root, B, C, delta = _level(S, last, _density_terms(rho))
        assert (B > 0.0).sum() == 2 and (B == 0.0).sum() == 1 and (B < 0.0).sum() == 2
        assert (C > 0.0).all()
        eps = np.finfo(float).eps
        for i, (r, s, l) in enumerate(cases):
            want = level_oracle(r, s, l)
            got = (root[i], B[i], C[i], delta[i])
            assert _bits(got) == _bits(want), f"case {cases[i]}"
            x, b, c = float(root[i]), float(B[i]), float(C[i])
            # the roots multiply to -C / rho < 0, so the larger one is positive
            assert x > 0.0 > -c / (r * x)
            scale = max(r * x * x, abs(b * x), c)
            assert abs(-r * x * x + b * x + c) <= 4 * eps * scale, f"case {cases[i]}"

    @given(n=st.integers(2, 200), rhos=density_batches())
    @example(n=2, rhos=EDGE_BATCH)
    @example(n=3, rhos=EDGE_BATCH)
    @example(n=200, rhos=EDGE_BATCH)
    @example(n=3, rhos=ALL_FREE)
    @example(n=200, rhos=ALL_FREE)
    @example(n=3, rhos=ALL_CONGESTED)
    @example(n=200, rhos=ALL_CONGESTED)
    @example(n=3, rhos=ONE_CONGESTED)
    @example(n=200, rhos=ONE_CONGESTED)
    def test_rows_match_the_scalar_recursion(self, closed_form_oracle, n, rhos):
        # the batch runs each level over all rows; row by row it must give
        # the one-density recursion bit for bit, whatever its neighbours
        F = _closed_form(n, rhos)
        for i, rho in enumerate(rhos):
            f, _ = closed_form_oracle(n, float(rho))
            assert _bits(F[i]) == _bits(f), f"n={n} rho={rho!r}"

    @given(n=st.integers(2, 200), rhos=density_batches())
    @example(n=2, rhos=PREFIX_EDGES)
    @example(n=3, rhos=PREFIX_EDGES)
    @example(n=40, rhos=PREFIX_EDGES)
    @example(n=199, rhos=PREFIX_EDGES)
    @example(n=200, rhos=PREFIX_EDGES)
    def test_lower_classes_do_not_depend_on_n(self, n, rhos):
        # the level recursion never reads n, only the top class does, so
        # classes 1 .. n-1 at n are the same classes at n + 1, bit for bit
        lower, upper = _closed_form(n, rhos), _closed_form(n + 1, rhos)
        for i, rho in enumerate(rhos):
            assert _bits(lower[i, : n - 1]) == _bits(upper[i, : n - 1]), f"n={n} rho={rho!r}"

    @given(rho=st.floats(0.5, 1.0, exclude_min=True), n=st.integers(40, 5000),
           m=st.integers(40, 5000))
    @example(rho=0.5 + 2.0**-52, n=40, m=5000)
    @example(rho=0.99, n=40, m=5000)
    @example(rho=1.0, n=40, m=5000)
    def test_congested_flux_times_n_minus_one_does_not_depend_on_n(self, rho, n, m):
        # (n - 1) q = sum_j (j - 1) f_j is K + (n - 1) f_n, where K sums
        # classes 1 .. n-1; the recursion leaves those unchanged at every n
        # (prefix property) and exits before class 40, so K is one number
        # and only the top class's mass moves (n - 1) q.  The float q is a
        # dot product with the speeds fl((j - 1) / (n - 1)): on k nonzero
        # terms, each term carries at most k + 1 roundings (its speed, its
        # product, and at most k - 1 sums that merge it with other nonzero
        # terms), and a product that underflows loses at most 2^-1075
        def scaled_flux(n):
            f = equilibrium_recursive(n, rho).f_inf
            q = Fraction(observables(f).q)
            k = int(np.count_nonzero(f))
            gamma = Fraction(k + 1, 2**53) / (1 - Fraction(k + 1, 2**53))
            under = k * Fraction(1, 2**1075)
            # with q* the exact flux, |q - q*| <= gamma q* + under, and
            # q* <= (q + under) / (1 - gamma)
            rounding = gamma * (q + under) / (1 - gamma) + under
            return (n - 1) * q, (n - 1) * (Fraction(float(f[-1])) + rounding)

        (x, slack_n), (y, slack_m) = scaled_flux(n), scaled_flux(m)
        assert abs(x - y) <= slack_n + slack_m, (float(x), float(y))

    @given(n=st.integers(2, 300), rho=st.floats(0.0, 1.0))
    @example(n=200, rho=HALF_DOWN)
    @example(n=200, rho=HALF_UP)
    @example(n=200, rho=0.5000001)
    @example(n=200, rho=0.51)
    @example(n=200, rho=0.5095)  # the deepest non-zero class, 28, on build_grid(2001)
    @example(n=200, rho=0.5000000000000006)  # 32 non-zero classes below the top
    @example(n=200, rho=0.0)
    @example(n=200, rho=5e-324)
    @example(n=200, rho=1e-300)
    @example(n=200, rho=1.0)
    @example(n=300, rho=0.51)
    @example(n=400, rho=0.51)
    @example(n=2, rho=0.0)
    @example(n=2, rho=0.7)
    def test_single_density_matches_the_scalar_recursion(self, closed_form_oracle, n, rho):
        # one row, which density_batches never draws: the record takes the
        # coefficients of every level, the ones the loop skipped included,
        # from one stack of prefix sums, and n above 130 takes prefix sums
        # longer than numpy's 128-element pairwise block
        eq = equilibrium_recursive(n, rho)
        f, levels = closed_form_oracle(n, rho)
        assert _bits(eq.f_inf) == _bits(f), f"n={n} rho={rho!r}"
        assert _bits(np.column_stack((eq.b, eq.c, eq.delta))) == _bits(levels)

    @given(n=st.integers(2, 200), rho=st.floats(0.0, 1.0))
    @_every_example((2, 3, 200, 5000), ONE_DENSITY_EDGES)
    def test_one_density_is_the_batch_row(self, closed_form_oracle, n, rho):
        # one density runs its levels in Python floats and the batch in
        # numpy: f_inf must be the batch's row and the scalar oracle's, and
        # b, c and delta what _level gives on the row's prefix sums, whose
        # roots are the row again, the levels past the exit included
        eq = equilibrium_recursive(n, rho)
        row = _closed_form(n, np.array([rho]))[0]
        f, levels = closed_form_oracle(n, rho)
        assert _bits(eq.f_inf) == _bits(row) == _bits(f), f"n={n} rho={rho!r}"
        record = np.column_stack((eq.b, eq.c, eq.delta))
        assert _bits(record) == _bits(levels)
        if rho > 0.0 and n > 2:
            with np.errstate(divide="ignore", invalid="ignore"):
                root, B, C, delta = _level(
                    _prefix_sums(row[: n - 2]), row[: n - 2], _density_terms(np.array([rho]))
                )
            assert _bits(record) == _bits(np.column_stack((B, C, delta)))
            assert _bits(root) == _bits(row[1 : n - 1])

    @given(
        head=st.lists(
            st.floats(0.0, 1.0) | st.floats(0.0, 2.2250738585072014e-308),
            min_size=1, max_size=300,
        ),
        zeros=st.integers(0, 150),
    )
    @example(head=[1.0] * 129, zeros=0)
    @example(head=[5e-324, 0.3, 2e-308, 0.1], zeros=150)
    def test_sum_floor_bounds_every_later_prefix_sum(self, head, zeros):
        # the bound behind the early exit: summed with any number of zeros
        # appended, up to n terms, a non-negative head never sums below
        # the floor of its own sum, nor does its exact sum
        n = len(head) + zeros
        row = np.zeros((1, n))
        row[0, : len(head)] = head
        floor = _sum_floor(row[:, : len(head)].sum(axis=1), n)[0]
        assert math.fsum(head) >= floor
        for k in range(len(head), n + 1):
            assert row[:, :k].sum(axis=1)[0] >= floor, f"{k} terms"

    @given(
        row=st.lists(
            st.floats(0.0, 1.0) | st.floats(0.0, 2.2250738585072014e-308) | st.just(0.0),
            min_size=1, max_size=600,
        ),
    )
    # numpy's pairwise sum adds fewer than 8 terms in sequence, up to 128
    # in eight partial sums, and splits longer runs in two; 8192 is its
    # default buffer size, where a reduction could be cut into pieces
    @example(row=_ragged_row(1))
    @example(row=_ragged_row(7))
    @example(row=_ragged_row(8))
    @example(row=_ragged_row(9))
    @example(row=_ragged_row(127))
    @example(row=_ragged_row(128))
    @example(row=_ragged_row(129))
    @example(row=_ragged_row(255))
    @example(row=_ragged_row(256))
    @example(row=_ragged_row(257))
    @example(row=_ragged_row(513))
    @example(row=_ragged_row(8191))
    @example(row=_ragged_row(8192))
    @example(row=_ragged_row(8193))
    def test_prefix_sums_match_every_sum(self, row):
        # the record's level sums come from one reduceat; each must have
        # the bits of the .sum the level loop takes of the same prefix
        a = np.array(row)
        got = _prefix_sums(a)
        assert got.shape == a.shape
        want = [a[:L].sum() for L in range(1, a.size + 1)]
        assert _bits(got) == _bits(want), f"length {a.size}"

    def test_large_record_matches_the_level_sums_in_bounded_memory(self, level_sums_oracle):
        # n = 5000 just above the critical density: 4998 level sums, each
        # as the loop takes it, with O(n) extra memory, where a gathered
        # triangle of the n^2 / 2 prefixes would take about 100 MB
        n, rho = 5000, 0.51
        tracemalloc.start()
        try:
            eq = equilibrium_recursive(n, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak} bytes"  # about 26 arrays of n floats
        F = eq.f_inf[None, :]
        S = level_sums_oracle(F)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, B, C, delta = (x[:, 0] for x in _level(
                S, F[:, : n - 2].T, _density_terms(np.array([rho]))))
        assert _bits(eq.b) == _bits(B)
        assert _bits(eq.c) == _bits(C)
        assert _bits(eq.delta) == _bits(delta)

    def test_declined_bound_runs_the_next_level(self):
        # a hand-built head, not reachable from the phase rule: class 2 is
        # +0.0 in both rows, but row 0 holds too little below it, so B > 0,
        # the bound declines and level 3 takes the positive root B / rho;
        # row 1 alone would stop there, and the loop runs on level by level
        n, rho = 8, np.array([0.7, 0.7])
        terms = _density_terms(rho)
        F = np.zeros((2, n))
        F[:, 0] = [0.1, 0.4]
        want = F.copy()
        _fill_levels(F, 3, terms)
        with np.errstate(divide="ignore", invalid="ignore"):
            B = _level(want[:, :2].sum(axis=1), want[:, 1], terms)[1]
            for j in range(3, n):
                want[:, j - 1] = _level(want[:, : j - 1].sum(axis=1), want[:, j - 2], terms)[0]
        assert B[0] > 0.0 >= B[1]
        assert F[0, 2] == B[0] / 0.7 and F[1, 2] == 0.0
        assert (F[0, 3:-1] > 0.0).all()
        assert _bits(F) == _bits(want)

    def test_early_exit_matches_level_by_level(self):
        # a wide batch that stops early: every class equals _level applied
        # one level at a time on the loop's prefix sums, with no exit
        n = 60
        rho = np.tile(np.array([0.0, 0.2, 0.5, HALF_UP, 0.6, 0.75, 0.9, 1.0]), 500)
        F = _closed_form(n, rho)
        want_F = np.zeros_like(F)
        want_F[:, 0] = F[:, 0]
        terms = _density_terms(rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(2, n):
                want_F[:, j - 1] = _level(
                    want_F[:, : j - 1].sum(axis=1), want_F[:, j - 2], terms
                )[0]
        assert _bits(F[:, :-1]) == _bits(want_F[:, :-1])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            equilibrium_recursive(1, 0.5)
        with pytest.raises(ValueError):
            equilibrium_recursive(3, -0.2)
        with pytest.raises(ValueError):
            equilibrium_recursive(3, 1.2)


class TestJacobian:
    def test_matches_finite_differences(self):
        # the density is the component sum, so perturbing f_j moves rho
        # too; the finite difference must follow the same convention
        rng = np.random.default_rng(4)
        h = 1e-6
        for n in (3, 5):
            for _ in range(10):
                f = rng.uniform(0.01, 0.2, n)
                J = jacobian(f)
                for j in range(n):
                    fp, fm = f.copy(), f.copy()
                    fp[j] += h
                    fm[j] -= h
                    col = (
                        _rhs_batch(fp[None, :]) - _rhs_batch(fm[None, :])
                    )[0] / (2 * h)
                    assert np.abs(J[:, j] - col).max() <= 1e-6

    def test_columns_sum_to_zero(self):
        # conservation: perturbations cannot create or destroy density
        rng = np.random.default_rng(21)
        for n in (2, 4, 7):
            for _ in range(10):
                f = random = rng.uniform(0.0, 0.14, n)
                J = jacobian(f)
                assert np.abs(J.sum(axis=0)).max() <= 1e-13

    @given(states(n_max=40))
    def test_matches_dense_table_jacobian(self, case):
        f = case
        J = jacobian(f)
        assert np.abs(J - _dense_jacobian(f)).max() <= 1e-14

    @given(states(n_max=40))
    def test_cumulative_form_is_lower_bidiagonal(self, case):
        # the structure the O(n) stability report rests on, checked on the
        # dense-table Jacobian: in P_j = f_1 + ... + f_j the hyperplane
        # block is lower bidiagonal with diagonal lambda_j
        f = case
        block = _cumulative_block(_dense_jacobian(f))
        off = np.triu(block, 1) + np.tril(block, -2)
        assert np.abs(off).max(initial=0.0) <= 1e-14
        lam = np.sort(np.diag(block))[::-1]
        rep = stability_report(f)
        assert np.abs(lam - rep.hyperplane_real_parts).max() <= 1e-14


class TestStability:
    def test_congested_equilibria_are_stable(self):
        for n in (2, 4, 6):
            for rho in (0.6, 0.75, 0.9):
                rep = stability_report(equilibrium_recursive(n, rho).f_inf)
                assert rep.verdict == STABLE, f"n={n} rho={rho}: {rep.verdict}"
                assert max(rep.hyperplane_real_parts) < 0.0

    def test_free_equilibria_are_stable(self):
        for n in (2, 5):
            for rho in (0.1, 0.3, 0.45):
                rep = stability_report(equilibrium_recursive(n, rho).f_inf)
                assert rep.verdict == STABLE

    def test_slowest_mode_rate(self):
        """The least negative hyperplane eigenvalue is -rho^2 |2rho-1| in model time."""
        for n in (2, 3, 5, 6):
            rep = stability_report(equilibrium_recursive(n, 0.75).f_inf)
            lam = max(rep.hyperplane_real_parts)
            want = -(0.75**2) * 0.5
            assert abs(lam - want) <= 1e-8, f"n={n}: {lam} vs {want}"

    def test_slowest_mode_rate_free_phase(self):
        # the free-phase hyperplane eigenvalue has multiplicity n-1 and a
        # defective eigenvector structure, so solvers scatter it by about
        # norm * eps**(1/(n-1)); only the cluster location is testable
        for n in (2, 3, 5, 6):
            rep = stability_report(equilibrium_recursive(n, 0.3).f_inf)
            lam = max(rep.hyperplane_real_parts)
            want = -(0.3**2) * 0.4
            assert abs(lam - want) <= 5e-4, f"n={n}: {lam} vs {want}"
            assert lam < 0.0

    def test_verdicts_at_large_n(self):
        # the free-phase hyperplane eigenvalue is defective with multiplicity
        # n-1: a general eigensolver scattered it and called many of these
        # stable densities unstable or marginal at n >= 20
        rhos = np.array([k / 100 for k in range(1, 100) if k != 50])
        for n in (20, 50, 200):
            for rho, f in zip(rhos.tolist(), _closed_form(n, rhos)):
                rep = stability_report(f)
                assert rep.verdict == STABLE, f"n={n} rho={rho}: {rep.verdict}"
                want = -(rho**2) * abs(2.0 * rho - 1.0)
                lam = max(rep.hyperplane_real_parts)
                assert abs(lam - want) <= 1e-14 * abs(want), f"n={n} rho={rho}"

    @given(
        n=st.integers(2, 200),
        # anywhere, thin, and close to 1/2, where the slowest rate vanishes
        rho=st.floats(0.0, 1.0) | st.floats(0.0, 3e-4) | st.floats(0.5 - 5e-8, 0.5 + 5e-8),
    )
    # the edges of the band around 1/2: |2 rho - 1| = 1e-10
    # at 1/2 +- 5e-11 and 1e-8 at 1/2 +- 5e-9
    @example(n=6, rho=0.5 - 4.9e-11)
    @example(n=200, rho=0.5 + 4.9e-11)
    @example(n=2, rho=0.5 - 5.1e-9)
    @example(n=200, rho=0.5 + 5.1e-9)
    # inside the band: the rate is still checked
    @example(n=200, rho=0.5 - 1e-9)
    @example(n=2, rho=0.5 + 1e-9)
    @example(n=6, rho=0.5 + 2e-9)
    @example(n=200, rho=HALF_DOWN)
    @example(n=200, rho=HALF_UP)
    # thin roads: stable down to the empty-road cut _TINY, marginal below
    @example(n=2, rho=1e-5)
    @example(n=6, rho=1e-4)
    @example(n=200, rho=2e-12)
    @example(n=200, rho=1e-12)
    @example(n=200, rho=0.0)
    @example(n=200, rho=5e-324)
    @example(n=200, rho=1.0)
    def test_top_rate_decides_the_verdict(self, n, rho):
        # the top hyperplane rate of the closed form is -rho^2 |2 rho - 1|
        # to roundoff, so against the tolerance _RATE_TOL rho^2 the
        # verdict is stable where |2 rho - 1| is 10 times _RATE_TOL and
        # marginal below a tenth of it, and never unstable; a road at most
        # _TINY thin is empty and marginal
        rep = stability_report(equilibrium_recursive(n, rho).f_inf)
        rate = rho * rho * abs(2.0 * rho - 1.0)
        assert abs(rep.hyperplane_real_parts[0] + rate) <= 2e-15 * rho * rho
        assert rep.verdict != UNSTABLE
        if rho <= _TINY:
            assert rep.verdict == MARGINAL
        elif abs(2.0 * rho - 1.0) > 10.0 * _RATE_TOL:
            assert rep.verdict == STABLE
        elif abs(2.0 * rho - 1.0) < _RATE_TOL / 10.0:
            assert rep.verdict == MARGINAL

    @given(
        case=states(n_max=40) | st.builds(
            lambda n, rho: equilibrium_recursive(n, rho).f_inf,
            st.integers(2, 300),
            st.floats(0.0, 1.0) | st.floats(0.0, 1e-4) | st.floats(0.5 - 5e-8, 0.5 + 5e-8),
        ),
        c=st.floats(1e-12, 1e12),
    )
    @example(case=equilibrium_recursive(6, HALF_DOWN).f_inf, c=1e-12)
    @example(case=equilibrium_recursive(200, HALF_UP).f_inf, c=1e12)
    @example(case=equilibrium_recursive(6, 1e-5).f_inf, c=1e-12)
    @example(case=equilibrium_recursive(200, 1e-5).f_inf, c=1e12)
    @example(case=equilibrium_recursive(6, 1.0).f_inf, c=1e-12)
    @example(case=equilibrium_recursive(200, 1.0).f_inf, c=1e12)
    @example(case=equilibrium_recursive(6, 0.3).f_inf, c=1e-9)
    @example(case=equilibrium_recursive(6, 0.7).f_inf, c=1e-12)
    @example(case=np.array([0.0, HALF_UP, 0.0]), c=1e-12)
    def test_verdict_does_not_depend_on_the_time_scale(self, case, c):
        # eta0 = c only rescales time: in the time t every rate and the
        # tolerance are c times their model-time values, so the scaled
        # rates classify as the report does, and the report takes no clock
        f = case
        rep = stability_report(f)
        s = float(f.sum())
        lam, tol = c * np.array(rep.hyperplane_real_parts), c * (_RATE_TOL * s * s)
        if rep.degenerate_zero_density or not (np.all(lam < -tol) or np.any(lam > tol)):
            want = MARGINAL
        else:
            want = STABLE if np.all(lam < -tol) else UNSTABLE
        assert rep.verdict == want
        for call in (stability_report, jacobian):
            with pytest.raises(TypeError):
                call(f, object())

    @given(states(n_max=8))
    def test_rates_match_restricted_eigenvalues(self, case):
        # eigenvalues of a nonsymmetric matrix carry a rounding error that
        # grows like (norm / separation)^(n-2) for this bidiagonal form
        f = case
        n = f.size
        H = _helmert_basis(n)
        R = H @ _dense_jacobian(f) @ H.T
        want = np.sort(np.linalg.eigvals(R).real)[::-1]
        lam = np.array(stability_report(f).hyperplane_real_parts)
        sep = float((-np.diff(lam)).min(initial=np.inf))
        norm = float(np.linalg.norm(R, 2))
        tol = 1e-14 * max(1.0, norm / sep) ** (n - 2) if sep > 0.0 else np.inf
        assume(tol <= 1e-6)
        assert np.abs(lam - want).max() <= tol

    @given(states(n_max=40))
    @example(case=np.zeros(5))
    @example(case=equilibrium_recursive(6, HALF_DOWN).f_inf)
    @example(case=equilibrium_recursive(6, HALF_UP).f_inf)
    @example(case=equilibrium_recursive(40, 1.0).f_inf)
    @example(case=np.array([0.0, HALF_UP, 0.0]))
    @example(case=np.array([HALF_DOWN, 0.0, 0.0, 0.0]))
    @example(case=np.full(4, 0.25))
    def test_rates_are_the_slope_of_the_level_function(self, case):
        # lambda_j = rho g'(P_j) at any state, equilibrium or not, with
        # g(P_j) = rho P_j (rho - P_j) - (1 - rho) (P_j - P_{j-1}) (rho - P_{j-1});
        # g is quadratic in P_j, so its central difference in exact
        # rationals is its slope exactly
        f = case
        C = np.zeros(f.size + 1)
        f.cumsum(out=C[1:])
        s = float(C[-1])
        lam = _rates(s, C[1:-1], s - C[:-2], 1.0 - s)
        rho, h = Fraction(C[-1]), Fraction(1, 1024)

        def g(P, P_prev):
            return rho * P * (rho - P) - (1 - rho) * (P - P_prev) * (rho - P_prev)

        for j in range(1, f.size):
            P, P_prev = Fraction(C[j]), Fraction(C[j - 1])
            slope = rho * (g(P + h, P_prev) - g(P - h, P_prev)) / (2 * h)
            # of _rates's eight roundings, each by at most u = 2^-53 relative,
            # its two terms a and b pass at most six, so it is within
            # gamma_6 < 8u of rho (|a| + |b|), plus 2^-1070 for
            # products that fall below the normals
            a, b = rho * (rho - 2 * P), (1 - rho) * (rho - P_prev)
            tol = 8 * 2.0**-53 * float(abs(rho) * (abs(a) + abs(b))) + 2.0**-1070
            assert abs(float(Fraction(lam[j - 1]) - slope)) <= tol, j

    @given(states(n_max=40))
    @example(case=np.zeros(5))
    @example(case=equilibrium_recursive(6, 0.5).f_inf)
    @example(case=equilibrium_recursive(40, 0.7).f_inf)
    def test_step_bound_reads_the_reported_rates(self, case):
        # one _rates serves both: the stepping loop's bound from the vector
        # field's running sums is _STAB over the report's largest |lambda_j|,
        # bit for bit, since add.accumulate and cumsum add in the same order
        f = case
        sums = _stencil(1, f.size)
        _rhs_batch(f[None, :], sums=sums)
        lam = np.abs(stability_report(f).hyperplane_real_parts).max()
        with np.errstate(divide="ignore"):
            assert _stable_step(sums)[0] == np.float64(_STAB) / lam

    def test_edge_densities(self):
        for n in (2, 3, 6, 8):
            for rho in (0.0, HALF_DOWN, 0.5, HALF_UP, 1.0):
                f = equilibrium_recursive(n, rho).f_inf
                rep = stability_report(f)
                lam = np.sort(np.diag(_cumulative_block(_dense_jacobian(f))))[::-1]
                assert np.abs(lam - rep.hyperplane_real_parts).max() <= 1e-15
                assert rep.degenerate_zero_density == (rho == 0.0)
                assert rep.nilpotent_hyperplane == (rho == 0.5)
                # the rates are the spectrum less the mass mode: P_n = rho
                # is conserved, so the last row of the cumulative Jacobian,
                # whose diagonal is the full spectrum, is zero
                L = np.tri(n)
                assert np.abs((L @ _dense_jacobian(f) @ np.linalg.inv(L))[-1]).max() <= 1e-15
                if rho == 1.0:
                    assert rep.verdict == STABLE
                    assert rep.hyperplane_real_parts == (-1.0,) * (n - 1)
                else:
                    assert rep.verdict == MARGINAL, f"n={n} rho={rho!r}"
                if rho == 0.5:
                    # the dense restricted Jacobian is nonzero but nilpotent
                    H = _helmert_basis(n)
                    R = H @ _dense_jacobian(f) @ H.T
                    assert np.abs(np.linalg.matrix_power(R, n - 1)).max() <= 1e-15
                    assert n == 2 or np.abs(R).max() > 0.01

    def test_critical_density_is_marginal_by_nilpotency(self):
        # the restricted Jacobian at rho=1/2 is nilpotent: nonzero matrix,
        # all-zero spectrum; the verdict must not trust scattered
        # eigenvalues there
        for n in (2, 3, 4, 6):
            rep = stability_report(equilibrium_recursive(n, 0.5).f_inf)
            assert rep.verdict == MARGINAL
            assert rep.nilpotent_hyperplane

    def test_nilpotency_flag_off_elsewhere(self):
        rep = stability_report(equilibrium_recursive(4, 0.52).f_inf)
        assert not rep.nilpotent_hyperplane
        assert rep.verdict == STABLE

    def test_empty_road_is_degenerate(self):
        rep = stability_report(np.zeros(3))
        assert rep.degenerate_zero_density
        assert rep.verdict == MARGINAL

    def test_mass_mode_is_isolated(self):
        # the mass mode is the Jacobian's zero eigenvalue (its columns sum
        # to zero), and every rate, the rest of the spectrum, is well below it
        f = equilibrium_recursive(4, 0.8).f_inf
        assert np.abs(jacobian(f).sum(axis=0)).max() <= 1e-12
        assert max(stability_report(f).hyperplane_real_parts) < -1e-3

    def test_attractor_rule(self):
        # the candidate with the fewest leading zero classes, face 0, in any
        # order and whatever the verdicts say
        faces = [np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.3, 0.3]), np.array([0.0, 0.0, 0.6])]
        for verdicts in itertools.product((STABLE, MARGINAL, UNSTABLE), repeat=3):
            cands = [EquilibriumCandidate(f, 0.0, v) for f, v in zip(faces, verdicts)]
            for order in itertools.permutations(cands):
                assert _attractor(list(order)) is cands[0]
        # n = 2 one ulp above 1/2: faces 1 and 0 lie within 1e-10, and the
        # one survivor carries face 1's bits, 2.2e-16 from the closed form
        rho = HALF_UP
        (survivor,) = equilibrium_bruteforce(2, rho)
        assert survivor.f.tolist() == [0.0, rho]
        assert _attractor([survivor]) is survivor
        assert np.abs(survivor.f - equilibrium_recursive(2, rho).f_inf).max() <= 1e-10


class TestBruteForce:
    def test_two_class_branch_count(self):
        # below the critical density only the free branch is admissible;
        # above it the free branch persists but loses stability
        low = equilibrium_bruteforce(2, 0.3)
        assert len(low) == 1
        assert low[0].verdict == STABLE

        high = equilibrium_bruteforce(2, 0.8)
        assert len(high) == 2
        verdicts = sorted(c.verdict for c in high)
        assert verdicts == [STABLE, UNSTABLE]
        stable = next(c for c in high if c.verdict == STABLE)
        assert np.abs(stable.f - np.array([0.6, 0.2])).max() <= 1e-12

    def test_candidates_are_genuine_equilibria(self):
        for rho in (0.2, 0.5, 0.65, 0.9):
            for cand in equilibrium_bruteforce(5, rho):
                assert cand.residual <= 1e-10
                assert cand.f.min() >= 0.0
                assert abs(cand.f.sum() - rho) <= 1e-12

    def test_exactly_one_attracting_candidate(self):
        for n in (2, 3, 4):
            for rho in (0.15, 0.5, 0.7, 0.95):
                # the attractor alone is not unstable
                cands = equilibrium_bruteforce(n, rho)
                att = _attractor(cands)
                others = [c.verdict for c in cands if c is not att]
                assert att.verdict != UNSTABLE, f"n={n} rho={rho}"
                assert set(others) <= {UNSTABLE}, f"n={n} rho={rho}: {others}"
                want = equilibrium_recursive(n, rho).f_inf
                assert np.abs(att.f - want).max() <= 1e-10

    @given(st.integers(2, 40), st.floats(0.0, 1.0, exclude_min=True))
    # just below 1/2 the zero head's smaller root clamps to its larger
    # one; just above, the zero head branches however close 2 rho - 1 is
    # to 0, and every face reads marginal
    @example(3, 0.5 - 1e-13)
    @example(12, 0.5 - 1e-13)
    @example(3, 0.5 - 3e-13)
    @example(12, 0.5 - 3e-13)
    @example(3, 0.5 + 1e-13)
    @example(12, 0.5 + 1e-13)
    @example(12, 0.5 + 1e-15)
    @example(40, 0.5 + 1e-15)
    @example(40, 0.50301)
    def test_one_attracting_candidate_is_the_closed_form(self, n, rho):
        # the attractor is the closed form and not unstable; every other
        # face grows at rho^2 (2 rho - 1), which reads marginal only where
        # it is within the verdict tolerance 1e-9 rho^2
        cands = equilibrium_bruteforce(n, rho)
        att = _attractor(cands)
        assert np.abs(att.f - equilibrium_recursive(n, rho).f_inf).max() <= 1e-10
        assert att.verdict != UNSTABLE
        others = (UNSTABLE, MARGINAL) if 2 * rho - 1 <= _RATE_TOL else (UNSTABLE,)
        assert all(c.verdict in others for c in cands if c is not att)

    def test_branch_count_is_one_just_below_half(self):
        # below 1/2 only the zero head is kept, C = 0 and its smaller root
        # B / rho ~ 2 rho - 1 clamps to 0 like the larger; n rises in the
        # inner loop, so a branch count that doubles per class fails at
        # n = 3, before it grows
        for rho in (HALF_DOWN, 0.5 - 1e-15, 0.5 - 1e-13, 0.5 - 3e-13, 0.5 - 4.99e-13, 0.5 - 1e-12):
            for n in range(2, 41):
                assert len(_bruteforce_levels(n, rho)) == 1, (n, rho)

    def test_takes_no_time_scale(self):
        # eta0 only sets the clock, so it changes neither the stationary
        # set nor a verdict, and the enumeration takes no model constants
        with pytest.raises(TypeError):
            equilibrium_bruteforce(3, 0.7, object())

    def test_critical_density_candidate_is_marginal(self):
        cands = equilibrium_bruteforce(4, 0.5)
        assert len(cands) == 1
        assert cands[0].verdict == MARGINAL
        assert _attractor(cands) is cands[0]

    @given(st.integers(2, 60), st.floats(0.0, 1.0, exclude_min=True))
    # the bands of the count's proof (module docstring): just below 1/2,
    # where the zero head's roots clamp to one, just above it, where they
    # lie within 1e-14 and still branch, the widest branching and the ends
    @example(2, 0.5 - 3e-13)
    @example(60, HALF_DOWN)
    @example(60, HALF_UP)
    @example(60, 0.5 - 1e-13)
    @example(60, 0.5 - 3e-13)
    @example(60, 0.5 - 4e-13)
    @example(60, 0.5 - 6e-13)
    @example(60, 0.5 + 1e-15)
    @example(60, 0.50301)
    @example(60, 1.0)
    @example(60, 5e-324)
    def test_branch_count_is_n_above_half(self, n, rho):
        # n vectors above 1/2, one per face, and one at or below it; k
        # doubles up to n, so a count that doubles per class fails at a
        # small k, before it grows
        k = 2
        while k < n:
            assert len(_bruteforce_levels(k, rho)) == (k if rho > 0.5 else 1), k
            k *= 2
        assert len(_bruteforce_levels(n, rho)) == (n if rho > 0.5 else 1)

    @pytest.mark.parametrize("rho", [HALF_UP, 0.5 + 1e-15])
    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_every_face_just_above_half(self, n, rho):
        # 2 rho - 1 <= 1e-14: the zero head branches at every level, faces
        # n - 1 and n - 2 lie within 1e-10 and merge, and every face's
        # growing rate is below the verdict tolerance, so the attractor is
        # named by its face, not by its verdict
        cands = equilibrium_bruteforce(n, rho)
        assert len(cands) == n - 1
        assert {c.verdict for c in cands} == {MARGINAL}
        att = _attractor(cands)
        assert att.f[0] > 0.0
        assert np.abs(att.f - equilibrium_recursive(n, rho).f_inf).max() <= 1e-10

    @given(st.integers(2, 60), st.floats(0.0, 1.0, exclude_min=True))
    @example(200, 0.5)
    @example(200, HALF_UP)
    @example(200, 0.5 + 1e-8)
    @example(200, 0.99)
    @example(200, 1.0)
    @example(12, 0.5 + 4e-11)  # faces 1e-10 apart merge
    @example(12, 0.5 + 2e-14)
    @example(3, HALF_UP)  # the zero head's roots within 1e-14 still branch
    @example(40, 0.5 + 1e-15)
    def test_candidates_are_the_shifted_closed_forms(self, n, rho):
        # the stationary set and its spectra (module docstring): face j
        # is j zeros, then the (n - j)-class closed form, whose classes
        # below the top are the n-class form's first n - j - 1
        # (test_lower_classes_do_not_depend_on_n)
        closed = _closed_form(n, np.array([rho]))[0]
        faces = np.zeros((n, n))
        for j in range(n):
            faces[j, j : n - 1] = closed[: n - j - 1]
            faces[j, n - 1] = max(rho - closed[: n - j - 1].sum(), 0.0)
        cands = equilibrium_bruteforce(n, rho)
        F = np.array([c.f for c in cands])
        dist = np.abs(F[:, None, :] - faces[None, :, :]).max(axis=2)
        # each candidate is the face of its leading zeros to a few ulps
        lead = [int(np.argmax(f != 0.0)) for f in F]
        assert dist[np.arange(len(F)), lead].max() <= 4 * np.spacing(rho)
        # the duplicate rule keeps candidates over 1e-10 apart, and every
        # face is one of them
        apart = np.abs(F[:, None, :] - F[None, :, :]).max(axis=2)
        assert (apart[~np.eye(len(F), dtype=bool)] > 1e-10).all()
        assert dist.min(axis=0).max() <= 1e-10 + 4 * np.spacing(rho)
        # _rates on each candidate's prefix sums, as stability_report takes
        # them; of its eight roundings its two terms a and b pass at most
        # six, so each rate is within gamma_6 < 8u of s (|a| + |b|), plus
        # 2^-1070 below the normals
        C = np.zeros((len(F), n + 1))
        F.cumsum(axis=1, out=C[:, 1:])
        s = C[:, -1:]
        lam = _rates(s, C[:, 1:-1], s - C[:, :-2], 1.0 - s)
        a, b = s * (s - 2.0 * C[:, 1:-1]), (1.0 - s) * (s - C[:, :-2])
        tol = 8 * 2.0**-53 * s * (np.abs(a) + np.abs(b)) + 2.0**-1070
        # the rates of the classes under zeros read P = 0, so they are the
        # logistic's s^2 (2 s - 1) at the candidate's own density s; every
        # other rate is at most its rounding above 0
        logistic = np.array([float(S * S * (2 * S - 1)) for S in map(Fraction, s[:, 0].tolist())])
        zero = np.arange(n - 1) < np.array(lead)[:, None]
        assert (np.abs(lam - logistic[:, None]) <= tol)[zero].all()
        assert (lam <= tol)[~zero].all()


@pytest.mark.parametrize("build", [
    lambda: sweep(3, build_grid(11)),
    lambda: equilibrium_recursive(4, 0.7),
    lambda: equilibrium_bruteforce(3, 0.7)[0],
    lambda: build_lattice(3),
    lambda: build_game_table(3, 0.4),
], ids=["Diagram", "EquilibriumResult", "EquilibriumCandidate",
        "SpeedLattice", "GameTable"])
def test_array_records_compare_and_hash_by_identity(build):
    # each holds ndarray fields, so field-wise == would ask numpy for the
    # truth value of an array
    a, b = build(), build()
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert len({a, b, a}) == 2
