"""Relaxation dynamics: vector field, stepper, trajectories."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kinetic_traffic import (
    BatchStats,
    ConsistencyError,
    IntegrationConfig,
    IntegrationDivergedError,
    STABLE,
    UNSTABLE,
    build_game_table,
    build_grid,
    build_lattice,
    continuity_gap,
    equilibrium_recursive,
    integrate_batch,
    jacobian,
    observables,
    random_state,
    random_state_batch,
    run_trajectory,
    stability_report,
)
from kinetic_traffic import dynamics, verify
from kinetic_traffic._pcg64 import _uniform
from kinetic_traffic.dynamics import _rhs_batch


def dense_rhs(f: np.ndarray, eta0: float = 1.0) -> np.ndarray:
    """Slow reference vector field built straight from the table.

    Gain term contracted with einsum over the full tensor, loss term
    rho * f_j, both scaled by the encounter rate.  Independent of the
    production code path, which never materializes the table.
    """
    rho = float(f.sum())
    A = build_game_table(f.size, rho).A
    gain = np.einsum("hkj,h,k->j", A, f, f)
    return eta0 * rho * (gain - rho * f)


def rk4_oracle(f: np.ndarray, h: float, per_sample: int, samples: int) -> np.ndarray:
    """Classical fixed-step RK4 on the dense-table field, at eta0 = 1.

    Independent of the production stepper; the density is conserved, so
    the table is built once.  Returns the state every per_sample steps.
    """
    rho = float(f.sum())
    A = build_game_table(f.size, rho).A

    def field(g):
        return rho * (np.einsum("hkj,h,k->j", A, g, g) - rho * g)

    out = [f]
    for _ in range(samples):
        for _ in range(per_sample):
            k1 = field(f)
            k2 = field(f + h / 2 * k1)
            k3 = field(f + h / 2 * k2)
            k4 = field(f + h * k3)
            f = f + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(f)
    return np.array(out)


def one_step(f, dt):
    """The row integrate_batch reaches from the state f at t = dt.

    That is one step of dt under the error control, or several if the
    control rejects dt.
    """
    config = IntegrationConfig(dt=dt, t_final=dt, steady_tol=0.0)
    return integrate_batch(f[None, :], config)[0][0]


def dp_pass(F, h, ws=None):
    """One _dp_step from the rows of F on ws, a new workspace if not given.

    The first stage is set from _rhs_batch, as the loop keeps it.  Returns
    Y, and the stages and the running sums of Y that the pass leaves in ws.
    """
    ws = ws or dynamics._Workspace(*F.shape, dynamics._PASS_W)
    ws.k1[...] = dynamics._rhs_batch(F)
    return dynamics._dp_step(F, h, ws), ws.K, ws.sums[-1]


HALF_DOWN, HALF_UP = math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)
EDGES = [0.0, HALF_DOWN, 0.5, HALF_UP, 1.0]

# densities over [0, 1] with the edges drawn explicitly
DENSITIES = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0))

# steady tolerances: none, the default, a loose one and one the empty
# road's zero derivative meets at the start
TOLS = [0.0, 1e-10, 1e-6, 1.0]


class TestVectorField:
    def test_hand_value_two_classes(self):
        # worked by hand: rho=0.7, eta=0.7, gain=(0.168, 0.322),
        # loss=rho*f=(0.14, 0.35), rhs=0.7*(gain-loss)
        out = _rhs_batch(np.array([[0.2, 0.5]]))[0]
        assert abs(out[0] - 0.0196) <= 1e-15
        assert abs(out[1] + 0.0196) <= 1e-15

    def test_matches_dense_table_contraction(self):
        # above n = 7 the measured error is at most 1.9e-16 (0.9 eps) for
        # n <= 40 at random and edge densities, so the bound there is 1e-15
        rng = np.random.default_rng(3)
        cases = []
        sizes = (*range(2, 8), 10, 20, 40)
        for n in sizes:
            for _ in range(30):
                f = rng.uniform(0.0, 1.0, n)
                f *= rng.uniform(0.0, 1.0) / f.sum()
                cases.append(f)
        # rho times a dyadic simplex point, whose sum is exactly rho at
        # rho = 1/2 and 1 (the dense table refuses densities above 1)
        for n in sizes:
            for rho in EDGES:
                cuts = np.sort(rng.integers(0, 1 << 20, n - 1)) / (1 << 20)
                cases.append(rho * np.diff(cuts, prepend=0.0, append=1.0))
        for f in cases:
            got = _rhs_batch(f[None, :])[0]
            want = dense_rhs(f)
            tol = 5e-15 if f.size <= 7 else 1e-15
            assert np.abs(got - want).max() <= tol, f"n={f.size} rho={f.sum()!r}"

    def test_conserves_mass(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 9):
            for _ in range(20):
                f = random_state(n, float(rng.uniform(0, 1)), seed=int(rng.integers(1 << 30)))
                assert abs(_rhs_batch(f[None, :])[0].sum()) <= 1e-15
        # the stencil telescopes: at n = 200 the row sums measure at most
        # 5.6e-17 over these states
        densities = [*np.linspace(0.0, 1.0, 21), *EDGES]
        F = np.concatenate(
            [random_state_batch(200, r, 10, seed=k) for k, r in enumerate(densities)]
        )
        assert np.abs(dynamics._rhs_batch(F).sum(axis=1)).max() <= 2e-16

    def test_vanishes_on_empty_road(self):
        out = _rhs_batch(np.zeros((1, 4)))[0]
        assert np.all(out == 0.0)

    def test_scales_with_eta0(self):
        # the kernel is df/dtau, so the field in the time t at eta0 = 3 is
        # three times it (to the dense contraction's 5e-15, scaled)
        f = np.array([0.1, 0.2, 0.3])
        fast = 3.0 * _rhs_batch(f[None, :])[0]
        assert np.abs(fast - dense_rhs(f, 3.0)).max() <= 1.5e-14

    def test_a_state_sets_its_width(self):
        # a state's width is its class count, so no argument names n
        for n in (2, 7):
            F0 = random_state_batch(n, 0.6, 3, seed=n)
            F = integrate_batch(F0, IntegrationConfig(t_final=1.0))[0]
            assert F.shape == (3, n)
            rep = stability_report(equilibrium_recursive(n, 0.6).f_inf)
            assert rep.verdict == STABLE
            assert len(rep.hyperplane_real_parts) == n - 1

    def test_one_class_state_is_refused(self):
        f = np.array([0.5])
        for call in (
            lambda: integrate_batch(f[None, :]),
            lambda: stability_report(f),
            lambda: jacobian(f),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "need at least two speed classes, got n=1"
        with pytest.raises(ValueError, match="2-D"):
            integrate_batch(np.array([0.1, 0.2]))


class TestStepper:
    @staticmethod
    def march(h, embedded=False):
        """Fixed steps of the pair from a seeded n = 4 state to t = 2.

        The error weights are the difference of the two formulas, so the
        embedded order-4 solution is Y minus the error estimate.
        """
        F = random_state(4, 0.6, seed=5)[None, :]
        for _ in range(round(2.0 / h)):
            Y, K, _ = dp_pass(F, h)
            F = Y - h * sum(e * k for e, k in zip(dynamics._E, K)) if embedded else Y
        return F[0]

    def test_fourth_order_convergence(self):
        """Halving the step cuts the embedded solution's error by about 2^4."""
        ref = self.march(0.005)
        err_coarse = np.abs(self.march(0.08, embedded=True) - ref).max()
        err_fine = np.abs(self.march(0.04, embedded=True) - ref).max()
        ratio = err_coarse / err_fine
        assert 12.0 <= ratio <= 20.0, f"observed order ratio {ratio}"

    def test_fifth_order_convergence(self):
        """Halving the step cuts the propagating formula's error by about 2^5."""
        ref = self.march(0.005)
        err_coarse = np.abs(self.march(0.4) - ref).max()
        err_fine = np.abs(self.march(0.2) - ref).max()
        ratio = err_coarse / err_fine
        assert 28.0 <= ratio <= 36.0, f"observed order ratio {ratio}"

    def test_step_preserves_mass(self):
        st = random_state(5, 0.8, seed=9)
        after = one_step(st, 0.01)
        assert abs(after.sum() - st.sum()) <= 1e-15

    def test_steps_match_integrate_to_steady(self):
        # a step is the single loop run to t = dt, so walking the loop's own
        # accepted step sizes takes one accepted step per call and lands
        # bit for bit where the loop lands
        st = random_state(5, 0.8, seed=9)
        taken = []
        F, _, steps, t, _, _ = dynamics._integrate_batch(
            st[None, :], 0.04, 6.0, 0.0,
            record=lambda rows, t, h, F, Y, K: taken.append(h[0]),
        )
        assert len(taken) == steps[0] > 5
        walked, t_walked = st[None, :], 0.0
        for h in taken:
            one, _, k, t_one, _, _ = dynamics._integrate_batch(walked, h, h, 0.0)
            assert k[0] == 1
            assert np.all(one_step(walked[0], h) == one[0])
            walked, t_walked = one, t_walked + t_one[0]
        assert np.all(walked[0] == F[0])
        assert abs(t_walked - t[0]) <= 1e-12

    def test_step_rejects_bad_dt(self):
        st = random_state(3, 0.5, seed=1)
        with pytest.raises(ValueError):
            one_step(st, 0.0)


class TestIntegration:
    def test_relaxes_to_closed_form(self):
        # congested densities relax at rate ~ rho^2 (2 rho - 1), well
        # within the default horizon
        for n, rho in ((2, 0.8), (4, 0.75), (6, 0.9)):
            F, converged, steps, _ = integrate_batch(np.full((1, n), rho / n))
            assert converged[0], f"n={n} rho={rho} not steady by default horizon"
            assert steps[0] > 0
            err = np.abs(F[0] - equilibrium_recursive(n, rho).f_inf).max()
            assert err <= 1e-7, f"n={n} rho={rho} err={err}"

    def test_relaxes_in_free_phase(self):
        # free-phase rates peak near 0.037 at rho=1/3, so the horizon
        # must stretch to several hundred
        rho = 1.0 / 3.0
        config = IntegrationConfig(dt=0.02, t_final=800.0)
        F, converged, _, _ = integrate_batch(np.full((1, 3), rho / 3), config)
        assert converged[0]
        err = np.abs(F[0] - equilibrium_recursive(3, rho).f_inf).max()
        assert err <= 1e-7, f"free phase err={err}"

    def test_already_steady_input_returns_immediately(self):
        eq = equilibrium_recursive(3, 0.8).f_inf
        F, converged, steps, _ = integrate_batch(eq[None, :])
        assert converged[0]
        assert steps[0] == 0
        assert np.all(F[0] == eq)

    def test_batch_rows_are_independent(self):
        # integrating a state alone and inside a batch must agree bit for
        # bit; worker processes rely on this to make chunking invisible
        config = IntegrationConfig(dt=0.02, t_final=40.0)
        F0 = random_state_batch(4, 0.7, 6, seed=2)
        together, conv_t, _, _ = integrate_batch(F0, config)
        for i in range(6):
            alone, conv_a, _, _ = integrate_batch(F0[i : i + 1], config)
            assert conv_a[0] == conv_t[i]
            assert np.all(alone[0] == together[i]), f"row {i} diverged from batch"

    def test_batch_convergence_freezes_rows(self):
        # a fast row must settle and freeze even while a slow row keeps
        # integrating past the horizon without converging
        F0 = np.array([[0.05, 0.85], [0.20, 0.20]])
        config = IntegrationConfig(dt=0.02, t_final=300.0)
        F, conv, _, _ = integrate_batch(F0, config)
        assert conv[0] and not conv[1]
        eq_fast = equilibrium_recursive(2, 0.9).f_inf
        assert np.abs(F[0] - eq_fast).max() <= 1e-8
        alone, _, _, _ = integrate_batch(F0[:1], config)
        assert np.all(alone[0] == F[0])

    def test_trajectory_shapes_and_stride(self):
        st = np.full(3, 0.2)
        config = IntegrationConfig(dt=0.01, t_final=1.0, record_stride=10)
        times, samples, _ = run_trajectory(st, config)
        assert times[0] == 0.0
        assert times.shape[0] == samples.shape[0]
        assert samples.shape[1] == 3
        assert np.all(np.diff(times) > 0)
        assert abs(times[-1] - 1.0) <= 1e-12
        assert np.abs(samples[0] - st).max() == 0.0

    def test_trajectory_stops_when_steady(self):
        st = np.array([0.05, 0.75])
        config = IntegrationConfig(dt=0.02, t_final=500.0)
        times, samples, converged = run_trajectory(st, config)
        assert converged
        assert times[-1] < 500.0
        tail = _rhs_batch(samples[-1:])[0]
        assert np.abs(tail).sum() <= 1e-10

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("t_final", [10.0, 500.0, 0.1 * 3.0])
    def test_trajectory_ends_where_integration_ends(self, stride, t_final):
        # t_final=10 stops on the horizon (a sample time for stride 1, not
        # for stride 7) and t_final=500 turns steady between samples; 0.1 * 3
        # is simulate --eta0 3 --t-final 0.1, and a run that stops on its
        # horizon ends on it exactly
        st = random_state(6, 0.7, seed=11)
        config = IntegrationConfig(dt=0.05, t_final=t_final, record_stride=stride)
        times, samples, converged = run_trajectory(st, config)
        F, conv, _, t, _, _ = dynamics._integrate_batch(
            st[None, :], config.dt, config.t_final, config.steady_tol
        )
        t_end = t[0]
        assert converged == conv[0] == (t_final == 500.0)
        assert converged or t_end == t_final
        assert np.all(samples[-1] == F[0])
        assert np.all(samples[0] == st)
        # samples sit at i dt for the multiples i of the stride before the
        # end, which follows as the last sample
        i = np.arange(stride, round(t_end / 0.05) + stride, stride)
        inner = i * 0.05
        want = np.concatenate([[0.0], inner[inner < t_end], [t_end]])
        assert np.array_equal(times, want)

    @pytest.mark.parametrize(
        "start",
        [np.zeros(3), equilibrium_recursive(3, 0.7).f_inf],
        ids=["empty", "closed-form"],
    )
    def test_a_steady_start_is_the_only_sample(self, start):
        # no step is taken, so the start is both the first and the final
        # state: one sample, not the same time twice
        config = IntegrationConfig(dt=0.01, t_final=5.0)
        times, samples, converged = run_trajectory(start, config)
        assert converged
        assert np.array_equal(times, [0.0])
        assert samples.shape == (1, 3) and np.all(samples[0] == start)

    @pytest.mark.parametrize(
        "n, rho, stride, t_final",
        [(2, 0.3, 1, 20.0), (3, 0.5, 7, 50.0), (6, 0.6, 1, 500.0), (6, 0.7, 3, 10.0),
         (12, 0.9, 2, 40.0), (40, 0.2, 5, 30.0),
         (3, 0.3, 10, 0.05)],  # a horizon short of the first sample: start and end only
    )
    def test_samples_match_the_per_step_oracle(self, trajectory_oracle, n, rho, stride, t_final):
        start = random_state(n, rho, seed=n)
        config = IntegrationConfig(dt=0.01 * n, t_final=t_final, record_stride=stride)
        times, samples, converged = run_trajectory(start, config)
        want_times, want, want_converged = trajectory_oracle(start, config)
        assert same_bits(times, want_times)
        assert same_bits(samples, want)
        assert converged == want_converged

    def test_clamped_samples_match_the_per_step_oracle(self, trajectory_oracle):
        # class 1 starts inside the clamp window and stays negative through
        # the first step, so its samples there are clamped to zero
        start = random_state(5, 0.4, seed=3)
        start[-1] += start[0] + 5e-13
        start[0] = -5e-13
        config = IntegrationConfig(dt=0.01, t_final=5.0)
        times, samples, _ = run_trajectory(start, config)
        want_times, want, _ = trajectory_oracle(start, config)
        assert same_bits(times, want_times) and same_bits(samples, want)
        assert samples[1, 0] == 0.0

    def test_a_sample_below_the_clamp_window_raises_after_the_loop(self, monkeypatch):
        exact = dynamics._dense
        monkeypatch.setattr(dynamics, "_dense", lambda *args: exact(*args) - 1.0)
        config = IntegrationConfig(dt=0.1, t_final=2.0)
        with pytest.raises(IntegrationDivergedError):
            run_trajectory(random_state(4, 0.6, seed=1), config)

    def test_config_is_frozen(self):
        # assignment would bypass the checks below, and the module-level
        # configs of diagrams and verify are shared by every call
        config = IntegrationConfig()
        for name, value in (("t_final", math.nan), ("dt", -1.0), ("record_stride", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, name, value)
        assert config == IntegrationConfig()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegrationConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegrationConfig(t_final=-1.0)
        with pytest.raises(ValueError):
            IntegrationConfig(steady_tol=-1e-9)
        # a stride between integers sampled at the truncated stride, and nan
        # and inf failed inside run_trajectory
        for bad in (0, -3, 2.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                IntegrationConfig(dt=0.1, t_final=1.0, record_stride=bad)
        # an endless horizon never returned: the step loop ran forever; a
        # subnormal first step never grows
        for bad in (math.inf, math.nan, 5e-324, 1e-310):
            with pytest.raises(ValueError):
                IntegrationConfig(dt=bad)
            with pytest.raises(ValueError):
                IntegrationConfig(t_final=bad)
        state = random_state(4, 0.6)
        with pytest.raises(ValueError):
            one_step(state, math.inf)
        with pytest.raises(ValueError):
            continuity_gap(state[None, :], state[None, :], math.inf)


class TestConservationPolicy:
    """Every entry point runs the same per-step density drift check."""

    @pytest.fixture
    def rhs_calls(self, monkeypatch):
        # a vector field that creates 1e-9 of mass per class and unit time
        calls = []
        exact = dynamics._rhs_batch

        def leaky(F, **buffers):
            # in place: the stepping pass reads each stage from out
            calls.append(F.shape[0])
            out = exact(F, **buffers)
            out += 1e-9
            return out

        monkeypatch.setattr(dynamics, "_rhs_batch", leaky)
        return calls

    def test_batch_raises_on_first_leaky_step(self, rhs_calls):
        # the first step drifts by 4e-11, over the per-step bound of 1e-13;
        # the leak is the same in every stage, so the error estimate does
        # not see it and the step is accepted after its seven evaluations
        F0 = random_state_batch(4, 0.7, 3, seed=2)
        config = IntegrationConfig(dt=0.01, t_final=10.0)
        with pytest.raises(ConsistencyError):
            integrate_batch(F0, config)
        assert len(rhs_calls) == 7

    def test_trajectory_raises(self, rhs_calls):
        st = random_state(4, 0.7, seed=2)
        with pytest.raises(ConsistencyError):
            run_trajectory(st, IntegrationConfig(dt=0.01, t_final=1.0))

    def test_step_raises(self, rhs_calls):
        st = random_state(4, 0.7, seed=2)
        with pytest.raises(ConsistencyError):
            one_step(st, 0.01)


class TestDivergence:
    """The loop's own errors on a vector field gone wrong, through a hook on its field."""

    @staticmethod
    def poison(monkeypatch, after, row, value):
        """From its call number after on, the field's row row reads value in every class."""
        calls = []
        exact = dynamics._rhs_batch

        def poisoned(F, **buffers):
            calls.append(None)
            out = exact(F, **buffers)
            if len(calls) >= after:
                out[row] = value
            return out

        monkeypatch.setattr(dynamics, "_rhs_batch", poisoned)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("m", [1, 4])
    def test_a_non_finite_stage_raises(self, monkeypatch, m, value):
        # the 10th call, the second pass's fourth stage, puts a non-finite
        # value in row 0; the other rows accept that pass, as they do
        # without the hook, so the check runs on a pass that rejects one row
        F0 = random_state_batch(5, 0.6, m, seed=8)
        seen = []
        dynamics._integrate_batch(F0, 0.01, 0.1, 0.0, record=lambda rows, *_: seen.append(rows))
        assert len(seen) >= 2 and seen[1].tolist() == list(range(m))
        self.poison(monkeypatch, 10, 0, value)
        with pytest.raises(IntegrationDivergedError, match="non-finite values in trajectory"):
            dynamics._integrate_batch(F0, 0.01, 0.1, 0.0)

    def test_a_step_that_cannot_advance_time_raises(self, monkeypatch):
        # from the third pass on every stage after the first is 1e100 in
        # every class: finite, but the error estimate h e_1 (k1 - 1e100)
        # stays over a thousand times the weights _ATOL + _RTOL |y| at
        # any step, so every attempt is rejected and the step shrinks by
        # five each pass until t + h == t
        F0 = random_state_batch(5, 0.6, 1, seed=8)
        self.poison(monkeypatch, 14, 0, 1e100)
        stats = BatchStats()
        with pytest.raises(IntegrationDivergedError, match="step size too small to advance time"):
            dynamics._integrate_batch(F0, 0.01, 10.0, 0.0, stats)
        assert stats.accepted == 2 and stats.rejected > 10


class TestWorkCounts:
    @pytest.fixture
    def rhs_rows(self, monkeypatch):
        # rows of every vector-field evaluation, in call order
        rows = []
        exact = dynamics._rhs_batch

        def counted(F, **buffers):
            rows.append(F.shape[0])
            return exact(F, **buffers)

        monkeypatch.setattr(dynamics, "_rhs_batch", counted)
        return rows

    def test_continuity_gap_takes_the_derivative_from_the_loop(self, rhs_rows):
        pair = random_state_batch(4, 0.6, 2, seed=3)
        continuity_gap(pair[:1], pair[1:], 2.0)
        gap_calls = len(rhs_rows)
        stats = BatchStats()
        dynamics._integrate_batch(pair, 0.01, 2.0, 0.0, stats)
        assert len(rhs_rows) == 2 * gap_calls
        assert stats.rhs_evals == sum(rhs_rows[gap_calls:])

    def test_step_evaluates_seven_stages(self, rhs_rows):
        # the first stage, six more, and no separate residual
        one_step(random_state(5, 0.8, seed=9), 0.01)
        assert rhs_rows == [1] * 7

    def test_trajectory_start_work_counts(self):
        # simulate --n 6 --rho 0.6 --seed 11 --dt 0.01 --t-final 500; a
        # restructure that changes the stepping work fails here
        start = random_state(6, 0.6, seed=11)
        config = IntegrationConfig(dt=0.01, t_final=500.0)
        stats = integrate_batch(start[None, :], config)[3]
        assert (stats.rhs_evals, stats.accepted, stats.rejected) == (1045, 174, 0)

    @staticmethod
    def passes_and_work(loop, args):
        """(passes that accept a row, RHS row evaluations, accepted, rejected) of loop(*args)."""
        stats, passes = BatchStats(), []
        out = loop(*args, stats, lambda *step: passes.append(None))
        return out, (len(passes), stats.rhs_evals, stats.accepted, stats.rejected)

    def test_relax_sweep_work_counts(self):
        # diagram --n 6 --method integrate --rho-steps 51 --dt 0.05
        # --t-final 2000: uniform splits over the grid, one batch
        F0 = np.outer(build_grid(51), np.full(6, 1.0 / 6))
        args = (F0, 0.05, 2000.0, 1e-10)
        out, work = self.passes_and_work(dynamics._integrate_batch, args)
        assert work == (302, 47667, 7936, 0)
        assert np.count_nonzero(~out[1]) == 9

    def test_verify_step_work_counts(self, monkeypatch):
        # verify --n-max 2: the three stepping groups of n = 2 as one batch
        work = []
        exact = dynamics._integrate_batch

        def counted(*args):
            out, counts = self.passes_and_work(exact, args)
            work.append(counts)
            return out

        monkeypatch.setattr(verify, "_integrate_batch", counted)
        verify._step(2)
        assert work == [(149, 12136, 2006, 8)]

    def test_counters_repeat_exactly(self):
        # a first trial step of 4 is rejected, so every counter moves
        F0 = random_state_batch(6, 0.7, 5, seed=4)
        config = IntegrationConfig(dt=4.0, t_final=100.0)
        first = integrate_batch(F0, config)[3]
        again = integrate_batch(F0, config)[3]
        assert first == again
        assert first.rhs_evals > 0 and first.accepted > 0 and first.rejected > 0

    def test_stages_stay_class_major_as_rows_leave(self, monkeypatch):
        # rows converge at different times and passes gather rejected rows,
        # and every stage still runs on class-major rows
        layouts = []
        exact = dynamics._rhs_batch

        def seen(F, **buffers):
            layouts.append((F.shape[0], F.flags.f_contiguous))
            return exact(F, **buffers)

        monkeypatch.setattr(dynamics, "_rhs_batch", seen)
        rhos = (0.3, 0.5, 0.7, 0.9, 0.95)
        F0 = np.concatenate([random_state_batch(6, r, 1, seed=i) for i, r in enumerate(rhos)])
        config = IntegrationConfig(dt=4.0, t_final=100.0)
        conv = integrate_batch(F0, config)[1]
        assert conv.any() and not conv.all()
        assert len({m for m, _ in layouts}) > 2
        assert all(f_major for _, f_major in layouts)


class TestPairProperties:
    @given(st.integers(2, 200), st.lists(DENSITIES, min_size=2, max_size=5), st.integers(0, 2**30))
    @example(2, EDGES, 0)
    @example(200, EDGES, 1)
    def test_batch_equals_rows_in_any_order(self, n, rhos, seed):
        # each row alone is also the run whose clamp and drift monitors
        # the conservation property below reads, so that one runs only
        # its trajectory
        config = IntegrationConfig(dt=0.05, t_final=20.0)
        F0 = np.concatenate(
            [random_state_batch(n, r, 1, seed=seed + i) for i, r in enumerate(rhos)]
        )
        perm = np.random.default_rng(seed).permutation(len(rhos))
        F, conv, steps, stats = integrate_batch(F0[perm], config)
        counts = np.zeros(3, dtype=int)
        for j, i in enumerate(perm):
            alone, conv_a, steps_a, stats_a = integrate_batch(F0[i : i + 1], config)
            assert np.all(alone[0] == F[j])
            assert conv_a[0] == conv[j] and steps_a[0] == steps[j]
            assert stats_a.min_preclamp >= -1e-12
            assert stats_a.max_drift <= 1e-13 * max(1, int(steps_a[0]))
            counts += (stats_a.rhs_evals, stats_a.accepted, stats_a.rejected)
        assert tuple(counts) == (stats.rhs_evals, stats.accepted, stats.rejected)

    @given(
        st.integers(2, 12),
        st.lists(
            st.tuples(st.floats(0.01, 4.0), st.floats(0.01, 30.0), st.sampled_from(TOLS)),
            min_size=1,
            max_size=3,
        ),
        st.lists(st.tuples(st.integers(0, 2), DENSITIES), min_size=1, max_size=8),
        st.integers(0, 2**30),
    )
    # the empty road is steady at the start; steady_tol = 0 runs to the
    # horizon; a first step of 4 is rejected; a horizon inside the first step
    @example(2, [(0.05, 20.0, 1e-10), (4.0, 30.0, 0.0)], [(0, 0.0), (1, 0.3), (0, 0.7)], 0)
    @example(12, [(1.0, 0.5, 0.0), (4.0, 10.0, 1e-6)], [(1, 0.95), (0, 0.6), (1, 0.0)], 1)
    @example(12, [(0.02, 5.0, 0.0), (0.01, 0.005, 1e-10), (4.0, 30.0, 1e-10)],
             [(2, 0.2), (0, 0.4), (1, 0.6), (2, 0.8), (0, 0.2), (1, 1.0)], 2)
    def test_per_row_settings_equal_each_group_alone(self, n, configs, rows, seed):
        # rows of several (dt, t_final, steady_tol) groups, in any order and
        # grouping, in one batch with per-row settings: each group's rows
        # come out as the group's own call gives them
        group = np.array([g % len(configs) for g, _ in rows])
        F0 = np.concatenate(
            [random_state_batch(n, r, 1, seed=seed + i) for i, (_, r) in enumerate(rows)]
        )
        dt, t_final, steady_tol = zip(*(configs[g] for g in group))
        stats = BatchStats()
        batch = dynamics._integrate_batch(F0, dt, t_final, steady_tol, stats)
        counts = np.zeros(3, dtype=int)
        for g, config in enumerate(configs):
            mine = group == g
            if not mine.any():
                continue
            alone_stats = BatchStats()
            alone = dynamics._integrate_batch(F0[mine], *config, alone_stats)
            # the last output is each row's drift
            for x, x_alone in zip(batch, alone, strict=True):
                assert same_bits(x[mine], x_alone), f"group {g} diverged from the batch"
            assert alone_stats.max_drift == alone[-1].max()
            counts += (alone_stats.rhs_evals, alone_stats.accepted, alone_stats.rejected)
        assert tuple(counts) == (stats.rhs_evals, stats.accepted, stats.rejected)
        assert stats.max_drift == batch[-1].max()

    @given(st.integers(2, 200), DENSITIES, st.integers(0, 2**30))
    @example(2, HALF_UP, 0)
    @example(200, 1.0, 1)
    def test_conservation_and_positivity_along_the_loop(self, n, rho, seed):
        # the loop's own clamp and drift monitors are read on every row of
        # test_batch_equals_rows_in_any_order, which runs each row alone
        start = random_state(n, rho, seed=seed)
        config = IntegrationConfig(dt=0.1, t_final=30.0)
        times, samples, _ = run_trajectory(start, config)
        assert samples.min() >= 0.0
        assert np.abs(samples.sum(axis=1) - start.sum()).max() <= 1e-13

    @given(st.integers(2, 40), DENSITIES, st.integers(0, 2**30))
    @example(2, 0.5, 1)
    @example(2, 1.0, 2)
    @example(200, 0.5, 3)
    @example(200, 1.0, 4)
    def test_empty_slow_classes_stay_empty(self, n, rho, seed):
        # if classes 1..j are empty, so P_j = 0, both terms of dP_j/dtau
        # vanish: a vehicle reaches a slow class only by braking to a
        # partner already in it.  Row j - 1 starts with classes 1..j empty,
        # their mass moved to class j + 1, and every stage, step end and
        # final state and derivative keeps them exactly zero
        f = random_state(n, rho, seed=seed)
        face = np.arange(n) < np.arange(1, n)[:, None]
        F0 = np.where(face, 0.0, f)
        F0[np.arange(n - 1), np.arange(1, n)] = np.cumsum(f)[1:]
        left = []

        def record(rows, t, h, F, Y, K):
            left.append(Y[face[rows]].any() or K[:, face[rows]].any())

        F, _, _, _, D, _ = dynamics._integrate_batch(F0, 0.05, 500.0, 1e-10, record=record)
        assert not any(left)
        assert not F[face].any() and not D[face].any()

    @given(st.integers(3, 8), st.integers(0, 2**30))
    @example(4, 0)
    def test_a_face_start_relaxes_to_the_shifted_closed_form(self, n, seed):
        # congested phase: a start with classes 1..j empty, j <= n - 2, stays
        # on that face, where the stencil is the (n - j)-class model's, so it
        # relaxes to j zeros and that model's closed form.  There P_1 = 0 and
        # lambda_1 = rho^2 (2 rho - 1) > 0: the state is an unstable
        # equilibrium, and only starts with f_1 > 0 reach the closed form.
        # To first order f - f* = J^-1 df/dtau on the face's hyperplane
        # sum = 0, and at rho = 0.7 J^-1 has 1-norm 1 / mu there, mu = rho^2
        # (2 rho - 1) the face's slowest rate (its mode moves mass out of the
        # lowest occupied class); so a run that stops with |df/dtau|_1 below
        # steady_tol is within steady_tol / mu, plus n ulps of rounding
        rho, config = 0.7, IntegrationConfig()
        mu = rho * rho * (2.0 * rho - 1.0)
        F0, want = np.zeros((n - 2, n)), np.zeros((n - 2, n))
        for j in range(1, n - 1):
            m = n - j
            F0[j - 1, j:] = random_state(m, rho, seed=seed + j)
            want[j - 1, j:] = equilibrium_recursive(m, rho).f_inf
            # the extreme points of the hyperplane's unit ball are (e_i - e_k) / 2
            J, E = np.vstack([jacobian(want[j - 1, j:]), np.ones(m)]), np.eye(m + 1)
            norm = max(
                np.abs(np.linalg.lstsq(J, E[i] - E[k], rcond=None)[0]).sum() / 2
                for i in range(m) for k in range(i + 1, m)
            )
            assert abs(norm * mu - 1.0) <= 1e-12, m
        F, conv, _, _ = integrate_batch(F0, config)
        assert conv.all()
        assert not F[np.arange(n) < np.arange(1, n - 1)[:, None]].any()
        assert np.abs(F - want).sum(axis=1).max() <= config.steady_tol / mu + n * 2.0**-52
        for f in F:
            assert stability_report(f).verdict == UNSTABLE


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPass:
    """One Dormand-Prince pass, and the loop's two ways of taking it."""

    @given(
        st.integers(2, 200),
        st.lists(DENSITIES, min_size=1, max_size=60),
        st.integers(0, 2**30),
    )
    @example(2, [0.0], 0)
    @example(200, [0.0, HALF_DOWN, 0.5, HALF_UP, 1.0] * 12, 1)
    def test_one_pass_matches_the_reference(
        self, rhs_batch_oracle, dp_step_oracle, n, rhos, seed
    ):
        rng = np.random.default_rng(seed)
        F = np.concatenate(
            [random_state_batch(n, r, 1, seed=seed + i) for i, r in enumerate(rhos)]
        )
        F[rng.random(F.shape) < 0.2] = 0.0
        h = rng.uniform(1e-3, 4.0, (F.shape[0], 1))
        k1 = dynamics._rhs_batch(F)
        assert same_bits(k1, rhs_batch_oracle(F))
        Y, K, C = dp_pass(F, h)
        Y_ref, K_ref = dp_step_oracle(F, h, k1)
        assert same_bits(Y, Y_ref)
        assert len(K) == len(K_ref) == 7
        assert all(same_bits(k, k_ref) for k, k_ref in zip(K, K_ref))
        # the running sums the step bound reads are the cumsum of Y
        assert same_bits(C[:, 1:], np.cumsum(Y_ref, axis=1)) and not C[:, 0].any()

    @given(st.integers(1, 60), st.integers(2, 200), st.integers(0, 2**30))
    @example(1, 2, 0)
    @example(1, 200, 1)
    @example(60, 200, 2)
    def test_a_reused_workspace_matches_a_fresh_one(self, dp_step_oracle, m, n, seed):
        # the weights are spread once per workspace, the step and the density
        # once per pass: two passes with different states and steps on one
        # workspace catch a buffer left stale
        rng = np.random.default_rng(seed)
        ws = dynamics._Workspace(m, n, dynamics._PASS_W)
        for rho in rng.random(2):
            F = np.asfortranarray(random_state_batch(n, rho, m, seed=seed))
            F[rng.random(F.shape) < 0.2] = 0.0
            h = rng.uniform(1e-3, 4.0, (m, 1))
            k1 = dynamics._rhs_batch(F)
            Y, K, C = (x.copy() for x in dp_pass(F, h, ws))
            Y_new, K_new, C_new = dp_pass(F, h)
            Y_ref, K_ref = dp_step_oracle(F, h, k1)
            assert same_bits(Y, Y_new) and same_bits(Y, Y_ref) and same_bits(C, C_new)
            assert all(
                same_bits(k, a) and same_bits(k, b) for k, a, b in zip(K, K_new, K_ref)
            )

    @given(st.integers(1, 60), st.integers(2, 40), st.integers(0, 2**30))
    @example(1, 2, 0)
    def test_stage_sums_match_the_python_sum(self, combine_oracle, m, n, seed):
        # signed zeros included: a stage column of -0.0 sums to +0.0
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((7, m, n)) * 10.0 ** rng.uniform(-300.0, 300.0, (7, m, 1))
        K[rng.random(K.shape) < 0.2] = 0.0
        K[rng.random(K.shape) < 0.2] = -0.0
        K[:, 0, 0] = -0.0
        tables = (*dynamics._A, dynamics._E, dynamics._D)
        stacked = (*dynamics._A_W, dynamics._E_W, dynamics._D_W)
        for weights, w in zip(tables, stacked):
            assert same_bits(dynamics._combine(w, K[: len(w)]), combine_oracle(weights, K))

    @given(
        st.integers(2, 40),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        st.floats(0.01, 1.0),
        st.floats(1.0, 20.0),
        st.booleans(),
        st.integers(0, 2**30),
    )
    # a first trial step of 4 is rejected by some rows and not others, so
    # passes gather rows; n = 8 and 9 are where a row sum's bits depend on
    # the memory it runs over
    @example(2, [0.02, *EDGES, 0.3, 0.7, 0.95], 4.0, 60.0, True, 0)
    @example(7, [0.02, *EDGES, 0.3, 0.7, 0.95], 4.0, 60.0, True, 1)
    @example(8, [0.02, *EDGES, 0.3, 0.7, 0.95], 4.0, 60.0, True, 2)
    @example(9, [0.02, *EDGES, 0.3, 0.7, 0.95], 4.0, 60.0, True, 3)
    @example(200, [0.02, *EDGES[1:]] + EDGES * 11, 4.0, 10.0, True, 4)
    @example(8, [0.6], 0.01, 400.0, False, 5)
    def test_loop_matches_the_row_major_reference(
        self, integrate_batch_oracle, n, rhos, dt, t_final, clamp, seed
    ):
        F0 = np.concatenate(
            [random_state_batch(n, r, 1, seed=seed + i) for i, r in enumerate(rhos)]
        )
        if clamp:
            # the first row starts inside the clamp window
            F0[0, -1] += F0[0, 0] + 5e-13
            F0[0, 0] = -5e-13
        runs = []
        for loop in (dynamics._integrate_batch, integrate_batch_oracle):
            stats, steps = BatchStats(), []
            out = loop(F0, dt, t_final, 1e-10, stats, lambda *step: steps.append(step))
            runs.append((out, stats, steps))
        (out, stats, steps), (want, want_stats, want_steps) = runs
        assert all(same_bits(x, y) for x, y in zip(out, want, strict=True))
        assert repr(stats) == repr(want_stats)
        assert len(steps) == len(want_steps)
        for step, want_step in zip(steps, want_steps):
            assert all(same_bits(x, y) for x, y in zip(step, want_step, strict=True))

    @given(
        st.integers(2, 40),
        st.integers(1, 30),
        st.integers(1, 3000),
        st.integers(0, 2**30),
    )
    # one sample short of a block, a whole block, and one sample over
    @example(6, 5, dynamics._DENSE_BLOCK // 6 - 1, 0)
    @example(6, 5, dynamics._DENSE_BLOCK // 6, 1)
    @example(6, 5, dynamics._DENSE_BLOCK // 6 + 1, 2)
    def test_dense_output_matches_the_reference_across_blocks(
        self, dense_oracle, n, steps, samples, seed
    ):
        rng = np.random.default_rng(seed)
        F, Y = rng.random((2, steps, n))
        K = rng.standard_normal((7, steps, n))
        h = rng.uniform(1e-3, 4.0, (steps, 1))
        at = np.sort(rng.integers(0, steps, samples))
        theta = rng.random((samples, 1))
        got = dynamics._dense(F, Y, K, h, at, theta, np.empty((samples, n)))
        want = dense_oracle(F[at], Y[at], [k[at] for k in K], h[at], theta)
        assert same_bits(got, want)

    def test_mixed_passes_equal_rows_alone(self, monkeypatch):
        # a first trial step of 4 is rejected by some rows and not others,
        # so the loop takes whole passes and passes that gather rows; the
        # first row starts inside the clamp window, so its first accepted
        # step is clamped in a gathering pass here and a whole pass alone
        n, rhos = 6, [0.02, 0.3, HALF_DOWN, HALF_UP, 0.7, 0.95, 1.0]
        F0 = np.concatenate(
            [random_state_batch(n, r, 1, seed=20 + i) for i, r in enumerate(rhos)]
        )
        F0[0, -1] += F0[0, 0] + 5e-13
        F0[0, 0] = -5e-13
        stats = [BatchStats()]
        rejected_before = []
        exact = dynamics._dp_step

        def marked(*args):
            rejected_before.append(stats[-1].rejected)
            return exact(*args)

        monkeypatch.setattr(dynamics, "_dp_step", marked)

        def run(F):
            # the loop's outputs, its stats, the midpoint of every accepted
            # step from the dense output, and which passes gathered rows
            stats.append(BatchStats())
            mid = [[] for _ in F]
            gathered = []

            def record(rows, t, h, F, Y, K):
                gathered.append(stats[-1].rejected > rejected_before[-1])
                theta = ((t + h / 2 - t) / h)[:, None]
                at = np.arange(rows.size)
                dense = dynamics._dense(F, Y, K, h[:, None], at, theta, np.empty(F.shape))
                for r, f in zip(rows, dynamics._clamp_batch(dense, stats[-1])):
                    mid[r].append(f)

            out = dynamics._integrate_batch(F, 4.0, 60.0, 1e-10, stats[-1], record)
            return out, stats[-1], [np.array(x) for x in mid], gathered

        batch, batch_stats, batch_mid, gathered = run(F0)
        assert any(gathered) and not all(gathered)
        assert batch_stats.max_clamp_delta > 0.0
        counts = np.zeros(3, dtype=int)
        for i in range(len(rhos)):
            alone, alone_stats, alone_mid, _ = run(F0[i : i + 1])
            for x, x_alone in zip(batch, alone):
                assert same_bits(x[i : i + 1], x_alone), f"row {i} diverged from batch"
            assert same_bits(batch_mid[i], alone_mid[0])
            counts += (alone_stats.rhs_evals, alone_stats.accepted, alone_stats.rejected)
        assert tuple(counts) == (
            batch_stats.rhs_evals, batch_stats.accepted, batch_stats.rejected
        )

    def test_nothing_handed_on_is_a_view_of_the_pass_buffers(
        self, integrate_batch_oracle, monkeypatch
    ):
        # a first trial step of 4: a pass where every row accepts is followed
        # by one that rejects a row, whose first stage must still be its own,
        # not the rejected attempt's last stage; a row alone takes the same
        # passes, so the row-major reference is checked too
        rhos = (0.7, 1.0, 0.3, 0.5, 0.5)
        F0 = np.concatenate(
            [random_state_batch(4, r, 1, seed=753 + i) for i, r in enumerate(rhos)]
        )
        stats, passes = BatchStats(), []
        exact = dynamics._dp_step

        def marked(F, *args):
            passes.append((F.shape[0], stats.rejected))
            return exact(F, *args)

        monkeypatch.setattr(dynamics, "_dp_step", marked)

        def run(F, stats, loop=dynamics._integrate_batch):
            steps = []
            out = loop(F, 4.0, 60.0, 1e-10, stats, lambda *step: steps.append(step))
            return out, steps

        out, steps = run(F0, stats)
        rejected = np.diff([r for _, r in passes] + [stats.rejected])
        assert any(
            rejected[i] == 0 and 0 < rejected[i + 1] < passes[i + 1][0]
            for i in range(len(passes) - 1)
        )
        want, want_steps = run(F0, BatchStats(), integrate_batch_oracle)
        assert all(same_bits(x, y) for x, y in zip(out, want, strict=True))
        assert len(steps) == len(want_steps)
        for step, want_step in zip(steps, want_steps):
            assert all(same_bits(x, y) for x, y in zip(step, want_step, strict=True))
        # no recorded array shares memory with another step's or with the
        # returned states and derivatives
        arrays = [(i, x) for i, step in enumerate(steps) for x in step]
        for i, x in arrays:
            assert not any(np.shares_memory(x, y) for j, y in arrays if j > i)
            assert not np.shares_memory(x, out[0]) and not np.shares_memory(x, out[4])
        for r in range(len(rhos)):
            alone, alone_steps = run(F0[r : r + 1], BatchStats())
            for x, x_alone in zip(out, alone, strict=True):
                assert same_bits(x[r : r + 1], x_alone), f"row {r} diverged from the batch"
            # row r's part of each step it took in the batch
            mine = [(step, list(step[0]).index(r)) for step in steps if r in step[0]]
            assert len(mine) == len(alone_steps)
            for (step, k), want in zip(mine, alone_steps):
                t, h, F, Y, K = step[1:]
                got = (t[k : k + 1], h[k : k + 1], F[k : k + 1], Y[k : k + 1], K[:, k : k + 1])
                assert all(same_bits(x, y) for x, y in zip(got, want[1:], strict=True))


class TestOracle:
    @pytest.mark.parametrize("n, rho, seed", [(3, 0.3, 1), (5, 0.7, 2), (8, 0.9, 3)])
    def test_trajectory_matches_fine_rk4(self, n, rho, seed):
        # samples every 0.1 up to t = 10 against RK4 at step 0.005
        start = random_state(n, rho, seed=seed)
        config = IntegrationConfig(dt=0.1, t_final=10.0, steady_tol=0.0)
        times, samples, _ = run_trajectory(start, config)
        want = rk4_oracle(start, 0.005, 20, 100)
        assert times.shape == (101,)
        assert np.abs(samples - want).max() <= 1e-8


class TestExactCascade:
    """f_1 = P_1 against the exact logistic of the first cumulative level.

    Each accepted step keeps its weighted local error, with weights
    _ATOL + _RTOL |f|, at most one in the RMS norm, and the logistic
    contracts onto its attractor, so the global error stays a small
    multiple of _ATOL + _RTOL rho: measured at most 1.8 times that for
    n = 2..200 up to t = 60 at eta0 = 0.5..3, model times tau = 30..180
    (1,000 draws), and 2.8 times for n = 2 up to tau = 100.  The bound is
    5 times.
    """

    @staticmethod
    def bound(rho):
        return 5.0 * (dynamics._ATOL + dynamics._RTOL * rho)

    @given(
        n=st.integers(2, 200),
        rho=st.floats(0.0, 1.0),
        eta0=st.floats(0.5, 3.0),
        seed=st.integers(0, 2**30),
    )
    @example(n=2, rho=0.0, eta0=1.0, seed=1)
    @example(n=200, rho=0.0, eta0=3.0, seed=2)
    @example(n=2, rho=HALF_DOWN, eta0=0.5, seed=3)
    @example(n=200, rho=HALF_DOWN, eta0=1.0, seed=4)
    @example(n=2, rho=0.5, eta0=3.0, seed=5)
    @example(n=200, rho=0.5, eta0=0.5, seed=6)
    @example(n=2, rho=HALF_UP, eta0=1.0, seed=7)
    @example(n=200, rho=HALF_UP, eta0=3.0, seed=8)
    @example(n=2, rho=1.0, eta0=0.5, seed=9)
    @example(n=200, rho=1.0, eta0=1.0, seed=10)
    def test_first_class_follows_the_logistic(self, exact_p1, n, rho, eta0, seed):
        # eta0 only sets the clock: dt = 0.5 and t = 60 at eta0 are these
        # times eta0 in model time
        start = random_state(n, rho, seed=seed)
        config = IntegrationConfig(dt=0.5 * eta0, t_final=60.0 * eta0, steady_tol=0.0)
        tau, samples, _ = run_trajectory(start, config)
        rho = float(start.sum())
        want = exact_p1(start[0], rho, tau)
        assert np.abs(samples[:, 0] - want).max() <= self.bound(rho)

    @pytest.mark.parametrize("rho", [0.1, 0.3, HALF_DOWN, 0.5, HALF_UP, 0.7, 0.9, 1.0])
    def test_two_classes_follow_the_logistic(self, exact_p1, rho):
        # at n = 2 the state is (P_1, rho - P_1); at rho = 1/2 it decays
        # algebraically, like 4 / tau
        start = random_state(2, rho, seed=2)
        config = IntegrationConfig(dt=0.25, t_final=100.0, steady_tol=0.0)
        tau, samples, _ = run_trajectory(start, config)
        rho = float(start.sum())
        p1 = exact_p1(start[0], rho, tau)
        want = np.column_stack([p1, rho - p1])
        assert tau[-1] == 100.0
        assert np.abs(samples - want).max() <= self.bound(rho)


class TestObservables:
    def test_flux_and_mean_speed(self):
        obs = observables(np.array([0.1, 0.2, 0.3]))
        assert abs(obs.rho - 0.6) <= 1e-15
        assert abs(obs.q - (0.2 * 0.5 + 0.3)) <= 1e-15
        assert abs(obs.u - obs.q / 0.6) <= 1e-15

    def test_empty_road_has_unit_speed(self):
        obs = observables(np.zeros(4))
        assert obs.q == 0.0
        assert obs.u == 1.0

    def test_state_is_one_vector_of_two_classes_or_more(self):
        for f in (np.zeros((2, 3)), np.array([0.5])):
            with pytest.raises(ValueError):
                observables(f)


    @given(
        st.integers(2, 300),
        st.integers(1, 2001),
        st.sampled_from(["C", "F", "strided"]),
        st.integers(0, 2**30),
    )
    @example(300, 2001, "F", 0)
    @example(2, 1, "strided", 1)
    def test_batched_flux_is_the_per_row_dot(self, n, m, layout, seed):
        rng = np.random.default_rng(seed)
        F = rng.random((m, n)) * 10.0 ** rng.uniform(-300.0, 5.0, (m, 1))
        F[rng.random((m, n)) < 0.1] = 0.0
        F[rng.random((m, n)) < 0.05] = 5e-324
        F[rng.random((m, n)) < 0.05] = 1e-300
        F[rng.integers(m)] = 0.0  # an empty road: rho = 0, u = 1
        if layout == "F":
            F = np.asfortranarray(F)
        elif layout == "strided":
            wide = np.zeros((2 * m, 2 * n + 1))
            wide[::2, 1::2] = F
            F = wide[::2, 1::2]
        speeds = build_lattice(n).speeds
        rho = F.sum(axis=1)
        q, u = dynamics._flux_speed(F, rho)
        assert same_bits(q, np.array([speeds @ f for f in F]))
        want = [float(a) / float(r) if r > 0 else 1.0 for a, r in zip(q, rho)]
        assert same_bits(u, np.array(want))


class TestContinuity:
    def test_gap_respects_growth_bound(self):
        # the 25 pairs, drawn as one pair at a time, and an identical pair,
        # stepped once per t; at t = 300 the float 4 exp(3 t) overflows
        rng = np.random.default_rng(17)
        rhos, pairs = [], []
        for _ in range(25):
            rhos.append(float(rng.uniform(0.05, 0.95)))
            pairs.append(random_state_batch(4, rhos[-1], 2, seed=int(rng.integers(1 << 30))))
        rhos.append(rhos[0])
        pairs.append(pairs[0][[0, 0]])
        pairs = np.array(pairs)
        for t in (0.5, 1.0, 2.0, 300.0):
            gaps, bounds = continuity_gap(pairs[:, 0], pairs[:, 1], t)
            for rho, gap, bound in zip(rhos, gaps, bounds):
                assert gap <= bound, f"n=4 rho={rho} t={t}: {gap} > {bound}"
            assert gaps[-1] == bounds[-1] == 0.0
        # 4 exp(900) |g0 - f0|_1 exceeds the largest float for every drawn pair
        assert np.all(bounds[:-1] == math.inf)

    @given(st.integers(2, 12), DENSITIES, st.integers(0, 2**30))
    @example(40, 0.5, 0)
    @example(2, 0.0, 1)
    @example(6, 0.5, 2)
    @example(12, 1.0, 3)
    def test_gap_never_exceeds_the_ceiling(self, n, rho, seed):
        # no gap exceeds 2 rho + 4 rho^3 (continuity_gap): two drawn pairs
        # and the extreme one, all mass in class 1 against all in class n.
        # The states at tau are clamped, so nonnegative, and their
        # derivatives are taken there; a row's 1-norm is its density, off
        # rho by at most the 1e-13 drift the conservation property allows,
        # which moves the ceiling by at most 16 drifts, and the cumulative
        # sums and 1-norms round by at most n ulps each, n^2 over a row
        starts = random_state_batch(n, rho, 4, seed=seed)
        extreme = np.zeros((2, n))
        extreme[0, 0] = extreme[1, -1] = rho
        F0, G0 = np.vstack([starts[:2], extreme[:1]]), np.vstack([starts[2:], extreme[1:]])
        ceiling = 2 * rho + 4 * rho**3
        slack = 16 * 1e-13 + n * n * np.finfo(float).eps * ceiling
        for tau in (1e-4, 5.0, 300.0):
            gaps, _ = continuity_gap(F0, G0, tau)
            assert gaps.max() <= ceiling + slack, f"n={n} rho={rho} tau={tau}: {gaps}"

    @pytest.mark.parametrize("tau", [236.1, 236.2, 236.6, 300.0, 480.0])
    def test_bound_past_the_float_overflow(self, tau):
        # pairs one subnormal apart, 1.6 apart and identical: 4 exp(3 tau)
        # is finite up to tau = 236.13, where only the far pair's product
        # overflows; past it every pair that is apart has the bound inf,
        # and at every tau the identical pair has 0 (an overflow warning
        # would fail the test)
        F0 = np.array([[0.0, 0.4], [0.0, 0.8], [0.3, 0.3]])
        G0 = np.array([[5e-324, 0.4], [0.8, 0.0], [0.3, 0.3]])
        bounds = continuity_gap(F0, G0, tau)[1].tolist()
        near = 4.0 * math.exp(3.0 * tau) * 5e-324 if tau < 236.13 else math.inf
        assert bounds == [near, math.inf, 0.0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12, 40])
    def test_batched_core_matches_one_pair_calls(self, continuity_gap_oracle, n):
        starts = np.concatenate(
            [random_state_batch(n, rho, 4, seed=50 + n) for rho in (0.05, 0.3, 0.5, 0.7, 0.95)]
        )
        # and a pair one subnormal apart and an identical pair, whose bounds
        # are inf and 0 past the float overflow of 4 exp(3 t)
        f = starts[0].copy()
        f[-1] += f[0]
        f[0] = 0.0
        g = f.copy()
        g[0] = 5e-324
        F0, G0 = np.vstack([starts[0::2], f, f]), np.vstack([starts[1::2], g, f])
        # t = 300 is past that overflow; it runs at three widths only,
        # about 0.3 s each
        long = (300.0,) if n in (2, 6, 40) else ()
        for t in (0.5, 1.0, 2.0, 5.0, *long):
            gaps, bounds = continuity_gap(F0, G0, t)
            want_gaps, want_bounds = continuity_gap_oracle(F0, G0, t)
            assert same_bits(gaps, want_gaps) and same_bits(bounds, want_bounds), f"n={n} t={t}"
            for i in range(len(F0)):
                one = np.concatenate(continuity_gap(F0[i : i + 1], G0[i : i + 1], t))
                assert same_bits(np.array([gaps[i], bounds[i]]), one), f"n={n} t={t} pair {i}"

    def test_gap_shrinks_in_time(self):
        # trajectories contract toward the shared equilibrium, so the
        # measured gap at t=50 sits far below the exponential bound
        pair = random_state_batch(3, 0.8, 2, seed=23)
        early, _ = continuity_gap(pair[:1], pair[1:], 0.5)
        late, _ = continuity_gap(pair[:1], pair[1:], 50.0)
        assert late[0] < early[0] * 1e-2

    def test_density_mismatch_rejected(self):
        a = np.array([[0.2, 0.2]])
        b = np.array([[0.2, 0.3]])
        with pytest.raises(ValueError):
            continuity_gap(a, b, 1.0)
        # one unequal pair among equal ones fails the whole batch
        F0, G0 = np.array([[0.2, 0.2], [0.2, 0.2]]), np.array([[0.3, 0.1], [0.2, 0.3]])
        with pytest.raises(ValueError, match="density mismatch"):
            continuity_gap(F0, G0, 1.0)

    def test_pairs_take_batches_of_one_shape(self):
        a = np.array([[0.2, 0.2], [0.1, 0.3]])
        for b in (a[:1], np.array([[0.2, 0.1, 0.1], [0.1, 0.2, 0.1]])):
            with pytest.raises(ValueError) as exc:
                continuity_gap(a, b, 1.0)
            assert str(exc.value) == f"pairs need batches of one shape, got {a.shape} and {b.shape}"

    def test_nonpositive_time_rejected(self):
        a = np.array([[0.2, 0.2]])
        b = np.array([[0.3, 0.1]])
        with pytest.raises(ValueError):
            continuity_gap(a, b, 0.0)

    def test_takes_no_config(self):
        # the pairs run from IntegrationConfig's first step to tau with no
        # steady exit, so no setting is left to the caller
        a = np.array([[0.2, 0.2]])
        b = np.array([[0.3, 0.1]])
        with pytest.raises(TypeError):
            continuity_gap(a, b, 1.0, IntegrationConfig())


class TestRandomStates:
    def test_density_and_positivity(self):
        rng = np.random.default_rng(31)
        for n in (2, 4, 8):
            for _ in range(20):
                rho = float(rng.uniform(0, 1))
                F = random_state_batch(n, rho, 5, seed=int(rng.integers(1 << 30)))
                assert F.min() >= 0.0
                assert np.abs(F.sum(axis=1) - rho).max() <= 1e-15 * n

    def test_seed_reproducibility(self):
        a = random_state_batch(5, 0.6, 4, seed=99)
        b = random_state_batch(5, 0.6, 4, seed=99)
        c = random_state_batch(5, 0.6, 4, seed=100)
        assert np.all(a == b)
        assert np.any(a != c)

    def test_single_state_matches_batch_head(self):
        st = random_state(4, 0.5, seed=12)
        F = random_state_batch(4, 0.5, 1, seed=12)
        assert st.tobytes() == F[0].tobytes()

    # numpy's default_rng(seed).random() is the oracle for the package's
    # stream: small seeds, the seeds verify draws with, and seeds of one to
    # seven 32-bit words; past four, SeedSequence mixes each extra word in
    STREAM_SEEDS = (
        list(range(200))
        + [dynamics.DEFAULT_SEED + c * n for c in (1, 7, 13) for n in range(2, 41)]
        + [2**32 - 1, 2**32, 2**64 + 5, 2**100, 2**128 + 3, 2**200 + 12345]
    )

    def test_stream_matches_numpy(self):
        for seed in self.STREAM_SEEDS:
            for count, n in ((1, 2), (1, 6), (3, 12), (6, 40)):
                got = np.array(_uniform(seed, count * (n - 1)))
                want = np.random.default_rng(seed).random((count, n - 1)).ravel()
                assert got.tobytes() == want.tobytes(), (seed, count, n)

    def test_batch_matches_numpy_split(self):
        for seed in (0, 11, dynamics.DEFAULT_SEED + 13 * 6, 2**64 + 5):
            cuts = np.sort(np.random.default_rng(seed).random((4, 5)), axis=1)
            want = np.diff(np.concatenate([np.zeros((4, 1)), cuts, np.ones((4, 1))], axis=1), axis=1)
            assert random_state_batch(6, 0.7, 4, seed).tobytes() == (want * 0.7).tobytes()

    def test_stream_slices_match_numpy_uniform(self):
        # verify draws 8 * (n_max - 1) values once and takes 8 per n, where
        # it used to call uniform(0, 1, 8) once per n
        for m in (1, 5, 39):
            rng = np.random.default_rng(dynamics.DEFAULT_SEED)
            want = np.concatenate([rng.uniform(0, 1, 8) for _ in range(m)])
            got = np.array(_uniform(dynamics.DEFAULT_SEED, 8 * m))
            assert got.tobytes() == want.tobytes()

    def test_numpy_integer_seed(self):
        for seed in (np.int64(7), np.uint32(2**32 - 1), np.uint64(2**64 - 1)):
            want = np.random.default_rng(seed).random(3)
            assert np.array(_uniform(seed, 3)).tobytes() == want.tobytes()
            assert np.all(random_state_batch(3, 0.4, 2, seed) == random_state_batch(3, 0.4, 2, int(seed)))

    def test_negative_seed_raises_numpy_error(self):
        for seed in (-1, np.int64(-5), -(2**70)):
            with pytest.raises(ValueError) as ours:
                random_state_batch(3, 0.5, 2, seed)
            with pytest.raises(ValueError) as numpys:
                np.random.default_rng(seed)
            assert str(ours.value) == str(numpys.value) == "expected non-negative integer"

    def test_non_integer_seed_rejected(self):
        for seed in (1.5, "7", None):
            with pytest.raises(TypeError):
                random_state(3, 0.5, seed)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_state_batch(1, 0.5, 3)
        with pytest.raises(ValueError):
            random_state_batch(3, 1.5, 3)
        with pytest.raises(ValueError):
            random_state_batch(3, 0.5, 0)
