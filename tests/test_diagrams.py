"""Diagram sweeps, critical-density detection, and the text writers."""

import collections
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kinetic_traffic
from kinetic_traffic import (
    METHOD_INTEGRATE,
    METHOD_RECURSIVE,
    Diagram,
    IntegrationConfig,
    MalformedDiagramError,
    build_grid,
    build_lattice,
    detect_sigma,
    equilibrium_recursive,
    rescale_dimensional,
    sweep,
)
from kinetic_traffic import serialize
from kinetic_traffic.dynamics import random_state, run_trajectory
from kinetic_traffic.equilibrium import EquilibriumResult
from kinetic_traffic.serialize import (
    diagram_csv,
    diagram_json,
    diagram_svg,
    equilibrium_json,
    _SLOT,
    _TABLE_BLOCK,
    _pattern15,
    _rows15,
    fmt15,
    texts15,
    trajectory_csv,
)


class TestGrid:
    def test_default_contains_landmarks(self):
        # 201 points, the default of diagram --rho-steps
        grid = build_grid(201)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert 0.5 in grid
        assert grid.size == 201

    def test_critical_point_inserted_when_off_grid(self):
        grid = build_grid(20)
        assert 0.5 in grid
        assert grid.size == 21
        assert np.all(np.diff(grid) > 0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_grid(1)

    def test_equals_the_sorted_union_with_one_half(self):
        # linspace hits 1/2 exactly at some odd step counts and misses it
        # by an ulp at others; either way the grid is the sorted union
        for steps in range(2, 3002):
            grid = np.linspace(0.0, 1.0, steps)
            want = np.unique(np.concatenate([grid, [0.5]]))
            assert build_grid(steps).tobytes() == want.tobytes(), steps

    def test_does_not_load_numpy_ma(self):
        # np.unique would import numpy.ma on its first call
        src = os.path.dirname(os.path.dirname(kinetic_traffic.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from kinetic_traffic.diagrams import build_grid; "
             "build_grid(20); build_grid(51); print('numpy.ma' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestRecursiveSweep:
    def test_free_phase_is_exact(self):
        d = sweep(4, build_grid(41))
        for p in d.points:
            if p.rho <= 0.5:
                assert p.q == p.rho
                assert p.u == 1.0
                assert p.phase == "free"
            else:
                assert p.phase == "congested"
                assert p.u < 1.0
        assert d.sigma == 0.5
        assert d.q_max == 0.5

    def test_matches_pointwise_recursion(self):
        lat = build_lattice(5)
        d = sweep(5, build_grid(31))
        for p in d.points:
            q = float(lat.speeds @ equilibrium_recursive(5, p.rho).f_inf)
            assert p.q == q
            assert p.u == (q / p.rho if p.rho > 0 else 1.0)

    def test_congested_flux_decreases(self):
        d = sweep(3, build_grid(101))
        qs = [p.q for p in d.points if p.rho >= 0.5]
        assert all(b < a for a, b in zip(qs, qs[1:]))
        assert d.points[-1].q == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sweep(3, build_grid(11), method="bisect")
        with pytest.raises(TypeError):
            sweep(3)
        with pytest.raises(ValueError):
            sweep(3, np.array([0.5]))
        with pytest.raises(ValueError):
            sweep(3, np.array([0.3, 0.2]))
        with pytest.raises(ValueError):
            sweep(3, np.array([0.2, 1.2]))


class TestIntegrateSweep:
    def test_agrees_with_recursion_where_converged(self):
        grid = build_grid(11)
        config = IntegrationConfig(dt=0.05, t_final=2000.0)
        di = sweep(2, grid, METHOD_INTEGRATE, config=config)
        dr = sweep(2, grid)
        checked = 0
        for a, b in zip(di.points, dr.points):
            if not a.converged:
                # the only stall on this grid is the critical point,
                # where relaxation is algebraic instead of exponential
                assert a.rho == 0.5
                continue
            checked += 1
            assert abs(a.q - b.q) <= 1e-6, f"rho={a.rho}"
        assert checked >= 9

    def test_sigma_from_relaxed_states(self):
        grid = np.array([0.1, 0.2, 0.3, 0.4, 0.45, 0.6, 0.7, 0.8])
        config = IntegrationConfig(dt=0.05, t_final=2000.0)
        d = sweep(2, grid, METHOD_INTEGRATE, config=config)
        assert all(p.converged for p in d.points)
        assert d.sigma == 0.45


def _columns(rows):
    """Diagram's column arguments from (rho, q, u, phase, converged) rows."""
    rho, q, u, phase, converged = zip(*rows)
    return {"rho": rho, "q": q, "u": u, "phase": phase, "converged": converged}


class TestDetectSigma:
    def _diagram(self, rows):
        return Diagram(
            n=2, method=METHOD_RECURSIVE, units="dimensionless",
            sigma=float("nan"), q_max=1.0, **_columns(rows),
        )

    def test_picks_last_full_speed_density(self):
        d = self._diagram([
            (0.0, 0.0, 1.0, "free", True),
            (0.25, 0.25, 1.0, "free", True),
            (0.5, 0.5, 1.0, "free", True),
            (0.75, 0.25, 1.0 / 3.0, "congested", True),
        ])
        assert detect_sigma(d) == 0.5

    def test_ignores_unconverged_points(self):
        d = self._diagram([
            (0.0, 0.0, 1.0, "free", True),
            (0.25, 0.25, 1.0, "free", True),
            (0.5, 0.4, 0.8, "free", False),
            (0.75, 0.25, 1.0 / 3.0, "congested", True),
        ])
        assert detect_sigma(d) == 0.25

    def test_no_free_phase_is_malformed(self):
        d = self._diagram([
            (0.0, 0.0, 1.0, "free", True),
            (0.4, 0.2, 0.5, "free", True),
            (0.8, 0.2, 0.25, "congested", True),
        ])
        with pytest.raises(MalformedDiagramError):
            detect_sigma(d)

    def test_all_free_raises_warning(self):
        d = self._diagram([
            (0.0, 0.0, 1.0, "free", True),
            (0.5, 0.5, 1.0, "free", True),
            (1.0, 1.0, 1.0, "free", True),
        ])
        with pytest.warns(UserWarning):
            sigma = detect_sigma(d)
        assert sigma == 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_the_integrate_sweep(self, n):
        # an integrate sweep stops short of u = 1 in the free phase, so it
        # takes the coarser INTEGRATE_U_TOL; with U_TOL there is no free
        # point at n = 2, 3 and the free phase ends early from n = 4 on
        d = sweep(n, build_grid(51), METHOD_INTEGRATE)
        assert detect_sigma(d) == d.sigma

    def test_rejects_physical_units(self):
        d = sweep(2, build_grid(11))
        phys = rescale_dimensional(d)
        with pytest.raises(ValueError):
            detect_sigma(phys)


class TestRescale:
    def test_default_parameters_give_road_units(self):
        d = sweep(3, build_grid(21))
        phys = rescale_dimensional(d)
        assert phys.units == "physical"
        assert phys.sigma == 100.0
        assert phys.q_max == 10000.0
        assert phys.points[-1].rho == 200.0
        free = [p for p in phys.points if p.phase == "free"]
        assert all(p.u == 100.0 for p in free)

    def test_preserves_flags_and_phases(self):
        d = sweep(3, build_grid(21))
        phys = rescale_dimensional(d)
        for a, b in zip(d.points, phys.points):
            assert a.phase == b.phase
            assert a.converged == b.converged

    def test_cannot_rescale_twice(self):
        d = sweep(2, build_grid(11))
        phys = rescale_dimensional(d)
        with pytest.raises(ValueError):
            rescale_dimensional(phys)

    def test_takes_no_parameters(self):
        # the jam density and top speed are the constants RHO_MAX and V_MAX
        d = sweep(2, build_grid(11))
        with pytest.raises(TypeError):
            rescale_dimensional(d, object())
        phys = rescale_dimensional(d)
        assert phys.rho.tolist() == (d.rho * kinetic_traffic.RHO_MAX).tolist()
        assert phys.u.tolist() == (d.u * kinetic_traffic.V_MAX).tolist()


class TestDiagramValidation:
    def test_needs_increasing_grid(self):
        with pytest.raises(ValueError):
            Diagram(n=2, method="recursive", units="dimensionless",
                    sigma=0.5, q_max=0.5, rho=[0.5, 0.2], q=[0.5, 0.2], u=[1.0, 1.0],
                    phase=["free", "free"], converged=[True, True])
        # a nan compares false either way, so the order check lets it through
        d = Diagram(n=2, method="recursive", units="dimensionless",
                    sigma=0.5, q_max=0.5, rho=[5e-324, float("nan")], q=[0.0, 0.0],
                    u=[1.0, 1.0], phase=["free", "free"], converged=[True, True])
        assert np.isnan(d.rho[1])

    def test_columns_must_agree_in_length(self):
        with pytest.raises(ValueError):
            Diagram(n=2, method="recursive", units="dimensionless",
                    sigma=0.5, q_max=0.5, rho=[0.2, 0.5], q=[0.2, 0.5], u=[1.0, 1.0],
                    phase=["free"], converged=[True, True])

    def test_columns_are_read_only_copies(self):
        rho = np.array([0.2, 0.5])
        d = Diagram(n=2, method="recursive", units="dimensionless",
                    sigma=0.5, q_max=0.5, rho=rho, q=[0.2, 0.5], u=[1.0, 1.0],
                    phase=["free", "free"], converged=[True, True])
        rho[0] = 0.3
        assert d.rho[0] == 0.2
        with pytest.raises(ValueError):
            d.q[0] = 1.0

    def test_sweep_needs_finite_densities(self):
        # a NaN passed every range and order check and came out a point
        with pytest.raises(ValueError):
            sweep(6, np.array([0.1, np.nan, 0.7]))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Diagram(n=2, method="recursive", units="dimensionless",
                    sigma=0.5, q_max=0.5,
                    rho=[0.5], q=[0.5], u=[1.0], phase=["free"], converged=[True])


_DIAGRAM_EDGES = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324, 0.5]
_diagram_values = st.floats() | st.sampled_from(_DIAGRAM_EDGES)
_phases = st.text() | st.sampled_from(
    ["free", "congested", "100%", "%s", "%%d", "%(x)s", 'say "hi"', "é ü 漢", "\u2028"]
)


@st.composite
def _hand_built_diagrams(draw):
    rhos = sorted(draw(st.lists(st.floats(allow_nan=False), min_size=2, max_size=30, unique=True)))
    rows = [
        (rho, draw(_diagram_values), draw(_diagram_values), draw(_phases), draw(st.booleans()))
        for rho in rhos
    ]
    return Diagram(
        n=draw(st.integers()),
        method=draw(_phases),
        units=draw(st.sampled_from(["dimensionless", "physical"])),
        sigma=draw(_diagram_values),
        q_max=draw(_diagram_values),
        **_columns(rows),
    )


def _from_bits(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


def _around(x: float) -> list[float]:
    """x and its two neighbours on either side."""
    down, up = np.nextafter(x, -np.inf), np.nextafter(x, np.inf)
    return [float(np.nextafter(down, -np.inf)), float(down), x, float(up), float(np.nextafter(up, np.inf))]


# powers of ten +- 1 and 2 ulp through both ends of the fast exponent range
_POWERS_OF_TEN = [y for k in range(-102, 103) for y in _around(float(f"1e{k}"))]
_raw_floats = st.floats() | st.integers(0, 2**64 - 1).map(_from_bits)


# a few values, each drawn any number of times, in any order
_repeating_floats = st.lists(_raw_floats, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=60)
)
_NAN_PAYLOADS = [_from_bits(0x7FF8000000000000), _from_bits(0xFFF0000000000001)]


def _percent_rows(block: np.ndarray) -> str:
    """The %.15g rows of a block by %, the oracle for _rows15."""
    rows, width = block.shape
    return (("%.15g," * (width - 1) + "%.15g\n") * rows) % tuple(block.ravel().tolist())


class TestFormatting:
    def test_fifteen_significant_digits(self):
        assert fmt15(0.5) == "0.5"
        assert fmt15(1.0 / 3.0) == "0.333333333333333"
        assert fmt15(float("nan")) == "nan"
        assert fmt15(float("inf")) == "inf"

    def test_near_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            x = float(rng.uniform(-1, 1)) * 10 ** int(rng.integers(-8, 8))
            back = float(fmt15(x))
            assert abs(back - x) <= 5e-15 * abs(x)

    @given(st.integers(1, 12), st.lists(_raw_floats, min_size=1, max_size=300))
    @example(4, [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308])
    @example(5, _POWERS_OF_TEN)
    @example(3, [9.99999999999999e-14, 9.999999999999995e14, 1e15, -1e15, 999999999999999.4])
    @example(2, [1e14 + 0.5, 1e14 + 1.5, 123456789012344.5, 123456789012345.5, 1e15 - 0.5])
    @example(1, [float("nan"), -float("nan"), float("inf"), -float("inf"), 0.07, 316.34])
    def test_rows15_matches_percent(self, width, values):
        # every draw, NaN, infinities and subnormals included, is either
        # certified or left to %, and the text is %'s byte for byte
        block = np.resize(np.array(values), (-(-len(values) // width), width))
        assert _rows15(block) == _percent_rows(block)

    @given(_repeating_floats)
    @example([0.0, -0.0, 0.0, -0.0])
    @example(_NAN_PAYLOADS + [1.5] + _NAN_PAYLOADS[::-1])
    @example([float("inf"), -float("inf"), float("inf"), 2.0])
    @example([5e-324, -5e-324, 5e-324, 0.0])
    @example([1e15 - 1, 1e15, 1e15 - 1, -1e15])
    @example(_around(0.1) + _around(1e15) + _around(-1e-5))
    @example([0.7])
    @example([])
    def test_texts15_matches_percent_per_value(self, json_value_oracle, values):
        # by bit pattern: -0.0 is no 0.0, and NaNs of any payload are nan
        texts, json_texts = texts15(np.array(values, np.float64))
        assert texts == ["%.15g" % x for x in values]
        assert json_texts == [json_value_oracle(x) for x in values]
        assert (json_texts is texts) == all(map(np.isfinite, values))

    def test_exact_ties_are_left_to_percent(self):
        k = np.arange(10**14, 10**15, 10**14 // 7 + 3, dtype=np.int64)
        ties = k.astype(np.float64) + 0.5
        assert (_pattern15(ties)[0] < 4).all()
        assert _rows15(ties[:, None]) == _percent_rows(ties[:, None])


class TestWriters:
    def test_diagram_csv_layout(self):
        d = sweep(2, build_grid(11))
        text = diagram_csv(d)
        lines = text.strip().split("\n")
        assert lines[0] == "rho,q,u,phase"
        assert len(lines) == 12
        assert lines[1] == "0,0,1,free"
        assert lines[-1] == "1,0,0,congested"

    def test_diagram_json_schema(self):
        d = sweep(3, build_grid(11))
        payload = json.loads(diagram_json(d))
        assert sorted(payload) == ["method", "n", "points", "q_max", "sigma"]
        assert payload["n"] == 3
        assert payload["sigma"] == 0.5
        point = payload["points"][0]
        assert sorted(point) == ["converged", "phase", "q", "rho", "u"]

    def test_writers_are_deterministic(self):
        a = sweep(4, build_grid(21))
        b = sweep(4, build_grid(21))
        assert diagram_csv(a) == diagram_csv(b)
        assert diagram_json(a) == diagram_json(b)
        assert diagram_svg(a) == diagram_svg(b)

    def test_trajectory_csv_layout(self):
        times = np.array([0.0, 0.5])
        samples = np.array([[0.1, 0.1, 0.1], [0.05, 0.1, 0.15]])
        text = "".join(trajectory_csv(times, samples))
        lines = text.strip().split("\n")
        assert lines[0] == "t,f_1,f_2,f_3,rho,q,u"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert abs(float(first[4]) - 0.3) <= 1e-15
        # the checks run at the call, before the first block is asked for
        with pytest.raises(ValueError):
            trajectory_csv(times, samples[:, :1])
        with pytest.raises(ValueError):
            trajectory_csv(times, samples[0])
        with pytest.raises(ValueError):
            trajectory_csv(times[:1], samples)

    @given(
        st.integers(2, 40),
        st.sampled_from([1, 1023, 1024, 1025]),
        st.booleans(),
        st.integers(0, 2**30),
    )
    @example(2, 1, False, 0)
    @example(40, 1025, True, 1)
    @example(6, _TABLE_BLOCK // 10, False, 2)
    @example(6, _TABLE_BLOCK // 10 + 1, False, 3)
    @settings(max_examples=20)  # each example formats up to 45,000 floats twice
    def test_trajectory_csv_matches_the_row_by_row_writer(
        self, trajectory_csv_oracle, n, m, fortran, seed
    ):
        rng = np.random.default_rng(seed)
        samples = rng.random((m, n)) * (10.0 ** rng.uniform(-300.0, 0.0, (m, 1))) / n
        samples[rng.random((m, n)) < 0.1] = 0.0
        samples[rng.random((m, n)) < 0.05] = 5e-324
        samples[rng.random((m, n)) < 0.05] = 1e-310
        samples[rng.integers(m)] = 0.0  # an empty road: rho = 0, u = 1
        samples[rng.integers(m)] = 5e-324  # subnormal classes only
        if fortran:
            samples = np.asfortranarray(samples)
        times = np.cumsum(rng.exponential(0.01, m)) - 0.01
        text = "".join(trajectory_csv(times, samples))
        assert text == trajectory_csv_oracle(times, samples, build_lattice(n))
        assert text.count("\n") == m + 1

    def test_trajectory_csv_splices_percent_where_nothing_is_certified(
        self, trajectory_csv_oracle, monkeypatch
    ):
        rng = np.random.default_rng(4)
        samples = rng.random((700, 5)) * 10.0 ** rng.integers(-120, 2, (700, 1)) / 5
        samples[rng.random((700, 5)) < 0.1] = 0.0
        samples[rng.random((700, 5)) < 0.05] = 5e-324
        times = np.arange(700) * 0.01
        lat = build_lattice(5)
        monkeypatch.setattr(serialize, "_TIE", 1.0)  # no fraction is 1 away from 1/2
        key = _pattern15(np.column_stack([times, samples]).ravel())[0]
        assert (key < 8).all()  # only the zeros keep a template
        text = "".join(trajectory_csv(times, samples))
        assert text == trajectory_csv_oracle(times, samples, lat)

    def test_trajectory_csv_streams_in_bounded_memory(self):
        # blocks consumed and dropped as they come hold one block's work at
        # a time, so 8 times the rows move the peak by less than one
        # block's text: the whole text would add about 7 / 8 of its size
        n = 6
        m = 3 * (_TABLE_BLOCK // (n + 4))
        rng = np.random.default_rng(8)
        peaks = []
        for rows in (m, 8 * m):
            times, samples = np.arange(rows) * 0.01, rng.random((rows, n)) / n
            tracemalloc.start()
            try:
                collections.deque(trajectory_csv(times, samples), maxlen=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < _TABLE_BLOCK * _SLOT, f"peaks {peaks} bytes"

    def test_fast_path_certifies_the_simulate_table(self, monkeypatch):
        # simulate --n 6 --rho 0.6 --t-final 500 --dt 0.01 --seed 11: the
        # bytes would not change if the fast path fell back, only the time
        times, samples, _ = run_trajectory(
            random_state(6, 0.6, seed=11), IntegrationConfig(dt=0.01, t_final=500.0)
        )
        blocks = []
        monkeypatch.setattr(serialize, "_rows15", lambda b: blocks.append(b.copy()) or "")
        "".join(trajectory_csv(times, samples))
        key = _pattern15(np.concatenate([b.ravel() for b in blocks]))[0]
        assert key.size == 10 * len(times) > 300_000
        assert (key >= 4).mean() >= 0.99

    @staticmethod
    def _assert_writers_match(d, csv_oracle, json_oracle, svg_oracle):
        # the SVG's numpy mappings stay as silent as the scalar ones
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert diagram_csv(d) == csv_oracle(d)
            assert diagram_json(d) == json_oracle(d)
            assert diagram_svg(d) == svg_oracle(d)

    @given(n=st.integers(2, 200), size=st.integers(2, 2001), physical=st.booleans())
    @example(n=2, size=2, physical=False)
    @example(n=6, size=1023, physical=False)
    @example(n=40, size=1024, physical=True)
    @example(n=200, size=1025, physical=False)
    @example(n=40, size=2001, physical=True)
    @settings(max_examples=15)  # a sweep and three writers twice, up to 2,001 points
    def test_sweep_writers_match_the_per_point_writers(
        self, diagram_csv_oracle, diagram_json_oracle, diagram_svg_oracle, n, size, physical
    ):
        grid = np.linspace(0.0, 1.0, size)
        grid[np.abs(grid - 0.5).argmin()] = 0.5  # a free phase to delimit, same size
        d = sweep(n, grid)
        if physical:
            d = rescale_dimensional(d)
        self._assert_writers_match(d, diagram_csv_oracle, diagram_json_oracle, diagram_svg_oracle)

    def test_integrate_sweep_writers_match_the_per_point_writers(
        self, diagram_csv_oracle, diagram_json_oracle, diagram_svg_oracle
    ):
        config = IntegrationConfig(dt=0.05, t_final=2000.0)
        d = sweep(6, build_grid(51), METHOD_INTEGRATE, config=config)
        assert 0 < np.count_nonzero(~d.converged) < d.rho.size
        for doc in (d, rescale_dimensional(d)):
            self._assert_writers_match(
                doc, diagram_csv_oracle, diagram_json_oracle, diagram_svg_oracle
            )

    @given(_hand_built_diagrams())
    @example(Diagram(n=2, method="recursive", units="dimensionless", sigma=float("nan"),
                     q_max=float("nan"),
                     rho=[-0.0, 5e-324, float("nan")],
                     q=[float("nan"), -float("inf"), 5e-324],
                     u=[float("inf"), -0.0, float("nan")],
                     phase=["50% free", 'a "%s" é', "%(x)s %%"],
                     converged=[True, False, True]))
    @example(Diagram(n=3, method="%d", units="physical", sigma=float("inf"), q_max=-0.0,
                     rho=[-float("inf"), float("inf")], q=[1e308, -1e308], u=[-1e308, 1e308],
                     phase=["漢\u2028", "\x00%"], converged=[False, False]))
    def test_hand_built_writers_match_the_per_point_writers(
        self, diagram_csv_oracle, diagram_json_oracle, diagram_svg_oracle, d
    ):
        # non-finite values, signed zeros, subnormals and phases holding %,
        # quotes and non-ASCII text
        self._assert_writers_match(d, diagram_csv_oracle, diagram_json_oracle, diagram_svg_oracle)

    def test_equilibrium_json_takes_any_strings_and_numbers(self, equilibrium_json_oracle):
        # the phase names the record and the rule of class 1; the other
        # rules are fixed words
        for n, rho in ((5, 0.7), (5, 0.0), (2, 0.3)):
            odd = dataclasses.replace(equilibrium_recursive(n, rho), phase='%s "é" 50%')
            for q, u in ((float("nan"), -float("inf")), (-0.0, 5e-324)):
                want = equilibrium_json_oracle(odd, 200.0, q, u, False)
                assert equilibrium_json(odd, 200.0, q, u, False) == want

    def test_hand_built_record_keeps_signed_zeros_and_nan_apart(self, equilibrium_json_oracle):
        # 0.0, -0.0 and a NaN side by side in every column of the level table
        nan = float("nan")
        eq = EquilibriumResult(
            rho=0.7, phase="congested",
            f_inf=np.array([0.5, -0.0, 0.0, nan, 0.2]),
            b=np.array([-0.0, 0.0, nan]),
            c=np.array([0.0, nan, -0.0]),
            delta=np.array([nan, -0.0, 0.0]),
        )
        for scale_rho, q, u in ((1.0, -0.0, 0.0), (200.0, nan, -0.0), (-1.0, 0.0, nan)):
            want = equilibrium_json_oracle(eq, scale_rho, q, u, True)
            assert equilibrium_json(eq, scale_rho, q, u, True) == want

    def test_record_formats_each_distinct_number_once(self, monkeypatch):
        # one % over the record's distinct bit patterns; at scale 1 the
        # f_inf key repeats the roots and adds none
        calls = []
        fmt_all = serialize._fmt_all
        monkeypatch.setattr(serialize, "_fmt_all", lambda v: calls.append(v) or fmt_all(v))
        eq = equilibrium_recursive(200, 0.3)
        equilibrium_json(eq, 1.0, 0.25, 0.5, True)
        (values,) = calls
        bits = np.array(values, np.float64).view(np.int64)
        assert len(set(bits.tolist())) == len(values) < 20

    def test_a_diagram_keeps_its_numbers_and_nothing_keeps_the_diagram(self, monkeypatch):
        # the CSV and the JSON share one formatting of the points, made on
        # first use, and the shared numbers hold no reference to the diagram
        calls = []
        texts15 = serialize.texts15
        monkeypatch.setattr(serialize, "texts15", lambda v: calls.append(np.shape(v)) or texts15(v))
        d = sweep(3, build_grid(11))
        for write in (diagram_json, diagram_csv, diagram_json, diagram_csv):
            write(d)
        assert calls == [(11, 3), (2,), (2,)]
        gone = weakref.ref(d)
        del d
        assert gone() is None

    def test_svg_is_wellformed_with_two_curves(self):
        d = sweep(3, build_grid(26))
        text = diagram_svg(d)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2
        labels = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert "flux" in " ".join(x for x in labels if x)

    def test_svg_physical_labels(self):
        d = rescale_dimensional(sweep(3, build_grid(26)))
        text = diagram_svg(d)
        assert "veh/km" in text
        assert "km/h" in text
