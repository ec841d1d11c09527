"""Command line behavior: plumbing, exit codes, determinism."""

import collections
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import pkgutil
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kinetic_traffic
from kinetic_traffic import (
    RHO_MAX,
    UNSTABLE,
    V_MAX,
    BatchStats,
    EquilibriumCandidate,
    GameTable,
    IntegrationConfig,
    build_game_table,
    build_grid,
    build_lattice,
    equilibrium_bruteforce,
    equilibrium_recursive,
    integrate_batch,
    observables,
    stability_report,
    sweep,
)
from kinetic_traffic.cli import main
from kinetic_traffic.dynamics import random_state, random_state_batch, run_trajectory
from kinetic_traffic.serialize import _TABLE_BLOCK, trajectory_csv
from kinetic_traffic import dynamics, serialize, verify
from kinetic_traffic.verify import VERIFY_DENSITIES, _check_uniqueness, run_suite


_EDGE_DENSITIES = [0.0, 5e-324, 1e-300, math.nextafter(0.5, 0.0), 0.5,
                   math.nextafter(0.5, 1.0), 1.0]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_run(*argv):
    """simulate's times and samples, as it hands them to its CSV writer, and its stdout."""
    seen, out = [], io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr("kinetic_traffic.cli.trajectory_csv", lambda *run: seen.append(run) or [])
        assert main(["simulate", *argv, "--out-csv", os.devnull]) == 0
    (times, samples), = seen
    return times, samples, out.getvalue()


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSimulate:
    def test_reports_final_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "2", "--rho", "0.8", "--t-final", "60"
        )
        assert code == 0
        assert "steady=yes" in out
        line = next(l for l in out.splitlines() if l.startswith("f_final="))
        f = [float(x) for x in line.split("=")[1].split()]
        assert abs(f[0] - 0.6) <= 1e-8
        assert abs(f[1] - 0.2) <= 1e-8

    def test_steadiness_is_judged_in_model_time(self, capsys):
        # the uniform start at rho = 0.7 is not steady by t = 100 at
        # eta0 = 1, and a smaller eta0 only slows the clock
        argv = ("simulate", "--n", "3", "--rho", "0.7", "--t-final", "100")
        for eta0 in ("1", "1e-9"):
            code, out, _ = run_cli(capsys, *argv, "--eta0", eta0)
            assert code == 0
            assert "steady=no t_reached=100\n" in out, eta0

    @given(
        c=st.floats(1e-9, 1e8),
        n=st.integers(2, 6),
        rho=st.one_of(st.sampled_from(_EDGE_DENSITIES), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**30),
    )
    @example(c=3.0, n=4, rho=0.6, seed=1)
    @example(c=0.3, n=6, rho=0.3, seed=2)
    @example(c=1e-9, n=3, rho=0.5, seed=3)
    @example(c=1e8, n=6, rho=0.9, seed=4)
    def test_the_clock_is_exact(self, c, n, rho, seed):
        # --eta0 c with (dt, T) is the eta0 = 1 run with (dt c, T c), bit for
        # bit, read at t = tau / c: simulate applies eta0 only to its times,
        # and the library runs in model time; the model horizon stays near
        # 30, since at rho = 1/2 steps grow with it
        dt, t_final = 0.05 / c, 30.0 / c
        start = ("--n", str(n), "--rho", repr(rho), "--seed", str(seed), "--record-stride", "3")
        times, samples, out = simulate_run(
            *start, "--eta0", repr(c), "--dt", repr(dt), "--t-final", repr(t_final)
        )
        tau, want, want_out = simulate_run(
            *start, "--dt", repr(dt * c), "--t-final", repr(t_final * c)
        )
        assert same_bits(samples, want) and same_bits(times, tau / c)
        # the steady flag, the final state and its flux and speed
        lines, want_lines = out.splitlines(), want_out.splitlines()
        assert lines[1].split()[0] == want_lines[1].split()[0]
        assert lines[2:] == want_lines[2:]

    @pytest.mark.parametrize("c", [1e-9, 1e-3, 1e3, 1e8])
    def test_steadiness_does_not_depend_on_the_time_scale(self, c):
        # --eta0 c runs the eta0 = 1 dynamics on the clock t = tau / c; with
        # dt and the horizon scaled alike, the run turns steady at the same
        # model time tau = c t, up to the rounding of one accepted step
        f0 = random_state(6, 0.7, seed=3)

        def run(eta0):
            times, _, out = simulate_run(
                "--n", "6", "--rho", "0.7", "--seed", "3", "--eta0", repr(eta0),
                "--dt", repr(0.01 / eta0), "--t-final", repr(2000.0 / eta0),
                "--record-stride", str(10**9),
            )
            return "steady=yes" in out, eta0 * times[-1]

        steps = []
        dynamics._integrate_batch(f0[None, :], 0.01, 2000.0, 1e-10,
                                  record=lambda *step: steps.append(step[2]))
        steady, tau = run(1.0)
        assert steady and tau < 2000.0
        steady_c, tau_c = run(c)
        assert steady_c
        assert abs(tau_c - tau) <= steps[-1][-1]

    def test_uniform_start_without_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "3", "--rho", "0.3", "--t-final", "0.01",
            "--out-csv", "/dev/null",
        )
        assert code == 0

    def test_seed_changes_start_deterministically(self, capsys):
        args = ("simulate", "--n", "3", "--rho", "0.4", "--t-final", "1")
        _, plain, _ = run_cli(capsys, *args)
        _, seeded, _ = run_cli(capsys, *args, "--seed", "5")
        _, seeded2, _ = run_cli(capsys, *args, "--seed", "5")
        _, other, _ = run_cli(capsys, *args, "--seed", "6")
        assert seeded == seeded2
        assert seeded != plain
        assert seeded != other

    def test_writes_trajectory_csv(self, capsys, tmp_path):
        out_file = tmp_path / "tr.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "2", "--rho", "0.5", "--t-final", "0.1",
            "--out-csv", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "t,f_1,f_2,rho,q,u"
        assert len(lines) == 12

    def test_empty_road_is_one_row(self, capsys, tmp_path):
        # no step is taken: the start is the only sample, u = 1 by convention
        out_file = tmp_path / "tr.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "3", "--rho", "0", "--out-csv", str(out_file)
        )
        assert code == 0
        assert out_file.read_bytes() == b"t,f_1,f_2,f_3,rho,q,u\n0,0,0,0,0,0,1\n"

    @pytest.mark.parametrize("argv", [
        ("--n", "2", "--rho", "0.8", "--t-final", "60"),
        ("--n", "6", "--rho", "0.6", "--seed", "11", "--t-final", "40"),
        ("--n", "40", "--rho", "0.3", "--seed", "3", "--t-final", "5", "--record-stride", "7"),
        ("--n", "3", "--rho", "0", "--t-final", "1"),
    ])
    def test_csv_last_row_prints_the_stdout_flux_and_speed(self, capsys, tmp_path, argv):
        # one rule gives both: the same q and u texts, not merely close values
        out_file = tmp_path / "tr.csv"
        code, out, _ = run_cli(capsys, "simulate", *argv, "--out-csv", str(out_file))
        assert code == 0
        q, u = out_file.read_text().splitlines()[-1].split(",")[-2:]
        assert f"q={q} u={u}" in out.splitlines()

    def test_csv_across_blocks_matches_the_row_by_row_writer(
        self, capsys, tmp_path, trajectory_csv_oracle
    ):
        out_file = tmp_path / "tr.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "6", "--rho", "0.6", "--seed", "11", "--dt", "0.01",
            "--t-final", "40", "--out-csv", str(out_file),
        )
        assert code == 0
        times, samples, converged = run_trajectory(
            random_state(6, 0.6, seed=11), IntegrationConfig(dt=0.01, t_final=40.0)
        )
        assert 10 * len(times) > _TABLE_BLOCK  # the table spans two blocks
        want = trajectory_csv_oracle(times, samples, build_lattice(6))
        assert out_file.read_bytes() == want.encode()
        obs = observables(samples[-1])
        assert out == (
            "n=6 rho=0.6 dt=0.01 t_final=40\n"
            f"steady={'yes' if converged else 'no'} t_reached={'%.15g' % times[-1]}\n"
            "f_final=" + " ".join("%.15g" % x for x in samples[-1]) + "\n"
            f"q={'%.15g' % obs.q} u={'%.15g' % obs.u}\n"
            f"wrote {out_file}\n"
        )


class TestEquilibrium:
    def test_json_record(self, capsys, tmp_path):
        out_file = tmp_path / "eq.json"
        code, out, _ = run_cli(
            capsys, "equilibrium", "--n", "3", "--rho", "0.75",
            "--out-json", str(out_file),
        )
        assert code == 0
        assert "phase=congested" in out
        payload = json.loads(out_file.read_text())
        assert payload["stable"] is True
        assert abs(payload["f_inf"][0] - 0.5) <= 1e-12
        assert abs(payload["q"] - 0.13789934334069012) <= 1e-12
        rules = [b["rule"] for b in payload["branch_data"]]
        assert rules == ["congested", "quadratic", "remainder"]

    def test_physical_units(self, capsys, tmp_path):
        out_file = tmp_path / "eq.json"
        code, out, _ = run_cli(
            capsys, "equilibrium", "--n", "2", "--rho", "0.25",
            "--units", "physical", "--out-json", str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["rho"] == 50.0
        assert payload["u"] == 100.0
        assert payload["q"] == 5000.0

    @given(n=st.integers(2, 300), rho=st.floats(0.0, 1.0), physical=st.booleans())
    @example(n=2, rho=_EDGE_DENSITIES[0], physical=False)
    @example(n=300, rho=_EDGE_DENSITIES[0], physical=True)
    @example(n=200, rho=_EDGE_DENSITIES[1], physical=False)
    @example(n=3, rho=_EDGE_DENSITIES[1], physical=True)
    @example(n=300, rho=_EDGE_DENSITIES[2], physical=False)
    @example(n=2, rho=_EDGE_DENSITIES[2], physical=True)
    @example(n=200, rho=_EDGE_DENSITIES[3], physical=False)
    @example(n=300, rho=_EDGE_DENSITIES[3], physical=True)
    @example(n=2, rho=_EDGE_DENSITIES[4], physical=False)
    @example(n=200, rho=_EDGE_DENSITIES[4], physical=True)
    @example(n=300, rho=_EDGE_DENSITIES[5], physical=False)
    @example(n=200, rho=_EDGE_DENSITIES[5], physical=True)
    @example(n=3, rho=_EDGE_DENSITIES[6], physical=False)
    @example(n=300, rho=_EDGE_DENSITIES[6], physical=True)
    def test_record_matches_the_per_value_writer(self, equilibrium_json_oracle, n, rho, physical):
        # the whole command in process: its JSON file and its f_inf line
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "eq.json")
            argv = ["equilibrium", "--n", str(n), "--rho", repr(rho), "--out-json", path]
            if physical:
                argv += ["--units", "physical"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            text = Path(path).read_bytes().decode()
        eq = equilibrium_recursive(n, rho)
        stable = stability_report(eq.f_inf).verdict != UNSTABLE
        obs = observables(eq.f_inf)
        scale_rho, scale_v = (RHO_MAX, V_MAX) if physical else (1.0, 1.0)
        q, u = obs.q * scale_rho * scale_v, obs.u * scale_v
        assert text == equilibrium_json_oracle(eq, scale_rho, q, u, stable)
        line = "f_inf=" + " ".join("%.15g" % float(x * scale_rho) for x in eq.f_inf)
        assert line in out.getvalue().splitlines()

    def test_free_phase_stable_at_large_n(self, capsys):
        # the free-phase hyperplane eigenvalue is defective with
        # multiplicity n-1; a general eigensolver scattered it across zero
        code, out, _ = run_cli(capsys, "equilibrium", "--n", "200", "--rho", "0.3")
        assert code == 0
        assert "stable=yes" in out
        assert "verdict=stable" in out


class TestDiagram:
    def test_writes_all_formats(self, capsys, tmp_path):
        csv_f, json_f, svg_f = (tmp_path / x for x in ("d.csv", "d.json", "d.svg"))
        code, out, _ = run_cli(
            capsys, "diagram", "--n", "3", "--rho-steps", "21",
            "--out-csv", str(csv_f), "--out-json", str(json_f),
            "--out-svg", str(svg_f),
        )
        assert code == 0
        assert "sigma=0.5" in out
        assert csv_f.read_text().startswith("rho,q,u,phase\n")
        assert json.loads(json_f.read_text())["n"] == 3
        assert svg_f.read_text().startswith("<svg")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "diagram", "--n", "4", "--rho-steps", "41",
                "--out-csv", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_closed_form_output_ignores_the_clock_and_step_options(
        self, capsys, tmp_path, monkeypatch
    ):
        files = ("d.csv", "d.json", "d.svg")
        runs = []
        clock = ("--dt", "0.5", "--t-final", "10")
        for i, extra in enumerate(((), clock)):
            (tmp_path / str(i)).mkdir()
            monkeypatch.chdir(tmp_path / str(i))
            code, out, _ = run_cli(
                capsys, "diagram", "--n", "6", "--rho-steps", "101", *extra,
                "--out-csv", files[0], "--out-json", files[1], "--out-svg", files[2],
            )
            assert code == 0
            runs.append((out, *(Path(f).read_bytes() for f in files)))
        assert runs[0] == runs[1]

    def test_physical_units_capacity(self, capsys, tmp_path):
        out_file = tmp_path / "d.json"
        code, out, _ = run_cli(
            capsys, "diagram", "--n", "2", "--rho-steps", "21",
            "--units", "physical", "--out-json", str(out_file),
        )
        assert code == 0
        assert "sigma=100" in out
        payload = json.loads(out_file.read_text())
        assert payload["sigma"] == 100.0
        assert payload["q_max"] == 10000.0

    def test_csv_and_json_format_the_points_once(self, capsys, tmp_path, monkeypatch):
        # the two text writers share one texts15 call over rho, q and u;
        # the JSON's sigma and q_max take the other
        shapes = []
        texts15 = serialize.texts15
        monkeypatch.setattr(
            serialize, "texts15", lambda v: shapes.append(np.shape(v)) or texts15(v)
        )
        code, _, _ = run_cli(
            capsys, "diagram", "--n", "6", "--rho-steps", "101",
            "--out-csv", str(tmp_path / "d.csv"), "--out-json", str(tmp_path / "d.json"),
        )
        assert code == 0
        assert shapes == [(101, 3), (2,)]


class TestColumnarResults:
    def test_commands_build_no_record_per_point_or_level(
        self, monkeypatch, tmp_path, diagram_csv_oracle, diagram_json_oracle,
        diagram_svg_oracle, equilibrium_json_oracle,
    ):
        # diagram and equilibrium write from columns; building a DiagramPoint
        # per grid point fails the command
        def refuse(*args, **kwargs):
            raise AssertionError("built a per-point record")

        monkeypatch.setattr("kinetic_traffic.diagrams.DiagramPoint", refuse)
        out = {name: str(tmp_path / name) for name in ("d.csv", "d.json", "d.svg")}
        densities = (0.0, 0.3, 0.73)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["diagram", "--n", "40", "--rho-steps", "2001", "--out-csv", out["d.csv"],
                         "--out-json", out["d.json"], "--out-svg", out["d.svg"]]) == 0
            for i, rho in enumerate(densities):
                argv = ["equilibrium", "--n", "200", "--rho", repr(rho),
                        "--out-json", str(tmp_path / f"eq{i}.json")]
                assert main(argv) == 0
        monkeypatch.undo()

        d = sweep(40, build_grid(2001))
        for name, oracle in (("d.csv", diagram_csv_oracle), ("d.json", diagram_json_oracle),
                             ("d.svg", diagram_svg_oracle)):
            assert Path(out[name]).read_bytes().decode() == oracle(d), name
        for i, rho in enumerate(densities):
            eq = equilibrium_recursive(200, rho)
            verdict = stability_report(eq.f_inf).verdict
            obs = observables(eq.f_inf)
            want = equilibrium_json_oracle(eq, 1.0, obs.q, obs.u, verdict != UNSTABLE)
            assert (tmp_path / f"eq{i}.json").read_bytes().decode() == want, rho


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "2")
        assert code == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_corrupted_tables_fail_the_suite(self, monkeypatch):
        # negative control: a broken table builder, set under the name the
        # stochasticity group calls, must be caught by that group
        def broken(n, rho):
            good = build_game_table(n, rho)
            A = good.A.copy()
            A[0, 0, :] *= 0.5
            return GameTable(rho=rho, A=A)

        with pytest.raises(TypeError):
            run_suite(2, broken)
        monkeypatch.setattr(verify, "build_game_table", broken)
        results = run_suite(n_max=2)
        by_name = {r.name: r for r in results}
        assert not by_name["stochasticity"].passed

    def test_every_group_passes_at_n_40(self):
        # the attractivity group steps nothing, so the whole suite runs at
        # n = 40 within the test budget
        results = run_suite(40)
        assert [r.name for r in results] == [
            "stochasticity", "conservation", "continuity", "uniqueness", "attractivity", "sigma",
        ]
        assert all(r.passed for r in results), [r for r in results if not r.passed]

    def test_uniqueness_checks_every_n(self):
        # brute force runs at every n, so the detail names no range
        for n_max in (12, 13, 20):
            found = {n: [equilibrium_bruteforce(n, rho) for rho in VERIFY_DENSITIES]
                     for n in range(2, n_max + 1)}
            passed, detail = _check_uniqueness(found)
            assert passed and detail == (
                "every stationary face found; all but the closed form, within 1e-10, unstable"
            )

    @pytest.mark.parametrize("rho", [math.nextafter(0.5, 1.0), 0.5 + 1e-15, 0.5 + 4e-11,
                                     0.5 + 3e-10])
    def test_equilibrium_groups_just_above_half(self, monkeypatch, rho):
        # faces n - 1 and n - 2 merge where 2 rho - 1 <= 1e-10, and every
        # face reads marginal where 2 rho - 1 <= 1e-9; at n = 2 one ulp
        # above 1/2 the one survivor carries face 1's bits, 2.2e-16 from the
        # closed form, and is the attractor
        monkeypatch.setattr(verify, "VERIFY_DENSITIES", (rho,))
        found = {n: [equilibrium_bruteforce(n, rho)] for n in (2, 3, 12, 40)}
        assert verify._check_uniqueness(found)[0]
        assert verify._check_attractivity(found)[0]

    def test_equilibrium_groups_report_a_missing_or_extra_face(self):
        # a broken enumeration is a FAIL detail, not an exception: no face
        # at all, or a face with f_1 > 0 beside the closed form at rho = 0.8
        assert verify._check_uniqueness({3: [[]] * 4}) == (
            False, "0 faces, expected 1, at n=3, rho=0.2")
        assert verify._check_attractivity({3: [[]] * 4}) == (
            False, "no stationary face at n=3, rho=0.2")
        found = {3: [equilibrium_bruteforce(3, rho) for rho in VERIFY_DENSITIES]}
        extra = EquilibriumCandidate(np.array([0.8, 0.0, 0.0]), 0.0, UNSTABLE)
        found[3][3] = found[3][3] + [extra]
        assert not _check_uniqueness(found)[0]
        assert verify._check_attractivity(found) == (
            False, "the closed form is not the one face between the brackets at n=3, rho=0.8")

    @pytest.fixture
    def loop_stats(self, monkeypatch):
        # the stats of every stepping-loop call, from verify and from the
        # public entry points alike
        calls = []
        exact = dynamics._integrate_batch

        def counted(F0, dt, t_final, steady_tol, stats=None, record=None):
            calls.append(BatchStats() if stats is None else stats)
            return exact(F0, dt, t_final, steady_tol, calls[-1], record)

        monkeypatch.setattr(dynamics, "_integrate_batch", counted)
        monkeypatch.setattr(verify, "_integrate_batch", counted)
        return calls

    @pytest.mark.parametrize("n_max", [2, 3, 4, 5, 6])
    def test_one_batch_per_n_equals_the_two_call_groups(
        self, monkeypatch, loop_stats, verify_groups_oracle, n_max
    ):
        def work(calls):
            keys = ("accepted", "rejected", "rhs_evals")
            return [sum(getattr(stats, k) for stats in calls) for k in keys]

        want, want_seen = verify_groups_oracle(n_max)
        assert len(loop_stats) == 2 * (n_max - 1)
        want_work = work(loop_stats)
        loop_stats.clear()
        runs = []
        exact = verify._step

        def step(n):
            runs.append(exact(n))
            return runs[-1]

        monkeypatch.setattr(verify, "_step", step)
        results = {r.name: (r.passed, r.detail) for r in run_suite(n_max)}
        assert len(loop_stats) == n_max - 1
        assert work(loop_stats) == want_work
        assert {name: results[name] for name in want} == want
        assert [run.n for run in runs] == list(range(2, n_max + 1))
        for run in runs:
            seen = want_seen[run.n]
            assert run.drift == seen["drift"]
            for name in ("gaps", "bounds"):
                got, expected = getattr(run, name), seen[name]
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


class TestExitCodes:
    def test_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "1", "--rho", "0.5")
        assert code == 1
        assert "invalid input" in err

        code, _, _ = run_cli(capsys, "equilibrium", "--n", "3", "--rho", "1.5")
        assert code == 1

        code, _, err = run_cli(
            capsys, "simulate", "--n", "4", "--rho", "0.6", "--t-final", "inf"
        )
        assert code == 1
        assert "invalid input" in err

        diagram = ("diagram", "--n", "3", "--rho-steps", "11")
        for argv, name in (
            # infinite rates used to fail numerically
            (("simulate", "--n", "3", "--rho", "0.6", "--eta0", "inf", "--t-final", "1"), "eta0"),
            # the closed form ignores the step options but still checks them
            ((*diagram, "--dt", "-1", "--t-final", "nan"), "dt"),
            ((*diagram, "--t-final", "nan"), "t_final"),
            # a subnormal first step would never grow, and the closed form
            # checks the step options on the same rule
            ((*diagram, "--method", "integrate", "--dt", "5e-324"), "dt"),
            ((*diagram, "--dt", "5e-324", "--t-final", "1e-310"), "dt"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert err.startswith("kinetic-traffic: invalid input: ") and name in err, argv
            assert err.count("\n") == 1, argv
            assert out == ""

    def test_negative_seed_is_a_usage_error(self, capsys):
        # the message is the one numpy's SeedSequence gives for the seed
        code, out, err = run_cli(capsys, "simulate", "--n", "3", "--rho", "0.5", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "kinetic-traffic: invalid input: expected non-negative integer\n"

    @pytest.mark.parametrize("target, argv", [
        # --dt 1e-10 over t = 1 asks np.arange for 1e10 sample times
        ("run_trajectory", ("simulate", "--n", "3", "--rho", "0.5", "--dt", "1e-10",
                            "--t-final", "1")),
        ("build_grid", ("diagram", "--n", "3", "--rho-steps", "100000000000")),
    ])
    def test_allocation_failure_is_a_usage_error(self, capsys, monkeypatch, target, argv):
        # stands in for numpy's allocation error, so nothing is allocated
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(f"kinetic_traffic.cli.{target}", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "kinetic-traffic: invalid input: Unable to allocate 74.5 GiB for an array\n"

    def test_stride_beyond_int64_is_a_usage_error(self, capsys):
        # 2^63 - 1 is the largest stride numpy's integers hold
        argv = ("simulate", "--n", "3", "--rho", "0.5", "--t-final", "1", "--record-stride")
        assert run_cli(capsys, *argv, str(2**63 - 1))[0] == 0
        code, out, err = run_cli(capsys, *argv, str(2**63))
        assert code == 1
        assert out == ""
        assert err.startswith("kinetic-traffic: invalid input: ") and err.count("\n") == 1

    def test_sample_times_do_not_wrap_with_a_large_stride(self, capsys):
        # the second sample index times 2^62 wrapped in int64 to a negative
        # time, and the dense output extrapolated to it
        code, out, err = run_cli(
            capsys, "simulate", "--n", "3", "--rho", "0.5", "--t-final", "1",
            "--record-stride", str(2**62), "--dt", "1.4456e-19",
        )
        assert (code, err) == (0, "")
        assert "t_reached=1\n" in out

    def test_argparse_errors_use_usage_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--rho", "0.5"])
        assert exc.value.code == 1
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["diagram", "--n", "3", "--jobs", "2"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        # no byte of an equilibrium record or a diagram depends on the clock
        for argv in (("equilibrium", "--n", "3", "--rho", "0.6"), ("diagram", "--n", "3")):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--eta0", "2"])
            assert exc.value.code == 1
            assert "unrecognized arguments: --eta0 2" in capsys.readouterr().err

    def test_numerical_failure_code(self, capsys):
        # a hopeless horizon leaves every free-phase point unconverged,
        # so no free phase can be delimited
        code, _, err = run_cli(
            capsys, "diagram", "--n", "3", "--method", "integrate",
            "--rho-steps", "11", "--t-final", "1",
        )
        assert code == 2
        assert "numerical failure" in err

    @staticmethod
    def run_process(*argv):
        """The command in a fresh interpreter, with numpy's default warning filters."""
        src = os.path.dirname(os.path.dirname(kinetic_traffic.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "kinetic_traffic", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_numerical_failure_is_the_only_stderr_output(self):
        # nothing, a numpy warning included, precedes the error line
        proc = self.run_process(
            "diagram", "--n", "3", "--method", "integrate", "--rho-steps", "11", "--t-final", "1"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("kinetic-traffic: numerical failure: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, name", [
        # dt * eta0 underflows to 0: a zero first step never grows, and the
        # loop ran forever
        (("--t-final", "1", "--eta0", "5e-324"), "dt"),
        # a subnormal 1e-322 in place of 1e-322: the samples came out at
        # t = 0.00988.. and the run ended at 0.0499.. in place of 0.05
        (("--t-final", "0.05", "--eta0", "1e-320"), "dt"),
        (("--t-final", "1e-300", "--dt", "1", "--eta0", "1e-30"), "t_final"),
        (("--t-final", "1e10", "--eta0", "1e300"), "t_final"),
        (("--t-final", "1", "--dt", "1e10", "--eta0", "1e300"), "dt"),
    ])
    def test_model_time_out_of_range_is_a_usage_error(self, argv, name):
        # the library runs in model time eta0 t, so a step or horizon that
        # underflows out of the normal floats or overflows to inf there is
        # refused in one line
        proc = self.run_process("simulate", "--n", "3", "--rho", "0.6", *argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        prefix = f"kinetic-traffic: invalid input: {name} must be a positive normal float, got "
        assert proc.stderr.startswith(prefix)
        assert proc.stderr.count("\n") == 1

    def test_huge_eta0_runs_on_the_model_clock(self, capsys):
        # rates of 1e308 per unit t overflowed; in model time the run is the
        # eta0 = 1 run, read at t = tau / 1e308
        code, out, err = run_cli(
            capsys, "simulate", "--n", "3", "--rho", "0.5", "--eta0", "1e308", "--t-final", "1"
        )
        assert (code, err) == (0, "")
        assert "steady=yes t_reached=5.86209386083848e-302\n" in out

    @pytest.mark.parametrize("argv, message", [
        # the run turns steady near t = 100, and 100 / 3e-308 samples
        # overflow; counted in Python floats, they give no numpy overflow
        # warning ahead of the error line
        (("--rho", "0.8", "--t-final", "1000", "--dt", "3e-308"),
         "cannot convert float infinity to integer"),
        (("--rho", "0.5", "--t-final", "1", "--dt", "5e-324"),
         "dt must be a positive normal float, got 5e-324"),
    ])
    def test_sample_count_overflow_is_one_usage_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "simulate", "--n", "3", *argv)
        assert code == 1
        assert out == ""
        assert err == f"kinetic-traffic: invalid input: {message}\n"

    def test_io_failure_code(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "d.csv")
        for argv in (
            ("diagram", "--n", "2", "--rho-steps", "11"),
            ("simulate", "--n", "3", "--rho", "0.4", "--t-final", "1"),
        ):
            code, _, err = run_cli(capsys, *argv, "--out-csv", target)
            assert code == 3, argv
            assert "cannot write" in err


class TestConsoleEntry:
    def test_module_invocation(self):
        # the child imports the package these tests import, installed or not
        src = os.path.dirname(os.path.dirname(kinetic_traffic.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "kinetic_traffic", "equilibrium",
             "--n", "2", "--rho", "0.8"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "f_inf=0.6 0.2" in proc.stdout

    def test_seeded_runs_leave_numpy_random_unloaded(self):
        # the seeded starts come from the package's own PCG64 stream
        src = os.path.dirname(os.path.dirname(kinetic_traffic.__file__))
        script = (
            "import contextlib, io, sys\n"
            "from kinetic_traffic.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['simulate', '--n', '6', '--rho', '0.6', '--seed', '11',"
            " '--t-final', '50']), main(['verify', '--n-max', '2'])]\n"
            "print(codes, 'numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0] False"


class TestReadme:
    @staticmethod
    def block(heading, lang):
        """The first ```lang block under "## heading" in the README."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
        return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]

    def test_library_example_runs(self):
        # the python block under "## Library", as a reader would paste it
        scope = {}
        exec(self.block("Library", "python"), scope)
        assert scope["steady"].all()
        assert scope["report"].verdict == "stable"
        assert scope["diagram"].sigma == 0.5

    def test_cli_examples_run(self, monkeypatch, tmp_path):
        # the sh block under "## CLI", one command per line after joining
        # continuations: each exits 0 and writes the files it names
        block = self.block("CLI", "sh").replace("\\\n", " ")
        commands = [shlex.split(line) for line in block.splitlines()
                    if line.strip() and not line.lstrip().startswith("#")]
        assert len(commands) == 6 and all(c[0] == "kinetic-traffic" for c in commands)
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            files = [value for flag, value in zip(argv, argv[1:]) if flag.startswith("--out-")]
            assert main(argv[1:]) == 0, argv
            for name in files:
                assert (tmp_path / name).stat().st_size > 0, (argv, name)


class TestBenchmarkTracer:
    @staticmethod
    def load_tracer():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        return tracer

    def test_every_traced_name_exists(self):
        # perfbench --trace rebinds these names; one that no longer exists
        # would make every traced run fail at startup
        tracer = self.load_tracer()
        assert tracer.TARGETS
        for module, attr, *_ in tracer.TARGETS:
            mod = importlib.import_module(f"kinetic_traffic.{module}")
            assert callable(getattr(mod, attr, None)), f"{module}.{attr} is gone"

    def test_integrate_counts_read_a_real_batch(self):
        # the tracer takes integrate_batch's accepted steps per row from
        # out[2]; a change to the entry point's returns would skew the
        # traced counts without failing the traced run
        F0 = random_state_batch(3, 0.6, 4, seed=5)
        out = integrate_batch(F0, IntegrationConfig(t_final=5.0))
        steps, stats = out[2], out[3]
        counts = collections.Counter()
        self.load_tracer()._integrate_counts(counts, (F0,), {}, out)
        assert stats.accepted > 0
        assert counts == {
            "dynamics.integrate_batch.batch_steps": steps.max(),
            "dynamics.integrate_batch.row_steps": stats.accepted,
            "dynamics.integrate_batch.row_slots": steps.max() * len(F0),
        }

    def test_writer_bytes_count_the_streamed_trajectory(self):
        # the tracer counts a writer's output as out.encode("utf-8"), which
        # the trajectory's blocks give whole without being used up
        times, samples, _ = run_trajectory(
            np.full(3, 0.2), IntegrationConfig(t_final=1.0)
        )
        blocks = trajectory_csv(times, samples)
        counts = {"serialize.trajectory_csv.bytes": 0}
        self.load_tracer()._writer_counts("serialize.trajectory_csv")(counts, (), {}, blocks)
        text = "".join(blocks)
        assert text.count("\n") == len(times) + 1
        assert counts["serialize.trajectory_csv.bytes"] == len(text)

    @pytest.mark.parametrize("workload", ["stepping", "closed-form"])
    def test_benchmark_check_passes(self, monkeypatch, tmp_path, workload):
        # the benchmark's own correctness check over one repetition, run as
        # perfbench/child.py runs it: every call in the output directory,
        # stdout captured; a known defect counts as a failure here
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while they are built
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        monkeypatch.chdir(tmp_path)
        w, seed = workloads.WORKLOADS[workload], 3
        results = []
        for argv in w.ops(seed):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            results.append({"argv": argv, "code": code, "stdout": buf.getvalue()})
        quality = w.check(results, str(tmp_path), seed)
        assert quality.checks
        for check in quality.checks:
            assert not check.failures and not check.known, check

    def test_sweep_points_and_every_exported_name_resolve(self):
        # the tracer counts a sweep's points through Diagram.points, and an
        # API cut must leave no name in an __all__ behind
        d = sweep(3, build_grid(11))  # 0.5 is on this grid: 11 points
        assert len(d.points) == 11
        counts = {"diagrams.sweep.points": 0}
        self.load_tracer()._sweep_counts(counts, (), {}, d)
        assert counts["diagrams.sweep.points"] == 11
        names = [m.name for m in pkgutil.iter_modules(kinetic_traffic.__path__)]
        modules = [importlib.import_module(f"kinetic_traffic.{m}") for m in names
                   if m != "__main__"]
        for mod in (kinetic_traffic, *modules):
            for name in getattr(mod, "__all__", ()):
                assert hasattr(mod, name), f"{mod.__name__}.{name} is gone"
