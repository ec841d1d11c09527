"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O failure.
All printed floats use 15 significant digits, so identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterable
from dataclasses import replace

import numpy as np

from .diagrams import (
    METHOD_INTEGRATE,
    METHOD_RECURSIVE,
    RHO_MAX,
    UNITS_DIMENSIONLESS,
    UNITS_PHYSICAL,
    V_MAX,
    _SWEEP_CONFIG,
    build_grid,
    rescale_dimensional,
    sweep,
)
from .dynamics import (
    IntegrationConfig,
    observables,
    random_state,
    run_trajectory,
)
from .equilibrium import UNSTABLE, equilibrium_recursive, stability_report
from .errors import KineticModelError
from .lattice import _check_n, _check_states
from .serialize import (
    diagram_csv,
    diagram_json,
    diagram_svg,
    equilibrium_json,
    f_inf_texts,
    fmt15,
    trajectory_csv,
)
from .verify import run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; remap to the usage code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write(path: str, blocks: Iterable[str]) -> None:
    """Write an iterable of text blocks to path as they come."""
    with open(path, "w", newline="") as fh:
        fh.writelines(blocks)


def _add_model_args(p: argparse.ArgumentParser, with_rho: bool = True) -> None:
    """--n, and --rho unless with_rho is false."""
    p.add_argument("--n", type=int, required=True, help="number of speed classes (>= 2)")
    if with_rho:
        p.add_argument("--rho", type=float, required=True, help="total density in [0, 1]")


def _cmd_simulate(args) -> int:
    _check_n(args.n)
    eta0 = args.eta0
    # also false for nan
    if not 0 < eta0 < np.inf:
        raise ValueError(f"eta0 must be positive and finite, got {eta0}")
    if args.seed is None:
        # checked here, so a bad density is reported before a bad step
        start = _check_states(np.full(args.n, args.rho / args.n), 1)
    else:
        start = random_state(args.n, args.rho, seed=args.seed)
    config = IntegrationConfig(
        dt=args.dt, t_final=args.t_final, record_stride=args.record_stride
    )
    # the library runs in the model time eta0 t, and the config refuses a
    # product outside the normal floats
    config = replace(config, dt=config.dt * eta0, t_final=config.t_final * eta0)
    taus, samples, converged = run_trajectory(start, config)
    times = taus / eta0
    obs = observables(samples[-1])
    print(f"n={args.n} rho={fmt15(args.rho)} dt={fmt15(args.dt)} t_final={fmt15(args.t_final)}")
    print(f"steady={'yes' if converged else 'no'} t_reached={fmt15(float(times[-1]))}")
    print("f_final=" + " ".join(fmt15(float(x)) for x in samples[-1]))
    print(f"q={fmt15(obs.q)} u={fmt15(obs.u)}")
    if args.out_csv:
        _write(args.out_csv, trajectory_csv(times, samples))
        print(f"wrote {args.out_csv}")
    return EXIT_OK


def _cmd_equilibrium(args) -> int:
    eq = equilibrium_recursive(args.n, args.rho)
    report = stability_report(eq.f_inf)
    # the closed form is the attractor (dynamics module docstring) also
    # where its spectrum alone is marginal, so only unstable reads as no
    stable = report.verdict != UNSTABLE
    obs = observables(eq.f_inf)
    scale_rho, scale_v = (RHO_MAX, V_MAX) if args.units == UNITS_PHYSICAL else (1.0, 1.0)
    q, u = obs.q * scale_rho * scale_v, obs.u * scale_v
    # the record first, so the f_inf= line takes the texts it formatted
    record = equilibrium_json(eq, scale_rho, q, u, stable) if args.out_json else None
    print(f"n={eq.n} rho={fmt15(eq.rho * scale_rho)} phase={eq.phase} stable={'yes' if stable else 'no'}")
    print("f_inf=" + " ".join(f_inf_texts(eq, scale_rho)))
    print(f"q={fmt15(q)} u={fmt15(u)} verdict={report.verdict}")
    if record is not None:
        _write(args.out_json, [record])
        print(f"wrote {args.out_json}")
    return EXIT_OK


def _cmd_diagram(args) -> int:
    _check_n(args.n)
    grid = build_grid(args.rho_steps)
    config = replace(_SWEEP_CONFIG, dt=args.dt, t_final=args.t_final)
    diagram = sweep(args.n, grid, args.method, config)
    flagged = int(np.count_nonzero(~diagram.converged))
    if args.units == UNITS_PHYSICAL:
        diagram = rescale_dimensional(diagram)
    print(
        f"n={diagram.n} method={diagram.method} units={diagram.units} "
        f"points={diagram.rho.size}"
    )
    print(f"sigma={fmt15(diagram.sigma)} q_max={fmt15(diagram.q_max)}")
    if flagged:
        print(f"unconverged points: {flagged} (kept, marked in the JSON output)")
    for opt, write in (
        (args.out_csv, diagram_csv), (args.out_json, diagram_json), (args.out_svg, diagram_svg)
    ):
        if opt:
            _write(opt, [write(diagram)])
            print(f"wrote {opt}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_suite(n_max=args.n_max)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    if all(r.passed for r in results):
        print(f"all {len(results)} invariant groups passed")
        return EXIT_OK
    return EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kinetic-traffic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # each default is the library's own, written out with :g
    traj, relax = IntegrationConfig(), _SWEEP_CONFIG

    p = sub.add_parser("simulate", help="integrate one initial state to steady flow")
    _add_model_args(p)
    # the one command that reports a time, so the one that takes the clock
    p.add_argument("--eta0", type=float, default=1.0, help="interaction rate slope (default 1)")
    p.add_argument(
        "--t-final", type=float, default=traj.t_final,
        help=f"time horizon (default {traj.t_final:g})",
    )
    p.add_argument(
        "--dt",
        type=float,
        default=traj.dt,
        help="first trial step and sample spacing; later steps are error-controlled "
        f"(default {traj.dt:g})",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="sample a random initial split with this seed (default: uniform split)",
    )
    p.add_argument(
        "--record-stride", type=int, default=traj.record_stride,
        help=f"keep every k-th sample (default {traj.record_stride:g})",
    )
    p.add_argument("--out-csv", help="write the trajectory as CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("equilibrium", help="closed-form steady state at one density")
    _add_model_args(p)
    p.add_argument(
        "--units",
        choices=[UNITS_DIMENSIONLESS, UNITS_PHYSICAL],
        default=UNITS_DIMENSIONLESS,
        help="report physical units (veh/km, km/h)",
    )
    p.add_argument("--out-json", help="write the equilibrium record as JSON")
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("diagram", help="sweep the density range and emit diagrams")
    _add_model_args(p, with_rho=False)
    p.add_argument(
        "--rho-steps", type=int, default=201, help="grid resolution (default 201)"
    )
    p.add_argument(
        "--method",
        choices=[METHOD_RECURSIVE, METHOD_INTEGRATE],
        default=METHOD_RECURSIVE,
        help="closed form per point, or relax a uniform split",
    )
    p.add_argument(
        "--t-final",
        type=float,
        default=relax.t_final,
        help=f"horizon per point for --method integrate (default {relax.t_final:g}); "
        "no byte of the closed form's output depends on it",
    )
    p.add_argument(
        "--dt",
        type=float,
        default=relax.dt,
        help="first trial step for --method integrate; later steps are error-controlled "
        f"(default {relax.dt:g}); no byte of the closed form's output depends on it",
    )
    p.add_argument(
        "--units",
        choices=[UNITS_DIMENSIONLESS, UNITS_PHYSICAL],
        default=UNITS_DIMENSIONLESS,
        help="rescale to veh/km and km/h",
    )
    p.add_argument("--out-csv", help="write the diagram table as CSV")
    p.add_argument("--out-json", help="write the diagram with metadata as JSON")
    p.add_argument("--out-svg", help="write flux and speed panels as SVG")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("verify", help="run the model invariant suite")
    p.add_argument(
        "--n-max", type=int, default=6, help="largest class count to check (default 6)"
    )
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one per process serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"kinetic-traffic: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, OverflowError) as exc:
        # a size too large to allocate or to hold in int64 is an input error
        print(f"kinetic-traffic: invalid input: {str(exc) or 'too large to allocate'}",
              file=sys.stderr)
        return EXIT_USAGE
    except KineticModelError as exc:
        print(f"kinetic-traffic: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"kinetic-traffic: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
