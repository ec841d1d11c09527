"""Deterministic text output: CSV, JSON, and SVG writers.

Every float is rendered with repr-stable 15 significant digits so that
repeated runs with identical inputs produce byte-identical files.  The
JSON writer is hand-rolled for that reason: json.dumps would use repr,
which switches digit counts from value to value.  The trajectory table
takes the flux of all its rows at once (dynamics._flux, the one flux
rule) and formats a block of rows with each % call.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .diagrams import Diagram
from .dynamics import _flux
from .lattice import SpeedLattice

__all__ = [
    "fmt15",
    "to_json",
    "trajectory_csv",
    "diagram_csv",
    "diagram_json",
    "equilibrium_json",
    "diagram_svg",
]

# trajectory rows per % call, which bounds the floats held as objects at once
_CSV_BLOCK = 1024


def fmt15(x: float) -> str:
    """Format a float with 15 significant digits, locale-free.

    Non-finite values come out as nan, inf and -inf.
    """
    return "%.15g" % x


def _json_value(value, keys: dict[str, str]) -> str:
    """One JSON value; keys caches the encoded str keys of one document.

    The exact scalar types dispatch on type(); containers, subclasses
    and numpy scalars take the isinstance rules below.  NaN and
    infinities become null.
    """
    t = type(value)
    if t is float:
        return "%.15g" % value if math.isfinite(value) else "null"
    if t is str:
        return json.dumps(value)
    if t is int:
        return str(value)
    if t is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _json_value(float(value), keys)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        parts = []
        for k, v in value.items():
            if type(k) is str:
                key = keys.get(k)
                if key is None:
                    key = keys[k] = json.dumps(k)
            else:
                key = json.dumps(k)
            parts.append(f"{key}: {_json_value(v, keys)}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join([_json_value(v, keys) for v in value]) + "]"
    raise TypeError(f"cannot serialize {t.__name__}")


def to_json(value) -> str:
    return _json_value(value, {}) + "\n"


def trajectory_csv(times: np.ndarray, samples: np.ndarray, lattice: SpeedLattice) -> str:
    """Rows of t, the occupancies, and the macroscopic observables."""
    n = lattice.n
    if samples.ndim != 2 or samples.shape[1] != n:
        raise ValueError("samples must be (m, n) for the given lattice")
    if samples.shape[0] != times.shape[0]:
        raise ValueError("times and samples disagree on sample count")
    rho = samples.sum(axis=1)
    q = _flux(samples, lattice.speeds)
    u = np.divide(q, rho, out=np.ones_like(q), where=rho > 0)
    table = np.column_stack([times, samples, rho, q, u])
    row = ",".join(["%.15g"] * (n + 4))
    parts = ["t," + ",".join(f"f_{j}" for j in range(1, n + 1)) + ",rho,q,u"]
    for i in range(0, len(table), _CSV_BLOCK):
        block = table[i : i + _CSV_BLOCK]
        parts.append("\n".join([row] * len(block)) % tuple(block.ravel().tolist()))
    return "\n".join(parts) + "\n"


def diagram_csv(diagram: Diagram) -> str:
    lines = ["rho,q,u,phase"]
    for p in diagram.points:
        lines.append(f"{fmt15(p.rho)},{fmt15(p.q)},{fmt15(p.u)},{p.phase}")
    return "\n".join(lines) + "\n"


def diagram_json(diagram: Diagram) -> str:
    payload = {
        "n": diagram.n,
        "method": diagram.method,
        "sigma": diagram.sigma,
        "q_max": diagram.q_max,
        "points": [
            {
                "rho": p.rho,
                "q": p.q,
                "u": p.u,
                "phase": p.phase,
                "converged": p.converged,
            }
            for p in diagram.points
        ],
    }
    return to_json(payload)


def equilibrium_json(payload: dict) -> str:
    return to_json(payload)


# -- SVG ---------------------------------------------------------------

_W, _H = 640, 420
_MARGIN = 54
_PANEL_GAP = 46


def _fmt_coord(x: float) -> str:
    return "%.2f" % x


def _panel(
    xs: np.ndarray,
    ys: np.ndarray,
    top: float,
    height: float,
    x_label: str,
    y_label: str,
) -> list[str]:
    left, right = _MARGIN, _W - 18
    bottom = top + height
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo = 0.0
    y_hi = float(ys.max()) if ys.size and ys.max() > 0 else 1.0
    y_hi *= 1.05
    span_x = x_hi - x_lo if x_hi > x_lo else 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / span_x * (right - left)

    def sy(y: float) -> float:
        return bottom - (y - y_lo) / (y_hi - y_lo) * height

    out = [
        f'<rect x="{left}" y="{_fmt_coord(top)}" width="{right - left}" '
        f'height="{_fmt_coord(height)}" fill="none" stroke="#444"/>'
    ]
    for i in range(5):
        xv = x_lo + span_x * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        xp, yp = sx(xv), sy(yv)
        out.append(
            f'<line x1="{_fmt_coord(xp)}" y1="{_fmt_coord(bottom)}" '
            f'x2="{_fmt_coord(xp)}" y2="{_fmt_coord(bottom + 5)}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_fmt_coord(xp)}" y="{_fmt_coord(bottom + 18)}" '
            f'font-size="11" text-anchor="middle">{"%.3g" % xv}</text>'
        )
        out.append(
            f'<line x1="{left - 5}" y1="{_fmt_coord(yp)}" '
            f'x2="{left}" y2="{_fmt_coord(yp)}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{_fmt_coord(yp + 4)}" '
            f'font-size="11" text-anchor="end">{"%.3g" % yv}</text>'
        )
    pts = " ".join(f"{_fmt_coord(sx(float(x)))},{_fmt_coord(sy(float(y)))}" for x, y in zip(xs, ys))
    out.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    out.append(
        f'<text x="{_fmt_coord((left + right) / 2)}" y="{_fmt_coord(bottom + 34)}" '
        f'font-size="12" text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt_coord(top + height / 2)}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {_fmt_coord(top + height / 2)})">'
        f"{y_label}</text>"
    )
    return out


def diagram_svg(diagram: Diagram) -> str:
    """Two stacked panels: flux over density and mean speed over density."""
    xs = diagram.column("rho")
    if diagram.units == "physical":
        labels = ("density [veh/km]", "flux [veh/h]", "mean speed [km/h]")
    else:
        labels = ("density", "flux", "mean speed")
    panel_h = (_H - 2 * _MARGIN - _PANEL_GAP) / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    parts += _panel(xs, diagram.column("q"), _MARGIN / 2, panel_h, labels[0], labels[1])
    parts += _panel(
        xs, diagram.column("u"), _MARGIN / 2 + panel_h + _PANEL_GAP, panel_h, labels[0], labels[2]
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
