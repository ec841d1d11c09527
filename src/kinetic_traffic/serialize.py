"""Deterministic text output: CSV, JSON, and SVG writers.

Every float is rendered with 15 significant digits (%.15g), so repeated
runs with identical inputs produce byte-identical files; JSON writes a
number that is not finite as null (_json_numbers, the one rule).  Each
document's layout is written once as a template and its numbers are
filled in by one % per block of records: json.dumps would use repr,
which switches digit counts from value to value.  Distinct strings
(phases, rules) are encoded once per document and enter a template
with every % doubled.  The trajectory table takes the flux of all its
rows at once (dynamics._flux, the one flux rule).  The diagram writers
read the Diagram's columns: the CSV and the JSON can share one
formatting of their numbers (diagram_numbers), and the SVG maps each
panel's ticks and points with numpy.  to_json encodes a general
document one value at a time.
"""

from __future__ import annotations

import json

import numpy as np

from .diagrams import Diagram
from .dynamics import _flux
from .equilibrium import EquilibriumResult
from .lattice import SpeedLattice

__all__ = [
    "fmt15",
    "to_json",
    "trajectory_csv",
    "diagram_numbers",
    "diagram_csv",
    "diagram_json",
    "equilibrium_json",
    "diagram_svg",
]

# records per % call, which bounds the floats held as objects at once
_CSV_BLOCK = 1024


def fmt15(x: float) -> str:
    """Format a float with 15 significant digits, locale-free.

    Non-finite values come out as nan, inf and -inf.
    """
    return "%.15g" % x


def _fmt_all(values) -> str:
    """Each value with %.15g and a comma after it, in one %."""
    return ("%.15g," * len(values)) % tuple(values)


def _json_numbers(text: str) -> list[str]:
    """The numbers of a _fmt_all text as JSON: null where one is not finite.

    %.15g spells a finite value with digits, '.', 'e', '+' and '-' only,
    so in a text of numbers and commas every n or i belongs to nan, inf
    or -inf.  A whole document is no such text: the key f_inf holds inf.
    """
    if "n" in text:
        text = text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")
    return text.split(",")[:-1]


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _json_numbers(_fmt_all((float(value),)))[0]
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join([_json_value(v) for v in value]) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def to_json(value) -> str:
    return _json_value(value) + "\n"


def _records(templates: dict, keys: list, numbers: list, sep: str) -> str:
    """The template of each key in turn, filled from numbers in blocks of _CSV_BLOCK.

    Every template takes the same count of numbers.
    """
    width = len(numbers) // len(keys)
    parts = []
    for i in range(0, len(keys), _CSV_BLOCK):
        block = keys[i : i + _CSV_BLOCK]
        values = numbers[i * width : (i + len(block)) * width]
        parts.append(sep.join([templates[k] for k in block]) % tuple(values))
    return sep.join(parts)


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


def diagram_numbers(diagram: Diagram) -> str:
    """rho, q and u of every point as _fmt_all writes them, point by point.

    diagram_csv and diagram_json take it as numbers, so both can share one.
    """
    return _fmt_all(np.column_stack((diagram.rho, diagram.q, diagram.u)).ravel().tolist())


def diagram_csv(diagram: Diagram, numbers: str | None = None) -> str:
    numbers = diagram_numbers(diagram) if numbers is None else numbers
    templates = {p: "%s,%s,%s," + p.replace("%", "%%") for p in set(diagram.phase)}
    rows = _records(templates, diagram.phase, numbers.split(",")[:-1], "\n")
    return "rho,q,u,phase\n" + rows + "\n"


def diagram_json(diagram: Diagram, numbers: str | None = None) -> str:
    numbers = diagram_numbers(diagram) if numbers is None else numbers
    keys = list(zip(diagram.phase, diagram.converged.tolist()))
    templates = {
        (phase, conv): '{"rho": %s, "q": %s, "u": %s, "phase": '
        + json.dumps(phase).replace("%", "%%")
        + (', "converged": true}' if conv else ', "converged": false}')
        for phase, conv in set(keys)
    }
    sigma, q_max = _json_numbers(_fmt_all((diagram.sigma, diagram.q_max)))
    points = _records(templates, keys, _json_numbers(numbers), ", ")
    return '{"n": %d, "method": %s, "sigma": %s, "q_max": %s, "points": [%s]}\n' % (
        diagram.n, json.dumps(diagram.method), sigma, q_max, points
    )


def equilibrium_json(
    eq: EquilibriumResult, scale_rho: float, q: float, u: float, stable: bool
) -> str:
    """The equilibrium record, with rho and f_inf times scale_rho.

    q and u are written as given.  branch_data keeps the dimensionless
    roots; each level is one row of j, root, delta, b and c, with nan,
    written null, for the coefficients of the levels that are not
    quadratic.  The level index j, an int below 10**15, goes through %.15g
    as a float, which writes it as str writes the int.
    """
    n = eq.n
    rules = ["empty"] * n if eq.rho == 0.0 else [eq.phase] + ["quadratic"] * (n - 2) + ["remainder"]
    levels = np.full((n, 5), np.nan)
    levels[:, :2] = np.column_stack((np.arange(1, n + 1), eq.f_inf))
    levels[1 : 1 + eq.b.size, 2:] = np.column_stack((eq.delta, eq.b, eq.c))
    templates = {
        r: '{"j": %s, "rule": ' + json.dumps(r).replace("%", "%%")
        + ', "root": %s, "delta": %s, "b": %s, "c": %s}'
        for r in set(rules)
    }
    branches = ", ".join([templates[r] for r in rules]) % tuple(
        _json_numbers(_fmt_all(levels.ravel().tolist())))
    rho, q, u = _json_numbers(_fmt_all((eq.rho * scale_rho, q, u)))
    f_inf = ", ".join(_json_numbers(_fmt_all((eq.f_inf * scale_rho).tolist())))
    return (
        '{"n": %d, "rho": %s, "f_inf": [%s], "q": %s, "u": %s, "phase": %s, '
        '"stable": %s, "branch_data": [%s]}\n'
    ) % (eq.n, rho, f_inf, q, u, json.dumps(eq.phase), "true" if stable else "false", branches)


# -- SVG ---------------------------------------------------------------

_W, _H = 640, 420
_MARGIN = 54
_PANEL_GAP = 46
_LEFT, _RIGHT = _MARGIN, _W - 18

_TICK = (
    '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#444"/>\n'
    '<text x="%.2f" y="%.2f" font-size="11" text-anchor="middle">%.3g</text>\n'
    f'<line x1="{_LEFT - 5}" y1="%.2f" x2="{_LEFT}" y2="%.2f" stroke="#444"/>\n'
    f'<text x="{_LEFT - 8}" y="%.2f" font-size="11" text-anchor="end">%.3g</text>'
)
_PANEL = (
    f'<rect x="{_LEFT}" y="%.2f" width="{_RIGHT - _LEFT}" height="%.2f" fill="none" '
    'stroke="#444"/>\n%s\n'
    '<polyline points="%s" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>\n'
    '<text x="%.2f" y="%.2f" font-size="12" text-anchor="middle">%s</text>\n'
    '<text x="16" y="%.2f" font-size="12" text-anchor="middle" '
    'transform="rotate(-90 16 %.2f)">%s</text>'
)


def _panel(
    xs: np.ndarray, ys: np.ndarray, top: float, height: float, x_label: str, y_label: str
) -> str:
    bottom = top + height
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo = 0.0
    y_hi = float(ys.max()) if ys.size and ys.max() > 0 else 1.0
    y_hi *= 1.05
    span_x = x_hi - x_lo if x_hi > x_lo else 1.0
    i = np.arange(5)
    # five ticks, then the points: one mapping per axis, in the operation
    # order of the scalar one and as silent on non-finite values
    with np.errstate(all="ignore"):
        xv, yv = x_lo + span_x * i / 4, y_lo + (y_hi - y_lo) * i / 4
        px = _LEFT + (np.concatenate((xv, xs)) - x_lo) / span_x * (_RIGHT - _LEFT)
        py = bottom - (np.concatenate((yv, ys)) - y_lo) / (y_hi - y_lo) * height
    ticks = "\n".join(
        _TICK % (xp, bottom, xp, bottom + 5, xp, bottom + 18, x, yp, yp, yp + 4, y)
        for xp, x, yp, y in zip(px[:5].tolist(), xv.tolist(), py[:5].tolist(), yv.tolist())
    )
    xy = np.column_stack((px[5:], py[5:]))
    pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
    mid = top + height / 2
    return _PANEL % (
        top, height, ticks, pts, (_LEFT + _RIGHT) / 2, bottom + 34, x_label, mid, mid, y_label
    )


def diagram_svg(diagram: Diagram) -> str:
    """Two stacked panels: flux over density and mean speed over density."""
    if diagram.units == "physical":
        labels = ("density [veh/km]", "flux [veh/h]", "mean speed [km/h]")
    else:
        labels = ("density", "flux", "mean speed")
    panel_h = (_H - 2 * _MARGIN - _PANEL_GAP) / 2
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        _panel(diagram.rho, diagram.q, _MARGIN / 2, panel_h, labels[0], labels[1]),
        _panel(diagram.rho, diagram.u, _MARGIN / 2 + panel_h + _PANEL_GAP, panel_h,
               labels[0], labels[2]),
        "</svg>\n",
    ])
