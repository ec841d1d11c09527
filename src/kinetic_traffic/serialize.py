"""Deterministic text output: CSV, JSON, and SVG writers.

Every float is rendered with 15 significant digits (%.15g), so repeated
runs with identical inputs produce byte-identical files; JSON writes a
number that is not finite as null (_json_numbers, the one rule).  The
closed-form documents take their numbers from texts15, which runs one %
over the distinct float64 bit patterns of its values and hands each
value its text by index; the null rule, too, sees the distinct texts
only.  At n = 200 a record's 800 level numbers other than j hold 5 to
72 distinct values (median 10 over 120 stratified densities): the
free-phase rows repeat one delta and one b, and the congested tail is
zeros.  So texts15 writes a record's 1,203 numbers in 0.07 ms, where
one % over all of them takes 0.25 ms (best of 250 calls, 2-CPU x86-64
host).  Bits, not values, decide what is distinct: 0.0 and -0.0
compare equal but print as 0 and -0.  Each document's layout
is written once as a template per kind of record and its numbers are
filled in by one % (_records): json.dumps would use repr, which
switches digit counts from value to value.  Distinct strings (phases,
rules) are encoded once per document and enter a template with
every % doubled.  The diagram writers read the Diagram's columns: the
CSV and the JSON share one formatting of a diagram's numbers, kept
while the diagram lives (_diagram_numbers), and the SVG maps each
panel's ticks and points with numpy.

The trajectory table comes as text blocks of at most _TABLE_BLOCK
values, made one at a time as the caller writes them, so neither its
text nor its table is ever whole in memory.  Each block takes the row
sums of its own rows, and their flux and mean speed from
dynamics._flux_speed (the one rule for both), and is written by
_rows15, a %.15g over float64 arrays that is % byte for byte: % stays
the reference for every value the array path does not certify.

Digits.  For a = |v| and an exponent estimate x = floor(log10 a), %.15g
prints N = round(t), t = a 10**k, k = 14 - x, rounding half to even, if
t lies in [10**14, 10**15 - 1/2); a t in [10**14 - 1/20, 10**14) has
exponent x - 1, but its 16th digit carries it to N = 10**14 at exponent
x as well.  _pattern15 takes t as whole + frac in float64, u = 2**-53:

- 10**k = hi + lo + d, hi and lo the roundings of 10**k and of the rest,
  so |lo| <= u 10**k and |d| <= u**2 10**k (_pow10_pairs, from exact
  integers).
- a hi = p + e exactly: Dekker's two-product, exact when no product
  overflows or underflows, as none can for a in [1e-99, 1e100).
- whole = floor(p) and p - whole are exact, and frac is (p - whole) +
  (e + a lo), with a lo and each sum rounded.
- For t < 2**50: a lo is rounded by at most u**2 t, e + a lo by 2 u**2 t,
  d adds u**2 t and the last sum, of terms below 1.3, 1.3 u.  As
  4 u**2 t <= u / 2, |whole + frac - t| < 2 u.  For t < 10**16, the most
  an estimate off by one gives, the same terms stay below 1/100.

So a value is certified when the computed whole + frac lies in [10**14,
10**15 - 1), which puts t in [10**14 - 1/20, 10**15 - 1/2) and catches
every estimate off by one, and |frac - 1/2| > _TIE, four times the
bound, so no half-integer lies between whole + frac and t.  As
|e + a lo| < 1/4, frac lies in (-1/4, 5/4) and N = whole + (frac >
1/2).  Every exact tie m + 1/2 (only values from 10**14 on can be one)
and every value that is NaN, infinite, subnormal or outside [1e-99,
1e100) is left to %; zeros are written as 0 and -0.

Text.  A certified value's text follows from its sign, exponent and
digit count, its key (_template), with %g's exponent form below 10**-4
and from 10**15.  _rows15 sorts a block's values by key, fills each
key's slice of fixed 24-byte slots from one template and its digit runs
(dense slice copies), formats the values left to % into their slots,
puts the slots in table order with one scatter and deletes the NUL
padding.  Blocks of _TABLE_BLOCK values bound the transient arrays.
Its fixed cost, about 130 us a call even on 5 values, is why the
closed-form documents keep %: on a whole record it takes 0.22 ms.
"""

from __future__ import annotations

import functools
import json
import re
import weakref
from collections.abc import Callable, Iterator

import numpy as np

from .diagrams import UNITS_PHYSICAL, Diagram
from .dynamics import _flux_speed
from .equilibrium import EquilibriumResult

__all__ = [
    "fmt15",
    "texts15",
    "f_inf_texts",
    "trajectory_csv",
    "diagram_csv",
    "diagram_json",
    "equilibrium_json",
    "diagram_svg",
]

# values per _rows15 call, which bounds its transient arrays to a few MB
_TABLE_BLOCK = 1 << 15

# the certified %.15g of _rows15, derived in the module docstring
_X_LO, _X_HI = -99, 99  # the exponents it takes
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_TIE = 2.0**-50  # the window around a rounding tie: four times the error bound
_SLOT = 24  # bytes per value: -d.dddddddddddddde-ddd and its separator fit


def fmt15(x: float) -> str:
    """Format a float with 15 significant digits, locale-free.

    Non-finite values come out as nan, inf and -inf.
    """
    return "%.15g" % x


def _pow10_pairs():
    """10**(14 - x) for x = _X_HI .. _X_LO: hi, its Dekker halves top + low, and lo.

    hi is 10**k rounded to float64 and lo the rest rounded, both from
    exact integers, which Python divides and converts with one rounding.
    """
    hi, lo = [], []
    for k in range(14 - _X_HI, 15 - _X_LO):
        if k >= 0:
            h = float(10**k)
            lo.append(float(10**k - int(h)))
        else:
            h = 1 / 10**-k
            num, den = h.as_integer_ratio()
            lo.append((den - num * 10**-k) / (den * 10**-k))
        hi.append(h)
    hi = np.array(hi)
    c = _SPLIT * hi
    top = c - (c - hi)
    return hi, top, hi - top, np.array(lo)


def _quad_tables():
    """The ASCII digits of 0 .. 9999 as one uint32 each, and their trailing zeros."""
    ascii_ = np.arange(48, 58, dtype=np.uint8)
    digits = np.stack(np.meshgrid(ascii_, ascii_, ascii_, ascii_, indexing="ij"), -1)
    z = digits.reshape(10000, 4) == 48
    zeros = z[:, 3] * (1 + z[:, 2] * (1 + z[:, 1] * (1 + z[:, 0].astype(np.uint8))))
    return digits.reshape(10000, 4).view(np.uint32).ravel(), zeros


_P_HI, _P_TOP, _P_LOW, _P_LO = _pow10_pairs()
_QUAD, _QUAD_ZEROS = _quad_tables()


def _pattern15(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The certified %.15g digits of float64 values and their text patterns.

    Returns (key, digits): key is 4 pattern + 2 sign bit, int16, where
    pattern 0 leaves the value to %, 1 is a zero, and 2 + 16 (x - _X_LO)
    + d has exponent x and d significant digits; digits holds '0' and
    then the 15 digits as 16 ASCII bytes per value.
    """
    a = np.abs(v)
    fast = (a >= 1e-99) & (a < 1e100)
    a = np.where(fast, a, 1.0)
    x = np.clip(np.floor(np.log10(a)), _X_LO, _X_HI)
    i = (_X_HI - x).astype(np.intp)
    top, low = _P_TOP[i], _P_LOW[i]
    p = a * _P_HI[i]
    c = _SPLIT * a
    a_top = c - (c - a)
    a_low = a - a_top
    e = ((a_top * top - p) + a_top * low + a_low * top) + a_low * low
    whole = np.floor(p)
    frac = (p - whole) + (e + a * _P_LO[i])
    t = whole + frac
    ok = fast & (t >= 1e14) & (t < 1e15 - 1) & (np.abs(frac - 0.5) > _TIE)
    t = whole + (frac > 0.5)
    # four 4-digit quads, the first below 1000
    hi = np.floor(t / 1e8)
    lo = t - hi * 1e8
    q0, q2 = np.floor(hi / 1e4), np.floor(lo / 1e4)
    quads = [q.astype(np.intp) for q in (q0, hi - q0 * 1e4, q2, lo - q2 * 1e4)]
    digits = np.empty((v.size, 4), np.uint32)
    for j, q in enumerate(quads):
        digits[:, j] = _QUAD[q]
    q0, q1, q2, q3 = quads
    zeros = _QUAD_ZEROS[q3] + (q3 == 0) * (
        _QUAD_ZEROS[q2] + (q2 == 0) * (_QUAD_ZEROS[q1] + (q1 == 0) * _QUAD_ZEROS[q0]))
    key = (x.astype(np.int16) - _X_LO) * 16 + (17 - zeros)
    key = (np.where(ok, key, v == 0) * 2 + np.signbit(v)) * 2
    return key, digits.view(np.uint8).reshape(-1, 16)


@functools.cache
def _template(key: int) -> tuple[np.void, tuple]:
    """The text of a _rows15 key as a _SLOT-byte slot, and its digit runs.

    The slot holds '#' where the digits go, and each run is (start,
    stop, first digit).
    """
    x, d = divmod((key >> 2) - 2, 16)
    x += _X_LO
    if key >> 2 == 1:
        body = "0"
    elif x < -4 or x >= 15:
        body = "#" + "." * (d > 1) + "#" * (d - 1) + "e%+03d" % x
    elif x < 0:
        body = "0." + "0" * (-x - 1) + "#" * d
    else:
        body = "#" * (x + 1) + "." * (d > x + 1) + "#" * (d - x - 1)
    text = "-" * (key >> 1 & 1) + body + ",\n"[key & 1]
    runs, first = [], 1
    for r in re.finditer("#+", text):
        runs.append((r.start(), r.end(), first))
        first += r.end() - r.start()
    return np.frombuffer(text.encode().ljust(_SLOT, b"\0"), f"V{_SLOT}")[0], tuple(runs)


def _rows15(block: np.ndarray) -> str:
    """("%.15g," * (w - 1) + "%.15g\n") % row for each row of a (rows, w) float64 block.

    The key's last bit marks the last column, whose separator is the
    newline.
    """
    v = block.ravel()
    key, digits = _pattern15(v)
    key.reshape(block.shape)[:, -1] += 1
    order = np.argsort(key, kind="stable")
    key = key[order]
    digits = digits.view("V16")[order, 0].view(np.uint8).reshape(-1, 16)
    text = np.empty((key.size, _SLOT), np.uint8)
    slots = text.view(f"V{_SLOT}")[:, 0]
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), key.size]
    for b0, b1 in zip(cuts[:-1], cuts[1:]):
        k = int(key[b0])
        if k < 4:
            fmt = "%.15g" + ",\n"[k & 1]
            texts = [fmt % x for x in v[order[b0:b1]].tolist()]
            slots[b0:b1] = np.array(texts, f"S{_SLOT}").view(f"V{_SLOT}")
            continue
        slots[b0:b1], runs = _template(k)
        for start, stop, first in runs:
            text[b0:b1, start:stop] = digits[b0:b1, first : first + stop - start]
    out = np.empty_like(text)
    out.view(f"V{_SLOT}")[order, 0] = slots
    return out.tobytes().translate(None, b"\0").decode("ascii")


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


def texts15(values) -> tuple[list[str], list[str]]:
    """The %.15g text and the JSON text of each value, in input order.

    The JSON text is null where a value is not finite; when every value
    is finite, both are one list.  Each distinct float64 bit pattern is
    formatted once: by bits, not by value, since 0.0 and -0.0 are equal
    but print as 0 and -0, and a NaN equals nothing.
    """
    v = np.asarray(values, np.float64).ravel()
    bits = v.view(np.int64)
    order = bits.argsort(kind="stable")
    ranked = bits[order]
    new = np.empty(v.size, bool)
    new[:1] = True
    new[1:] = ranked[1:] != ranked[:-1]
    text = _fmt_all(v[order[new]].tolist())
    index = np.empty(v.size, np.intp)
    index[order] = new.cumsum() - 1
    texts = np.array(text.split(",")[:-1], object)[index].tolist()
    if "n" not in text:
        return texts, texts
    return texts, np.array(_json_numbers(text), object)[index].tolist()


def _records(templates: dict, keys: list, numbers: list, sep: str) -> str:
    """The template of each key in turn, joined by sep and filled from numbers in one %."""
    return sep.join([templates[k] for k in keys]) % tuple(numbers)


class _Blocks:
    """The text of a document as blocks, made afresh on each iteration.

    encode() joins them into the document's bytes, as str.encode would:
    the benchmark tracer (perfbench/tracer.py) measures each writer's
    output that way.
    """

    def __init__(self, blocks: Callable[[], Iterator[str]]):
        self._blocks = blocks

    def __iter__(self) -> Iterator[str]:
        return self._blocks()

    def encode(self, encoding: str = "utf-8") -> bytes:
        return "".join(self).encode(encoding)


def trajectory_csv(times: np.ndarray, samples: np.ndarray) -> _Blocks:
    """Rows of t, the occupancies, and the macroscopic observables, as text blocks.

    The header comes first, then one _rows15 block of at most
    _TABLE_BLOCK values each, with rho, q and u taken for its rows only;
    the arguments are checked at the call.
    """
    if samples.ndim != 2 or samples.shape[1] < 2:
        raise ValueError("samples must be (m, n) with at least two classes")
    if samples.shape[0] != times.shape[0]:
        raise ValueError("times and samples disagree on sample count")
    n = samples.shape[1]
    rows = max(1, _TABLE_BLOCK // (n + 4))

    def blocks():
        yield "t," + ",".join(f"f_{j}" for j in range(1, n + 1)) + ",rho,q,u\n"
        for i in range(0, len(times), rows):
            f = samples[i : i + rows]
            rho = f.sum(axis=1)
            yield _rows15(np.column_stack([times[i : i + rows], f, rho, *_flux_speed(f, rho)]))

    return _Blocks(blocks)


# each diagram's numbers while it lives: a Diagram is frozen and hashes by identity
_NUMBERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _diagram_numbers(diagram: Diagram) -> tuple[list[str], list[str]]:
    """rho, q and u of every point as texts15 writes them, point by point, once per diagram."""
    if diagram not in _NUMBERS:
        _NUMBERS[diagram] = texts15(np.column_stack((diagram.rho, diagram.q, diagram.u)))
    return _NUMBERS[diagram]


def diagram_csv(diagram: Diagram) -> str:
    texts, _ = _diagram_numbers(diagram)
    templates = {p: "%s,%s,%s," + p.replace("%", "%%") for p in set(diagram.phase)}
    rows = _records(templates, diagram.phase, texts, "\n")
    return "rho,q,u,phase\n" + rows + "\n"


def diagram_json(diagram: Diagram) -> str:
    _, texts = _diagram_numbers(diagram)
    keys = list(zip(diagram.phase, diagram.converged.tolist()))
    templates = {
        (phase, conv): '{"rho": %s, "q": %s, "u": %s, "phase": '
        + json.dumps(phase).replace("%", "%%")
        + (', "converged": true}' if conv else ', "converged": false}')
        for phase, conv in set(keys)
    }
    _, (sigma, q_max) = texts15((diagram.sigma, diagram.q_max))
    points = _records(templates, keys, texts, ", ")
    return '{"n": %d, "method": %s, "sigma": %s, "q_max": %s, "points": [%s]}\n' % (
        diagram.n, json.dumps(diagram.method), sigma, q_max, points
    )


# the f_inf key's scale and texts of each record equilibrium_json wrote, while the record lives
_F_INF: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def f_inf_texts(eq: EquilibriumResult, scale_rho: float) -> list[str]:
    """f_inf times scale_rho as %.15g texts, the record's own once equilibrium_json wrote it."""
    scale, texts = _F_INF.get(eq, (None, None))
    return texts if scale == scale_rho else texts15(eq.f_inf * scale_rho)[0]


def equilibrium_json(
    eq: EquilibriumResult, scale_rho: float, q: float, u: float, stable: bool
) -> str:
    """The equilibrium record, with rho and f_inf times scale_rho.

    q and u are written as given.  branch_data keeps the dimensionless
    roots; each level is one row of j, rule, root, delta, b and c.  The
    rule is "empty" for every class on the empty road; otherwise class 1
    takes the phase, classes 2 .. n-1 "quadratic" and class n
    "remainder".  The coefficients of the levels that are not quadratic
    are nan, written null.  The level index j is written with %d, which
    for every j below 10**15 gives the text %.15g gives.  One texts15
    call formats the table, rho, q, u and the f_inf key, so with
    scale_rho = 1 the key's numbers are the roots already formatted, and
    f_inf_texts hands the key's texts on.
    """
    n = eq.n
    rules = ["empty"] * n if eq.rho == 0.0 else [eq.phase] + ["quadratic"] * (n - 2) + ["remainder"]
    levels = np.full((4, n), np.nan)
    levels[0] = eq.f_inf
    levels[1:, 1 : 1 + eq.b.size] = (eq.delta, eq.b, eq.c)
    head = (eq.rho * scale_rho, q, u)
    texts, cells = texts15(np.concatenate((levels.ravel(), head, eq.f_inf * scale_rho)))
    _F_INF[eq] = scale_rho, texts[4 * n + 3 :]
    row = [None] * (5 * n)
    row[::5] = range(1, n + 1)
    for k in range(4):
        row[k + 1 :: 5] = cells[k * n : (k + 1) * n]
    templates = {
        r: '{"j": %d, "rule": ' + json.dumps(r).replace("%", "%%")
        + ', "root": %s, "delta": %s, "b": %s, "c": %s}'
        for r in set(rules)
    }
    branches = _records(templates, rules, row, ", ")
    rho, q, u = cells[4 * n : 4 * n + 3]
    f_inf = ", ".join(cells[4 * n + 3 :])
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
    if diagram.units == UNITS_PHYSICAL:
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
