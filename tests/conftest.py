"""Shared pytest configuration.

Property tests run under a fixed hypothesis profile: derandomized, so
every run draws the same examples, with a bounded example count and no
per-example deadline, so the suite stays deterministic and its time
bounded.
"""

import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import settings

from kinetic_traffic import (
    BatchStats,
    ConsistencyError,
    IntegrationConfig,
    IntegrationDivergedError,
)
from kinetic_traffic import continuity_gap, dynamics, integrate_batch, random_state_batch
from kinetic_traffic._pass import _STAB
from kinetic_traffic.dynamics import (
    DEFAULT_SEED,
    _A,
    _D,
    _E,
)
from kinetic_traffic.equilibrium import _closed_form
from kinetic_traffic.verify import VERIFY_DENSITIES

settings.register_profile(
    "tier1", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("tier1")


def logistic_p1(p0, rho, tau):
    """Exact P_1 = f_1 at the model time tau from P_1 = p0 at time 0.

    The first level of the cumulative cascade is autonomous, the logistic
    dP_1/dtau = a P_1 (c - P_1) with a = rho^2 and c = 2 rho - 1, for
    every class count n.  Written with expm1, since -expm1(-a c tau) / c
    tends to a tau without cancelling as c -> 0; at rho = 1/2 exactly the
    solution is p0 / (1 + p0 tau / 4).
    """
    a, c = rho * rho, 2.0 * rho - 1.0
    growth = -np.expm1(-a * c * tau) / c if c != 0.0 else a * tau
    return p0 / (np.exp(-a * c * tau) + p0 * growth)


@pytest.fixture(scope="session")
def exact_p1():
    return logistic_p1


def scalar_level(rho, S, last, tiny=1e-12):
    """One level of the closed form in Python floats: (root, B, C, delta).

    S is the sum of the head, classes 1 .. j-1, and last its class j-1.
    """
    B = (1.0 - 3.0 * rho) * S + rho * (2.0 * rho - 1.0)
    C = (1.0 - rho) * last * (rho - (S - last))
    if C < 0.0:
        if C < -tiny:
            raise ConsistencyError(f"negative constant term {C!r}")
        C = 0.0
    delta = B * B + 4.0 * rho * C
    if delta < 0.0:
        raise ConsistencyError(f"negative discriminant {delta!r}")
    if C == 0.0:
        root = max(0.0, B / rho)
    elif B >= 0.0:
        root = (B + math.sqrt(delta)) / (2.0 * rho)
    else:
        root = 2.0 * C / (math.sqrt(delta) - B)
    return root, B, C, delta


def scalar_closed_form(n, rho, tiny=1e-12):
    """The closed form one density and one class at a time, in Python floats.

    A reference for the batch recursion, which must reproduce it bit for
    bit.  Returns (f, levels): levels holds (B, C, delta) for j = 2 .. n-1,
    and is empty on the empty road, which short-circuits to zeros.
    """
    f = np.zeros(n)
    if rho == 0.0:
        return f, []
    f[0] = 0.0 if rho <= 0.5 else 2.0 * rho - 1.0
    levels = []
    for j in range(2, n):
        prefix = f[: j - 1]
        root, B, C, delta = scalar_level(rho, float(prefix.sum()), float(prefix[-1]), tiny)
        f[j - 1] = root
        levels.append((B, C, delta))
    tail = rho - float(f[: n - 1].sum())
    if tail < -tiny:
        raise ConsistencyError(f"top class would need mass {tail!r}")
    f[n - 1] = max(0.0, tail)
    return f, levels


def level_sums_reference(F):
    """The prefix sums of levels 2 .. n-1 with one .sum per level, the reference.

    Row k-2 holds the sums of classes 1 .. k-1 of every row of F, taken
    as the level loop takes them.
    """
    return np.stack([F[:, : k - 1].sum(axis=1) for k in range(2, F.shape[1])])


@pytest.fixture(scope="session")
def closed_form_oracle():
    return scalar_closed_form


@pytest.fixture(scope="session")
def level_sums_oracle():
    return level_sums_reference


@pytest.fixture(scope="session")
def level_oracle():
    return scalar_level


def json_value(value) -> str:
    """A document as the JSON writers encode it, one value at a time, the reference."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return "%.15g" % x
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {json_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def rhs_batch_reference(F):
    """The cumulative stencil, df/dtau, from a zero-padded cumsum and np.diff: the reference."""
    C = np.zeros((F.shape[0], F.shape[1] + 1))
    np.cumsum(F, axis=-1, out=C[:, 1:])
    rho, P, P_prev = C[:, -1:], C[:, 1:-1], C[:, :-2]
    dP = np.zeros((F.shape[0], F.shape[1] + 1))
    dP[:, 1:-1] = rho * (
        rho * P * (rho - P) - (1.0 - rho) * F[:, :-1] * (rho - P_prev)
    )
    return np.diff(dP, axis=1)


def combine_reference(weights, K):
    """A weighted sum of stages, one Python-level product and sum per stage."""
    return sum(w * k for w, k in zip(weights, K) if w)


def dp_step_reference(F, h, k1):
    """One Dormand-Prince attempt on the reference vector field."""
    K = [k1]
    for row in _A:
        Y = F + h * combine_reference(row, K)
        K.append(rhs_batch_reference(Y))
    return Y, K


def stable_step_reference(F):
    """The step bound from a fresh cumsum of every row of F, the reference."""
    C = np.zeros((F.shape[0], F.shape[1] + 1))
    np.cumsum(F, axis=1, out=C[:, 1:])
    rho, P, P_prev = C[:, -1:], C[:, 1:-1], C[:, :-2]
    lam = rho * (rho * (rho - 2.0 * P) - (1.0 - rho) * (rho - P_prev))
    return _STAB / np.abs(lam).max(axis=1)


def clamp_reference(F, stats):
    """The positivity policy on row-major rows, the reference."""
    m = float(F.min())
    if m < stats.min_preclamp:
        stats.min_preclamp = m
    if m >= 0.0:
        return F
    if m < -dynamics._CLAMP_TOL or not math.isfinite(m):
        raise IntegrationDivergedError(f"class population fell to {m!r}")
    neg = F < 0.0
    deficit = np.where(neg, F, 0.0).sum(axis=1)
    Fc = np.where(neg, 0.0, F)
    Fc[np.arange(F.shape[0]), Fc.argmax(axis=1)] += deficit
    delta = max(-m, float(-deficit.min()))
    if delta > stats.max_clamp_delta:
        stats.max_clamp_delta = delta
    return Fc


@np.errstate(all="ignore")
def integrate_batch_reference(F0, dt, t_final, steady_tol, stats=None, record=None):
    """The stepping loop in row-major memory, the reference.

    Every pass scatters its accepted rows into the working arrays and
    takes the step bound from a fresh cumsum of each state.  Built on the
    reference field, pass and stage sums; takes one dt, t_final and
    steady_tol for every row, returns what _integrate_batch returns and
    hands record what it hands.
    """
    d = dynamics
    F = np.array(F0, dtype=float)
    stats = BatchStats() if stats is None else stats
    m, n = F.shape
    F_out, D_out = np.empty_like(F), np.empty_like(F)
    conv_out = np.zeros(m, dtype=bool)
    steps_out = np.zeros(m, dtype=int)
    t_out, drift_out = np.zeros(m), np.zeros(m)
    rows = np.arange(m)
    k1 = rhs_batch_reference(F)
    stats.rhs_evals += m
    t = np.zeros(m)
    h = np.full(m, float(dt))
    err_prev = np.full(m, 1e-4)
    rejected = np.zeros(m, dtype=bool)
    steps = np.zeros(m, dtype=int)
    s_ref = F.sum(axis=1)
    s = s_ref.copy()
    drift = np.zeros(m)
    steady = leave = np.abs(k1).sum(axis=1) < steady_tol
    while True:
        if leave.any():
            done = rows[leave]
            F_out[done], D_out[done] = F[leave], k1[leave]
            t_out[done], steps_out[done] = t[leave], steps[leave]
            conv_out[done], drift_out[done] = steady[leave], drift[leave]
            keep = ~leave
            rows, F, k1, t, h, err_prev, rejected, steps, s, drift = (
                x[keep] for x in (rows, F, k1, t, h, err_prev, rejected, steps, s, drift)
            )
        if not rows.size:
            break
        h = np.minimum(h, stable_step_reference(F))
        last = t + h >= t_final
        hs = np.where(last, t_final - t, h)
        Y, K = dp_step_reference(F, hs[:, None], k1)
        K = np.stack(K)
        stats.rhs_evals += 6 * rows.size
        E = hs[:, None] * combine_reference(_E, K)
        scale = d._ATOL + d._RTOL * np.maximum(np.abs(F), np.abs(Y))
        err = np.sqrt(np.square(E / scale).sum(axis=1) / n)
        if not np.isfinite(err).all():
            raise IntegrationDivergedError("non-finite values in trajectory")
        ok = err <= 1.0
        grow = err**d._ALPHA
        fac = np.where(ok, grow / err_prev**d._BETA, grow) / d._SAFE
        h = hs / np.minimum(np.maximum(fac, 1.0 / d._FAC_MAX), 1.0 / d._FAC_MIN)
        h = np.where(ok & rejected, np.minimum(h, hs), h)
        if ((t + h == t) & ~ok).any():
            raise IntegrationDivergedError("step size too small to advance time")
        rejected = ~ok
        a = ok.nonzero()[0]
        stats.accepted += a.size
        stats.rejected += rows.size - a.size
        if a.size:
            Ya = Y[a]
            Fa = clamp_reference(Ya, stats)
            ka = K[6][a]
            if Fa is not Ya:
                touched = np.flatnonzero((Fa != Ya).any(axis=1))
                ka[touched] = rhs_batch_reference(Fa[touched])
                stats.rhs_evals += touched.size
            sa = Fa.sum(axis=1)
            moved = float(np.abs(sa - s[a]).max())
            if moved > d._DRIFT_TOL:
                raise ConsistencyError(f"density drift {moved!r} in a single step")
            total = np.abs(sa - s_ref[rows[a]])
            stats.max_drift = max(stats.max_drift, float(total.max()))
            drift[a] = np.maximum(drift[a], total)
            if record is not None:
                record(rows[a], t[a], hs[a], F[a], Y[a], K[:, a])
            F[a], k1[a], s[a] = Fa, ka, sa
            t[a] = np.where(last[a], t_final, t[a] + hs[a])
            err_prev[a] = np.maximum(err[a], 1e-4)
            steps[a] += 1
        steady = np.abs(k1).sum(axis=1) < steady_tol
        leave = steady | (ok & last)
    return F_out, conv_out, steps_out, t_out, D_out, drift_out


def dense_reference(F, Y, K, h, theta):
    """The continuous extension of the steps F -> Y at fractions theta, as a list sum."""
    dy = Y - F
    b = h * K[0] - dy
    c = dy - h * K[6] - b
    d = h * combine_reference(_D, K)
    return F + theta * (dy + (1.0 - theta) * (b + theta * (c + (1.0 - theta) * d)))


def trajectory_reference(f, config):
    """run_trajectory with the samples of each accepted step evaluated at that step.

    Each step's samples go through the reference continuous extension and
    clamp as soon as the reference loop hands the step over, as the loop
    once did itself.
    """
    stride, dt = config.record_stride, config.dt
    times, samples = [np.zeros(1)], [f[None, :]]
    k_next = 1

    def record(rows, t, h, F, Y, K):
        nonlocal k_next
        end = t[0] + h[0]
        k = np.arange(k_next, int(end / (stride * dt)) + 2)
        ts = (k * stride) * dt
        ts = ts[ts <= end]
        if ts.size:
            theta = ((ts - t[0]) / h[0])[:, None]
            at = np.zeros(ts.size, dtype=int)
            Fr = dense_reference(F[at], Y[at], [stage[at] for stage in K], h[at][:, None], theta)
            times.append(ts)
            samples.append(clamp_reference(Fr, BatchStats()))
            k_next += ts.size

    F, conv, _, t_end, _, _ = integrate_batch_reference(
        f[None, :], dt, config.t_final, config.steady_tol, record=record
    )
    times, samples = np.concatenate(times), np.concatenate(samples)
    if times[-1] == t_end[0]:
        samples[-1] = F[0]
    else:
        times = np.append(times, t_end[0])
        samples = np.vstack([samples, F])
    return times, samples, bool(conv[0])


def growth_bound_reference(tau, dist):
    """4 exp(3 tau) dist: the float product where it is finite, else the exact value rounded up.

    The exact value is taken at 100 digits; its nearest float is stepped
    up one ulp if it falls below, and is inf only past the largest float.
    """
    try:
        bound = 4.0 * math.exp(3.0 * tau) * dist
    except OverflowError:
        bound = math.inf
    if math.isfinite(bound):
        return bound
    with decimal.localcontext(decimal.Context(prec=100)):
        exact = 4 * (3 * decimal.Decimal(tau)).exp() * decimal.Decimal(dist)
        out = float(exact)
        return math.nextafter(out, math.inf) if decimal.Decimal(out) < exact else out


def continuity_gap_reference(F0, G0, tau):
    """The growth estimate of the pairs (F0[i], G0[i]), stepped by the reference loop.

    Returns the gaps and the bounds as arrays, the bounds by
    growth_bound_reference, one pair at a time.
    """
    dt = IntegrationConfig().dt
    F, _, _, _, D, _ = integrate_batch_reference(np.concatenate([F0, G0]), dt, tau, 0.0)
    f, g = slice(len(F0)), slice(len(F0), None)
    gaps = np.array([
        float(np.abs(b - a).sum() + np.abs(db - da).sum())
        for a, b, da, db in zip(F[f], F[g], D[f], D[g])
    ])
    dists = [float(np.abs(g0 - f0).sum()) for f0, g0 in zip(F0, G0)]
    return gaps, np.array([growth_bound_reference(tau, d) for d in dists])


def verify_groups_reference(n_max):
    """verify's conservation, continuity and attractivity groups, one loop call per group and n.

    The reference for the suite's one batch per n.  Returns
    {group: (passed, detail)} and, for each n, what the groups read:
    the conservation rows' max drift, the continuity pairs' gaps and
    bounds, and the attractivity rows' end states and steady flags.
    """
    seen = {n: {} for n in range(2, n_max + 1)}

    def conservation():
        config = IntegrationConfig(dt=0.02, t_final=60.0)
        worst = 0.0
        for n in range(2, n_max + 1):
            F0 = np.concatenate(
                [random_state_batch(n, rho, 4, seed=DEFAULT_SEED + n) for rho in VERIFY_DENSITIES]
            )
            _, _, _, stats = integrate_batch(F0, config)
            seen[n]["drift"] = stats.max_drift
            worst = max(worst, stats.max_drift)
            if stats.max_drift > 1e-12:
                return False, f"density drifted by {stats.max_drift:.3e} at n={n}"
        return True, f"max density drift {worst:.3e}"

    def continuity():
        t = 5.0
        for n in range(2, n_max + 1):
            starts = np.concatenate(
                [random_state_batch(n, rho, 6, seed=DEFAULT_SEED + 7 * n)
                 for rho in VERIFY_DENSITIES]
            )
            gaps, bounds = continuity_gap(starts[0::2], starts[1::2], t)
            seen[n]["gaps"], seen[n]["bounds"] = gaps, bounds
            bad = np.flatnonzero(gaps > bounds)
            if bad.size:
                i = bad[0]
                rho = VERIFY_DENSITIES[i // 3]
                return False, (f"gap {gaps[i]:.3e} exceeds bound {bounds[i]:.3e} "
                               f"at n={n}, rho={rho:g}")
        return True, f"all sampled pairs within the growth bound up to t={t:g}"

    def attractivity():
        config = IntegrationConfig(dt=0.02, t_final=1e5)
        samples = 3
        worst = 0.0
        for n in range(2, n_max + 1):
            F0 = np.concatenate(
                [random_state_batch(n, rho, samples, seed=DEFAULT_SEED + 13 * n)
                 for rho in VERIFY_DENSITIES]
            )
            F, conv, _, _ = integrate_batch(F0, config)
            seen[n]["final"], seen[n]["converged"] = F, conv
            if not conv.all():
                return False, f"{int((~conv).sum())} runs never went steady at n={n}"
            targets = np.repeat(_closed_form(n, np.array(VERIFY_DENSITIES)), samples, axis=0)
            err = float(np.abs(F - targets).max())
            worst = max(worst, err)
            if err > 1e-6:
                return False, f"final state off by {err:.3e} at n={n}"
        return True, f"max distance to equilibrium {worst:.3e}"

    results = {
        "conservation": conservation(),
        "continuity": continuity(),
        "attractivity": attractivity(),
    }
    return results, seen


@pytest.fixture(scope="session")
def verify_groups_oracle():
    return verify_groups_reference


@pytest.fixture(scope="session")
def rhs_batch_oracle():
    return rhs_batch_reference


@pytest.fixture(scope="session")
def combine_oracle():
    return combine_reference


@pytest.fixture(scope="session")
def dp_step_oracle():
    return dp_step_reference


@pytest.fixture(scope="session")
def integrate_batch_oracle():
    return integrate_batch_reference


@pytest.fixture(scope="session")
def dense_oracle():
    return dense_reference


@pytest.fixture(scope="session")
def trajectory_oracle():
    return trajectory_reference


@pytest.fixture(scope="session")
def continuity_gap_oracle():
    return continuity_gap_reference


def trajectory_csv_reference(times, samples, lattice):
    """The trajectory table one row and one per-row dot at a time, the reference."""
    n = lattice.n
    header = "t," + ",".join(f"f_{j}" for j in range(1, n + 1)) + ",rho,q,u"
    lines = [header]
    row = ",".join(["%.15g"] * (n + 4))
    for t, f, rho in zip(times.tolist(), samples, samples.sum(axis=1).tolist()):
        q = float(lattice.speeds @ f)
        u = q / rho if rho > 0 else 1.0
        lines.append(row % (t, *f.tolist(), rho, q, u))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def trajectory_csv_oracle():
    return trajectory_csv_reference


def diagram_csv_reference(diagram):
    """The diagram table one point and one value at a time, the reference."""
    lines = ["rho,q,u,phase"]
    for p in diagram.points:
        lines.append(f"{'%.15g' % p.rho},{'%.15g' % p.q},{'%.15g' % p.u},{p.phase}")
    return "\n".join(lines) + "\n"


def diagram_json_reference(diagram):
    """The diagram document through the per-value JSON encoder, the reference."""
    payload = {
        "n": diagram.n,
        "method": diagram.method,
        "sigma": diagram.sigma,
        "q_max": diagram.q_max,
        "points": [
            {"rho": p.rho, "q": p.q, "u": p.u, "phase": p.phase, "converged": p.converged}
            for p in diagram.points
        ],
    }
    return json_value(payload) + "\n"


def _svg_panel_reference(xs, ys, top, height, x_label, y_label):
    left, right = 54, 640 - 18
    bottom = top + height
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo = 0.0
    y_hi = float(ys.max()) if ys.size and ys.max() > 0 else 1.0
    y_hi *= 1.05
    span_x = x_hi - x_lo if x_hi > x_lo else 1.0

    def sx(x):
        return left + (x - x_lo) / span_x * (right - left)

    def sy(y):
        return bottom - (y - y_lo) / (y_hi - y_lo) * height

    def c(x):
        return "%.2f" % x

    out = [
        f'<rect x="{left}" y="{c(top)}" width="{right - left}" '
        f'height="{c(height)}" fill="none" stroke="#444"/>'
    ]
    for i in range(5):
        xv = x_lo + span_x * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        xp, yp = sx(xv), sy(yv)
        out.append(
            f'<line x1="{c(xp)}" y1="{c(bottom)}" '
            f'x2="{c(xp)}" y2="{c(bottom + 5)}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{c(xp)}" y="{c(bottom + 18)}" '
            f'font-size="11" text-anchor="middle">{"%.3g" % xv}</text>'
        )
        out.append(
            f'<line x1="{left - 5}" y1="{c(yp)}" '
            f'x2="{left}" y2="{c(yp)}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{c(yp + 4)}" '
            f'font-size="11" text-anchor="end">{"%.3g" % yv}</text>'
        )
    pts = " ".join(f"{c(sx(float(x)))},{c(sy(float(y)))}" for x, y in zip(xs, ys))
    out.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    out.append(
        f'<text x="{c((left + right) / 2)}" y="{c(bottom + 34)}" '
        f'font-size="12" text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{c(top + height / 2)}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {c(top + height / 2)})">{y_label}</text>'
    )
    return out


def diagram_svg_reference(diagram):
    """The two-panel SVG, one point and one closure call at a time, the reference."""
    W, H, margin, gap = 640, 420, 54, 46

    def column(name):
        return np.array([getattr(p, name) for p in diagram.points])

    xs = column("rho")
    if diagram.units == "physical":
        labels = ("density [veh/km]", "flux [veh/h]", "mean speed [km/h]")
    else:
        labels = ("density", "flux", "mean speed")
    panel_h = (H - 2 * margin - gap) / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    parts += _svg_panel_reference(xs, column("q"), margin / 2, panel_h, labels[0], labels[1])
    parts += _svg_panel_reference(
        xs, column("u"), margin / 2 + panel_h + gap, panel_h, labels[0], labels[2]
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def equilibrium_json_reference(eq, scale_rho, q, u, stable):
    """The equilibrium record as one dict per level, per-value encoded, the reference.

    The levels come from the result's columns: on the empty road every
    class has rule "empty", else class 1 takes the phase, classes
    2 .. n-1 are "quadratic", with their coefficients, and class n is
    the "remainder"; a level that is not quadratic has no coefficients.
    """
    none = [(None, None, None)]
    if eq.rho == 0.0:
        rules, coefficients = ["empty"] * eq.n, none * eq.n
    else:
        rules = [eq.phase] + ["quadratic"] * (eq.n - 2) + ["remainder"]
        levels = zip(eq.delta.tolist(), eq.b.tolist(), eq.c.tolist())
        coefficients = none + list(levels) + none
    payload = {
        "n": eq.n,
        "rho": eq.rho * scale_rho,
        "f_inf": [x * scale_rho for x in eq.f_inf],
        "q": q,
        "u": u,
        "phase": eq.phase,
        "stable": stable,
        "branch_data": [
            {"j": j, "rule": rule, "root": root, "delta": delta, "b": b, "c": c}
            for j, (rule, root, (delta, b, c)) in enumerate(
                zip(rules, eq.f_inf.tolist(), coefficients, strict=True), 1
            )
        ],
    }
    return json_value(payload) + "\n"


@pytest.fixture(scope="session")
def json_value_oracle():
    return json_value


@pytest.fixture(scope="session")
def diagram_csv_oracle():
    return diagram_csv_reference


@pytest.fixture(scope="session")
def diagram_json_oracle():
    return diagram_json_reference


@pytest.fixture(scope="session")
def diagram_svg_oracle():
    return diagram_svg_reference


@pytest.fixture(scope="session")
def equilibrium_json_oracle():
    return equilibrium_json_reference
