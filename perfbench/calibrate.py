"""A fixed reference computation that gauges the machine's current speed.

On a shared host the speed of one core drifts by 20-30 % over minutes, as
other tenants load the caches, the memory bus and the sibling hyperthread.
A child therefore runs a short chunk of this kernel every half second
while its CLI calls run, in the same interpreter (``child.Probe``), and
the runner scales the calls' wall time, less the chunks, by
``NOMINAL_S / mean chunk time``.  A drift slows the calls and the chunks
alike and cancels, while a change under ``src/`` moves only the calls:
the kernel does not import the package, so no change to the program can
change it.

Limits: a program change that slows the chunks themselves (say, by
leaving the heap larger or more fragmented) is partly scaled away, and
the chunks add about 7 MB to a child's peak RSS when one runs while the
program holds its largest arrays.

A chunk has three parts that mirror the program's three kinds of work: a
pure-Python float loop (the closed-form recursion), an n^3 numpy array
built by broadcasting and contracted with einsum (game tables and
Jacobians), and many small-array numpy calls (the RK4 stepper at n = 6).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# seconds one chunk takes on a quiet 2-CPU x86-64 host (CPython 3.11,
# numpy with single-threaded OpenBLAS); it sets only the scale of the
# adjusted times, which then read as seconds on that host
NOMINAL_S = 0.035


def _python_part() -> float:
    acc, prev = 0.0, 0.5
    xs = [0.0] * 64
    for i in range(60_000):
        b = prev * (1.0 - prev) + 1e-3
        root = math.sqrt(b * b + 4.0 * prev)
        prev = 0.5 * (root - b) % 1.0
        xs[i & 63] = prev
        acc += xs[(i * 7) & 63]
    return acc


def _array_part() -> float:
    n = 100
    idx = np.arange(n, dtype=float)
    a = np.zeros((n, n, n))
    a += (idx[:, None, None] - idx[None, :, None]) * 1e-3
    a += np.minimum(idx[None, :, None], idx[None, None, :]) * 1e-4
    f = np.linspace(0.0, 1.0, n) / n
    g = np.einsum("hkj,h,k->j", a, f, f)
    m = np.einsum("ikj,k->ji", a, f)
    return float(g.sum() + np.linalg.eigvals(m[:60, :60] + np.eye(60)).real.sum())


def _small_part() -> float:
    f = np.full(6, 1.0 / 6.0)
    dt = 0.01
    for _ in range(1_000):
        k1 = f * (f.sum() - f) - 0.1 * f
        k2 = (f + 0.5 * dt * k1) * 0.99
        f = np.clip(f + dt * (k1 + k2) / 2.0, 0.0, None)
        f /= f.sum()
    return float(f[0])


def chunk_seconds() -> float:
    """Run one chunk of the kernel and return its wall time."""
    start = perf_counter()
    _python_part()
    _array_part()
    _small_part()
    return perf_counter() - start
