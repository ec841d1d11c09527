"""Spans around the package's layers, recorded from outside the package.

``install`` rebinds each traced function, and every name under which
another ``kinetic_traffic`` module imported it (``diagrams.integrate_batch``,
``equilibrium._rhs_batch``, a ``run_suite`` default argument, ...), to a
wrapper that records a span (name, start, end, parent) and the work counts
of the call.  Spans stay in memory; ``summary`` reduces them to per-name
call counts and self times, where self time is a span's duration minus
the spans directly inside it, and counts how often each traced name was
called directly inside another (``"parent>child"``).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _rhs_counts(c, args, kwargs, out):
    c["dynamics.rhs_batch.row_evals"] += int(args[0].shape[0])


def _integrate_counts(c, args, kwargs, out):
    steps = out[2]
    batch = int(steps.max()) if steps.size else 0
    c["dynamics.integrate_batch.batch_steps"] += batch
    c["dynamics.integrate_batch.row_steps"] += int(steps.sum())
    c["dynamics.integrate_batch.row_slots"] += batch * int(steps.size)


def _table_counts(c, args, kwargs, out):
    c["lattice.build_game_table.bytes_computed"] += int(out.A.nbytes)


def _sweep_counts(c, args, kwargs, out):
    c["diagrams.sweep.points"] += len(out.points)


def _writer_counts(name):
    def count(c, args, kwargs, out):
        c[f"{name}.bytes"] += len(out.encode("utf-8"))
    return count


WRITERS = ("trajectory_csv", "diagram_csv", "diagram_json", "diagram_svg", "equilibrium_json")
VERIFY_GROUPS = (
    "stochasticity", "conservation", "continuity", "uniqueness", "attractivity", "sigma",
)

# (module, attribute, span name, counter)
TARGETS = [
    ("dynamics", "_rhs_batch", "dynamics.rhs_batch", _rhs_counts),
    ("dynamics", "integrate_batch", "dynamics.integrate_batch", _integrate_counts),
    ("dynamics", "run_trajectory", "dynamics.run_trajectory", None),
    ("dynamics", "continuity_gap", "dynamics.continuity_gap", None),
    ("dynamics", "observables", "dynamics.observables", None),
    ("dynamics", "random_state", "dynamics.random_state", None),
    ("dynamics", "random_state_batch", "dynamics.random_state_batch", None),
    ("equilibrium", "equilibrium_recursive", "equilibrium.equilibrium_recursive", None),
    ("equilibrium", "jacobian", "equilibrium.jacobian", None),
    ("equilibrium", "stability_report", "equilibrium.stability_report", None),
    ("equilibrium", "equilibrium_bruteforce", "equilibrium.equilibrium_bruteforce", None),
    ("lattice", "build_game_table", "lattice.build_game_table", _table_counts),
    ("lattice", "build_lattice", "lattice.build_lattice", None),
    ("diagrams", "sweep", "diagrams.sweep", _sweep_counts),
    ("diagrams", "build_grid", "diagrams.build_grid", None),
    ("diagrams", "detect_sigma", "diagrams.detect_sigma", None),
    *[("serialize", w, f"serialize.{w}", _writer_counts(f"serialize.{w}")) for w in WRITERS],
    *[("verify", f"_check_{g}", f"verify.{g}", None) for g in VERIFY_GROUPS],
    ("cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, counter):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (idx, start, end, parent)
            counts[f"{name}.calls"] += 1
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return traced

    def summary(self) -> dict:
        """Per-name self and total seconds, plus the work counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        counts = dict(self.counts)
        for sid, (idx, start, end, parent) in enumerate(self.spans):
            self_s[self.names[idx]] += end - start - child[sid]
            total_s[self.names[idx]] += end - start
            if parent >= 0:
                key = f"{self.names[self.spans[parent][0]]}>{self.names[idx]}"
                counts[key] = counts.get(key, 0) + 1
        return {
            "self_s": {n: self_s[n] for n in self.names},
            "total_s": {n: total_s[n] for n in self.names},
            "counts": counts,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent\n")
            for sid, (idx, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid},{self.names[idx]},{start!r},{end!r},{parent}\n")


def install(tracer: Tracer) -> None:
    """Rebind every traced function wherever the package refers to it."""
    import kinetic_traffic.cli  # noqa: F401  (loads every module)

    modules = [m for k, m in sys.modules.items() if k == "kinetic_traffic" or k.startswith("kinetic_traffic.")]
    for mod_name, attr, span, counter in TARGETS:
        original = getattr(sys.modules[f"kinetic_traffic.{mod_name}"], attr)
        wrapped = tracer.wrap(span, original, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif callable(value) and getattr(value, "__defaults__", None):
                    if any(d is original for d in value.__defaults__):
                        value.__defaults__ = tuple(
                            wrapped if d is original else d for d in value.__defaults__
                        )
