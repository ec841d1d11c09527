"""Benchmark runner for the kinetic-traffic CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload stepping --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  Every repetition runs in a
fresh interpreter (``child.py``) with the BLAS thread counts pinned to 1,
through ``kinetic_traffic.cli.main``, from the sources under ``src/``.

``--trace 0`` runs a few set-up-only children, then repeats the workload
(at least twice) while another repetition still fits in ``--seconds``,
checks the outputs of the first repetition and the byte identity of the
others, and prints the end-to-end metrics (medians over repetitions).
``--trace 1`` runs one untraced and two traced repetitions (``tracer.py``)
and prints the per-layer metrics; the two traced runs must give identical
work counts.

The host's speed drifts by 20-30 % over minutes, so the timed metrics are
speed-adjusted: while a repetition's calls run, the child runs a chunk of
a fixed reference kernel (``calibrate.py``) every half second, takes
the chunks' time off the calls', and the runner multiplies the calls'
total by ``calibrate.NOMINAL_S / mean chunk time``.  That reads as the
seconds the calls would take on a host where a chunk takes NOMINAL_S.
``setup_s`` (spawn to ``ready``) is scaled the same way by chunks run
right after set-up.  The raw times are printed as diagnostics.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, the diagnostics, the environment and the
sha256 of each output.  A record of the run is written under
``.perfbench_work/results``.  Exit status 0 means the run completed (the
JSON says whether it was correct); any other status means it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads, here and in every child

MIN_REPS = 2
SETUP_ONLY_RUNS = 3
TRACE_PLAN = (False, True, True)  # one untraced, then two traced repetitions
# beyond the first MIN_REPS, no repetition starts that would end after
# this, so a run ends well inside the 180 s limit
SOFT_LIMIT_S = 100.0
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark itself could not run."""


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _spawn(job: dict, cwd: str) -> tuple[float, dict]:
    """Run child.py on one job; return (set-up seconds, payload)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", **PINNED)
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=cwd,
    )
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child exceeded {CHILD_TIMEOUT_S:g} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"child failed with status {proc.returncode}:\n{err}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def _digests(outdir: str, payload: dict) -> dict[str, str]:
    digests = {
        f"stdout[{i}]": hashlib.sha256(r["stdout"].encode()).hexdigest()
        for i, r in enumerate(payload["results"])
    }
    for name in sorted(os.listdir(outdir)):
        digests[name] = _sha256_file(os.path.join(outdir, name))
    return digests


def _speed(chunk_s: list[float]) -> float:
    """Machine speed relative to nominal, from kernel chunk times."""
    return calibrate.NOMINAL_S / statistics.mean(chunk_s)


def _op_of(key: str, ops: list[list[str]]) -> int:
    if key.startswith("stdout["):
        return int(key[7:-1])
    return next((i for i, argv in enumerate(ops) if key in argv), 0)


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    from workloads import WORKLOADS, eq_digits

    workload = WORKLOADS[workload_name]
    ops = workload.ops(seed)
    base = os.path.join(WORK, workload_name)
    outdir = os.path.join(base, "out")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(outdir)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)

    setups: list[tuple[float, float]] = []  # (raw, speed-adjusted) set-up seconds
    if not trace:
        for _ in range(SETUP_ONLY_RUNS):
            setup_s, payload = _spawn({"workload": workload_name, "seed": seed, "setup_only": True}, outdir)
            setups.append((setup_s, setup_s * _speed(payload["setup_chunk_s"])))

    reps: list[dict] = []
    quality = None
    first_digests: dict[str, str] = {}
    failed = 0
    mismatches: list[tuple[int, str]] = []
    start = perf_counter()
    last = 0.0
    while True:
        k = len(reps)
        if trace:
            if k == len(TRACE_PLAN):
                break
            traced = TRACE_PLAN[k]
        elif k >= MIN_REPS and perf_counter() - start + last > min(seconds, SOFT_LIMIT_S):
            break  # the next repetition would end past the time allowed
        else:
            traced = False
        rep_start = perf_counter()
        for name in os.listdir(outdir):
            os.remove(os.path.join(outdir, name))
        job = {"workload": workload_name, "seed": seed, "trace": traced, "probe": not trace}
        if traced:
            job["spans_path"] = os.path.join(base, f"spans-rep{k}.csv")
        setup_s, payload = _spawn(job, outdir)
        setups.append((setup_s, setup_s * _speed(payload["setup_chunk_s"])))
        digests = _digests(outdir, payload)
        codes_bad = {i for i, r in enumerate(payload["results"]) if r["code"] != 0}
        if k == 0:
            quality = workload.check(payload["results"], outdir, seed)
            first_digests = digests
            failed += sum(1 for c in quality.checks if c.failures)
        else:
            diff = {_op_of(key, ops) for key in set(first_digests) | set(digests)
                    if first_digests.get(key) != digests.get(key)}
            for i in sorted(diff):
                mismatches.append((i, f"repetition {k}: outputs differ from repetition 0"))
            failed += len(diff | codes_bad)
        last = perf_counter() - rep_start
        call_walls = [r["wall_s"] for r in payload["results"]]
        reps.append({
            "wall_s": sum(call_walls),
            "norm_wall_s": sum(call_walls) * _speed(payload["probe_chunk_s"]) if not trace else None,
            "call_wall_s": call_walls,
            "peak_rss_mb": payload["peak_rss_mb"],
            "trace": payload.get("trace"),
            "env": payload["env"],
        })

    for i, msg in mismatches:
        quality.checks[i].failures.append(msg)
    checks = quality.checks
    failed_ops = sum(1 for c in checks if c.failures or c.known)
    hard = [f for c in checks for f in c.failures]
    known = [f for c in checks for f in c.known]
    diagnostics = {
        "failed_share": failed_ops / len(checks),
        "unconverged_points": quality.unconverged,
        "max_eq_error": quality.max_eq_error,
        "sigma_error": quality.sigma_error,
        "wrong_verdicts": quality.wrong_verdicts,
        "known_defects": len(known),
        "repetitions": len(reps),
        "raw_wall_s": statistics.median(r["wall_s"] for r in reps),
        "raw_setup_s": statistics.median(raw for raw, _ in setups),
        "rep_wall_s": [r["wall_s"] for r in reps],
        "rep_norm_wall_s": [r["norm_wall_s"] for r in reps],
        "call_wall_s": [statistics.median(c) for c in zip(*(r["call_wall_s"] for r in reps))],
    }

    with open(BENCHMARK, encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if trace else "end_to_end"]
    if trace:
        computed, layer_table, repeat_ok = _per_layer(reps)
        if not repeat_ok:
            hard.append("work counts differ between the two traced repetitions")
        # a counter of a layer this workload never called reads 0
        for m in wanted:
            if m["name"] not in computed and m["name"].rsplit(".", 1)[0] in layer_table:
                computed[m["name"]] = 0
    else:
        walls = [r["norm_wall_s"] for r in reps]
        computed = {
            "norm_wall_s": statistics.median(walls),
            "setup_s": statistics.median(norm for _, norm in setups),
            "norm_items_per_s": statistics.median(quality.items / w for w in walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "passed_share": 1.0 - diagnostics["failed_share"],
            "converged_share": 1.0 - quality.unconverged / max(quality.points, 1),
            "eq_digits": eq_digits(quality.max_eq_error),
        }
        layer_table = None
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics the runner does not measure: {missing}")

    env = dict(reps[0]["env"], commit=_commit(), src_sha256=_src_digest(), seed=seed)
    record = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "correct": not hard,
        "attempted": len(ops) * len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted},
        "diagnostics": diagnostics,
        "failures": hard,
        "known_defects": known,
        "outputs_sha256": first_digests,
        "layers": layer_table,
        "env": env,
    }
    path = os.path.join(WORK, "results", f"{workload_name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(outdir, ignore_errors=True)
    return record


def _per_layer(reps: list[dict]) -> tuple[dict, dict, bool]:
    """Per-layer values from the traced repetitions, and the layer table.

    Counts come from the first traced repetition (the others must match
    it exactly); times are medians over the traced repetitions.
    """
    traced = [r for r in reps if r["trace"] is not None]
    counts = [r["trace"]["counts"] for r in traced]
    repeat_ok = all(c == counts[0] for c in counts)
    names = list(traced[0]["trace"]["self_s"])
    self_s = {n: statistics.median(r["trace"]["self_s"][n] for r in traced) for n in names}
    total_s = {n: statistics.median(r["trace"]["total_s"][n] for r in traced) for n in names}

    table = {}
    for n in names:
        calls = counts[0].get(f"{n}.calls", 0)
        row = {"calls": calls, "self_s": self_s[n], "total_s": total_s[n]}
        row.update({k[len(n) + 1:]: v for k, v in counts[0].items() if k.startswith(n + ".")})
        table[n] = row
    rhs = table["dynamics.rhs_batch"]
    rhs["us_per_call"] = 1e6 * rhs["self_s"] / rhs["calls"] if rhs["calls"] else 0.0
    traj = table["dynamics.run_trajectory"]
    traj["rhs_calls"] = counts[0].get("dynamics.run_trajectory>dynamics.rhs_batch", 0)
    # an RK4 step evaluates the RHS four times (k1 in the loop, k2-k4 in
    # _rk4_step_batch); each call adds one evaluation, the steady test
    # that ends it
    traj["steps"] = (traj["rhs_calls"] - traj["calls"]) // 4 if traj["calls"] else 0
    batch = table["dynamics.integrate_batch"]
    slots = batch.pop("row_slots", 0)
    batch["active_row_ratio"] = batch.get("row_steps", 0) / slots if slots else 0.0

    computed = {f"{n}.{k}": v for n, row in table.items() for k, v in row.items()}
    for layer in {n.split(".")[0] for n in names}:
        computed[f"{layer}.self_s"] = sum(v for n, v in self_s.items() if n.startswith(layer + "."))
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in reps if r["trace"] is None)
    computed["trace.wall_s"] = traced_wall
    computed["trace.overhead_s"] = traced_wall - untraced_wall
    return computed, table, repeat_ok


def _print_report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    for name, value in record["diagnostics"].items():
        print(f"  diag {name} = {value!r}")
    for msg in record["known_defects"]:
        print(f"  known defect: {msg}")
    for msg in record["failures"]:
        print(f"  FAILED: {msg}")
    if record["layers"]:
        for name, row in record["layers"].items():
            print(f"  layer {name} " + " ".join(f"{k}={v!r}" for k, v in row.items()))
    for key, digest in record["outputs_sha256"].items():
        print(f"  sha256 {key} {digest}")
    print("  env " + json.dumps(record["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "kinetic_traffic", "cli.py")):
        print(f"perfbench: no kinetic_traffic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kinetic_traffic
    from workloads import WORKLOADS

    if not os.path.abspath(kinetic_traffic.__file__).startswith(SRC + os.sep):
        print(f"perfbench: kinetic_traffic loaded from {kinetic_traffic.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    _print_report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
