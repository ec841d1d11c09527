"""One repetition of a workload in a fresh interpreter.

Usage: python3 child.py '<job json>'

The job names the workload and seed; the child runs in the directory the
outputs go to, so the printed paths are the same in every checkout.  It
imports the package and builds the workload's argument vectors (its
set-up), prints ``ready`` so the parent can time that set-up, and runs a
few chunks of the reference kernel (``calibrate.py``); a set-up-only job
stops there.  It then calls ``kinetic_traffic.cli.main`` once per
argument vector with stdout and stderr captured, while, if the job asks
for it, a timer runs a kernel chunk every PROBE_INTERVAL_S seconds.  It
prints one JSON line with the exit codes, captured stdout, wall time per
call (less the chunks run inside it), the chunk times, peak RSS and, when
the job asks for tracing, the span summary.
The parent pins the BLAS thread counts in the environment it passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import traceback
from time import perf_counter

import calibrate

# kernel chunks run right after set-up, to gauge the speed it ran at
SETUP_CHUNKS = 3
# while the calls run, one chunk starts this long after the last one ended
PROBE_INTERVAL_S = 0.5


class Probe:
    """Runs a kernel chunk every PROBE_INTERVAL_S seconds, from SIGALRM.

    The handler runs between two bytecodes of whatever the program is
    doing, so the chunks sample the machine's speed evenly over the calls.
    The timer is one-shot and re-armed when a chunk ends, so chunks never
    nest however slow the machine gets.
    """

    def __init__(self):
        self.chunk_s: list[float] = []
        self.busy_s = 0.0  # wall time spent in chunks so far

    def _fire(self, signum, frame):
        took = calibrate.chunk_seconds()
        self.chunk_s.append(took)
        self.busy_s += took
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def start(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def stop(self):
        """Disarm the timer; run one chunk if none ran, so speed is always gauged."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.chunk_s:
            self.chunk_s.append(calibrate.chunk_seconds())


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    real_stdout = sys.stdout

    from kinetic_traffic import cli
    from workloads import WORKLOADS

    ops = WORKLOADS[job["workload"]].ops(job["seed"])
    print("ready", file=real_stdout, flush=True)
    setup_chunk_s = [calibrate.chunk_seconds() for _ in range(SETUP_CHUNKS)]
    if job.get("setup_only"):
        print(json.dumps({"setup_chunk_s": setup_chunk_s}), file=real_stdout, flush=True)
        return

    tracer = None
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    probe = Probe()
    if job.get("probe"):
        probe.start()
    results = []
    for argv in ops:
        buf, err = io.StringIO(), io.StringIO()
        error = ""
        busy = probe.busy_s
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on bad usage
            code = exc.code
        except Exception:  # one failed call is reported, the rest still run
            code, error = -1, traceback.format_exc()
        results.append({
            "argv": argv, "code": code, "stdout": buf.getvalue(),
            # the call's own time: the chunks that ran inside it are taken off
            "wall_s": perf_counter() - start - (probe.busy_s - busy),
            "error": error or err.getvalue(),
        })
    if job.get("probe"):
        probe.stop()

    payload = {
        "results": results,
        "setup_chunk_s": setup_chunk_s,
        "probe_chunk_s": probe.chunk_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        payload["trace"] = tracer.summary()
        tracer.write_spans(job["spans_path"])
    print(json.dumps(payload), file=real_stdout, flush=True)


if __name__ == "__main__":
    main()
