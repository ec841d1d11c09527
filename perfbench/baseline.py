"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 11-20 --compare perfbench/baseline.json

For every workload it runs ``run.py`` once per seed with tracing off,
plus one traced run on the first seed, and records for each end-to-end
metric the ten values, their median and quartiles (``statistics.quantiles``
with n=4) and the spread, (q3 - q1) / median.  It prints each spread next
to the metric's bound from ``BENCHMARK.json`` and, with ``--compare``,
each median's change against an earlier summary, as a share of that
summary's median, signed so that positive is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed with status {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench_work", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {"result": result, "record": record}


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--compare", help="earlier summary JSON to compare medians against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)

    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [_run(name, s, bench["run_seconds"], 0) for s in seeds]
        entry = {
            "correct": [r["result"]["correct"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "metrics": {},
            "diagnostics": {
                key: [r["record"]["diagnostics"][key] for r in runs]
                for key in ("failed_share", "unconverged_points", "max_eq_error",
                            "sigma_error", "wrong_verdicts", "known_defects", "repetitions")
            },
            "outputs_sha256": {str(s): r["record"]["outputs_sha256"] for s, r in zip(seeds, runs)},
            "env": runs[0]["record"]["env"],
        }
        print(f"{name}: correct={entry['correct']}")
        for metric, spec in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            s = _summary(values)
            s["unit"] = spec["unit"]
            entry["metrics"][metric] = s
            line = (f"  {metric:16s} median {s['median']:.6g} {spec['unit']:6s} "
                    f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                    f"bound {spec['bound']} {'ok' if s['spread'] < spec['bound'] / 3 else 'WIDE'}")
            if earlier and name in earlier["workloads"]:
                old = earlier["workloads"][name]["metrics"][metric]["median"]
                sign = 1.0 if spec["better"] == "lower" else -1.0
                change = sign * (s["median"] - old) / abs(old) if old else 0.0
                line += f" change {change:+.4f} {'ok' if change <= spec['bound'] else 'WORSE'}"
            print(line, flush=True)
        traced = _run(name, seeds[0], bench["run_seconds"], 1)
        entry["per_layer"] = {
            "seed": seeds[0],
            "correct": traced["result"]["correct"],
            "metrics": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "layers": traced["record"]["layers"],
        }
        summary["workloads"][name] = entry

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
