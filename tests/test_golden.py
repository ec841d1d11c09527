"""Golden outputs: the bytes of sixteen CLI commands, as sha256 digests.

Each command runs in process through cli.main in an empty directory.
Its exit code, the digest of its stdout and the digest of every file it
leaves there must equal the record in tests/golden/outputs.json.  The
six commands of the README's CLI block are among the sixteen.

The closed form uses only + - * / and sqrt, which IEEE 754 rounds
exactly, but the stepping outputs also pass through np.power in the step
controller, whose SIMD loop numpy picks by CPU.  So the record holds the
numpy version and the CPU features numpy detected, and on a host where
either differs the test skips and names the difference: it never passes
there.  A change that means to move bytes records the goldens again,

    PYTHONPATH=src python tests/test_golden.py

and names each moved output in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from kinetic_traffic.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.json"
README = Path(__file__).resolve().parents[1] / "README.md"

COMMANDS = (
    "simulate --n 4 --rho 0.6 --t-final 300 --out-csv run.csv",
    "simulate --n 4 --rho 0.6 --seed 7",
    "equilibrium --n 3 --rho 0.75 --out-json eq.json",
    "diagram --n 6 --rho-steps 201 --units physical --out-csv fd.csv --out-json fd.json "
    "--out-svg fd.svg",
    "diagram --n 4 --method integrate --rho-steps 51",
    "verify --n-max 6",
    "verify --n-max 12",
    "diagram --n 40 --rho-steps 2001 --out-csv d40.csv --out-json d40.json",
    "equilibrium --n 200 --rho 0.9 --out-json eq200.json",
    "simulate --n 6 --rho 0.6 --seed 11 --out-csv traj.csv",
    "equilibrium --n 200 --rho 0.3 --out-json eq200free.json",
    "equilibrium --n 40 --rho 0.75 --units physical --out-json eq40phys.json",
    "equilibrium --n 2 --rho 0.5000000000000001 --out-json eq2half.json",
    "equilibrium --n 200 --rho 1 --out-json eq200jam.json",
    "equilibrium --n 5 --rho 0 --out-json eq5empty.json",
    "diagram --n 200 --rho-steps 2001 --out-csv d200.csv --out-json d200.json",
)


def host():
    return {
        "numpy": np.__version__,
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def outputs(command):
    """Exit code and sha256 of stdout and of each file, for a command run in an empty directory."""
    out, cwd = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out):
                code = main(shlex.split(command))
            files = {p.name: sha256(p.read_bytes()) for p in sorted(Path(tmp).iterdir())}
        finally:
            os.chdir(cwd)
    return {"exit": code, "stdout": sha256(out.getvalue().encode()), "files": files}


def test_readme_commands_are_golden():
    # the README's CLI block, one command per line after joining continuations
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    readme = [shlex.join(shlex.split(line)[1:]) for line in block.splitlines()
              if line.strip() and not line.lstrip().startswith("#")]
    assert readme == [shlex.join(shlex.split(c)) for c in COMMANDS[:6]]


@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_the_goldens(command):
    record = json.loads(GOLDEN.read_text())
    differ = {k: (v, record["host"][k]) for k, v in host().items() if v != record["host"][k]}
    if differ:
        pytest.skip(f"host differs from the goldens' (here, recorded): {differ}")
    assert outputs(command) == record["outputs"][command]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    record = {"host": host(), "outputs": {c: outputs(c) for c in COMMANDS}}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
