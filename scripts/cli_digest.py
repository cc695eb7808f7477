"""Print one SHA-256 per ``biharwave`` CLI output, to compare two checkouts byte for byte.

Runs 22 commands, one child process each, with the BLAS/OpenMP thread pools
pinned to one thread: verdict, trace, spectral and field on each of the five
scenarios under ``scenarios/``, plus nonuniqueness for gaussian_2d against
invisible_2d and gaussian_3d against invisible_3d.  Each line reads

    <sha256 of the output file>  <exit code>  <subcommand>:<scenario>

A command that writes no file (a nonzero exit) is digested through its
stderr instead, so a refusal still compares.  Usage, from any directory:

    python scripts/cli_digest.py                  # this checkout
    python scripts/cli_digest.py --root OTHER     # another checkout's src/ and scenarios/
    diff <(python scripts/cli_digest.py --root A) <(python scripts/cli_digest.py --root B)

Byte identity only holds for the same numpy/scipy/BLAS build on the same
CPU; compare two checkouts on one machine, never digests from two machines.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ["invisible_2d", "invisible_3d", "gaussian_2d", "gaussian_3d", "bump_2d"]
SUBCOMMANDS = ["verdict", "trace", "spectral", "field"]
NONUNIQUENESS = {"gaussian_2d": "invisible_2d", "gaussian_3d": "invisible_3d"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def commands() -> list[tuple[str, str, list[str]]]:
    """(subcommand, scenario, extra arguments) for all 22 commands, in a fixed order."""
    out = [(sub, sc, []) for sub in SUBCOMMANDS for sc in SCENARIOS]
    for sc, g in NONUNIQUENESS.items():
        out.append(("nonuniqueness", sc, ["--config-g", f"scenarios/{g}.json"]))
    return out


def digest(root: Path, sub: str, scenario: str, extra: list[str], tmp: Path) -> tuple[str, int]:
    out = tmp / f"{sub}_{scenario}.out"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{v: "1" for v in THREAD_VARS})
    argv = [sys.executable, "-m", "biharwave.cli", sub, "--config", f"scenarios/{scenario}.json"]
    proc = subprocess.run(argv + extra + ["--out", str(out)], cwd=root, env=env,
                          capture_output=True)
    data = out.read_bytes() if out.exists() else proc.stderr
    return hashlib.sha256(data).hexdigest(), proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout holding src/biharwave and scenarios/ (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        for sub, scenario, extra in commands():
            sha, code = digest(root, sub, scenario, extra, Path(tmp))
            print(f"{sha}  {code}  {sub}:{scenario}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
