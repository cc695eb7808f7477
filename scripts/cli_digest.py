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
    python scripts/cli_digest.py --compare OTHER  # this checkout against OTHER, by value

With --compare, both checkouts run every command.  Each line carries the
digest of OTHER's output and of this checkout's, then, for an output that
moved, the largest absolute change over its numeric JSON and CSV fields and
that change divided by the output's largest absolute value.  An output whose
text outside those numbers changed (keys, headers, metadata, a refusal) is
marked "text differs".  --compare exits 1 when any exit code differs or any
output's text differs (a flipped "is_nonradiating" is text: JSON booleans
are not numbers), and 0 when every output is identical or moved only in its
numbers; judge the printed sizes of those moves by eye.

Byte identity only holds for the same numpy/scipy/BLAS build on the same
CPU; compare two checkouts on one machine, never digests from two machines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def run(root: Path, sub: str, scenario: str, extra: list[str], tmp: Path) -> tuple[bytes, int]:
    """The output file of one command (its stderr when it writes none) and its exit code."""
    out = tmp / f"{sub}_{scenario}.out"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{v: "1" for v in THREAD_VARS})
    argv = [sys.executable, "-m", "biharwave.cli", sub, "--config", f"scenarios/{scenario}.json"]
    proc = subprocess.run(argv + extra + ["--out", str(out)], cwd=root, env=env,
                          capture_output=True)
    data = out.read_bytes() if out.exists() else proc.stderr
    return data, proc.returncode


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _leaves(value):
    """The leaves of parsed JSON in document order, keys included."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _csv_number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def split_numbers(data: bytes) -> tuple[list[float], list]:
    """(numeric fields, all other tokens) of a JSON or CSV output.  JSON
    numbers are numbers (bools and strings are not); CSV cells are numbers
    when they parse as floats, and '#' metadata lines are tokens, whole."""
    text = data.decode("utf-8", errors="replace")
    try:
        tokens = [(float(t) if isinstance(t, (int, float)) and not isinstance(t, bool) else None, t)
                  for t in _leaves(json.loads(text))]
    except json.JSONDecodeError:
        cells = [cell for line in text.splitlines()
                 for cell in ([line] if line.startswith("#") else line.split(","))]
        tokens = [(None if cell.startswith("#") else _csv_number(cell), cell) for cell in cells]
    numbers = [value for value, _ in tokens if value is not None]
    other = [token for value, token in tokens if value is None]
    return numbers, other


def change(old: bytes, new: bytes) -> str:
    """How an output moved: largest absolute change of its numbers, and that
    change over the largest absolute value of the old output."""
    a, text_a = split_numbers(old)
    b, text_b = split_numbers(new)
    if text_a != text_b or len(a) != len(b):
        return "text differs"
    diff = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
    peak = max((abs(x) for x in a), default=0.0)
    rel = diff / peak if peak > 0 else float("inf") if diff else 0.0
    return f"max abs change {diff:.3e}  max rel change {rel:.3e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout holding src/biharwave and scenarios/ (default: this one)")
    parser.add_argument("--compare", type=Path, metavar="OTHER_ROOT",
                        help="another checkout to run too; report how each output moved")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp_new, tmp_old = Path(tmp) / "new", Path(tmp) / "old"
        tmp_new.mkdir()
        tmp_old.mkdir()
        for sub, scenario, extra in commands():
            data, code = run(root, sub, scenario, extra, tmp_new)
            if args.compare is None:
                print(f"{_sha(data)}  {code}  {sub}:{scenario}", flush=True)
                continue
            old, old_code = run(args.compare.resolve(), sub, scenario, extra, tmp_old)
            line = f"{_sha(old)} {_sha(data)}  {old_code} {code}  {sub}:{scenario}"
            moved = change(old, data) if old != data else None
            if moved is not None:
                line += f"  moved: {moved}"
            if old_code != code or moved == "text differs":
                status = 1
            print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
