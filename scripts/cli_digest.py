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
moved, three sizes over its numeric JSON and CSV fields: the largest
absolute change; the largest change relative to the peak (largest absolute
value) of the moved value's own column, a CSV column or a JSON key path,
floored at 1e-15 * peak of the output; and the largest per-value change
|new - old| / max(|old|, 1e-15 * peak of the output), with the JSON key path
or the CSV column and data row where it occurs.  A column's peak keeps a
move in a small column from hiding behind another column's large values (in
a spectral CSV, the angles up to 2 pi beside transforms of 1e-6); the
per-value change shows a small number that moved by a large fraction of
itself.  Both floors keep a value, or a whole column, that is rounding noise
around zero from dividing by nothing: a spectral CSV's fhat_minus_uhat_abs
column of about 1e-17 would read a 3e-17 move as a change of order one.  An
output whose text outside those numbers changed (keys, headers, metadata, a
refusal) is marked "text differs", and one whose number is the same zero
with the other sign (-0.0 against 0.0, which compare equal) "signed zero
differs at <label>".  --compare exits 1 when any exit
code differs, any output's text differs (a flipped "is_nonradiating" is
text: JSON booleans are not numbers) or a signed zero differs, and 0 when
every output is identical or moved only in its numbers; judge the printed
sizes of those moves by eye.

Byte identity only holds for the same numpy/BLAS build on the same CPU;
compare two checkouts on one machine, never digests from two machines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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


def _leaves(value, path=""):
    """(key path, leaf) for the leaves of parsed JSON in document order; each
    key is a leaf of its own, under the path of its object."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path, key
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _csv_number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_tokens(text: str):
    """(number or None, cell, column, label) for every CSV cell: its column
    is the cell in the first row (the header), and it is labelled by that
    and its row, the header being row 0; '#' metadata lines are cells,
    whole."""
    header, row = None, 0
    for line in text.splitlines():
        if line.startswith("#"):
            yield None, line, "", ""
            continue
        cells = line.split(",")
        header = header or cells
        for j, cell in enumerate(cells):
            column = header[j] if j < len(header) else f"column {j}"
            yield _csv_number(cell), cell, column, f"{column} row {row}"
        row += 1


def split_numbers(data: bytes) -> tuple[list[float], list[str], list[str], list]:
    """(numeric fields, the column of each, where each one sits, all other
    tokens) of a JSON or CSV output.  JSON numbers are numbers (bools and
    strings are not) and sit at their key path, which is their column; CSV
    cells are numbers when they parse as floats and sit at their column and
    data row; '#' metadata lines are tokens, whole."""
    text = data.decode("utf-8", errors="replace")
    try:
        tokens = [(float(t) if isinstance(t, (int, float)) and not isinstance(t, bool) else None, t, path, path)
                  for path, t in _leaves(json.loads(text))]
    except json.JSONDecodeError:
        tokens = list(_csv_tokens(text))
    numbers = [(value, column, label) for value, _, column, label in tokens if value is not None]
    other = [token for value, token, _, _ in tokens if value is None]
    return [n[0] for n in numbers], [n[1] for n in numbers], [n[2] for n in numbers], other


def _relative(x: float, y: float, floor: float) -> float:
    """|y - x| / max(|x|, floor); inf for a move away from an exact zero scale."""
    scale = max(abs(x), floor)
    if scale > 0:
        return abs(y - x) / scale
    return float("inf") if y != x else 0.0


def change(old: bytes, new: bytes) -> str:
    """How an output moved: largest absolute change of its numbers, largest
    change over the largest absolute value (peak) of its column in the old
    output (at least 1e-15 * peak of the old output), and the largest
    per-value change |new - old| / max(|old|, 1e-15 * peak of the old
    output) with where it occurs; "text differs" or "signed zero differs at
    <label>" instead when the change is more than a move of the numbers."""
    a, columns, labels, text_a = split_numbers(old)
    b, _, _, text_b = split_numbers(new)
    if text_a != text_b or len(a) != len(b):
        return "text differs"
    flips = [label for x, y, label in zip(a, b, labels)
             if x == y == 0.0 and math.copysign(1.0, x) != math.copysign(1.0, y)]
    if flips:
        return f"signed zero differs at {flips[0]}" + (f" and {len(flips) - 1} more" if flips[1:] else "")
    diff = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
    peak = max((abs(x) for x in a), default=0.0)
    column_peak = {}
    for x, column in zip(a, columns):  # floored at 1e-15 * peak of the output
        column_peak[column] = max(column_peak.get(column, 1e-15 * peak), abs(x))
    # |y - x| over the peak of its column
    rel = max((_relative(0.0, y - x, column_peak[column]) for x, y, column in zip(a, b, columns)), default=0.0)
    per_value = [(_relative(x, y, 1e-15 * peak), label) for x, y, label in zip(a, b, labels)]
    worst, where = max(per_value, key=lambda item: item[0], default=(0.0, ""))
    return (f"max abs change {diff:.3e}  max rel change {rel:.3e}  "
            f"max per-value change {worst:.3e} at {where or '-'}")


def fails(moved: str | None) -> bool:
    """Whether a change reported by change() fails --compare: a text change or a flipped signed zero."""
    return moved is not None and moved.startswith(("text differs", "signed zero differs"))


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
            if old_code != code or fails(moved):
                status = 1
            print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
