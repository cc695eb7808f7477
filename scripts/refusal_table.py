"""Print the known-refusal table: one default ``verdict`` per root index.

Runs ``spectral.verdict`` with every ``VerdictConfig`` setting at its
default on ``WaveContext.with_root_wavenumber(d, 1.0, k)`` (R = 1) for

    2D bump, rho = 0.8R                roots 1-12
    2D Bessel                          roots 1-14
    3D Bessel                          roots 1-12  (exponents 3 and 4)
    3D bump, rho = 0.8R                roots 1-6
    2D bump, rho = 0.3R                root 2     (ROADMAP item 1's small bumps,
    2D bump, rho = 0.3R at (0.5, 0)    root 2      which the default grids
    2D bump, rho = 0.2R at (0.5, 0.2)  root 2      do not resolve)
    2D bump, rho = 0.5R                root 2
    3D bump, rho = 0.3R                root 1

and prints one line per root: the class ("nonradiating" or "radiating") or
the refusal (the exception's class), then the modal, spectral and field
residuals.  A route-disagreement refusal names its residuals, and those are
printed; a refusal that names none prints "-".  A Markdown summary in the
README's format follows.  The BLAS/OpenMP thread pools are pinned to one
thread, so the output is the same on every run on one machine.  Usage, from
any directory:

    python scripts/refusal_table.py                 # this checkout
    python scripts/refusal_table.py --root OTHER    # another checkout's src/biharwave
    diff <(python scripts/refusal_table.py --root A) <(python scripts/refusal_table.py --root B)
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (label, dimension, family, root indices, the bump's (rho / R, centre / R))
SWEEP = [
    ("2D bump, ρ = 0.8R", 2, "bump", range(1, 13), (0.8, None)),
    ("2D Bessel", 2, "bessel", range(1, 15), None),
    ("3D Bessel", 3, "bessel", range(1, 13), None),
    ("3D bump, ρ = 0.8R", 3, "bump", range(1, 7), (0.8, None)),
    ("2D bump, ρ = 0.3R", 2, "bump", [2], (0.3, None)),
    ("2D bump, ρ = 0.3R at (0.5, 0)", 2, "bump", [2], (0.3, [0.5, 0.0])),
    ("2D bump, ρ = 0.2R at (0.5, 0.2)", 2, "bump", [2], (0.2, [0.5, 0.2])),
    ("2D bump, ρ = 0.5R", 2, "bump", [2], (0.5, None)),
    ("3D bump, ρ = 0.3R", 3, "bump", [1], (0.3, None)),
]
_NAMED = re.compile(r"modal (\S+), spectral (\S+), field (\S+?);")


def row(bw, dimension: int, family: str, root: int, bump) -> tuple[str, list[str]]:
    """(class or refusal, the three residuals as text) of one default verdict."""
    ctx = bw.WaveContext.with_root_wavenumber(dimension, 1.0, root)
    if family == "bump":
        rho, center = bump
        src = bw.make_bump_nonradiating(ctx, rho=rho, center=center)
    elif dimension == 2:
        src = bw.make_2d_bessel_nonradiating(ctx)
    else:
        src = bw.make_3d_bessel_nonradiating(ctx)
    try:
        v = bw.verdict(ctx, src)
    except (bw.InconsistencyError, ArithmeticError, ValueError) as exc:
        named = _NAMED.search(str(exc))
        return f"refuses ({type(exc).__name__})", list(named.groups()) if named else ["-"] * 3
    residuals = [f"{x:.3e}" for x in (v.residual_modal, v.residual_spectral, v.residual_field)]
    return "nonradiating" if v.is_nonradiating else "radiating", residuals


def _ranges(roots: list[int]) -> str:
    """'roots 1-3, 5' style text of increasing root indices."""
    runs: list[list[int]] = []
    for k in roots:
        if runs and k == runs[-1][-1] + 1:
            runs[-1].append(k)
        else:
            runs.append([k])
    parts = [f"{r[0]}–{r[-1]}" if len(r) > 1 else f"{r[0]}" for r in runs]
    return ("roots " if len(roots) > 1 else "root ") + ", ".join(parts) if roots else "none"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout holding src/biharwave (default: this one)")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import biharwave as bw

    width = max(len(entry[0]) for entry in SWEEP)
    print(f"{'source':<{width}} {'root':>4} {'kappa*R':>8}  {'result':<34} {'modal':>10} {'spectral':>10} {'field':>10}")
    summary = []
    for label, dimension, family, roots, bump in SWEEP:
        classes: dict[str, list[int]] = {"nonradiating": [], "radiating": [], "refuses": []}
        for root in roots:
            result, residuals = row(bw, dimension, family, root, bump)
            kr = bw.WaveContext.with_root_wavenumber(dimension, 1.0, root).kappa
            print(f"{label:<{width}} {root:>4} {kr:>8.4f}  {result:<34} "
                  + " ".join(f"{x:>10}" for x in residuals), flush=True)
            classes[result.split()[0]].append(root)
        summary.append((label, classes))
    print()
    print("| source | certifies | refuses |")
    print("| --- | --- | --- |")
    for label, classes in summary:
        print(f"| {label} | {_ranges(classes['nonradiating'])} | {_ranges(classes['refuses'])} |")
    for label, classes in summary:
        if classes["radiating"]:  # every source here is nonradiating by construction
            print(f"{label}: reads radiating (a wrong class) at {_ranges(classes['radiating'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
