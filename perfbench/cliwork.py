"""The cli workload: ``biharwave`` subcommands run one child process at a time.

The 22 commands (verdict, trace, spectral and field on each of the five
shipped scenarios, plus nonuniqueness pairing each Gaussian scenario with
the invisible scenario of its dimension) take about a minute together, more
than one run.  They are split into two halves of equal cost, each holding
every subcommand and every scenario; the seed's parity picks the half and
the seed orders it.  Two seeds of opposite parity cover every command.
Each half ends by repeating one trace command, so every run checks that an
output is byte-identical across repetitions; with more than one pass every
output is compared with its first pass as well.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from jobs import Outcome

INVISIBLE_FOR = {"gaussian_2d": "invisible_2d", "gaussian_3d": "invisible_3d"}

# (subcommand, scenario) halves of equal measured cost; every half holds all
# five subcommands, all five scenarios and a 3D command near peak memory.
HALVES = [
    [("verdict", "invisible_2d"), ("verdict", "bump_2d"), ("verdict", "gaussian_3d"),
     ("trace", "gaussian_3d"), ("spectral", "gaussian_2d"), ("spectral", "bump_2d"),
     ("spectral", "invisible_3d"), ("field", "invisible_2d"), ("field", "gaussian_2d"),
     ("field", "gaussian_3d"), ("nonuniqueness", "gaussian_2d")],
    [("verdict", "gaussian_2d"), ("verdict", "invisible_3d"), ("trace", "invisible_2d"),
     ("trace", "gaussian_2d"), ("trace", "bump_2d"), ("trace", "invisible_3d"),
     ("spectral", "invisible_2d"), ("spectral", "gaussian_3d"), ("field", "bump_2d"),
     ("field", "invisible_3d"), ("nonuniqueness", "gaussian_3d")],
]
# The repeated command of each half; with it the median job of both halves
# falls among commands of close cost (about 2 s), so it moves little with the half.
REPEATED = [("trace", "gaussian_3d"), ("trace", "invisible_3d")]
NONUNIQUENESS_TOL = 1e-8   # max trace gap / (||f|| + ||g||), as in the acceptance suite


@dataclass(frozen=True)
class Command:
    id: str
    subcommand: str
    scenario: str
    repeat_of: str | None = None

    def argv(self, out: Path) -> list[str]:
        args = [self.subcommand, "--config", f"scenarios/{self.scenario}.json"]
        if self.subcommand == "nonuniqueness":
            args += ["--config-g", f"scenarios/{INVISIBLE_FOR[self.scenario]}.json"]
        return args + ["--out", str(out)]


def make_jobs(seed: int) -> list[Command]:
    half = seed % 2
    rng = np.random.default_rng([seed, sum(map(ord, "cli"))])
    items = [HALVES[half][i] for i in rng.permutation(len(HALVES[half]))]
    jobs = [Command(f"cli:{sub}:{sc}", sub, sc) for sub, sc in items]
    sub, sc = REPEATED[half]
    jobs.append(Command(f"cli:{sub}:{sc}:repeat", sub, sc, repeat_of=f"cli:{sub}:{sc}"))
    return jobs


def run_child(argv: list[str], root: Path) -> tuple[int, float, str]:
    """Run a child to completion; (exit code, wall seconds, end of its stderr)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    return proc.returncode, time.perf_counter() - start, proc.stderr[-300:]


def run_command(cmd: Command, root: Path, out_dir: Path, tag: str, trace: bool):
    """Run one command; returns (exit code, wall s, stderr tail, output path, child stats)."""
    out = out_dir / f"{tag}.out"
    stats_path = out_dir / f"{tag}.stats.json"
    argv = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(stats_path)]
    argv += (["--trace"] if trace else []) + ["--"] + cmd.argv(out)
    code, wall, err = run_child(argv, root)
    stats = json.loads(stats_path.read_text()) if stats_path.exists() else None
    return code, wall, err, out, stats


def _csv_ok(text: str) -> bool:
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    if len(rows) < 2:
        return False
    values = [v for row in rows[1:] for v in row.split(",")]
    return all(math.isfinite(float(v)) for v in values)


def check(cmd: Command, code: int, out: Path, previous: dict) -> Outcome:
    """Exit code, verdict class and output identity for one command."""
    if code == 2:
        return Outcome(False, detail="exit 2 (InconsistencyError)")
    if code != 0 or not out.exists():
        return Outcome(False, wrong=True, detail=f"exit {code}")
    data = out.read_bytes()
    key = cmd.repeat_of or cmd.id
    if key in previous and previous[key] != data:
        return Outcome(False, wrong=True, detail="output differs from an earlier repetition")
    previous.setdefault(key, data)
    if cmd.subcommand == "verdict":
        report = json.loads(data)
        expect = not cmd.scenario.startswith("gaussian")
        if report["is_nonradiating"] != expect:
            return Outcome(False, wrong=True, detail=f"wrong class: is_nonradiating={report['is_nonradiating']}")
        res = [report[k] for k in ("residual_modal", "residual_spectral", "residual_field")]
        tol = report["tolerance"]
        margin = math.log10(tol / max(max(res), 1e-300)) if expect else math.log10(min(res) / tol)
        return Outcome(True, margin_decades=margin)
    if cmd.subcommand == "nonuniqueness":
        report = json.loads(data)
        bound = NONUNIQUENESS_TOL * (report["norm_f"] + report["norm_g"])
        gap = report["max_trace_discrepancy"]
        if not report["verdict_g"]["is_nonradiating"] or not gap < bound:
            return Outcome(False, wrong=True, detail=f"trace gap {gap:.2e} vs bound {bound:.2e}")
        return Outcome(True, margin_decades=math.log10(bound / max(gap, 1e-300)))
    if not _csv_ok(data.decode()):
        return Outcome(False, wrong=True, detail="malformed or non-finite CSV")
    return Outcome(True)
