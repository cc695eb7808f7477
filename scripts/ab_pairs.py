"""Compare two checkouts on one perfbench workload, in alternating pairs of runs.

Each run is ``python3 perfbench/run.py --workload W --seed S --trace 0`` in
one checkout's root, in a child process.  For each seed the runs go in two
batches of ``--pairs`` pairs: the base checkout first in each pair of batch
1 and second in each pair of batch 2, so that a drift of the host over the
session, or a run that warms the file cache for the next, weighs on both
sides alike.  Usage, from any directory:

    python scripts/ab_pairs.py --base OTHER --workload boundary-data --seeds 1,1009 --pairs 5
    python scripts/ab_pairs.py --base A --head B --workload certify --seeds 1 --pairs 3 --seconds 10

For each seed, and over all seeds, it prints one line per metric: the
median and quartiles of each side, their ratio of medians (head over base),
the number of pairs the head won (better in the direction BENCHMARK.json
gives; a tie wins for neither) and the distance between the quartiles of
the base's runs, the spread a gain must beat.  The metrics are the
end-to-end metrics of the run's last line and its share of failed jobs
(``failed_frac``), then two computed from its per-job lines: the passed
jobs per second of the first pass
(``first_pass_jobs_per_s``, the cold caches of a fresh process) and of the
passes after it (``warm_jobs_per_s``), neither scaled to the reference
host.  The cli workload has one pass, so no warm figure.  Three last
lines give each side's median of three notes of the run's ``# workload``
line: ``host_factor``, the factor perfbench divides ``setup_s`` by and
multiplies ``jobs_per_s`` by, and the two figures before that scaling,
``unscaled_setup_s`` and ``unscaled_jobs_per_s``.  A ``setup_s`` or
``jobs_per_s`` ratio that its unscaled ratio does not share follows the
host factor, not a change in the code.  Each run's
metrics go to standard error as it finishes.  The script itself writes
nothing in the two checkouts (perfbench's cli workload keeps its scratch
outputs under its own ``perfbench/_out`` while it runs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

EXTRA = {"failed_frac": "lower", "first_pass_jobs_per_s": "higher", "warm_jobs_per_s": "higher"}
NOTES = ("host_factor", "unscaled_setup_s", "unscaled_jobs_per_s")


def run_once(root: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """The metrics of one perfbench run in a checkout's root."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab_pairs: perfbench failed in {root} (exit {proc.returncode}): {proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    metrics["failed_frac"] = result["failed"] / result["attempted"]
    metrics.update(pass_rates(lines))
    notes = next(line for line in lines if line.startswith("# workload "))
    notes = json.loads(notes[notes.index("{"):])
    metrics.update({name: notes[name] for name in NOTES})
    return metrics


def pass_rates(lines) -> dict:
    """Passed jobs per second of the first pass and of the later passes, from
    the ``# job <pass>:<id> <seconds>s <state>`` lines of a run."""
    passed, wall = [0, 0], [0.0, 0.0]
    for line in lines:
        if not line.startswith("# job "):
            continue
        tag, seconds, state = line.split()[2:5]
        later = int(tag.split(":", 1)[0]) > 0
        passed[later] += state == "ok"
        wall[later] += float(seconds.rstrip("s"))
    names = ("first_pass_jobs_per_s", "warm_jobs_per_s")
    return {name: passed[i] / wall[i] for i, name in enumerate(names) if wall[i] > 0.0}


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(pairs, better: dict) -> list[str]:
    """One line per metric over (base, head) pairs of metric dicts."""
    out = []
    for name, direction in better.items():
        both = [(b[name], h[name]) for b, h in pairs if name in b and name in h]
        if not both:
            continue
        base, head = [b for b, _ in both], [h for _, h in both]
        wins = sum((h < b) if direction == "lower" else (h > b) for b, h in both)
        mb, mh = statistics.median(base), statistics.median(head)
        ratio = mh / mb if mb else float("nan")
        (b1, b3), (h1, h3) = quartiles(base), quartiles(head)
        out.append(f"  {name:22s} base {mb:9.4g} [{b1:.4g}, {b3:.4g}]  head {mh:9.4g} [{h1:.4g}, {h3:.4g}]  "
                   f"ratio {ratio:6.3f}  head won {wins}/{len(both)}  base spread {b3 - b1:.3g}")
    for name in NOTES:
        mb, mh = (statistics.median(p[side][name] for p in pairs) for side in (0, 1))
        out.append(f"  {name:22s} base {mb:9.4g}  head {mh:9.4g}  ratio {mh / mb if mb else float('nan'):6.3f}")
    return out


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="the checkout to compare against")
    parser.add_argument("--head", type=Path, default=here, help="the checkout under test (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1", help="comma-separated seeds (default: 1)")
    parser.add_argument("--pairs", type=int, default=5, help="pairs per batch; two batches per seed (default: 5)")
    parser.add_argument("--seconds", type=float, help="perfbench --seconds (default: its own)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    spec = json.loads((roots["head"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]} | EXTRA
    seeds = [int(s) for s in args.seeds.split(",")]
    every = []
    for seed in seeds:
        pairs = []
        for batch, order in ((1, ("base", "head")), (2, ("head", "base"))):
            for i in range(args.pairs):
                result = {}
                for side in order:
                    result[side] = run_once(roots[side], args.workload, seed, args.seconds)
                    print(f"seed {seed} batch {batch} pair {i + 1} {side}: {json.dumps(result[side])}",
                          file=sys.stderr, flush=True)
                pairs.append((result["base"], result["head"]))
        every += pairs
        print(f"{args.workload} seed {seed}: {len(pairs)} pairs")
        print("\n".join(summary(pairs, better)))
    if len(seeds) > 1:
        print(f"{args.workload} seeds {args.seeds}: {len(every)} pairs")
        print("\n".join(summary(every, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
