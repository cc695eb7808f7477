"""Every workload at once: end-to-end metrics, failures, tracing overhead and
the exact-repeat check of the computed counts.

    python3 perfbench/report.py [--seed N | --holdout]

Run from the root of a checkout.  For each workload this makes one untraced
run and two traced runs of perfbench/run.py with the same seed, each of
BENCHMARK.json's ``run_seconds``.  It prints every end-to-end metric by
name with its unit, the failing jobs, the tracing overhead (traced against
untraced jobs_per_s) and whether every count-type layer metric came out
identical in the two traced runs.  Exits 1 if an output was wrong or a
count did not repeat.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["certify", "boundary-data", "field-scatter", "cli"]
HOLDOUT_SEED = 1009   # never used while the benchmark was tuned; check claims on it too
COUNT_SUFFIXES = (".calls", ".pairs", ".cells", ".nodes", ".points", ".projections_per_job", ".distinct_frac")


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    notes = {line.split(" ", 2)[1]: line.split(" ", 2)[2] for line in lines if line.startswith("# ")}
    failed = [line[len("# failed "):] for line in lines if line.startswith("# failed ")]
    return json.loads(lines[-1]), notes, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--holdout", action="store_true", help=f"use the held-out seed {HOLDOUT_SEED}")
    args = p.parse_args(argv)
    seed = HOLDOUT_SEED if args.holdout else args.seed

    healthy = True
    for workload in WORKLOADS:
        plain, notes, failed = run(workload, seed, 0)
        traced = [run(workload, seed, 1)[0] for _ in range(2)]
        print(f"== {workload} (seed {seed}): attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct']}")
        for name, metric in json.loads(notes["end_to_end"]).items():
            value = metric["value"]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<20} {shown:>12} {metric['unit']}")
        for line in failed:
            print(f"  failed: {line}")
        untraced_rate = plain["metrics"]["jobs_per_s"]["value"]
        traced_rate = traced[0]["metrics"]["traced_jobs_per_s"]["value"]
        print(f"  tracing overhead     {untraced_rate / traced_rate - 1.0:+.3%} of job time")
        counts = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(COUNT_SUFFIXES)} for t in traced]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        print(f"  computed counts      {'repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        healthy &= plain["correct"] and all(t["correct"] for t in traced) and not differ
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
