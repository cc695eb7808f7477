"""biharwave benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` there.
``--seconds`` defaults to ``run_seconds`` of the checkout's BENCHMARK.json.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it,
each starting with ``#``, stamp the environment, give every metric of the
run with its unit (error rate and accuracy margin included) and list the
failing jobs.  See perfbench/README.md for the metrics and workloads.
"""

import os
import sys

# Pin the BLAS and OpenMP pools before numpy loads; children inherit this.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import cliwork  # noqa: E402
import hostref  # noqa: E402
import tracer as tracing  # noqa: E402
from jobs import WORKLOADS, Outcome  # noqa: E402

WORKLOAD_NAMES = ["certify", "boundary-data", "field-scatter", "cli"]

# Nominal seconds per pass of each job list (2-vCPU Xeon, one BLAS thread).  A
# run makes round(seconds / nominal) passes, at least MIN_PASSES, so the work
# in a run is fixed by --seconds and does not depend on how fast the program
# is.  An in-process job list runs at least three times, so that each job's
# median over the passes drops a pass a burst of host load slowed.  At
# --seconds 20: three passes of certify and boundary-data, four of
# field-scatter and one of cli, 16-32 s of jobs each.
NOMINAL_PASS_S = {"certify": 10.5, "boundary-data": 6.5, "field-scatter": 4.7, "cli": 32.0}
MIN_PASSES = {"certify": 3, "boundary-data": 3, "field-scatter": 3, "cli": 1}

SETUP_REPEATS = 5
TAIL_LEVELS = (0.99, 0.95, 0.9, 0.75, 0.5)

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
    "peak_rss_mb": "MB", "error_rate": "fraction", "min_margin_decades": "decades",
}


@dataclass
class Record:
    job: str        # pass:slot
    slot: str       # the job's id, the same in every pass
    family: str     # e.g. bump2d, gaussian3d, or a cli subcommand
    start: float
    end: float
    outcome: Outcome


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "biharwave" / "__init__.py").is_file() or not (root / "scenarios").is_dir():
        sys.exit(f"perfbench: no biharwave sources under {root / 'src'}; run from the root of a checkout")
    return root


def benchmark_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def reported_metrics(root: Path, trace: int) -> dict:
    """Names and units of the metrics the last line carries, as BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in benchmark_spec(root)["per_layer" if trace else "end_to_end"]}


def import_biharwave(root: Path):
    sys.path.insert(0, str(root / "src"))
    import biharwave

    return biharwave


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------
def environment(root: Path) -> dict:
    import scipy

    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "git_commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas, "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def host_factor(extra) -> float:
    """How much slower than the reference host this run's host was (median)."""
    return statistics.median(extra["host_samples"]) / hostref.REFERENCE_S


# ---------------------------------------------------------------------------
# Set-up: fresh interpreters, timed from spawn to exit
# ---------------------------------------------------------------------------
def setup_times(args, root: Path) -> list[float]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, err = cliwork.run_child(argv, root)
        if code != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {code}): {err}")
        times.append(wall)
    return times


def setup_probe(args, root: Path) -> None:
    """Import biharwave and build every context and source of the job list."""
    bw = import_biharwave(root)
    workload = WORKLOADS[args.workload]
    for job in workload.make_jobs(args.seed, args.workload):
        workload.build(bw, job)


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------
def pass_count(args) -> int:
    return max(MIN_PASSES[args.workload], round(args.seconds / NOMINAL_PASS_S[args.workload]))


def run_in_process(args, root: Path, tracer):
    """Set-up probes, then the timed passes; (records, set-up samples, extras)."""
    setup = setup_times(args, root)
    bw = import_biharwave(root)
    if tracer is not None:
        tracing.install(tracer, bw)
    workload = WORKLOADS[args.workload]
    job_list = workload.make_jobs(args.seed, args.workload)
    records, extra = [], {"host_samples": []}
    for p in range(pass_count(args)):
        if tracer is not None:
            tracer.job = tracing.SETUP_JOB
        built = [workload.build(bw, job) for job in job_list]   # fresh objects, untimed
        for job, b in zip(job_list, built):
            tag = f"{p}:{job.id}"
            if tracer is not None:
                tracer.job = tag
            start = time.perf_counter()
            try:
                outcome = workload.run(bw, job, b)
            except Exception as exc:  # a crash is a wrong answer, not a refusal
                outcome = Outcome(False, wrong=True, detail=f"{type(exc).__name__}: {exc}"[:200])
                traceback.print_exc(file=sys.stderr)
            end = time.perf_counter()
            extra["host_samples"].append(hostref.sample())
            family = f"{job.family}{job.dimension}d"
            records.append(Record(tag, job.id, family, start, end, outcome))
    extra["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, setup, extra


def run_cli(args, root: Path, tracer):
    """Every command in a fresh child; each child's import time is a set-up sample."""
    out_dir = HERE / "_out" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    records, previous, import_s, host_samples = [], {}, [], []
    try:
        for p in range(pass_count(args)):
            for i, cmd in enumerate(cliwork.make_jobs(args.seed)):
                tag = f"{p}:{cmd.id}"
                start = time.perf_counter()
                code, wall, err, out, stats = cliwork.run_command(cmd, root, out_dir, f"{p}-{i}", tracer is not None)
                end = start + wall
                outcome = cliwork.check(cmd, code, out, previous)
                if not outcome.ok and err:
                    outcome.detail += f" | {err.strip().splitlines()[-1]}"
                records.append(Record(tag, cmd.id, cmd.subcommand, start, end, outcome))
                if stats is not None:
                    import_s.append(stats["import_s"])
                    host_samples.append(stats["host_s"])
                    if tracer is not None:
                        _merge_child_spans(tracer, tag, stats, end - stats["wall_s"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if not any((HERE / "_out").iterdir()):
            (HERE / "_out").rmdir()
    if not import_s:
        sys.exit("perfbench: no cli child got as far as importing biharwave.cli")
    extra = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
             "host_samples": host_samples}
    extra["cli.import_s"] = statistics.fmean(import_s)
    extra["cli.child_peak_rss_mb"] = extra["peak_rss_mb"]
    return records, import_s, extra


def _merge_child_spans(tracer, tag, stats, offset):
    """Re-base a child's spans onto this process's clock and job id."""
    base = len(tracer.spans)
    for name, start, end, parent, counts in stats["spans"]:
        tracer.spans.append(tracing.Span(name, start + offset, end + offset,
                                         None if parent is None else parent + base, tag, counts))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def tail(durations):
    """Highest listed percentile with at least ten samples beyond it (else the median)."""
    n = len(durations)
    level = next((q for q in TAIL_LEVELS if n * (1.0 - q) >= 10), 0.5)
    return float(np.percentile(durations, 100 * level)), level


def passed_per_s(records):
    """Jobs that passed their check, divided by the job list's wall time.

    Each job of the list counts its share of passes that passed, and its
    median wall time over the passes, so a pass slowed by a burst of host
    load drops out.  A refused or wrong job adds its time and no count.
    """
    by_slot = {}
    for r in records:
        by_slot.setdefault(r.slot, []).append(r)
    passed = sum(statistics.fmean(r.outcome.ok for r in rs) for rs in by_slot.values())
    wall = sum(statistics.median(r.end - r.start for r in rs) for rs in by_slot.values())
    return passed / wall


def end_to_end(records, setup, extra):
    """The end-to-end metrics, times scaled to the reference host; and notes."""
    host = host_factor(extra)
    durations = [(r.end - r.start) / host for r in records]
    margins = [r.outcome.margin_decades for r in records if r.outcome.margin_decades is not None]
    tail_s, level = tail(durations)
    metrics = {
        "setup_s": statistics.median(setup) / host,
        "jobs_per_s": passed_per_s(records) * host,
        "job_p50_s": statistics.median(durations),
        "job_tail_s": tail_s,
        "peak_rss_mb": extra["peak_rss_mb"],
        "error_rate": sum(not r.outcome.ok for r in records) / len(records),
        "min_margin_decades": min(margins) if margins else None,
    }
    notes = {"job_tail_level": level, "job_samples": len(durations), "setup_samples": len(setup),
             "host_factor": host, "host_samples": len(extra["host_samples"]),
             "unscaled_setup_s": statistics.median(setup), "unscaled_jobs_per_s": passed_per_s(records)}
    return metrics, notes


def per_layer(records, tracer, passes, extra):
    layers = tracing.layer_metrics(tracer.spans, len(records), passes)
    write = sum(layers.get(f"{name}.self_s", 0.0) for name in tracing.WRITE_SPANS)
    layers["cli.write_s"] = write if "cli.import_s" in extra else 0.0
    for key in ("cli.import_s", "cli.child_peak_rss_mb"):
        layers[key] = extra.get(key, 0.0)
    wall = sum(r.end - r.start for r in records)
    uncovered = sum(tracing.uncovered_time(tracer.spans, r.job, r.start, r.end) for r in records)
    layers["uncovered_frac"] = uncovered / wall
    layers["traced_jobs_per_s"] = passed_per_s(records) * host_factor(extra)
    return layers


def family_breakdown(records, tracer, top=3):
    """Per job family: mean wall time and the layers with the most self time."""
    family_of = {r.job: r.family for r in records}
    wall, count, self_s = {}, {}, {}
    for r in records:
        fam = r.family
        wall[fam] = wall.get(fam, 0.0) + r.end - r.start
        count[fam] = count.get(fam, 0) + 1
    for s, t in zip(tracer.spans, tracing.self_times(tracer.spans)):
        if s.job in family_of:
            layer = self_s.setdefault(family_of[s.job], {})
            layer[s.name] = layer.get(s.name, 0.0) + t
    out = {}
    for fam in sorted(wall):
        ranked = sorted(self_s.get(fam, {}).items(), key=lambda kv: -kv[1])[:top]
        out[fam] = {"jobs": count[fam], "wall_s": wall[fam] / count[fam],
                    "self_share": {name: t / wall[fam] for name, t in ranked}}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = checkout_root()
    if args.seconds is None:
        args.seconds = benchmark_spec(root)["run_seconds"]
    if args.setup_probe:
        setup_probe(args, root)
        return 0

    env = environment(root)
    tracer = tracing.Tracer() if args.trace else None
    runner = run_cli if args.workload == "cli" else run_in_process
    records, setup, extra = runner(args, root, tracer)

    metrics, notes = end_to_end(records, setup, extra)
    failing = [f"{r.job}: {r.outcome.detail}" for r in records if not r.outcome.ok]
    wrong = [r for r in records if r.outcome.wrong]
    summary = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} passes {pass_count(args)} "
          + json.dumps(notes))
    print("# end_to_end " + json.dumps(summary))
    for r in records:
        state = "ok" if r.outcome.ok else ("wrong" if r.outcome.wrong else "failed")
        print(f"# job {r.job} {r.end - r.start:.4f}s {state}")
    for line in failing:
        print(f"# failed {line}")

    if args.trace:
        layers = per_layer(records, tracer, pass_count(args), extra)
        layers["error_rate"] = metrics["error_rate"]
        layers["min_margin_decades"] = metrics["min_margin_decades"] or 0.0
        reported = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                    for name, unit in reported_metrics(root, 1).items()}
        print("# layers_all " + json.dumps({k: layers[k] for k in sorted(layers)}))
        print("# families " + json.dumps(family_breakdown(records, tracer)))
    else:
        reported = {name: summary[name] for name in reported_metrics(root, 0)}
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failing),
        "metrics": reported,
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
