"""The layer tracer of perfbench/ against the library signatures it relies on.

The tracer binds call arguments by name (ctx, src, points, directions),
reads eval_field_batch's method as its 4th positional argument and works
out a field call's pair count from the product grid the source resolves to.
It wraps modal_coefficients and project_modes in every namespace that binds
them, so a cached coefficient lookup still shows as a call.
It wraps the CLI's table writers by name (cli._write_rows, bound to the
one CSV writer, and fields.write_trace_csv, which calls it), and reports
their self times as the write time.
A signature change that breaks any of that would only show in a traced
benchmark run; these tests run small traced sessions in child processes,
so the wrappers never reach the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json
import numpy as np
import biharwave
from biharwave import WaveContext, fields, sources, spectral
from biharwave.quadrature import boundary_grid, product_grid
from tracer import Tracer, install

ctx = WaveContext.with_root_wavenumber(2, 1.0, 1)
src = sources.gaussian_source(ctx, center=[0.2, 0.0], sigma=0.2)
nodes = product_grid(ctx, src.resolve_radial_order()).points.shape[0]
tracer = Tracer()
install(tracer, biharwave)
dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
# the method in the 4th position: a tracer that missed it would look for a
# route on the source and fail
fields.eval_field_batch(ctx, src, 1.5 * dirs, "quadrature")
fields.far_field(ctx, src, dirs[:2])
src.l2_norm()
# one source at one truncation: three coefficient lookups, one projection
fields.boundary_trace(ctx, src, boundary_grid(ctx), truncation=8)
spectral.fourier_on_circle(ctx, src, dirs, truncation=8)
spectral.laplace_on_circle(ctx, src, dirs, truncation=8)
print(json.dumps({"nodes": nodes, "spans": [
    {"name": s.name, "parent": s.parent, "counts": s.counts} for s in tracer.spans
]}))
"""


VERDICTS = """
import json
import biharwave
from biharwave import WaveContext, sources, spectral
from tracer import Tracer, install

tracer = Tracer()
install(tracer, biharwave)
for dimension in (2, 3):
    ctx = WaveContext.with_root_wavenumber(dimension, 1.0, 1)
    spectral.verdict(ctx, sources.gaussian_source(ctx, sigma=0.2, support_radius=0.9))
print(json.dumps([s.counts for s in tracer.spans if s.name == "fields.eval_field_batch.quadrature"]))
"""


CLI_WRITERS = """
import json
import sys
import biharwave
import biharwave.cli
from tracer import WRITE_SPANS, Tracer, install, self_times

config, out = sys.argv[1:]
tracer = Tracer()
install(tracer, biharwave)
commands = {}
for command in ("trace", "spectral"):
    first = len(tracer.spans)
    code = biharwave.cli.main([command, "--config", config, "--out", out, "--resolution", "16"])
    spans, selfs = tracer.spans[first:], self_times(tracer.spans)[first:]
    commands[command] = {
        "code": code,
        "names": [s.name for s in spans],
        "parents": [spans[s.parent - first].name if s.parent is not None else None for s in spans],
        "write_self_s": sum(t for s, t in zip(spans, selfs) if s.name in WRITE_SPANS),
        "trace_write_s": sum(s.end - s.start for s in spans if s.name == "fields.write_trace_csv"),
    }
print(json.dumps(commands))
"""


def _traced(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_calls_count_pairs_against_their_grid():
    out = _traced(CHILD)
    spans, nodes = out["spans"], out["nodes"]
    names = [s["name"] for s in spans]
    # the pairs come from the call's arguments, whether or not the call
    # builds its grid (the source samples its default grid once, in the
    # first call that needs it)
    for name, targets in (("fields.eval_field_batch.quadrature", 3), ("fields.far_field", 2)):
        assert spans[names.index(name)]["counts"]["pairs"] == targets * nodes
    assert "sources.l2_norm" in names
    (values,) = [s for s in spans if s["name"] == "sources.values_on"]
    assert values["counts"]["points"] == nodes == 64 * 256
    # the coefficient cache sits inside modal_coefficients: its span records
    # every call, and the projection's only the one that computes
    assert names.count("sources.modal_coefficients") == 3
    assert names.count("sources.project_modes") == 1


def test_traced_verdict_counts_every_probe_against_the_whole_grid():
    # one quadrature call per verdict, its pairs the probes times the grid's
    # nodes however few kernel values the call evaluates: 3 radii x 16
    # directions on the 64 x 256 disk grid, 3 x 18 on the 64 x 32 x 64 ball
    spans = _traced(VERDICTS)
    assert spans == [{"pairs": 3 * 16 * 64 * 256}, {"pairs": 3 * 18 * 64 * 32 * 64}]


def test_cli_writers_are_traced(tmp_path):
    # the tracer wraps cli._write_rows and fields.write_trace_csv by name; the
    # trace table is written through the same writer as cli._write_rows, so
    # its span nests one of those, and the write time (cli.write_s) sums
    # self times: the nested span adds nothing to it
    config = str(ROOT / "scenarios" / "gaussian_2d.json")
    commands = _traced(CLI_WRITERS, config, str(tmp_path / "out.csv"))
    assert [c["code"] for c in commands.values()] == [0, 0]
    trace, spectral = commands["trace"]["names"], commands["spectral"]["names"]
    assert trace.count("fields.write_trace_csv") == 1
    assert spectral.count("cli._write_rows") == 1 and "fields.write_trace_csv" not in spectral
    assert trace.count("cli._write_rows") == 1
    assert commands["trace"]["parents"][trace.index("cli._write_rows")] == "fields.write_trace_csv"
    assert commands["trace"]["write_self_s"] == pytest.approx(commands["trace"]["trace_write_s"], rel=1e-9)
