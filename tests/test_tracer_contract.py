"""The layer tracer of perfbench/ against the library signatures it relies on.

The tracer binds call arguments by name (ctx, src, points, directions),
reads eval_field_batch's method as its 4th positional argument and works
out a field call's pair count from the product grid the source resolves to.
It wraps modal_coefficients and project_modes in every namespace that binds
them, so a cached coefficient lookup still shows as a call.
A signature change that breaks any of that would only show in a traced
benchmark run; these tests run small traced sessions in child processes,
so the wrappers never reach the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _traced(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
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
