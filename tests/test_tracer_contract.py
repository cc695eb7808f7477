"""The layer tracer of perfbench/ against the library signatures it relies on.

The tracer binds call arguments by name (ctx, src, points, directions),
reads eval_field_batch's method as its 4th positional argument and works
out a field call's pair count from the product grid the source resolves to.
A signature change that breaks any of that would only show in a traced
benchmark run; this test runs one small traced session in a child process,
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
from biharwave import WaveContext, fields, sources
from tracer import Tracer, install

tracer = Tracer()
install(tracer, biharwave)
ctx = WaveContext.with_root_wavenumber(2, 1.0, 1)
src = sources.gaussian_source(ctx, center=[0.2, 0.0], sigma=0.2)
dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
# a modal source, whose default method is 'modal': only a method read from
# the 4th position sends this call down the quadrature route
fields.eval_field_batch(ctx, sources.project_modes(src, 4), 1.5 * dirs, "quadrature")
fields.far_field(ctx, src, dirs[:2])
src.l2_norm()
print(json.dumps([
    {"name": s.name, "parent": s.parent, "counts": s.counts} for s in tracer.spans
]))
"""


def _children(spans, index, name):
    return [s for s in spans if s["parent"] == index and s["name"] == name]


def test_traced_calls_count_pairs_against_their_grid():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout)
    names = [s["name"] for s in spans]
    for name, targets in (("fields.eval_field_batch.quadrature", 3), ("fields.far_field", 2)):
        index = names.index(name)
        (grid,) = _children(spans, index, "quadrature.product_grid")
        assert spans[index]["counts"]["pairs"] == targets * grid["counts"]["nodes"]
    index = names.index("sources.l2_norm")
    (grid,) = _children(spans, index, "quadrature.product_grid")
    (values,) = _children(spans, index, "sources.values_on")
    assert values["counts"]["points"] == grid["counts"]["nodes"] == 64 * 256
