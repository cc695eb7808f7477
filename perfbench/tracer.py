"""Layer spans around the public functions of each ``biharwave`` module.

The wrappers are installed from here, at run time, into every namespace of
the package that binds a traced function (``spectral`` binds
``green_biharmonic`` and ``product_grid`` by name, ``fields`` binds
``modal_coefficients``, ...), so a call is recorded whichever module makes
it.  The library itself is not edited.

Each span holds its name, start, end, parent span and job id.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time its child spans cover.  Count-type metrics (``.pairs``, ``.cells``,
``.nodes``, ``.points``, ``.calls``) are computed from argument and result
array sizes, never timed, so they repeat exactly for a given job list.  The
``.pairs`` of the field quadrature and the far field are worked out from the
call's own arguments (points times the nodes of the product grid they ask
for), so they do not depend on whether that grid is built inside the call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute) pairs wrapped as spans; a dotted attribute names a method.
LAYER_FUNCTIONS = [
    ("quadrature", "product_grid"),
    ("quadrature", "boundary_grid"),
    ("specfun", "sph_harmonic_block"),
    ("kernels", "green_biharmonic"),
    ("sources", "project_modes"),
    ("sources", "modal_coefficients"),
    ("sources", "SourceField.values_on"),
    ("sources", "SourceField.l2_norm"),
    ("fields", "eval_field_batch"),
    ("fields", "boundary_trace"),
    ("fields", "far_field"),
    ("spectral", "verdict"),
    ("spectral", "fourier_on_circle"),
    ("spectral", "laplace_on_circle"),
    ("spectral", "u_hat_from_trace"),
    ("spectral", "v_check_from_trace"),
    ("spectral", "fourier_transform_quadrature"),
    ("spectral", "nullspace_residual"),
    ("cli", "_write_json"),
    ("cli", "_write_rows"),
    ("fields", "write_trace_csv"),
]

# Job id of spans recorded while a job list is built; left out of layer metrics.
SETUP_JOB = "set-up"

# Spans whose computed ``.pairs`` count targets times grid nodes.
PAIR_SPANS = ("fields.eval_field_batch.quadrature", "fields.far_field")

# Spans whose time is the CLI's output writing (reported as cli.write_s).
WRITE_SPANS = ("cli._write_json", "cli._write_rows", "fields.write_trace_csv")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = ""

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def leave(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()


def _grid_nodes(quadrature, call):
    """Nodes of the product grid a field call integrates over, from its arguments."""
    ctx, src = call.arguments["ctx"], call.arguments["src"]
    radial_order = src.resolve_radial_order(call.arguments.get("radial_order"))
    angular = quadrature.angular_rule(ctx, call.arguments.get("angular_count"))
    return radial_order * len(angular.weights)


def _counts(name, args, result, call, quadrature):
    """Counts computed from array sizes for one call; ``call`` binds the arguments of a pair span."""
    if name == "quadrature.product_grid":
        return {"nodes": int(result.points.shape[0])}
    if name == "specfun.sph_harmonic_block":
        truncation, theta = args[0], args[1]
        return {"cells": int(len(theta)) * (int(truncation) + 1) ** 2}
    if name == "sources.values_on":
        return {"points": int(args[1].points.shape[0])}
    if name in PAIR_SPANS:
        targets = call.arguments["points" if name.startswith("fields.eval") else "directions"]
        return {"pairs": int(len(targets)) * _grid_nodes(quadrature, call)}
    return {}


def _eval_method(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "auto")
    if method == "auto":
        method = "modal" if args[1].kind == "modal" else "quadrature"
    return method


def install(tracer: Tracer, package) -> None:
    """Replace every traced function, in every namespace that binds it, by a span wrapper."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
    quadrature = sys.modules[f"{package.__name__}.quadrature"]
    for mod_name, attr in LAYER_FUNCTIONS:
        module = sys.modules.get(f"{package.__name__}.{mod_name}")
        if module is None:  # cli is imported only by the cli workload
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(tracer, f"{mod_name}.{meth}", getattr(cls, meth), quadrature))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, f"{mod_name}.{attr}", original, quadrature)
        for other in modules:
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)


def _wrap(tracer: Tracer, name: str, fn, quadrature):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name
        if name == "fields.eval_field_batch":
            span_name = f"{name}.{_eval_method(args, kwargs)}"
        index = tracer.enter(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(index)
        span = tracer.spans[index]
        call = signature.bind(*args, **kwargs) if span_name in PAIR_SPANS else None
        span.counts = _counts(span_name, args, result, call, quadrature)
        if span_name == "sources.values_on":
            # a product grid is fixed by its (radial order, angular count) shape
            span.counts["grid_key"] = f"{id(args[0])}:{args[1].shape}"
        return result

    return traced


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child_time)]


def layer_metrics(spans: list[Span], jobs: int, passes: int) -> dict:
    """Per-layer metrics: self seconds per job, counts per pass of the job list."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    grid_keys = set()
    projections_in_verdict = 0
    verdicts = 0
    for s, t in zip(spans, selfs):
        if s.job == SETUP_JOB:
            continue
        self_s[s.name] += t
        calls[s.name] += 1
        for key, value in s.counts.items():
            if key == "grid_key":
                grid_keys.add((s.job, value))
            else:
                counts[f"{s.name}.{key}"] += value
        if s.name == "spectral.verdict":
            verdicts += 1
    for i, s in enumerate(spans):
        if s.job == SETUP_JOB:
            continue
        if s.name == "sources.project_modes" and _has_ancestor(spans, i, "spectral.verdict"):
            projections_in_verdict += 1

    out = {}
    for name, total in self_s.items():
        out[f"{name}.self_s"] = total / jobs
        out[f"{name}.calls"] = calls[name] / passes
    for name, total in counts.items():
        out[name] = total / passes
    values_on_calls = calls.get("sources.values_on", 0)
    if values_on_calls:
        out["sources.values_on.distinct_frac"] = len(grid_keys) / values_on_calls
    if verdicts:
        out["spectral.verdict.projections_per_job"] = projections_in_verdict / verdicts
    return out


def _has_ancestor(spans, index, name) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def uncovered_time(spans: list[Span], job: str, start: float, end: float) -> float:
    """Part of a job's wall interval that no top-level span of that job covers."""
    covered = sum(s.end - s.start for s in spans if s.job == job and s.parent is None)
    return max(0.0, (end - start) - covered)
