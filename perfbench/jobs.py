"""Seeded job lists and correctness oracles for the in-process workloads.

A workload's job list is one pass: a fixed sequence of job slots, one
source each.  A slot fixes the family and dimension of its source and the
group its root index is drawn from; the seed draws everything else (root
index within the slot's stratum of its group, centre, width, support,
amplitude, probe points, directions).  Fixing the slot sequence keeps the
cost of a pass the same from seed to seed, so the timings compare across
seeds; the strata spread the root indices over the whole range of a group.

Every job returns an ``Outcome``.  A job *fails* when the program refuses
(``InconsistencyError``) or when its output misses the oracle; an output
that is returned and wrong (wrong class, non-finite value, identity error
above tolerance) also makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Job:
    """One timed unit of work: a seeded source and its probe data."""

    id: str         # workload[slot]:family@root, the same in every pass
    family: str
    dimension: int
    root_index: int
    params: dict


@dataclass
class Outcome:
    ok: bool
    wrong: bool = False
    detail: str = ""
    margin_decades: float | None = None


def _margin(tolerance: float, error: float) -> float:
    """Decades between an error and the tolerance that decides it (positive = inside)."""
    return math.log10(tolerance / max(error, 1e-300))


def _unit_vectors(rng, count, dimension):
    v = rng.normal(size=(count, dimension))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _draw_params(rng, family, dimension):
    if family == "gaussian":
        centre = _unit_vectors(rng, 1, dimension)[0] * rng.uniform(0.0, 0.25)
        return {
            "center": centre.tolist(),
            "sigma": float(rng.uniform(0.08, 0.12)),
            "support_radius": float(rng.uniform(0.85, 0.95)),
            "amplitude": float(rng.uniform(0.5, 2.0)),
        }
    if family == "bump":
        centre = _unit_vectors(rng, 1, dimension)[0] * rng.uniform(0.0, 0.1)
        return {
            "rho": 0.8,   # as the shipped bump scenario; see CERTIFY_GROUPS
            "center": centre.tolist(),
            "amplitude": float(rng.uniform(0.5, 2.0)),
        }
    if family == "bessel" and dimension == 3:
        m1, m2 = [(3, 4), (3, 5), (4, 5)][int(rng.integers(3))]
        return {"m1": m1, "m2": m2}
    return {}


def _stratified_roots(rng, count, lo, hi):
    """One root index per stratum of lo..hi, in seeded order over the slots."""
    values = np.arange(lo, hi + 1)
    values = np.tile(values, -(-count // values.size))
    draws = [int(rng.choice(stratum)) for stratum in np.array_split(values, count)]
    return [draws[i] for i in rng.permutation(count)]


def _make_jobs(seed: int, workload: str, slots, groups, extra=None) -> list[Job]:
    """One pass.  A slot is (family, dimension, root group); the k slots of a
    group draw their root indices from k strata of the group's range."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    roots = {}
    for name, (lo, hi) in groups.items():
        members = [i for i, slot in enumerate(slots) if slot[2] == name]
        roots.update(zip(members, _stratified_roots(rng, len(members), lo, hi)))
    jobs = []
    for i, (family, dimension, _) in enumerate(slots):
        params = _draw_params(rng, family, dimension)
        if extra is not None:
            params.update(extra(rng, dimension))
        job_id = f"{workload}[{i}]:{family}{dimension}d@r{roots[i]}"
        jobs.append(Job(job_id, family, dimension, roots[i], params))
    return jobs


def build_source(bw, job: Job):
    """Context and source of a job (the set-up work the benchmark times apart)."""
    ctx = bw.WaveContext.with_root_wavenumber(job.dimension, 1.0, job.root_index)
    p = job.params
    if job.family == "gaussian":
        src = bw.gaussian_source(ctx, center=p["center"], sigma=p["sigma"],
                                 amplitude=p["amplitude"], support_radius=p["support_radius"])
    elif job.family == "bump":
        src = bw.make_bump_nonradiating(ctx, rho=p["rho"], center=p["center"], amplitude=p["amplitude"])
    elif job.dimension == 2:
        src = bw.make_2d_bessel_nonradiating(ctx)
    else:
        src = bw.make_3d_bessel_nonradiating(ctx, p["m1"], p["m2"])
    return ctx, src


# ---------------------------------------------------------------------------
# certify: spectral.verdict with the default VerdictConfig
# ---------------------------------------------------------------------------
CERTIFY_SLOTS = [
    ("bump", 2, "bump2"),
    ("gaussian", 2, "gauss2"),
    ("bessel", 2, "bessel2"),
    ("gaussian", 3, "3d"),
    ("bessel", 2, "bessel2-refused"),
    ("bessel", 3, "3d"),
]
# 2D Gaussian and Bessel root indices span 1-10 (kappa R up to 30.6).  One
# 2D Bessel slot draws from 8-10, where the seed refuses it, the other from
# 1-7.  The 2D bump stays at root 4 with rho 0.8, where the seed refuses it
# too: its verdict costs 6.9 s at root 1 and 3.0 s at root 10, and which
# roots it passes at moves with rho, so a drawn root or rho would set the
# cost and pass count of a pass by itself.  So every pass holds two refusals
# the seed is known for, and they do not move with the seed.  The
# 3D Gaussian and 3D Bessel slots share roots 1 and 2, one each: a 3D
# verdict at root 3-4 costs 1.5-2.5x more and a pass is run three times.  A
# 3D bump verdict (8-10 s, as much as the rest of a pass) is left out for the
# same reason; the 2D bump carries the bump family.
CERTIFY_GROUPS = {
    "bump2": (4, 4), "gauss2": (1, 10), "bessel2": (1, 7), "bessel2-refused": (8, 10), "3d": (1, 2),
}


def certify_run(bw, job, built) -> Outcome:
    ctx, src = built
    expect_nonradiating = job.family != "gaussian"
    try:
        v = bw.verdict(ctx, src)
    except bw.InconsistencyError as exc:
        return Outcome(False, detail=f"InconsistencyError: {str(exc)[:160]}")
    residuals = (v.residual_modal, v.residual_spectral, v.residual_field)
    if not all(np.isfinite(residuals)):
        return Outcome(False, wrong=True, detail=f"non-finite residuals {residuals}")
    if v.is_nonradiating != expect_nonradiating:
        return Outcome(False, wrong=True, detail=f"wrong class: is_nonradiating={v.is_nonradiating}")
    if expect_nonradiating:
        margin = _margin(v.tolerance, max(residuals))
    else:
        margin = -_margin(v.tolerance, min(residuals))
    return Outcome(True, margin_decades=margin)


# ---------------------------------------------------------------------------
# boundary-data: transforms on |xi| = kappa recovered from boundary traces
# ---------------------------------------------------------------------------
BOUNDARY_SLOTS = [("gaussian", 2, "2d"), ("gaussian", 3, "3d"), ("gaussian", 2, "2d"), ("gaussian", 2, "2d")]
# At 2D root 10 (kappa R = 30.6) the exponential-weight identity misses its
# tolerance (1.6e-6 to 1.1e-5 measured); the workload stops at root 9.  A 2D
# job costs 2.5x more at root 9 than at root 1, so three 2D slots share the
# range in strata of three roots.  The 3D source stays at root 1: it is
# about 60% of a pass, and at root 2 it costs 1.5x more, so a drawn 3D root
# would set the pass's cost by itself.
BOUNDARY_GROUPS = {"2d": (1, 9), "3d": (1, 1)}
BOUNDARY_DIRECTIONS = 32
BOUNDARY_FINE = {2: 512, 3: 40}     # finer boundary resolution; default is 256 / 32
IDENTITY_TOL = 1e-6                  # |f_hat - u_hat| / ||f||, as in the acceptance suite
NONUNIQUENESS_TOL = 1e-8             # trace(f) - trace(f + g), relative to trace(f)


def _g_ratio(rng, dimension):
    return {"g_over_f": float(rng.uniform(1.0, 2.0))}


def boundary_build(bw, job):
    ctx, f = build_source(bw, job)
    g = bw.make_2d_bessel_nonradiating(ctx) if ctx.dimension == 2 else bw.make_3d_bessel_nonradiating(ctx)
    g = g.scaled(job.params["g_over_f"] * f.l2_norm() / g.l2_norm())
    grids = (bw.boundary_grid(ctx), bw.boundary_grid(ctx, BOUNDARY_FINE[ctx.dimension]))
    dirs, _ = bw.direction_grid(ctx, BOUNDARY_DIRECTIONS)
    return ctx, f, f + g, grids, dirs


def boundary_run(bw, job, built) -> Outcome:
    ctx, f, fg, grids, dirs = built
    norm = f.l2_norm()
    f_hat = bw.fourier_on_circle(ctx, f, dirs)
    f_check = bw.laplace_on_circle(ctx, f, dirs)
    errors = []
    traces = []
    for grid in grids:
        trace = bw.boundary_trace(ctx, f, grid)
        traces.append(trace)
        errors.append(float(np.max(np.abs(f_hat - bw.u_hat_from_trace(ctx, trace, dirs)))) / norm)
        errors.append(float(np.max(np.abs(f_check - bw.v_check_from_trace(ctx, trace, dirs)))) / norm)
    base = traces[0].stacked()
    gap = float(np.max(np.abs(base - bw.boundary_trace(ctx, fg, grids[0]).stacked())))
    gap /= float(np.max(np.abs(base)))
    if not np.all(np.isfinite(errors + [gap])):
        return Outcome(False, wrong=True, detail=f"non-finite identity errors {errors} / gap {gap}")
    margin = min(min(_margin(IDENTITY_TOL, e) for e in errors), _margin(NONUNIQUENESS_TOL, gap))
    if max(errors) > IDENTITY_TOL or gap > NONUNIQUENESS_TOL:
        return Outcome(False, wrong=True, margin_decades=margin,
                       detail=f"identity errors {max(errors):.2e}, trace gap {gap:.2e}")
    return Outcome(True, margin_decades=margin)


# ---------------------------------------------------------------------------
# field-scatter: dense kernel quadrature at off-grid exterior points
# ---------------------------------------------------------------------------
FIELD_SLOTS = [("gaussian", 2, "2d"), ("gaussian", 3, "3d")] * 2
FIELD_GROUPS = {"2d": (1, 10), "3d": (1, 2)}
FIELD_POINTS = 16
FIELD_DIRECTIONS = 8
ROUTE_TOL = 1e-8       # quadrature vs modal field, relative to max |u| (as the field tests)
FAR_FIELD_TOL = 1e-9   # far_field vs fourier_on_circle, relative to ||f|| (as the acceptance suite)


def _scatter(rng, dimension):
    radii = rng.uniform(1.05, 4.0, size=(FIELD_POINTS, 1))
    return {
        "points": (radii * _unit_vectors(rng, FIELD_POINTS, dimension)).tolist(),
        "directions": _unit_vectors(rng, FIELD_DIRECTIONS, dimension).tolist(),
    }


def field_build(bw, job):
    ctx, src = build_source(bw, job)
    return ctx, src, np.array(job.params["points"]), np.array(job.params["directions"])


def field_run(bw, job, built) -> Outcome:
    ctx, src, points, dirs = built
    u_quad, _, _ = bw.eval_field_batch(ctx, src, points, method="quadrature")
    u_modal, _, _ = bw.eval_field_batch(ctx, src, points, method="modal")
    route = float(np.max(np.abs(u_quad - u_modal))) / float(np.max(np.abs(u_quad)))
    far = bw.far_field(ctx, src, dirs)
    far_gap = float(np.max(np.abs(far - bw.fourier_on_circle(ctx, src, dirs)))) / src.l2_norm()
    if not np.isfinite(route) or not np.isfinite(far_gap):
        return Outcome(False, wrong=True, detail=f"non-finite route gaps {route} / {far_gap}")
    margin = min(_margin(ROUTE_TOL, route), _margin(FAR_FIELD_TOL, far_gap))
    if route > ROUTE_TOL or far_gap > FAR_FIELD_TOL:
        return Outcome(False, wrong=True, margin_decades=margin,
                       detail=f"quadrature/modal gap {route:.2e}, far-field gap {far_gap:.2e}")
    return Outcome(True, margin_decades=margin)


@dataclass(frozen=True)
class Workload:
    """A job list from a seed, and the build and run functions of its jobs."""

    slots: list
    groups: dict
    build: object   # (bw, job) -> built inputs, untimed
    run: object     # (bw, job, built) -> Outcome, timed
    extra: object = None

    def make_jobs(self, seed: int, name: str) -> list[Job]:
        return _make_jobs(seed, name, self.slots, self.groups, self.extra)


WORKLOADS = {
    "certify": Workload(CERTIFY_SLOTS, CERTIFY_GROUPS, build_source, certify_run),
    "boundary-data": Workload(BOUNDARY_SLOTS, BOUNDARY_GROUPS, boundary_build, boundary_run, _g_ratio),
    "field-scatter": Workload(FIELD_SLOTS, FIELD_GROUPS, field_build, field_run, _scatter),
}
