"""Forward solver: exterior wave fields, boundary traces, far-field patterns.

The radiated field of a source f splits into two radiation solutions,

    u = (f_h - f_m) / (2 kappa**2),

where f_h solves the Helmholtz equation driven by f and f_m the modified
Helmholtz equation.  Two independent evaluation routes are provided:

* direct quadrature of the kernels against the source (points strictly
  outside the support), and
* angular-mode series built from the modal coefficients (valid from the
  support radius outward), which is also how boundary traces are computed:
  the trace derivatives come from analytic recurrences, not numerical
  differentiation, because the near-field identities downstream need them
  at the 1e-8 level.

Outside the support, f_h and f_m solve the homogeneous equations, so the
Laplacian trace needs no new series: lap u = -(f_h + f_m) / 2.

Exponentially decaying modal terms are evaluated in scaled form (factor
exp(kappa r) removed and reapplied at combination time) so that large-radius
evaluation underflows cleanly to zero instead of producing NaNs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from . import specfun
from .context import WaveContext
from .kernels import phi_h_of_r, phi_m_of_r
from .quadrature import BoundaryGrid, product_grid, spherical_params, split_params
from .sources import SourceField, SupportViolationError, resolve_coefficients

# Points per chunk in the direct-quadrature evaluator (memory control).
_EVAL_CHUNK = 32

# Relative slack within which a point counts as on the quadrature grid's angle
# lattice, and two probe radii as one ring (rounding is about 1e-14 of a step).
_LATTICE_TOL = 1e-12


@dataclass(frozen=True)
class FieldSample:
    """Field values at one point: total field and its two radiation parts."""

    point: np.ndarray
    u: complex
    f_h: complex
    f_m: complex


@dataclass(frozen=True)
class BoundaryTrace:
    """The four measurement channels on the boundary sphere."""

    grid: BoundaryGrid
    u: np.ndarray
    du_dnu: np.ndarray
    lap_u: np.ndarray
    dlap_u_dnu: np.ndarray

    def stacked(self) -> np.ndarray:
        """All four channels as a (4, M) array (fixed channel order)."""
        return np.vstack([self.u, self.du_dnu, self.lap_u, self.dlap_u_dnu])


# ---------------------------------------------------------------------------
# Direct quadrature route
# ---------------------------------------------------------------------------
def _lattice_steps(angular, pts):
    """Each point's index on the 2D rule's angle lattice, or None when any
    point is off that lattice (by more than rounding) or the rule is 3D."""
    if angular.dimension != 2:
        return None
    steps = spherical_params(pts)[1] * (angular.count / (2.0 * np.pi))
    nearest = np.rint(steps)
    if np.any(np.abs(steps - nearest) > _LATTICE_TOL * angular.count):
        return None
    return nearest.astype(int) % angular.count


def _eval_quadrature(ctx, src, pts):
    grid = product_grid(ctx, src.resolve_radial_order())
    fw = src.values_on(grid) * grid.weights
    f_h = np.zeros(pts.shape[0], dtype=complex)
    f_m = np.zeros(pts.shape[0], dtype=complex)
    steps = _lattice_steps(grid.angular, pts)
    if steps is not None:
        # On a ring of probes at the lattice angles the kernel depends only on
        # the radial node and the angle step between probe and node: one table
        # per ring, rolled to each probe's angle.
        cos, sin = grid.angular.directions.T
        nodes = grid.radial.nodes[:, None]
        r = np.linalg.norm(pts, axis=-1)
        rs = np.sort(r)
        rings = rs[np.diff(rs, prepend=-np.inf) > _LATTICE_TOL * rs]  # smallest radius of each ring
        ring_of = np.searchsorted(rings, r, side="right") - 1
        for k, rho in enumerate(rings):
            dist = np.hypot(rho - nodes * cos, nodes * sin)
            table_h, table_m = phi_h_of_r(ctx, dist), phi_m_of_r(ctx, dist)
            for p in np.flatnonzero(ring_of == k):
                f_h[p] = -np.roll(table_h, steps[p], axis=1).reshape(-1) @ fw
                f_m[p] = -np.roll(table_m, steps[p], axis=1).reshape(-1) @ fw
        return f_h, f_m
    for start in range(0, pts.shape[0], _EVAL_CHUNK):
        chunk = pts[start : start + _EVAL_CHUNK]
        dist = np.linalg.norm(chunk[:, None, :] - grid.points[None, :, :], axis=-1)
        f_h[start : start + _EVAL_CHUNK] = -phi_h_of_r(ctx, dist) @ fw
        f_m[start : start + _EVAL_CHUNK] = -phi_m_of_r(ctx, dist) @ fw
    return f_h, f_m


def _check_directions(ctx, directions) -> np.ndarray:
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.shape[1] != ctx.dimension:
        raise ValueError(f"directions must have {ctx.dimension} components")
    if not np.allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12):
        raise ValueError("directions must be unit vectors")
    return dirs


def _volume_transform(ctx, src, directions, scale):
    """sum over the ball grid of exp(scale * dir . y) f(y) w(y), one value per unit direction."""
    dirs = _check_directions(ctx, directions)
    grid = product_grid(ctx, src.resolve_radial_order())
    fw = src.values_on(grid) * grid.weights
    return np.exp(scale * dirs @ grid.points.T) @ fw


# ---------------------------------------------------------------------------
# Modal series route
# ---------------------------------------------------------------------------
def _radial_tables(ctx, truncation, t, derivative):
    """Prefactors and per-degree radial factors of the f_h and f_m series at
    t = kappa r (shape (M, 1)): the outgoing family and the exp(t)-scaled
    decaying family, or their r-derivatives."""
    k = ctx.kappa
    if ctx.dimension == 2:
        n = np.arange(-truncation, truncation + 1)
        if derivative:
            c = -0.5j * np.pi * k
            return c, c, _sp.h1vp(n, t), specfun.hankel1_imag_scaled_dt(n, t)
        c = -0.5j * np.pi
        return c, c, _sp.hankel1(n, t), specfun.hankel1_imag_scaled(n, t)
    n = np.arange(truncation + 1)
    if derivative:
        h = k * (_sp.spherical_jn(n, t, derivative=True) + 1j * _sp.spherical_yn(n, t, derivative=True))
        return -1j * k, k, h, k * specfun.sph_hankel1_imag_scaled_dt(n, t)
    h = _sp.spherical_jn(n, t) + 1j * _sp.spherical_yn(n, t)
    return -1j * k, k, h, specfun.sph_hankel1_imag_scaled(n, t)


def _per_mode(ctx, table):
    """Per-degree columns repeated over the 2n+1 orders of each degree (3D)."""
    if ctx.dimension == 2:
        return table
    n = np.arange(table.shape[1])
    return np.repeat(table, 2 * n + 1, axis=1)


def _modal_series(ctx, coeffs, r, basis, derivative=False):
    """f_h and f_m (or their radial derivatives) at radii r from the exterior
    mode series; basis holds the modes' angular factors at the same points."""
    t = ctx.kappa * r
    damp = np.exp(-t)
    c_h, c_m, h, s = _radial_tables(ctx, coeffs.truncation, t[:, None], derivative)
    # Named tables: numpy may overwrite an unnamed temporary right operand in
    # place, which changes how a complex product rounds under FMA.
    H = _per_mode(ctx, h)
    S = _per_mode(ctx, s)
    f_h = c_h * (basis * H) @ coeffs.alpha
    f_m = c_m * damp * ((basis * S) @ coeffs.beta)
    return f_h, f_m


def _eval_modal(ctx, src, pts, truncation):
    coeffs = resolve_coefficients(ctx, src, truncation)
    r, theta, phi = spherical_params(pts)
    basis = specfun.angular_basis(ctx.dimension, coeffs.truncation, theta, phi)
    return _modal_series(ctx, coeffs, r, basis)


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------
def eval_field_batch(
    ctx: WaveContext,
    src: SourceField,
    points,
    method: str,
    truncation: int | None = None,
):
    """Evaluate (u, f_h, f_m) at exterior points, shape (M, d).

    method 'quadrature' integrates the kernels against the source and needs
    every point strictly outside the support radius.  In 2D, when every
    point lies on the quadrature grid's angle lattice (rings of probes such
    as direction_grid's), each probe radius shares one kernel table, rolled
    to each probe's angle; scattered points use the dense sum.  'modal' sums the
    exterior angular-mode series (valid from the support radius outward).
    Points with a coordinate that is not finite are refused.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != ctx.dimension:
        raise ValueError(f"points must have {ctx.dimension} components")
    finite = np.all(np.isfinite(pts), axis=1)
    if not np.all(finite):
        raise ValueError(f"field points must be finite; got {pts[~finite].tolist()}")
    r = np.linalg.norm(pts, axis=-1)
    if method == "quadrature":
        if not np.all(r > src.support_radius):
            raise ValueError(
                "quadrature evaluation needs |x| > support radius "
                f"({src.support_radius}); got min |x| = {r.min():.6g}"
            )
        f_h, f_m = _eval_quadrature(ctx, src, pts)
    elif method == "modal":
        if not np.all(r >= src.support_radius * (1.0 - 1e-12)):
            raise ValueError(
                "modal evaluation is valid from the support radius outward "
                f"({src.support_radius}); got min |x| = {r.min():.6g}"
            )
        f_h, f_m = _eval_modal(ctx, src, pts, truncation)
    else:
        raise ValueError(f"unknown method {method!r}")
    u = (f_h - f_m) / (2.0 * ctx.kappa**2)
    return u, f_h, f_m


def eval_field(ctx: WaveContext, src: SourceField, point, **kwargs) -> FieldSample:
    """FieldSample of u and its two radiation parts at a single exterior point."""
    pt = np.asarray(point, dtype=float).reshape(1, -1)
    u, f_h, f_m = eval_field_batch(ctx, src, pt, **kwargs)
    return FieldSample(point=pt[0], u=complex(u[0]), f_h=complex(f_h[0]), f_m=complex(f_m[0]))


def boundary_trace(
    ctx: WaveContext,
    src: SourceField,
    grid: BoundaryGrid,
    truncation: int | None = None,
) -> BoundaryTrace:
    """The four boundary channels (u, normal derivative, Laplacian, its
    normal derivative) on the measurement grid, from the exterior series.

    For sources supported strictly inside the ball all four channels are
    classical.  Full-support sources are evaluated as the exterior limit,
    which is exact whenever the exterior field extends smoothly to the
    boundary (in particular for every certified nonradiating source).
    src may also be the source's ModalCoefficients, computed once and shared
    with the spectral syntheses.
    """
    if isinstance(src, SourceField) and src.support_radius > ctx.radius * (1 + 1e-12):
        raise SupportViolationError(
            f"source support {src.support_radius} exceeds the context ball R = {ctx.radius}"
        )
    coeffs = resolve_coefficients(ctx, src, truncation)
    r = np.full(grid.count, ctx.radius)
    basis = specfun.angular_basis(ctx.dimension, coeffs.truncation, *split_params(grid.params))
    f_h, f_m = _modal_series(ctx, coeffs, r, basis)
    df_h, df_m = _modal_series(ctx, coeffs, r, basis, derivative=True)
    scale = 1.0 / (2.0 * ctx.kappa**2)
    return BoundaryTrace(
        grid=grid,
        u=(f_h - f_m) * scale,
        du_dnu=(df_h - df_m) * scale,
        lap_u=-(f_h + f_m) / 2.0,
        dlap_u_dnu=-(df_h + df_m) / 2.0,
    )


def far_field(ctx: WaveContext, src: SourceField, directions) -> np.ndarray:
    """Far-field pattern at unit directions, shape (M, d): the source's
    Fourier data at spatial frequency kappa * direction.

    The large-radius field obeys
    u(x) ~ -(mu_d / (8 kappa^2)) exp(i kappa |x|) / (pi |x|)^((d-1)/2) * u_inf(xhat).
    """
    return _volume_transform(ctx, src, directions, -1j * ctx.kappa)


# ---------------------------------------------------------------------------
# Trace CSV
# ---------------------------------------------------------------------------
def write_trace_csv(trace: BoundaryTrace, fh, meta: dict | None = None) -> None:
    """Write a trace as CSV: parameter angles then re/im pairs per channel.

    meta entries become '#'-prefixed header lines (written sorted for
    reproducibility).
    """
    for key in sorted(meta or {}):
        fh.write(f"# {key}={meta[key]}\n")
    is_3d = trace.grid.params.ndim == 2
    header = ["theta"] + (["phi"] if is_3d else [])
    for name in ("u", "dnu_u", "lap_u", "dnu_lap_u"):
        header += [f"{name}_re", f"{name}_im"]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for i in range(trace.grid.count):
        if is_3d:
            row = [repr(float(trace.grid.params[i, 0])), repr(float(trace.grid.params[i, 1]))]
        else:
            row = [repr(float(trace.grid.params[i]))]
        for arr in (trace.u, trace.du_dnu, trace.lap_u, trace.dlap_u_dnu):
            row += [repr(float(arr[i].real)), repr(float(arr[i].imag))]
        writer.writerow(row)
