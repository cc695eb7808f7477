"""Characterization machinery for sources with no exterior field.

Three equivalent certificates are computed and cross-checked:

* modal: the projections of the source's angular-mode radial profiles onto
  the oscillatory and imaginary-argument radial wave families all vanish;
* spectral: the source's Fourier data on the sphere of radius kappa and its
  exponential-weight transform on the same sphere both vanish;
* field: the radiated field itself vanishes outside the support ball.

The spectral data can also be recovered purely from boundary measurements:
the functionals assembled in u_hat_from_trace / v_check_from_trace equal the
two transforms on the radius-kappa sphere, which is exactly why boundary
data at one frequency cannot determine more of the source than that sphere.

Callers pass unit directions only; the evaluation radius is snapped to
exactly kappa internally, so off-sphere queries are unrepresentable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from . import fields, specfun
from .context import WaveContext
from .fields import _check_directions
from .kernels import green_biharmonic
from .quadrature import angular_rule, spherical_params, split_params
from .sources import (
    ModalCoefficients,
    SourceField,
    default_mode_truncation,
    mode_degrees,
    modal_coefficients,
    resolve_coefficients,
)
from .specfun import _ipow

__all__ = [
    "InconsistencyError",
    "ModalCoefficients",
    "NonradiatingVerdict",
    "VerdictConfig",
    "direction_grid",
    "fourier_on_circle",
    "fourier_transform_quadrature",
    "laplace_on_circle",
    "laplace_transform_quadrature",
    "modal_coefficients",
    "nullspace_residual",
    "u_hat_from_trace",
    "v_check_from_trace",
    "verdict",
]

# exp(kappa * R) weights overflow doubles beyond this.
_EXP_WEIGHT_LIMIT = 700.0

# Radii, as multiples of R, at which verdict probes the exterior field.
PROBE_FACTORS = (1.05, 1.5, 3.0)

# verdict re-checks the modal residual this many modes below its truncation.
STABILITY_MARGIN = 8


def _check_exp_weight(ctx: WaveContext) -> None:
    if ctx.kappa * ctx.radius > _EXP_WEIGHT_LIMIT:
        raise OverflowError(
            f"exponential weights exp(kappa R) overflow for kappa*R = {ctx.kappa * ctx.radius:.3g}"
        )


class InconsistencyError(RuntimeError):
    """The equivalent certificates disagree; numerics, not mathematics.

    The route-disagreement message names kappa*R and the truncation.  Raising
    the truncation does not clear the known false refusals, because the modal
    and spectral residuals are divided only by the source norm while the
    imaginary-argument family grows like exp(kappa R); the README lists them.
    """


@dataclass(frozen=True)
class VerdictConfig:
    """Knobs for the certification pipeline (all have working defaults)."""

    tolerance: float = 1e-6
    truncation: int | None = None
    direction_count: int = 16

    def __post_init__(self):
        # a tolerance that no residual can meet (<= 0, NaN) would report every
        # source, invisible ones included, as radiating
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.truncation is not None and self.truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {self.truncation}")
        if self.direction_count < 1:
            raise ValueError(f"direction_count must be >= 1, got {self.direction_count}")


@dataclass(frozen=True)
class NonradiatingVerdict:
    """Aggregated certificate with one residual per characterization route.

    residual_modal: max over modes of (|alpha| + |beta|) / norm_f.
    residual_spectral: max over directions of (|f_hat| + |f_check|) / norm_f.
    residual_field: max exterior |u| over the probe set divided by
    field_scale, a Cauchy-Schwarz bound norm_f * sqrt(|B_R|) * max|kernel|
    on the field magnitude the source's mass could produce.
    """

    residual_modal: float
    residual_spectral: float
    residual_field: float
    tolerance: float
    is_nonradiating: bool
    truncation: int
    norm_f: float
    field_scale: float

    def to_dict(self) -> dict:
        return {
            "residual_modal": self.residual_modal,
            "residual_spectral": self.residual_spectral,
            "residual_field": self.residual_field,
            "N": self.truncation,
            "tolerance": self.tolerance,
            "is_nonradiating": self.is_nonradiating,
        }


# ---------------------------------------------------------------------------
# Direction grids
# ---------------------------------------------------------------------------
def direction_grid(ctx: WaveContext, count: int):
    """Unit directions for sampling the kappa sphere.

    2D: count equispaced angles.  3D: the product rule closest to count
    nodes (polar Gauss x equispaced azimuth), at least count in total.
    Returns (directions, params) as in AngularRule.
    """
    if count < 1:
        raise ValueError(f"direction count must be >= 1, got {count}")
    if ctx.dimension == 2:
        rule = angular_rule(ctx, max(count, 4))
        return rule.directions, rule.params
    polar = max(2, int(np.ceil(np.sqrt(count / 2.0))))
    rule = angular_rule(ctx, polar)
    return rule.directions, rule.params


# ---------------------------------------------------------------------------
# Restricted transforms (modal synthesis)
# ---------------------------------------------------------------------------
def _synthesis(ctx, basis, weights) -> np.ndarray:
    """|S^(d-1)| times the mode sum of weights against the angular basis."""
    return (2.0 * np.pi if ctx.dimension == 2 else 4.0 * np.pi) * basis @ weights


def _on_circle(ctx, src, directions, sign, truncation):
    """Mode synthesis of sign**n-weighted coefficients at the directions:
    sign -1 pairs (-i)^n with alpha, sign +1 pairs i^n with beta."""
    dirs = _check_directions(ctx, directions)
    coeffs = resolve_coefficients(ctx, src, truncation)
    N = coeffs.truncation
    basis = specfun.angular_basis(ctx.dimension, N, *spherical_params(dirs)[1:])
    modes = coeffs.alpha if sign < 0 else coeffs.beta
    return _synthesis(ctx, basis, _ipow(sign * mode_degrees(ctx.dimension, N)) * modes)


def fourier_on_circle(ctx: WaveContext, src, directions, truncation: int | None = None) -> np.ndarray:
    """Fourier data of the source at frequency kappa * direction, synthesized
    from the modal coefficients.

    2D: 2 pi sum_n (-i)^n alpha_n exp(i n arg(dir));
    3D: 4 pi sum_(n, m) (-i)^n alpha_n^m Y_n^m(dir).
    """
    return _on_circle(ctx, src, directions, -1, truncation)


def laplace_on_circle(ctx: WaveContext, src, directions, truncation: int | None = None) -> np.ndarray:
    """Exponential-weight transform of the source at s = kappa * direction,
    synthesized from the modal coefficients.

    2D: 2 pi sum_n i^n beta_n exp(i n arg(dir));
    3D: 4 pi sum_(n, m) i^n beta_n^m Y_n^m(dir).
    """
    _check_exp_weight(ctx)
    return _on_circle(ctx, src, directions, 1, truncation)


def fourier_transform_quadrature(ctx: WaveContext, src: SourceField, directions) -> np.ndarray:
    """Fourier data at kappa * direction by direct volume quadrature (the
    independent route against which the modal synthesis is checked)."""
    return fields._volume_transform(ctx, src, directions, oscillating=True)


def laplace_transform_quadrature(ctx: WaveContext, src: SourceField, directions) -> np.ndarray:
    """Exponential-weight transform at kappa * direction by direct quadrature."""
    _check_exp_weight(ctx)
    return fields._volume_transform(ctx, src, directions, oscillating=False)


# ---------------------------------------------------------------------------
# Near-field functionals (boundary data only)
# ---------------------------------------------------------------------------
def _trace_transform(ctx, trace, directions, oscillating):
    """-sum_x w [(d_nu lap u + c d_nu u) + (z . nu)(lap u + c u)] exp(-z . x)
    over the boundary nodes, with z = i kappa dir (oscillating) or kappa dir,
    and c = z . z.

    The channels group into p = (d_nu lap u + c d_nu u) w and
    q = (lap u + c u) w; one real table of the phase kappa dir . x (cos and
    sin, or exp(-phase)) meets the d + 1 columns [p, nu_1 q, ..., nu_d q].
    """
    dirs = _check_directions(ctx, directions)
    g = trace.grid
    c = -ctx.kappa**2 if oscillating else ctx.kappa**2
    cols = np.empty((len(g.weights), ctx.dimension + 1), dtype=complex)
    cols[:, 0] = (trace.dlap_u_dnu + c * trace.du_dnu) * g.weights
    cols[:, 1:] = g.normals * ((trace.lap_u + c * trace.u) * g.weights)[:, None]
    flat = cols.view(float)  # real and imaginary parts side by side
    phase = (ctx.kappa * dirs) @ g.points.T
    if oscillating:
        sums = (np.cos(phase) @ flat).view(complex) - 1j * (np.sin(phase) @ flat).view(complex)
    else:
        sums = (np.exp(-phase) @ flat).view(complex)
    z = (1j if oscillating else 1.0) * ctx.kappa * dirs
    return -(sums[:, 0] + np.sum(z * sums[:, 1:], axis=1))


def u_hat_from_trace(ctx: WaveContext, trace: fields.BoundaryTrace, directions) -> np.ndarray:
    """Fourier data on the kappa sphere recovered from the four boundary
    channels alone; equals the source's Fourier data there."""
    return _trace_transform(ctx, trace, directions, oscillating=True)


def v_check_from_trace(ctx: WaveContext, trace: fields.BoundaryTrace, directions) -> np.ndarray:
    """Exponential-weight transform on the kappa sphere recovered from the
    boundary channels alone; equals the source's transform there."""
    _check_exp_weight(ctx)
    return _trace_transform(ctx, trace, directions, oscillating=False)


# ---------------------------------------------------------------------------
# Null-space residual and verdict
# ---------------------------------------------------------------------------
def nullspace_residual(
    ctx: WaveContext,
    src: SourceField,
    probe_radii,
    truncation: int | None = None,
) -> float:
    """Max over exterior probes of the two annihilation integrals that define
    the invisible class: the regular-wave kernel integral and the decaying
    kernel integral, both evaluated through the mode expansions.

    Zero (below tolerance) exactly for sources with no exterior field.
    """
    radii = np.atleast_1d(np.asarray(probe_radii, dtype=float))
    if np.any(radii <= ctx.radius):
        raise ValueError(f"probe radii must exceed R = {ctx.radius}")
    coeffs = resolve_coefficients(ctx, src, truncation)
    _, params = direction_grid(ctx, 16)
    basis = specfun.angular_basis(ctx.dimension, coeffs.truncation, *split_params(params))
    degrees = mode_degrees(ctx.dimension, coeffs.truncation)
    regular = _sp.jv if ctx.dimension == 2 else _sp.spherical_jn
    worst = 0.0
    for r in radii:
        reg = _synthesis(ctx, basis, regular(degrees, ctx.kappa * r) * coeffs.alpha)
        _, f_m = fields._modal_series(ctx, coeffs, np.full(len(params), r), basis)
        # the decaying-kernel integral is minus the modified radiation part
        worst = max(worst, float(np.max(np.abs(reg) + np.abs(f_m))))
    return worst


def _field_scale(ctx, norm_f, probe_radii) -> float:
    """Cauchy-Schwarz bound on the field magnitude the source could radiate."""
    if norm_f == 0.0:
        return 0.0
    dmin = max(float(np.min(probe_radii)) - ctx.radius, 1e-3 * ctx.radius)
    dmax = float(np.max(probe_radii)) + ctx.radius
    r = np.linspace(dmin, dmax, 512)
    zeros = np.zeros_like(r)
    x = np.column_stack([r] + [zeros] * (ctx.dimension - 1))
    y = np.zeros((1, ctx.dimension))
    gmax = float(np.max(np.abs(green_biharmonic(ctx, x, y))))
    return norm_f * np.sqrt(ctx.ball_volume) * gmax


def verdict(ctx: WaveContext, src: SourceField, config: VerdictConfig | None = None) -> NonradiatingVerdict:
    """Certify whether a source radiates, by all three routes at once.

    The source is projected once, at the working truncation plus
    STABILITY_MARGIN; the modal residual is computed there and re-checked on
    those coefficients cut back to the working truncation (truncation
    stability).  The exterior field is probed by direct quadrature of the
    source itself at several radii.  The three routes must agree on which
    side of the tolerance they fall; disagreement raises InconsistencyError
    instead of guessing.
    """
    cfg = config or VerdictConfig()
    N = cfg.truncation if cfg.truncation is not None else default_mode_truncation(ctx)
    top = N + STABILITY_MARGIN

    coeffs = modal_coefficients(ctx, src, top)
    norm_f = coeffs.norm_f
    res_modal = coeffs.max_residual()
    res_modal_low = coeffs.truncated(N).max_residual()
    if (res_modal_low <= cfg.tolerance) != (res_modal <= cfg.tolerance):
        raise InconsistencyError(
            f"modal residual flips across the tolerance between truncations "
            f"{N} and {top} ({res_modal_low:.3e} vs {res_modal:.3e}); "
            "raise the truncation"
        )

    dirs, _ = direction_grid(ctx, cfg.direction_count)
    fh = fourier_on_circle(ctx, coeffs, dirs)
    fc = laplace_on_circle(ctx, coeffs, dirs)
    res_spectral = float(np.max(np.abs(fh) + np.abs(fc))) / norm_f if norm_f > 0 else 0.0

    probe_radii = np.array(PROBE_FACTORS) * ctx.radius
    pts = np.vstack([r * dirs for r in probe_radii])
    scale = _field_scale(ctx, norm_f, probe_radii)
    if norm_f > 0:
        u, _, _ = fields.eval_field_batch(ctx, src, pts, method="quadrature")
        res_field = float(np.max(np.abs(u))) / scale
    else:
        res_field = 0.0

    flags = [res_modal <= cfg.tolerance, res_spectral <= cfg.tolerance, res_field <= cfg.tolerance]
    if len(set(flags)) != 1:
        raise InconsistencyError(
            "characterization routes disagree at tolerance "
            f"{cfg.tolerance:g} (kappa*R = {ctx.kappa * ctx.radius:.4g}, truncation {top}): "
            f"modal {res_modal:.3e}, spectral {res_spectral:.3e}, field {res_field:.3e}; "
            "at large kappa*R the modal and spectral residuals are limited by the "
            "exp(kappa*R) growth of the imaginary-argument family, not by the truncation "
            "(otherwise the source may straddle the tolerance)"
        )
    return NonradiatingVerdict(
        residual_modal=res_modal,
        residual_spectral=res_spectral,
        residual_field=res_field,
        tolerance=cfg.tolerance,
        is_nonradiating=all(flags),
        truncation=top,
        norm_f=norm_f,
        field_scale=scale,
    )
