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
The measurements are data on the context's sphere |x| = R: a trace keeps
only the angular rule of its nodes, and the functionals scale the rule's
directions and weights by the context's R.

The modal route takes a source (SourceField) and nothing else: its
coefficients come from sources.modal_coefficients at the truncation asked
for (default_mode_truncation when None), and the source keeps them, so the
transforms, the null-space residual and the verdict of one source at one
truncation share one projection.

The modal syntheses on the kappa sphere follow the points they are asked
at.  verdict's spectral residual and every probe radius of
nullspace_residual are columns of one specfun.rule_synthesis on the
AngularRule behind direction_grid (an inverse FFT in 2D, the separated
harmonic synthesis in 3D).  fourier_on_circle and laplace_on_circle take
caller-given directions, so they sum the dense angular basis there.

Callers pass unit directions only; the evaluation radius is snapped to
exactly kappa internally, so off-sphere queries are unrepresentable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields, specfun
from .context import WaveContext, _check_integer, _is_real
from .fields import _check_directions
from .kernels import green_biharmonic
from .quadrature import angular_rule, spherical_params
from .sources import SourceField, default_mode_truncation, modal_coefficients
from .specfun import _ipow

__all__ = [
    "InconsistencyError",
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

    It is also raised when the source is zero at every node of its grid,
    which no route can tell from a nonradiating source: a source narrower
    than the grid's spacing, or the zero source.  The message names the grid.
    """


@dataclass(frozen=True)
class VerdictConfig:
    """Knobs for the certification pipeline (all have working defaults).

    truncation and direction_count are integers (numpy's too), tolerance a
    real number; a bool is refused for each, as is a fraction for a count.
    """

    tolerance: float = 1e-6
    truncation: int | None = None
    direction_count: int = 16

    def __post_init__(self):
        # a tolerance that no residual can meet (<= 0, NaN) would report every
        # source, invisible ones included, as radiating
        if not (_is_real(self.tolerance) and np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        if self.truncation is not None:
            _check_integer("truncation", self.truncation, 0)
        _check_integer("direction_count", self.direction_count, 1)


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
def _direction_rule(ctx, count):
    """The AngularRule behind direction_grid(ctx, count)."""
    _check_integer("direction count", count, 1)
    if ctx.dimension == 2:
        return angular_rule(ctx, max(count, 4))
    return angular_rule(ctx, max(2, int(np.ceil(np.sqrt(count / 2.0)))))


def direction_grid(ctx: WaveContext, count: int):
    """Unit directions for sampling the kappa sphere.

    2D: count equispaced angles, at least 4 (the floor of angular_rule).
    3D: the product rule closest to count nodes (polar Gauss x equispaced
    azimuth), at least count in total.  Returns (directions, params) as in
    AngularRule.
    """
    rule = _direction_rule(ctx, count)
    return rule.directions, rule.params


# ---------------------------------------------------------------------------
# Restricted transforms (modal synthesis)
# ---------------------------------------------------------------------------
def _sphere_measure(ctx) -> float:
    """|S^(d-1)|: 2 pi in 2D, 4 pi in 3D."""
    return 2.0 * np.pi if ctx.dimension == 2 else 4.0 * np.pi


def _signed_modes(coeffs, sign):
    """sign**n-weighted coefficients: sign -1 pairs (-i)^n with alpha (the
    Fourier data), sign +1 pairs i^n with beta (the exponential-weight
    transform)."""
    degrees = specfun.mode_degrees(coeffs.dimension, coeffs.truncation)
    return _ipow(sign * degrees) * (coeffs.alpha if sign < 0 else coeffs.beta)


def _on_circle(ctx, src, directions, sign, truncation):
    """|S^(d-1)| times the mode sum of the sign**n-weighted coefficients at
    caller-given directions, on the dense angular basis."""
    dirs = _check_directions(ctx, directions)
    coeffs = modal_coefficients(ctx, src, truncation)
    basis = specfun.angular_basis(ctx.dimension, coeffs.truncation, *spherical_params(dirs)[1:])
    return _sphere_measure(ctx) * basis @ _signed_modes(coeffs, sign)


def fourier_on_circle(ctx: WaveContext, src: SourceField, directions, truncation: int | None = None) -> np.ndarray:
    """Fourier data of the source at frequency kappa * direction, synthesized
    from its modal coefficients at the truncation (default_mode_truncation
    when None).

    2D: 2 pi sum_n (-i)^n alpha_n exp(i n arg(dir));
    3D: 4 pi sum_(n, m) (-i)^n alpha_n^m Y_n^m(dir).
    """
    return _on_circle(ctx, src, directions, -1, truncation)


def laplace_on_circle(ctx: WaveContext, src: SourceField, directions, truncation: int | None = None) -> np.ndarray:
    """Exponential-weight transform of the source at s = kappa * direction,
    synthesized from its modal coefficients at the truncation
    (default_mode_truncation when None).

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
    and c = z . z.  The trace is data on the context's sphere |x| = R: its
    nodes x are R times the directions nu of its rule (the outward normals)
    and their surface weights w are R**(d-1) times the rule's weights.

    The channels group into the d + 1 columns [p, nu_1 q, ..., nu_d q] with
    p = d_nu lap u + c d_nu u and q = lap u + c u; fields._phase_sums sums
    each weighted column against the phase kappa dir . x, in node blocks
    whose table over all the directions holds at most
    fields._TABLE_BUDGET entries.  A trace taken in another context than
    ctx (another R, kappa or dimension) is refused, naming both: its nodes
    would be scaled by the wrong R and its channels paired with the wrong
    kappa.
    """
    if trace.ctx != ctx:
        raise ValueError(f"the trace was taken in {trace.ctx} but is summed in {ctx}")
    dirs = _check_directions(ctx, directions)
    rule = trace.grid
    nodes = ctx.radius * rule.directions
    weights = ctx.radius ** (ctx.dimension - 1) * rule.weights
    c = -ctx.kappa**2 if oscillating else ctx.kappa**2
    cols = np.vstack([trace.dlap_u_dnu + c * trace.du_dnu, rule.directions.T * (trace.lap_u + c * trace.u)])
    sums = fields._phase_sums(ctx, nodes, cols, weights, dirs, oscillating)
    z = (1j if oscillating else 1.0) * ctx.kappa * dirs
    return -(sums[:, 0] + np.sum(z * sums[:, 1:], axis=1))


def u_hat_from_trace(ctx: WaveContext, trace: fields.BoundaryTrace, directions) -> np.ndarray:
    """Fourier data on the kappa sphere recovered from the four boundary
    channels alone; equals the source's Fourier data there.  A trace taken
    in another context is refused."""
    return _trace_transform(ctx, trace, directions, oscillating=True)


def v_check_from_trace(ctx: WaveContext, trace: fields.BoundaryTrace, directions) -> np.ndarray:
    """Exponential-weight transform on the kappa sphere recovered from the
    boundary channels alone; equals the source's transform there.  A trace
    taken in another context is refused."""
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
    kernel integral, both evaluated through the mode expansions of the
    source's coefficients at the truncation (default_mode_truncation when
    None).  The probes are the directions of direction_grid(ctx, 16) at each
    radius: every radius is a column of each integral in one
    specfun.rule_synthesis on that grid's rule.  The decaying integral's
    radial factors are fields._radial_tables', its prefactor and
    exp(-kappa r) already folded in.

    Zero (below tolerance) exactly for sources with no exterior field.
    probe_radii is one radius or a non-empty 1-D list, each finite and
    beyond R.
    """
    radii = np.asarray(probe_radii, dtype=float)
    if radii.ndim > 1 or radii.size == 0:  # the max over no probes would certify any source
        raise ValueError(f"probe_radii must be one radius or a non-empty 1-D list, got shape {radii.shape}")
    radii = np.atleast_1d(radii)
    if not np.all(np.isfinite(radii)) or np.any(radii <= ctx.radius):
        raise ValueError(f"probe_radii must be finite and exceed R = {ctx.radius}, got {radii.tolist()}")
    coeffs = modal_coefficients(ctx, src, truncation)
    N, nr = coeffs.truncation, len(radii)
    # one regular wave per order (2D) or degree (3D) and radius, and the
    # decaying family's per-mode factors: every radius is a column of each
    # family in one synthesis on the direction rule
    regular, _ = specfun.regular_wave_tables(ctx.dimension, N, ctx.kappa * radii)
    _, s = fields._radial_tables(ctx, N, ctx.kappa * radii[:, None], derivatives=False)
    columns = np.hstack([specfun.per_mode(ctx.dimension, regular, axis=0) * coeffs.alpha[:, None],
                         s.T * coeffs.beta[:, None]])
    sums = specfun.rule_synthesis(columns, _direction_rule(ctx, 16))
    reg = _sphere_measure(ctx) * sums[:nr]
    # the decaying-kernel integral is minus the modified radiation part, sums[nr:]
    return float(np.max(np.abs(reg) + np.abs(sums[nr:])))


def _field_scale(ctx, norm_f, probe_radii) -> float:
    """Cauchy-Schwarz bound on the field magnitude the source could radiate."""
    dmin = max(float(np.min(probe_radii)) - ctx.radius, 1e-3 * ctx.radius)
    dmax = float(np.max(probe_radii)) + ctx.radius
    r = np.linspace(dmin, dmax, 512)
    zeros = np.zeros_like(r)
    x = np.column_stack([r] + [zeros] * (ctx.dimension - 1))
    y = np.zeros((1, ctx.dimension))
    gmax = float(np.max(np.abs(green_biharmonic(ctx, x, y))))
    return float(norm_f * np.sqrt(ctx.ball_volume) * gmax)


def verdict(ctx: WaveContext, src: SourceField, config: VerdictConfig | None = None) -> NonradiatingVerdict:
    """Certify whether a source radiates, by all three routes at once.

    The source is projected once, at the working truncation plus
    STABILITY_MARGIN; the modal residual is computed there and re-checked on
    those coefficients cut back to the working truncation (truncation
    stability), and the spectral syntheses read the same projection.  The
    exterior field is probed by direct quadrature of the source itself at
    several radii.  The three routes must agree on which
    side of the tolerance they fall; disagreement raises InconsistencyError
    instead of guessing.  So does a source that is zero at every node of its
    grid, before any route runs: its residuals would all be 0 / 0.
    """
    cfg = config or VerdictConfig()
    N = int(cfg.truncation) if cfg.truncation is not None else default_mode_truncation(ctx)
    top = N + STABILITY_MARGIN
    norm_f = src.l2_norm()
    if norm_f == 0.0:  # every residual would be 0 / 0, read as nonradiating
        grid, _ = src.default_samples()
        raise InconsistencyError(
            f"the source is zero at every node of its grid ({grid.shape[0]} radial x {grid.shape[1]} "
            "angular nodes): a source narrower than the grid's spacing, or the zero source, "
            "cannot be certified"
        )

    coeffs = modal_coefficients(ctx, src, top)
    res_modal = coeffs.max_residual(norm_f)
    res_modal_low = coeffs.truncated(N).max_residual(norm_f)
    if (res_modal_low <= cfg.tolerance) != (res_modal <= cfg.tolerance):
        raise InconsistencyError(
            f"modal residual flips across the tolerance between truncations "
            f"{N} and {top} ({res_modal_low:.3e} vs {res_modal:.3e}); "
            "raise the truncation"
        )

    rule = _direction_rule(ctx, cfg.direction_count)
    dirs = rule.directions
    _check_exp_weight(ctx)
    # fourier_on_circle and laplace_on_circle at the rule's nodes, two
    # columns of one synthesis of the projection made above
    columns = np.column_stack([_signed_modes(coeffs, -1), _signed_modes(coeffs, 1)])
    fh, fc = _sphere_measure(ctx) * specfun.rule_synthesis(columns, rule)
    res_spectral = float(np.max(np.abs(fh) + np.abs(fc))) / norm_f

    probe_radii = np.array(PROBE_FACTORS) * ctx.radius
    pts = np.vstack([r * dirs for r in probe_radii])
    scale = _field_scale(ctx, norm_f, probe_radii)
    u, _, _ = fields.eval_field_batch(ctx, src, pts, method="quadrature")
    res_field = float(np.max(np.abs(u))) / scale

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
        tolerance=float(cfg.tolerance),  # the config takes numpy numbers; to_dict's JSON needs plain ones
        is_nonradiating=all(flags),
        truncation=top,
        norm_f=norm_f,
        field_scale=scale,
    )
