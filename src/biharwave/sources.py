"""Compactly supported sources, their angular-mode projection and modal
coefficients, and the explicit nonradiating constructors.

A source (SourceField) is a pointwise function on the ball, masked to zero
outside its support radius.  Its grids end at its support: they keep the
radial nodes of the [0, R] rule below the support radius and drop the rest,
where it is zero (a Gaussian of support 0.9R 51 of 64, the rho 0.8R bump 226
of 320).  Projecting it onto angular modes (2D Fourier orders, 3D
spherical-harmonic degree/order pairs, in the layout of specfun.mode_degrees)
gives plain data, the radial profiles of ModalProfiles on those nodes, which
modal_coefficients pairs with the two regular radial wave families, in one
code path for 2D and 3D.  The angular work (the mode layout and the
analysis on the grid's angular rule) and the radial wave tables are
specfun's; this module only sizes the grid, reads the source on it and
sums the products.  A radial leaf (from_radial, about the origin: the
Bessel sources) keeps its profile, and its projection is its zero mode
alone, the profile on its own radial rule: its coefficients are two radial
sums, read on no product grid and by no angular analysis, while the field
route still reads its product-grid samples, so the two routes read it by
different rules.

Sources are linear: scaled and + build a source of parts, a flat tuple of
(factor, leaf) pairs from one combiner (_combined), and every linear route
(modal_coefficients here, the direct field quadrature and the volume
transforms in fields) adds its leaves' results times their factors, each
leaf on its own grid with its own kept samples and coefficients
(SourceField._linear).  The L2 norm is not linear: it is the source's own
(SourceField.l2_norm), not part of its coefficients, and modal_coefficients
does not read it; the verdict's residuals divide by it
(ModalCoefficients.max_residual, which refuses a zero or non-finite norm).

The nonradiating constructors apply their radial differential operators
analytically (chain rule on powers of the order-zero radial waves), never by
numerical differentiation: the certification tests chase 1e-8-level zeros
that finite differences cannot reach.  The bump's image is one closed form
in the squared distance u = |x - center|^2 (_mollifier_pair): the radial
Laplacian in u, 4 u G'' + 2 d G', divides by no power of the distance, so
one formula holds down to the centre: no Taylor branch near it, and no
digits lost where such a branch hands over.  The bump and the Gaussian
read u by one helper (_squared_distance), the one that also gives the field
quadrature its kernel distances (fields._eval_quadrature).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from numbers import Number

import numpy as np

from . import specfun
from .context import WaveContext, _check_integer, _is_real
from .quadrature import (
    DEFAULT_ANGULAR_COUNT_2D,
    DEFAULT_POLAR_COUNT_3D,
    DEFAULT_RADIAL_ORDER,
    ProductGrid,
    RadialRule,
    product_grid,
    radial_rule,
)
from .specfun import _ipow, mode_degrees, mode_index

# Grid nodes per call of a pointwise source's function on a product grid.
_SAMPLE_BUDGET = 1 << 14

# Denominator magnitudes below this are treated as degenerate normalizations.
DEGENERATE_DENOMINATOR = 1e-12

# The mollifier's fourth-order image has steep spikes near its support edge;
# this radial order resolves its projection integrals below 1e-8 relative.
_BUMP_RADIAL_ORDER = 320


class SupportViolationError(ValueError):
    """A source (or bump) support extends beyond where the operation allows."""


class DegenerateSourceError(ValueError):
    """A normalizing integral of a constructor is numerically zero."""


@dataclass(frozen=True)
class ModalProfiles:
    """Angular-mode radial profiles tabulated on a radial rule.

    values[k, j] is profile k at radius nodes[j]; row k of a mode is its
    mode_index.  Every mode above the truncation is zero: a radial leaf's
    profiles are of truncation 0 (project_modes).
    """

    dimension: int
    truncation: int
    rule: RadialRule
    values: np.ndarray

    def profile(self, n: int, m: int | None = None) -> np.ndarray:
        return self.values[mode_index(self.dimension, self.truncation, n, m)]


@dataclass(frozen=True)
class ModalCoefficients:
    """Projections of the mode profiles onto the two radial wave families.

    alpha pairs each profile with the oscillatory family J_n(kappa r)
    (spherical j_n in 3D); beta pairs it with the imaginary-argument family
    J_n(i kappa r) (spherical counterpart in 3D).  Simultaneous vanishing of
    every entry characterizes a source with no exterior field.  Layout of the
    arrays matches ModalProfiles.values rows.  The coefficients are linear
    in the source: those of a sum or a scaled source are its leaves',
    weighted by their factors and added (modal_coefficients).
    """

    dimension: int
    truncation: int
    alpha: np.ndarray
    beta: np.ndarray

    def get(self, n: int, m: int | None = None) -> tuple[complex, complex]:
        idx = mode_index(self.dimension, self.truncation, n, m)
        return complex(self.alpha[idx]), complex(self.beta[idx])

    def truncated(self, truncation: int) -> "ModalCoefficients":
        """The coefficients of the modes of degree (2D: |order|) at most the truncation."""
        _check_integer("truncation", truncation, 0)
        if not 0 <= truncation <= self.truncation:
            raise ValueError(f"truncation must lie in [0, {self.truncation}], got {truncation}")
        keep = np.abs(mode_degrees(self.dimension, self.truncation)) <= truncation
        return ModalCoefficients(self.dimension, truncation, self.alpha[keep], self.beta[keep])

    def max_residual(self, norm_f: float) -> float:
        """max over modes of (|alpha| + |beta|) / norm_f, with norm_f the
        source's L2 norm (SourceField.l2_norm), which is not linear and so
        is not part of the coefficients.  A zero norm_f (the zero source, or
        one no grid node sees) is refused: its residual would be 0 / 0, and
        0 would read as nonradiating.  So is a norm that is not finite (finite
        coefficients of values whose squares overflow, such as a Gaussian of
        amplitude 1e200): its residual would read 0 or NaN."""
        if norm_f == 0.0:
            raise ValueError("the source's L2 norm is zero: its modal residual (|alpha| + |beta|) / norm_f is 0 / 0")
        if not np.isfinite(norm_f):
            raise ValueError(f"the source's L2 norm is not finite ({norm_f}): its modal residual would read 0 or NaN")
        return float(np.max(np.abs(self.alpha) + np.abs(self.beta))) / norm_f


class SourceField:
    """A compactly supported source over the context ball: a pointwise
    function mapping (M, d) points to M values, masked to zero outside the
    support radius.

    Construct through the classmethods, scaled and +, or the constructor
    with a radial order; instances are immutable in use and safe to share.
    Its own grids (default_samples, and the finer-angle projection grid of
    a source that is not radial; a radial leaf's projection reads its
    profile on the radial rule of its default grid) end at its support
    radius and have its radial_order, an int: 64 unless the constructor is
    given another (the bump 320).  A support at or inside
    the first node of that rule would leave its grids without a node, so
    every route would sum nothing; the constructor refuses it, naming both.
    On a product grid a source reads its values by rows, one per radial
    node, each masked at the source's own support radius, in
    np.result_type(rows, float): a radial source (from_radial) evaluates its
    profile once per radial node, a pointwise one its function at the
    grid's points, called on blocks of whole radial rows of at most
    _SAMPLE_BUDGET nodes.  A source keeps its default-grid samples, its
    norm and its modal coefficients once computed.

    A route (modal_coefficients, the field quadrature, the far field and
    the volume transforms) may run under a context of another kappa or R
    than the source's; one of another dimension is refused.  It reads the
    source on the source's own grids, which its own context sizes, from its
    kept samples or, for a radial leaf, its profile on its own radial rule,
    and takes only kappa from the route's context: a radial and a pointwise
    leaf alike.

    scaled and + build a source of parts: a flat tuple of (factor, leaf)
    pairs, where a leaf is a source that is no sum or scaling and its
    factor the product of the factors above it (nested sums and scalings
    flatten, _combined).  Its support and radial order are its leaves' largest.
    Every route is linear in the source, so the modal coefficients, the
    field quadrature and the volume transforms of a source of parts add
    their leaves' results, each leaf on its own grid with its own kept
    samples and coefficients: the coefficients of f + g, once f's are
    kept, never read f again.  Its reads (evaluate, values_on) add its
    leaves' reads the same way; its norm, which is not linear, is read on
    its own default grid, which ends at the largest support.
    """

    def __init__(self, ctx, func, support_radius, radial_order=DEFAULT_RADIAL_ORDER, profile=None):
        _check_finite_real("support_radius", support_radius)
        if not 0 < support_radius <= ctx.radius * (1 + 1e-12):
            raise SupportViolationError(
                f"support_radius must lie in (0, R], got {support_radius} with R = {ctx.radius}"
            )
        _check_integer("radial order", radial_order, 2)
        # the first node of a rule of order >= 2 lies at or below that of order 2,
        # R (1 - 1/sqrt(3)) / 2 < R / 2, so a wider support solves no rule here
        first = float(radial_rule(ctx, radial_order).nodes[0]) if support_radius < 0.5 * ctx.radius else 0.0
        if support_radius <= first:  # its grid would hold no node, and every sum would be zero
            raise SupportViolationError(
                f"support_radius {support_radius} lies at or inside the first radial node {first:.6g} "
                f"of the order-{radial_order} rule"
            )
        self.ctx = ctx
        self.support_radius = float(min(support_radius, ctx.radius))
        self._func = func
        self._profile = profile  # r -> values of a radial leaf (from_radial); None reads func pointwise
        self._parts: tuple = ()  # ((factor, leaf), ...) of a sum or a scaled source (_combined)
        self.radial_order = radial_order
        self._norm: float | None = None
        self._values: np.ndarray | None = None
        self._coefficients: dict = {}  # (ctx, truncation) -> ModalCoefficients

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_callable(cls, ctx, func, support_radius=None):
        """Source from a pointwise evaluator mapping (M, d) points to M values."""
        if support_radius is None:
            support_radius = ctx.radius
        return cls(ctx, func, support_radius)

    @classmethod
    def from_radial(cls, ctx, profile, support_radius=None):
        """Radially symmetric source about the origin from a profile
        r -> value (vectorized over r).  The leaf keeps its profile: a
        product grid reads it one profile value per radial node, and its
        modal coefficients are two radial sums of the profile (project_modes)."""

        def func(points):
            return profile(np.linalg.norm(np.atleast_2d(points), axis=-1))

        if support_radius is None:
            support_radius = ctx.radius
        return cls(ctx, func, support_radius, profile=profile)

    @classmethod
    def zero(cls, ctx):
        return cls.from_callable(ctx, lambda pts: np.zeros(np.atleast_2d(pts).shape[0]))

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, points) -> np.ndarray:
        """Pointwise values, masked to zero outside the support radius, in
        np.result_type(values, float) of the function's values, the dtype
        values_on reads."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=-1)
        values = self._linear(lambda leaf: leaf.evaluate(pts)) if self._parts else self._func(pts)
        return np.where(r >= self.support_radius, 0.0, _widened(values))

    def values_on(self, grid: ProductGrid) -> np.ndarray:
        """Values at the nodes of a product grid, radial-major, in the dtype
        of the source's rows.  A grid of another dimension than the
        source's is refused, naming both.

        The source reads the grid by its rows (see the class docstring): a
        node at or beyond the support radius is zero by its radial node, not
        by the norm of its point, and a row that does not vary over the
        angles is repeated over them.
        """
        if grid.angular.dimension != self.ctx.dimension:
            raise ValueError(f"the grid is {grid.angular.dimension}D but the source is {self.ctx.dimension}D")
        rows = self._rows(grid)
        values = np.empty(grid.shape, dtype=rows.dtype)
        values[...] = rows
        return values.reshape(-1)

    def _rows(self, grid: ProductGrid) -> np.ndarray:
        """Values on a product grid, broadcastable to grid.shape (radial
        nodes by angles), zero on every radial node at or beyond the support
        radius, in np.result_type(rows, float) of the rows read: real or
        complex, never narrower than float."""
        if self._parts:
            rows = self._linear(lambda leaf: leaf._rows(grid))
        elif self._profile is not None:
            rows = np.asarray(self._profile(grid.radial.nodes))[:, None]
        else:
            # blocks of whole radial rows of at most _SAMPLE_BUDGET nodes (one
            # call, on no points, for a grid without a radial node): a 3D
            # grid's points would be a temporary of 2-3 MB
            step = max(1, _SAMPLE_BUDGET // grid.angular.count) * grid.angular.count
            rows = np.concatenate([np.asarray(self._func(grid.node_points(i, i + step))).reshape(-1, grid.angular.count)
                                   for i in range(0, max(1, grid.weights.size), step)])
        rows = _widened(rows)
        outside = grid.radial.nodes >= self.support_radius
        if outside.any():
            rows = np.where(outside[:, None], 0.0, rows)
        return rows

    def default_samples(self) -> tuple[ProductGrid, np.ndarray]:
        """The source's default product grid (the one l2_norm integrates on)
        and its values there.  The grid ends at the support: the radial
        nodes of the [0, R] rule below the support radius, with their
        weights (a Gaussian of support 0.9R keeps 51 of its 64 radial
        nodes, the rho 0.8R bump 226 of 320, a whole-ball source all).

        The values are sampled once (values_on) and cached, read-only.  The
        grid is rebuilt on each call from the cached Gauss-Legendre rules,
        which costs only its weights (a grid stores no points): a kept grid
        would hold its weights for as long as the source lives.
        """
        grid = product_grid(self.ctx, self.radial_order, extent=self.support_radius)
        if self._values is None:
            values = self.values_on(grid)
            values.flags.writeable = False
            self._values = values
        return grid, self._values

    # -- algebra ------------------------------------------------------------
    def scaled(self, factor: complex) -> "SourceField":
        """factor (a finite number) times the source; a complex factor whose
        imaginary part is zero is kept as its real part, so a real source
        stays real."""
        _check_finite_number("factor", factor)
        return _combined(((_real_if_real(factor), self),))

    def __add__(self, other: "SourceField") -> "SourceField":
        if not isinstance(other, SourceField):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ValueError("cannot add sources over different contexts")
        return _combined(((1, self), (1, other)))

    def _linear(self, route):
        """The sum over the parts of a sum or a scaled source of factor *
        route(leaf), in part order, a factor of 1 multiplying nothing; a
        route that returns a tuple of arrays gives them stacked, one row
        each."""
        terms = [_times(factor, np.asarray(route(leaf))) for factor, leaf in self._parts]
        return reduce(operator.add, terms)

    def resolve_radial_order(self, radial_order: int | None = None) -> int:
        """The radial order of a quadrature grid over this source: the
        source's own, unless an explicit order is given."""
        return self.radial_order if radial_order is None else int(radial_order)

    # -- norms ---------------------------------------------------------------
    def l2_norm(self) -> float:
        """Quadrature L2 norm over the ball (computed once, then cached).
        Values whose squares overflow give inf, which every reader refuses
        by name (ModalCoefficients.max_residual, the CLI's JSON writer)."""
        if self._norm is None:
            grid, vals = self.default_samples()
            with np.errstate(over="ignore"):  # the readers name an inf norm
                self._norm = float(np.sqrt(np.sum(np.abs(vals) ** 2 * grid.weights).real))
        return self._norm


def _combined(terms) -> SourceField:
    """The sum of factor * source over the (factor, source) terms, sources of
    one context, as a source of parts: each term's leaves (a leaf is its own
    one part, with factor 1) with the term's factor times theirs, so nested
    sums and scalings flatten.  A factor of 1 multiplies nothing."""
    parts = tuple((c if factor == 1 else _times(c, factor), leaf)
                  for factor, src in terms for c, leaf in src._parts or ((1, src),))
    src = SourceField(parts[0][1].ctx, None, max(leaf.support_radius for _, leaf in parts),
                      max(leaf.radial_order for _, leaf in parts))
    src._parts = parts
    return src


def _times(factor, value):
    """factor * value, or value itself when the factor is 1: a product by 1
    can flip the sign of a zero (in complex arithmetic, 1 is 1 + 0j)."""
    return value if factor == 1 else factor * value


# ---------------------------------------------------------------------------
# Projection onto angular modes and onto the radial wave families
# ---------------------------------------------------------------------------
def project_modes(src: SourceField, truncation: int) -> ModalProfiles:
    """Project a leaf onto angular-mode radial profiles up to the truncation.

    A radial leaf (from_radial) gives its zero mode alone, as the profiles
    of truncation 0: every other mode of a function of |x| is zero.  The
    row is its profile on its own radial rule (that of its default grid)
    times the zero mode's weight: 1 in 2D, where a profile is the mean over
    the circle, and sqrt(4 pi) in 3D, the integral of Y_0^0 = 1 / sqrt(4 pi)
    over the sphere.  No product grid is built and no angle is analysed.

    The samples of any other leaf at each radial node are analysed on the
    grid's angular rule by specfun.rule_analysis: in 2D the Fourier
    coefficients of the angular dependence by one FFT of the equispaced
    samples (exact for band-limited data), in 3D the quadrature against
    the conjugate orthonormal harmonics, separated into an FFT over the
    azimuths of each (radial, polar) ring and one Legendre sum per order,
    never the dense harmonic block.  When the default grid has enough
    angles for the truncation, the projection reads the source's cached
    default samples; otherwise it reads a grid with more angles, which also
    ends at the source's support.
    """
    ctx = src.ctx
    _check_integer("truncation", truncation, 0)
    if src._profile is not None:
        rule = radial_rule(ctx, src.radial_order, extent=src.support_radius)
        zero_mode = _widened(src._profile(rule.nodes))
        if ctx.dimension == 3:
            zero_mode = zero_mode * np.sqrt(4.0 * np.pi)
        return ModalProfiles(ctx.dimension, 0, rule, zero_mode[None, :])
    # auto-scale so the rule resolves the requested truncation: m equispaced
    # angles separate orders |n| < m/2; Gauss-in-cos(theta) with n_pol nodes
    # integrates harmonic products up to degree n_pol - 1 exactly (beyond
    # that the projection aliases)
    if ctx.dimension == 2:
        default, needed = DEFAULT_ANGULAR_COUNT_2D, 2 * truncation + 2
    else:
        default, needed = DEFAULT_POLAR_COUNT_3D, truncation + 1
    if needed <= default:
        grid, vals = src.default_samples()
    else:
        grid = product_grid(ctx, src.radial_order, needed, extent=src.support_radius)
        vals = src.values_on(grid)
    values = specfun.rule_analysis(truncation, vals.reshape(grid.shape), grid.angular)
    return ModalProfiles(ctx.dimension, truncation, grid.radial, values)


def modal_coefficients(ctx: WaveContext, src: SourceField, truncation: int | None = None) -> ModalCoefficients:
    """Project the source's mode profiles onto the two radial wave families,
    at the truncation (default_mode_truncation when None).

    2D pairs profile n with J_n(kappa r) (alpha) and J_n(i kappa r) (beta)
    under the r dr measure; 3D pairs degree n with the spherical j_n and its
    imaginary-argument counterpart under r^2 dr.  In both, the
    imaginary-argument value is i**n times the modified family, I_n or i_n,
    and the tables come from specfun.regular_wave_tables, expanded per mode.
    A leaf's profiles are summed up to their own truncation (project_modes)
    and every mode above it is zero: a radial leaf's coefficients are two
    radial sums, its zero mode on its own rule against the order-0 tables
    at this context's kappa.  A leaf's mode profiles are the only samples
    summed, and profiles that are not finite (NaN or inf source values)
    are refused by name before any table is built; no L2 norm is read, so
    a radial leaf's coefficients build and sample no product grid.  The
    coefficients of a sum or a scaled source are the sum of its leaves'
    coefficients times their factors (SourceField._linear), each leaf
    projected on its own grid and keeping its own: a source of parts is
    never projected.

    The coefficients are computed once per (context, truncation) and kept on
    the source, with alpha and beta read-only: the transforms, the boundary
    traces, the modal field and the verdict of one source at one truncation
    share one projection.  A source over a context of another dimension is
    refused.  The profiles live on the radial nodes inside the support, so
    the wave tables reach kappa times the support radius, not kappa R: a
    non-finite coefficient, a leaf's or a sum's, is refused naming that
    product.
    """
    _check_dimension(ctx, src)
    if truncation is None:
        truncation = default_mode_truncation(ctx)
    _check_integer("truncation", truncation, 0)  # before the lookup: True and 1.0 hash as 1
    key = (ctx, truncation)
    if key in src._coefficients:
        return src._coefficients[key]
    if src._parts:  # the leaves' own coefficients, each kept on its leaf
        pair = operator.attrgetter("alpha", "beta")
        alpha, beta = src._linear(lambda leaf: pair(modal_coefficients(ctx, leaf, truncation)))
    else:
        modal = project_modes(src, truncation)
        if not np.all(np.isfinite(modal.values)):
            raise ValueError("the source's mode profiles are not finite (its values summed over the angles)")
        kr = ctx.kappa * modal.rule.nodes
        measure = modal.rule.weights * modal.rule.nodes ** (ctx.dimension - 1)
        # the imaginary-argument family can leave the double range; the check
        # after this block names that, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            # orders (2D) or degrees (3D) n >= 0 only, expanded over the modes
            # (2D: J_-n = (-1)^n J_n, I_-n = I_n), up to the profiles' truncation
            osc, mod = specfun.regular_wave_tables(ctx.dimension, modal.truncation, kr)
            n = mode_degrees(ctx.dimension, modal.truncation)
            kept = np.abs(mode_degrees(ctx.dimension, truncation)) <= modal.truncation
            alpha, beta = np.zeros((2, kept.size), dtype=complex)
            alpha[kept] = np.sum(modal.values * specfun.per_mode(ctx.dimension, osc, axis=0) * measure, axis=1)
            beta[kept] = _ipow(n) * np.sum(modal.values * mod[np.abs(n)] * measure, axis=1)
    k_support = ctx.kappa * src.support_radius
    if not np.all(np.isfinite(beta)):
        raise OverflowError(
            f"beta coefficients are not finite at kappa*support_radius = {k_support:.6g}: the "
            f"imaginary-argument family leaves the double range (truncation {truncation})"
        )
    if not np.all(np.isfinite(alpha)):
        raise ValueError(
            f"alpha coefficients are not finite at kappa*support_radius = {k_support:.6g} "
            f"(truncation {truncation}): a non-finite alpha would read as a radiating source"
        )
    alpha.flags.writeable = beta.flags.writeable = False
    coeffs = ModalCoefficients(ctx.dimension, truncation, alpha, beta)
    src._coefficients[key] = coeffs
    return coeffs


def default_mode_truncation(ctx: WaveContext) -> int:
    """Band-limit heuristic for source projections plus guard modes."""
    return 2 * int(np.ceil(ctx.kappa * ctx.radius)) + 16


def _check_dimension(ctx: WaveContext, src: SourceField) -> None:
    """Refuse a source built over a context of another dimension; one whose
    context differs only in kappa or R is accepted."""
    if src.ctx.dimension != ctx.dimension:
        raise ValueError(f"the source is {src.ctx.dimension}D but the context is {ctx.dimension}D")


# ---------------------------------------------------------------------------
# Nonradiating constructors
# ---------------------------------------------------------------------------
def make_2d_bessel_nonradiating(ctx: WaveContext) -> SourceField:
    """Radially symmetric nonradiating source on the full disk (2D).

    Requires kappa*R to be a zero of J_0 (use
    WaveContext.with_root_wavenumber).  The source is the radial
    modified-Helmholtz operator applied to a normalized pair of J_0 powers
    (exponents 3 and 2, each divided by its integral against J_0); both
    projections onto the radial wave families vanish identically, so the
    exterior field is zero while the source itself is not.
    """
    if ctx.dimension != 2:
        raise ValueError("make_2d_bessel_nonradiating requires a 2D context")
    kr = ctx.kappa * ctx.radius
    j0 = abs(float(specfun.j0_y0(kr)[0]))
    if j0 > 1e-12:
        raise ValueError(f"kappa*R = {kr:.15g} is not a zero of J_0 (|J_0| = {j0:.3e} > 1e-12)")
    return _bessel_power_source(ctx, (3, 2), -1)


def make_3d_bessel_nonradiating(ctx: WaveContext, m1: int = 3, m2: int = 4) -> SourceField:
    """Radially symmetric nonradiating source on the full ball (3D).

    Requires kappa*R to be a zero of the order-zero spherical wave
    (kappa*R = k*pi) and two distinct exponents >= 3.  The source is the
    radial Helmholtz operator applied to j_0^m1 and j_0^m2, each divided by
    its integral against the imaginary-argument i_0.
    """
    if ctx.dimension != 3:
        raise ValueError("make_3d_bessel_nonradiating requires a 3D context")
    _check_integer("m1", m1, 3)
    _check_integer("m2", m2, 3)
    if m1 == m2:
        raise ValueError(f"exponents must be distinct integers >= 3, got ({m1}, {m2})")
    kr = ctx.kappa * ctx.radius
    j0 = abs(np.sin(kr) / kr)
    if j0 > 1e-12:
        raise ValueError(
            f"kappa*R = {kr:.15g} is not a zero of the order-zero spherical wave (|j_0| = {j0:.3e} > 1e-12)"
        )
    return _bessel_power_source(ctx, (m1, m2), 1)


def _bessel_power_source(ctx, exponents, s) -> SourceField:
    """(laplacian + s kappa^2) z_0^p / <z_0^p, pair> for the first exponent p
    minus the same term for the second.

    z_0, z_1 are the order-zero and order-one radial waves at kappa r (J in
    2D, spherical j in 3D), both from specfun.regular_wave_tables, and
    <a, pair> is the integral of a(r) pair(kappa r) r^(d-1) dr over [0, R],
    pair = J_0 in 2D and the modified i_0 in 3D.  Since z_0' = -kappa z_1 in
    both dimensions, the image is kappa^2 [p(p-1) z_0^(p-2) z_1^2 - (p - s) z_0^p].
    """
    k, R = ctx.kappa, ctx.radius
    rule = radial_rule(ctx, max(DEFAULT_RADIAL_ORDER, 8 * int(np.ceil(k * R))))
    (z0, _), (i0, _) = specfun.regular_wave_tables(ctx.dimension, 1, k * rule.nodes)
    paired = z0 if ctx.dimension == 2 else i0
    meas = rule.nodes ** (ctx.dimension - 1) * rule.weights
    norms = []
    for p in exponents:
        c = float(np.sum(z0**p * paired * meas))
        if abs(c) < DEGENERATE_DENOMINATOR:
            raise DegenerateSourceError(f"normalizing integral for exponent {p} is numerically zero: {c:.3e}")
        norms.append(c)

    def profile(r):
        t = k * np.asarray(r, dtype=float)
        # 1e-300 stands in for r = 0, where z_0 = 1 and z_1 = 0 to the double
        osc, _ = specfun.regular_wave_tables(ctx.dimension, 1, np.maximum(t, 1e-300).ravel())
        z0, z1 = osc.reshape((2,) + t.shape)
        out = np.zeros_like(t)
        for p, c, sign in zip(exponents, norms, (1.0, -1.0)):
            out += sign * k * k * (p * (p - 1) * z0 ** (p - 2) * z1 * z1 - (p - s) * z0**p) / c
        return out

    return SourceField.from_radial(ctx, profile, support_radius=R)


def make_bump_nonradiating(
    ctx: WaveContext,
    rho: float | None = None,
    center=None,
    amplitude: float = 1.0,
) -> SourceField:
    """Nonradiating source obtained by running an infinitely smooth bump
    through the (negated, shifted) squared-Laplacian wave operator.

    The bump is the radial mollifier
    amplitude * exp(-1/(1 - (|x - center|/rho)^2)), whose fourth-order image
    is evaluated in closed form in the squared distance |x - center|^2
    (_mollifier_pair).  The bump support must stay strictly inside the
    context ball.
    """
    d = ctx.dimension
    k4 = ctx.kappa**4
    rho = 0.8 * ctx.radius if rho is None else float(_check_finite_real("rho", rho))
    center = _finite_center(center, d)
    _check_finite_real("amplitude", amplitude)  # the mollifier pair is real arithmetic
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    reach = float(np.linalg.norm(center)) + rho
    if not reach < ctx.radius:
        raise SupportViolationError(
            f"bump support (|center| + rho = {reach}) must stay strictly inside R = {ctx.radius}"
        )

    def func(points):
        g, bilap = _mollifier_pair(_squared_distance(points.T, center), rho, amplitude, d)
        return -(bilap - k4 * g)

    return SourceField(ctx, func, reach, _BUMP_RADIAL_ORDER)


def _mollifier_pair(u, rho, amplitude, d):
    """(g, bilaplacian of g) for the built-in radial mollifier in d
    dimensions, at squared distances u = |x - center|^2.

    In u the mollifier is G(u) = amplitude * exp(v) with v = -rho^2 q and
    q = 1/(rho^2 - u), whose u-derivatives are -k! rho^2 q^(k+1).  The radial
    Laplacian of G(|x|^2) is 4 u G'' + 2 d G', so its bilaplacian is
    16 u^2 G'''' + 16 (d + 2) u G''' + 4 d (d + 2) G'': no power of the
    distance divides it, so one formula holds down to the centre, u = 0,
    with no Taylor branch there.
    """
    u = np.asarray(u, dtype=float)
    g = np.zeros_like(u)
    bilap = np.zeros_like(u)
    r2 = rho * rho
    live = u < r2 * (1.0 - 1.0 / 700.0)  # v > -700: exp underflows beyond; true values < 1e-304
    u = u[live]
    q = 1.0 / (r2 - u)
    v1 = -r2 * q * q
    v2 = 2.0 * q * v1
    v3 = 3.0 * q * v2
    v4 = 4.0 * q * v3
    # v1 < 0: products, not v1**3 and v1**4 (numpy's pow is a scalar loop
    # for a negative base, hundreds of times slower than a square)
    v1sq = v1 * v1
    gm = amplitude * np.exp(-r2 * q)
    g2 = gm * (v2 + v1sq)
    g3 = gm * (v3 + 3.0 * v2 * v1 + v1sq * v1)
    g4 = gm * (v4 + 4.0 * v3 * v1 + 3.0 * v2 * v2 + 6.0 * v2 * v1sq + v1sq * v1sq)
    g[live] = gm
    bilap[live] = 16.0 * u * (u * g4 + (d + 2) * g3) + 4.0 * d * (d + 2) * g2
    return g, bilap


# ---------------------------------------------------------------------------
# Convenience sources
# ---------------------------------------------------------------------------
def gaussian_source(
    ctx: WaveContext,
    center=None,
    sigma: float | None = None,
    amplitude: float = 1.0,
    support_radius: float | None = None,
) -> SourceField:
    """Gaussian blob truncated at the support radius (a generic radiating
    source); a complex amplitude whose imaginary part is zero is kept as its
    real part, so the source reads real values."""
    center = _finite_center(center, ctx.dimension)
    _check_finite_number("amplitude", amplitude)
    amplitude = _real_if_real(amplitude)
    sigma = 0.15 * ctx.radius if sigma is None else float(_check_finite_real("sigma", sigma))
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")

    def func(points):
        q = _squared_distance(points.T, center)
        q /= 2.0 * sigma * sigma
        return amplitude * np.exp(-q)

    return SourceField.from_callable(ctx, func, support_radius=support_radius)


def _squared_distance(coords, center) -> np.ndarray:
    """|x - center|^2 at points whose k-th coordinates are coords[k] (arrays
    of any one shape), one coordinate at a time in real arithmetic: the
    left-to-right order of np.sum over the coordinates, without a
    temporary of all the coordinates' differences."""
    q = np.subtract(coords[0], center[0])
    q *= q
    for k in range(1, len(center)):
        diff = np.subtract(coords[k], center[k])
        diff *= diff
        q += diff
    return q


def _finite_center(center, d: int) -> np.ndarray:
    """center as a float array of d finite components (the origin when None)."""
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    if center.shape != (d,) or not np.all(np.isfinite(center)):
        raise ValueError(f"center must have {d} finite components, got {center.tolist()}")
    return center


def _check_finite_number(name: str, value):
    """value when it is a finite number (not a bool); otherwise a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, Number) or not np.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _check_finite_real(name: str, value):
    """value when it is a finite real number (numpy's too, not a bool);
    otherwise a ValueError naming it.  A complex value is refused even with
    a zero imaginary part: a shape parameter is compared and squared as a
    real number."""
    if not _is_real(_check_finite_number(name, value)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _real_if_real(value):
    """A complex number whose imaginary part is zero (of either sign) as its
    real part; any other number as it is."""
    return value.real if not _is_real(value) and value.imag == 0 else value


def _widened(values) -> np.ndarray:
    """values as an array of np.result_type(values, float): real or complex
    as they are, never narrower than float."""
    values = np.asarray(values)
    return values.astype(np.result_type(values, float), copy=False)


# ---------------------------------------------------------------------------
# Source definition files
# ---------------------------------------------------------------------------
_SOURCE_KEYS = {"dimension", "R", "kappa", "root_index", "kind", "parameters"}
_PARAM_KEYS = {
    "zero": set(),
    "gaussian": {"center", "sigma", "amplitude", "support_radius"},
    "bump_nonradiating": {"rho", "center", "amplitude"},
    "bessel_nonradiating": {"m1", "m2"},
}


def _is_int(value) -> bool:
    """True for an int that is not a bool (JSON true would otherwise read as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_number(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and np.isfinite(value) and value > 0


def context_from_config(cfg: dict) -> WaveContext:
    """WaveContext from the {dimension, R, kappa | root_index} part of a config."""
    dimension = cfg.get("dimension")
    if not _is_int(dimension) or dimension not in (2, 3):
        raise ValueError(f"config key 'dimension' must be the integer 2 or 3, got {dimension!r}")
    R = cfg.get("R")
    if not _is_positive_number(R):
        raise ValueError(f"config key 'R' must be a positive number, got {R!r}")
    has_kappa = "kappa" in cfg
    has_root = "root_index" in cfg
    if has_kappa == has_root:
        raise ValueError("config must set exactly one of 'kappa' or 'root_index'")
    if has_root:
        root_index = cfg["root_index"]
        if not _is_int(root_index) or root_index < 1:
            raise ValueError(f"config key 'root_index' must be a positive integer, got {root_index!r}")
        return WaveContext.with_root_wavenumber(dimension, float(R), root_index)
    kappa = cfg["kappa"]
    if not _is_positive_number(kappa):
        raise ValueError(f"config key 'kappa' must be a positive number, got {kappa!r}")
    return WaveContext(dimension=dimension, kappa=float(kappa), radius=float(R))


def source_from_config(cfg: dict) -> tuple[WaveContext, SourceField]:
    """Build (context, source) from a JSON-compatible definition.

    Schema: {dimension, R, kappa | root_index, kind, parameters}; unknown
    keys are rejected.  Kinds: 'zero', 'gaussian', 'bump_nonradiating',
    'bessel_nonradiating'.
    """
    unknown = set(cfg) - _SOURCE_KEYS
    if unknown:
        raise ValueError(f"unknown config key {sorted(unknown)[0]!r}")
    ctx = context_from_config(cfg)
    kind = cfg.get("kind")
    if kind not in _PARAM_KEYS:
        raise ValueError(f"config key 'kind' must be one of {sorted(_PARAM_KEYS)}, got {kind!r}")
    params = cfg.get("parameters", {})
    if not isinstance(params, dict):
        raise ValueError("config key 'parameters' must be an object")
    bad = set(params) - _PARAM_KEYS[kind]
    if bad:
        raise ValueError(f"unknown parameter {sorted(bad)[0]!r} for kind {kind!r}")

    if kind == "zero":
        return ctx, SourceField.zero(ctx)
    if kind == "gaussian":
        return ctx, gaussian_source(ctx, **params)
    if kind == "bump_nonradiating":
        return ctx, make_bump_nonradiating(ctx, **params)
    if ctx.dimension == 2:
        if params:
            raise ValueError("parameters 'm1'/'m2' apply to 3D bessel_nonradiating only")
        return ctx, make_2d_bessel_nonradiating(ctx)
    exponents = {key: params.get(key, default) for key, default in (("m1", 3), ("m2", 4))}
    for key, value in exponents.items():
        if not _is_int(value):
            raise ValueError(f"parameter {key!r} must be an integer, got {value!r}")
    return ctx, make_3d_bessel_nonradiating(ctx, exponents["m1"], exponents["m2"])
