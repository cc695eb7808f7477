"""Compactly supported sources, their angular-mode projection and modal
coefficients, and the explicit nonradiating constructors.

A source (SourceField) is a pointwise function on the ball, masked to zero
outside its support radius.  Projecting it onto angular modes (2D Fourier
orders, 3D spherical-harmonic degree/order pairs) gives plain data, the
radial profiles of ModalProfiles, which modal_coefficients pairs with the
two radial wave families.

The nonradiating constructors apply their radial differential operators
analytically (chain rule on powers of the order-zero radial waves), never by
numerical differentiation: the certification tests chase 1e-8-level zeros
that finite differences cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import special as _sp

from . import specfun
from .context import WaveContext
from .quadrature import (
    DEFAULT_ANGULAR_COUNT_2D,
    DEFAULT_POLAR_COUNT_3D,
    DEFAULT_RADIAL_ORDER,
    ProductGrid,
    RadialRule,
    product_grid,
    radial_rule,
)
from .specfun import _ipow

# Denominator magnitudes below this are treated as degenerate normalizations.
DEGENERATE_DENOMINATOR = 1e-12

# Fraction of the bump radius below which the Taylor branch evaluates the
# mollifier image (the closed-form branch divides by r, r**2, r**3).
_BUMP_TAYLOR_FRACTION = 1e-3

# The mollifier's fourth-order image has steep spikes near its support edge;
# this radial order resolves its projection integrals below 1e-8 relative.
_BUMP_RADIAL_ORDER = 320


class SupportViolationError(ValueError):
    """A source (or bump) support extends beyond where the operation allows."""


class DegenerateSourceError(ValueError):
    """A normalizing integral of a constructor is numerically zero."""


def mode_degrees(dimension: int, truncation: int) -> np.ndarray:
    """Order (2D) or degree (3D) of every stored mode, in storage order."""
    if dimension == 2:
        return np.arange(-truncation, truncation + 1)
    n = np.arange(truncation + 1)
    return np.repeat(n, 2 * n + 1)


def mode_index(dimension: int, truncation: int, n: int, m: int | None = None) -> int:
    """Flat row of an angular mode up to the truncation: 2D order n (rows
    n = -N..N), or 3D degree/order (n, m) (rows packed degree by degree)."""
    if dimension == 2:
        if abs(n) > truncation:
            raise ValueError(f"|n| must be <= {truncation}, got {n}")
        return n + truncation
    if m is None:
        raise ValueError("3D modes need both degree n and order m")
    if n > truncation or abs(m) > n:
        raise ValueError(f"(n, m) must satisfy |m| <= n <= {truncation}, got ({n}, {m})")
    return n * n + n + m


@dataclass(frozen=True)
class ModalProfiles:
    """Angular-mode radial profiles tabulated on a radial rule.

    values[k, j] is profile k at radius nodes[j]; row k of a mode is its
    mode_index.
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
    arrays matches ModalProfiles.values rows.  norm_f is the quadrature
    L2 norm of the source over the ball.
    """

    dimension: int
    truncation: int
    alpha: np.ndarray
    beta: np.ndarray
    norm_f: float

    def get(self, n: int, m: int | None = None) -> tuple[complex, complex]:
        idx = mode_index(self.dimension, self.truncation, n, m)
        return complex(self.alpha[idx]), complex(self.beta[idx])

    def truncated(self, truncation: int) -> "ModalCoefficients":
        """The coefficients of the modes of degree (2D: |order|) at most the truncation."""
        if not 0 <= truncation <= self.truncation:
            raise ValueError(f"truncation must lie in [0, {self.truncation}], got {truncation}")
        keep = np.abs(mode_degrees(self.dimension, self.truncation)) <= truncation
        return ModalCoefficients(self.dimension, truncation, self.alpha[keep], self.beta[keep], self.norm_f)

    def max_residual(self) -> float:
        """max over modes of (|alpha| + |beta|) / norm_f (zero source gives 0)."""
        peak = float(np.max(np.abs(self.alpha) + np.abs(self.beta)))
        if self.norm_f == 0.0:
            return 0.0
        return peak / self.norm_f


class SourceField:
    """A compactly supported source over the context ball: a pointwise
    function mapping (M, d) points to M values, masked to zero outside the
    support radius.

    Construct through the classmethods; instances are immutable in use and
    safe to share.  A radially symmetric source (from_radial) also keeps its
    profile, so reading it on a product grid costs one profile evaluation per
    radial node.
    """

    def __init__(self, ctx, func, support_radius, radial_hint=None, profile=None):
        if not 0 < support_radius <= ctx.radius * (1 + 1e-12):
            raise SupportViolationError(
                f"support_radius must lie in (0, R], got {support_radius} with R = {ctx.radius}"
            )
        self.ctx = ctx
        self.support_radius = float(min(support_radius, ctx.radius))
        self._func = func
        self._profile = profile
        self.radial_hint = radial_hint
        self._norm: float | None = None
        self._values: np.ndarray | None = None

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_callable(cls, ctx, func, support_radius=None, radial_hint=None):
        """Source from a pointwise evaluator mapping (M, d) points to M values."""
        if support_radius is None:
            support_radius = ctx.radius
        return cls(ctx, func, support_radius, radial_hint)

    @classmethod
    def from_radial(cls, ctx, profile, support_radius=None):
        """Radially symmetric source from a profile r -> value."""

        def func(points):
            r = np.linalg.norm(np.atleast_2d(points), axis=-1)
            return np.asarray(profile(r), dtype=complex)

        if support_radius is None:
            support_radius = ctx.radius
        return cls(ctx, func, support_radius, profile=profile)

    @classmethod
    def zero(cls, ctx):
        return cls.from_callable(ctx, lambda pts: np.zeros(np.atleast_2d(pts).shape[0], dtype=complex))

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, points) -> np.ndarray:
        """Pointwise values, masked to zero outside the support radius."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=-1)
        vals = np.asarray(self._func(pts), dtype=complex)
        return np.where(r >= self.support_radius, 0.0, vals)

    def values_on(self, grid: ProductGrid) -> np.ndarray:
        """Values at the nodes of a product grid.

        A radial source tabulates its profile once on the grid's radial nodes,
        masks the nodes at or beyond the support radius and repeats each
        value over the angles (the grid is radial-major); any other source is
        evaluated pointwise.
        """
        if self._profile is None:
            return self.evaluate(grid.points)
        r = grid.radial.nodes
        vals = np.where(r >= self.support_radius, 0.0, np.asarray(self._profile(r), dtype=complex))
        return np.repeat(vals, grid.angular.count)

    def default_samples(self) -> tuple[ProductGrid, np.ndarray]:
        """The source's default product grid (the one l2_norm integrates on)
        and its values there.

        The values are sampled once and cached, read-only, and real when the
        source is.  The grid is rebuilt on each call from the cached
        Gauss-Legendre rules, which costs only its points and weights: a kept
        3D grid would hold four times the memory of real values for as long
        as the source lives.
        """
        grid = product_grid(self.ctx, self.resolve_radial_order())
        if self._values is None:
            values = self.values_on(grid)
            if not np.any(values.imag):  # a real source keeps half the memory
                values = values.real.copy()
            values.flags.writeable = False
            self._values = values
        return grid, self._values

    # -- algebra ------------------------------------------------------------
    def scaled(self, factor: complex) -> "SourceField":
        """factor times the source (a radial source stays radial)."""
        profile = None if self._profile is None else _times(factor, self._profile)
        return SourceField(self.ctx, _times(factor, self._func), self.support_radius,
                           self.radial_hint, profile)

    def __add__(self, other: "SourceField") -> "SourceField":
        if not isinstance(other, SourceField):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ValueError("cannot add sources over different contexts")
        support = max(self.support_radius, other.support_radius)
        hint = max(self.radial_hint or 0, other.radial_hint or 0) or None
        a, b = self, other

        def func(pts):
            return a.evaluate(pts) + b.evaluate(pts)

        return SourceField(self.ctx, func, support, hint)

    def resolve_radial_order(self, radial_order: int | None = None) -> int:
        """The radial order of this source's quadrature grids: its own hint, or
        the default (an explicit order, if given, wins)."""
        if radial_order is not None:
            return int(radial_order)
        return self.radial_hint or DEFAULT_RADIAL_ORDER

    # -- norms ---------------------------------------------------------------
    def l2_norm(self) -> float:
        """Quadrature L2 norm over the ball (computed once, then cached)."""
        if self._norm is None:
            grid, vals = self.default_samples()
            self._norm = float(np.sqrt(np.sum(np.abs(vals) ** 2 * grid.weights).real))
        return self._norm


def _times(factor, fn):
    """x -> factor * fn(x), as a complex array."""
    return lambda x: factor * np.asarray(fn(x), dtype=complex)


# ---------------------------------------------------------------------------
# Projection onto angular modes and onto the radial wave families
# ---------------------------------------------------------------------------
def project_modes(src: SourceField, truncation: int) -> ModalProfiles:
    """Project a source onto angular-mode radial profiles up to the truncation.

    2D computes Fourier coefficients of the angular dependence at every
    radial node through the FFT of equispaced samples (exact for band-limited
    data); 3D projects against the conjugate orthonormal harmonics with the
    product rule, separated: an FFT over the azimuths of each (radial, polar)
    ring, then one Legendre sum per order (specfun.sph_analysis), never the
    dense harmonic block.  When the default grid has enough angles for the
    truncation, the projection reads the source's cached default samples.
    """
    ctx = src.ctx
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
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
        grid = product_grid(ctx, src.resolve_radial_order(), needed)
        vals = src.values_on(grid)
    rule, ang = grid.radial, grid.angular
    vals = vals.reshape(rule.order, ang.count)

    if ctx.dimension == 2:
        m = ang.count
        spectrum = np.fft.fft(vals, axis=1) / m  # (1/2pi) * trapezoid in theta
        values = spectrum[:, mode_degrees(2, truncation) % m].T.copy()
    else:
        rows = vals.reshape(rule.order, ang.polar_count, ang.azimuth_count)
        values = specfun.sph_analysis(truncation, rows, *ang.rings)
    return ModalProfiles(ctx.dimension, truncation, rule, values)


def modal_coefficients(ctx: WaveContext, src: SourceField, truncation: int) -> ModalCoefficients:
    """Project the source's mode profiles onto the two radial wave families.

    2D pairs profile n with J_n(kappa r) (alpha) and J_n(i kappa r) (beta)
    under the r dr measure; 3D pairs degree n with the spherical j_n and its
    imaginary-argument counterpart under r^2 dr.  norm_f is the norm of the
    source itself, not of its truncation.
    """
    norm_f = src.l2_norm()
    if not np.isfinite(norm_f):
        raise ValueError(f"the source values, or their L2 norm, are not finite (norm {norm_f})")
    modal = project_modes(src, truncation)
    values, rule = modal.values, modal.rule
    kr = ctx.kappa * rule.nodes
    measure = rule.weights * rule.nodes ** (ctx.dimension - 1)
    # the imaginary-argument family can leave the double range; the check
    # after this block names that, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        if ctx.dimension == 2:
            n = mode_degrees(2, truncation)[:, None]
            alpha = np.sum(values * _sp.jv(n, kr) * measure, axis=1)
            beta = _ipow(n[:, 0]) * np.sum(values * _sp.iv(np.abs(n), kr) * measure, axis=1)
        else:
            n = np.arange(truncation + 1)[:, None]
            j_weighted = _sp.spherical_jn(n, kr) * measure
            i_weighted = _sp.spherical_in(n, kr) * measure
            alpha = np.empty(len(values), dtype=complex)
            beta = np.empty_like(alpha)
            for deg in range(truncation + 1):  # per degree: one stacked product would round differently
                lo, hi = deg * deg, (deg + 1) ** 2
                alpha[lo:hi] = values[lo:hi] @ j_weighted[deg]
                beta[lo:hi] = _ipow(deg) * (values[lo:hi] @ i_weighted[deg])
    if not np.all(np.isfinite(beta)):
        raise OverflowError(
            f"beta coefficients are not finite at kappa*R = {ctx.kappa * ctx.radius:.6g}: the "
            f"imaginary-argument family leaves the double range (truncation {truncation})"
        )
    return ModalCoefficients(
        dimension=ctx.dimension,
        truncation=truncation,
        alpha=alpha,
        beta=beta,
        norm_f=norm_f,
    )


def default_mode_truncation(ctx: WaveContext) -> int:
    """Band-limit heuristic for source projections plus guard modes."""
    return 2 * int(np.ceil(ctx.kappa * ctx.radius)) + 16


def resolve_coefficients(ctx, src, truncation=None):
    """src itself when it already is a ModalCoefficients, else the source's
    coefficients at the truncation (default_mode_truncation when None)."""
    if isinstance(src, ModalCoefficients):
        return src
    if truncation is None:
        truncation = default_mode_truncation(ctx)
    return modal_coefficients(ctx, src, truncation)


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
    if abs(_sp.jv(0, kr)) > 1e-12:
        raise ValueError(
            f"kappa*R = {kr:.15g} is not a zero of J_0 (|J_0| = {abs(_sp.jv(0, kr)):.3e} > 1e-12)"
        )
    return _bessel_power_source(ctx, (3, 2), -1, partial(_sp.jv, 0))


def make_3d_bessel_nonradiating(ctx: WaveContext, m1: int = 3, m2: int = 4) -> SourceField:
    """Radially symmetric nonradiating source on the full ball (3D).

    Requires kappa*R to be a zero of the order-zero spherical wave
    (kappa*R = k*pi) and two distinct exponents >= 3.  The source is the
    radial Helmholtz operator applied to j_0^m1 and j_0^m2, each divided by
    its integral against the imaginary-argument i_0.
    """
    if ctx.dimension != 3:
        raise ValueError("make_3d_bessel_nonradiating requires a 3D context")
    if m1 == m2 or m1 < 3 or m2 < 3:
        raise ValueError(f"exponents must be distinct integers >= 3, got ({m1}, {m2})")
    kr = ctx.kappa * ctx.radius
    if abs(_sp.spherical_jn(0, kr)) > 1e-12:
        raise ValueError(
            f"kappa*R = {kr:.15g} is not a zero of the order-zero spherical wave "
            f"(|j_0| = {abs(_sp.spherical_jn(0, kr)):.3e} > 1e-12)"
        )
    return _bessel_power_source(ctx, (m1, m2), 1, partial(_sp.spherical_in, 0))


def _bessel_power_source(ctx, exponents, s, pair) -> SourceField:
    """(laplacian + s kappa^2) z_0^p / <z_0^p, pair> for the first exponent p
    minus the same term for the second.

    z_0, z_1 are the order-zero and order-one radial waves at kappa r (J in
    2D, spherical j in 3D) and <a, pair> is the integral of a(r) pair(kappa r)
    r^(d-1) dr over [0, R].  Since z_0' = -kappa z_1 in both dimensions, the
    image is kappa^2 [p(p-1) z_0^(p-2) z_1^2 - (p - s) z_0^p].
    """
    k, R = ctx.kappa, ctx.radius
    wave = _sp.jv if ctx.dimension == 2 else _sp.spherical_jn
    rule = radial_rule(ctx, max(DEFAULT_RADIAL_ORDER, 8 * int(np.ceil(k * R))))
    t = k * rule.nodes
    z0 = wave(0, t)
    paired = pair(t)
    meas = rule.nodes ** (ctx.dimension - 1) * rule.weights
    norms = []
    for p in exponents:
        c = float(np.sum(z0**p * paired * meas))
        if abs(c) < DEGENERATE_DENOMINATOR:
            raise DegenerateSourceError(f"normalizing integral for exponent {p} is numerically zero: {c:.3e}")
        norms.append(c)

    def profile(r):
        t = k * np.asarray(r, dtype=float)
        z0, z1 = wave(0, t), wave(1, t)
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
    is evaluated in closed form.  The bump support must stay strictly inside
    the context ball.
    """
    d = ctx.dimension
    k4 = ctx.kappa**4
    rho = 0.8 * ctx.radius if rho is None else float(rho)
    center = _finite_center(center, d)
    _check_amplitude(amplitude)
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    reach = float(np.linalg.norm(center)) + rho
    if not reach < ctx.radius:
        raise SupportViolationError(
            f"bump support (|center| + rho = {reach}) must stay strictly inside R = {ctx.radius}"
        )

    def func(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        s = np.linalg.norm(pts - center, axis=-1)
        g, bilap = _mollifier_pair(s, rho, amplitude, d)
        return (-(bilap - k4 * g)).astype(complex)

    return SourceField.from_callable(ctx, func, support_radius=reach, radial_hint=_BUMP_RADIAL_ORDER)


def _mollifier_pair(s, rho, amplitude, d):
    """(g, bilaplacian of g) for the built-in radial mollifier in d dimensions."""
    s = np.asarray(s, dtype=float)
    g = np.zeros_like(s)
    bilap = np.zeros_like(s)

    inside = s < rho * (1.0 - 1e-14)
    tiny = inside & (s < _BUMP_TAYLOR_FRACTION * rho)
    main = inside & ~tiny

    if np.any(main):
        sm = s[main]
        t = (sm / rho) ** 2
        v = -1.0 / (1.0 - t)
        live = v > -700.0  # exp underflows beyond; true values < 1e-304
        sm, t, v = sm[live], t[live], v[live]
        w = 1.0 / (rho * rho - sm * sm)
        w1 = 2.0 * sm * w * w
        w2 = 2.0 * w * w + 8.0 * sm**2 * w**3
        w3 = 24.0 * sm * w**3 + 48.0 * sm**3 * w**4
        w4 = 24.0 * w**3 + 288.0 * sm**2 * w**4 + 384.0 * sm**4 * w**5
        r2 = rho * rho
        v1, v2, v3, v4 = -r2 * w1, -r2 * w2, -r2 * w3, -r2 * w4
        gm = amplitude * np.exp(v)
        g1 = gm * v1
        g2 = gm * (v2 + v1**2)
        g3 = gm * (v3 + 3.0 * v2 * v1 + v1**3)
        g4 = gm * (v4 + 4.0 * v3 * v1 + 3.0 * v2**2 + 6.0 * v2 * v1**2 + v1**4)
        radial = (
            g4
            + 2.0 * (d - 1) * g3 / sm
            + (d - 1) * (d - 3) * (g2 / sm**2 - g1 / sm**3)
        )
        idx = np.flatnonzero(main)[live]
        g[idx] = gm
        bilap[idx] = radial

    if np.any(tiny):
        st = s[tiny]
        t = (st / rho) ** 2
        coeff = np.array([1.0, -1.0, -0.5, -1.0 / 6.0, 1.0 / 24.0]) * amplitude * np.exp(-1.0)
        g[tiny] = coeff[0] + coeff[1] * t + coeff[2] * t**2 + coeff[3] * t**3 + coeff[4] * t**4
        bilap_t = np.zeros_like(st)
        for kk in range(2, 5):
            mult = (2 * kk) * (2 * kk + d - 2) * (2 * kk - 2) * (2 * kk + d - 4)
            bilap_t += coeff[kk] / rho ** (2 * kk) * mult * st ** (2 * kk - 4)
        bilap[tiny] = bilap_t
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
    """Gaussian blob truncated at the support radius (a generic radiating source)."""
    center = _finite_center(center, ctx.dimension)
    _check_amplitude(amplitude)
    sigma = 0.15 * ctx.radius if sigma is None else float(sigma)
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if support_radius is None:
        support_radius = ctx.radius

    def func(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        q = np.sum((pts - center) ** 2, axis=-1) / (2.0 * sigma * sigma)
        return amplitude * np.exp(-q) + 0j

    return SourceField.from_callable(ctx, func, support_radius=support_radius)


def _finite_center(center, d: int) -> np.ndarray:
    """center as a float array of d finite components (the origin when None)."""
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    if center.shape != (d,) or not np.all(np.isfinite(center)):
        raise ValueError(f"center must have {d} finite components, got {center.tolist()}")
    return center


def _check_amplitude(amplitude) -> None:
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")


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
