"""Green's functions for the Helmholtz, modified Helmholtz, and fourth-order
wave operators in 2D/3D, their multipole expansions, and the regular kernels.

The fourth-order kernel is assembled from the two second-order ones,

    green = -(phi_h - phi_m) / (2 kappa**2),

whose leading singularities cancel: the kernel is bounded as x -> y.  Because
that cancellation is catastrophic in floating point at near-coincident
points, a series branch takes over for |x - y| < 1e-8 * R.

All functions broadcast over point arrays of shape (..., d) and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .context import WaveContext

EULER_GAMMA = float(np.euler_gamma)

# Fraction of R below which the assembled kernel switches to its series form.
NEAR_COINCIDENCE_FRACTION = 1e-8


@dataclass(frozen=True)
class FarFieldConvention:
    """Dimension-dependent far-field normalization factor mu_d."""

    mu_d: complex

    @classmethod
    def for_context(cls, ctx: WaveContext) -> "FarFieldConvention":
        if ctx.dimension == 2:
            return cls(mu_d=np.sqrt(2.0 / ctx.kappa) * np.exp(1j * np.pi / 4.0))
        return cls(mu_d=1.0 + 0.0j)


def _pair_distance(x, y) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.linalg.norm(x - y, axis=-1)


def _check_separated(r: np.ndarray):
    if np.any(r == 0.0):
        raise ValueError("kernel is singular at coincident points x == y")


def phi_helmholtz(ctx: WaveContext, x, y):
    """Outgoing Helmholtz point-source kernel.

    2D: (i/4) H^(1)_0(kappa |x-y|); 3D: exp(i kappa |x-y|) / (4 pi |x-y|).
    """
    r = _pair_distance(x, y)
    _check_separated(r)
    return phi_h_of_r(ctx, r)


def phi_modified(ctx: WaveContext, x, y):
    """Decaying modified-Helmholtz point-source kernel (real and positive).

    2D: K_0(kappa |x-y|) / (2 pi), the modified-function route for the
    imaginary-argument Hankel form; 3D: exp(-kappa |x-y|) / (4 pi |x-y|).
    """
    r = _pair_distance(x, y)
    _check_separated(r)
    return phi_m_of_r(ctx, r)


def phi_h_of_r(ctx: WaveContext, r):
    """phi_helmholtz as a function of the distance r = |x - y| > 0."""
    if ctx.dimension == 2:
        return 0.25j * _sp.hankel1(0, ctx.kappa * r)
    return np.exp(1j * ctx.kappa * r) / (4.0 * np.pi * r)


def phi_m_of_r(ctx: WaveContext, r):
    """phi_modified as a function of the distance r = |x - y| > 0."""
    if ctx.dimension == 2:
        return _sp.kv(0, ctx.kappa * r) / (2.0 * np.pi)
    return np.exp(-ctx.kappa * r) / (4.0 * np.pi * r)


def _phi_difference_series(ctx: WaveContext, r: np.ndarray) -> np.ndarray:
    """phi_h - phi_m by series in kappa*r; the log singularities cancel exactly.

    Keeps terms through (kappa r)^6; far more than enough below the branch
    threshold, and accurate to ~1e-13 up to kappa*r ~ 0.1 (used by tests to
    cross-check continuity across the branch).
    """
    z = ctx.kappa * r
    u = 0.25 * z * z
    if ctx.dimension == 2:
        j0 = 1.0 - u + u * u / 4.0 - u**3 / 36.0
        # odd-index tails of the J/I series, with and without harmonic numbers
        odd = u + u**3 / 36.0
        odd_h = u + (11.0 / 6.0) * u**3 / 36.0
        log_term = np.where(z > 0.0, np.log(np.maximum(z, np.finfo(float).tiny) / 2.0), 0.0)
        return 0.25j * j0 + (log_term + EULER_GAMMA) * odd / np.pi - odd_h / np.pi
    # 3D: ((exp(i z) - exp(-z)) / z) * kappa / (4 pi), summed termwise
    acc = np.zeros_like(z, dtype=complex)
    zk = np.ones_like(z)
    fact = 1.0
    for k in range(1, 8):
        fact *= k
        coeff = (1j**k - (-1.0) ** k) / fact
        acc = acc + coeff * zk
        zk = zk * z
    return ctx.kappa / (4.0 * np.pi) * acc


def green_biharmonic(ctx: WaveContext, x, y):
    """Kernel of the fourth-order wave operator; bounded as x -> y.

    Equals -(phi_h - phi_m) / (2 kappa**2) away from coincidence and its
    series limit inside |x - y| < 1e-8 R.
    """
    r = _pair_distance(x, y)
    near = r < NEAR_COINCIDENCE_FRACTION * ctx.radius
    r_safe = np.where(near, 1.0, r)
    if ctx.dimension == 2:
        diff = phi_h_of_r(ctx, r_safe) - phi_m_of_r(ctx, r_safe)
    else:  # one quotient of the difference, not a difference of quotients
        diff = (np.exp(1j * ctx.kappa * r_safe) - np.exp(-ctx.kappa * r_safe)) / (
            4.0 * np.pi * r_safe
        )
    if np.any(near):
        diff = np.where(near, _phi_difference_series(ctx, r), diff)
    return -diff / (2.0 * ctx.kappa**2)


def green_star(ctx: WaveContext, x, y):
    """Conjugate-radiation companion kernel (2D only).

    Assembled as -(phi_h_star - phi_m) / (2 kappa**2) with
    phi_h_star = -(i/4) H^(2)_0(kappa |x-y|); the difference
    green - green_star is the entire kernel psi.
    """
    if ctx.dimension != 2:
        raise ValueError("green_star is defined for 2D contexts only")
    r = _pair_distance(x, y)
    _check_separated(r)
    phi_h_star = -0.25j * _sp.hankel2(0, ctx.kappa * r)
    return -(phi_h_star - phi_m_of_r(ctx, r)) / (2.0 * ctx.kappa**2)


def psi_kernel(ctx: WaveContext, x, y):
    """Entire kernel psi(x, y) = green - green_star = -(i/(4 kappa**2)) J_0(kappa |x-y|).

    Solves the homogeneous Helmholtz equation in each argument; 2D only.
    """
    if ctx.dimension != 2:
        raise ValueError("psi_kernel is defined for 2D contexts only")
    r = _pair_distance(x, y)
    return -0.25j / ctx.kappa**2 * _sp.jv(0, ctx.kappa * r)


# ---------------------------------------------------------------------------
# Multipole expansions about the origin (valid for |x| > |y|)
# ---------------------------------------------------------------------------
def default_truncation(ctx: WaveContext, y_norm: float) -> int:
    """Truncation order for the multipole series: convergence onset + guard."""
    return int(np.ceil(np.e * ctx.kappa * y_norm / 2.0)) + 16


def _polar_angle(p: np.ndarray) -> np.ndarray:
    """Counterclockwise angle from (1, 0), fixed to [0, 2 pi) for reproducibility."""
    return np.mod(np.arctan2(p[..., 1], p[..., 0]), 2.0 * np.pi)


def _separation(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = np.linalg.norm(x, axis=-1)
    ry = np.linalg.norm(y, axis=-1)
    if np.any(rx <= ry):
        raise ValueError("multipole expansion requires |x| > |y|")
    return x, y, rx, ry


def phi_h_series(ctx: WaveContext, x, y, n_terms: int | None = None):
    """Truncated multipole form of phi_helmholtz, orders/degrees up to n_terms.

    2D: (i/4) sum_n H^(1)_n(kappa|x|) J_n(kappa|y|) exp(i n (arg x - arg y)).
    3D: i kappa sum_n (2n+1)/(4 pi) h^(1)_n(kappa|x|) j_n(kappa|y|) P_n(xhat.yhat),
    the degree-m sum collapsed by the harmonic addition theorem.
    """
    x, y, rx, ry = _separation(x, y)
    if n_terms is None:
        n_terms = default_truncation(ctx, float(np.max(ry)))
    k = ctx.kappa
    if ctx.dimension == 2:
        delta = _polar_angle(x) - _polar_angle(y)
        total = 0.25j * _sp.hankel1(0, k * rx) * _sp.jv(0, k * ry)
        for n in range(1, n_terms + 1):
            # n and -n terms combine: reflection signs cancel pairwise
            total = total + 0.5j * _sp.hankel1(n, k * rx) * _sp.jv(n, k * ry) * np.cos(n * delta)
        return total
    cosg = np.sum(x * y, axis=-1) / (rx * ry)
    cosg = np.clip(cosg, -1.0, 1.0)
    total = np.zeros(np.broadcast(rx, ry).shape, dtype=complex)
    for n in range(n_terms + 1):
        hn = _sp.spherical_jn(n, k * rx) + 1j * _sp.spherical_yn(n, k * rx)
        term = (2 * n + 1) * hn * _sp.spherical_jn(n, k * ry) * _sp.eval_legendre(n, cosg)
        total = total + term
    return 1j * k / (4.0 * np.pi) * total


def phi_m_series(ctx: WaveContext, x, y, n_terms: int | None = None):
    """Truncated multipole form of phi_modified, routed through I/K families.

    2D: (1/(2 pi)) sum_n K_n(kappa|x|) I_n(kappa|y|) exp(i n (arg x - arg y)).
    3D: (kappa/(2 pi^2)) sum_n (2n+1) k_n(kappa|x|) i_n(kappa|y|) P_n(xhat.yhat).
    """
    x, y, rx, ry = _separation(x, y)
    if n_terms is None:
        n_terms = default_truncation(ctx, float(np.max(ry)))
    k = ctx.kappa
    if ctx.dimension == 2:
        delta = _polar_angle(x) - _polar_angle(y)
        total = _sp.kv(0, k * rx) * _sp.iv(0, k * ry) + 0j
        for n in range(1, n_terms + 1):
            total = total + 2.0 * _sp.kv(n, k * rx) * _sp.iv(n, k * ry) * np.cos(n * delta)
        return total / (2.0 * np.pi)
    cosg = np.sum(x * y, axis=-1) / (rx * ry)
    cosg = np.clip(cosg, -1.0, 1.0)
    total = np.zeros(np.broadcast(rx, ry).shape, dtype=float)
    for n in range(n_terms + 1):
        term = (
            (2 * n + 1)
            * _sp.spherical_kn(n, k * rx)
            * _sp.spherical_in(n, k * ry)
            * _sp.eval_legendre(n, cosg)
        )
        total = total + term
    return k / (2.0 * np.pi**2) * total + 0j
