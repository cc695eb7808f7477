"""Green's functions for the Helmholtz, modified Helmholtz, and fourth-order
wave operators in 2D/3D.

kernel_tables is the one implementation of the two second-order kernels: it
returns Re phi_h, Im phi_h and phi_m as three real arrays, from real-argument
functions only (2D: scipy's j0, y0, k0; 3D: cos, sin, exp).  The direct
quadrature sums these real tables; phi_h_of_r and phi_m_of_r assemble the
complex kernel from them.

The fourth-order kernel is assembled from the two second-order ones,

    green = -(phi_h - phi_m) / (2 kappa**2),

whose leading singularities cancel: the kernel is bounded as x -> y.  Because
that cancellation is catastrophic in floating point at near-coincident
points, a series branch takes over for |x - y| < 1e-8 * R.

The second-order kernels are functions of the distance r = |x - y| > 0;
green_biharmonic broadcasts over point arrays of shape (..., d).  All
functions are pure.
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


def kernel_tables(ctx: WaveContext, r):
    """Re phi_h, Im phi_h and phi_m at distance r, as three real arrays.

    2D: -Y_0(kappa r)/4, J_0(kappa r)/4, K_0(kappa r)/(2 pi);
    3D: cos(kappa r), sin(kappa r) and exp(-kappa r), each over 4 pi r.
    Accuracy against mpmath at t = kappa r, relative to |phi_h| (and to
    phi_m): 3D within 3e-16; 2D within 3e-15 up to t = 40 and 8e-14 at
    t = 2000, because scipy's j0/y0 lose about 1e-16 * t where the complex
    AMOS hankel1 stays near 7e-16; j0 + y0 cost a quarter of hankel1, and
    k0 a fifth of kv.
    """
    t = ctx.kappa * r
    if ctx.dimension == 2:
        return -_sp.y0(t) / 4.0, _sp.j0(t) / 4.0, _sp.k0(t) / (2.0 * np.pi)
    s = 4.0 * np.pi * r
    return np.cos(t) / s, np.sin(t) / s, np.exp(-t) / s


def phi_h_of_r(ctx: WaveContext, r):
    """Outgoing Helmholtz point-source kernel at distance r.

    2D: (i/4) H^(1)_0(kappa r); 3D: exp(i kappa r) / (4 pi r).
    """
    re, im, _ = kernel_tables(ctx, r)
    return re + 1j * im


def phi_m_of_r(ctx: WaveContext, r):
    """Decaying modified-Helmholtz point-source kernel at distance r (real, positive).

    2D: K_0(kappa r) / (2 pi); 3D: exp(-kappa r) / (4 pi r).
    """
    return kernel_tables(ctx, r)[2]


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
