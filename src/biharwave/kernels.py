"""Green's functions for the Helmholtz, modified Helmholtz, and fourth-order
wave operators in 2D/3D.

kernel_tables is the one implementation of the two second-order kernels: it
returns Re phi_h, Im phi_h and phi_m as three real arrays, from real-argument
functions only (2D: scipy's j0, y0, k0; 3D: cos, sin, exp).  The direct
quadrature sums these real tables.

green_biharmonic assembles the fourth-order kernel from the same tables,

    green = -(phi_h - phi_m) / (2 kappa**2),

whose leading singularities cancel: the kernel is bounded as x -> y, but
the difference loses about eps / (kappa r) of its value to cancellation.
green_biharmonic therefore refuses pairs closer than 1e-8 R.

The kernels are functions of the distance r = |x - y| > 0; green_biharmonic
broadcasts over point arrays of shape (..., d).  All functions are pure.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .context import WaveContext

# Fraction of R below which green_biharmonic refuses a pair as coincident.
NEAR_COINCIDENCE_FRACTION = 1e-8


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


def green_biharmonic(ctx: WaveContext, x, y):
    """Kernel of the fourth-order wave operator, -(phi_h - phi_m) / (2 kappa**2).

    Raises ValueError for pairs closer than NEAR_COINCIDENCE_FRACTION * R.
    """
    r = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), axis=-1)
    closest = float(np.min(r, initial=np.inf))
    if closest < NEAR_COINCIDENCE_FRACTION * ctx.radius:
        raise ValueError(
            f"green_biharmonic needs |x - y| >= {NEAR_COINCIDENCE_FRACTION:g} R, "
            f"got a pair at distance {closest:.3g}"
        )
    re, im, m = kernel_tables(ctx, r)
    return -((re + 1j * im) - m) / (2.0 * ctx.kappa**2)
