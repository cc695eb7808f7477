"""Green's functions for the Helmholtz, modified Helmholtz, and fourth-order
wave operators in 2D/3D.

kernel_tables is the one implementation of the two second-order kernels: it
returns Re phi_h, Im phi_h and phi_m as three real arrays, from real-argument
functions only (2D: scipy's j0, y0, k0; 3D: specfun.cos_sin and exp), into a
buffer the caller may own.  The direct quadrature sums these real tables.

green_biharmonic assembles the fourth-order kernel from the same tables,

    green = -(phi_h - phi_m) / (2 kappa**2),

whose leading singularities cancel: the kernel is bounded as x -> y, but
the difference loses about eps / (kappa r) of its value to cancellation.
green_biharmonic therefore refuses pairs closer than 1e-8 R.

The kernels are functions of the distance r = |x - y| > 0; green_biharmonic
broadcasts over point arrays of shape (..., d).  All functions are pure, but
for kernel_tables' writes into a buffer it is given.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from . import specfun
from .context import WaveContext

# Fraction of R below which green_biharmonic refuses a pair as coincident.
NEAR_COINCIDENCE_FRACTION = 1e-8


def kernel_tables(ctx: WaveContext, r, out=None):
    """Re phi_h, Im phi_h and phi_m at distance r, as three real arrays.

    2D: -Y_0(kappa r)/4, J_0(kappa r)/4, K_0(kappa r)/(2 pi);
    3D: cos(kappa r), sin(kappa r) and exp(-kappa r), each over 4 pi r, with
    cos and sin from one half-angle tangent (specfun.cos_sin).
    Accuracy against mpmath at t = kappa r, relative to |phi_h| (and to
    phi_m), on 1200 distances with t in [1e-8, 2000]: 3D within 3.3e-16
    (2.3e-16 with np.cos and np.sin) and 2.6e-16;
    2D within 3e-15 up to t = 40 and 8e-14 at t = 2000, because scipy's
    j0/y0 lose about 1e-16 * t where the complex AMOS hankel1 stays near
    7e-16; j0 + y0 cost a quarter of hankel1, and k0 a fifth of kv.

    out, a float array of shape (3,) + r.shape, receives the three tables,
    and its rows are returned: a caller that evaluates many tables reuses
    one buffer instead of allocating (and faulting in) new ones.  r is left
    unchanged.
    """
    r = np.asarray(r, dtype=float)
    if out is None:
        out = np.empty((3,) + r.shape)
    re, im, m = out[0, ...], out[1, ...], out[2, ...]  # views, 0-d ones too
    t = np.multiply(r, ctx.kappa, out=m)
    if ctx.dimension == 2:
        _sp.y0(t, out=re)
        _sp.j0(t, out=im)
        _sp.k0(t, out=m)
        re /= -4.0
        im /= 4.0
        m /= 2.0 * np.pi
        return re, im, m
    specfun.cos_sin(t, out=out)
    s = np.multiply(r, 4.0 * np.pi, out=m)
    re /= s
    im /= s
    np.multiply(r, -ctx.kappa, out=m)
    np.exp(m, out=m)
    m /= r
    m /= 4.0 * np.pi
    return re, im, m


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
