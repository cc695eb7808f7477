"""Green's functions for the Helmholtz, modified Helmholtz, and fourth-order
wave operators in 2D/3D.

kernel_tables is the one implementation of the two second-order kernels: it
returns Re phi_h, Im phi_h and phi_m as three real arrays, from real-argument
functions in vectorised passes only (2D: specfun.j0_y0 and specfun.k0; 3D:
one half-angle tangent and exp).  The direct quadrature sums these real
tables.

green_biharmonic assembles the fourth-order kernel from the same tables,

    green = -(phi_h - phi_m) / (2 kappa**2),

whose leading singularities cancel: the kernel is bounded as x -> y, but
the difference loses about eps / (kappa r) of its value to cancellation.
green_biharmonic therefore refuses pairs closer than 1e-8 R.

The kernels are functions of the distance r = |x - y| > 0; green_biharmonic
broadcasts over point arrays of shape (..., d), each read through
context._check_array.  All functions are pure.
"""

from __future__ import annotations

import numpy as np

from . import specfun
from .context import WaveContext, _check_array

# Fraction of R below which green_biharmonic refuses a pair as coincident.
NEAR_COINCIDENCE_FRACTION = 1e-8


def kernel_tables(ctx: WaveContext, r):
    """Re phi_h, Im phi_h and phi_m at distance r, as the three rows of one
    real array of shape (3,) + r.shape.

    2D: -Y_0(kappa r)/4, J_0(kappa r)/4, K_0(kappa r)/(2 pi), from
    specfun.j0_y0 and specfun.k0 (vectorised passes on both sides of their
    thresholds t = kappa r = 5 and 2).
    3D: cos(kappa r), sin(kappa r) and exp(-kappa r), each over 4 pi r, from
    one half-angle tangent tau = tan(kappa r / 2) and two divisions per
    value: w = (1 / (4 pi)) / (r (1 + tau**2)), Re phi_h = (1 - tau**2) w,
    Im phi_h = 2 tau w, phi_m = (exp(-kappa r) / (4 pi)) / r.
    Accuracy against mpmath at t = kappa r, relative to |phi_h| (and to
    phi_m), on 800 distances with t in [1e-8, 2000]: 3D within 3.5e-16 and
    2.5e-16; 2D within 3.6e-16 for t > 5 and 4.0e-16 for t > 2, 6.8e-16
    and 6.7e-16 at or below (scipy's j0, y0 and k0 there: 2.2e-15 and
    6.7e-16).
    """
    r = np.asarray(r, dtype=float)
    out = np.empty((3,) + r.shape)
    re, im, m = out[0, ...], out[1, ...], out[2, ...]  # views, 0-d ones too
    if ctx.dimension == 2:
        t = np.multiply(r, ctx.kappa, out=m)
        j, y = specfun.j0_y0(t)
        np.multiply(y, -0.25, out=re)
        np.multiply(j, 0.25, out=im)
        np.divide(specfun.k0(t), 2.0 * np.pi, out=m)  # t (in m) read, then m written
        return out
    # tau = tan(kappa r / 2): cos = (1 - tau**2) w', sin = 2 tau w' with
    # w' = 1 / (1 + tau**2), so the tables share w = w' / (4 pi r)
    np.multiply(r, 0.5 * ctx.kappa, out=im)
    np.tan(im, out=im)
    np.multiply(im, im, out=re)
    np.add(re, 1.0, out=m)
    np.subtract(1.0, re, out=re)
    m *= r
    np.divide(1.0 / (4.0 * np.pi), m, out=m)  # w
    re *= m
    im *= m
    im *= 2.0
    np.multiply(r, -ctx.kappa, out=m)
    np.exp(m, out=m)
    m *= 1.0 / (4.0 * np.pi)
    m /= r
    return out


def green_biharmonic(ctx: WaveContext, x, y):
    """Kernel of the fourth-order wave operator, -(phi_h - phi_m) / (2 kappa**2).

    x and y are arrays of points, shape (..., d), broadcast against each
    other (context._check_array).  Raises ValueError for pairs closer than
    NEAR_COINCIDENCE_FRACTION * R.
    """
    r = np.linalg.norm(_check_array("x", x, (..., ctx.dimension)) - _check_array("y", y, (..., ctx.dimension)), axis=-1)
    closest = float(np.min(r, initial=np.inf))
    if closest < NEAR_COINCIDENCE_FRACTION * ctx.radius:
        raise ValueError(
            f"green_biharmonic needs |x - y| >= {NEAR_COINCIDENCE_FRACTION:g} R, "
            f"got a pair at distance {closest:.3g}"
        )
    re, im, m = kernel_tables(ctx, r)
    return -((re + 1j * im) - m) / (2.0 * ctx.kappa**2)
