"""Imaginary-axis Hankel functions in scaled form and orthonormal spherical
harmonics: the special functions the library needs beyond scipy.special.

The decaying radial family of the modified Helmholtz equation is the
outgoing Hankel function on the positive imaginary axis.  It is evaluated
through the modified functions K_n (never by complex continuation) and
returned with the factor exp(t) removed, so that it stays finite for every
representable t; order arrays broadcast against argument arrays.  The other
Bessel families are called from scipy.special directly where they are used.

Conventions
-----------
Spherical harmonics are orthonormal on the unit sphere and carry the
Condon-Shortley phase, so Y(0, 0) = 1/(2 sqrt(pi)) and
Y(1, 0) = sqrt(3/(4 pi)) cos(theta).  Downstream coefficients built from
the harmonics are convention-dependent only through consistent pairing of
projection and synthesis, both of which live in this codebase.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

_IPOW = np.array([1.0, 1j, -1.0, -1j])


def _ipow(k):
    """i**k for an integer k or an integer array, exact (unit modulus, no rounding)."""
    return _IPOW[np.mod(k, 4)]


def _check_spherical_order(n) -> None:
    if np.any(np.asarray(n) < 0):
        raise ValueError(f"spherical order must be >= 0, got {n}")


def _as_finite(z, name: str = "z") -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{name} must be finite")
    return z


def _as_positive(z, name: str = "z") -> np.ndarray:
    z = _as_finite(z, name)
    if np.any(z <= 0.0):
        raise ValueError(f"{name} must be > 0 (singular at 0)")
    return z


# ---------------------------------------------------------------------------
# Decaying family on the imaginary axis, exp(t)-scaled
# ---------------------------------------------------------------------------
def hankel1_imag_scaled(n: int, t):
    """exp(t) * H^(1)_n(i t); finite for all representable t."""
    t = _as_positive(t, "t")
    return (2.0 / np.pi) * _ipow(-(n + 1)) * _sp.kve(n, t)


def hankel1_imag_scaled_dt(n: int, t):
    """exp(t) * d/dt H^(1)_n(i t), via K_n'(t) = -(K_(n-1)(t) + K_(n+1)(t))/2."""
    t = _as_positive(t, "t")
    kd = -0.5 * (_sp.kve(n - 1, t) + _sp.kve(n + 1, t))
    return (2.0 / np.pi) * _ipow(-(n + 1)) * kd


def sph_hankel1_imag_scaled(n: int, t):
    """exp(t) * h^(1)_n(i t), via the scaled half-order K family."""
    _check_spherical_order(n)
    t = _as_positive(t, "t")
    kn = np.sqrt(np.pi / (2.0 * t)) * _sp.kve(n + 0.5, t)
    return -(2.0 / np.pi) * _ipow(-n) * kn


def sph_hankel1_imag_scaled_dt(n: int, t):
    """exp(t) * d/dt h^(1)_n(i t)."""
    _check_spherical_order(n)
    t = _as_positive(t, "t")
    pref = np.sqrt(np.pi / (2.0 * t))
    # k_n(t) = pref * K_(n+1/2)(t); product rule plus K' = -(K_(v-1)+K_(v+1))/2
    kd = pref * (
        -_sp.kve(n + 0.5, t) / (2.0 * t)
        - 0.5 * (_sp.kve(n - 0.5, t) + _sp.kve(n + 1.5, t))
    )
    return -(2.0 / np.pi) * _ipow(-n) * kd


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------
def sph_harmonic_block(truncation: int, theta, phi) -> np.ndarray:
    """All orthonormal harmonics through the truncation degree at once.

    Returns shape (npoints, (truncation+1)**2); column n*n + n + m holds
    Y_n^m.  One recurrence pass for every degree, much faster than repeated
    single-harmonic calls.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    allv = _sp.sph_harm_y_all(truncation, truncation, theta, phi)
    out = np.empty((theta.size, (truncation + 1) ** 2), dtype=complex)
    for n in range(truncation + 1):
        ms = np.arange(-n, n + 1)
        out[:, n * n + n + ms] = allv[n, ms].T
    return out


def angular_basis(dimension: int, truncation: int, theta, phi=None) -> np.ndarray:
    """Angular factor of every stored mode at the given angles, shape (M, modes).

    2D: exp(i n theta) for n = -N..N; 3D: sph_harmonic_block at polar angle
    theta and azimuth phi.  Columns follow the mode layout of the modal
    profiles and coefficients.
    """
    if dimension == 2:
        return np.exp(1j * np.outer(theta, np.arange(-truncation, truncation + 1)))
    return sph_harmonic_block(truncation, theta, phi)
