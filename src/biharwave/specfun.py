"""Cylindrical and spherical Bessel families and orthonormal spherical harmonics.

Raw evaluation is delegated to scipy.special.  What this module adds on top:
a uniform, domain-checked surface for the handful of families the library
needs; evaluation on the positive imaginary axis routed through the modified
functions I_n and K_n (never through complex continuation); exponentially
scaled variants of the decaying family for use at large argument; and a
loss-of-precision indicator.

Conventions
-----------
Spherical harmonics are orthonormal on the unit sphere and carry the
Condon-Shortley phase, so Y(0, 0) = 1/(2 sqrt(pi)) and
Y(1, 0) = sqrt(3/(4 pi)) cos(theta).  Downstream coefficients built from
the harmonics are convention-dependent only through consistent pairing of
projection and synthesis, both of which live in this codebase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

# I_0(t) exceeds the double range near t = 713; larger orders overflow later.
IV_OVERFLOW_ARG = 713.0


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


def _as_nonnegative(z, name: str = "z") -> np.ndarray:
    z = _as_finite(z, name)
    if np.any(z < 0.0):
        raise ValueError(f"{name} must be >= 0")
    return z


def _as_positive(z, name: str = "z") -> np.ndarray:
    z = _as_finite(z, name)
    if np.any(z <= 0.0):
        raise ValueError(f"{name} must be > 0 (singular at 0)")
    return z


# ---------------------------------------------------------------------------
# Cylindrical family, real argument
# ---------------------------------------------------------------------------
def bessel_j(n: int, z):
    """Bessel function of the first kind J_n(z), integer n, z >= 0."""
    return _sp.jv(n, _as_nonnegative(z))


def bessel_y(n: int, z):
    """Bessel function of the second kind Y_n(z), integer n, z > 0."""
    return _sp.yv(n, _as_positive(z))


def hankel1(n: int, z):
    """Hankel function of the first kind H^(1)_n(z) = J_n(z) + i Y_n(z), z > 0."""
    return _sp.hankel1(n, _as_positive(z))


def hankel2(n: int, z):
    """Hankel function of the second kind H^(2)_n(z) = J_n(z) - i Y_n(z), z > 0."""
    return _sp.hankel2(n, _as_positive(z))


def bessel_j_dz(n: int, z):
    """d/dz J_n(z)."""
    return _sp.jvp(n, _as_nonnegative(z))


def hankel1_dz(n: int, z):
    """d/dz H^(1)_n(z)."""
    return _sp.h1vp(n, _as_positive(z))


# ---------------------------------------------------------------------------
# Cylindrical family, imaginary argument (routed through I_n / K_n)
# ---------------------------------------------------------------------------
def bessel_j_imag(n: int, t):
    """J_n evaluated on the positive imaginary axis: J_n(i t) = i**n I_n(t).

    Raises OverflowError once I_n(t) leaves the double range (t above
    roughly 713 for order 0; later for larger orders).
    """
    t = _as_nonnegative(t, "t")
    inu = _sp.iv(n, t)
    if not np.all(np.isfinite(inu)):
        raise OverflowError(
            f"I_{n}(t) overflows double precision (threshold near "
            f"t = {IV_OVERFLOW_ARG:.0f} for order 0); got max t = {np.max(t):.6g}"
        )
    return _ipow(n) * inu


def hankel1_imag(n: int, t):
    """H^(1)_n on the positive imaginary axis: H^(1)_n(i t) = (2/pi) i**-(n+1) K_n(t)."""
    t = _as_positive(t, "t")
    return (2.0 / np.pi) * _ipow(-(n + 1)) * _sp.kv(n, t)


def bessel_j_imag_dt(n: int, t):
    """d/dt J_n(i t) = i**n I_n'(t)."""
    t = _as_nonnegative(t, "t")
    d = _sp.ivp(n, t)
    if not np.all(np.isfinite(d)):
        raise OverflowError(f"I_{n}'(t) overflows double precision at t = {np.max(t):.6g}")
    return _ipow(n) * d


def hankel1_imag_dt(n: int, t):
    """d/dt H^(1)_n(i t) = (2/pi) i**-(n+1) K_n'(t)."""
    t = _as_positive(t, "t")
    return (2.0 / np.pi) * _ipow(-(n + 1)) * _sp.kvp(n, t)


def hankel1_imag_scaled(n: int, t):
    """exp(t) * H^(1)_n(i t); finite for all representable t."""
    t = _as_positive(t, "t")
    return (2.0 / np.pi) * _ipow(-(n + 1)) * _sp.kve(n, t)


def hankel1_imag_scaled_dt(n: int, t):
    """exp(t) * d/dt H^(1)_n(i t), via K_n'(t) = -(K_(n-1)(t) + K_(n+1)(t))/2."""
    t = _as_positive(t, "t")
    kd = -0.5 * (_sp.kve(n - 1, t) + _sp.kve(n + 1, t))
    return (2.0 / np.pi) * _ipow(-(n + 1)) * kd


# ---------------------------------------------------------------------------
# Spherical family
# ---------------------------------------------------------------------------
def sph_bessel_j(n: int, z):
    """Spherical Bessel function j_n(z), z >= 0 (j_0(0) = 1 by the series limit)."""
    _check_spherical_order(n)
    return _sp.spherical_jn(n, _as_nonnegative(z))


def sph_hankel1(n: int, z):
    """Spherical Hankel function h^(1)_n(z) = j_n(z) + i y_n(z), z > 0."""
    _check_spherical_order(n)
    z = _as_positive(z)
    return _sp.spherical_jn(n, z) + 1j * _sp.spherical_yn(n, z)


def sph_bessel_j_dz(n: int, z):
    """d/dz j_n(z)."""
    _check_spherical_order(n)
    return _sp.spherical_jn(n, _as_nonnegative(z), derivative=True)


def sph_hankel1_dz(n: int, z):
    """d/dz h^(1)_n(z)."""
    _check_spherical_order(n)
    z = _as_positive(z)
    return _sp.spherical_jn(n, z, derivative=True) + 1j * _sp.spherical_yn(n, z, derivative=True)


def sph_bessel_j_imag(n: int, t):
    """j_n on the positive imaginary axis: j_n(i t) = i**n i_n(t) (modified family)."""
    _check_spherical_order(n)
    t = _as_nonnegative(t, "t")
    inu = _sp.spherical_in(n, t)
    if not np.all(np.isfinite(inu)):
        raise OverflowError(f"i_{n}(t) overflows double precision at t = {np.max(t):.6g}")
    return _ipow(n) * inu


def sph_hankel1_imag(n: int, t):
    """h^(1)_n on the positive imaginary axis: h^(1)_n(i t) = -(2/pi) i**-n k_n(t)."""
    _check_spherical_order(n)
    t = _as_positive(t, "t")
    return -(2.0 / np.pi) * _ipow(-n) * _sp.spherical_kn(n, t)


def sph_bessel_j_imag_dt(n: int, t):
    """d/dt j_n(i t) = i**n i_n'(t)."""
    _check_spherical_order(n)
    t = _as_nonnegative(t, "t")
    return _ipow(n) * _sp.spherical_in(n, t, derivative=True)


def sph_hankel1_imag_dt(n: int, t):
    """d/dt h^(1)_n(i t) = -(2/pi) i**-n k_n'(t)."""
    _check_spherical_order(n)
    t = _as_positive(t, "t")
    return -(2.0 / np.pi) * _ipow(-n) * _sp.spherical_kn(n, t, derivative=True)


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


def sph_harmonic(n: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_n^m(theta, phi), Condon-Shortley phase.

    Parameters
    ----------
    n : int
        Degree, n >= 0.
    m : int
        Order, -n <= m <= n.
    theta : array_like
        Polar angle in [0, pi].
    phi : array_like
        Azimuthal angle in [0, 2 pi).
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if abs(m) > n:
        raise ValueError(f"order |m| must be <= degree n, got (n, m) = ({n}, {m})")
    return _sp.sph_harm_y(n, m, np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))


# ---------------------------------------------------------------------------
# Loss-of-precision plumbing
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SpecialValue:
    """A special-function value with a loss-of-precision indicator.

    condition_estimate is the relative condition number with respect to the
    argument, |z f'(z) / f(z)|: the factor by which a relative perturbation
    of z is amplified in the result.  Large values near zeros of f flag
    cancellation-dominated digits.
    """

    value: complex
    condition_estimate: float


_KINDS = {
    "j": (bessel_j, bessel_j_dz),
    "y": (bessel_y, lambda n, z: _sp.yvp(n, z)),
    "h1": (hankel1, hankel1_dz),
    "h2": (hankel2, lambda n, z: _sp.h2vp(n, z)),
    "i": (lambda n, z: _sp.iv(n, _as_nonnegative(z)), lambda n, z: _sp.ivp(n, z)),
    "k": (lambda n, z: _sp.kv(n, _as_positive(z)), lambda n, z: _sp.kvp(n, z)),
    "sph_j": (sph_bessel_j, sph_bessel_j_dz),
    "sph_h1": (sph_hankel1, sph_hankel1_dz),
}


def evaluate(kind: str, n: int, z: float) -> SpecialValue:
    """Evaluate one family member together with its condition estimate.

    kind is one of 'j', 'y', 'h1', 'h2', 'i', 'k', 'sph_j', 'sph_h1'.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}")
    fn, dfn = _KINDS[kind]
    value = complex(fn(n, z))
    deriv = complex(dfn(n, z))
    denom = max(abs(value), np.finfo(float).tiny)
    cond = abs(z) * abs(deriv) / denom
    return SpecialValue(value=value, condition_estimate=float(min(cond, 1.0 / np.finfo(float).eps)))
