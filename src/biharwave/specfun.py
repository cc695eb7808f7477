"""Imaginary-axis Hankel functions in scaled form, orthonormal spherical
harmonics and the separated harmonic transforms on product rules: the
special functions the library needs beyond scipy.special.

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
# Cosine and sine of a phase
# ---------------------------------------------------------------------------
def cos_sin(t, out=None):
    """cos t and sin t from one half-angle tangent tau = tan(t / 2):

        cos t = (1 - tau**2) / (1 + tau**2),  sin t = 2 tau / (1 + tau**2).

    numpy's float64 cos and sin can be scalar loops where tan is vectorised
    (numpy 2.4.6 on a 2-vCPU x86-64 VM: 24-28 ns per value each, tan 2 ns),
    so one tan and seven vectorised passes (6.5 ns per value) cost an eighth
    of the pair.  Against mpmath on |t| in [1e-8, 1e12], odd multiples of pi
    and their neighbours included, both stay within 2.2e-16 absolute (np.cos
    and np.sin: 5.6e-17), and every finite t gives finite values: |tan| of
    a double stays far below the square root of the largest double.

    out, a float array of shape (3,) + t.shape, receives cos t and sin t in
    its first two rows, which are returned; its last row is scratch and may
    be t itself.
    """
    t = np.asarray(t, dtype=float)
    if out is None:
        out = np.empty((3,) + t.shape)
    c, s, d = out[0, ...], out[1, ...], out[2, ...]  # views, 0-d ones too
    np.multiply(t, 0.5, out=s)
    np.tan(s, out=s)
    np.multiply(s, s, out=c)
    np.add(c, 1.0, out=d)
    np.subtract(1.0, c, out=c)
    c /= d
    s /= d
    s *= 2.0
    return c, s


# ---------------------------------------------------------------------------
# Negative integer orders
# ---------------------------------------------------------------------------
def mirror_orders(table, axis=-1):
    """A table over the integer orders n = 0..N (along axis) extended to
    n = -N..N by C_-n = (-1)**n C_n, the reflection of J_n, Y_n, their
    Hankel combinations, their derivatives and the scaled H_n(i t) family:
    the negative orders cost a gather and a negation, not a second
    evaluation.  The values equal scipy's own at the negative orders.
    """
    table = np.asarray(table)
    top = table.shape[axis] - 1
    out = np.take(table, np.abs(np.arange(-top, top + 1)), axis=axis)
    odd = [slice(None)] * out.ndim
    odd[axis] = slice((top + 1) % 2, top, 2)  # index i holds n = i - top
    np.negative(out[tuple(odd)], out=out[tuple(odd)])
    return out


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
    """All orthonormal harmonics through the truncation degree at scattered
    points: the dense block, for points that do not form a product rule.

    Returns shape (npoints, (truncation+1)**2); column n*n + n + m holds
    Y_n^m.  It costs npoints * (truncation+1)**2 cells (and a transient
    three times that), so on product rules use sph_analysis and
    sph_synthesis instead.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    allv = _sp.sph_harm_y_all(truncation, truncation, theta, phi)
    out = np.empty((theta.size, (truncation + 1) ** 2), dtype=complex)
    for n in range(truncation + 1):
        ms = np.arange(-n, n + 1)
        out[:, n * n + n + ms] = allv[n, ms].T
    return out


def _legendre_table(truncation: int, theta) -> np.ndarray:
    """Normalized associated Legendre values: [n, m, i] is the polar factor of
    Y_n^m at theta[i] (Y_n^m = table[n, m] * exp(i m phi)); a negative m
    indexes from the end, as in scipy."""
    return _sp.sph_legendre_p_all(truncation, truncation, np.asarray(theta, dtype=float))[0]


def sph_analysis(truncation: int, values, theta, weights) -> np.ndarray:
    """Harmonic coefficients through the truncation degree of sampled data on
    a product rule, by an FFT over the azimuths and one Legendre sum per order.

    values has shape (k, polar, azimuth): k data sets sampled at the polar
    nodes theta (polar-major) and at azimuths 2 pi j / azimuth; weights[i] is
    the quadrature weight of each node of polar ring i.  Returns shape
    ((truncation+1)**2, k), row n*n + n + m holding the quadrature value of
    sum over nodes of weight * values * conj(Y_n^m), as the dense block
    gives it.  After the FFT each data set costs about polar * (N+1)**2
    products, against the dense block's polar * azimuth * (N+1)**2.
    """
    values = np.asarray(values)
    azimuth = values.shape[2]
    # fft's exp(-2 pi i m j / azimuth) is conj(exp(i m phi_j)); order m and
    # m mod azimuth coincide on the lattice
    columns = np.moveaxis(np.fft.fft(values, axis=2), 2, 0)  # (azimuth, k, polar)
    table = _legendre_table(truncation, theta) * np.asarray(weights, dtype=float)
    degrees = np.arange(truncation + 1)
    out = np.empty(((truncation + 1) ** 2, values.shape[0]), dtype=complex)
    for m in range(-truncation, truncation + 1):
        n = degrees[abs(m):]
        out[n * n + n + m] = table[abs(m):, m] @ columns[m % azimuth].T
    return out


def sph_synthesis(coeffs, theta, azimuth: int) -> np.ndarray:
    """Harmonic sums of coefficient sets on a product rule, by one Legendre
    sum per order and an inverse FFT over the azimuths (the transpose of
    sph_analysis).

    coeffs has shape ((N+1)**2, k), row n*n + n + m the coefficient of Y_n^m.
    Returns shape (k, polar, azimuth): sum_(n, m) coeffs * Y_n^m at the polar
    nodes theta and azimuths 2 pi j / azimuth.  Orders with |m| >= azimuth/2
    fold onto the column m mod azimuth, where exp(i m phi) takes the same
    lattice values.
    """
    coeffs = np.asarray(coeffs)
    truncation = int(np.sqrt(coeffs.shape[0])) - 1
    table = _legendre_table(truncation, theta)
    degrees = np.arange(truncation + 1)
    columns = np.zeros((azimuth, table.shape[2], coeffs.shape[1]), dtype=complex)
    for m in range(-truncation, truncation + 1):
        n = degrees[abs(m):]
        columns[m % azimuth] += table[abs(m):, m].T @ coeffs[n * n + n + m]
    # norm="forward" leaves the inverse unscaled: a plain sum of exp(+i m phi_j)
    return np.fft.ifft(columns, axis=0, norm="forward").transpose(2, 1, 0)


def angular_basis(dimension: int, truncation: int, theta, phi=None) -> np.ndarray:
    """Angular factor of every stored mode at the given angles, shape (M, modes).

    2D: exp(i n theta) for n = -N..N; 3D: sph_harmonic_block at polar angle
    theta and azimuth phi.  Columns follow the mode layout of the modal
    profiles and coefficients.
    """
    if dimension == 2:
        return np.exp(1j * np.outer(theta, np.arange(-truncation, truncation + 1)))
    return sph_harmonic_block(truncation, theta, phi)
