"""Independent oracles for the test suite.

Everything here is deliberately implemented from first principles (power
series, integral representations, recurrences, finite differences, dense
trapezoid sums) so that the quantities the library computes through
scipy-backed fast paths are checked against a genuinely different route.
The one exception, the unscaled imaginary-axis Hankel functions, uses
scipy's unscaled K family as the reference for the library's exp-scaled one.
Accuracy notes state the validated ranges; tests stay inside them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# Power series for the cylindrical families
# ---------------------------------------------------------------------------
def j_series(nu: float, z: complex, terms: int = 200) -> complex:
    """J_nu(z) by its ascending series; accurate to ~1e-12 for |z| <= 12.

    nu may be any non-negative real (half-integers feed the spherical
    bridge check).  Terms advance by recurrence, stopping once they stall
    below the accumulated sum's precision floor.
    """
    z = complex(z)
    half = z / 2.0
    term = half**nu / math.gamma(nu + 1.0)
    total = term
    ratio = -(half * half)
    for k in range(1, terms):
        term = term * ratio / (k * (k + nu))
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1e-300) and k > abs(z):
            break
    return total


def i_series(n: int, t: float, terms: int = 150) -> float:
    """I_n(t) by its (all-positive) ascending series; no cancellation."""
    half = t / 2.0
    total = 0.0
    for k in range(terms):
        total += half ** (2 * k + n) / (math.factorial(k) * math.gamma(k + n + 1))
    return total


def _harmonic(k: int) -> float:
    return sum(1.0 / j for j in range(1, k + 1))


def y0_series(z: float, terms: int = 80) -> float:
    """Y_0(z) from the logarithmic series; accurate for 0 < z <= 8."""
    u = z * z / 4.0
    tail = 0.0
    for k in range(1, terms):
        tail += (-1.0) ** (k + 1) * _harmonic(k) * u**k / math.factorial(k) ** 2
    j0 = j_series(0, z).real
    return (2.0 / math.pi) * ((math.log(z / 2.0) + EULER_GAMMA) * j0 + tail)


def y1_series(z: float, terms: int = 80) -> float:
    """Y_1(z) from its logarithmic series; accurate for 0 < z <= 8."""
    j1 = j_series(1, z).real
    total = (2.0 / math.pi) * (math.log(z / 2.0) + EULER_GAMMA) * j1
    total -= 2.0 / (math.pi * z)
    u = z * z / 4.0
    tail = 0.0
    for k in range(terms):
        hk = _harmonic(k) + _harmonic(k + 1)
        tail += (-1.0) ** k * hk * u**k / (math.factorial(k) * math.factorial(k + 1))
    total -= (z / (2.0 * math.pi)) * tail
    return total


def k0_integral(t: float, nodes: int = 4001) -> float:
    """K_0(t) = integral_0^inf exp(-t cosh s) ds by truncated trapezoid.

    The integrand decays double-exponentially; truncation where
    t cosh S ~ 745 makes the tail below double precision.
    """
    s_max = math.asinh(745.0 / t) + 1.0
    s = np.linspace(0.0, s_max, nodes)
    vals = np.exp(-t * np.cosh(s))
    return float(np.trapezoid(vals, s))


# ---------------------------------------------------------------------------
# Unscaled imaginary-axis Hankel functions (references for the scaled forms)
# ---------------------------------------------------------------------------
def hankel1_imag(n: int, t):
    """H^(1)_n on the positive imaginary axis: H^(1)_n(i t) = (2/pi) i**-(n+1) K_n(t)."""
    return (2.0 / np.pi) * 1j ** -(n + 1) * _sp.kv(n, t)


def hankel1_imag_dt(n: int, t):
    """d/dt H^(1)_n(i t) = (2/pi) i**-(n+1) K_n'(t)."""
    return (2.0 / np.pi) * 1j ** -(n + 1) * _sp.kvp(n, t)


def sph_hankel1_imag(n: int, t):
    """h^(1)_n on the positive imaginary axis: h^(1)_n(i t) = -(2/pi) i**-n k_n(t)."""
    return -(2.0 / np.pi) * 1j ** -n * _sp.spherical_kn(n, t)


def sph_hankel1_imag_dt(n: int, t):
    """d/dt h^(1)_n(i t) = -(2/pi) i**-n k_n'(t)."""
    return -(2.0 / np.pi) * 1j ** -n * _sp.spherical_kn(n, t, derivative=True)


# ---------------------------------------------------------------------------
# Closed forms for the spherical family
# ---------------------------------------------------------------------------
def sph_h1_closed(n: int, z: float) -> complex:
    """h^(1)_n for n in {0, 1, 2} from closed forms."""
    e = np.exp(1j * z)
    if n == 0:
        return -1j * e / z
    if n == 1:
        return -e * (z + 1j) / z**2
    if n == 2:
        return 1j * e * (z**2 + 3j * z - 3.0) / z**3
    raise ValueError("closed forms implemented for n <= 2")


def sph_j_closed(n: int, z: float) -> float:
    if z == 0.0:
        return 1.0 if n == 0 else 0.0
    if n == 0:
        return math.sin(z) / z
    if n == 1:
        return math.sin(z) / z**2 - math.cos(z) / z
    raise ValueError("closed forms implemented for n <= 1")


# ---------------------------------------------------------------------------
# Associated Legendre / orthonormal harmonics (spot values)
# ---------------------------------------------------------------------------
def legendre_pnm(n: int, m: int, x: float) -> float:
    """P_n^m(x) with Condon-Shortley phase, by the standard recurrences."""
    if m < 0 or m > n:
        raise ValueError("need 0 <= m <= n")
    pmm = 1.0
    if m > 0:
        somx2 = math.sqrt((1.0 - x) * (1.0 + x))
        fact = 1.0
        for _ in range(m):
            pmm *= -fact * somx2
            fact += 2.0
    if n == m:
        return pmm
    pmmp1 = x * (2 * m + 1) * pmm
    if n == m + 1:
        return pmmp1
    for ll in range(m + 2, n + 1):
        pll = (x * (2 * ll - 1) * pmmp1 - (ll + m - 1) * pmm) / (ll - m)
        pmm, pmmp1 = pmmp1, pll
    return pmmp1


def sph_harmonic_oracle(n: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal Y_n^m via the Legendre recurrence (m of either sign)."""
    ma = abs(m)
    norm = math.sqrt(
        (2 * n + 1) / (4 * math.pi) * math.factorial(n - ma) / math.factorial(n + ma)
    )
    val = norm * legendre_pnm(n, ma, math.cos(theta)) * np.exp(1j * ma * phi)
    if m < 0:
        val = (-1.0) ** ma * np.conj(val)
    return complex(val)


# ---------------------------------------------------------------------------
# Finite-difference stencils (independent of the library's own)
# ---------------------------------------------------------------------------
_D2_OFFSETS = (-2, -1, 0, 1, 2)
_D2_COEFFS = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)


def fd_laplacian(func, point, h: float) -> complex:
    """Fourth-order Laplacian at one point; func maps a point to a scalar."""
    point = np.asarray(point, dtype=float)
    total = 0.0 + 0.0j
    for axis in range(point.size):
        for off, c in zip(_D2_OFFSETS, _D2_COEFFS):
            shifted = point.copy()
            shifted[axis] += off * h
            total += c * complex(func(shifted))
    return total / (h * h)


def fd_bilaplacian(func, point, h: float) -> complex:
    """Squared Laplacian by composing two fourth-order Laplacians."""
    return fd_laplacian(lambda q: fd_laplacian(func, q, h), point, h)


# ---------------------------------------------------------------------------
# Quadrature oracles
# ---------------------------------------------------------------------------
def adaptive_radial(func, a: float, b: float) -> float:
    """Adaptive refinement of integral_a^b func(r) dr (scipy's QUADPACK)."""
    import warnings

    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        # roundoff chatter is expected when the true value is ~0
        warnings.simplefilter("ignore", IntegrationWarning)
        re = quad(lambda r: np.real(func(r)), a, b, limit=200, epsabs=1e-12, epsrel=1e-12)[0]
        im = quad(lambda r: np.imag(func(r)), a, b, limit=200, epsabs=1e-12, epsrel=1e-12)[0]
    return re + 1j * im if abs(im) > 0 else re


def trapezoid_angular(func, nodes: int = 8192) -> complex:
    """Dense trapezoid over one period: integral_0^(2 pi) func(theta) d theta."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    return complex(np.sum(func(theta)) * 2.0 * np.pi / nodes)
