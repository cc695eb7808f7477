"""Independent oracles for the test suite.

Everything here is deliberately implemented from first principles (power
series, integral representations, recurrences, explicit polynomials in
mpmath, finite differences, dense trapezoid sums) so that the quantities the
library computes through its own numpy series and recurrences are checked
against a genuinely different route.
The one exception, the unscaled imaginary-axis Hankel functions, uses
scipy's unscaled K family as the reference for the library's exp-scaled one.
Accuracy notes state the validated ranges; tests stay inside them.

The dense spherical-harmonic projection and synthesis on a product rule
(one harmonic block over every node) are the references for the library's
separated transforms (FFT over the azimuths, Legendre sums per order).

The direct-quadrature sums (field parts and volume transforms) are redone
here in complex arithmetic, on scipy's AMOS hankel1/kv in 2D and complex exp,
as references for the library's sums of real kernel tables.

The multipole series of the two point-source kernels and the 2D companion
kernels (green_star, psi_kernel) live here too, written directly on
scipy.special: the library computes none of them, so the tests use them as
references for the library's closed-form kernels of distance.  The series
keep their per-order loops, which sum in a different order from any
vectorized route.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
from scipy import special as _sp

from biharwave import specfun

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
# Complex direct-quadrature sums (references for the real kernel tables)
# ---------------------------------------------------------------------------
def _weighted_values(src):
    # the grid the library's direct sums walk for a source of one leaf: its
    # own default grid and samples, wherever that grid puts its nodes
    grid, values = src.default_samples()
    return grid, values * grid.weights


def dense_kernel_sums(ctx, src, pts):
    """f_h and f_m at points by the complex sum over the source's grid, on
    explicit distances, and the sums of the integrands' magnitudes, which
    bound their rounding.  2D kernels: (i/4) H^(1)_0 and K_0 / (2 pi) from
    AMOS; 3D: exp(+-i kappa r) / (4 pi r) by complex exp."""
    grid, fw = _weighted_values(src)
    sums = []
    for chunk in np.array_split(pts, -(-len(pts) * len(fw) // 2**20)):  # about 2**20 pairs each
        dist = np.linalg.norm(chunk[:, None, :] - grid.points[None, :, :], axis=-1)
        t = ctx.kappa * dist
        if ctx.dimension == 2:
            k_h, k_m = 0.25j * _sp.hankel1(0, t), _sp.kv(0, t) / (2.0 * np.pi)
        else:
            k_h, k_m = np.exp(1j * t) / (4.0 * np.pi * dist), np.exp(-t) / (4.0 * np.pi * dist)
        sums.append([-k_h @ fw, -k_m @ fw, np.abs(k_h) @ np.abs(fw), np.abs(k_m) @ np.abs(fw)])
    return tuple(np.concatenate(part) for part in zip(*sums))


def volume_transform(ctx, src, dirs, scale):
    """sum over the source's grid of exp(scale * dir . y) f(y) w(y) by complex
    exp, one value per direction, and sum |f w|, which bounds the rounding of
    the oscillating transform."""
    grid, fw = _weighted_values(src)
    return np.exp(scale * (dirs @ grid.points.T)) @ fw, float(np.sum(np.abs(fw)))


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


@functools.lru_cache(maxsize=None)
def _legendre_terms(n: int, m: int):
    """The factor of the normalized P_n^m before sin(theta)**m and the
    coefficients, highest power of x**2 first, of the m-th derivative of
    P_n(x) = 2**-n sum_k (-1)**k C(n, k) C(2n - 2k, n) x**(n - 2k) divided by
    x**((n - m) % 2), both at 60 digits."""
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf((-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)
                             * math.factorial(n - 2 * k) // math.factorial(n - 2 * k - m))
                  for k in range((n - m) // 2 + 1)]
        norm = mpmath.sqrt((2 * n + 1) / (4 * mpmath.pi) * mpmath.factorial(n - m) / mpmath.factorial(n + m))
        return (-1) ** m * norm / mpmath.mpf(2) ** n, coeffs


def normalized_legendre_mp(n: int, m: int, theta: float):
    """The orthonormal Legendre factor of Y_n^m (0 <= m <= n, Condon-Shortley
    phase) at the double theta, as an mpmath number at 60 digits, from the
    explicit polynomial of P_n: no recurrence, and digits enough for the
    cancellation of its integer coefficients through degree 60."""
    with mpmath.workdps(60):
        th = mpmath.mpf(float(theta))
        x, s = mpmath.cos(th), mpmath.sin(th)
        factor, coeffs = _legendre_terms(n, m)
        return factor * s**m * mpmath.polyval(coeffs, x * x) * x ** ((n - m) % 2)


def sph_harmonic_block_mp(truncation: int, theta, phi) -> np.ndarray:
    """The harmonic block of specfun.sph_harmonic_block (column n*n + n + m
    holds Y_n^m), every entry from mpmath: normalized_legendre_mp times
    exp(i m phi), with Y_n^-m = (-1)**m conj(Y_n^m)."""
    theta, phi = np.ravel(theta), np.ravel(phi)
    out = np.empty((theta.size, (truncation + 1) ** 2), dtype=complex)
    with mpmath.workdps(60):
        for i, (th, ph) in enumerate(zip(theta, phi)):
            phases = [mpmath.expj(m * mpmath.mpf(float(ph))) for m in range(truncation + 1)]
            for n in range(truncation + 1):
                for m in range(n + 1):
                    y = normalized_legendre_mp(n, m, th) * phases[m]
                    out[i, n * n + n + m] = complex(y)
                    out[i, n * n + n - m] = (-1) ** m * complex(mpmath.conj(y))
    return out


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


# ---------------------------------------------------------------------------
# Companion kernels and multipole series (2D/3D, ctx gives kappa, dimension)
# ---------------------------------------------------------------------------
def green_star(ctx, x, y):
    """Conjugate-radiation companion kernel (2D only), coincident points refused.

    -(phi_h_star - phi_m) / (2 kappa**2) with phi_h_star = -(i/4) H^(2)_0(kappa r)
    and phi_m = K_0(kappa r) / (2 pi); green - green_star is psi_kernel.
    """
    if ctx.dimension != 2:
        raise ValueError("green_star is defined for 2D contexts only")
    r = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), axis=-1)
    if np.any(r == 0.0):
        raise ValueError("green_star is singular at coincident points x == y")
    kr = ctx.kappa * r
    phi_h_star = -0.25j * _sp.hankel2(0, kr)
    return -(phi_h_star - _sp.kv(0, kr) / (2.0 * np.pi)) / (2.0 * ctx.kappa**2)


def psi_kernel(ctx, x, y):
    """Entire kernel psi = green - green_star = -(i/(4 kappa**2)) J_0(kappa |x-y|); 2D only."""
    if ctx.dimension != 2:
        raise ValueError("psi_kernel is defined for 2D contexts only")
    r = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), axis=-1)
    return -0.25j / ctx.kappa**2 * _sp.jv(0, ctx.kappa * r)


def far_field_mu(ctx) -> complex:
    """The far-field factor mu_d: sqrt(2/kappa) exp(i pi/4) in 2D, 1 in 3D."""
    return np.sqrt(2.0 / ctx.kappa) * np.exp(1j * np.pi / 4.0) if ctx.dimension == 2 else 1.0 + 0.0j


def default_truncation(ctx, y_norm: float) -> int:
    """Truncation order for the multipole series: convergence onset + guard."""
    return int(np.ceil(np.e * ctx.kappa * y_norm / 2.0)) + 16


def single_mode(profile, n: int):
    """Pointwise function of one angular mode: profile(r) exp(i n theta) on
    (M, 2) points, profile(r) Y_n^0 (scipy's orthonormal harmonic) on (M, 3)."""

    def func(p):
        r = np.linalg.norm(p, axis=-1)
        if p.shape[1] == 2:
            return profile(r) * np.exp(1j * n * np.arctan2(p[:, 1], p[:, 0]))
        return profile(r) * _sp.sph_harm_y(n, 0, np.arctan2(np.hypot(p[:, 0], p[:, 1]), p[:, 2]), 0.0)

    return func


def _polar_angle(p: np.ndarray) -> np.ndarray:
    """Counterclockwise angle from (1, 0), in [0, 2 pi)."""
    return np.mod(np.arctan2(p[..., 1], p[..., 0]), 2.0 * np.pi)


def _separation(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = np.linalg.norm(x, axis=-1)
    ry = np.linalg.norm(y, axis=-1)
    if np.any(rx <= ry):
        raise ValueError("multipole expansion requires |x| > |y|")
    return x, y, rx, ry


def phi_h_series(ctx, x, y, n_terms: int | None = None):
    """Truncated multipole form of the Helmholtz kernel, orders/degrees up to n_terms.

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
    cosg = np.clip(np.sum(x * y, axis=-1) / (rx * ry), -1.0, 1.0)
    total = np.zeros(np.broadcast(rx, ry).shape, dtype=complex)
    for n in range(n_terms + 1):
        hn = _sp.spherical_jn(n, k * rx) + 1j * _sp.spherical_yn(n, k * rx)
        total = total + (2 * n + 1) * hn * _sp.spherical_jn(n, k * ry) * _sp.eval_legendre(n, cosg)
    return 1j * k / (4.0 * np.pi) * total


def phi_m_series(ctx, x, y, n_terms: int | None = None):
    """Truncated multipole form of the modified-Helmholtz kernel, through the I/K families.

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
    cosg = np.clip(np.sum(x * y, axis=-1) / (rx * ry), -1.0, 1.0)
    total = np.zeros(np.broadcast(rx, ry).shape, dtype=float)
    for n in range(n_terms + 1):
        total = total + (
            (2 * n + 1)
            * _sp.spherical_kn(n, k * rx)
            * _sp.spherical_in(n, k * ry)
            * _sp.eval_legendre(n, cosg)
        )
    return k / (2.0 * np.pi**2) * total + 0j


# ---------------------------------------------------------------------------
# Potentials behind the nonradiating constructors
# ---------------------------------------------------------------------------
def mollifier(point, rho: float, center, amplitude: float = 1.0) -> float:
    """amplitude * exp(-1/(1 - |x - c|^2/rho^2)) inside the ball |x - c| < rho, else 0."""
    t = float(np.sum((np.asarray(point, dtype=float) - np.asarray(center, dtype=float)) ** 2)) / rho**2
    return amplitude * math.exp(-1.0 / (1.0 - t)) if t < 1.0 else 0.0


def bump_image(u: float, rho: float, kappa: float, dimension: int, amplitude: float = 1.0) -> float:
    """-(bilaplacian - kappa^4) of the mollifier at squared distance u < rho^2
    from its centre, by numerical differentiation at 40 digits (mpmath.diff) of
    G(u) = amplitude * exp(-rho^2/(rho^2 - u)): the radial Laplacian in u,
    4 u F'' + 2 d F', is applied to G and then to its result, each time to a
    numerically differentiated function, never through closed-form
    derivatives of G."""
    with mpmath.workdps(40):
        r2 = mpmath.mpf(rho) ** 2

        def g(x):
            return amplitude * mpmath.exp(-r2 / (r2 - x))

        def laplacian(f):
            return lambda x: 4 * x * mpmath.diff(f, x, 2) + 2 * dimension * mpmath.diff(f, x, 1)

        u = mpmath.mpf(u)
        return float(-(laplacian(laplacian(g))(u) - mpmath.mpf(kappa) ** 4 * g(u)))


def bessel_pair_potential_2d(kappa: float, radius: float):
    """psi(r) = J_0^3 / c_4 - J_0^2 / c_3 with c_p = integral_0^R J_0^p r dr by
    adaptive quadrature: the potential whose (laplacian - kappa^2) image is the
    2D Bessel-pair source."""
    c4 = adaptive_radial(lambda r: _sp.jv(0, kappa * r) ** 4 * r, 0.0, radius)
    c3 = adaptive_radial(lambda r: _sp.jv(0, kappa * r) ** 3 * r, 0.0, radius)

    def psi(r):
        z0 = _sp.jv(0, kappa * r)
        return z0**3 / c4 - z0**2 / c3

    return psi


def bessel_pair_profile_2d(ctx):
    """The 2D Bessel-pair source profile r -> value in its own closed form:
    kappa^2 (6 J_0 J_1^2 - 4 J_0^3) / c_4 - kappa^2 (2 J_1^2 - 3 J_0^2) / c_3,
    the (laplacian - kappa^2) images of J_0^3 and J_0^2, with c_p the sum of
    J_0^p r w over the Gauss-Legendre rule of max(64, 8 ceil(kappa R)) nodes."""
    k, t, meas = _normalizing_rule(ctx)
    j0 = _sp.jv(0, t)
    c4 = float(np.sum(j0**4 * meas))
    c3 = float(np.sum(j0**3 * meas))

    def profile(r):
        z0, z1 = _sp.jv(0, k * r), _sp.jv(1, k * r)
        cubic = k * k * (6.0 * z0 * z1 * z1 - 4.0 * z0**3)
        square = k * k * (2.0 * z1 * z1 - 3.0 * z0 * z0)
        return cubic / c4 - square / c3

    return profile


def bessel_pair_profile_3d(ctx, m1: int, m2: int):
    """The 3D Bessel-pair source profile r -> value in its own closed form:
    the (laplacian + kappa^2) images kappa^2 [m(m-1) j_0^(m-2) j_1^2 - (m-1) j_0^m]
    of j_0^m1 and j_0^m2, each divided by the sum of j_0^m i_0 r^2 w over the
    same rule as the 2D profile."""
    k, t, meas = _normalizing_rule(ctx)
    j0, i0 = _sp.spherical_jn(0, t), _sp.spherical_in(0, t)

    def image(r, m):
        z0, z1 = _sp.spherical_jn(0, k * r), _sp.spherical_jn(1, k * r)
        norm = float(np.sum(j0**m * i0 * meas))
        return k * k * (m * (m - 1) * z0 ** (m - 2) * z1 * z1 - (m - 1) * z0**m) / norm

    return lambda r: image(r, m1) - image(r, m2)


def _normalizing_rule(ctx):
    """kappa, kappa * nodes and nodes^(d-1) * weights of the Bessel-pair
    normalizing rule on [0, R]."""
    nodes, weights = np.polynomial.legendre.leggauss(max(64, 8 * math.ceil(ctx.kappa * ctx.radius)))
    r = 0.5 * ctx.radius * (nodes + 1.0)
    return ctx.kappa, ctx.kappa * r, r ** (ctx.dimension - 1) * 0.5 * ctx.radius * weights


# ---------------------------------------------------------------------------
# Closed-form radial controls: alpha_0 and beta_0 of a regular radial wave
# ---------------------------------------------------------------------------
def radial_control_profile(dimension: int, a: float):
    """The control source's profile r -> J_0(a r) (2D) or j_0(a r) (3D)."""
    if dimension == 2:
        return lambda r: _sp.j0(a * np.asarray(r, dtype=float))
    return lambda r: _sp.spherical_jn(0, a * np.asarray(r, dtype=float))


def radial_control_coefficients(dimension: int, kappa: float, a: float, radius: float) -> tuple[float, float]:
    """alpha_0 and beta_0 of the control source f = J_0(a r) (2D) or
    j_0(a r) (3D) on the ball of the radius, a != kappa, in closed form at
    40 digits (mpmath):

        2D  alpha_0 = R [kappa J_0(aR) J_1(kR) - a J_1(aR) J_0(kR)] / (kappa^2 - a^2)
            beta_0  = R [a J_1(aR) I_0(kR) + kappa J_0(aR) I_1(kR)] / (a^2 + kappa^2)
        3D  alpha_0 = c [sin((a - kappa) R) / (a - kappa) - sin((a + kappa) R) / (a + kappa)] / (2 a kappa)
            beta_0  = c [kappa cosh(kR) sin(aR) - a sinh(kR) cos(aR)] / (a kappa (a^2 + kappa^2))

    with k = kappa and c = sqrt(4 pi), the weight of the 3D mode (0, 0) in
    the library's orthonormal harmonics.  The 2D pair are Lommel's integrals
    of r J_0(a r) J_0(b r) at b = kappa and b = i kappa (Watson, Theory of
    Bessel Functions, 5.11; DLMF 10.22.5); the 3D pair integrate
    sin(a r) sin(kappa r) and sin(a r) sinh(kappa r).  alpha_0 is zero
    exactly when aR and kappa R are distinct zeros of J_0 (2D) or
    multiples of pi (3D)."""
    with mpmath.workdps(40):
        k, a, R = mpmath.mpf(kappa), mpmath.mpf(a), mpmath.mpf(radius)
        if dimension == 2:
            j0a, j1a = mpmath.besselj(0, a * R), mpmath.besselj(1, a * R)
            alpha = R * (k * j0a * mpmath.besselj(1, k * R) - a * j1a * mpmath.besselj(0, k * R)) / (k * k - a * a)
            beta = R * (a * j1a * mpmath.besseli(0, k * R) + k * j0a * mpmath.besseli(1, k * R)) / (a * a + k * k)
        else:
            c = mpmath.sqrt(4 * mpmath.pi)
            alpha = c * (mpmath.sin((a - k) * R) / (a - k) - mpmath.sin((a + k) * R) / (a + k)) / (2 * a * k)
            beta = c * (k * mpmath.cosh(k * R) * mpmath.sin(a * R)
                        - a * mpmath.sinh(k * R) * mpmath.cos(a * R)) / (a * k * (a * a + k * k))
        return float(alpha), float(beta)


@functools.cache
def _scale_rule():
    return np.polynomial.legendre.leggauss(600)


def radial_control_term_scales(dimension: int, kappa: float, a: float, radius: float) -> tuple[float, float]:
    """The integrals of |f z_0(kappa r)| r^(d-1) over [0, R] for the two
    radial families z_0 (J_0 and I_0 in 2D, j_0 and i_0 in 3D, times
    sqrt(4 pi) in 3D): the magnitudes of the terms that alpha_0 and beta_0
    sum, against which a quadrature's rounding is measured.  600-node
    Gauss-Legendre; a scale needs no more than a few digits."""
    nodes, weights = _scale_rule()
    r = 0.5 * radius * (nodes + 1.0)
    f = np.abs(radial_control_profile(dimension, a)(r))
    if dimension == 2:
        waves, c = (_sp.j0(kappa * r), _sp.i0(kappa * r)), 1.0
    else:
        waves, c = (_sp.spherical_jn(0, kappa * r), _sp.spherical_in(0, kappa * r)), math.sqrt(4.0 * math.pi)
    measure = c * f * r ** (dimension - 1) * 0.5 * radius * weights
    return tuple(float(np.sum(np.abs(z) * measure)) for z in waves)


# ---------------------------------------------------------------------------
# Dense spherical-harmonic transforms on a product rule
# ---------------------------------------------------------------------------
def dense_sph_analysis(truncation: int, values, rule) -> np.ndarray:
    """Coefficients of values (k, nodes) on an angular rule: the rule's sum of
    weight * value * conj(Y_n^m) over every node, shape (modes, k)."""
    block = specfun.sph_harmonic_block(truncation, rule.params[:, 0], rule.params[:, 1])
    return (values @ (np.conj(block) * rule.weights[:, None])).T


def dense_sph_synthesis(coeffs, params) -> np.ndarray:
    """sum_(n, m) coeffs * Y_n^m at each (theta, phi) row of params, shape (k, nodes)."""
    truncation = math.isqrt(coeffs.shape[0]) - 1
    return (specfun.sph_harmonic_block(truncation, params[:, 0], params[:, 1]) @ coeffs).T
