"""The radial-wave layer, the angular-mode layer, and the special functions
they rest on beyond scipy.special: cos and sin of a phase, the order-zero
Bessel functions J_0, Y_0 and K_0 at real arguments, and orthonormal
spherical harmonics.

cos_sin, j0_y0 and k0 work in vectorised numpy passes over whole arrays,
where scipy's and numpy's routines are scalar loops per value: the
direct-quadrature kernel tables (kernels.kernel_tables) and the phase sums
of the far field and the volume transforms call them.  j0_y0 and k0 hand
the arguments at or below their thresholds (t = 5 and t = 2) to scipy's
j0, y0 and k0.

The angular modes are the 2D Fourier orders n = -N..N and the 3D
spherical-harmonic pairs (n, m), stored degree by degree.  Their layout
(mode_degrees, mode_index) is spelled out here only.  A per-order table
(2D, orders 0..N) or per-degree table (3D) becomes a per-mode one through
per_mode: in 2D by the reflection C_-n = (-1)**n C_n, in 3D by repeating
each degree over its orders.  On the nodes of an AngularRule the modes are
analysed and synthesized by rule_analysis and rule_synthesis: one FFT over
the equispaced angles in 2D, and in 3D an FFT over the azimuths with one
Legendre sum per order (sph_analysis and sph_synthesis, the separated
transforms of Driscoll & Healy, Adv. Appl. Math. 15 (1994) 202-250).  The
dense angular_basis serves only angles that are not a rule's nodes; its 3D
block is scipy's normalized Legendre values times exp(i m phi).

Every per-order radial table of the modal route comes from this module,
orders 0..N on axis 0 and the arguments on axis 1.  The regular families,
J_n and I_n in 2D and the spherical j_n and i_n in 3D, come from one
backward ratio recurrence (regular_wave_tables): the modal coefficients'
tables and the null-space probes'.  The exterior families
(exterior_wave_tables) are the outgoing Hankel functions and the decaying
family of the modified Helmholtz equation, the outgoing Hankel function on
the positive imaginary axis, evaluated through the modified functions K_n
(never by complex continuation) and returned with the factor exp(t)
removed, so that it stays finite for every representable t.  Their
derivatives come from one recurrence in both dimensions,
z_n' = (n / t) z_n - z_(n+1).

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

from .context import _check_integer

_IPOW = np.array([1.0, 1j, -1.0, -1j])


def _ipow(k):
    """i**k for an integer k or an integer array, exact (unit modulus, no rounding)."""
    return _IPOW[np.mod(k, 4)]


# ---------------------------------------------------------------------------
# Cosine and sine of a phase
# ---------------------------------------------------------------------------
def cos_sin(t):
    """cos t and sin t from one half-angle tangent tau = tan(t / 2):

        cos t = (1 - tau**2) / (1 + tau**2),  sin t = 2 tau / (1 + tau**2).

    numpy's float64 cos and sin can be scalar loops where tan is vectorised
    (numpy 2.4.6 on a 2-vCPU x86-64 VM: 24-28 ns per value each, tan 2 ns),
    so one tan and seven vectorised passes (6.5 ns per value) cost an eighth
    of the pair.  Against mpmath on |t| in [1e-8, 1e12], odd multiples of pi
    and their neighbours included, both stay within 2.2e-16 absolute (np.cos
    and np.sin: 5.6e-17), and every finite t gives finite values: |tan| of
    a double stays far below the square root of the largest double.
    """
    t = np.asarray(t, dtype=float)
    c, s, d = (np.empty(t.shape) for _ in range(3))  # 0-d arrays for a 0-d t
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
# Bessel functions of order zero at real arguments, in vectorised passes
# ---------------------------------------------------------------------------
# The rational amplitudes of Cephes's j0.c and y0.c (S. L. Moshier, Methods
# and Programs for Mathematical Functions, 1989), highest power first, in
# q = 25 / t**2: P = PP(q) / PQ(q) and Q = (5 / t) QP(q) / QQ(q).  PP and PQ
# agree to 4e-18 in their constant terms, so P is evaluated as
# 1 + (PP - PQ)(q) / PQ(q), with the coefficients of PP - PQ exact in decimal:
# P - 1 then carries its own relative precision, and P rounds once, at 1 +.
_J0_PP_MINUS_PQ = (-0.0001274720812615166, -0.002793608224703363, -0.013993722546446541, -0.0237273727164833,
                   -0.014743830372525822, -0.0028124999999972543, -4.359e-18)
_J0_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0, 5.47097740330417105182e0,
          8.76190883237069594232e0, 5.30605288235394617618e0, 1.00000000000000000218e0)
_J0_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
          -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
          -5.14105326766599330220e1, -6.05014350600728481186e0)
_J0_QQ = (1.0, 6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
          7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3, 2.42005740240291393179e2)

# Above this argument j0_y0 sums the amplitudes; at or below it, scipy's j0 and y0.
J0_THRESHOLD = 5.0

# g(u) = exp(x) sqrt(x) K_0(x) at x = 4 / (u + 1), u in (-1, 1] for x >= 2:
# a_k = (1 / N) sum_j g(u_j) T_k(u_j) over the N = 24 Chebyshev nodes
# u_j = cos(pi (j + 1/2) / N), fitted in mpmath at 40 digits, so that
# g = a_0 + 2 sum_(k >= 1) a_k T_k, which is b_0 - b_2 of Clenshaw's recurrence.
_K0_CHEBYSHEV = (1.2201515410329777, -0.01572405065598225, 0.0007849419428650267, -6.424774790813901e-05,
                 6.97490685943825e-06, -9.158777613595598e-07, 1.3834068197225074e-07, -2.330244948843974e-08,
                 4.287017008707113e-09, -8.487672546945302e-10, 1.7886986407001507e-10, -3.978744622238342e-11,
                 9.2797455747652e-12, -2.257298941662042e-12, 5.701702940355905e-13, -1.4900484597173583e-13,
                 4.016445336360864e-14, -1.1137565207764424e-14, 3.1700342187721526e-15, -9.242852228618684e-16,
                 2.75569676917544e-16, -8.381460150747912e-17, 2.5764203428073633e-17, -7.371317369630266e-18)

# Above this argument k0 sums the Chebyshev series; at or below it, scipy's k0.
K0_THRESHOLD = 2.0


def _polynomial(coeffs, x, out):
    """sum_k coeffs[k] x**(n - k), highest power first, by Horner's rule into out."""
    np.multiply(x, coeffs[0], out=out)
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def j0_y0(t):
    """J_0(t) and Y_0(t) at real t >= 0, in vectorised passes.

    For t > J0_THRESHOLD (5) from Cephes's rational amplitudes P and Q
    (the _J0_ constants) and cos t and sin t from one half-angle tangent
    (cos_sin):

        J_0 = (P (c + s) - Q (s - c)) / sqrt(pi t),
        Y_0 = (P (s - c) + Q (c + s)) / sqrt(pi t),

    since cos(t - pi/4) = (c + s) / sqrt(2): t - pi/4 is never rounded.  At
    or below the threshold, scipy's j0 and y0 on the gathered entries.
    scipy's j0 and y0 (about 35 ns per value each on a 2-vCPU x86-64 VM)
    spend most of their time in scalar sin and cos and lose about
    1e-16 * t, as they round t - pi/4; against mpmath on (5, 2000] both
    stay within 4.4e-16 of the amplitude sqrt(2 / (pi t)) here (scipy:
    8e-14 at t = 2000), and within 4.0e-16 absolute of scipy's on (5, 150].
    Per 16,384 values at t in (5, 40] (one BLAS thread, medians of six
    runs on a shared host): 0.47-0.65 ms against 1.24-1.78 ms for scipy's
    j0 and y0.
    """
    t = np.asarray(t, dtype=float)
    b, a, p, q, w = (np.empty(t.shape) for _ in range(5))  # 0-d arrays for a 0-d t
    # entries at or below the threshold (t = 0 among them) are overwritten
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(5.0, t, out=a)
        np.multiply(a, a, out=b)  # q = 25 / t**2
        _polynomial(_J0_PP_MINUS_PQ, b, p)
        p /= _polynomial(_J0_PQ, b, w)
        p += 1.0
        _polynomial(_J0_QP, b, q)
        q /= _polynomial(_J0_QQ, b, w)
        q *= a
        j, y = cos_sin(t)  # c and s, then J_0 and Y_0 in their place
        np.add(j, y, out=a)  # c + s
        np.subtract(y, j, out=b)  # s - c
        np.multiply(p, a, out=j)
        np.multiply(p, b, out=y)
        np.multiply(q, b, out=p)
        j -= p
        a *= q
        y += a
        np.multiply(t, np.pi, out=a)
        np.sqrt(a, out=a)
        j /= a
        y /= a
    low = t <= J0_THRESHOLD
    if low.any():
        tl = t[low]
        j[low] = _sp.j0(tl)
        y[low] = _sp.y0(tl)
    return j, y


def k0(t):
    """K_0(t) at real t >= 0, in vectorised passes.

    For t > K0_THRESHOLD (2), exp(-t) / sqrt(t) times the 24-term Chebyshev
    series of _K0_CHEBYSHEV in u = 4 / t - 1, summed by Clenshaw's
    recurrence; at or below the threshold, scipy's k0 on the gathered
    entries.  scipy's k0 (40-55 ns per value) runs a 25-term Chebyshev loop
    per value.  Against mpmath on (2, 700] within 4e-16 relative; beyond
    t = 700 exp(-t) leaves the normal range and K_0 underflows to 0 near
    t = 745.  Per 16,384 values at t in (5, 40], as for j0_y0: 0.51-0.63
    ms against 0.67-1.59 ms for scipy's k0.
    """
    t = np.asarray(t, dtype=float)
    x, f, *rows = (np.empty(t.shape) for _ in range(5))  # 0-d arrays for a 0-d t
    a = _K0_CHEBYSHEV
    # entries at or below the threshold (t = 0 among them) are overwritten
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(8.0, t, out=x)
        x -= 2.0  # 2 u
        np.negative(t, out=f)
        np.exp(f, out=f)
        f /= np.sqrt(t, out=rows[2])
        # b_k = a_k + 2 u b_(k+1) - b_(k+2), from b_23 = a_23, b_24 = 0,
        # each b_k into the row of b_(k+3)
        cur, prev, free = rows
        np.multiply(x, a[-1], out=cur)
        cur += a[-2]
        np.multiply(x, cur, out=prev)
        prev -= a[-1]
        prev += a[-3]
        cur, prev = prev, cur
        for c in a[-4::-1]:
            np.multiply(x, cur, out=free)
            free -= prev
            free += c
            cur, prev, free = free, cur, prev
        k = np.subtract(cur, free, out=cur)  # b_0 - b_2
        k *= f
    low = t <= K0_THRESHOLD
    if low.any():
        k[low] = _sp.k0(t[low])
    return k


# ---------------------------------------------------------------------------
# Angular modes: their layout and per-order tables expanded over it
# ---------------------------------------------------------------------------
def mode_degrees(dimension: int, truncation: int) -> np.ndarray:
    """Order (2D) or degree (3D) of every stored mode, in storage order."""
    if dimension == 2:
        return np.arange(-truncation, truncation + 1)
    n = np.arange(truncation + 1)
    return np.repeat(n, 2 * n + 1)


def mode_index(dimension: int, truncation: int, n: int, m: int | None = None) -> int:
    """Flat row of an angular mode up to the truncation: 2D order n (rows
    n = -N..N), or 3D degree/order (n, m) (rows packed degree by degree)."""
    if dimension == 2:
        if abs(n) > truncation:
            raise ValueError(f"|n| must be <= {truncation}, got {n}")
        return n + truncation
    if m is None:
        raise ValueError("3D modes need both degree n and order m")
    if n > truncation or abs(m) > n:
        raise ValueError(f"(n, m) must satisfy |m| <= n <= {truncation}, got ({n}, {m})")
    return n * n + n + m


def per_mode(dimension: int, table, axis: int = -1) -> np.ndarray:
    """A table over the orders (2D) or degrees (3D) n = 0..N (along axis)
    expanded to one entry per stored mode, in mode_degrees' layout.

    2D extends it to n = -N..N by C_-n = (-1)**n C_n, the reflection of J_n,
    Y_n, their Hankel combinations, their derivatives and the scaled H_n(i t)
    family: the negative orders cost a gather and a negation, not a second
    evaluation, and equal scipy's own values there.  3D repeats each degree
    over its 2n + 1 orders.
    """
    table = np.asarray(table)
    top = table.shape[axis] - 1
    out = np.take(table, np.abs(mode_degrees(dimension, top)), axis=axis)
    if dimension == 2:
        odd = [slice(None)] * out.ndim
        odd[axis] = slice((top + 1) % 2, top, 2)  # index i holds n = i - top
        np.negative(out[tuple(odd)], out=out[tuple(odd)])
    return out


# ---------------------------------------------------------------------------
# Regular radial waves over all orders
# ---------------------------------------------------------------------------
def _wave_arguments(dimension, truncation, x, family, name) -> np.ndarray:
    """x as a 1-D float array, after the checks that every wave table makes."""
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dimension!r}")
    _check_integer("truncation", truncation, 0)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    bad = ~(np.isfinite(x) & (x > 0.0))
    if bad.any():
        raise ValueError(f"{family} wave arguments must be finite and > 0, got {name} = {float(x[bad][0])!r}")
    return x


# The oscillating family's ratio in row 0 (stored negated, see below), the
# modified family's in row 1.
_RATIO_SIGNS = np.array([[-1.0], [1.0]])

# Added to every denominator of the ratio recurrence: a no-op on any nonzero
# one (a sum or difference of c_n >= 2 / x and a ratio, so at least an ulp
# of 2 / x), but an exact zero, which the double nearest the first zero of
# J_0 gives at n = 1, becomes a finite ratio, and the products of ratios
# pass through that zero as the rounding would.
_ZERO_GUARD = 1e-100


def regular_wave_tables(dimension: int, truncation: int, x) -> tuple[np.ndarray, np.ndarray]:
    """The regular radial waves of orders 0..truncation at arguments x > 0
    (a 1-D array, or one number): (J_n(x), I_n(x)) in 2D, (j_n(x), i_n(x))
    in 3D, each of shape (truncation + 1, len(x)).

    Both families are minimal solutions of their three-term recurrences
    (2D c_n = 2n / x, 3D c_n = (2n + 1) / x)

        z_(n-1) + z_(n+1) = c_n z_n  (J, j),   z_(n-1) - z_(n+1) = c_n z_n  (I, i),

    so their ratios r_n = z_n / z_(n-1) follow stably from a start order
    far above the orders and the argument (Miller's algorithm, Gautschi,
    SIAM Review 9 (1967) 24-82): r_n = 1 / (c_n - r_(n+1)) and
    1 / (c_n + r_(n+1)), both families in one pass, from r = 0 at the start
    order max(truncation, x + 10 x^(1/3)) + 16, x the largest argument.
    Past its turning point n = x, J_n decays as an Airy function, by more
    than 1e-13 over the 10 x^(1/3) orders, and the error of the start
    falls as the square of that decay.
    The products of the ratios are normalized:

    * the oscillating family by its Neumann sum, 1 = J_0 + 2 sum_k J_2k
      (2D) or sum_n (2n + 1) j_n**2 = 1 (3D), whose sign is that of the
      pair (j_0, j_1) against (sin x, sin x / x - cos x), never ambiguous;
    * the modified family on scipy's order-0 value, I_0 or i_0: one that
      overflows stays inf through every order.

    Against mpmath (40 digits) at the radial nodes of the 2D roots 1-14 and
    3D roots 1-12 (kappa R up to 43.2) through the verdict truncation, at
    x = 1e-3 and next to the zeros of J_0 and j_0: J_n and j_n within
    3.4e-16 absolute (scipy's jv and spherical_jn: 1.5e-15), I_n and i_n
    within 5.4e-15 relative (scipy's iv and spherical_in: 1.9e-13).  Both
    tables on 64 nodes (2-vCPU x86-64 VM, one BLAS thread, medians of 41):
    2D root 1 (truncation 30) 0.25-0.42 ms against 1.2-1.4 ms for scipy's
    order sweeps, root 9 (80) 0.70-0.81 against 7.1-8.5 ms, 3D root 12
    (100) 0.83-1.1 against 8.7-9.3 ms; on the bump's 320 nodes at 2D root 4
    (48) 1.0-1.1 against 18-20 ms.

    A non-positive or non-finite x is refused by its value.
    """
    x = _wave_arguments(dimension, truncation, x, "regular", "x")
    # x may be empty: a source whose support ends before the first radial node
    top = float(np.max(x, initial=0.0))
    start = int(np.ceil(max(truncation, top + 10.0 * np.cbrt(top)))) + 16
    n = np.arange(1, start + 1)[:, None]
    c = (2.0 * n + (dimension - 2)) / x  # row k: c_(k+1)
    # row n: -r_n of the oscillating family, so both rows take c_n + row
    # and differ only in the sign of the numerator; the rows past the
    # truncation serve the start and the Neumann sum
    ratios = np.zeros((start + 2, 2, x.size))
    den = np.empty((2, x.size))
    for k in range(start, 0, -1):
        np.add(c[k - 1], ratios[k + 1], out=den)
        den += _ZERO_GUARD
        np.divide(_RATIO_SIGNS, den, out=ratios[k])
    products = np.cumprod(ratios[1:start + 1, 0], axis=0)  # row n - 1: (-1)^n z_n / z_0
    osc = np.empty((truncation + 1, x.size))
    if dimension == 2:
        neumann = 1.0 + 2.0 * np.sum(products[1::2], axis=0)
        osc[0] = 1.0 / neumann
        np.divide(products[:truncation], neumann, out=osc[1:])
        anchor = _sp.iv(0, x)
    else:
        sin, cos = np.sin(x), np.cos(x)
        sign = np.sign(sin - ratios[1, 0] * (sin / x - cos))
        osc[0] = sign / np.sqrt(1.0 + np.sum((2.0 * n + 1.0) * products * products, axis=0))
        np.multiply(products[:truncation], osc[0], out=osc[1:])
        anchor = _sp.spherical_in(0, x)
    np.negative(osc[1::2], out=osc[1::2])
    mod = np.empty_like(osc)
    mod[0] = anchor
    mod[1:] = ratios[1:truncation + 1, 1]
    np.cumprod(mod, axis=0, out=mod)
    return osc, mod


# ---------------------------------------------------------------------------
# Exterior radial waves over all orders, and their derivatives
# ---------------------------------------------------------------------------
def exterior_wave_tables(dimension: int, truncation: int, t, derivative: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The exterior radial waves of orders 0..truncation at arguments t > 0
    (a 1-D array, or one number), each of shape (truncation + 1, len(t)),
    the layout of regular_wave_tables: the outgoing waves, H_n(t) in 2D and
    h_n(t) = j_n(t) + i y_n(t) in 3D, and the decaying waves, the outgoing
    family on the positive imaginary axis with the factor exp(-t) removed,
    exp(t) H_n(i t) and exp(t) h_n(i t), finite for every representable t.

    The outgoing waves are scipy's hankel1, spherical_jn and spherical_yn.
    The decaying ones come from the modified functions, never by complex
    continuation: H_n(i t) = (2 / pi) i**-(n+1) K_n(t) and h_n(i t) =
    -(2 / pi) i**-n sqrt(pi / (2 t)) K_(n+1/2)(t), with scipy's exp-scaled
    kve.

    With derivative, the t-derivatives instead (for the decaying family
    exp(t) times the derivative of H_n(i t) or h_n(i t)), from the tables one
    order higher by the recurrence z_n' = (n / t) z_n - z_(n+1) that every
    cylindrical and spherical Bessel family obeys (DLMF 10.6.2, 10.29.2,
    10.51.2): (n / t) T_n - T_(n+1) for the outgoing waves T and, as
    d/dt Z(i t) = i Z'(i t), (n / t) S_n - i S_(n+1) for the scaled decaying
    waves S.  Against mpmath (40 digits) at orders 0-40 and eight t from
    0.3 to 43, values and derivatives of both families stay within 1.8e-14
    (2D) and 2.0e-14 (3D) relative, as scipy's own h1vp and spherical
    derivatives do there (1.7e-14, 2.0e-14).

    At a high order and a small t an entry leaves the double range and is
    returned as it comes (inf or NaN).  A non-positive or non-finite t is
    refused by its value.
    """
    t = _wave_arguments(dimension, truncation, t, "exterior", "t")
    n = np.arange(truncation + 1 + derivative)[:, None]
    if dimension == 2:
        outgoing = _sp.hankel1(n, t)
        decaying = (2.0 / np.pi) * _ipow(-(n + 1)) * _sp.kve(n, t)
    else:
        outgoing = _sp.spherical_jn(n, t) + 1j * _sp.spherical_yn(n, t)
        decaying = -(2.0 / np.pi) * _ipow(-n) * (np.sqrt(np.pi / (2.0 * t)) * _sp.kve(n + 0.5, t))
    if not derivative:
        return outgoing, decaying
    ratio = n[:-1] / t
    return ratio * outgoing[:-1] - outgoing[1:], ratio * decaying[:-1] - 1j * decaying[1:]


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------
def sph_harmonic_block(truncation: int, theta, phi) -> np.ndarray:
    """All orthonormal harmonics through the truncation degree at scattered
    points: the dense block, for points that do not form a product rule.

    Returns shape (npoints, (truncation+1)**2); column n*n + n + m holds
    Y_n^m, the normalized Legendre value at theta (_legendre_table) times
    exp(i m phi), each gathered from its table.  It costs npoints * (truncation+1)**2 cells, so on the nodes of
    an AngularRule use rule_analysis and rule_synthesis instead.
    """
    theta = np.ravel(np.asarray(theta, dtype=float))
    phi = np.ravel(np.asarray(phi, dtype=float))
    n = mode_degrees(3, truncation)
    m = np.arange(n.size) - n * n - n
    polar = _legendre_table(truncation, theta)[n, m]
    azimuthal = np.exp(1j * np.outer(phi, np.arange(-truncation, truncation + 1)))
    # row-major, as a sum against the block rounds by its layout
    out = np.empty((max(theta.size, phi.size), n.size), dtype=complex)
    return np.multiply(polar.T, azimuthal[:, m + truncation], out=out)


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

    A real data set takes rfft: column j holds the azimuthal frequencies
    j = 0..azimuth/2, and a frequency above that is the conjugate of column
    azimuth - j.  A complex data set takes one complex FFT, whose columns
    hold every frequency.
    """
    values = np.asarray(values)
    azimuth = values.shape[2]
    real = not np.iscomplexobj(values)
    # the FFT's exp(-2 pi i m j / azimuth) is conj(exp(i m phi_j)); order m
    # and m mod azimuth coincide on the lattice.  Each column is a real
    # block of (polar, data sets) real and imaginary parts, interleaved, so
    # the Legendre sums are real products.
    spectrum = np.fft.rfft(values, axis=2) if real else np.fft.fft(values, axis=2)
    columns = np.ascontiguousarray(spectrum.transpose(2, 1, 0)).view(float)
    table = _legendre_table(truncation, theta) * np.asarray(weights, dtype=float)
    degrees = np.arange(truncation + 1)
    sums = np.empty(((truncation + 1) ** 2, len(values)), dtype=complex)
    for m in range(-truncation, truncation + 1):
        n = degrees[abs(m):]
        j = m % azimuth
        mirrored = real and 2 * j > azimuth
        part = (table[abs(m):, m] @ columns[azimuth - j if mirrored else j]).view(complex)
        sums[n * n + n + m] = part.conj() if mirrored else part
    return sums


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


# ---------------------------------------------------------------------------
# Transforms on the nodes of an angular rule, and the dense basis elsewhere
# ---------------------------------------------------------------------------
def rule_analysis(truncation: int, values, angular) -> np.ndarray:
    """Mode coefficients through the truncation of k data sets sampled at
    the nodes of an AngularRule: values of shape (k, angular.count), result
    of shape (modes, k) in mode_degrees' layout, the coefficients whose
    rule_synthesis gives the data back when the rule resolves them.

    2D: one FFT over the M equispaced angles divided by M (the trapezoid
    rule for 1 / (2 pi) times the integral against exp(-i n theta)), order n
    read from column n mod M.  3D: sph_analysis on the rule's polar rings
    (the quadrature of the data against conj(Y_n^m)).
    """
    values = np.asarray(values)
    if angular.dimension == 3:
        rings = values.reshape(len(values), angular.polar_count, angular.azimuth_count)
        return sph_analysis(truncation, rings, *angular.rings)
    spectrum = np.fft.fft(values, axis=1) / angular.count
    return spectrum[:, mode_degrees(2, truncation) % angular.count].T.copy()


def rule_synthesis(columns, angular) -> np.ndarray:
    """Mode sums of k coefficient sets at the nodes of an AngularRule:
    columns of shape (modes, k) in mode_degrees' layout, result of shape
    (k, angular.count), each row the sum over modes of a column against
    angular_basis at the nodes.

    2D adds the modes of equal order mod M into one of M columns and sums
    the M equispaced angles by one inverse FFT: exp(i n theta_j) takes the
    same values for every n of a column, so no phase n theta_j is rounded.
    3D is sph_synthesis on the rule's polar rings.
    """
    columns = np.asarray(columns)
    if angular.dimension == 3:
        return sph_synthesis(columns, angular.rings[0], angular.azimuth_count).reshape(columns.shape[1], -1)
    folded = np.zeros((angular.count, columns.shape[1]), dtype=complex)
    np.add.at(folded, mode_degrees(2, len(columns) // 2) % angular.count, columns)
    # norm="forward" leaves the inverse unscaled: a plain sum of exp(+i n theta_j)
    return np.fft.ifft(folded, axis=0, norm="forward").T


def angular_basis(dimension: int, truncation: int, theta, phi=None) -> np.ndarray:
    """Angular factor of every stored mode at the given angles, shape (M, modes):
    the dense basis, for angles that are not the nodes of an AngularRule
    (on a rule, rule_analysis and rule_synthesis).

    2D: exp(i n theta) for n = -N..N; 3D: sph_harmonic_block at polar angle
    theta and azimuth phi.  Columns follow mode_degrees' layout.
    """
    if dimension == 2:
        return np.exp(1j * np.outer(theta, np.arange(-truncation, truncation + 1)))
    return sph_harmonic_block(truncation, theta, phi)
