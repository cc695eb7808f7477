"""The radial-wave layer, the angular-mode layer, and every special function
they rest on, in numpy alone: cos and sin of a phase, the Bessel functions
J_0, Y_0, J_1, Y_1, K_0 and K_1 at real arguments, the zeros of J_0, and
orthonormal spherical harmonics.  No module of the package imports scipy.

cos_sin, j0_y0 and k0 work in vectorised numpy passes over whole arrays,
where numpy's cos and sin (and scipy's Bessel routines) are scalar loops
per value: the direct-quadrature kernel tables (kernels.kernel_tables) and
the phase sums of the far field and the volume transforms call them.  Each
order-zero and order-one function is a short Chebyshev series on each side
of its threshold (t = 5 for J and Y, t = 2 for K; Cephes's rational
amplitudes for J_0 and Y_0 above 5), fitted in mpmath and committed as
literals, and every series is summed by one Clenshaw helper (_clenshaw).
One split helper (_two_sided) serves j0_y0, j1_y1, k0 and k0_k1_scaled:
each gives it only its two branches.

The angular modes are the 2D Fourier orders n = -N..N and the 3D
spherical-harmonic pairs (n, m), stored degree by degree.  Their layout
(mode_degrees, mode_index) is spelled out here only.  A per-order table
(2D, orders 0..N) or per-degree table (3D) becomes a per-mode one through
per_mode: in 2D by the reflection C_-n = (-1)**n C_n, in 3D by repeating
each degree over its orders.  On the nodes of an AngularRule the modes are
analysed and synthesized by rule_analysis and rule_synthesis: one FFT over
the equispaced angles in 2D, and in 3D an FFT over the azimuths with one
Legendre sum per order (the separated transforms of Driscoll & Healy,
Adv. Appl. Math. 15 (1994) 202-250), whose Legendre table depends on the
rule alone and is kept, one per (truncation, polar angles) within a byte
budget (_kept_legendre_table).  At any other points the modes are summed
by mode_sums against each point's row of angular factors, times a radial
factor of the point's own when given:
exp(i n theta) in 2D, and in 3D sph_harmonic_block, whose Legendre table is
built at the points' distinct polar angles only; every phase is reduced mod
2 pi exactly first (_mode_phases).

Every per-order radial table of the modal route comes from this module,
orders 0..N on axis 0 and the arguments on axis 1.  The regular families,
J_n and I_n in 2D and the spherical j_n and i_n in 3D, come from one
backward ratio recurrence (regular_wave_tables): the modal coefficients'
tables, the Bessel sources' norms and profiles, and the null-space probes'.
The arguments of the first two repeat (a radial rule's nodes times kappa,
read by every source on that rule), so regular_wave_tables keeps its two
tables read-only, one pair per (dimension, truncation, arguments), within
the keeper's byte budget; a profile at caller-given points, the null-space
probes at caller-given radii and the near branch of the exterior tables
build theirs unkept (_regular_waves).  The exterior families
(exterior_wave_tables) are the outgoing Hankel functions
and the decaying family of the modified Helmholtz equation, the outgoing
Hankel function on the positive imaginary axis, evaluated through the
modified functions K_n (never by complex continuation) and returned with
the factor exp(t) removed, so that it stays finite for every representable
t: the regular table plus the second solutions and the decaying family by
their forward recurrences from orders 0 and 1.  One call returns both
families and their t-derivatives, four tables from one table that reaches
one order above the truncation: the derivatives come from one recurrence
in both dimensions, z_n' = (n / t) z_n - z_(n+1).

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

from .context import _check_array, _check_dimension, _check_integer, _kept_arrays

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

# Above this argument j0_y0 sums the amplitudes, and j1_y1 those of _P1_ABOVE
# and _Q1_ABOVE; at or below it both sum the series of the _BELOW tables.
J0_THRESHOLD = 5.0

# Chebyshev coefficients a_k of a function g(u) on u in [-1, 1], fitted in
# mpmath at 40 digits on its N Chebyshev nodes u_j = cos(pi (j + 1/2) / N),
# a_k = (1 / N) sum_j g(u_j) T_k(u_j), so that g = a_0 + 2 sum_(k >= 1) a_k T_k
# (_clenshaw sums it).  Each g is smooth in u, and the coefficients past
# its N are below 2e-17 of its peak.
#
# At t <= 5, the entire parts of the order-zero and order-one waves:
# J_0 and Y_0 - (2 / pi) ln(t / 2) J_0 in u = t**2 / 12.5 - 1, and J_1 / t
# and (Y_1 - (2 / pi) (ln(t / 2) J_1 - 1 / t)) / t in u = t**2 / 25 - 1,
# fitted up to t = 5 sqrt(2): the threshold sits at u = 0, away from u = 1,
# where Clenshaw's rounding grows (fitted up to t = 5, J_1 and Y_1 read
# 9.8e-16 of |H_1| at t = 4.96; J_0 and Y_0, the kernel's, keep the
# shorter series).
_J0_BELOW = (
    0.0023409898253245504, -0.24710254670476217, 0.19896868361603787, -0.04691572939829689, 0.005443765824340506,
    -0.0003803133828866877, 1.7847418231784695e-05, -6.030348530684158e-07, 1.539519286017196e-08,
    -3.0772027706034145e-10, 4.949416531179915e-12, -6.546931438613157e-14, 7.249627253750782e-16,
    -6.8197774576930175e-18)
_Y0_BELOW = (
    0.20708558773104574, -0.1741268492883862, -0.05814821059024335, 0.0306388796055829, -0.004737402871403271,
    0.00039041015024969533, -2.0512073901411496e-05, 7.542332694419261e-07, -2.058869991643795e-08,
    4.3482223002848863e-10, -7.326809771482282e-12, 1.0088512997316788e-13, -1.1571302101855212e-15,
    1.1230553529553367e-17)
_J1_BELOW = (
    0.0815141039955814, -0.09484198709035689, 0.07911412477012336, -0.0288772419184951, 0.005656867673471355,
    -0.0006911446241328622, 5.787349810363227e-05, -3.5371463584264042e-06, 1.6501896610436143e-07,
    -6.07639618998263e-09, 1.812404124869123e-10, -4.470536688797341e-12, 9.275106254965843e-14,
    -1.6415958473683415e-15, 2.5079978028532422e-17)
_Y1_BELOW = (
    0.05482838116421538, -0.03384010824704493, -0.02413364292331622, 0.019052079343716236, -0.004987698195719059,
    0.0007194773208777027, -6.743202657622336e-05, 4.481912706837833e-06, -2.2339059505361303e-07,
    8.684183036119095e-09, -2.7114667798523524e-10, 6.95707166137387e-12, -1.4941046127011022e-13,
    2.726714598381361e-15, -4.281958793910132e-17)
# At t > 5 in u = 50 / t**2 - 1, the amplitudes P_1 and (t / 5) Q_1 of
# H_1(t) = sqrt(2 / (pi t)) (P_1 + i Q_1) exp(i (t - 3 pi / 4)); Q_1 itself
# grows as sqrt(u + 1) and would not be smooth.
_P1_ABOVE = (
    1.00226762068534, 0.0011218676479039992, -1.1535509431274143e-05, 3.8195908662669525e-07,
    -2.2948426161717004e-08, 2.0102577392094998e-09, -2.2933869885854675e-10, 3.186579481429202e-11,
    -5.163672283810656e-12, 9.471637497336082e-13, -1.9248516934005686e-13, 4.2649572507864594e-14,
    -1.0177234602314934e-14, 2.590210158095428e-15, -6.976733371736581e-16, 1.9761351947738318e-16,
    -5.854423989746747e-17, 1.8039696033561964e-17, -5.703169286800072e-18, 1.6861985852186943e-18)
_Q1_ABOVE = (
    0.07461746924293727, -0.00018705189681051477, 4.00569945204603e-06, -1.914402839085632e-07,
    1.4588165107421988e-08, -1.5183398644673144e-09, 1.97992226058947e-10, -3.065981449436666e-11,
    5.440233592036784e-12, -1.078665219201977e-12, 2.346352830571387e-13, -5.5220468289611356e-14,
    1.3909727831030179e-14, -3.718150116902326e-15, 1.0474025142471295e-15, -3.0916899842051187e-16,
    9.515669255278604e-17, -3.03749657255637e-17, 9.913343139939646e-18, -3.004991771738334e-18)
# At t <= 2 in u = t**2 / 4 - 1, the entire parts K_0 + ln(t / 2) I_0 and
# (K_1 - 1 / t - ln(t / 2) I_1) / t, fitted up to t = 2 sqrt(2): the
# threshold sits at u = 0, away from u = 1, where Clenshaw's rounding
# grows (fitted up to t = 2, K_0 read 6.1e-16 at t = 1.9, scipy 4.0e-16).
_K0_BELOW = (
    0.29127027114446463, 0.5174869590085082, 0.08889254360804551, 0.005848588590508835, 0.0002044101764085407,
    4.43927824486367e-06, 6.577160748849326e-08, 7.075405675859115e-10, 5.7790386325441126e-12,
    3.706495562634943e-14, 1.916394111866089e-16, 8.157854095981919e-19)
_K1_BELOW = (
    -0.2109732910961774, -0.13953082190724492, -0.015474066191164376, -0.0007543881181034722,
    -2.0954970216883474e-05, -3.7764651738183627e-07, -4.781597287762637e-09, -4.490831262034041e-11,
    -3.254801062613584e-13, -1.876158020284375e-15, -8.808363812434176e-18)
# At t > 2 in u = 4 / t - 1, exp(t) sqrt(t) K_0(t) and exp(t) sqrt(t) K_1(t).
_K0_CHEBYSHEV = (1.2201515410329777, -0.01572405065598225, 0.0007849419428650267, -6.424774790813901e-05,
                 6.97490685943825e-06, -9.158777613595598e-07, 1.3834068197225074e-07, -2.330244948843974e-08,
                 4.287017008707113e-09, -8.487672546945302e-10, 1.7886986407001507e-10, -3.978744622238342e-11,
                 9.2797455747652e-12, -2.257298941662042e-12, 5.701702940355905e-13, -1.4900484597173583e-13,
                 4.016445336360864e-14, -1.1137565207764424e-14, 3.1700342187721526e-15, -9.242852228618684e-16,
                 2.75569676917544e-16, -8.381460150747912e-17, 2.5764203428073633e-17, -7.371317369630266e-18)
_K1_CHEBYSHEV = (
    1.3603130952422213, 0.05196186828840862, -0.0014289084298113896, 9.760775923567581e-05, -9.680989870830415e-06,
    1.2032424739186085e-06, -1.7509803015439063e-07, 2.8705420627250247e-08, -5.172881232839048e-09,
    1.0075248775985167e-09, -2.0951773796709485e-10, 4.6091575938022786e-11, -1.0649839192128922e-11,
    2.569819836714314e-12, -6.445869804023069e-13, 1.674209831043299e-13, -4.488352536276787e-14,
    1.2385770593719026e-14, -3.5099142323663527e-15, 1.0193392602442217e-15, -3.028166999676092e-16,
    9.180008313580311e-17, -2.813623198160061e-17, 8.031322644350624e-18)

# The power series of I_0(t) and I_1(t) / t in t**2, highest power first,
# 1 / (4**k k!**2) and 1 / (2 4**k k! (k + 1)!) for k = 12..0, each rounded
# once: every term is positive, so Horner's rule keeps its relative precision.
_I0_SERIES = (
    2.5978027721077174e-25, 1.4963343967340453e-22, 7.242258480192779e-20, 2.896903392077112e-17,
    9.385966990329842e-15, 2.4028075495244395e-12, 4.709502797067901e-10, 6.781684027777778e-08,
    6.781684027777777e-06, 0.00043402777777777775, 0.015625, 0.25, 1.0)
_I1_SERIES = (
    9.991549123491221e-27, 6.234726653058522e-24, 3.2919356728148996e-21, 1.4484516960385557e-18,
    5.214426105738801e-16, 1.5017547184527747e-13, 3.363930569334215e-11, 5.651403356481481e-09,
    6.781684027777778e-07, 5.425347222222222e-05, 0.0026041666666666665, 0.0625, 0.5)

# Above this argument k0 and k0_k1_scaled sum the _CHEBYSHEV series; at or
# below it, the _BELOW series and the I series.
K0_THRESHOLD = 2.0


def _polynomial(coeffs, x, out):
    """sum_k coeffs[k] x**(n - k), highest power first, by Horner's rule into out."""
    np.multiply(x, coeffs[0], out=out)
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def _clenshaw(a, x):
    """a_0 + 2 sum_(k >= 1) a_k T_k(x / 2) at every entry of x (x = 2u), as a
    fresh array, by Clenshaw's recurrence b_k = a_k + x b_(k+1) - b_(k+2)
    from b_n = b_(n+1) = 0: the sum is b_0 - b_2.  Each b_k is written into
    the row of b_(k+3)."""
    cur, prev, free = (np.empty(x.shape) for _ in range(3))  # 0-d arrays for a 0-d x
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
    return np.subtract(cur, free, out=cur)


def _two_sided(t, threshold, above, below):
    """above(t) at the entries of t above the threshold and below(t) at the
    others, as fresh arrays of t's shape (0-d arrays for a 0-d t); each of
    the two takes an array and returns a tuple of arrays of its shape.

    below alone runs when no entry lies above the threshold.  Otherwise
    above runs on every entry, with floating-point warnings off: the
    entries at or below the threshold (t = 0 among them) are overwritten by
    below on the gathered entries.
    """
    t = np.asarray(t, dtype=float)
    low = t <= threshold
    if low.all():
        values = below(t)
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            values = above(t)
        if low.any():
            for v, w in zip(values, below(t[low])):
                v[low] = w
    return tuple(map(np.asarray, values))  # numpy's arithmetic gives scalars for a 0-d t


def _jy_below(t, order):
    """J and Y of order 0 or 1 at 0 <= t <= J0_THRESHOLD (an array of any
    shape), from the series A and B of their entire parts (the _BELOW
    tables) at x = 2u = t**2 / 6.25 - 2 (order 0) or t**2 / 12.5 - 2
    (order 1) and one logarithm:

        J_0 = A_0,    Y_0 = B_0 + (2 / pi) ln(t / 2) J_0,
        J_1 = t A_1,  Y_1 = t B_1 + (2 / pi) (ln(t / 2) J_1 - 1 / t),

    with Y_0(0) = Y_1(0) = -inf.
    """
    x = np.multiply(t, t)
    x *= 0.08 if order else 0.16
    x -= 2.0
    j = _clenshaw(_J1_BELOW if order else _J0_BELOW, x)
    y = _clenshaw(_Y1_BELOW if order else _Y0_BELOW, x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log = np.log(0.5 * t)
        log *= 2.0 / np.pi
        if order:
            j *= t
            y *= t
            y -= (2.0 / np.pi) / t
        log *= j
        y += log
    y[t == 0.0] = -np.inf  # ln(0) J_1(0) is -inf * 0
    return j, y


def j0_y0(t):
    """J_0(t) and Y_0(t) at real t >= 0, in vectorised passes.

    For t > J0_THRESHOLD (5) from Cephes's rational amplitudes P and Q
    (the _J0_ constants) and cos t and sin t from one half-angle tangent
    (cos_sin):

        J_0 = (P (c + s) - Q (s - c)) / sqrt(pi t),
        Y_0 = (P (s - c) + Q (c + s)) / sqrt(pi t),

    since cos(t - pi/4) = (c + s) / sqrt(2): t - pi/4 is never rounded.  At
    or below the threshold, the Chebyshev series of _J0_BELOW and _Y0_BELOW
    on the gathered entries (_jy_below).  Against mpmath, relative to the
    modulus |H_0| = sqrt(J_0**2 + Y_0**2): within 4.4e-16 on (5, 2000]
    (scipy's j0 and y0, which round t - pi/4: 8e-14 at t = 2000) and
    within 7.2e-16 on (0, 5] (scipy's: 2.6e-15).  Per 16,384 values at t
    in (5, 40] (one BLAS thread, medians of six runs on a shared 2-vCPU
    x86-64 VM): 0.47-0.65 ms against 1.24-1.78 ms for scipy's j0 and y0.
    """

    def above(t):
        b, a, p, q, w = (np.empty(t.shape) for _ in range(5))  # 0-d arrays for a 0-d t
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
        return j, y

    return _two_sided(t, J0_THRESHOLD, above, lambda t: _jy_below(t, 0))


def j1_y1(t):
    """J_1(t) and Y_1(t) at real t >= 0 (J_1(0) = 0, Y_1(0) = -inf).

    For t > J0_THRESHOLD (5) from the Chebyshev amplitudes P_1 and Q_1
    (_P1_ABOVE and _Q1_ABOVE at 2u = 100 / t**2 - 2) and cos_sin:

        J_1 = (P_1 (s - c) + Q_1 (s + c)) / sqrt(pi t),
        Y_1 = (Q_1 (s - c) - P_1 (s + c)) / sqrt(pi t),

    since cos(t - 3 pi / 4) = (s - c) / sqrt(2); at or below it, the series
    of _J1_BELOW and _Y1_BELOW (_jy_below).  Against mpmath, relative to
    |H_1|: within 4.9e-16 on (5, 2000] and 7.0e-16 on (0, 5] (scipy's j1
    and y1: 2.0e-14 and 2.1e-15).
    """

    def above(t):
        a = np.divide(5.0, t)
        x = a * a
        x *= 4.0
        x -= 2.0
        p = _clenshaw(_P1_ABOVE, x)
        q = _clenshaw(_Q1_ABOVE, x)
        q *= a
        c, s = cos_sin(t)
        minus, plus = s - c, s + c
        root = np.sqrt(np.pi * t)
        return (p * minus + q * plus) / root, (q * minus - p * plus) / root

    return _two_sided(t, J0_THRESHOLD, above, lambda t: _jy_below(t, 1))


def _k_below(t, order):
    """K_0 or K_1 at 0 <= t <= K0_THRESHOLD (an array of any shape), from
    the series of their entire parts (_K0_BELOW, _K1_BELOW at
    2u = t**2 / 2 - 2) and the power series of I_0 or I_1:

        K_0 = F - ln(t / 2) I_0,  K_1 = 1 / t + t (G + ln(t / 2) I_1 / t),

    with K_0(0) = K_1(0) = inf.
    """
    s = np.multiply(t, t)
    x = s * 0.5
    x -= 2.0
    k = _clenshaw(_K1_BELOW if order else _K0_BELOW, x)
    i = _polynomial(_I1_SERIES if order else _I0_SERIES, s, np.empty(t.shape))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        i *= np.log(0.5 * t)
        if not order:
            k -= i
            return k
        k += i
        k *= t
        k += 1.0 / t
    k[t == 0.0] = np.inf  # ln(0) 0 is NaN
    return k


def k0(t):
    """K_0(t) at real t >= 0, in vectorised passes.

    For t > K0_THRESHOLD (2), exp(-t) / sqrt(t) times the 24-term Chebyshev
    series of _K0_CHEBYSHEV in u = 4 / t - 1; at or below the threshold,
    the series of _K0_BELOW and I_0 on the gathered entries (_k_below).
    scipy's k0 (40-55 ns per value) runs a 25-term Chebyshev loop per
    value.  Against mpmath within 4.5e-16 relative on (2, 700] and 8.5e-16
    on (0, 2] (scipy's k0: 1.3e-15 there); beyond t = 700 exp(-t) leaves the
    normal range and K_0 underflows to 0 near t = 745.  Per 16,384 values
    at t in (5, 40], as for j0_y0: 0.51-0.63 ms against 0.67-1.59 ms for
    scipy's k0.
    """

    def above(t):
        x, f = (np.empty(t.shape) for _ in range(2))  # 0-d arrays for a 0-d t
        np.divide(8.0, t, out=x)
        x -= 2.0  # 2 u
        np.negative(t, out=f)
        np.exp(f, out=f)
        f /= np.sqrt(t)
        k = _clenshaw(_K0_CHEBYSHEV, x)
        k *= f
        return (k,)

    return _two_sided(t, K0_THRESHOLD, above, lambda t: (_k_below(t, 0),))[0]


def k0_k1_scaled(t):
    """exp(t) K_0(t) and exp(t) K_1(t) at real t >= 0, finite for every t > 0.

    For t > K0_THRESHOLD (2), the series of _K0_CHEBYSHEV and _K1_CHEBYSHEV
    over sqrt(t); at or below it, exp(t) times _k_below.  Against mpmath
    within 2.8e-16 relative on (2, 700] and 8.4e-16 on (0, 2] (scipy's kve:
    4.2e-16 and 2.7e-15 there).
    """

    def above(t):
        x = np.divide(8.0, t)
        x -= 2.0
        root = np.sqrt(t)
        return _clenshaw(_K0_CHEBYSHEV, x) / root, _clenshaw(_K1_CHEBYSHEV, x) / root

    def below(t):
        e = np.exp(t)
        return _k_below(t, 0) * e, _k_below(t, 1) * e

    return _two_sided(t, K0_THRESHOLD, above, below)


def j0_zero(k: int) -> float:
    """The k-th positive zero of J_0 (k >= 1): McMahon's expansion in
    b = (k - 1/4) pi, b + 1 / (8 b) - 31 / (384 b**3) + 3779 / (15360 b**5),
    then Newton's steps x <- x + J_0(x) / J_1(x) until a step leaves x as
    it is (at most eight).  Against mpmath.besseljzero for k = 1..100 every
    zero is within an ulp, and all but the 20th, which lies 0.0009 ulp from
    the midpoint of two doubles, are the double nearest it (scipy's
    jn_zeros: 6 of the 100 an ulp off).
    """
    b = (k - 0.25) * np.pi
    x = b + 1.0 / (8.0 * b) - 31.0 / (384.0 * b**3) + 3779.0 / (15360.0 * b**5)
    for _ in range(8):
        step = float(j0_y0(x)[0] / j1_y1(x)[0])
        if x + step == x:
            break
        x += step
    return x


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
    n = -N..N), or 3D degree/order (n, m) (rows packed degree by degree).
    A mode out of range is refused by its range first, then a bool or a
    fraction in range by name."""
    if dimension == 2:
        if abs(n) > truncation:
            raise ValueError(f"|n| must be <= {truncation}, got {n}")
        _check_integer("n", n, -truncation)  # in range: only a bool or a fraction fails here
        return n + truncation
    if m is None:
        raise ValueError("3D modes need both degree n and order m")
    if n > truncation or abs(m) > n:
        raise ValueError(f"(n, m) must satisfy |m| <= n <= {truncation}, got ({n}, {m})")
    _check_integer("n", n, 0)  # in range: only a bool or a fraction fails here
    _check_integer("m", m, -n)
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
    """x as a 1-D float array (context._check_array), after the checks that
    every wave table makes; its first entry <= 0 is refused by its value."""
    _check_dimension("dimension", dimension)
    _check_integer("truncation", truncation, 0)
    x = _check_array(f"{family} wave arguments", x, (None,))
    if np.any(x <= 0.0):
        raise ValueError(f"{family} wave arguments must be > 0, got {name} = {float(x[x <= 0.0][0])!r}")
    return x


# The oscillating family's ratio in row 0 (stored negated, see below), the
# modified family's in row 1.
_RATIO_SIGNS = np.array([[-1.0], [1.0]])

# The signs of the previous order in the forward recurrences of
# exterior_wave_tables: J_n and Y_n subtract it, the scaled K_n add it.
_FORWARD_SIGNS = np.array([[-1.0], [-1.0], [1.0]])

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
    1 / (c_n + r_(n+1)), both families in one pass, from r = 0 at each
    argument's own start order max(truncation, x + 10 x^(1/3)) + 16, so
    that every column is the table at its argument alone, bit for bit.
    Past its turning point n = x, J_n decays as an Airy function, by more
    than 1e-13 over the 10 x^(1/3) orders, and the error of the start
    falls as the square of that decay.
    The products of the ratios are normalized:

    * the oscillating family by its Neumann sum, 1 = J_0 + 2 sum_k J_2k
      (2D) or sum_n (2n + 1) j_n**2 = 1 (3D), whose sign is that of the
      pair (j_0, j_1) against (sin x, sin x / x - cos x), never ambiguous;
    * the modified family on its order-0 value: in 2D I_0 = e^x / (1 +
      2 sum_k I_k / I_0) from the same ratios (e^x = I_0 + 2 sum_k I_k), in
      3D i_0 = sinh(x) / x, each with e^x taken as two halves, so that I_0
      stays finite up to x = 713.9 and i_0 up to 717, as scipy's do; one
      that overflows stays inf through every order.

    Against mpmath (40 digits) at the radial nodes of the 2D roots 1-14 and
    3D roots 1-12 (kappa R up to 43.2) through the verdict truncation, at
    x = 1e-3 and next to the zeros of J_0 and j_0: J_n and j_n within
    3.4e-16 absolute (scipy's jv and spherical_jn: 1.5e-15), I_n and i_n
    within 5.4e-15 relative (scipy's iv and spherical_in: 1.9e-13); on
    every 4th node and 3rd order of that set, 2.2e-16 and 4.4e-15 with the
    anchors above.  The anchors alone, on 363 arguments in [1e-3, 713]: I_0
    within 2.1e-15 relative and i_0 within 3.2e-16 (scipy's iv and
    spherical_in: 1.2e-13 and 1.0e-13).  Both
    tables on 64 nodes (2-vCPU x86-64 VM, one BLAS thread, medians of 41):
    2D root 1 (truncation 30) 0.25-0.42 ms against 1.2-1.4 ms for scipy's
    order sweeps, root 9 (80) 0.70-0.81 against 7.1-8.5 ms, 3D root 12
    (100) 0.83-1.1 against 8.7-9.3 ms; on the bump's 320 nodes at 2D root 4
    (48) 1.0-1.1 against 18-20 ms.

    x is one number or a 1-D list, read through context._check_array (a
    non-finite entry is refused there); a non-positive x by its value.  The
    two tables depend on (dimension, truncation, x) alone and are kept
    read-only, one pair per key, within context._kept_arrays' byte budget:
    a radial rule's nodes times kappa recur in every source's projection and
    a Bessel leaf's norm, and a second call returns the kept pair, bit for
    bit the first.  Arguments that do not repeat (a Bessel profile at the
    points it is read at, the null-space probes at the radii they are given,
    the near branch of _exterior_waves at scattered radii) go to
    _regular_waves, which keeps nothing.
    """
    x = _wave_arguments(dimension, truncation, x, "regular", "x")
    return _kept_arrays(("regular waves", dimension, truncation, x.tobytes()),
                        lambda: _regular_waves(dimension, truncation, x))


def _regular_waves(dimension, truncation, x):
    """The two tables of regular_wave_tables at checked arguments x (a
    float64 1-D array, every entry finite and positive), by its backward
    ratio recurrence, built afresh on every call and not kept."""
    # each column starts at its own order: an infinite c_n above it makes
    # the ratio there an exact zero, so a column is the table at its
    # argument alone, bit for bit (the sums below run sequentially down the
    # rows)
    own = np.ceil(np.maximum(truncation, x + 10.0 * np.cbrt(x))).astype(int) + 16
    start = int(np.max(own, initial=truncation + 16))
    n = np.arange(1, start + 1)[:, None]
    c = np.where(n > own, np.inf, (2.0 * n + (dimension - 2)) / x)  # row k: c_(k+1)
    # row n: -r_n of the oscillating family, so both rows take c_n + row
    # and differ only in the sign of the numerator; the rows past the
    # truncation serve the start and the two sums
    ratios = np.zeros((start + 2, 2, x.size))
    den = np.empty((2, x.size))
    for k in range(start, 0, -1):
        np.add(c[k - 1], ratios[k + 1], out=den)
        den += _ZERO_GUARD
        np.divide(_RATIO_SIGNS, den, out=ratios[k])
    # row n - 1: (-1)^n z_n / z_0 and the modified family's z_n / z_0
    products = np.cumprod(ratios[1:start + 1], axis=0)
    osc = np.empty((truncation + 1, x.size))
    with np.errstate(over="ignore"):  # the modified family's order 0 may overflow
        if dimension == 2:
            neumann = 1.0 + 2.0 * np.cumsum(products[1::2, 0], axis=0)[-1]
            osc[0] = 1.0 / neumann
            np.divide(products[:truncation, 0], neumann, out=osc[1:])
            # e^x = I_0 + 2 sum_k I_k, with e^x as two halves
            half = np.exp(0.5 * x)
            anchor = half * (half / (1.0 + 2.0 * np.cumsum(products[:, 1], axis=0)[-1]))
        else:
            sin, cos = np.sin(x), np.cos(x)
            sign = np.sign(sin - ratios[1, 0] * (sin / x - cos))
            norm = np.cumsum((2.0 * n + 1.0) * products[:, 0] ** 2, axis=0)[-1]
            osc[0] = sign / np.sqrt(1.0 + norm)
            np.multiply(products[:truncation, 0], osc[0], out=osc[1:])
            # i_0 = sinh(x) / x = sinh(x / 2) cosh(x / 2) (2 / x)
            anchor = np.sinh(0.5 * x) * (np.cosh(0.5 * x) * (2.0 / x))
        np.negative(osc[1::2], out=osc[1::2])
        mod = np.empty_like(osc)
        mod[0] = anchor
        mod[1:] = ratios[1:truncation + 1, 1]
        np.cumprod(mod, axis=0, out=mod)
    return osc, mod


# ---------------------------------------------------------------------------
# Exterior radial waves over all orders, and their derivatives
# ---------------------------------------------------------------------------
def exterior_wave_tables(dimension: int, truncation: int, t) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The exterior radial waves of orders 0..truncation at arguments t > 0
    (a 1-D array, or one number) and their t-derivatives: four tables, each
    of shape (truncation + 1, len(t)), the layout of regular_wave_tables.
    They are the outgoing waves, H_n(t) in 2D and h_n(t) = j_n(t) + i y_n(t)
    in 3D, the decaying waves, the outgoing family on the positive
    imaginary axis with the factor exp(-t) removed, exp(t) H_n(i t) and
    exp(t) h_n(i t), finite for every representable t, then the
    t-derivatives of the two (for the decaying family exp(t) times the
    derivative of H_n(i t) or h_n(i t)).  All four come from one table of
    orders 0..truncation + 1.

    The outgoing waves are J_n + i Y_n and j_n + i y_n: Y_n and y_n by their
    forward recurrence from orders 0 and 1 (j0_y0 and j1_y1; -cos t / t and
    -(cos t / t + sin t) / t), and so J_n and j_n (from sin t / t and
    (sin t / t - cos t) / t) where t exceeds every
    order, below all their turning points; at a smaller t they come from
    regular_wave_tables, whose ratio table would otherwise grow with t (100
    arguments in [1e4, 2e4] would take 98 MB and 0.56 s).
    The decaying ones come from the modified functions, never by complex
    continuation: H_n(i t) = (2 / pi) i**-(n+1) K_n(t) and h_n(i t) =
    -(2 / pi) i**-n sqrt(pi / (2 t)) K_(n+1/2)(t), each K by its forward
    recurrence, exp-scaled, from orders 0 and 1 (k0_k1_scaled; (pi / (2 t))
    and (pi / (2 t)) (1 + 1 / t) for the half-integer orders).

    The derivatives come from that table by the recurrence
    z_n' = (n / t) z_n - z_(n+1) that every cylindrical and spherical Bessel
    family obeys (DLMF 10.6.2, 10.29.2, 10.51.2): (n / t) T_n - T_(n+1) for
    the outgoing waves T and, as d/dt Z(i t) = i Z'(i t),
    (n / t) S_n - i S_(n+1) for the scaled decaying waves S.  Against
    mpmath (40 digits) at orders 0-40 and eight t from 0.3 to 43, values
    and derivatives of both families stay within 1.3e-15 (2D) and 1.4e-15
    (3D) relative, where scipy's h1vp and spherical derivatives read
    1.7e-14 and 2.0e-14; at six t from 41.5 to 2000, within 1.0e-15.

    At a high order and a small t an entry leaves the double range and is
    returned as it comes (inf or NaN).  t is read as x is in
    regular_wave_tables: a non-finite t is refused by context._check_array,
    a non-positive one by its value.
    """
    t, outgoing, decaying = _exterior_waves(dimension, truncation, t)
    ratio = np.arange(truncation + 1)[:, None] / t
    return (outgoing[:-1], decaying[:-1],
            ratio * outgoing[:-1] - outgoing[1:], ratio * decaying[:-1] - 1j * decaying[1:])


def _exterior_waves(dimension, truncation, t):
    """t as a 1-D array, and the outgoing and decaying waves of
    exterior_wave_tables at orders 0..truncation + 1: their rows through
    the truncation are its value tables bit for bit, for a caller that
    needs no derivatives."""
    t = _wave_arguments(dimension, truncation, t, "exterior", "t")
    top = truncation + 1
    # row n: J_n (j_n), the second solution Y_n (y_n) and the decaying
    # family, scaled so that the phases below complete it, by their forward
    # recurrences from orders 0 and 1, signed as _FORWARD_SIGNS:
    # Z_(n+1) = c_n Z_n - Z_(n-1) and S_(n+1) = c_n S_n + S_(n-1).  The last
    # two are stable in that direction, J_n only below its turning point
    # n = t, so an argument t <= top takes J_n from regular_wave_tables.
    waves = np.empty((top + 1, 3, t.size))
    if dimension == 2:
        (waves[0, 0], waves[0, 1]), (waves[1, 0], waves[1, 1]) = j0_y0(t), j1_y1(t)
        waves[0, 2], waves[1, 2] = k0_k1_scaled(t)
    else:
        sin, cos = np.sin(t), np.cos(t)
        np.divide(sin, t, out=waves[0, 0])
        np.divide(waves[0, 0] - cos, t, out=waves[1, 0])
        np.divide(-cos, t, out=waves[0, 1])
        np.divide(waves[0, 1] - sin, t, out=waves[1, 1])
        np.divide(1.0, t, out=waves[0, 2])  # (2 / pi) sqrt(pi / (2 t)) exp(t) K_(1/2)(t)
        np.multiply(waves[0, 2], 1.0 + waves[0, 2], out=waves[1, 2])
    c = (2.0 * np.arange(1, top)[:, None] + (dimension - 2)) / t  # row k - 1: c_k
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, top):
            np.multiply(c[k - 1], waves[k], out=waves[k + 1])
            waves[k + 1] += _FORWARD_SIGNS * waves[k - 1]
    regular, second, scaled = waves.transpose(1, 0, 2)
    near = t <= top
    if near.any():
        regular[:, near] = _regular_waves(dimension, top, t[near])[0]
    n = np.arange(top + 1)[:, None]
    outgoing = regular + 1j * second
    if dimension == 2:
        decaying = (2.0 / np.pi) * _ipow(-(n + 1)) * scaled
    else:
        decaying = -_ipow(-n) * scaled
    return t, outgoing, decaying


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------
def sph_harmonic_block(truncation: int, theta, phi) -> np.ndarray:
    """All orthonormal harmonics through the truncation degree at scattered
    points: the dense block, for points that do not form a product rule
    (mode_sums sums against it).

    Returns shape (npoints, (truncation+1)**2); column n*n + n + m holds
    Y_n^m, the normalized Legendre value at theta times exp(i m phi), each
    gathered from its table: one _legendre_table at the distinct polar
    angles only (the 32 directions of direction_grid share 4), and the
    phases of _mode_phases.  It costs npoints * (truncation+1)**2 cells, so
    on the nodes of an AngularRule use rule_analysis and rule_synthesis
    instead.
    """
    theta = np.ravel(np.asarray(theta, dtype=float))
    phi = np.ravel(np.asarray(phi, dtype=float))
    n = mode_degrees(3, truncation)
    m = np.arange(n.size) - n * n - n
    polar, ring = np.unique(theta, return_inverse=True)
    legendre = _legendre_table(truncation, polar)[n, m]
    # row-major, as a sum against the block rounds by its layout
    out = np.empty((max(theta.size, phi.size), n.size), dtype=complex)
    return np.multiply(legendre[:, ring].T, _mode_phases(truncation, phi)[:, m + truncation], out=out)


def _legendre_table(truncation: int, theta) -> np.ndarray:
    """Normalized associated Legendre values: [n, m, i] is the polar factor of
    Y_n^m at theta[i] (Y_n^m = table[n, m] * exp(i m phi)), zero for |m| > n;
    a negative m indexes from the end, with P_n^-m = (-1)**m P_n^m.

    The recurrences of the orthonormal functions with the Condon-Shortley
    phase: the diagonal P_m^m = -sqrt((2m + 1) / (2m)) sin(theta) P_(m-1)^(m-1)
    from P_0^0 = 1 / sqrt(4 pi), by one cumprod; P_(m+1)^m = sqrt(2m + 3)
    cos(theta) P_m^m; and every other order of degree n in one vector step,
    P_n^m = a_nm cos(theta) P_(n-1)^m - c_nm P_(n-2)^m, with
    a_nm = sqrt((4n**2 - 1) / (n**2 - m**2)) and c_nm = a_nm / a_(n-1)m taken
    as one square root (as a_nm (cos(theta) P_(n-1)^m - P_(n-2)^m / a_(n-1)m)
    the table read 2.5e-14 of its peak at theta = 1e-3).  This is the
    recurrence of scipy's sph_legendre_p_all, and against mpmath both read
    8.6e-15 of the peak at degree 40 (the poles, the equator, theta = 1e-3
    and four random angles) and 1.7e-14 at degree 60.  Per table (one BLAS
    thread, medians of 30): 0.37, 0.51 and 0.81 ms at (degree, angles) =
    (24, 33), (32, 33) and (40, 41), against scipy's 0.32, 0.55 and 1.05 ms.
    The rule transforms read it through _kept_legendre_table, which keeps
    one read-only table per (truncation, polar angles) within an 8 MiB
    budget (context._KEPT_BUDGET); sph_harmonic_block builds its own at the
    distinct polar angles of its points.
    """
    theta = np.ravel(np.asarray(theta, dtype=float))
    cos, sin = np.cos(theta), np.sin(theta)
    top = truncation
    table = np.zeros((top + 1, 2 * top + 1, theta.size))
    m = np.arange(top + 1)
    diag = np.empty((top + 1, theta.size))
    diag[0] = 0.5 / np.sqrt(np.pi)
    np.multiply(-np.sqrt((2.0 * m[1:, None] + 1.0) / (2.0 * m[1:, None])), sin, out=diag[1:])
    np.cumprod(diag, axis=0, out=diag)
    table[m, m] = diag
    table[m[1:], m[:-1]] = np.sqrt(2.0 * m[1:, None] + 1.0) * cos * diag[:-1]
    # row n - 2: a_nm and c_nm at degrees n >= 2 (NaN where m >= n - 1, never read)
    n = m[2:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))[:, :, None]
        c = np.sqrt(((n - 1) ** 2 - m * m) * (2.0 * n + 1.0) / ((n * n - m * m) * (2.0 * n - 3.0)))[:, :, None]
    for k in range(2, top + 1):
        row = table[k, :k - 1]
        np.multiply(a[k - 2, :k - 1], cos, out=row)
        row *= table[k - 1, :k - 1]
        row -= c[k - 2, :k - 1] * table[k - 2, :k - 1]
    table[:, top + 1:] = table[:, top:0:-1] * (1.0 - 2.0 * (m[:0:-1, None] % 2))
    return table


def _kept_legendre_table(truncation: int, theta) -> np.ndarray:
    """_legendre_table at a rule's polar angles, kept read-only for the rule
    transforms (rule_analysis, rule_synthesis), one per (truncation, polar
    angles), within the byte budget of context._kept_arrays.  Rule angles
    repeat from call to call; the scattered points of sph_harmonic_block
    need not, so it builds its own table, at their distinct polar angles,
    and does not keep it."""
    theta = np.ravel(np.asarray(theta, dtype=float))
    return _kept_arrays(("legendre", truncation, theta.tobytes()), lambda: (_legendre_table(truncation, theta),))[0]


# ---------------------------------------------------------------------------
# Transforms on the nodes of an angular rule, and mode sums elsewhere
# ---------------------------------------------------------------------------
def rule_analysis(truncation: int, values, angular) -> np.ndarray:
    """Mode coefficients through the truncation of k data sets sampled at
    the nodes of an AngularRule: values of shape (k, angular.count), result
    of shape (modes, k) in mode_degrees' layout, the coefficients whose
    rule_synthesis gives the data back when the rule resolves them.

    2D: one FFT over the M equispaced angles divided by M (the trapezoid
    rule for 1 / (2 pi) times the integral against exp(-i n theta)), order n
    read from column n mod M.  3D: the quadrature of the data against
    conj(Y_n^m), by an FFT over each polar ring's azimuths and one Legendre
    sum per order, weighted by the ring's node weight; row n*n + n + m holds
    what the dense block gives.  After the FFT each data set costs about
    polar * (N+1)**2 products, against the dense block's
    polar * azimuth * (N+1)**2.  A real data set takes rfft: column j holds
    the azimuthal frequencies j = 0..azimuth/2, and a frequency above that
    is the conjugate of column azimuth - j.  A complex data set takes one
    complex FFT, whose columns hold every frequency.
    """
    values = np.asarray(values)
    if angular.dimension == 2:
        spectrum = np.fft.fft(values, axis=1) / angular.count
        return spectrum[:, mode_degrees(2, truncation) % angular.count].T.copy()
    theta, weights = angular.rings
    azimuth = angular.azimuth_count
    real = not np.iscomplexobj(values)
    # the FFT's exp(-2 pi i m j / azimuth) is conj(exp(i m phi_j)); order m
    # and m mod azimuth coincide on the lattice.  Each column is a real
    # block of (polar, data sets) real and imaginary parts, interleaved, so
    # the Legendre sums are real products.
    rings = values.reshape(len(values), angular.polar_count, azimuth)
    spectrum = np.fft.rfft(rings, axis=2) if real else np.fft.fft(rings, axis=2)
    columns = np.ascontiguousarray(spectrum.transpose(2, 1, 0)).view(float)
    table = _kept_legendre_table(truncation, theta) * weights
    degrees = np.arange(truncation + 1)
    sums = np.empty(((truncation + 1) ** 2, len(values)), dtype=complex)
    for m in range(-truncation, truncation + 1):
        n = degrees[abs(m):]
        j = m % azimuth
        mirrored = real and 2 * j > azimuth
        part = (table[abs(m):, m] @ columns[azimuth - j if mirrored else j]).view(complex)
        sums[n * n + n + m] = part.conj() if mirrored else part
    return sums


def rule_synthesis(columns, angular) -> np.ndarray:
    """Mode sums of k coefficient sets at the nodes of an AngularRule:
    columns of shape (modes, k) in mode_degrees' layout, result of shape
    (k, angular.count), each row the sum over modes of a column against
    the modes' angular factors at the nodes (mode_sums at the nodes).

    2D adds the modes of equal order mod M into one of M columns and sums
    the M equispaced angles by one inverse FFT: exp(i n theta_j) takes the
    same values for every n of a column, so no phase n theta_j is rounded.
    3D takes one Legendre sum per order at the polar rings, then one inverse
    FFT over the azimuths (the transpose of rule_analysis); orders with
    |m| >= azimuth/2 fold onto the column m mod azimuth, where
    exp(i m phi) takes the same lattice values.
    """
    columns = np.asarray(columns)
    if angular.dimension == 2:
        folded = np.zeros((angular.count, columns.shape[1]), dtype=complex)
        np.add.at(folded, mode_degrees(2, len(columns) // 2) % angular.count, columns)
        # norm="forward" leaves the inverse unscaled: a plain sum of exp(+i n theta_j)
        return np.fft.ifft(folded, axis=0, norm="forward").T
    truncation = int(np.sqrt(columns.shape[0])) - 1
    table = _kept_legendre_table(truncation, angular.rings[0])
    azimuth = angular.azimuth_count
    degrees = np.arange(truncation + 1)
    folded = np.zeros((azimuth, table.shape[2], columns.shape[1]), dtype=complex)
    for m in range(-truncation, truncation + 1):
        n = degrees[abs(m):]
        folded[m % azimuth] += table[abs(m):, m].T @ columns[n * n + n + m]
    return np.fft.ifft(folded, axis=0, norm="forward").transpose(2, 1, 0).reshape(columns.shape[1], -1)


# 2 pi as _TWO_PI_HIGH + _TWO_PI_LOW (Cody & Waite's reduction): the high
# part has 30 significant bits, so k * _TWO_PI_HIGH is exact for every
# |k| < 2**23, and the low part holds the next 53 (mpmath, 60 digits).
_TWO_PI_HIGH = 6.283185303211212
_TWO_PI_LOW = 3.968374318722162e-09
# Veltkamp's split factor 2**27 + 1: a double's high half keeps 26 bits.
_SPLIT = 134217729.0


def _mode_phases(truncation: int, angle) -> np.ndarray:
    """exp(i n angle) for n = -N..N at every angle, shape (angles, 2N + 1),
    with each phase n angle reduced mod 2 pi before its cosine and sine
    (cos_sin).  The angle splits into a high half of 26 bits, whose product
    with n is exact, and a low half; the exact high product loses its whole
    turns exactly against _TWO_PI_HIGH, then the rest of 2 pi and the low
    product are added, each rounded once near the reduced phase.  So a
    phase errs by a few ulps of pi whatever n angle is, where rounding
    n angle itself errs by an ulp of it: at truncation 100 on the 64 angles
    of a rule, a sum read 8.6e-16 of its peak from one with exact phases,
    and with np.exp(1j * n * angle) 1.2e-14.
    """
    angle = np.ravel(np.asarray(angle, dtype=float))
    n = np.arange(-truncation, truncation + 1)
    split = angle * _SPLIT
    high = split - (split - angle)
    phase = np.multiply.outer(high, n)
    turns = np.rint(phase / (2.0 * np.pi))
    phase -= turns * _TWO_PI_HIGH
    phase -= turns * _TWO_PI_LOW
    phase += np.multiply.outer(angle - high, n)
    c, s = cos_sin(phase)
    return c + 1j * s


def mode_sums(dimension: int, columns, theta, phi=None, radial=None) -> np.ndarray:
    """Mode sums of k coefficient sets at scattered points: columns of shape
    (modes, k) in mode_degrees' layout, points at the angles theta (2D) or
    at polar angles theta and azimuths phi (3D).  Returns shape (points, k),
    entry [i, j] the sum over the modes of columns[:, j] times the mode's
    angular factor at point i, exp(i n theta) (_mode_phases) in 2D and Y_n^m
    (sph_harmonic_block) in 3D, and, when radial is given (k tables of shape
    (points, modes)), times radial[j][i]: a factor of the point's own, as
    the modal field's radial table at each point's radius.

    The angular factors are built once, one row per point, and every table
    of radial factors multiplies them before its column's sum; on the nodes
    of an AngularRule, rule_synthesis sums without a row per node.
    """
    columns = np.asarray(columns, dtype=complex)
    if dimension == 2:
        harmonics = _mode_phases(len(columns) // 2, theta)
    else:
        harmonics = sph_harmonic_block(int(np.sqrt(len(columns))) - 1, theta, phi)
    if radial is None:
        return harmonics @ columns
    return np.column_stack([(harmonics * table) @ column
                            for table, column in zip(radial, np.ascontiguousarray(columns.T))])
