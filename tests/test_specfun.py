"""Special functions: frozen oracle values, identities, error paths.

The regular-wave tables over all orders (J_n, I_n, j_n, i_n) and the
exterior ones (outgoing and exp-scaled decaying waves and their derivatives)
are checked against mpmath, as are the order-zero and order-one functions
on both sides of their thresholds, the fitted series (by refitting them)
and the harmonic block; scipy.special serves as a second route for single
harmonics and Hankel identities; the imaginary-axis family
J_n(i t) = i**n I_|n|(t) is also checked where the library evaluates it, as
beta of single-mode sources.
"""

import re
import warnings
from decimal import Decimal
from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from biharwave import WaveContext, specfun
from biharwave.quadrature import angular_rule, boundary_grid, radial_rule
from biharwave.sources import SourceField, default_mode_truncation, modal_coefficients, project_modes
from biharwave.spectral import STABILITY_MARGIN

import oracles

# Frozen from the series/integral oracles in oracles.py (see
# test_frozen_values_match_oracles, which recomputes them).
J0_AT_1 = 0.7651976865579666
Y0_AT_1 = 0.0882569642156770
I1_AT_1 = 0.5651591039924850
K0_AT_1 = 0.4210244382407084
J0_FIRST_ROOT = 2.404825557695773


def test_frozen_values_match_oracles():
    assert oracles.j_series(0, 1.0).real == pytest.approx(J0_AT_1, abs=1e-14)
    assert oracles.y0_series(1.0) == pytest.approx(Y0_AT_1, abs=1e-14)
    assert oracles.i_series(1, 1.0) == pytest.approx(I1_AT_1, abs=1e-14)
    assert oracles.k0_integral(1.0) == pytest.approx(K0_AT_1, abs=1e-12)
    # bisection on the series oracle reproduces the frozen root
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if oracles.j_series(0, lo).real * oracles.j_series(0, mid).real <= 0:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(J0_FIRST_ROOT, abs=1e-13)


def _beta(dimension, n, kappa):
    """beta of the single-mode source with unit radial profile (order n in 2D,
    degree n with order 0 in 3D) on the unit ball, with the arguments
    t = kappa r and the weights w r**(d-1) of the radial rule it sums over."""
    ctx = WaveContext(dimension, kappa, 1.0)
    src = SourceField.from_callable(ctx, oracles.single_mode(np.ones_like, n))
    coeffs = modal_coefficients(ctx, src, abs(n))
    _, beta = coeffs.get(n) if dimension == 2 else coeffs.get(n, 0)
    rule = project_modes(src, abs(n)).rule
    return beta, kappa * rule.nodes, rule.weights * rule.nodes ** (dimension - 1)


class TestBesselJ:
    def test_at_zero(self):
        assert sp.jv(0, 0.0) == pytest.approx(1.0)
        assert sp.jv(1, 0.0) == pytest.approx(0.0)
        assert sp.jv(5, 0.0) == pytest.approx(0.0)

    def test_vanishes_at_first_root(self):
        assert abs(sp.jv(0, J0_FIRST_ROOT)) < 1e-12

    def test_matches_series_oracle(self):
        for n in (0, 1, 4, 9):
            for z in (0.3, 1.0, 4.5, 9.0):
                ref = oracles.j_series(n, z).real
                assert sp.jv(n, z) == pytest.approx(ref, rel=1e-11, abs=1e-13)

    def test_reflection(self):
        # alpha of a negative order pairs the profile with J_(-n)
        z = np.linspace(0.1, 40.0, 37)
        for n in range(1, 15):
            lhs = sp.jv(-n, z)
            rhs = (-1.0) ** n * sp.jv(n, z)
            assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs) + 1e-30)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestCosSin:
    """cos and sin from one half-angle tangent, against mpmath at the double
    the function sees."""

    def test_mpmath_oracle(self):
        rng = np.random.default_rng(31)
        mag = np.geomspace(1e-8, 1e12, 1500) * rng.uniform(0.5, 1.5, 1500)
        # the doubles next to odd multiples of pi, where tan(t/2) is largest
        odd = np.unique(np.concatenate([np.arange(1, 400, 2), np.geomspace(401, 3e11, 200).astype(np.int64) | 1]))
        near = np.concatenate([np.nextafter(odd * np.pi, np.inf), odd * np.pi,
                               np.nextafter(odd * np.pi, -np.inf)])
        t = np.concatenate([mag, near])
        t = np.concatenate([t, -t])
        c, s = specfun.cos_sin(t)
        err = 0.0
        with mpmath.workdps(50):
            for k in range(t.size):
                x = mpmath.mpf(float(t[k]))
                err = max(err, float(abs(c[k] - mpmath.cos(x))), float(abs(s[k] - mpmath.sin(x))))
        assert err <= 4.5e-16

    def test_shapes_and_buffer(self):
        t = np.random.default_rng(37).uniform(-50.0, 50.0, (7, 9))
        c, s = specfun.cos_sin(t)
        assert c.shape == s.shape == (7, 9)
        flat_c, flat_s = specfun.cos_sin(t.ravel())
        assert np.array_equal(_bits(c).ravel(), _bits(flat_c))
        assert np.array_equal(_bits(s).ravel(), _bits(flat_s))
        # a 0-d argument gives 0-d values
        c0, s0 = specfun.cos_sin(0.5)
        assert c0.shape == s0.shape == ()
        assert c0 == pytest.approx(np.cos(0.5), abs=4.5e-16)
        assert s0 == pytest.approx(np.sin(0.5), abs=4.5e-16)
        # the values are fresh arrays: t is left as it was and shares no
        # memory with them, and a second call gives the same bits
        kept = t.copy()
        cb, sb = specfun.cos_sin(t)
        assert np.array_equal(_bits(t), _bits(kept))
        assert not any(np.shares_memory(v, w) for v in (cb, sb) for w in (t, c, s))
        assert not np.shares_memory(cb, sb)
        assert np.array_equal(_bits(cb), _bits(c)) and np.array_equal(_bits(sb), _bits(s))

    def test_finite_everywhere(self):
        big = np.finfo(float).max
        t = np.array([0.0, -0.0, 5e-324, 1e-300, 1e-8, np.pi, 1e15, 1e100, 1e300, big])
        t = np.concatenate([t, -t, np.nextafter(np.pi / 2 * np.arange(1, 60), 0.0)])
        c, s = specfun.cos_sin(t)
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))
        assert np.max(np.abs(c * c + s * s - 1.0)) < 1e-15
        assert np.max(np.abs(c - np.cos(t))) <= 4.5e-16
        assert np.max(np.abs(s - np.sin(t))) <= 4.5e-16


# Cephes's numerator and denominator of P (j0.c), highest power first, as
# printed there; specfun keeps the denominator and the difference PP - PQ.
_CEPHES_J0_PP = ("7.96936729297347051624e-4", "8.28352392107440799803e-2", "1.23953371646414299388e0",
                 "5.44725003058768775090e0", "8.74716500199817011941e0", "5.30324038235394892183e0",
                 "9.99999999999999997821e-1")
_CEPHES_J0_PQ = ("9.24408810558863637013e-4", "8.56288474354474431428e-2", "1.25352743901058953537e0",
                 "5.47097740330417105182e0", "8.76190883237069594232e0", "5.30605288235394617618e0",
                 "1.00000000000000000218e0")


def _mp_j0_y0(t):
    """J_0, Y_0 and the amplitude sqrt(2 / (pi t)) at the doubles t, from mpmath."""
    with mpmath.workdps(40):
        rows = [(mpmath.besselj(0, x), mpmath.bessely(0, x), mpmath.sqrt(2 / (mpmath.pi * x)))
                for x in map(mpmath.mpf, np.asarray(t, dtype=float))]
    return rows


class TestOrderZeroBessel:
    """specfun.j0_y0 above t = 5 and specfun.k0 above t = 2 against mpmath
    at the double they see (TestInHouseSeries covers the sides below)."""

    def test_j0_y0_match_mpmath(self):
        rng = np.random.default_rng(43)
        t = np.concatenate([np.geomspace(np.nextafter(5.0, 6.0), 2000.0, 200), rng.uniform(5.0, 2000.0, 200),
                            5.0 + rng.exponential(2.0, 100)])
        j, y = specfun.j0_y0(t)
        err = [float(max(abs(j[k] - J), abs(y[k] - Y)) / A) for k, (J, Y, A) in enumerate(_mp_j0_y0(t))]
        # scipy's j0/y0 lose about 1e-16 * t here: 8e-14 at t = 2000
        assert max(err) <= 5e-16

    def test_j0_y0_on_both_sides_of_the_threshold(self):
        below = np.array([1e-300, 1e-8, 0.5, 2.404825557695773, 4.9, np.nextafter(5.0, 0.0), 5.0])
        above = np.array([np.nextafter(5.0, 6.0), 5.0 + 1e-12, 5.1, 5.5])
        t = np.concatenate([[0.0], below, above])
        j, y = specfun.j0_y0(t)
        # at t = 0, Y_0 = -inf and J_0 = 1 to within an ulp, whose error is
        # nothing beside |H_0| = inf there
        assert y[0] == -np.inf and abs(j[0] - 1.0) <= np.finfo(float).eps
        # relative to |H_0|: at most 4.7e-16 here, where scipy's j0 and y0
        # read 2.7e-15 (at t = 4.9 and next to 5)
        for k, (J, Y, A) in enumerate(_mp_j0_y0(t[1:]), start=1):
            assert float(max(abs(j[k] - J), abs(y[k] - Y)) / A) <= 5e-16

    def test_k0_matches_mpmath(self):
        rng = np.random.default_rng(47)
        t = np.concatenate([np.geomspace(np.nextafter(2.0, 3.0), 700.0, 200), rng.uniform(2.0, 700.0, 200),
                            2.0 + rng.exponential(1.0, 100)])
        k = specfun.k0(t)
        with mpmath.workdps(40):
            err = [float(abs(k[i] - mpmath.besselk(0, mpmath.mpf(x))) / mpmath.besselk(0, mpmath.mpf(x)))
                   for i, x in enumerate(t)]
        assert max(err) <= 1e-15

    def test_k0_beyond_the_underflow(self):
        # exp(-t) leaves the normal range past t = 708 and K_0 rounds to 0
        # near t = 745: there only the absolute error is defined
        t = np.concatenate([np.linspace(700.0, 760.0, 61), [1e3, 1e300, np.inf]])
        k = specfun.k0(t)
        assert np.all(k >= 0.0) and not np.any(k[t > 746.0])
        with mpmath.workdps(40):
            err = [float(abs(k[i] - mpmath.besselk(0, mpmath.mpf(x)))) for i, x in enumerate(t[:-1])]
        assert max(err) <= 1e-15 * float(mpmath.besselk(0, 700)) and max(err[45:]) <= 1e-322

    def test_k0_on_both_sides_of_the_threshold(self):
        below = np.array([1e-300, 1e-8, 0.5, 1.0, 1.9, np.nextafter(2.0, 0.0), 2.0])
        above = np.array([np.nextafter(2.0, 3.0), 2.0 + 1e-12, 2.1, 2.5])
        k = specfun.k0(np.concatenate([[0.0], below, above]))
        assert k[0] == np.inf
        # relative: at most 3.4e-16 here (next to 2), where scipy's k0 reads
        # 4.0e-16 (at t = 1.9)
        with mpmath.workdps(40):
            for i, x in enumerate(np.concatenate([below, above]), start=1):
                ref = mpmath.besselk(0, mpmath.mpf(x))
                assert float(abs(k[i] - ref) / ref) <= 3.5e-16

    def test_k0_coefficients_refit(self):
        # the Chebyshev coefficients of g(u) = exp(x) sqrt(x) K_0(x),
        # x = 4 / (u + 1), on the 24 Chebyshev nodes, at 40 digits
        n = 24
        with mpmath.workdps(40):
            theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / n for j in range(n)]
            g = [mpmath.exp(x) * mpmath.sqrt(x) * mpmath.besselk(0, x)
                 for x in (4 / (mpmath.cos(th) + 1) for th in theta)]
            refit = tuple(float(mpmath.fsum(gj * mpmath.cos(k * th) for gj, th in zip(g, theta)) / n)
                          for k in range(n))
        assert refit == specfun._K0_CHEBYSHEV

    def test_j0_numerator_is_cephes(self):
        # P = 1 + (PP - PQ)(q) / PQ(q): the difference of Cephes's printed
        # coefficients, exact in decimal, rounded once
        assert tuple(map(float, _CEPHES_J0_PQ)) == specfun._J0_PQ
        diff = tuple(float(Decimal(a) - Decimal(b)) for a, b in zip(_CEPHES_J0_PP, _CEPHES_J0_PQ))
        assert diff == specfun._J0_PP_MINUS_PQ

    def test_shapes_and_buffers(self):
        t = np.random.default_rng(53).uniform(0.5, 60.0, (7, 9))
        j, y = specfun.j0_y0(t)
        k = specfun.k0(t)
        assert j.shape == y.shape == k.shape == (7, 9)
        flat_j, flat_y = specfun.j0_y0(t.ravel())
        assert np.array_equal(_bits(j).ravel(), _bits(flat_j)) and np.array_equal(_bits(y).ravel(), _bits(flat_y))
        assert np.array_equal(_bits(k).ravel(), _bits(specfun.k0(t.ravel())))
        # 0-d arguments give 0-d values, those of the array's entries
        for x in (0.0, 3.0, 7.0, t[3, 4]):
            j0, y0 = specfun.j0_y0(x)
            k0 = specfun.k0(x)
            assert j0.shape == y0.shape == k0.shape == () and all(isinstance(v, np.ndarray) for v in (j0, y0, k0))
            ref_j, ref_y = specfun.j0_y0(np.array([x]))
            assert _bits(j0) == _bits(ref_j) and _bits(y0) == _bits(ref_y)
            assert _bits(k0) == _bits(specfun.k0(np.array([x])))
        # empty arguments give empty values
        for empty in (np.empty(0), np.empty((3, 0))):
            assert all(v.shape == empty.shape for v in (*specfun.j0_y0(empty), specfun.k0(empty)))
        # the values are fresh arrays: t is left as it was and shares no
        # memory with them, and a second call gives the same bits
        kept = t.copy()
        jb, yb = specfun.j0_y0(t)
        kb = specfun.k0(t)
        assert np.array_equal(_bits(t), _bits(kept))
        assert not any(np.shares_memory(v, w) for v in (jb, yb, kb) for w in (t, j, y, k))
        assert not np.shares_memory(jb, yb)
        assert np.array_equal(_bits(jb), _bits(j)) and np.array_equal(_bits(yb), _bits(y))
        assert np.array_equal(_bits(kb), _bits(k))


def _cheb_refit(g, n):
    """Chebyshev coefficients a_k = (1 / n) sum_j g(u_j) T_k(u_j) on the n
    nodes u_j = cos(pi (j + 1/2) / n), at 40 digits, rounded once."""
    with mpmath.workdps(40):
        theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / n for j in range(n)]
        values = [g(mpmath.cos(th)) for th in theta]
        return tuple(float(mpmath.fsum(v * mpmath.cos(k * th) for v, th in zip(values, theta)) / n)
                     for k in range(n))


def _h1_amplitudes(t):
    """P_1 + i Q_1 = H_1(t) sqrt(pi t / 2) exp(-i (t - 3 pi / 4)), in mpmath."""
    return mpmath.hankel1(1, t) * mpmath.sqrt(mpmath.pi * t / 2) * mpmath.exp(-1j * (t - 3 * mpmath.pi / 4))


def _below5(g):
    return lambda u: g(mpmath.sqrt(mpmath.mpf(25) / 2 * (u + 1)))  # t**2 = 12.5 (u + 1)


def _below50(g):
    return lambda u: g(mpmath.sqrt(25 * (u + 1)))  # t**2 = 25 (u + 1)


def _below2(g):
    return lambda u: g(mpmath.sqrt(4 * (u + 1)))  # t**2 = 4 (u + 1)


def _above5(g):
    return lambda u: g(5 / mpmath.sqrt((u + 1) / 2))  # 25 / t**2 = (u + 1) / 2


def _log_term(t):
    return 2 / mpmath.pi * mpmath.log(t / 2)


# Each series table of specfun and the function of u it was fitted to.
_SERIES_TABLES = {
    "_J0_BELOW": _below5(lambda t: mpmath.besselj(0, t)),
    "_Y0_BELOW": _below5(lambda t: mpmath.bessely(0, t) - _log_term(t) * mpmath.besselj(0, t)),
    "_J1_BELOW": _below50(lambda t: mpmath.besselj(1, t) / t),
    "_Y1_BELOW": _below50(lambda t: (mpmath.bessely(1, t) - _log_term(t) * mpmath.besselj(1, t)
                                    + 2 / (mpmath.pi * t)) / t),
    "_P1_ABOVE": _above5(lambda t: _h1_amplitudes(t).real),
    "_Q1_ABOVE": _above5(lambda t: t / 5 * _h1_amplitudes(t).imag),
    "_K0_BELOW": _below2(lambda t: mpmath.besselk(0, t) + mpmath.log(t / 2) * mpmath.besseli(0, t)),
    "_K1_BELOW": _below2(lambda t: (mpmath.besselk(1, t) - 1 / t - mpmath.log(t / 2) * mpmath.besseli(1, t)) / t),
    "_K1_CHEBYSHEV": lambda u: (lambda x: mpmath.exp(x) * mpmath.sqrt(x) * mpmath.besselk(1, x))(4 / (u + 1)),
}


def _mp_modulus_errors(t, order, got_j, got_y):
    """Errors of J_order and Y_order at the doubles t relative to |H_order|, from mpmath."""
    errors = []
    with mpmath.workdps(40):
        for k, x in enumerate(map(mpmath.mpf, t)):
            J, Y = mpmath.besselj(order, x), mpmath.bessely(order, x)
            errors.append(float(max(abs(got_j[k] - J), abs(got_y[k] - Y)) / mpmath.sqrt(J * J + Y * Y)))
    return np.array(errors)


class TestInHouseSeries:
    """The series tables, J_1 and Y_1, and exp(t) K_0 and exp(t) K_1 against
    mpmath, on both sides of their thresholds."""

    @pytest.mark.parametrize("name", sorted(_SERIES_TABLES))
    def test_series_tables_refit(self, name):
        table = getattr(specfun, name)
        assert _cheb_refit(_SERIES_TABLES[name], len(table)) == table

    def test_power_series_are_the_exact_terms(self):
        # 1 / (4**k k!**2) and 1 / (2 4**k k! (k + 1)!), k = 12..0, each rounded once
        k = range(12, -1, -1)
        assert specfun._I0_SERIES == tuple(float(Fraction(1, 4**i * factorial(i) ** 2)) for i in k)
        assert specfun._I1_SERIES == tuple(float(Fraction(1, 2 * 4**i * factorial(i) * factorial(i + 1))) for i in k)

    def test_order_zero_and_one_match_mpmath(self):
        # relative to |H_0| and |H_1| on (0, 2000]: J_0, Y_0 below t = 5 at
        # most 6.6e-16 here, J_1, Y_1 6.4e-16 (scipy's j1, y1: 1.3e-15 below
        # 5 and 8e-14 at 2000)
        rng = np.random.default_rng(59)
        below = np.concatenate([np.geomspace(1e-8, 5.0, 100), rng.uniform(0.0, 5.0, 100), [5.0]])
        above = np.concatenate([np.geomspace(np.nextafter(5.0, 6.0), 2000.0, 100), 5.0 + rng.exponential(2.0, 40)])
        assert np.max(_mp_modulus_errors(below, 0, *specfun.j0_y0(below))) <= 8e-16
        t = np.concatenate([below, above])
        assert np.max(_mp_modulus_errors(t, 1, *specfun.j1_y1(t))) <= 8e-16

    def test_scaled_k_match_mpmath(self):
        # relative on (0, 700]: K_0 below t = 2 at most 7.1e-16 here, scaled
        # K_0 and K_1 6.6e-16 and 7.2e-16 (scipy's k0: 1.3e-15 below 2)
        rng = np.random.default_rng(61)
        below = np.concatenate([np.geomspace(1e-8, 2.0, 80), rng.uniform(0.0, 2.0, 80), [2.0]])
        above = np.concatenate([np.geomspace(np.nextafter(2.0, 3.0), 700.0, 50), 2.0 + rng.exponential(1.0, 20)])
        t = np.concatenate([below, above])
        k = specfun.k0(below)
        scaled = specfun.k0_k1_scaled(t)
        with mpmath.workdps(40):
            ref = [mpmath.besselk(0, mpmath.mpf(x)) for x in below]
            assert max(float(abs(k[i] - r) / r) for i, r in enumerate(ref)) <= 1e-15
            for order, got in enumerate(scaled):
                ref = [mpmath.exp(mpmath.mpf(x)) * mpmath.besselk(order, mpmath.mpf(x)) for x in t]
                assert max(float(abs(got[i] - r) / r) for i, r in enumerate(ref)) <= 1e-15

    def test_limits_shapes_and_empty_arguments(self):
        j, y = specfun.j1_y1(0.0)
        assert j.shape == y.shape == () and j == 0.0 and y == -np.inf
        k0, k1 = specfun.k0_k1_scaled(0.0)
        assert k0.shape == k1.shape == () and k0 == k1 == np.inf
        t = np.random.default_rng(67).uniform(0.5, 60.0, (7, 9))
        for fn in (specfun.j1_y1, specfun.k0_k1_scaled):
            pair = fn(t)
            assert all(v.shape == (7, 9) for v in pair)
            flat = fn(t.ravel())
            assert all(np.array_equal(_bits(v).ravel(), _bits(w)) for v, w in zip(pair, flat))
            for x in (3.0, 7.0, t[3, 4]):
                alone = fn(x)
                assert all(isinstance(v, np.ndarray) and v.shape == () and _bits(v) == _bits(w)
                           for v, w in zip(alone, fn(np.array([x]))))
            for empty in (np.empty(0), np.empty((3, 0))):
                assert all(v.shape == empty.shape for v in fn(empty))
            # the values are fresh arrays, on both sides of the threshold and
            # below it alone (t / 30 <= 2): t is left as it was and shares no
            # memory with them, and a second call gives the same bits
            for arg, first in ((t, pair), (t / 30.0, fn(t / 30.0))):
                kept = arg.copy()
                again = fn(arg)
                assert np.array_equal(_bits(arg), _bits(kept))
                assert not any(np.shares_memory(v, w) for v in again for w in (arg, *first))
                assert not np.shares_memory(*again)
                assert all(np.array_equal(_bits(v), _bits(w)) for v, w in zip(again, first))


@pytest.mark.parametrize("axis", [0, -1])
def test_per_mode_matches_negative_orders(axis):
    # 2D: C_-n = (-1)^n C_n for the integer-order families the library
    # mirrors; 3D: each degree repeated over its 2n + 1 orders
    t = np.linspace(0.3, 40.0, 17)
    top = 25
    n = np.arange(-top, top + 1)

    def expand(dimension, half):
        got = specfun.per_mode(dimension, half if axis == 0 else half.T, axis=axis)
        return got if axis == 0 else got.T

    for fn in (sp.jv, sp.hankel1, sp.h1vp):
        assert np.array_equal(expand(2, fn(np.arange(top + 1)[:, None], t)), fn(n[:, None], t))
    # the exp(t)-scaled decaying family and its derivative against the
    # unscaled K-family oracle at the negative orders
    _, scaled, _, dscaled = specfun.exterior_wave_tables(2, top, t)
    for table, oracle in ((scaled, oracles.hankel1_imag), (dscaled, oracles.hankel1_imag_dt)):
        np.testing.assert_allclose(expand(2, table) * np.exp(-t), oracle(n[:, None], t), rtol=1e-13, atol=0)
    assert np.array_equal(specfun.per_mode(2, np.array([2.5])), [2.5])
    for fn in (sp.spherical_jn, sp.spherical_yn):
        got = expand(3, fn(np.arange(top + 1)[:, None], t))
        assert got.shape[0] == (top + 1) ** 2
        assert np.array_equal(got, fn(specfun.mode_degrees(3, top)[:, None], t))
    _, scaled, _, _ = specfun.exterior_wave_tables(3, top, t)
    ref = oracles.sph_hankel1_imag(specfun.mode_degrees(3, top)[:, None], t)
    np.testing.assert_allclose(expand(3, scaled) * np.exp(-t), ref, rtol=1e-12, atol=0)
    assert np.array_equal(specfun.per_mode(3, np.array([2.5, -1.0])), [2.5, -1.0, -1.0, -1.0])


def _mp_regular(dimension, n, x):
    """(J_n(x), I_n(x)) in 2D, (j_n(x), i_n(x)) in 3D, from mpmath at 30 digits."""
    with mpmath.workdps(30):
        x = mpmath.mpf(float(x))
        if dimension == 2:
            return float(mpmath.besselj(n, x)), float(mpmath.besseli(n, x))
        scale = mpmath.sqrt(mpmath.pi / (2 * x))
        return float(scale * mpmath.besselj(n + 0.5, x)), float(scale * mpmath.besseli(n + 0.5, x))


# J_n and j_n absolute, I_n and i_n relative (down to the smallest normal double)
OSC_ABS, MOD_REL = 5e-16, 1e-14


def _table_errors(dimension, entries, osc, mod):
    """Largest error of each family over the (order, column, x) entries
    (NaN if any entry is NaN, so that no bound is met)."""
    n, col, x = (np.array(v) for v in zip(*entries))
    ref = np.array([_mp_regular(dimension, order, xc) for order, xc in zip(n, x)])
    j_err = np.abs(osc[n, col] - ref[:, 0])
    i_err = np.abs(mod[n, col] - ref[:, 1]) / np.maximum(ref[:, 1], np.finfo(float).tiny)
    return np.max(j_err), np.max(i_err)


# Relative bound of every exterior table entry against mpmath.  Measured on
# TestExteriorWaveTables' arguments: 1.8e-14 (2D, the outgoing derivative)
# and 2.0e-14 (3D, likewise); scipy's own h1vp and spherical derivatives
# reach 1.7e-14 and 2.0e-14 there, its hankel1 values 1.7e-14.
EXTERIOR_REL = 2.5e-14


class TestRegularWaveTables:
    """specfun.regular_wave_tables against mpmath: the orders and arguments
    of the modal coefficients, and the zeros of J_0 and j_0, where the
    Bessel sources live."""

    @pytest.mark.parametrize("dimension, root", [(2, 1), (2, 9), (2, 14), (3, 1), (3, 12)])
    def test_matches_mpmath_on_modal_nodes(self, dimension, root):
        # every 8th radial node (the first, kappa r near 1e-3, among them)
        # and the last, through the verdict truncation
        ctx = WaveContext.with_root_wavenumber(dimension, 1.0, root)
        top = default_mode_truncation(ctx) + STABILITY_MARGIN
        nodes = radial_rule(ctx).nodes
        x = ctx.kappa * np.append(nodes[::8], nodes[-1])
        osc, mod = specfun.regular_wave_tables(dimension, top, x)
        assert osc.shape == mod.shape == (top + 1, x.size)
        entries = [(n, col, xc) for col, xc in enumerate(x) for n in range(top + 1)]
        j_err, i_err = _table_errors(dimension, entries, osc, mod)
        assert j_err <= OSC_ABS and i_err <= MOD_REL

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_matches_mpmath_next_to_zeros(self, dimension):
        # the double nearest the first zero of J_0 (J0_FIRST_ROOT) and of J_1
        # make a denominator of the ratio recurrence exactly zero; at the
        # double nearest 29 pi the sign of sin x alone would flip every j_n
        if dimension == 2:
            zeros = np.concatenate([sp.jn_zeros(0, 14)[[0, 6, 13]], [J0_FIRST_ROOT], sp.jn_zeros(1, 1)])
        else:
            zeros = np.pi * np.array([1.0, 6.0, 12.0, 29.0])
        x = np.concatenate([zeros, np.nextafter(zeros, 0.0), np.nextafter(zeros, np.inf), [1e-3]])
        osc, mod = specfun.regular_wave_tables(dimension, 60, x)
        entries = [(n, col, xc) for col, xc in enumerate(x) for n in (0, 1, 2, 3, 17, 60)]
        j_err, i_err = _table_errors(dimension, entries, osc, mod)
        assert j_err <= OSC_ABS and i_err <= MOD_REL

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        dimension=st.sampled_from([2, 3]),
        truncation=st.integers(0, 120),
        x=st.lists(st.floats(1e-3, 60.0), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_random_entries_match_mpmath(self, dimension, truncation, x, data):
        osc, mod = specfun.regular_wave_tables(dimension, truncation, x)
        entry = st.tuples(st.integers(0, truncation), st.integers(0, len(x) - 1))
        picks = data.draw(st.lists(entry, min_size=1, max_size=3))
        j_err, i_err = _table_errors(dimension, [(n, col, x[col]) for n, col in picks], osc, mod)
        assert j_err <= OSC_ABS and i_err <= MOD_REL

    @pytest.mark.parametrize("bad", [0.0, -1.5, np.nan, np.inf])
    def test_refuses_argument_by_value(self, bad):
        # a non-finite argument is refused by context._check_array, which
        # lists it; a finite one <= 0 by its value
        value = re.escape(repr(float(bad)))
        for dimension in (2, 3):
            with pytest.raises(ValueError, match=rf"(x = {value}|must be finite, got \[{value}\])$"):
                specfun.regular_wave_tables(dimension, 4, [1.0, bad])

    def test_order_zero_anchors_up_to_their_overflow(self):
        # I_0 = e^x / (1 + 2 sum_k I_k / I_0) and i_0 = sinh(x) / x, each with
        # e^x in two halves: within 9.0e-16 and 2.9e-16 relative here (scipy's
        # iv and spherical_in: 1.2e-13 and 1.0e-13), and finite up to 713.9
        # and 717
        x = np.concatenate([np.geomspace(1e-3, 713.0, 60), [1.0, 20.0, 100.0]])
        with mpmath.workdps(40):
            for dimension, exact, bound in ((2, lambda v: mpmath.besseli(0, v), 5e-15),
                                            (3, lambda v: mpmath.sinh(v) / v, 2e-15)):
                _, mod = specfun.regular_wave_tables(dimension, 2, x)
                err = [float(abs(mod[0, k] - exact(mpmath.mpf(v))) / exact(mpmath.mpf(v))) for k, v in enumerate(x)]
                assert max(err) <= bound
        assert np.isfinite(specfun.regular_wave_tables(2, 0, 713.9)[1][0, 0])
        assert np.isfinite(specfun.regular_wave_tables(3, 0, 717.0)[1][0, 0])

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_columns_stand_alone(self, dimension):
        # each column starts its recurrence at its own order and sums its own
        # rows: the table at one argument, bit for bit, whatever the others
        x = np.array([1e-3, 0.7, 2.404825557695773, 9.0, 43.2, 300.0])
        tables = specfun.regular_wave_tables(dimension, 30, x)
        for col, xc in enumerate(x):
            for table, alone in zip(tables, specfun.regular_wave_tables(dimension, 30, xc)):
                assert table[:, col].tobytes() == alone[:, 0].tobytes()

    def test_overflowing_order_zero_stays_inf(self):
        # I_0(800) and i_0(800) leave the double range: every order is inf,
        # never NaN, and no warning fires
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dimension in (2, 3):
                osc, mod = specfun.regular_wave_tables(dimension, 40, [1.0, 800.0])
                assert np.all(np.isfinite(osc)) and np.all(np.isfinite(mod[:, 0]))
                assert np.all(mod[:, 1] == np.inf)


def _mp_exterior(dimension, top, x):
    """Outgoing and exp(x)-scaled decaying waves of orders 0..top at x, and
    their derivatives, from mpmath at 40 digits: four lists of complex.

    The cylindrical functions of order v = n (2D) or n + 1/2 (3D) come from
    mpmath's J_v at every order and its Y_v and K_v at the two lowest, then
    the forward recurrences of Y and K, stable in that direction; their
    derivatives from Z_v' = (Z_(v-1) - Z_(v+1)) / 2 and K_v' = -(K_(v-1) +
    K_(v+1)) / 2, not from the recurrence the library uses.  3D multiplies
    by f = sqrt(pi / (2 x)), whose derivative is -f / (2 x).
    """
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        v0 = 0 if dimension == 2 else mpmath.mpf(0.5)
        orders = [v0 + k for k in range(-1, top + 2)]  # row k + 1 holds order v0 + k
        J = [mpmath.besselj(v, x) for v in orders]
        Y = [mpmath.bessely(v, x) for v in orders[:2]]
        K = [mpmath.besselk(v, x) for v in orders[:2]]
        for v in orders[1:-1]:
            Y.append(2 * v / x * Y[-1] - Y[-2])
            K.append(K[-2] + 2 * v / x * K[-1])
        f, g = (1, 0) if dimension == 2 else (mpmath.sqrt(mpmath.pi / (2 * x)), 1 / (2 * x))
        tables = [[], [], [], []]
        for n in range(top + 1):
            h = J[n + 1] + 1j * Y[n + 1]
            dh = (J[n] - J[n + 2] + 1j * (Y[n] - Y[n + 2])) / 2
            dk = -(K[n] + K[n + 2]) / 2
            # H_n(i t) = (2 / pi) i^-(n+1) K_n(t), h_n(i t) = -(2 / pi) i^-n f K_(n+1/2)(t)
            c = mpmath.exp(x) * 2 / mpmath.pi * ((-1j) ** ((n + 1) % 4) if dimension == 2 else -((-1j) ** (n % 4)))
            for table, value in zip(tables, (h, dh - g * h, c * K[n + 1], c * (dk - g * K[n + 1]))):
                table.append(complex(f * value))
    return tables


class TestExteriorWaveTables:
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_matches_mpmath(self, dimension):
        # both families, values and derivatives, orders 0-40 from below the
        # first zeros to beyond the largest verdict argument (kappa R 43.2),
        # relative to each entry's own size (no entry vanishes on the real axis)
        t = np.array([0.3, 0.9, 2.4, 5.0, 11.0, 19.5, 30.0, 43.0])
        got = specfun.exterior_wave_tables(dimension, 40, t)
        refs = [_mp_exterior(dimension, 40, tc) for tc in t]
        ref = [np.array([r[k] for r in refs]).T for k in (0, 2, 1, 3)]
        worst = [float(np.max(np.abs(g - r) / np.abs(r))) for g, r in zip(got, ref)]
        assert max(worst) <= EXTERIOR_REL, worst


    @pytest.mark.parametrize("dimension", [2, 3])
    def test_far_arguments_match_mpmath(self, dimension):
        # beyond the turning point of every order (t > truncation) J_n and
        # j_n come from the forward recurrence too, not from a ratio table
        # started past t: within 1.1e-15 here
        t = np.array([41.5, 300.0, 2000.0])
        got = specfun.exterior_wave_tables(dimension, 40, t)
        refs = [_mp_exterior(dimension, 40, tc) for tc in t]
        ref = [np.array([r[k] for r in refs]).T for k in (0, 2, 1, 3)]
        worst = [float(np.max(np.abs(g - r) / np.abs(r))) for g, r in zip(got, ref)]
        assert max(worst) <= 2e-15, worst


class TestHankelFamily:
    def test_conjugate_pair(self):
        z = np.linspace(0.2, 30.0, 23)
        h1 = sp.hankel1(0, z)
        h2 = sp.hankel2(0, z)
        assert np.max(np.abs(h1 - np.conj(h2))) < 1e-13 * np.max(np.abs(h1))

    def test_hankel1_from_series_oracles(self):
        ref = oracles.j_series(0, 1.0).real + 1j * oracles.y0_series(1.0)
        assert sp.hankel1(0, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_wronskian_at_derived_point(self):
        z = 1.7
        lhs = (
            oracles.j_series(1, z).real * oracles.y0_series(z)
            - oracles.j_series(0, z).real * oracles.y1_series(z)
        )
        assert lhs == pytest.approx(2.0 / (np.pi * z), rel=1e-11)
        lib = sp.jv(1, z) * sp.yv(0, z) - sp.jv(0, z) * sp.yv(1, z)
        assert lib == pytest.approx(2.0 / (np.pi * z), rel=1e-12)


def _assert_columns_stand_alone(dimension, truncation, t):
    """Every column of the exterior tables is the table at its argument alone, bit for bit."""
    tables = specfun.exterior_wave_tables(dimension, truncation, t)
    for col, tc in enumerate(t):
        for table, alone in zip(tables, specfun.exterior_wave_tables(dimension, truncation, tc)):
            assert table[:, col].tobytes() == alone[:, 0].tobytes()


class TestImaginaryArgumentRouting:
    def test_order_zero_is_modified_series(self):
        # I_0 >= 1: beta_0 of a positive profile is real and at least the profile's integral
        for kappa in (0.5, 1.0, 3.0, 10.0):
            beta, _, fw = _beta(2, 0, kappa)
            assert beta.imag == 0.0
            assert beta.real >= np.sum(fw)

    def test_order_two_sign(self):
        beta, t, fw = _beta(2, 2, 2.2)
        ref = -sum(w * oracles.i_series(2, tj) for tj, w in zip(t, fw))
        assert beta == pytest.approx(ref, rel=1e-12)

    def test_order_one_from_series_oracle(self):
        beta, t, fw = _beta(2, 1, 1.0)
        ref = 1j * sum(w * oracles.i_series(1, tj) for tj, w in zip(t, fw))
        assert beta == pytest.approx(ref, rel=1e-12)

    def test_matches_complex_power_series(self):
        # beta routed through i**n I_|n| agrees with a literal series evaluation
        # at i*t, negative orders through J_(-n) = (-1)**n J_n
        for n in (0, 1, 3, 7, 13, 20, -1, -4):
            for kappa in (0.5, 2.0, 8.0, 20.0):
                beta, t, fw = _beta(2, n, kappa)
                reflection = (-1.0) ** n if n < 0 else 1.0
                ref = reflection * sum(
                    w * oracles.j_series(abs(n), 1j * tj, terms=220) for tj, w in zip(t, fw)
                )
                assert abs(beta - ref) <= 1e-10 * abs(ref)

    def test_hankel_imag_is_k_family(self):
        t = np.array([0.7, 1.0, 4.0])
        _, scaled, _, _ = specfun.exterior_wave_tables(2, 0, t)
        vals = scaled[0] * (np.pi / 2.0) * 1j
        assert np.max(np.abs(vals.imag)) < 1e-15 * np.max(vals.real)
        assert np.all(vals.real > 0.0)

    def test_hankel_imag_decays(self):
        t = np.array([1.0, 10.0])
        _, scaled, _, _ = specfun.exterior_wave_tables(2, 3, t)
        for n in (0, 3):
            near, far = np.exp(-t) * scaled[n]
            assert abs(far) < abs(near)

    def test_hankel_imag_from_integral_oracle(self):
        ref = -(2j / np.pi) * K0_AT_1
        _, scaled, _, _ = specfun.exterior_wave_tables(2, 0, 1.0)
        assert np.exp(-1.0) * scaled[0, 0] == pytest.approx(ref, rel=1e-11)

    def test_hankel_imag_singular_at_zero(self):
        # both families are singular at t = 0: a non-positive argument is
        # refused by its value, a non-finite one by context._check_array
        for bad in (0.0, -1.5, np.nan, np.inf):
            value = re.escape(repr(bad))
            with pytest.raises(ValueError, match=rf"(t = {value}|must be finite, got \[{value}\])$"):
                specfun.exterior_wave_tables(2, 3, [1.0, bad])

    def test_scaled_variants_consistent(self):
        t = np.array([0.5, 3.0, 12.0])
        _, scaled, _, dscaled = specfun.exterior_wave_tables(2, 5, t)
        for n in (0, 2, 5):
            for col, tc in enumerate(t):
                assert scaled[n, col] * np.exp(-tc) == pytest.approx(oracles.hankel1_imag(n, tc), rel=1e-13)
                assert dscaled[n, col] * np.exp(-tc) == pytest.approx(oracles.hankel1_imag_dt(n, tc), rel=1e-13)
        _assert_columns_stand_alone(2, 5, t)


class TestSphericalFamily:
    def test_j0_root_and_limit(self):
        assert abs(sp.spherical_jn(0, np.pi)) < 1e-14
        assert sp.spherical_jn(0, 0.0) == pytest.approx(1.0)

    def test_hankel_closed_form(self):
        # h^(1)_n = j_n + i y_n, as the exterior series assembles it
        for n, z in ((1, 2.0), (0, 1.3)):
            got = sp.spherical_jn(n, z) + 1j * sp.spherical_yn(n, z)
            assert got == pytest.approx(oracles.sph_h1_closed(n, z), rel=1e-13)

    def test_hankel_singular_at_zero(self):
        with pytest.raises(ValueError, match=r"t = 0\.0$"):
            specfun.exterior_wave_tables(3, 1, 0.0)

    def test_imaginary_routing(self):
        # 3D beta pairs degree n with j_n(i t) = sqrt(pi/(2 i t)) J_(n+1/2)(i t)
        for n in (0, 1, 4):
            for kappa in (0.5, 2.0, 6.0):
                beta, t, fw = _beta(3, n, kappa)
                ref = sum(
                    w * oracles.j_series(n + 0.5, 1j * tj, terms=200) * np.sqrt(np.pi / (2.0 * 1j * tj))
                    for tj, w in zip(t, fw)
                )
                assert abs(beta - ref) <= 1e-10 * abs(ref)

    def test_imag_hankel_order_zero(self):
        # h^(1)_0(i t) = -exp(-t)/t
        t = np.array([0.5, 2.0, 9.0])
        _, scaled, _, _ = specfun.exterior_wave_tables(3, 0, t)
        assert np.max(np.abs(np.exp(-t) * scaled[0] + np.exp(-t) / t)) < 1e-14

    def test_scaled_spherical_consistent(self):
        t = np.array([0.8, 5.0])
        _, scaled, _, dscaled = specfun.exterior_wave_tables(3, 4, t)
        for n in (0, 1, 4):
            for col, tc in enumerate(t):
                assert scaled[n, col] * np.exp(-tc) == pytest.approx(oracles.sph_hankel1_imag(n, tc), rel=1e-12)
                assert dscaled[n, col] * np.exp(-tc) == pytest.approx(oracles.sph_hankel1_imag_dt(n, tc), rel=1e-12)
        _assert_columns_stand_alone(3, 4, t)


class TestSphericalHarmonics:
    def test_constant_mode(self):
        val = sp.sph_harm_y(0, 0, 0.377, 5.1)
        assert val == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi)), rel=1e-14)

    def test_degree_one_closed_form(self):
        theta = np.array([0.2, 1.1, 2.5])
        got = sp.sph_harm_y(1, 0, theta, np.zeros(3))
        assert np.allclose(got, np.sqrt(3.0 / (4.0 * np.pi)) * np.cos(theta), rtol=1e-13)

    def test_matches_legendre_oracle(self):
        for n, m in ((2, 1), (3, -2), (5, 4), (6, 0), (8, -8)):
            got = sp.sph_harm_y(n, m, 0.9, 2.3)
            ref = oracles.sph_harmonic_oracle(n, m, 0.9, 2.3)
            assert got == pytest.approx(ref, rel=1e-11)

    def test_block_layout(self):
        theta = np.array([0.4, 1.9])
        phi = np.array([0.3, 4.0])
        block = specfun.sph_harmonic_block(3, theta, phi)
        for n in range(4):
            for m in range(-n, n + 1):
                assert np.allclose(
                    block[:, n * n + n + m], sp.sph_harm_y(n, m, theta, phi)
                )

    @pytest.mark.parametrize("truncation, bound", [(0, 0.0), (24, 5.7e-15), (60, 1.75e-14)], ids=["0", "24", "60"])
    def test_block_matches_scipy_all_harmonics(self, truncation, bound):
        # the block against mpmath (oracles.sph_harmonic_block_mp), relative
        # to its peak, at the poles, the equator and five random points:
        # 0, 5.6e-15 and 1.71e-14 at the three truncations, as scipy's
        # sph_harm_y_all reads there (its recurrence is the library's)
        rng = np.random.default_rng(truncation)
        theta = np.concatenate([[0.0, np.pi, 0.5 * np.pi], rng.uniform(0.0, np.pi, 200)])[:8]
        phi = np.concatenate([[0.0, 2.0, 2.0 * np.pi - 1e-9], rng.uniform(0.0, 2.0 * np.pi, 200)])[:8]
        got = specfun.sph_harmonic_block(truncation, theta, phi)
        ref = oracles.sph_harmonic_block_mp(truncation, theta, phi)
        assert got.shape == ref.shape == (8, (truncation + 1) ** 2)
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))

    def test_block_at_a_scalar_angle(self):
        got = specfun.sph_harmonic_block(3, 0.4, 1.1)
        assert got.shape == (1, 16)
        np.testing.assert_array_equal(got, specfun.sph_harmonic_block(3, np.array([0.4]), np.array([1.1])))
        # 2.4e-16 of the peak from mpmath, where scipy's reads 3.6e-16
        ref = oracles.sph_harmonic_block_mp(3, 0.4, 1.1)
        assert np.max(np.abs(got - ref)) <= 3e-16 * np.max(np.abs(ref))

    def test_legendre_table_matches_mpmath(self):
        # the normalized table against the explicit polynomials of P_n
        # (oracles.normalized_legendre_mp), relative to its peak: 8.6e-15 at
        # degree 40 here, as scipy's sph_legendre_p_all, the worst next to
        # the poles; a negative order mirrors its positive one exactly
        top = 40
        theta = np.concatenate([[0.0, np.pi, 0.5 * np.pi, 1e-3], np.random.default_rng(71).uniform(0.0, np.pi, 4)])
        table = specfun._legendre_table(top, theta)
        assert table.shape == (top + 1, 2 * top + 1, theta.size)
        ref = np.zeros((top + 1, top + 1, theta.size))
        for n in range(top + 1):
            for m in range(n + 1):
                ref[n, m] = [float(oracles.normalized_legendre_mp(n, m, th)) for th in theta]
        assert np.max(np.abs(table[:, :top + 1] - ref)) <= 2e-14 * np.max(np.abs(ref))
        m = np.arange(1, top + 1)
        assert np.array_equal(table[:, -m], table[:, m] * np.where(m % 2, -1.0, 1.0)[:, None])

    def test_block_at_the_poles(self):
        # only the zonal harmonics survive there: Y_n^0 = (+-1)^n sqrt((2n + 1) / (4 pi))
        block = specfun.sph_harmonic_block(6, np.array([0.0, np.pi]), np.array([0.7, 2.9]))
        n = specfun.mode_degrees(3, 6)
        zonal = np.arange(n.size) == n * n + n
        peak = np.sqrt((2 * n[zonal] + 1) / (4.0 * np.pi))
        np.testing.assert_allclose(block[0, zonal], peak, rtol=1e-15)
        np.testing.assert_allclose(block[1, zonal], (-1.0) ** n[zonal] * peak, rtol=1e-15)
        assert np.max(np.abs(block[:, ~zonal])) < 1e-15

    def test_block_of_no_points(self):
        for theta in (np.empty(0), []):
            assert specfun.sph_harmonic_block(5, theta, theta).shape == (0, 36)

    def test_gram_matrix_is_identity(self):
        # orthonormality through degree 8 under the product sphere rule
        rule = angular_rule(WaveContext(3, 1.0, 1.0), 16)
        block = specfun.sph_harmonic_block(8, rule.params[:, 0], rule.params[:, 1])
        gram = (np.conj(block) * rule.weights[:, None]).T @ block
        assert np.max(np.abs(gram - np.eye(81))) < 1e-9


def _random_complex(rows, sets, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, sets)) + 1j * rng.standard_normal((rows, sets))


class TestSeparatedTransforms:
    """FFT over the azimuths plus one Legendre sum per order, against the
    dense harmonic block on the same product rule."""

    @pytest.mark.parametrize(
        "truncation, polar, real", [(8, 16, False), (31, 32, False), (40, 16, False), (8, 16, True), (40, 16, True)],
        ids=["N8", "N31", "N40-folded", "N8-real", "N40-folded-real"],
    )
    def test_analysis_matches_dense_block(self, truncation, polar, real):
        # N40-folded: orders above azimuth/2 = 16 alias onto lattice columns
        # in both routes alike.  Every data set takes the real FFT (a complex
        # one as its real and imaginary rows): orders m < 0, and the folded
        # orders above azimuth/2, by conjugate symmetry
        rule = angular_rule(WaveContext(3, 1.0, 1.0), polar)
        values = _random_complex(3, rule.count, truncation)
        if real:
            values = values.real
        got = specfun.sph_analysis(truncation, values.reshape(3, polar, rule.azimuth_count), *rule.rings)
        ref = oracles.dense_sph_analysis(truncation, values, rule)
        assert got.shape == ((truncation + 1) ** 2, 3)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "truncation, resolution", [(31, 32), (40, 40), (44, 40)],
        ids=["grid32", "grid40", "grid40-folded"],
    )
    def test_synthesis_matches_dense_block(self, truncation, resolution):
        # the folded case has degrees above azimuth/2 = 40: orders m and
        # m - 80 share a lattice column
        ang = boundary_grid(WaveContext(3, 1.0, 1.0), resolution)
        coeffs = _random_complex((truncation + 1) ** 2, 2, resolution)
        got = specfun.sph_synthesis(coeffs, ang.rings[0], ang.azimuth_count)
        ref = oracles.dense_sph_synthesis(coeffs, ang.params)
        assert got.shape == (2, ang.polar_count, ang.azimuth_count)
        assert np.max(np.abs(got.reshape(2, -1) - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the angular-mode layer's synthesis on the same rule, node by node
        got = specfun.rule_synthesis(coeffs, ang)
        assert got.shape == (2, ang.count)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_2d_rule_synthesis_matches_exact_phases(self):
        # 201 orders on 64 angles, up to four sharing each column of the
        # inverse FFT.  The reference reduces n theta_j exactly to
        # 2 pi (n j mod M) / M; the dense basis exp(i n theta_j), whose phase
        # is rounded, was 2.4e-14 of the peak off at |n| = 100
        N, M = 100, 64
        rule = angular_rule(WaveContext(2, 1.0, 1.0), M)
        coeffs = _random_complex(2 * N + 1, 2, 11)
        j = np.arange(M)
        basis = np.exp(2j * np.pi * (np.outer(j, specfun.mode_degrees(2, N)) % M) / M)
        ref = (basis @ coeffs).T
        got = specfun.rule_synthesis(coeffs, rule)
        assert got.shape == (2, M)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_analysis_inverts_synthesis(self):
        # below the rule's exact degree the two transforms are inverse
        rule = angular_rule(WaveContext(3, 1.0, 1.0), 24)
        coeffs = _random_complex(23**2, 1, 5)
        samples = specfun.sph_synthesis(coeffs, rule.rings[0], rule.azimuth_count)
        back = specfun.sph_analysis(22, samples, *rule.rings)
        assert np.max(np.abs(back - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))
        # and through the angular-mode layer: 3D on the same rule, 2D with
        # the orders |n| <= 31 apart on 64 angles
        back = specfun.rule_analysis(22, specfun.rule_synthesis(coeffs, rule), rule)
        assert np.max(np.abs(back - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))
        rule = angular_rule(WaveContext(2, 1.0, 1.0), 64)
        coeffs = _random_complex(63, 3, 6)
        back = specfun.rule_analysis(31, specfun.rule_synthesis(coeffs, rule), rule)
        assert back.shape == coeffs.shape
        assert np.max(np.abs(back - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))
