"""Special functions: frozen oracle values, identities, error paths.

The real-axis Bessel/Hankel families, the spherical Bessel functions and
single spherical harmonics are checked at the scipy.special routines the
library calls; the imaginary-axis family J_n(i t) = i**n I_|n|(t) is checked
where the library evaluates it, as beta of single-mode sources.
"""

import numpy as np
import pytest
from scipy import special as sp

from biharwave import WaveContext, specfun
from biharwave.sources import SourceField, modal_coefficients, project_modes

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
        vals = specfun.hankel1_imag_scaled(0, t) * (np.pi / 2.0) * 1j
        assert np.max(np.abs(vals.imag)) < 1e-15 * np.max(vals.real)
        assert np.all(vals.real > 0.0)

    def test_hankel_imag_decays(self):
        for n in (0, 3):
            near = np.exp(-1.0) * specfun.hankel1_imag_scaled(n, 1.0)
            far = np.exp(-10.0) * specfun.hankel1_imag_scaled(n, 10.0)
            assert abs(far) < abs(near)

    def test_hankel_imag_from_integral_oracle(self):
        ref = -(2j / np.pi) * K0_AT_1
        assert np.exp(-1.0) * specfun.hankel1_imag_scaled(0, 1.0) == pytest.approx(ref, rel=1e-11)

    def test_hankel_imag_singular_at_zero(self):
        for fn in (specfun.hankel1_imag_scaled, specfun.hankel1_imag_scaled_dt):
            with pytest.raises(ValueError):
                fn(0, 0.0)

    def test_scaled_variants_consistent(self):
        for n in (0, 2, 5):
            for t in (0.5, 3.0, 12.0):
                plain = oracles.hankel1_imag(n, t)
                scaled = specfun.hankel1_imag_scaled(n, t) * np.exp(-t)
                assert scaled == pytest.approx(plain, rel=1e-13)
                dplain = oracles.hankel1_imag_dt(n, t)
                dscaled = specfun.hankel1_imag_scaled_dt(n, t) * np.exp(-t)
                assert dscaled == pytest.approx(dplain, rel=1e-13)
        # an order array gives the scalar-order values bit for bit
        orders = np.arange(-5, 6)
        t = np.array([[0.5], [3.0], [12.0]])
        for fn in (specfun.hankel1_imag_scaled, specfun.hankel1_imag_scaled_dt):
            loop = np.column_stack([fn(int(n), t[:, 0]) for n in orders])
            assert fn(orders, t).tobytes() == loop.astype(complex).tobytes()


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
        for fn in (specfun.sph_hankel1_imag_scaled, specfun.sph_hankel1_imag_scaled_dt):
            with pytest.raises(ValueError):
                fn(1, 0.0)

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
        got = np.exp(-t) * specfun.sph_hankel1_imag_scaled(0, t)
        assert np.max(np.abs(got + np.exp(-t) / t)) < 1e-14

    def test_scaled_spherical_consistent(self):
        for n in (0, 1, 4):
            for t in (0.8, 5.0):
                plain = oracles.sph_hankel1_imag(n, t)
                scaled = specfun.sph_hankel1_imag_scaled(n, t) * np.exp(-t)
                assert scaled == pytest.approx(plain, rel=1e-12)
                dplain = oracles.sph_hankel1_imag_dt(n, t)
                dscaled = specfun.sph_hankel1_imag_scaled_dt(n, t) * np.exp(-t)
                assert dscaled == pytest.approx(dplain, rel=1e-12)
        orders = np.arange(0, 9)
        t = np.array([[0.8], [5.0]])
        for fn in (specfun.sph_hankel1_imag_scaled, specfun.sph_hankel1_imag_scaled_dt):
            loop = np.column_stack([fn(int(n), t[:, 0]) for n in orders])
            assert fn(orders, t).tobytes() == loop.astype(complex).tobytes()


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

    def test_gram_matrix_is_identity(self):
        # orthonormality through degree 8 under the product sphere rule
        from biharwave.quadrature import angular_rule

        rule = angular_rule(WaveContext(3, 1.0, 1.0), 16)
        block = specfun.sph_harmonic_block(8, rule.params[:, 0], rule.params[:, 1])
        gram = (np.conj(block) * rule.weights[:, None]).T @ block
        assert np.max(np.abs(gram - np.eye(81))) < 1e-9
