"""Special-function surface: frozen oracle values, identities, error paths."""

import numpy as np
import pytest

from biharwave import specfun

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


class TestBesselJ:
    def test_at_zero(self):
        assert specfun.bessel_j(0, 0.0) == pytest.approx(1.0)
        assert specfun.bessel_j(1, 0.0) == pytest.approx(0.0)
        assert specfun.bessel_j(5, 0.0) == pytest.approx(0.0)

    def test_vanishes_at_first_root(self):
        assert abs(specfun.bessel_j(0, J0_FIRST_ROOT)) < 1e-12

    def test_matches_series_oracle(self):
        for n in (0, 1, 4, 9):
            for z in (0.3, 1.0, 4.5, 9.0):
                ref = oracles.j_series(n, z).real
                assert specfun.bessel_j(n, z) == pytest.approx(ref, rel=1e-11, abs=1e-13)

    def test_reflection(self):
        z = np.linspace(0.1, 40.0, 37)
        for n in range(1, 15):
            lhs = specfun.bessel_j(-n, z)
            rhs = (-1.0) ** n * specfun.bessel_j(n, z)
            assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs) + 1e-30)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            specfun.bessel_j(0, np.nan)
        with pytest.raises(ValueError):
            specfun.bessel_j(0, np.inf)


class TestHankelFamily:
    def test_conjugate_pair(self):
        z = np.linspace(0.2, 30.0, 23)
        h1 = specfun.hankel1(0, z)
        h2 = specfun.hankel2(0, z)
        assert np.max(np.abs(h1 - np.conj(h2))) < 1e-13 * np.max(np.abs(h1))

    def test_hankel1_from_series_oracles(self):
        ref = oracles.j_series(0, 1.0).real + 1j * oracles.y0_series(1.0)
        assert specfun.hankel1(0, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_wronskian_at_derived_point(self):
        z = 1.7
        lhs = (
            oracles.j_series(1, z).real * oracles.y0_series(z)
            - oracles.j_series(0, z).real * oracles.y1_series(z)
        )
        assert lhs == pytest.approx(2.0 / (np.pi * z), rel=1e-11)
        lib = specfun.bessel_j(1, z) * specfun.bessel_y(0, z) - specfun.bessel_j(
            0, z
        ) * specfun.bessel_y(1, z)
        assert lib == pytest.approx(2.0 / (np.pi * z), rel=1e-12)

    def test_singular_at_zero(self):
        for fn in (specfun.bessel_y, specfun.hankel1, specfun.hankel2):
            with pytest.raises(ValueError):
                fn(0, 0.0)

    def test_wronskian_sweep(self):
        # |J_(n+1) Y_n - J_n Y_(n+1) - 2/(pi z)| < 1e-10 (1 + |Y_n|)
        z = np.concatenate([np.linspace(0.1, 5, 40), np.linspace(5, 50, 60)])
        for n in range(0, 31):
            jn = specfun.bessel_j(n, z)
            jn1 = specfun.bessel_j(n + 1, z)
            yn = specfun.bessel_y(n, z)
            yn1 = specfun.bessel_y(n + 1, z)
            resid = np.abs(jn1 * yn - jn * yn1 - 2.0 / (np.pi * z))
            assert np.all(resid < 1e-10 * (1.0 + np.abs(yn)))


class TestImaginaryArgumentRouting:
    def test_order_zero_is_modified_series(self):
        t = np.array([0.5, 1.0, 3.0, 10.0])
        vals = specfun.bessel_j_imag(0, t)
        assert np.all(np.abs(vals.imag) == 0.0)
        assert np.all(vals.real >= 1.0)

    def test_order_two_sign(self):
        t = 2.2
        assert specfun.bessel_j_imag(2, t) == pytest.approx(
            -oracles.i_series(2, t), rel=1e-12
        )

    def test_order_one_from_series_oracle(self):
        val = specfun.bessel_j_imag(1, 1.0)
        assert val == pytest.approx(1j * I1_AT_1, rel=1e-12)

    def test_matches_complex_power_series(self):
        # route through I_n agrees with a literal series evaluation at i*t
        for n in (0, 1, 3, 7, 13, 20):
            for t in (0.5, 2.0, 8.0, 20.0):
                ref = oracles.j_series(n, 1j * t, terms=220)
                val = specfun.bessel_j_imag(n, t)
                assert abs(val - ref) <= 1e-10 * abs(ref)

    def test_overflow_reports_threshold(self):
        with pytest.raises(OverflowError, match="713"):
            specfun.bessel_j_imag(0, 800.0)

    def test_hankel_imag_is_k_family(self):
        t = np.array([0.7, 1.0, 4.0])
        vals = specfun.hankel1_imag(0, t) * (np.pi / 2.0) * 1j
        assert np.max(np.abs(vals.imag)) < 1e-15 * np.max(vals.real)
        assert np.all(vals.real > 0.0)

    def test_hankel_imag_decays(self):
        assert abs(specfun.hankel1_imag(0, 10.0)) < abs(specfun.hankel1_imag(0, 1.0))
        assert abs(specfun.hankel1_imag(3, 10.0)) < abs(specfun.hankel1_imag(3, 1.0))

    def test_hankel_imag_from_integral_oracle(self):
        ref = -(2j / np.pi) * K0_AT_1
        assert specfun.hankel1_imag(0, 1.0) == pytest.approx(ref, rel=1e-11)

    def test_hankel_imag_singular_at_zero(self):
        with pytest.raises(ValueError):
            specfun.hankel1_imag(0, 0.0)

    def test_scaled_variants_consistent(self):
        for n in (0, 2, 5):
            for t in (0.5, 3.0, 12.0):
                plain = specfun.hankel1_imag(n, t)
                scaled = specfun.hankel1_imag_scaled(n, t) * np.exp(-t)
                assert scaled == pytest.approx(plain, rel=1e-13)
                dplain = specfun.hankel1_imag_dt(n, t)
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
        assert abs(specfun.sph_bessel_j(0, np.pi)) < 1e-14
        assert specfun.sph_bessel_j(0, 0.0) == pytest.approx(1.0)

    def test_hankel_closed_form(self):
        got = specfun.sph_hankel1(1, 2.0)
        assert got == pytest.approx(oracles.sph_h1_closed(1, 2.0), rel=1e-13)
        got0 = specfun.sph_hankel1(0, 1.3)
        assert got0 == pytest.approx(oracles.sph_h1_closed(0, 1.3), rel=1e-13)

    def test_hankel_singular_at_zero(self):
        with pytest.raises(ValueError):
            specfun.sph_hankel1(1, 0.0)

    def test_half_order_bridge(self):
        # j_n(z) = sqrt(pi/(2 z)) J_(n+1/2)(z), half orders from the series oracle
        for n in (0, 1, 3, 6, 10):
            for z in (0.4, 1.7, 5.0, 11.0):
                ref = np.sqrt(np.pi / (2.0 * z)) * oracles.j_series(n + 0.5, z).real
                got = specfun.sph_bessel_j(n, z)
                assert abs(got - ref) <= 1e-10 * (abs(ref) + 1e-12)

    def test_imaginary_routing(self):
        for n in (0, 1, 4):
            for t in (0.5, 2.0, 6.0):
                ref = oracles.j_series(n + 0.5, 1j * t, terms=200) * np.sqrt(
                    np.pi / (2.0 * 1j * t)
                )
                got = specfun.sph_bessel_j_imag(n, t)
                assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_imag_hankel_order_zero(self):
        # h^(1)_0(i t) = -exp(-t)/t
        t = np.array([0.5, 2.0, 9.0])
        got = specfun.sph_hankel1_imag(0, t)
        assert np.max(np.abs(got + np.exp(-t) / t)) < 1e-14

    def test_scaled_spherical_consistent(self):
        for n in (0, 1, 4):
            for t in (0.8, 5.0):
                plain = specfun.sph_hankel1_imag(n, t)
                scaled = specfun.sph_hankel1_imag_scaled(n, t) * np.exp(-t)
                assert scaled == pytest.approx(plain, rel=1e-12)
                dplain = specfun.sph_hankel1_imag_dt(n, t)
                dscaled = specfun.sph_hankel1_imag_scaled_dt(n, t) * np.exp(-t)
                assert dscaled == pytest.approx(dplain, rel=1e-12)
        orders = np.arange(0, 9)
        t = np.array([[0.8], [5.0]])
        for fn in (specfun.sph_hankel1_imag_scaled, specfun.sph_hankel1_imag_scaled_dt):
            loop = np.column_stack([fn(int(n), t[:, 0]) for n in orders])
            assert fn(orders, t).tobytes() == loop.astype(complex).tobytes()


class TestSphericalHarmonics:
    def test_constant_mode(self):
        val = specfun.sph_harmonic(0, 0, 0.377, 5.1)
        assert val == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi)), rel=1e-14)

    def test_degree_one_closed_form(self):
        theta = np.array([0.2, 1.1, 2.5])
        got = specfun.sph_harmonic(1, 0, theta, np.zeros(3))
        assert np.allclose(got, np.sqrt(3.0 / (4.0 * np.pi)) * np.cos(theta), rtol=1e-13)

    def test_matches_legendre_oracle(self):
        for n, m in ((2, 1), (3, -2), (5, 4), (6, 0), (8, -8)):
            got = specfun.sph_harmonic(n, m, 0.9, 2.3)
            ref = oracles.sph_harmonic_oracle(n, m, 0.9, 2.3)
            assert got == pytest.approx(ref, rel=1e-11)

    def test_index_error(self):
        with pytest.raises(ValueError):
            specfun.sph_harmonic(2, 3, 0.3, 0.3)
        with pytest.raises(ValueError):
            specfun.sph_harmonic(-1, 0, 0.3, 0.3)

    def test_block_layout(self):
        theta = np.array([0.4, 1.9])
        phi = np.array([0.3, 4.0])
        block = specfun.sph_harmonic_block(3, theta, phi)
        for n in range(4):
            for m in range(-n, n + 1):
                assert np.allclose(
                    block[:, n * n + n + m], specfun.sph_harmonic(n, m, theta, phi)
                )

    def test_gram_matrix_is_identity(self):
        # orthonormality through degree 8 under the product sphere rule
        from biharwave import WaveContext
        from biharwave.quadrature import angular_rule

        rule = angular_rule(WaveContext(3, 1.0, 1.0), 16)
        block = specfun.sph_harmonic_block(8, rule.params[:, 0], rule.params[:, 1])
        gram = (np.conj(block) * rule.weights[:, None]).T @ block
        assert np.max(np.abs(gram - np.eye(81))) < 1e-9


class TestConditionEstimates:
    def test_all_kinds_finite(self):
        for kind in ("j", "y", "h1", "h2", "i", "k", "sph_j", "sph_h1"):
            sv = specfun.evaluate(kind, 2, 3.7)
            assert np.isfinite(sv.value)
            assert sv.condition_estimate >= 0.0

    def test_large_near_root(self):
        near = specfun.evaluate("j", 0, J0_FIRST_ROOT)
        away = specfun.evaluate("j", 0, 1.0)
        assert near.condition_estimate > 1e6 * away.condition_estimate

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            specfun.evaluate("nope", 0, 1.0)
