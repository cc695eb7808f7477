"""Sources: projections, the nonradiating constructors, config parsing."""

import numpy as np
import pytest
from scipy import special as sp

from biharwave import WaveContext
from biharwave.quadrature import product_grid
from biharwave.sources import (
    SourceField,
    SupportViolationError,
    gaussian_source,
    make_2d_bessel_nonradiating,
    make_3d_bessel_nonradiating,
    make_bump_nonradiating,
    modal_coefficients,
    project_modes,
    source_from_config,
)

import oracles

CTX2 = WaveContext.with_root_wavenumber(2, 1.0, 1)
CTX3 = WaveContext.with_root_wavenumber(3, 1.0, 1)


class TestProjection:
    def test_radial_source_is_single_mode(self):
        src = SourceField.from_radial(CTX2, lambda r: np.exp(-(r**2)))
        modal = project_modes(src, 6).modal
        for n in range(-6, 7):
            peak = np.max(np.abs(modal.profile(n)))
            if n == 0:
                assert peak > 0.1
            else:
                assert peak < 1e-15

    def test_pure_angular_mode_lands_in_its_row(self):
        g = lambda r: r**2 * (1.0 - r)
        src = SourceField.from_callable(
            CTX2,
            lambda p: g(np.linalg.norm(p, axis=-1))
            * np.exp(3j * np.arctan2(p[:, 1], p[:, 0])),
        )
        modal = project_modes(src, 5).modal
        assert np.allclose(modal.profile(3), g(modal.rule.nodes), atol=1e-14)
        for n in range(-5, 6):
            if n != 3:
                assert np.max(np.abs(modal.profile(n))) < 1e-14

    def test_exponential_profile_matches_modified_series(self):
        # f(x) = exp(x_1): mode profiles are I_n(r); dense-trapezoid oracle
        src = SourceField.from_callable(CTX2, lambda p: np.exp(p[:, 0]) + 0j)
        modal = project_modes(src, 4).modal
        r_test = modal.rule.nodes[::8]
        for n in range(5):
            prof = modal.profile(n)[::8]
            ref_lib = np.array([oracles.i_series(n, r) for r in r_test])
            for i, r in enumerate(r_test):
                ref_trap = oracles.trapezoid_angular(
                    lambda t: np.exp(r * np.cos(t)) * np.exp(-1j * n * t)
                ) / (2.0 * np.pi)
                assert prof[i] == pytest.approx(ref_trap, rel=1e-12)
                assert prof[i] == pytest.approx(ref_lib[i], rel=1e-10)

    def test_resynthesis_matches_pointwise(self):
        rng = np.random.default_rng(7)
        src = SourceField.from_callable(
            CTX2,
            lambda p: (p[:, 0] + 2j * p[:, 1]) ** 3 + np.exp(-np.sum(p**2, axis=-1)),
        )
        modal_src = project_modes(src, 12)
        pts = rng.normal(size=(1000, 2))
        pts *= rng.uniform(0.05, 0.95, size=(1000, 1)) / np.linalg.norm(
            pts, axis=1, keepdims=True
        )
        direct = src.evaluate(pts)
        synth = modal_src.evaluate(pts)
        assert np.max(np.abs(direct - synth)) < 1e-9 * np.max(np.abs(direct))

    def test_resynthesis_3d(self):
        rng = np.random.default_rng(9)
        src = SourceField.from_callable(
            CTX3, lambda p: p[:, 0] * p[:, 2] + 0.5 * p[:, 1] + 0j
        )
        modal_src = project_modes(src, 6)
        pts = rng.normal(size=(200, 3))
        pts *= rng.uniform(0.05, 0.95, size=(200, 1)) / np.linalg.norm(
            pts, axis=1, keepdims=True
        )
        direct = src.evaluate(pts)
        synth = modal_src.evaluate(pts)
        assert np.max(np.abs(direct - synth)) < 1e-9 * np.max(np.abs(direct))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_modal_evaluation_repeats_bitwise(self, ctx):
        src = project_modes(gaussian_source(ctx, sigma=0.3), 6)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.6, 0.6, size=(400, ctx.dimension))
        assert src.evaluate(pts).tobytes() == src.evaluate(pts).tobytes()

    def test_masked_outside_support(self):
        src = gaussian_source(CTX2, sigma=0.2, support_radius=0.5)
        pts = np.array([[0.6, 0.0], [0.2, 0.0]])
        vals = src.evaluate(pts)
        assert vals[0] == 0.0 and vals[1] != 0.0


class TestModalCoefficients:
    def test_single_mode_positive_projection(self):
        k = CTX2.kappa
        src = SourceField.from_modes(CTX2, {5: lambda r: sp.jv(5, k * r)})
        co = modal_coefficients(CTX2, src, 8)
        a5, _ = co.get(5)
        ref = oracles.adaptive_radial(
            lambda r: oracles.j_series(5, k * r).real ** 2 * r, 0.0, 1.0
        )
        assert a5.real == pytest.approx(ref, rel=1e-10)
        assert a5.real > 0
        for n in range(-8, 9):
            if n != 5:
                a, b = co.get(n)
                assert abs(a) < 1e-14 and abs(b) < 1e-14

    def test_out_of_range_order_refused(self):
        # a negative index would wrap round to another mode's row
        co = modal_coefficients(CTX2, SourceField.from_radial(CTX2, lambda r: 1.0 - r**2), 4)
        for n in (-6, 5):
            with pytest.raises(ValueError, match="must be <= 4"):
                co.get(n)

    def test_radial_source_only_zero_mode(self):
        src = SourceField.from_radial(CTX2, lambda r: 1.0 - r**2)
        co = modal_coefficients(CTX2, src, 6)
        for n in range(-6, 7):
            a, b = co.get(n)
            if n != 0:
                assert abs(a) < 1e-14 and abs(b) < 1e-14

    def test_overflowing_beta_raises_naming_kappa_r(self):
        # I_n(800 r) overflows; a NaN residual would compare as "radiating"
        ctx = WaveContext(dimension=2, kappa=800.0, radius=1.0)
        with np.errstate(all="ignore"), pytest.raises(OverflowError, match=r"kappa\*R = 800"):
            modal_coefficients(ctx, gaussian_source(ctx), 4)

    def test_2d_broadcast_matches_per_mode_loop(self):
        # reference: one scalar-order sum per mode; the broadcast sums must agree bit for bit
        src = project_modes(gaussian_source(CTX2, center=[0.2, -0.1], sigma=0.2), 7)
        co = modal_coefficients(CTX2, src, 7)
        rule = src.modal.rule
        kr = CTX2.kappa * rule.nodes
        meas = rule.weights * rule.nodes
        for n in range(-7, 8):
            prof = src.modal.profile(n)
            alpha = np.sum(prof * sp.jv(n, kr) * meas)
            beta = 1j ** (n % 4) * np.sum(prof * sp.iv(abs(n), kr) * meas)
            assert (co.alpha[n + 7], co.beta[n + 7]) == (alpha, beta)

    def test_norm_positive(self):
        src = gaussian_source(CTX2, sigma=0.2)
        co = modal_coefficients(CTX2, src, 4)
        assert co.norm_f > 0

    def test_non_finite_source_named(self):
        def func(pts):
            vals = np.ones(len(pts), dtype=complex)
            vals[0] = np.nan
            return vals

        src = SourceField.from_callable(CTX2, func)
        with pytest.raises(ValueError, match="source values, or their L2 norm, are not finite"):
            modal_coefficients(CTX2, src, 4)


class TestBesselPair2D:
    def test_requires_root_condition(self):
        bad = WaveContext(dimension=2, kappa=2.0, radius=1.0)
        with pytest.raises(ValueError, match="zero of J_0"):
            make_2d_bessel_nonradiating(bad)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            make_2d_bessel_nonradiating(CTX3)

    def test_radially_symmetric(self):
        src = make_2d_bessel_nonradiating(CTX2)
        co = modal_coefficients(CTX2, src, 5)
        for n in range(-5, 6):
            if n != 0:
                a, b = co.get(n)
                assert abs(a) < 1e-13 * co.norm_f and abs(b) < 1e-13 * co.norm_f

    def test_both_projections_vanish(self):
        # the oscillatory and the exponential projections of the profile are 0
        src = make_2d_bessel_nonradiating(CTX2)
        k = CTX2.kappa

        def profile(r):  # the radial profile, read on the x-axis
            return src.evaluate(np.array([[r, 0.0]]))[0]

        alpha0 = oracles.adaptive_radial(lambda r: (profile(r) * sp.jv(0, k * r) * r).real, 0.0, 1.0)
        beta0 = oracles.adaptive_radial(lambda r: (profile(r) * sp.iv(0, k * r) * r).real, 0.0, 1.0)
        assert abs(alpha0) < 1e-10 * src.l2_norm()
        assert abs(beta0) < 1e-10 * src.l2_norm()

    def test_potential_flat_at_boundary(self):
        src = make_2d_bessel_nonradiating(CTX2)
        R, k = CTX2.radius, CTX2.kappa
        eps = 1e-6 * R
        p = oracles.bessel_pair_potential_2d(k, R)
        assert abs(p(R)) < 1e-12
        # one-sided derivative estimate at R(1 - 1e-6) stays O(eps)
        deriv = (p(R - eps) - p(R - 2 * eps)) / eps
        assert abs(deriv) < 1e-4

        # the source is the (laplacian - kappa^2) image of this potential
        def pot(q):
            return p(np.linalg.norm(q))

        for x in ([0.1, 0.2], [0.5, 0.0], [-0.3, 0.6], [0.0, -0.85]):
            x = np.array(x)
            ref = oracles.fd_laplacian(pot, x, 1e-3) - k * k * pot(x)
            assert src.evaluate(x[None, :])[0] == pytest.approx(ref, rel=1e-6)

    def test_nontrivial(self):
        src = make_2d_bessel_nonradiating(CTX2)
        assert src.l2_norm() > 1.0


class TestBesselPair3D:
    def test_pi_is_valid_radius_scale(self):
        src = make_3d_bessel_nonradiating(CTX3, 3, 4)
        assert src.l2_norm() > 0

    def test_zero_projections(self):
        src = make_3d_bessel_nonradiating(CTX3, 3, 4)
        co = modal_coefficients(CTX3, src, 4)
        a00, b00 = co.get(0, 0)
        assert abs(a00) < 1e-12 * co.norm_f
        assert abs(b00) < 1e-12 * co.norm_f

    def test_all_projections_vanish_through_twenty(self):
        src = make_3d_bessel_nonradiating(CTX3, 3, 4)
        co = modal_coefficients(CTX3, src, 20)
        assert co.max_residual() < 1e-8

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            make_3d_bessel_nonradiating(CTX3, 3, 3)
        with pytest.raises(ValueError):
            make_3d_bessel_nonradiating(CTX3, 2, 4)

    def test_root_validation(self):
        bad = WaveContext(dimension=3, kappa=2.0, radius=1.0)
        with pytest.raises(ValueError, match="zero"):
            make_3d_bessel_nonradiating(bad)


class TestBumpConstruction:
    def test_support_violation(self):
        with pytest.raises(SupportViolationError):
            make_bump_nonradiating(CTX2, rho=1.0)
        with pytest.raises(SupportViolationError):
            make_bump_nonradiating(CTX2, rho=0.5, center=[0.6, 0.0])
        with pytest.raises(ValueError, match="rho must be positive"):
            make_bump_nonradiating(CTX2, rho=-0.1, center=[0.5, 0.0])

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_image_matches_fd_oracle_at_center(self, ctx):
        src = make_bump_nonradiating(ctx, rho=0.8)
        x0 = np.zeros(ctx.dimension)

        def bump(q):
            return oracles.mollifier(q, 0.8, x0)

        ref = -(oracles.fd_bilaplacian(bump, x0, 4e-3) - ctx.kappa**4 * bump(x0))
        got = src.evaluate(x0[None, :])[0]
        assert abs(got - ref) < 1e-6 * abs(ref)

    def test_helmholtz_moment_vanishes_outside(self):
        # the source integrates to zero against the oscillatory kernel outside
        from biharwave.fields import eval_field

        src = make_bump_nonradiating(CTX2, rho=0.8)
        sample = eval_field(CTX2, src, np.array([1.7, 0.9]), method="quadrature")
        interior = np.max(np.abs(src.evaluate(product_grid(CTX2, 64).points)))
        assert abs(sample.f_h) < 1e-9 * interior
        assert abs(sample.u) < 1e-9 * interior


class TestAlgebra:
    def test_addition_and_scaling(self):
        f = gaussian_source(CTX2, sigma=0.2)
        g = make_2d_bessel_nonradiating(CTX2)
        total = f + g.scaled(2.0)
        pts = np.array([[0.3, 0.1], [0.0, 0.7]])
        assert np.allclose(
            total.evaluate(pts), f.evaluate(pts) + 2.0 * g.evaluate(pts)
        )
        assert total.support_radius == max(f.support_radius, g.support_radius)

    def test_scaling_modal(self):
        src = project_modes(gaussian_source(CTX2, sigma=0.2), 4)
        doubled = 2.0 * src
        assert np.allclose(doubled.modal.values, 2.0 * src.modal.values)

    def test_zero_source(self):
        z = SourceField.zero(CTX2)
        assert z.l2_norm() == 0.0

    def test_norm_is_cached_and_carried_by_projection(self):
        src = gaussian_source(CTX2, center=[0.4, 0.0], sigma=0.2)
        norm = src.l2_norm()
        assert src.l2_norm() == norm == gaussian_source(CTX2, center=[0.4, 0.0], sigma=0.2).l2_norm()
        # the projection keeps the source's norm, not that of its truncation
        assert project_modes(src, 2).l2_norm() == norm
        fresh = gaussian_source(CTX2, center=[0.4, 0.0], sigma=0.2)
        assert abs(project_modes(fresh, 2).l2_norm() - norm) > 1e-3 * norm


class TestConfigParsing:
    def test_round_trip(self):
        ctx, src = source_from_config(
            {
                "dimension": 2,
                "R": 1.0,
                "root_index": 1,
                "kind": "gaussian",
                "parameters": {"center": [0.2, 0.0], "sigma": 0.15},
            }
        )
        assert ctx.dimension == 2
        assert src.l2_norm() > 0

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="mystery"):
            source_from_config(
                {"dimension": 2, "R": 1.0, "kappa": 1.0, "kind": "zero", "mystery": 1}
            )

    def test_negative_radius_named(self):
        with pytest.raises(ValueError, match="'R'"):
            source_from_config(
                {"dimension": 2, "R": -1.0, "kappa": 1.0, "kind": "zero"}
            )

    def test_kappa_xor_root(self):
        with pytest.raises(ValueError, match="kappa"):
            source_from_config({"dimension": 2, "R": 1.0, "kind": "zero"})

    def test_unknown_parameter_named(self):
        with pytest.raises(ValueError, match="width"):
            source_from_config(
                {
                    "dimension": 2,
                    "R": 1.0,
                    "kappa": 1.0,
                    "kind": "gaussian",
                    "parameters": {"width": 3},
                }
            )

    def test_bessel_pair_via_config(self):
        _, src = source_from_config(
            {"dimension": 3, "R": 1.0, "root_index": 1, "kind": "bessel_nonradiating",
             "parameters": {"m1": 3, "m2": 5}}
        )
        assert src.l2_norm() > 0
