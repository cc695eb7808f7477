"""Sources: projections, the nonradiating constructors, config parsing."""

import warnings

import numpy as np
import pytest
from scipy import special as sp

from biharwave import WaveContext
from biharwave.quadrature import product_grid
from biharwave.specfun import angular_basis
from biharwave.sources import (
    SourceField,
    SupportViolationError,
    default_mode_truncation,
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
CTX3_ROOT3 = WaveContext.with_root_wavenumber(3, 1.0, 3)


class TestProjection:
    def test_radial_source_is_single_mode(self):
        src = SourceField.from_radial(CTX2, lambda r: np.exp(-(r**2)))
        modal = project_modes(src, 6)
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
        modal = project_modes(src, 5)
        assert np.allclose(modal.profile(3), g(modal.rule.nodes), atol=1e-14)
        for n in range(-5, 6):
            if n != 3:
                assert np.max(np.abs(modal.profile(n))) < 1e-14

    def test_exponential_profile_matches_modified_series(self):
        # f(x) = exp(x_1): mode profiles are I_n(r); dense-trapezoid oracle
        src = SourceField.from_callable(CTX2, lambda p: np.exp(p[:, 0]) + 0j)
        modal = project_modes(src, 4)
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
        modal = project_modes(src, 12)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=40)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        direct = src.evaluate((modal.rule.nodes[:, None, None] * dirs).reshape(-1, 2))
        synth = modal.values.T @ angular_basis(2, 12, theta).T
        assert np.max(np.abs(direct - synth.reshape(-1))) < 1e-9 * np.max(np.abs(direct))

    def test_resynthesis_3d(self):
        rng = np.random.default_rng(9)
        src = SourceField.from_callable(
            CTX3, lambda p: p[:, 0] * p[:, 2] + 0.5 * p[:, 1] + 0j
        )
        modal = project_modes(src, 6)
        theta = np.arccos(rng.uniform(-1.0, 1.0, size=40))
        phi = rng.uniform(0.0, 2.0 * np.pi, size=40)
        dirs = np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
        direct = src.evaluate((modal.rule.nodes[:, None, None] * dirs).reshape(-1, 3))
        synth = modal.values.T @ angular_basis(3, 6, theta, phi).T
        assert np.max(np.abs(direct - synth.reshape(-1))) < 1e-9 * np.max(np.abs(direct))

    def test_masked_outside_support(self):
        src = gaussian_source(CTX2, sigma=0.2, support_radius=0.5)
        pts = np.array([[0.6, 0.0], [0.2, 0.0]])
        vals = src.evaluate(pts)
        assert vals[0] == 0.0 and vals[1] != 0.0


class TestModalCoefficients:
    def test_single_mode_positive_projection(self):
        k = CTX2.kappa
        src = SourceField.from_callable(CTX2, oracles.single_mode(lambda r: sp.jv(5, k * r), 5))
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
        # I_n(800 r) overflows; a NaN residual would compare as "radiating".
        # The error alone reports it: no RuntimeWarning comes first.
        for dimension in (2, 3):
            ctx = WaveContext(dimension=dimension, kappa=800.0, radius=1.0)
            with warnings.catch_warnings(), pytest.raises(OverflowError, match=r"kappa\*R = 800"):
                warnings.simplefilter("error")
                modal_coefficients(ctx, gaussian_source(ctx), 4)

    def test_2d_broadcast_matches_per_mode_loop(self):
        # reference: one scalar-order sum per mode; the broadcast sums must agree bit for bit
        src = gaussian_source(CTX2, center=[0.2, -0.1], sigma=0.2)
        co = modal_coefficients(CTX2, src, 7)
        modal = project_modes(src, 7)
        kr = CTX2.kappa * modal.rule.nodes
        meas = modal.rule.weights * modal.rule.nodes
        for n in range(-7, 8):
            prof = modal.profile(n)
            alpha = np.sum(prof * sp.jv(n, kr) * meas)
            beta = 1j ** (n % 4) * np.sum(prof * sp.iv(abs(n), kr) * meas)
            assert (co.alpha[n + 7], co.beta[n + 7]) == (alpha, beta)

    def test_truncated_matches_lower_projection(self):
        src = gaussian_source(CTX2, center=[0.2, -0.1], sigma=0.2)
        cut = modal_coefficients(CTX2, src, 9).truncated(5)
        low = modal_coefficients(CTX2, src, 5)
        assert cut.truncation == 5 and cut.norm_f == low.norm_f
        np.testing.assert_array_equal(cut.alpha, low.alpha)
        np.testing.assert_array_equal(cut.beta, low.beta)
        with pytest.raises(ValueError, match="truncation"):
            low.truncated(6)

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


class TestBesselPowerTemplate:
    """Both Bessel constructors share one template; each still builds the
    source its own closed form (kept in oracles) describes."""

    @pytest.mark.parametrize("dimension, root, exponents", [
        (2, 1, None), (2, 6, None), (3, 1, (3, 4)), (3, 4, (3, 4)), (3, 2, (5, 3)),
    ], ids=["2d-root1", "2d-root6", "3d-root1", "3d-root4", "3d-exponents-5-3"])
    def test_profile_matches_closed_form(self, dimension, root, exponents):
        ctx = WaveContext.with_root_wavenumber(dimension, 1.3, root)
        if dimension == 2:
            src, ref = make_2d_bessel_nonradiating(ctx), oracles.bessel_pair_profile_2d(ctx)
        else:
            src = make_3d_bessel_nonradiating(ctx, *exponents)
            ref = oracles.bessel_pair_profile_3d(ctx, *exponents)
        r = np.linspace(0.0, ctx.radius, 501, endpoint=False)
        direction = np.ones(dimension) / np.sqrt(dimension)
        want = ref(r)
        got = src.evaluate(r[:, None] * direction)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_3d_pointwise_read_evaluates_each_order_once(self, monkeypatch):
        orders = []
        spherical_jn = sp.spherical_jn

        def counting(n, z, *args, **kwargs):
            orders.append(n)
            return spherical_jn(n, z, *args, **kwargs)

        monkeypatch.setattr(sp, "spherical_jn", counting)
        src = make_3d_bessel_nonradiating(CTX3, 3, 4)
        orders.clear()
        src.evaluate(np.array([[0.1, 0.2, 0.3], [0.4, -0.1, 0.2]]))
        assert orders == [0, 1]


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

    def test_zero_source(self):
        z = SourceField.zero(CTX2)
        assert z.l2_norm() == 0.0

    def test_norm_is_cached_and_carried_by_projection(self):
        src = gaussian_source(CTX2, center=[0.4, 0.0], sigma=0.2)
        norm = src.l2_norm()
        assert src.l2_norm() == norm == gaussian_source(CTX2, center=[0.4, 0.0], sigma=0.2).l2_norm()
        # the coefficients carry the source's norm, whether or not it was
        # asked for first, and not the norm of the projection's truncation
        fresh = gaussian_source(CTX2, center=[0.4, 0.0], sigma=0.2)
        assert modal_coefficients(CTX2, fresh, 2).norm_f == norm
        assert modal_coefficients(CTX2, src, 2).norm_f == norm
        modal = project_modes(fresh, 2)
        cut = np.sqrt(2.0 * np.pi * np.sum(np.abs(modal.values) ** 2 @ (modal.rule.weights * modal.rule.nodes)))
        assert abs(cut - norm) > 1e-3 * norm


def _counting(profile):
    """profile wrapped to record the number of radii of each call, and the list it records into."""
    sizes = []

    def counted(r):
        sizes.append(np.size(r))
        return profile(r)

    return counted, sizes


def _bessel(ctx):
    if ctx.dimension == 2:
        return make_2d_bessel_nonradiating(ctx)
    return make_3d_bessel_nonradiating(ctx)


class TestRadialPath:
    """A from_radial source reads a product grid one radius at a time."""

    @pytest.mark.parametrize("ctx, angular_count", [
        (CTX2, None),
        (CTX3, None),
        # the enlarged projection grid a 3D verdict reads at root 3
        (CTX3_ROOT3, default_mode_truncation(CTX3_ROOT3) + 1),
    ], ids=["2d", "3d", "3d-projection"])
    def test_matches_pointwise_evaluation(self, ctx, angular_count):
        src = _bessel(ctx)
        grid = product_grid(ctx, src.resolve_radial_order(), angular_count)
        pointwise = src.evaluate(grid.points)
        # the two reads differ only in how the radius of a node rounds
        eps = np.finfo(float).eps
        assert np.max(np.abs(src.values_on(grid) - pointwise)) <= 16 * eps * np.max(np.abs(pointwise))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_support_masks_nodes_at_or_beyond_it(self, ctx):
        grid = product_grid(ctx, 32, 8)
        support = grid.radial.nodes[20]  # a node sits exactly on the support radius
        src = SourceField.from_radial(ctx, lambda r: 1.0 + r, support_radius=support)
        rows = src.values_on(grid).reshape(grid.shape)
        inside = grid.radial.nodes < support
        assert np.all(rows[~inside] == 0.0)
        assert np.all(rows[inside] == (1.0 + grid.radial.nodes[inside])[:, None])

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_profile_called_once_per_read(self, ctx):
        profile, sizes = _counting(lambda r: np.exp(-(r**2)))
        src = SourceField.from_radial(ctx, profile)
        grid = product_grid(ctx, 24)
        src.values_on(grid)
        assert sizes == [grid.radial.order]

    def test_scaled_keeps_the_path(self):
        profile, sizes = _counting(lambda r: np.exp(-(r**2)))
        src = SourceField.from_radial(CTX3, profile)
        grid = product_grid(CTX3, 24)
        factor = 2.5 - 0.5j
        scaled = src.scaled(factor).values_on(grid)
        assert sizes == [grid.radial.order]
        assert np.array_equal(scaled, factor * src.values_on(grid))

    def test_sum_with_gaussian_stays_pointwise(self):
        gauss = gaussian_source(CTX2, center=[0.3, -0.2], sigma=0.2)
        grid = product_grid(CTX2, 32)
        profile, sizes = _counting(lambda r: sp.jv(0, CTX2.kappa * r))
        (gauss + SourceField.from_radial(CTX2, profile)).values_on(grid)
        assert sizes == [grid.points.shape[0]]
        # a per-radius read would round differently from the pointwise parts
        bessel = make_2d_bessel_nonradiating(CTX2)
        parts = gauss.evaluate(grid.points) + bessel.evaluate(grid.points)
        assert np.array_equal((gauss + bessel).values_on(grid), parts)


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
