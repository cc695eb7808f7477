"""Sources: projections, the nonradiating constructors, config parsing."""

import re
import warnings

import numpy as np
import pytest
from scipy import special as sp

from biharwave import WaveContext, context, sources, specfun
from biharwave.fields import boundary_trace, eval_field_batch, far_field
from biharwave.quadrature import boundary_grid, product_grid, spherical_params
from biharwave.spectral import (
    STABILITY_MARGIN,
    InconsistencyError,
    direction_grid,
    fourier_on_circle,
    laplace_on_circle,
    verdict,
)
from biharwave.specfun import angular_basis, regular_wave_tables
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
        # read pointwise, a radial function lands in the zero mode alone; a
        # radial leaf's projection is that mode, on the same radial nodes
        profile = lambda r: np.exp(-(r**2))
        modal = project_modes(SourceField.from_callable(CTX2, lambda p: profile(np.linalg.norm(p, axis=-1))), 6)
        for n in range(-6, 7):
            peak = np.max(np.abs(modal.profile(n)))
            if n == 0:
                assert peak > 0.1
            else:
                assert peak < 1e-15
        radial = project_modes(SourceField.from_radial(CTX2, profile), 6)
        assert radial.truncation == 0 and radial.values.shape == (1, len(modal.rule.nodes))
        assert np.array_equal(radial.rule.nodes, modal.rule.nodes)
        assert np.max(np.abs(radial.profile(0) - modal.profile(0))) <= 1e-15 * np.max(np.abs(modal.profile(0)))

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

    @pytest.mark.parametrize("n", [True, 1.5, np.float64(2.0)], ids=["bool", "fraction", "numpy-float"])
    def test_order_that_is_no_integer_refused(self, n):
        # True read as the order-1 mode and 1.5 failed in numpy's indexing
        src = gaussian_source(CTX2, center=[0.2, 0.1])
        message = re.escape(f"n must be an integer >= -4, got {n!r}")
        with pytest.raises(ValueError, match=message):
            modal_coefficients(CTX2, src, 4).get(n)
        with pytest.raises(ValueError, match=message):
            project_modes(src, 4).profile(n)

    @pytest.mark.parametrize("n, m, name", [(True, 0, "n"), (1.5, 1, "n"), (2, 0.5, "m"), (2, False, "m")],
                             ids=["n-bool", "n-fraction", "m-fraction", "m-bool"])
    def test_3d_mode_that_is_no_integer_refused(self, n, m, name):
        co = modal_coefficients(CTX3, make_3d_bessel_nonradiating(CTX3), 3)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= -?\d, got "):
            co.get(n, m)

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
            with warnings.catch_warnings(), pytest.raises(OverflowError, match=r"kappa\*support_radius = 800"):
                warnings.simplefilter("error")
                modal_coefficients(ctx, gaussian_source(ctx), 4)

    def test_beta_finite_when_the_support_keeps_it_in_range(self):
        # support 0.9 at kappa 780: kappa times the support, 702, stays below
        # the 713 where I_n(kappa r) overflows, though kappa R does not, and
        # the source's grid has no node beyond its support where inf * 0
        # would make NaN.  beta is the reference sum
        # i^n / (2 pi) sum_y f(y) w(y) I_|n|(kappa |y|) exp(-i n theta_y)
        # over the source's own grid, I_n from scipy's exp-scaled ive
        ctx = WaveContext(dimension=2, kappa=780.0, radius=1.0)
        src = gaussian_source(ctx, center=[0.25, 0.0], sigma=0.1, support_radius=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            co = modal_coefficients(ctx, src, 4)
        assert np.all(np.isfinite(co.alpha)) and np.all(np.isfinite(co.beta))
        grid, values = src.default_samples()
        r, theta, _ = spherical_params(grid.points)
        n = specfun.mode_degrees(2, 4)[:, None]
        kr = ctx.kappa * r
        terms = values * grid.weights * sp.ive(np.abs(n), kr) * np.exp(kr) * np.exp(-1j * n * theta)
        ref = 1j ** n[:, 0] * np.sum(terms, axis=1) / (2.0 * np.pi)
        assert np.max(np.abs(co.beta - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_non_finite_alpha_named(self, monkeypatch):
        # a NaN alpha would make max_residual NaN, which reads as "radiating"
        tables = specfun.regular_wave_tables

        def nan_wave(dimension, truncation, x):
            osc, mod = tables(dimension, truncation, x)
            osc[1, 0] = np.nan
            return osc, mod

        monkeypatch.setattr(specfun, "regular_wave_tables", nan_wave)
        for ctx in (CTX2, CTX3):
            with pytest.raises(ValueError, match=r"alpha coefficients are not finite at kappa\*support_radius"):
                modal_coefficients(ctx, gaussian_source(ctx), 4)

    def test_2d_broadcast_matches_per_mode_loop(self):
        # reference: one scalar-order sum per mode over rows of the regular
        # wave tables, J_-n = (-1)^n J_n; the broadcast sums must agree bit for bit
        src = gaussian_source(CTX2, center=[0.2, -0.1], sigma=0.2)
        co = modal_coefficients(CTX2, src, 7)
        modal = project_modes(src, 7)
        kr = CTX2.kappa * modal.rule.nodes
        meas = modal.rule.weights * modal.rule.nodes
        j, i = regular_wave_tables(2, 7, kr)
        for n in range(-7, 8):
            prof = modal.profile(n)
            mirror = -1.0 if n < 0 and n % 2 else 1.0
            alpha = np.sum(prof * (mirror * j[abs(n)]) * meas)
            beta = 1j ** (n % 4) * np.sum(prof * i[abs(n)] * meas)
            assert (co.alpha[n + 7], co.beta[n + 7]) == (alpha, beta)

    def test_3d_per_degree_sums_match_mode_profiles(self):
        # reference: the profiles of one degree, gathered by (n, m), against
        # that degree's row of the regular wave tables; bit for bit
        src = gaussian_source(CTX3, center=[0.2, -0.1, 0.3], sigma=0.3)
        co = modal_coefficients(CTX3, src, 6)
        modal = project_modes(src, 6)
        kr = CTX3.kappa * modal.rule.nodes
        meas = modal.rule.weights * modal.rule.nodes**2
        j, i = regular_wave_tables(3, 6, kr)
        for n in range(7):
            profiles = np.array([modal.profile(n, m) for m in range(-n, n + 1)])
            rows = slice(n * n, (n + 1) ** 2)
            np.testing.assert_array_equal(co.alpha[rows], np.sum(profiles * j[n] * meas, axis=1))
            np.testing.assert_array_equal(co.beta[rows], 1j ** n * np.sum(profiles * i[n] * meas, axis=1))

    def test_truncated_matches_lower_projection(self):
        src = gaussian_source(CTX2, center=[0.2, -0.1], sigma=0.2)
        cut = modal_coefficients(CTX2, src, 9).truncated(5)
        low = modal_coefficients(CTX2, src, 5)
        assert cut.truncation == 5
        np.testing.assert_array_equal(cut.alpha, low.alpha)
        np.testing.assert_array_equal(cut.beta, low.beta)
        with pytest.raises(ValueError, match="truncation"):
            low.truncated(6)

    def test_norm_positive(self):
        src = gaussian_source(CTX2, sigma=0.2)
        co = modal_coefficients(CTX2, src, 4)
        assert src.l2_norm() > 0 and co.max_residual(src.l2_norm()) > 0

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_zero_source_residual_is_refused(self, ctx):
        # 0 / 0 is not a residual: 0 would read as perfectly nonradiating
        zero = SourceField.zero(ctx)
        co = modal_coefficients(ctx, zero, 4)
        assert zero.l2_norm() == 0.0
        with pytest.raises(ValueError, match="L2 norm is zero"):
            co.max_residual(zero.l2_norm())

    def test_non_finite_source_named(self):
        def func(pts):
            vals = np.ones(len(pts), dtype=complex)
            vals[0] = np.nan
            return vals

        src = SourceField.from_callable(CTX2, func)
        with pytest.raises(ValueError, match="mode profiles are not finite"):
            modal_coefficients(CTX2, src, 4)

    @pytest.mark.parametrize("make, ctx", [(make_2d_bessel_nonradiating, CTX2), (make_3d_bessel_nonradiating, CTX3)],
                             ids=["2d", "3d"])
    def test_radial_leaf_builds_no_product_grid(self, make, ctx, product_grids):
        # a radial leaf's coefficients are two radial sums of its profile and
        # read no L2 norm: its trace, transform on the circle and modal field
        # build and sample no product grid
        src = make(ctx)
        trace = boundary_trace(ctx, src, boundary_grid(ctx, 16 if ctx.dimension == 3 else 64))
        dirs, _ = direction_grid(ctx, 8)
        fourier_on_circle(ctx, src, dirs)
        eval_field_batch(ctx, src, 1.5 * dirs, method="modal")
        assert product_grids[0] == 0
        assert np.all(np.isfinite(trace.stacked()))
        assert src._norm is None

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_norm_overflow_is_refused_by_the_residual(self, ctx):
        # amplitude 1e200: finite profiles (peak 6.1e199 in 2D) and finite
        # coefficients, but the squares of the values overflow, so the L2
        # norm is inf. The trace is served; the modal residual, which would
        # read 0.0, is refused naming the norm, and so is the verdict
        src = gaussian_source(ctx, center=[0.25, 0.0, 0.0][: ctx.dimension], sigma=0.1,
                              amplitude=1e200, support_radius=0.9)
        trace = boundary_trace(ctx, src, boundary_grid(ctx, 16 if ctx.dimension == 3 else 64))
        assert np.all(np.isfinite(trace.stacked())) and np.max(np.abs(trace.stacked())) > 1e190
        assert src.l2_norm() == np.inf
        coeffs = modal_coefficients(ctx, src)
        with pytest.raises(ValueError, match=r"L2 norm is not finite \(inf\)"):
            coeffs.max_residual(src.l2_norm())
        with pytest.raises(ValueError, match=r"L2 norm is not finite \(inf\)"):
            verdict(ctx, src)


class TestClosedFormRadialControls:
    """alpha_0 and beta_0 of the radial controls f = J_0(a r) (2D) and
    j_0(a r) (3D), the source's only mode, against their closed forms
    (oracles.radial_control_coefficients), from kappa R = j_0,1 to
    j_0,14 = 43.2 in 2D and from pi to 12 pi = 37.7 in 3D, at a / kappa =
    0.5, 1.3 and 2 and at the next zero, where alpha_0 = 0 exactly.

    Each error is measured against the magnitude of the terms its
    coefficient sums (oracles.radial_control_term_scales), not against the
    coefficient: a closed form that cancels reads large relative to itself
    (3D root 11 at a / kappa = 1.3: beta_0 is 5.3e-13 off relative to
    itself, 2.4e-14 of its terms).  Measured with the default 64-node radial
    rule (numpy 2.4.6, scipy 1.17.1): alpha_0 within 3.1e-15 and beta_0
    within 2.4e-14 of their terms; |alpha_0| <= 2.7e-17 (2D, where the
    closed form at the rounded zeros is itself 1e-17) and 2.4e-18 (3D) where
    it is zero.  Beyond kappa R 55 at a = 2 kappa the 64 radial nodes no
    longer resolve f (2.2e-10 of the terms at kappa R 62), so the range
    stops at the roots above; two strict xfails pin root 30, where alpha_0
    is wrong with no refusal (ROADMAP item 1)."""

    @pytest.mark.parametrize("dimension, roots", [(2, range(1, 15)), (3, range(1, 13))], ids=["2d", "3d"])
    def test_alpha0_and_beta0_match_closed_forms(self, dimension, roots):
        for root in roots:
            ctx = WaveContext.with_root_wavenumber(dimension, 1.0, root)
            zero = (sp.jn_zeros(0, root + 1)[-1] if dimension == 2 else (root + 1) * np.pi) / ctx.radius
            for a in (0.5 * ctx.kappa, 1.3 * ctx.kappa, 2.0 * ctx.kappa, zero):
                src = SourceField.from_radial(ctx, oracles.radial_control_profile(dimension, a))
                co = modal_coefficients(ctx, src, 0)
                ref_alpha, ref_beta = oracles.radial_control_coefficients(dimension, ctx.kappa, a, ctx.radius)
                terms_alpha, terms_beta = oracles.radial_control_term_scales(dimension, ctx.kappa, a, ctx.radius)
                label = f"root {root}, a / kappa = {a / ctx.kappa:.3g}"
                assert abs(co.alpha[0] - ref_alpha) <= 1e-14 * terms_alpha, label
                assert abs(co.beta[0] - ref_beta) <= 1e-13 * terms_beta, label
                if a == zero:
                    assert abs(co.alpha[0]) <= 5e-17, label

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: 64 radial nodes do not resolve f, and nothing refuses")
    @pytest.mark.parametrize("dimension", [2, 3], ids=["2d-root30", "3d-root30"])
    def test_unresolved_control_is_refused_or_right(self, dimension):
        # f = J_0(2 kappa r) at kappa R 93.5 (2D) and j_0(2 kappa r) at 94.2
        # (3D): alpha_0 reads 0.21 and 0.31 of its terms off, with no refusal
        ctx = WaveContext.with_root_wavenumber(dimension, 1.0, 30)
        a = 2.0 * ctx.kappa
        src = SourceField.from_radial(ctx, oracles.radial_control_profile(dimension, a))
        try:
            co = modal_coefficients(ctx, src, 0)
        except (ValueError, ArithmeticError, InconsistencyError):
            return  # a refusal is a right answer
        ref_alpha, _ = oracles.radial_control_coefficients(dimension, ctx.kappa, a, ctx.radius)
        terms_alpha, _ = oracles.radial_control_term_scales(dimension, ctx.kappa, a, ctx.radius)
        assert abs(co.alpha[0] - ref_alpha) <= 1e-10 * terms_alpha


def _pointwise(leaf):
    """The radial leaf read pointwise: its function at every node of a
    product grid, projected on the grid's angles."""
    return SourceField.from_callable(leaf.ctx, leaf.evaluate, leaf.support_radius)


class TestRadialLeafCoefficients:
    """A radial leaf's modal coefficients are two radial sums of its
    profile on its own radial rule (times sqrt(4 pi) in 3D) against the
    order-0 tables at the route's kappa.  They equal the product-grid
    projection of the same profile read pointwise, and every other mode is
    exactly zero.  A nonradiating leaf's coefficients are rounding noise, so
    a difference is measured against the larger of the coefficients' peak
    and the sum of the magnitudes of the terms of the zero mode (measured
    on the Bessel sources: at most 8.0e-16, beta in 3D at root 10, and
    6.1e-17 in 2D)."""

    @staticmethod
    def _assert_matches_pointwise(ctx, leaf, truncation=12):
        # truncation 12 needs no more angles than the default grids have:
        # the pointwise projection reads its default samples
        co = modal_coefficients(ctx, leaf, truncation)
        ref = modal_coefficients(ctx, _pointwise(leaf), truncation)
        others = specfun.mode_degrees(ctx.dimension, truncation) != 0
        assert np.all(co.alpha[others] == 0.0) and np.all(co.beta[others] == 0.0)
        modal = project_modes(leaf, truncation)
        measure = modal.rule.weights * modal.rule.nodes ** (ctx.dimension - 1)
        tables = regular_wave_tables(ctx.dimension, 0, ctx.kappa * modal.rule.nodes)
        for got, want, table in zip((co.alpha, co.beta), (ref.alpha, ref.beta), tables):
            terms = np.sum(np.abs(modal.values[0] * table[0]) * measure)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), terms)

    @pytest.mark.parametrize("dimension, root", [(2, 1), (2, 4), (2, 7), (3, 1), (3, 5), (3, 10)],
                             ids=["2d-root1", "2d-root4", "2d-root7", "3d-root1", "3d-root5", "3d-root10"])
    def test_bessel_leaf_matches_pointwise_projection(self, dimension, root):
        ctx = WaveContext.with_root_wavenumber(dimension, 1.0, root)
        self._assert_matches_pointwise(ctx, _bessel(ctx))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_route_context_of_another_kappa_and_radius(self, ctx):
        # the profile stays on the leaf's own rule; only the tables take the
        # route's kappa, as the projection route's do
        route = WaveContext(ctx.dimension, 1.1 * ctx.kappa, 1.25 * ctx.radius)
        self._assert_matches_pointwise(route, _bessel(ctx))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_complex_profile_and_scaling_are_linear(self, ctx):
        real = oracles.radial_control_profile(ctx.dimension, 1.3 * ctx.kappa)
        imag = oracles.radial_control_profile(ctx.dimension, 0.5 * ctx.kappa)
        leaf = SourceField.from_radial(ctx, lambda r: real(r) + 2j * imag(r))
        self._assert_matches_pointwise(ctx, leaf)
        co = modal_coefficients(ctx, leaf, 6)
        re_co, im_co = (modal_coefficients(ctx, SourceField.from_radial(ctx, p), 6) for p in (real, imag))
        eps = np.finfo(float).eps
        for got, re_part, im_part in ((co.alpha, re_co.alpha, im_co.alpha), (co.beta, re_co.beta, im_co.beta)):
            assert np.max(np.abs(got - (re_part + 2j * im_part))) <= 4 * eps * np.max(np.abs(got))
        c = 0.5 - 1.5j
        scaled = modal_coefficients(ctx, leaf.scaled(c), 6)
        np.testing.assert_array_equal(scaled.alpha, c * co.alpha)
        np.testing.assert_array_equal(scaled.beta, c * co.beta)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_projection_is_the_profile_on_the_leafs_rule(self, ctx, monkeypatch):
        profile, sizes = _counting(lambda r: 1.0 - r**2)
        leaf = SourceField.from_radial(ctx, profile, support_radius=0.7 * ctx.radius)
        leaf.l2_norm()  # read on the default grid, and kept
        grid, _ = leaf.default_samples()
        sizes.clear()

        def refused(*args, **kwargs):
            raise AssertionError("a radial leaf's projection builds no product grid and analyses no angles")

        monkeypatch.setattr(sources, "product_grid", refused)
        monkeypatch.setattr(specfun, "rule_analysis", refused)
        monkeypatch.setattr(specfun, "_legendre_table", refused)
        modal = project_modes(leaf, default_mode_truncation(ctx) + 40)
        assert sizes == [grid.shape[0]]
        assert modal.truncation == 0 and np.array_equal(modal.rule.nodes, grid.radial.nodes)
        weight = 1.0 if ctx.dimension == 2 else np.sqrt(4.0 * np.pi)
        np.testing.assert_array_equal(modal.values[0], weight * (1.0 - grid.radial.nodes**2))
        co = modal_coefficients(ctx, leaf, 6)  # with the norm kept, the sums read no grid either
        assert co.alpha.shape == co.beta.shape == specfun.mode_degrees(ctx.dimension, 6).shape


@pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
def test_pointwise_leaf_route_context_of_another_kappa_and_radius(ctx, monkeypatch):
    # a route takes kappa from its own context and nothing else: under a
    # context of another kappa and R, a pointwise leaf (the Gaussian) is
    # read by its kept samples on its own grid, summed at the route's kappa,
    # as the same Gaussian over a context of the route's kappa and the
    # leaf's own R is
    route = WaveContext(ctx.dimension, 1.1 * ctx.kappa, 1.25 * ctx.radius)
    twin_ctx = WaveContext(ctx.dimension, route.kappa, ctx.radius)
    center = [0.2, -0.1, 0.1][: ctx.dimension]
    leaf, twin = (gaussian_source(c, center=center, sigma=0.15, support_radius=0.85) for c in (ctx, twin_ctx))
    leaf.default_samples()  # read once and kept

    def refused(grid):
        raise AssertionError("the routes read the leaf's kept samples")

    monkeypatch.setattr(leaf, "values_on", refused)
    dirs, _ = direction_grid(ctx, 8)
    got, want = modal_coefficients(route, leaf, 12), modal_coefficients(twin_ctx, twin, 12)
    np.testing.assert_array_equal(got.alpha, want.alpha)
    np.testing.assert_array_equal(got.beta, want.beta)
    np.testing.assert_array_equal(far_field(route, leaf, dirs), far_field(twin_ctx, twin, dirs))
    # the leaf's own kappa sums the same samples to other coefficients
    assert not np.array_equal(modal_coefficients(ctx, leaf, 12).alpha, got.alpha)
    assert not np.array_equal(far_field(ctx, leaf, dirs), far_field(route, leaf, dirs))


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
                assert abs(a) < 1e-13 * src.l2_norm() and abs(b) < 1e-13 * src.l2_norm()

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
        assert abs(a00) < 1e-12 * src.l2_norm()
        assert abs(b00) < 1e-12 * src.l2_norm()

    def test_all_projections_vanish_through_twenty(self):
        src = make_3d_bessel_nonradiating(CTX3, 3, 4)
        co = modal_coefficients(CTX3, src, 20)
        assert co.max_residual(src.l2_norm()) < 1e-8

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            make_3d_bessel_nonradiating(CTX3, 3, 3)
        with pytest.raises(ValueError):
            make_3d_bessel_nonradiating(CTX3, 2, 4)

    @pytest.mark.parametrize("exponents, message", [
        ((3.5, 4), "m1 must be an integer >= 3, got 3.5"),
        ((3, 4.0), "m2 must be an integer >= 3, got 4.0"),
        ((True, 4), "m1 must be an integer >= 3, got True"),
    ], ids=["m1-fraction", "m2-float", "m1-bool"])
    def test_non_integer_exponent_is_named(self, exponents, message):
        # (3.5, 4) built a profile that was NaN wherever j_0 < 0, which the
        # verdict refused without naming an exponent
        with pytest.raises(ValueError, match=re.escape(message)):
            make_3d_bessel_nonradiating(WaveContext.with_root_wavenumber(3, 1.0, 2), *exponents)

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
        # orders 0 and 1 of the pointwise read come from one table call
        truncations = []
        tables = specfun.regular_wave_tables

        def counting(dimension, truncation, x):
            truncations.append(truncation)
            return tables(dimension, truncation, x)

        monkeypatch.setattr(specfun, "regular_wave_tables", counting)
        src = make_3d_bessel_nonradiating(CTX3, 3, 4)
        truncations.clear()
        src.evaluate(np.array([[0.1, 0.2, 0.3], [0.4, -0.1, 0.2]]))
        assert truncations == [1]


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

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_image_matches_mpmath_oracle(self, ctx):
        # the centre at the origin, so each distance is exact; the distances
        # close to the centre straddle 1e-3 rho, where a form in s that
        # divides by s, s^2 and s^3 would hand over to a Taylor branch
        rho = 0.8
        near = np.array([0.0, 1e-6, 0.99e-3, 1.01e-3, 2e-3, 5e-3, 1e-2]) * rho
        s = np.concatenate([near, np.linspace(0.02, 0.99, 40) * rho])
        points = np.zeros((s.size, ctx.dimension))
        points[:, 0] = s
        got = make_bump_nonradiating(ctx, rho=rho).evaluate(points)
        want = np.array([oracles.bump_image(x * x, rho, ctx.kappa, ctx.dimension) for x in s])
        err = np.abs(got - want)
        assert np.max(err) <= 1e-14 * np.max(np.abs(want))
        assert np.all(err[: near.size] <= 1e-13 * np.abs(want[: near.size]))

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

    def test_norm_is_cached_and_is_the_sources_own(self):
        src = gaussian_source(CTX2, center=[0.4, 0.0], sigma=0.2)
        norm = src.l2_norm()
        assert src.l2_norm() == norm == gaussian_source(CTX2, center=[0.4, 0.0], sigma=0.2).l2_norm()
        # the norm is the source's, not that of the projection's truncation,
        # and the coefficients do not carry it: the norm is not linear, so
        # a sum's coefficients would have to read its leaves again for it
        fresh = gaussian_source(CTX2, center=[0.4, 0.0], sigma=0.2)
        assert not hasattr(modal_coefficients(CTX2, fresh, 2), "norm_f")
        modal = project_modes(fresh, 2)
        cut = np.sqrt(2.0 * np.pi * np.sum(np.abs(modal.values) ** 2 @ (modal.rule.weights * modal.rule.nodes)))
        assert abs(cut - norm) > 1e-3 * norm


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), complex(1.0, float("nan")), True, "2", None],
                         ids=["nan", "inf", "complex-nan", "bool", "text", "none"])
def test_scaled_refuses_a_factor_that_is_not_a_finite_number(factor):
    with pytest.raises(ValueError, match=re.escape(f"factor must be a finite number, got {factor!r}")):
        make_2d_bessel_nonradiating(CTX2).scaled(factor)


@pytest.mark.parametrize("make", [gaussian_source, make_bump_nonradiating], ids=["gaussian", "bump"])
@pytest.mark.parametrize("amplitude", [float("nan"), float("-inf"), True, "2"], ids=["nan", "inf", "bool", "text"])
def test_amplitude_must_be_a_finite_number(make, amplitude):
    with pytest.raises(ValueError, match=re.escape(f"amplitude must be a finite number, got {amplitude!r}")):
        make(CTX2, amplitude=amplitude)


@pytest.mark.parametrize(
    "make, name, value",
    [(gaussian_source, "sigma", 0.1 + 0j), (gaussian_source, "sigma", 0.1 + 0.01j),
     (gaussian_source, "support_radius", 0.9 + 0j), (gaussian_source, "support_radius", 0.9 - 0.1j),
     (make_bump_nonradiating, "rho", 0.5 + 0j), (make_bump_nonradiating, "rho", np.complex128(0.5 + 0.2j))],
    ids=["sigma-0j", "sigma-complex", "support-0j", "support-complex", "rho-0j", "rho-complex"])
def test_shape_parameters_must_be_real(make, name, value):
    # a complex width or radius used to pass the finite-number check and
    # fail later with a bare TypeError that named no parameter
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number, got {value!r}")):
        make(CTX2, **{name: value})
    assert make(CTX2, **{name: np.float64(value.real)}).l2_norm() > 0


def test_bump_amplitude_must_be_real():
    # the mollifier pair is real arithmetic: a complex amplitude would fail
    # at the first read with a casting error that names neither
    with pytest.raises(ValueError, match=re.escape("amplitude must be a real number, got 1j")):
        make_bump_nonradiating(CTX2, amplitude=1j)
    assert make_bump_nonradiating(CTX2, amplitude=np.float64(2.0)).l2_norm() > 0


class TestCoefficientCache:
    """modal_coefficients projects a source once per (context, truncation)."""

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_one_projection_per_source_and_truncation(self, ctx, projections):
        src = gaussian_source(ctx, center=[0.2, -0.1, 0.1][: ctx.dimension], sigma=0.2)
        dirs, _ = direction_grid(ctx, 8)
        for grid in (boundary_grid(ctx), boundary_grid(ctx, 16 if ctx.dimension == 3 else 128)):
            boundary_trace(ctx, src, grid, truncation=10)
        fourier_on_circle(ctx, src, dirs, truncation=10)
        laplace_on_circle(ctx, src, dirs, truncation=10)
        eval_field_batch(ctx, src, 1.5 * dirs, method="modal", truncation=10)
        assert projections == [10]
        assert modal_coefficients(ctx, src, 10) is modal_coefficients(ctx, src, np.int64(10))
        # another truncation is another projection, then kept too
        modal_coefficients(ctx, src, 12)
        modal_coefficients(ctx, src, 12)
        assert projections == [10, 12]

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_one_projection_per_verdict(self, ctx, projections):
        # the spectral syntheses take the source at the stability truncation,
        # the one the modal residual was projected at
        verdict(ctx, gaussian_source(ctx, center=[0.2, -0.1, 0.1][: ctx.dimension], sigma=0.2))
        assert projections == [default_mode_truncation(ctx) + STABILITY_MARGIN]

    @pytest.mark.parametrize("truncation", [True, 1.0], ids=["bool", "float"])
    def test_truncation_checked_before_the_lookup(self, truncation):
        # True and 1.0 hash and compare as 1, the key of the cached entry
        src = gaussian_source(CTX2, sigma=0.2)
        modal_coefficients(CTX2, src, 1)
        with pytest.raises(ValueError, match="truncation must be an integer"):
            modal_coefficients(CTX2, src, truncation)

    def test_cached_coefficients_are_read_only(self):
        co = modal_coefficients(CTX2, gaussian_source(CTX2, sigma=0.2), 4)
        for values in (co.alpha, co.beta):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    def test_derived_sources_share_their_leaves_projections(self, projections):
        f = gaussian_source(CTX2, center=[0.3, 0.0], sigma=0.2)
        g = make_2d_bessel_nonradiating(CTX2)
        co_f = modal_coefficients(CTX2, f, 6)
        co_scaled = modal_coefficients(CTX2, f.scaled(2.0), 6)
        co_sum = modal_coefficients(CTX2, f + g, 6)
        # f's projection, then g's, each kept on its leaf: a scaled source
        # or a sum projects nothing of its own
        assert projections == [6, 6]
        co_g = modal_coefficients(CTX2, g, 6)
        assert projections == [6, 6]
        np.testing.assert_array_equal(co_scaled.alpha, 2.0 * co_f.alpha)
        np.testing.assert_array_equal(co_sum.alpha, co_f.alpha + co_g.alpha)
        # g is invisible: the sum's alpha is f's to rounding, but its norm is not f's
        peak = np.max(np.abs(co_f.alpha))
        assert np.max(np.abs(co_sum.alpha - co_f.alpha)) <= 1e-13 * peak
        assert (f + g).l2_norm() > 10 * f.l2_norm()


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
    """A source reads a product grid by its rows: a from_radial source one
    radius at a time, a sum or a scaled source through its parts' rows."""

    @pytest.mark.parametrize("ctx, angular_count", [
        (CTX2, None),
        (CTX3, None),
        # the enlarged grid a 3D verdict at root 3 projects a pointwise source on
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

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_sum_reads_parts_by_structure(self, ctx):
        wave = sp.jv if ctx.dimension == 2 else sp.spherical_jn
        profile, sizes = _counting(lambda r: wave(0, ctx.kappa * r))
        bessel = SourceField.from_radial(ctx, profile)
        gauss = gaussian_source(ctx, center=[0.3, -0.2, 0.1][: ctx.dimension], sigma=0.2)
        grid = product_grid(ctx, 32)
        eps = np.finfo(float).eps
        sums = [gauss + bessel, (gauss + bessel) + gauss, gauss + (bessel + gauss),
                (gauss + bessel).scaled(0.75 - 0.5j)]
        for src in sums:
            sizes.clear()
            values = src.values_on(grid)
            assert sizes == [grid.radial.order]
            # the parts differ from a pointwise read only in how the radius of a node rounds
            pointwise = src.evaluate(grid.points)
            assert np.max(np.abs(values - pointwise)) <= 16 * eps * np.max(np.abs(pointwise))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_part_beyond_its_support_stays_out_of_a_sum(self, ctx):
        grid = product_grid(ctx, 32)
        beyond = grid.radial.nodes >= 0.5 * ctx.radius
        # the Gaussian's function is far from zero between 0.5R and R
        assert np.all(np.abs(gaussian_source(ctx, sigma=0.3).values_on(grid).reshape(grid.shape)[beyond]) > 1e-3)
        gauss = gaussian_source(ctx, sigma=0.3, support_radius=0.5 * ctx.radius)
        bessel = _bessel(ctx)
        rows = (gauss + bessel).values_on(grid).reshape(grid.shape)
        assert np.array_equal(rows[beyond], bessel.values_on(grid).reshape(grid.shape)[beyond])

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_pointwise_support_masks_nodes_at_or_beyond_it(self, ctx):
        grid = product_grid(ctx, 32, 8)
        support = grid.radial.nodes[20]  # a node sits exactly on the support radius
        src = SourceField.from_callable(ctx, lambda p: 1.0 + p[:, 0] ** 2, support_radius=support)
        rows = src.values_on(grid).reshape(grid.shape)
        inside = grid.radial.nodes < support
        assert np.all(rows[~inside] == 0.0)
        assert np.array_equal(rows[inside], (1.0 + grid.points[:, 0] ** 2).reshape(grid.shape)[inside])

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_gaussian_read_is_bitwise_pointwise(self, ctx):
        grid = product_grid(ctx, 32)
        nodes = grid.radial.nodes
        support = 0.5 * (nodes[24] + nodes[25])  # on no node
        center = np.array([0.25, -0.1, 0.15][: ctx.dimension])
        src = gaussian_source(ctx, center=center, sigma=0.2, amplitude=1.5, support_radius=support)
        # the reduction over the coordinates that the Gaussian's sum reproduces
        pts = grid.points
        q = np.sum((pts - center) ** 2, axis=-1) / (2.0 * 0.2 * 0.2)
        expected = np.where(np.linalg.norm(pts, axis=-1) >= support, 0.0, 1.5 * np.exp(-q))
        for values in (src.values_on(grid), src.evaluate(pts)):
            assert values.dtype == float and np.array_equal(values, expected)


class TestSampleRead:
    """Every read of a source returns its rows in np.result_type(rows, float):
    real or complex as the source gives them, never narrower than float,
    and a complex read keeps a zero imaginary part.  A grid of another
    dimension than the source's is refused."""

    def test_grid_of_another_dimension_is_refused(self):
        # it used to return 512 values built from the first two coordinates
        src = gaussian_source(CTX2, sigma=0.3)
        with pytest.raises(ValueError, match="the grid is 3D but the source is 2D"):
            src.values_on(product_grid(CTX3, 16, 4))

    def test_3d_source_on_a_2d_grid_is_refused(self):
        # it used to fail inside numpy, broadcasting (128, 2) points against a 3D centre
        src = make_bump_nonradiating(CTX3)
        with pytest.raises(ValueError, match="the grid is 2D but the source is 3D"):
            src.values_on(product_grid(CTX2, 16, 8))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_narrow_reads_widen_to_float(self, ctx):
        grid = product_grid(ctx, 16, 8)
        pointwise = SourceField.from_callable(ctx, lambda p: (p[:, 0] > 0).astype(np.int8))
        single = SourceField.from_callable(ctx, lambda p: np.exp(-np.sum(p**2, axis=-1)).astype(np.float32))
        radial = SourceField.from_radial(ctx, lambda r: np.ones(np.shape(r), dtype=np.float32))
        for src in (pointwise, single, radial, single.scaled(2), pointwise + radial):
            assert src.values_on(grid).dtype == float

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_zero_imaginary_part_stays_complex(self, ctx):
        # a function that returns complex values reads complex
        grid = product_grid(ctx, 16, 8)
        src = SourceField.from_callable(ctx, lambda p: np.exp(-np.sum(p**2, axis=-1)) + 0j)
        for read in (src, src.scaled(1.0), src + SourceField.zero(ctx)):
            values = read.values_on(grid)
            assert values.dtype == complex and not np.any(values.imag)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_real_valued_complex_amplitude_reads_float(self, ctx):
        # a complex factor or amplitude with a zero imaginary part is kept as
        # its real part at construction: the source reads one real row
        grid = product_grid(ctx, 16, 8)
        gauss = gaussian_source(ctx)
        reads = [(gauss.scaled(2 + 0j), gauss.scaled(2.0)), (gauss.scaled(np.complex128(2 - 0j)), gauss.scaled(2.0)),
                 (gaussian_source(ctx, amplitude=1.5 + 0j), gaussian_source(ctx, amplitude=1.5))]
        for read, real in reads:
            values, expected = read.values_on(grid), real.values_on(grid)
            assert values.dtype == float
            assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
        assert gaussian_source(ctx, amplitude=1.5 + 0.5j).values_on(grid).dtype == complex

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_pointwise_read_has_the_grid_read_dtype_and_bits(self, ctx):
        # evaluate and values_on give one dtype and the same bits, real
        # sources real; a radial source is compared at points on an axis,
        # whose norms are its radial nodes exactly
        grid = product_grid(ctx, 16, 8)
        nodes = grid.radial.nodes
        support = 0.5 * (nodes[12] + nodes[13])  # on no node
        gauss = gaussian_source(ctx, center=[0.1, -0.2, 0.05][: ctx.dimension], sigma=0.3, support_radius=support)
        complex_gauss = gaussian_source(ctx, sigma=0.4, amplitude=1.0 - 2.0j)
        for src in (gauss, gauss.scaled(-1.5), gauss.scaled(0.5j), gauss + complex_gauss, gauss + gauss.scaled(3)):
            pointwise, read = src.evaluate(grid.points), src.values_on(grid)
            assert pointwise.dtype == read.dtype
            assert np.array_equal(pointwise.view(np.uint64), read.view(np.uint64))
        axis = np.zeros((len(nodes), ctx.dimension))
        axis[:, 0] = nodes
        for src in (SourceField.from_radial(ctx, lambda r: np.cos(3.0 * r), support_radius=support),
                    SourceField.from_radial(ctx, lambda r: np.exp(1j * r))):
            pointwise, read = src.evaluate(axis), np.ascontiguousarray(src.values_on(grid).reshape(grid.shape)[:, 0])
            assert pointwise.dtype == read.dtype
            assert np.array_equal(pointwise.view(np.uint64), read.view(np.uint64))
        assert SourceField.from_radial(ctx, np.cos).evaluate(axis).dtype == float

    def test_function_reads_blocks_of_whole_rows(self):
        # the default 3D grid (51 rows of 2048 nodes) is read in blocks of
        # at most context._BLOCK_BUDGET nodes, in order, with the bits of one call
        # on all its points
        gauss = gaussian_source(CTX3, center=[0.1, -0.2, 0.05], sigma=0.3, support_radius=0.9)
        blocks = []

        def func(points):
            blocks.append(points)
            return gauss._func(points)

        grid, values = SourceField.from_callable(CTX3, func, support_radius=0.9).default_samples()
        ring = grid.angular.count
        assert len(blocks) > 1
        assert all(len(b) % ring == 0 and len(b) <= context._BLOCK_BUDGET for b in blocks)
        assert np.array_equal(np.concatenate(blocks), grid.points)
        assert np.array_equal(values.view(np.uint64), gauss.values_on(grid).view(np.uint64))
        assert np.array_equal(values.view(np.uint64), gauss.evaluate(grid.points).view(np.uint64))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_zero_source_reads_real_zeros(self, ctx):
        grid, values = SourceField.zero(ctx).default_samples()
        assert values.dtype == float and not np.any(values) and not np.any(np.signbit(values))


class TestSupportGrid:
    """A source's default grid, and its finer-angle projection grid, end at
    its support: the radial nodes below the support radius, those of the
    whole [0, R] rule."""

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_default_grid_keeps_the_nodes_inside_the_support(self, ctx):
        center = [0.2, -0.1, 0.1][: ctx.dimension]
        kept = {0.85: 48, 0.9: 51, 0.95: 55}
        for support, rows in kept.items():
            grid, values = gaussian_source(ctx, center=center, support_radius=support).default_samples()
            assert grid.shape[0] == rows and values.shape == (rows * grid.angular.count,)
            assert grid.radial.nodes[-1] < support
        assert _bessel(ctx).default_samples()[0].shape[0] == 64
        assert make_bump_nonradiating(ctx).default_samples()[0].shape[0] == 226  # of 320

    def test_node_at_the_support_is_dropped(self):
        # by the default grid, by a pointwise source's finer-angle projection
        # grid and by a radial leaf's radial rule
        nodes = product_grid(CTX2, 64).radial.nodes
        radial = SourceField.from_radial(CTX2, lambda r: 1.0 + r, support_radius=nodes[20])
        pointwise = SourceField.from_callable(CTX2, lambda p: 1.0 + np.linalg.norm(p, axis=-1),
                                              support_radius=nodes[20])
        for src in (radial, pointwise):
            assert src.default_samples()[0].shape[0] == 20
            modal = project_modes(src, default_mode_truncation(CTX2) + 200)
            assert np.array_equal(modal.rule.nodes, nodes[:20])

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_support_inside_the_first_node_is_refused(self, ctx):
        # its grid would hold no node, so every route would sum nothing and a
        # verdict would certify it nonradiating with zero residuals: refused,
        # naming the support radius and the first node
        first = product_grid(ctx, 64).radial.nodes[0]
        for support in (1e-4, float(first)):
            with pytest.raises(SupportViolationError) as info:
                gaussian_source(ctx, sigma=0.1, support_radius=support)
            assert f"support_radius {support} " in str(info.value) and f"node {first:.6g} " in str(info.value)
        src = gaussian_source(ctx, sigma=0.1, support_radius=np.nextafter(first, 1.0))
        assert src.default_samples()[0].shape[0] == 1

    def test_radial_order_is_checked_at_construction(self):
        # 2.5 used to construct, then fail in numpy on the first sample
        for order in (2.5, 1, True):
            with pytest.raises(ValueError, match="radial order must be an integer >= 2"):
                SourceField(CTX2, lambda pts: np.zeros(len(pts)), CTX2.radius, order)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_sum_with_a_whole_ball_part_keeps_every_node(self, ctx):
        gauss = gaussian_source(ctx, sigma=0.3, support_radius=0.5 * ctx.radius)
        bessel = _bessel(ctx)
        assert gauss.default_samples()[0].shape[0] < 64
        grid, values = (gauss + bessel).default_samples()
        assert grid.shape[0] == 64
        # the Gaussian's rows stay zero beyond its own support
        beyond = grid.radial.nodes >= 0.5 * ctx.radius
        rows, bessel_rows = values.reshape(grid.shape), bessel.default_samples()[1].reshape(grid.shape)
        assert np.array_equal(rows[beyond], bessel_rows[beyond])


@pytest.mark.parametrize("order", [2.7, True, 1], ids=["fraction", "bool", "below-2"])
def test_explicit_radial_order_is_checked(order):
    # int() read 2.7 as 2 and True as 1
    src = gaussian_source(CTX2)
    with pytest.raises(ValueError, match=re.escape(f"radial order must be an integer >= 2, got {order!r}")):
        src.resolve_radial_order(order)
    assert src.resolve_radial_order(np.int64(48)) == 48 and src.resolve_radial_order() == src.radial_order


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
