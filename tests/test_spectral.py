"""Characterization machinery: transforms, trace functionals, verdicts."""

import numpy as np
import pytest
from scipy import special as sp

from biharwave import WaveContext
from biharwave.fields import BoundaryTrace, boundary_trace
from biharwave.quadrature import boundary_grid, product_grid
from biharwave.sources import (
    SourceField,
    gaussian_source,
    make_2d_bessel_nonradiating,
    make_3d_bessel_nonradiating,
    make_bump_nonradiating,
)
from biharwave.spectral import (
    PROBE_FACTORS,
    VerdictConfig,
    direction_grid,
    fourier_on_circle,
    fourier_transform_quadrature,
    laplace_on_circle,
    laplace_transform_quadrature,
    nullspace_residual,
    u_hat_from_trace,
    v_check_from_trace,
    verdict,
)

import oracles

CTX2 = WaveContext.with_root_wavenumber(2, 1.0, 1)
CTX3 = WaveContext.with_root_wavenumber(3, 1.0, 1)


def _gaussian(ctx):
    center = [0.25, 0.0] if ctx.dimension == 2 else [0.2, 0.1, 0.15]
    return gaussian_source(ctx, center=center, sigma=0.1, support_radius=0.9)


class TestFourierOnCircle:
    def test_constant_source_closed_form(self):
        src = SourceField.from_radial(CTX2, lambda r: np.ones_like(r))
        dirs, _ = direction_grid(CTX2, 16)
        vals = fourier_on_circle(CTX2, src, dirs)
        k, R = CTX2.kappa, CTX2.radius
        closed = 2.0 * np.pi * R * sp.jv(1, k * R) / k
        reduction = 2.0 * np.pi * oracles.adaptive_radial(
            lambda r: oracles.j_series(0, k * r).real * r, 0.0, R
        )
        assert np.allclose(vals, closed, rtol=1e-12)
        assert np.allclose(vals, reduction, rtol=1e-10)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_modal_equals_quadrature(self, ctx):
        src = _gaussian(ctx)
        dirs, _ = direction_grid(ctx, 32)
        modal = fourier_on_circle(ctx, src, dirs)
        quad = fourier_transform_quadrature(ctx, src, dirs)
        assert np.max(np.abs(modal - quad)) < 1e-9 * src.l2_norm()

    def test_nonradiating_dark(self):
        src = make_2d_bessel_nonradiating(CTX2)
        dirs, _ = direction_grid(CTX2, 32)
        vals = fourier_on_circle(CTX2, src, dirs)
        assert np.max(np.abs(vals)) < 1e-8 * src.l2_norm()

    def test_conjugate_symmetry_real_source(self):
        src = _gaussian(CTX2)  # real-valued
        dirs, _ = direction_grid(CTX2, 8)
        fwd = fourier_on_circle(CTX2, src, dirs)
        bwd = fourier_on_circle(CTX2, src, -dirs)
        assert np.allclose(bwd, np.conj(fwd), rtol=1e-10)

    def test_rejects_non_unit_directions(self):
        with pytest.raises(ValueError):
            fourier_on_circle(CTX2, _gaussian(CTX2), np.array([[0.5, 0.0]]))


class TestLaplaceOnCircle:
    def test_constant_source_radial_reduction(self):
        src = SourceField.from_radial(CTX2, lambda r: np.ones_like(r))
        dirs, _ = direction_grid(CTX2, 12)
        vals = laplace_on_circle(CTX2, src, dirs)
        k = CTX2.kappa
        ref = 2.0 * np.pi * oracles.adaptive_radial(
            lambda r: oracles.i_series(0, k * r) * r, 0.0, CTX2.radius
        )
        assert np.allclose(vals, ref, rtol=1e-10)
        assert np.max(np.abs(np.diff(vals))) < 1e-12 * abs(ref)  # direction-independent

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_modal_equals_quadrature(self, ctx):
        src = _gaussian(ctx)
        dirs, _ = direction_grid(ctx, 32)
        modal = laplace_on_circle(ctx, src, dirs)
        quad = laplace_transform_quadrature(ctx, src, dirs)
        assert np.max(np.abs(modal - quad)) < 1e-9 * src.l2_norm()

    def test_real_for_real_source(self):
        src = _gaussian(CTX2)
        dirs, _ = direction_grid(CTX2, 16)
        vals = laplace_on_circle(CTX2, src, dirs)
        assert np.max(np.abs(vals.imag)) < 1e-12 * np.max(np.abs(vals.real))

    def test_nonradiating_dark(self):
        src = make_3d_bessel_nonradiating(CTX3)
        dirs, _ = direction_grid(CTX3, 16)
        vals = laplace_on_circle(CTX3, src, dirs)
        assert np.max(np.abs(vals)) < 1e-8 * src.l2_norm()

    def test_overflow_guard(self):
        big = WaveContext(2, 800.0, 1.0)
        src = gaussian_source(big, sigma=0.2)
        dirs, _ = direction_grid(big, 4)
        with pytest.raises(OverflowError):
            laplace_on_circle(big, src, dirs)


class TestTraceFunctionals:
    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_fourier_identity(self, ctx):
        src = _gaussian(ctx)
        grid = boundary_grid(ctx, 32 if ctx.dimension == 3 else 256)
        tr = boundary_trace(ctx, src, grid)
        dirs, _ = direction_grid(ctx, 64)
        uhat = u_hat_from_trace(ctx, tr, dirs)
        fhat = fourier_on_circle(ctx, src, dirs)
        assert np.max(np.abs(uhat - fhat)) < 1e-6 * src.l2_norm()

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_exponential_identity(self, ctx):
        src = _gaussian(ctx)
        grid = boundary_grid(ctx, 32 if ctx.dimension == 3 else 256)
        tr = boundary_trace(ctx, src, grid)
        dirs, _ = direction_grid(ctx, 64)
        vcheck = v_check_from_trace(ctx, tr, dirs)
        fcheck = laplace_on_circle(ctx, src, dirs)
        assert np.max(np.abs(vcheck - fcheck)) < 1e-6 * src.l2_norm()

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_zero_trace_gives_zero(self, ctx):
        grid = boundary_grid(ctx, 32)
        tr = boundary_trace(ctx, SourceField.zero(ctx), grid)
        dirs, _ = direction_grid(ctx, 8)
        assert np.max(np.abs(u_hat_from_trace(ctx, tr, dirs))) == 0.0
        assert np.max(np.abs(v_check_from_trace(ctx, tr, dirs))) == 0.0

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    @pytest.mark.parametrize("oscillating", [True, False], ids=["u_hat", "v_check"])
    def test_matches_dense_integrand_on_arbitrary_channels(self, ctx, oscillating):
        # channels that come from no source: the paper's integrand,
        # -sum w [(d_nu lap u + c d_nu u) + (z . nu)(lap u + c u)] exp(-z . x)
        # with c = z . z, summed term by term in complex arithmetic
        grid = boundary_grid(ctx, 24 if ctx.dimension == 3 else 96)
        rng = np.random.default_rng(7)
        shape = (4, len(grid.weights))
        u, du, lap, dlap = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tr = BoundaryTrace(grid, u, du, lap, dlap)
        dirs, _ = direction_grid(ctx, 16)
        z = (1j if oscillating else 1.0) * ctx.kappa * dirs
        c = np.sum(z * z, axis=1)[:, None]
        integrand = (dlap + c * du) + (z @ grid.normals.T) * (lap + c * u)
        terms = integrand * np.exp(-(z @ grid.points.T)) * grid.weights
        transform = u_hat_from_trace if oscillating else v_check_from_trace
        got = transform(ctx, tr, dirs)
        assert np.all(np.abs(got + terms.sum(axis=1)) <= 1e-13 * np.abs(terms).sum(axis=1))

    def test_linearity_in_trace(self):
        import dataclasses

        src = _gaussian(CTX2)
        grid = boundary_grid(CTX2, 64)
        tr = boundary_trace(CTX2, src, grid)
        doubled = dataclasses.replace(
            tr,
            u=2 * tr.u,
            du_dnu=2 * tr.du_dnu,
            lap_u=2 * tr.lap_u,
            dlap_u_dnu=2 * tr.dlap_u_dnu,
        )
        dirs, _ = direction_grid(CTX2, 8)
        assert np.allclose(
            v_check_from_trace(CTX2, doubled, dirs),
            2.0 * v_check_from_trace(CTX2, tr, dirs),
            rtol=1e-13,
        )

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_nonradiating_trace_functionals_dark(self, ctx):
        src = make_2d_bessel_nonradiating(ctx) if ctx.dimension == 2 else make_3d_bessel_nonradiating(ctx)
        grid = boundary_grid(ctx, 256 if ctx.dimension == 2 else 32)
        tr = boundary_trace(ctx, src, grid)
        dirs, _ = direction_grid(ctx, 16)
        assert np.max(np.abs(u_hat_from_trace(ctx, tr, dirs))) < 1e-8 * src.l2_norm()
        assert np.max(np.abs(v_check_from_trace(ctx, tr, dirs))) < 1e-8 * src.l2_norm()


class TestNullspaceResidual:
    def test_invisible_sources_in_nullspace(self):
        src = make_2d_bessel_nonradiating(CTX2)
        resid = nullspace_residual(CTX2, src, [1.5, 2.0, 3.0])
        assert resid < 1e-8 * src.l2_norm()

    def test_single_mode_source_outside_nullspace(self):
        k = CTX2.kappa
        src = SourceField.from_callable(CTX2, oracles.single_mode(lambda r: sp.jv(1, k * r), 1))
        alpha1 = oracles.adaptive_radial(
            lambda r: oracles.j_series(1, k * r).real ** 2 * r, 0.0, 1.0
        )
        assert alpha1 > 0
        resid = nullspace_residual(CTX2, src, [1.5])
        assert resid > 0.1 * alpha1

    def test_zero_source(self):
        assert nullspace_residual(CTX2, SourceField.zero(CTX2), [2.0]) == 0.0

    def test_probe_radii_validated(self):
        with pytest.raises(ValueError):
            nullspace_residual(CTX2, SourceField.zero(CTX2), [0.5])


class TestVerdict:
    @pytest.mark.parametrize(
        "ctx, factory",
        [
            (CTX2, make_2d_bessel_nonradiating),
            (CTX2, make_bump_nonradiating),
            (CTX3, make_3d_bessel_nonradiating),
            (CTX3, make_bump_nonradiating),
        ],
        ids=["bessel-2d", "bump-2d", "bessel-3d", "bump-3d"],
    )
    def test_invisible_families_certified(self, ctx, factory):
        result = verdict(ctx, factory(ctx))
        assert result.is_nonradiating
        assert result.residual_modal <= 1e-6
        assert result.residual_spectral <= 1e-6
        assert result.residual_field <= 1e-6

    def test_gaussian_radiates(self):
        result = verdict(CTX2, _gaussian(CTX2))
        assert not result.is_nonradiating
        assert result.residual_spectral > 1e-2

    def test_zero_source_convention(self):
        result = verdict(CTX2, SourceField.zero(CTX2))
        assert result.is_nonradiating
        assert result.residual_modal == 0.0
        assert result.residual_spectral == 0.0
        assert result.residual_field == 0.0

    def test_scaling_invariance(self):
        # residuals are normalized by the source norm, so rescaling the
        # source cannot move the verdict
        src = make_2d_bessel_nonradiating(CTX2)
        big = verdict(CTX2, src.scaled(1e4))
        small = verdict(CTX2, src.scaled(1e-4))
        base = verdict(CTX2, src)
        assert big.is_nonradiating == small.is_nonradiating == base.is_nonradiating is True
        radiator = _gaussian(CTX2)
        scaled = verdict(CTX2, radiator.scaled(37.0))
        unscaled = verdict(CTX2, radiator)
        assert scaled.is_nonradiating == unscaled.is_nonradiating is False
        assert scaled.residual_modal == pytest.approx(unscaled.residual_modal, rel=1e-10)

    def test_truncation_monotonicity(self):
        from biharwave.sources import modal_coefficients

        src = _gaussian(CTX2)
        resids = [
            modal_coefficients(CTX2, src, N).max_residual() for N in (4, 8, 16, 24)
        ]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(resids, resids[1:]))

    def test_report_dict_keys(self):
        result = verdict(CTX2, SourceField.zero(CTX2))
        assert set(result.to_dict()) == {
            "residual_modal", "residual_spectral", "residual_field",
            "N", "tolerance", "is_nonradiating",
        }

    def test_config_tolerance_respected(self):
        src = make_2d_bessel_nonradiating(CTX2)
        tight = verdict(CTX2, src, VerdictConfig(tolerance=1e-10))
        assert tight.tolerance == 1e-10
        assert tight.is_nonradiating

    @pytest.mark.parametrize(
        "kwargs",
        [{"tolerance": -1.0}, {"tolerance": 0.0}, {"tolerance": np.nan}, {"tolerance": np.inf},
         {"truncation": -1}, {"direction_count": 0}],
        ids=["tol-neg", "tol-zero", "tol-nan", "tol-inf", "trunc-neg", "dirs-zero"],
    )
    def test_config_refuses_meaningless_values(self, kwargs):
        # a tolerance no residual can meet would call an invisible source radiating
        with pytest.raises(ValueError):
            VerdictConfig(**kwargs)

    def test_truncation_too_low_raises_inconsistency(self):
        from biharwave.spectral import InconsistencyError

        # a pure order-9 source viewed with truncation 0 (re-checked at 8):
        # the mode and spectral routes see nothing while the field route
        # sees radiation
        k = CTX2.kappa
        src = SourceField.from_callable(CTX2, oracles.single_mode(lambda r: sp.jv(9, k * r), 9))
        with pytest.raises(InconsistencyError, match="disagree"):
            verdict(CTX2, src, VerdictConfig(truncation=0))

    def test_source_read_once_per_route(self, monkeypatch):
        # the norm and the field route's quadrature share the source's
        # default grid, sampled once.  In 2D the projection at the stability
        # truncation needs no more angles than that grid has and reads the
        # same samples: one read.  In 3D it needs more polar rings: a second
        # read.  The check at the working truncation cuts that projection back
        reads = []
        values_on = SourceField.values_on

        def counting(self, grid):
            reads.append(grid.points.shape)
            return values_on(self, grid)

        monkeypatch.setattr(SourceField, "values_on", counting)
        verdict(CTX2, _gaussian(CTX2))
        assert len(reads) == 1
        src = _gaussian(CTX3)
        verdict(CTX3, src)
        assert len(reads) == 3
        assert reads[1] == product_grid(CTX3, src.resolve_radial_order()).points.shape

    def test_field_route_shares_kernel_rows(self, kernel_values):
        # the probes are images of each other under the source grid's
        # symmetries, so the field route evaluates one kernel table per
        # group: in 2D the probes lie on the grid's angle lattice, one
        # group per probe radius; if the grouping missed them, each probe
        # would take its own table, 16 times as many kernel values
        src = _gaussian(CTX2)
        verdict(CTX2, src)
        grid = product_grid(CTX2, src.resolve_radial_order())
        assert kernel_values[0] <= len(PROBE_FACTORS) * grid.radial.order * grid.angular.count
        # in 3D the 18 directions fall into 2 azimuth classes times 2 polar
        # classes, 12 groups over the three radii instead of 54 probes
        kernel_values[0] = 0
        src = _gaussian(CTX3)
        verdict(CTX3, src)
        grid = product_grid(CTX3, src.resolve_radial_order())
        assert kernel_values[0] <= 12 * grid.points.shape[0]


class TestNonuniqueness:
    def test_invisible_perturbation(self):
        f = _gaussian(CTX2)
        g = make_2d_bessel_nonradiating(CTX2)
        g = g.scaled(f.l2_norm() / g.l2_norm())  # unit relative size
        grid = boundary_grid(CTX2, 128)
        tr_f = boundary_trace(CTX2, f, grid)
        tr_fg = boundary_trace(CTX2, f + g, grid)
        gap = np.max(np.abs(tr_f.stacked() - tr_fg.stacked()))
        assert gap < 1e-8 * (f.l2_norm() + g.l2_norm())

    def test_scaled_perturbation_still_invisible(self):
        f = _gaussian(CTX2)
        g = make_2d_bessel_nonradiating(CTX2).scaled(1e3)
        grid = boundary_grid(CTX2, 64)
        gap = np.max(
            np.abs(
                boundary_trace(CTX2, f, grid).stacked()
                - boundary_trace(CTX2, f + g, grid).stacked()
            )
        )
        assert gap < 1e-5 * g.l2_norm()


class TestConsistencyTriangle:
    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_all_routes_agree(self, ctx):
        src = _gaussian(ctx)
        norm = src.l2_norm()
        dirs, _ = direction_grid(ctx, 16)
        fhat_m = fourier_on_circle(ctx, src, dirs)
        fhat_q = fourier_transform_quadrature(ctx, src, dirs)
        grid = boundary_grid(ctx, 32 if ctx.dimension == 3 else 256)
        tr = boundary_trace(ctx, src, grid)
        uhat = u_hat_from_trace(ctx, tr, dirs)
        fcheck = laplace_on_circle(ctx, src, dirs)
        vcheck = v_check_from_trace(ctx, tr, dirs)
        assert np.max(np.abs(fhat_m - fhat_q)) < 1e-9 * norm
        assert np.max(np.abs(fhat_m - uhat)) < 1e-6 * norm
        assert np.max(np.abs(fcheck - vcheck)) < 1e-6 * norm

