"""Characterization machinery: transforms, trace functionals, verdicts."""

import json
import re

import numpy as np
import pytest
from scipy import special as sp

from biharwave import WaveContext, specfun
from biharwave.fields import BoundaryTrace, boundary_trace, eval_field_batch, far_field
from biharwave.quadrature import boundary_grid
from biharwave.sources import (
    SourceField,
    default_mode_truncation,
    gaussian_source,
    make_2d_bessel_nonradiating,
    make_3d_bessel_nonradiating,
    make_bump_nonradiating,
    modal_coefficients,
)
from biharwave.spectral import (
    PROBE_FACTORS,
    STABILITY_MARGIN,
    InconsistencyError,
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
    """A Gaussian whose centre, width and support scale with R."""
    center = [0.25, 0.0] if ctx.dimension == 2 else [0.2, 0.1, 0.15]
    R = ctx.radius
    return gaussian_source(ctx, center=np.multiply(R, center), sigma=0.1 * R, support_radius=0.9 * R)


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


class TestDirectionCheck:
    """Directions are unit vectors within 1e-12 absolute: a direction scaled
    by 1 + 1e-9 is refused (np.allclose's default relative tolerance let
    1 + 5e-6 through), and those of direction_grid and normalized random
    vectors pass."""

    @staticmethod
    def _routes(ctx):
        src = _gaussian(ctx)
        trace = boundary_trace(ctx, src, boundary_grid(ctx, 16 if ctx.dimension == 3 else 64), truncation=8)
        return {"far_field": lambda dirs: far_field(ctx, src, dirs),
                "fourier_on_circle": lambda dirs: fourier_on_circle(ctx, src, dirs, truncation=8),
                "u_hat_from_trace": lambda dirs: u_hat_from_trace(ctx, trace, dirs)}

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_scaled_directions_are_refused(self, ctx):
        dirs, _ = direction_grid(ctx, 8)
        for name, route in self._routes(ctx).items():
            with pytest.raises(ValueError, match="directions must be unit vectors"):
                route((1.0 + 1e-9) * dirs)
            with pytest.raises(ValueError, match="directions must be finite"):
                route(np.vstack([dirs[:3], [np.nan] * ctx.dimension]))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_unit_directions_pass(self, ctx):
        rng = np.random.default_rng(17)
        random = rng.normal(size=(64, ctx.dimension))
        random /= np.linalg.norm(random, axis=1, keepdims=True)
        grid = direction_grid(ctx, 32)[0]
        for name, route in self._routes(ctx).items():
            for dirs in (grid, random):
                assert np.all(np.isfinite(route(dirs))), name


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

    def test_trace_of_another_context_is_refused(self):
        # a trace keeps the context it was taken in.  This one, at R = 2,
        # summed under R = 1 would scale its nodes and weights by the wrong
        # R and miss f_hat by 0.97 of its peak; under another kappa it would
        # pair its channels with the wrong waves.  Both are refused, naming
        # both contexts; under its own context the identity holds
        ctx = WaveContext.with_root_wavenumber(2, 2.0, 1)
        src = _gaussian(ctx)
        trace = boundary_trace(ctx, src, boundary_grid(ctx))
        dirs, _ = direction_grid(ctx, 16)
        assert np.max(np.abs(u_hat_from_trace(ctx, trace, dirs) - fourier_on_circle(ctx, src, dirs))) \
            < 1e-6 * src.l2_norm()
        assert np.max(np.abs(v_check_from_trace(ctx, trace, dirs) - laplace_on_circle(ctx, src, dirs))) \
            < 1e-6 * src.l2_norm()
        for other in (WaveContext(2, ctx.kappa, 1.0), WaveContext(2, 1.5 * ctx.kappa, 2.0)):
            for transform in (u_hat_from_trace, v_check_from_trace):
                with pytest.raises(ValueError, match=re.escape(f"the trace was taken in {ctx} but is summed in {other}")):
                    transform(other, trace, dirs)

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
        # with c = z . z, summed term by term in complex arithmetic; complex
        # channels, then their real parts as real arrays
        grid = boundary_grid(ctx, 24 if ctx.dimension == 3 else 96)
        rng = np.random.default_rng(7)
        shape = (4, len(grid.weights))
        channels = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dirs, _ = direction_grid(ctx, 16)
        z = (1j if oscillating else 1.0) * ctx.kappa * dirs
        c = np.sum(z * z, axis=1)[:, None]
        transform = u_hat_from_trace if oscillating else v_check_from_trace
        # the boundary nodes R nu and their surface weights R**(d-1) w
        nodes, weights = ctx.radius * grid.directions, ctx.radius ** (ctx.dimension - 1) * grid.weights
        for u, du, lap, dlap in (channels, channels.real):
            integrand = (dlap + c * du) + (z @ grid.directions.T) * (lap + c * u)
            terms = integrand * np.exp(-(z @ nodes.T)) * weights
            got = transform(ctx, BoundaryTrace(ctx, grid, u, du, lap, dlap), dirs)
            assert got.shape == (len(dirs),)
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

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_regular_waves_per_mode_match_scipy(self, ctx, monkeypatch):
        # the regular-wave probe integral reads one table value per order
        # (3D: degree) and radius, expanded over the modes; on scipy's order
        # sweeps instead the residual moves by rounding only
        src = _gaussian(ctx)
        radii = [1.05, 1.5, 3.0]
        got = nullspace_residual(ctx, src, radii, 12)
        wave, modified = (sp.jv, sp.iv) if ctx.dimension == 2 else (sp.spherical_jn, sp.spherical_in)

        def scipy_tables(dimension, truncation, x):
            orders = np.arange(truncation + 1)[:, None]
            return wave(orders, x), modified(orders, x)

        monkeypatch.setattr(specfun, "regular_wave_tables", scipy_tables)
        ref = nullspace_residual(ctx, src, radii, 12)
        assert abs(got - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_matches_field_quadrature(self, ctx):
        # an independent route to the same value: outside the support the
        # regular-wave integral of a real source is a fixed multiple of
        # Im f_h (2D: -4 Im f_h, 3D: -(4 pi / kappa) Im f_h), and the
        # decaying-kernel integral is -f_m, both from the direct kernel
        # quadrature at the 16-direction probes (measured: 0 in 2D, 2.5e-15
        # relative in 3D)
        src = _gaussian(ctx)
        radii = np.array([1.05, 1.5, 3.0]) * ctx.radius
        dirs, _ = direction_grid(ctx, 16)
        pts = np.vstack([r * dirs for r in radii])
        _, f_h, f_m = eval_field_batch(ctx, src, pts, method="quadrature")
        scale = 4.0 if ctx.dimension == 2 else 4.0 * np.pi / ctx.kappa
        ref = float(np.max(np.abs(scale * f_h.imag) + np.abs(f_m)))
        assert abs(nullspace_residual(ctx, src, radii) - ref) <= 1e-9 * ref

    def test_probe_radii_validated(self):
        with pytest.raises(ValueError):
            nullspace_residual(CTX2, SourceField.zero(CTX2), [0.5])

    @pytest.mark.parametrize(
        "radii, match",
        [([], r"non-empty .*\[\]"), (np.empty((0, 1)), r"shape \(0, 1\)"), ([[1.5, 2.0]], r"shape \(1, 2\)"),
         ([np.nan], r"finite, got \[nan\]"), ([1.5, np.inf], r"finite, got \[inf\]")],
        ids=["empty", "empty-2d", "2d", "nan", "inf"],
    )
    def test_meaningless_probe_radii_refused(self, radii, match):
        # the Gaussian radiates (0.091 at 1.5 R): an empty probe set used
        # to return 0.0 for it, a non-finite radius failed inside specfun and
        # a 2-D set as a broadcast error
        src = gaussian_source(CTX2, center=[0.25, 0.0], sigma=0.2)
        assert nullspace_residual(CTX2, src, [1.5]) > 1e-2
        with pytest.raises(ValueError, match=f"probe_radii must .*{match}"):
            nullspace_residual(CTX2, src, radii)


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
        # every residual would be 0 / 0: no route can tell the zero source
        # from a nonradiating one, so the verdict refuses it, naming the grid
        with pytest.raises(InconsistencyError, match=r"zero at every node of its grid \(64 radial x 256 angular"):
            verdict(CTX2, SourceField.zero(CTX2))

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
        src = _gaussian(CTX2)
        resids = [
            modal_coefficients(CTX2, src, N).max_residual(src.l2_norm()) for N in (4, 8, 16, 24)
        ]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(resids, resids[1:]))

    def test_report_dict_keys(self):
        result = verdict(CTX2, make_2d_bessel_nonradiating(CTX2))
        assert set(result.to_dict()) == {
            "residual_modal", "residual_spectral", "residual_field",
            "N", "tolerance", "is_nonradiating",
        }

    def test_numbers_are_python_scalars(self):
        # plain Python numbers: a numpy scalar shows as np.float64(...) in
        # to_dict(), and a numpy integer is not JSON-serializable
        result = verdict(CTX2, _gaussian(CTX2))
        for value in [*vars(result).values(), *result.to_dict().values()]:
            assert type(value) in (float, int, bool)

    def test_config_tolerance_respected(self):
        src = make_2d_bessel_nonradiating(CTX2)
        tight = verdict(CTX2, src, VerdictConfig(tolerance=1e-10))
        assert tight.tolerance == 1e-10
        assert tight.is_nonradiating

    @pytest.mark.parametrize(
        "kwargs",
        [{"tolerance": -1.0}, {"tolerance": 0.0}, {"tolerance": np.nan}, {"tolerance": np.inf},
         {"truncation": -1}, {"direction_count": 0},
         {"truncation": 2.5}, {"truncation": True}, {"direction_count": 2.5},
         {"direction_count": True}, {"tolerance": True}],
        ids=["tol-neg", "tol-zero", "tol-nan", "tol-inf", "trunc-neg", "dirs-zero",
             "trunc-frac", "trunc-bool", "dirs-frac", "dirs-bool", "tol-bool"],
    )
    def test_config_refuses_meaningless_values(self, kwargs):
        # a tolerance no residual can meet would call an invisible source
        # radiating; a fractional truncation would fail deep in the projection,
        # and True would pass for 1
        (key, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"{key} must be .*, got {value!r}"):
            VerdictConfig(**kwargs)

    def test_config_takes_numpy_numbers(self):
        cfg = VerdictConfig(tolerance=np.float32(1e-6), truncation=np.int64(5), direction_count=np.int32(8))
        assert (cfg.truncation, cfg.direction_count) == (5, 8)

    def test_verdict_of_numpy_config_numbers_is_plain_json(self):
        # the verdict keeps the config's tolerance and truncation as float
        # and int: a float32 or an int64 would not pass json.dumps
        cfg = VerdictConfig(tolerance=np.float32(1e-6), truncation=np.int64(12), direction_count=np.int32(8))
        result = verdict(CTX2, _gaussian(CTX2), cfg)
        assert type(result.tolerance) is float and type(result.truncation) is int
        assert result.tolerance == float(np.float32(1e-6)) and result.truncation == 12 + STABILITY_MARGIN
        assert json.loads(json.dumps(result.to_dict()))["N"] == 12 + STABILITY_MARGIN

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
        # the default grid: its radial nodes times all 2048 angles
        grid = src.default_samples()[0]
        assert reads[1] == grid.points.shape == (grid.shape[0] * 2048, 3)

    def test_radial_leaf_read_once_per_verdict(self, monkeypatch):
        # a radial leaf's projection reads its profile on its radial rule,
        # not a grid with more polar rings: in 3D too, the default grid that
        # the norm and the field route share is its one read
        reads = []
        values_on = SourceField.values_on

        def counting(self, grid):
            reads.append(grid.points.shape)
            return values_on(self, grid)

        monkeypatch.setattr(SourceField, "values_on", counting)
        verdict(CTX3, make_3d_bessel_nonradiating(CTX3))
        assert reads == [(64 * 2048, 3)]

    def test_field_route_shares_kernel_rows(self, kernel_values):
        # the probes are images of each other under the source grid's
        # symmetries, so the field route evaluates one kernel table per
        # group: in 2D the probes lie on the grid's angle lattice, one
        # group per probe radius; if the grouping missed them, each probe
        # would take its own table, 16 times as many kernel values
        src = _gaussian(CTX2)
        verdict(CTX2, src)
        grid, _ = src.default_samples()
        assert kernel_values[0] <= len(PROBE_FACTORS) * grid.points.shape[0]
        # in 3D the 18 directions fall into 2 azimuth classes times 2 polar
        # classes, 12 groups over the three radii instead of 54 probes
        kernel_values[0] = 0
        src = _gaussian(CTX3)
        verdict(CTX3, src)
        grid, _ = src.default_samples()
        assert kernel_values[0] <= 12 * grid.points.shape[0]

    @pytest.mark.parametrize("dimension, root", [(2, 1), (2, 4), (2, 10), (3, 1), (3, 4)],
                             ids=["2d-r1", "2d-r4", "2d-r10", "3d-r1", "3d-r4"])
    def test_spectral_residual_matches_public_transforms(self, dimension, root):
        # verdict synthesizes both transforms on the direction rule (an
        # inverse FFT in 2D, the separated harmonic synthesis in 3D), the
        # public transforms on the dense basis at the same directions: the
        # same sums in another order (measured within 1.1e-15 relative on
        # 2D roots 1-10 and 3D roots 1-4)
        ctx = WaveContext.with_root_wavenumber(dimension, 1.0, root)
        src = _gaussian(ctx)
        result = verdict(ctx, src)
        dirs, _ = direction_grid(ctx, VerdictConfig().direction_count)
        fh = fourier_on_circle(ctx, src, dirs, result.truncation)
        fc = laplace_on_circle(ctx, src, dirs, result.truncation)
        ref = float(np.max(np.abs(fh) + np.abs(fc))) / result.norm_f
        assert abs(result.residual_spectral - ref) <= 1e-14 * ref


def _unresolved(rho):
    """A strict xfail: the bump reads radiating on the default grids."""
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item 1: the rho {rho}R bump is not resolved by the default grids")


class TestUnresolvedBumps:
    """Every bump is nonradiating by construction, so a verdict on one must
    certify it or refuse.  The small bumps marked xfail read "radiating" on
    the default grids, with all three routes agreeing on the wrong class
    (ROADMAP item 1: grids that cover the support, and a refusal when a grid
    does not resolve the source); strict, so they fail once they flip.  The
    centred rho 0.5R bump is refused today, a right answer."""

    @pytest.mark.parametrize(
        "dimension, root, rho, center",
        [pytest.param(2, 2, 0.3, None, id="2d-centred-root2", marks=_unresolved(0.3)),
         pytest.param(2, 2, 0.3, [0.5, 0.0], id="2d-off-centre-root2", marks=_unresolved(0.3)),
         pytest.param(3, 1, 0.3, None, id="3d-centred-root1", marks=_unresolved(0.3)),
         pytest.param(2, 2, 0.2, [0.5, 0.2], id="2d-rho0.2-off-centre-root2", marks=_unresolved(0.2)),
         pytest.param(2, 2, 0.5, None, id="2d-rho0.5-centred-root2")],
    )
    def test_small_bump_never_reads_radiating(self, dimension, root, rho, center):
        ctx = WaveContext.with_root_wavenumber(dimension, 1.0, root)
        src = make_bump_nonradiating(ctx, rho=rho * ctx.radius, center=center)
        try:
            result = verdict(ctx, src)
        except InconsistencyError:
            return  # a refusal is a right answer
        assert result.is_nonradiating, result.to_dict()


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
    # the trace is data on the context's sphere |x| = R: at R = 0.5 and 2
    # (kappa R the first root, the source scaled with R) the functionals
    # scale the rule's directions by R and its weights by R**(d-1)
    @pytest.mark.parametrize(
        "ctx", [CTX2, CTX3] + [WaveContext.with_root_wavenumber(d, R, 1) for d in (2, 3) for R in (0.5, 2.0)],
        ids=["2d", "3d", "2d-R0.5", "2d-R2", "3d-R0.5", "3d-R2"],
    )
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
        assert np.max(np.abs(fhat_m - far_field(ctx, src, dirs))) < 1e-9 * norm
        assert np.max(np.abs(fhat_m - uhat)) < 1e-6 * norm
        assert np.max(np.abs(fcheck - vcheck)) < 1e-6 * norm



@pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
class TestGivenCoefficients:
    """The modal route reads the coefficients of the source it is given,
    projected at the truncation given with it (default_mode_truncation when
    None); a truncation is an integer, and a source of another dimension
    than the context's is refused by every route."""

    def test_trace_honours_truncation(self, ctx, projections):
        src = _gaussian(ctx)
        grid = boundary_grid(ctx, 16 if ctx.dimension == 3 else 64)
        cut = boundary_trace(ctx, src, grid, truncation=3)
        assert projections == [3]
        assert np.max(np.abs(cut.stacked() - boundary_trace(ctx, src, grid, truncation=8).stacked())) > 1e-6

    def test_fourier_on_circle_honours_truncation(self, ctx, projections):
        src = _gaussian(ctx)
        dirs, _ = direction_grid(ctx, 16)
        cut = fourier_on_circle(ctx, src, dirs, truncation=2)
        assert np.max(np.abs(cut - fourier_on_circle(ctx, src, dirs))) > 1e-6
        assert projections == [2, default_mode_truncation(ctx)]

    def test_nullspace_residual_honours_truncation(self, ctx, projections):
        src = _gaussian(ctx)
        cut = nullspace_residual(ctx, src, [1.5, 3.0], truncation=3)
        assert projections == [3]
        assert cut != nullspace_residual(ctx, src, [1.5, 3.0], truncation=8)

    @pytest.mark.parametrize("truncation", [2.5, True])
    def test_fraction_or_bool_truncation_refused(self, ctx, truncation):
        # 2.5 used to fail as an IndexError inside the projection, True to run as 1
        grid = boundary_grid(ctx, 16 if ctx.dimension == 3 else 64)
        match = f"truncation must be an integer >= 0, got {truncation!r}"
        with pytest.raises(ValueError, match=match):
            boundary_trace(ctx, _gaussian(ctx), grid, truncation=truncation)

    def test_other_dimension_refused(self, ctx):
        # each entry names the two dimensions; before, they failed with an
        # IndexError, a broadcast or matmul error, or a TypeError
        other = CTX3 if ctx.dimension == 2 else CTX2
        src = _gaussian(other)
        dirs, _ = direction_grid(ctx, 16)
        calls = [
            lambda: verdict(ctx, src),
            lambda: fourier_on_circle(ctx, src, dirs),
            lambda: laplace_on_circle(ctx, src, dirs),
            lambda: nullspace_residual(ctx, src, [1.5]),
            lambda: fourier_transform_quadrature(ctx, src, dirs),
            lambda: laplace_transform_quadrature(ctx, src, dirs),
            lambda: boundary_trace(ctx, src, boundary_grid(ctx)),
            lambda: eval_field_batch(ctx, src, 1.5 * dirs, "quadrature"),
            lambda: eval_field_batch(ctx, src, 1.5 * dirs, "modal"),
            lambda: far_field(ctx, src, dirs),
            lambda: modal_coefficients(ctx, src, 4),
        ]
        match = f"the source is {other.dimension}D but the context is {ctx.dimension}D"
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call()
