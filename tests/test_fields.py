"""Forward solver: field split, mutual oracles, traces, far field, decay."""

import io

import numpy as np
import pytest

from biharwave import WaveContext
from biharwave.fields import (
    boundary_trace,
    eval_field,
    eval_field_batch,
    far_field,
    write_trace_csv,
)
from biharwave.kernels import FarFieldConvention, phi_h_of_r, phi_m_of_r
from biharwave.quadrature import boundary_grid, product_grid
from biharwave.sources import (
    SourceField,
    gaussian_source,
    make_2d_bessel_nonradiating,
    make_bump_nonradiating,
)
from biharwave.spectral import PROBE_FACTORS, direction_grid

import oracles

CTX2 = WaveContext.with_root_wavenumber(2, 1.0, 1)
CTX3 = WaveContext.with_root_wavenumber(3, 1.0, 1)


def _gaussian(ctx):
    center = [0.25, 0.0] if ctx.dimension == 2 else [0.2, 0.1, 0.15]
    return gaussian_source(ctx, center=center, sigma=0.1, support_radius=0.9)


class TestEvalField:
    def test_zero_source(self):
        sample = eval_field(CTX2, SourceField.zero(CTX2), np.array([1.5, 0.0]), method="quadrature")
        assert sample.u == 0 and sample.f_h == 0 and sample.f_m == 0

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_split_invariant(self, ctx):
        src = _gaussian(ctx)
        pts = 1.4 * np.eye(ctx.dimension)
        u, f_h, f_m = eval_field_batch(ctx, src, pts, method="quadrature")
        assert np.allclose(u, (f_h - f_m) / (2.0 * ctx.kappa**2), rtol=1e-12)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_quadrature_and_modal_routes_agree(self, ctx):
        src = _gaussian(ctx)
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(12, ctx.dimension))
        pts *= 1.5 * ctx.radius / np.linalg.norm(pts, axis=1, keepdims=True)
        uq, fhq, fmq = eval_field_batch(ctx, src, pts, method="quadrature")
        um, fhm, fmm = eval_field_batch(ctx, src, pts, method="modal")
        scale = np.max(np.abs(uq))
        assert np.max(np.abs(uq - um)) < 1e-8 * scale
        assert np.max(np.abs(fhq - fhm)) < 1e-8 * np.max(np.abs(fhq))
        assert np.max(np.abs(fmq - fmm)) < 1e-8 * np.max(np.abs(fmq))

    def test_nonradiating_source_dark_outside(self):
        src = make_2d_bessel_nonradiating(CTX2)
        interior_scale = np.max(np.abs(src.evaluate(product_grid(CTX2, 64).points)))
        pts = np.array([[2.0, 0.0], [0.0, 2.0], [-1.5, 1.5]])
        u, _, _ = eval_field_batch(CTX2, src, pts, method="quadrature")
        assert np.max(np.abs(u)) < 1e-8 * interior_scale

    def test_interior_rejected(self):
        src = _gaussian(CTX2)
        with pytest.raises(ValueError, match="support"):
            eval_field(CTX2, src, np.array([0.5, 0.0]), method="quadrature")

    @pytest.mark.parametrize("method", ["quadrature", "modal"])
    @pytest.mark.parametrize("layout", ["ring", "scattered"])
    def test_non_finite_points_rejected(self, method, layout):
        # a NaN or infinite radius passes no support check by comparison and,
        # on a probe ring, matched no ring: its field read as zero
        if layout == "ring":
            dirs, _ = direction_grid(CTX2, 16)
            pts = np.vstack([1.5 * dirs, np.nan * dirs[3:4], np.inf * dirs[5:6]])
        else:
            pts = np.array([[1.3, 0.4], [np.nan, 0.0], [0.0, -np.inf]])
        with pytest.raises(ValueError, match=r"must be finite.*nan.*inf"):
            eval_field_batch(CTX2, _gaussian(CTX2), pts, method)

    def test_superposition(self):
        f = _gaussian(CTX2)
        g = make_2d_bessel_nonradiating(CTX2)
        pts = np.array([[1.3, 0.4], [0.0, -2.0]])
        uf = eval_field_batch(CTX2, f, pts, method="quadrature")[0]
        ug = eval_field_batch(CTX2, g, pts, method="quadrature")[0]
        ufg = eval_field_batch(CTX2, f + g, pts, method="quadrature")[0]
        assert np.max(np.abs(ufg - (uf + ug))) < 1e-12 * np.max(np.abs(uf) + np.abs(ug))

    def test_exterior_pde_residual(self):
        # (bilaplacian - kappa^4) u = 0 outside the support, FD oracle.
        # h = 4e-3 balances stencil truncation against the 1/h^4 noise
        # amplification of double-precision field values (h = 1e-3 would sit
        # below the noise floor for a composed fourth-order stencil).
        src = _gaussian(CTX2)
        x = np.array([1.5, 0.0])

        def u_scalar(p):
            return eval_field_batch(CTX2, src, p[None, :], method="quadrature")[0][0]

        resid = oracles.fd_bilaplacian(u_scalar, x, 4e-3) - CTX2.kappa**4 * u_scalar(x)
        assert abs(resid) < 1e-4 * abs(u_scalar(x))

    def test_modified_part_decays_exponentially(self):
        src = _gaussian(CTX2)
        f2 = eval_field(CTX2, src, np.array([2.0, 0.0]), method="quadrature").f_m
        f3 = eval_field(CTX2, src, np.array([3.0, 0.0]), method="quadrature").f_m
        ratio = abs(f3) / abs(f2)
        expected = np.exp(-CTX2.kappa * CTX2.radius)
        assert expected / 2.0 < ratio < expected * 2.0


def _dense_oracle(ctx, src, pts):
    """f_h and f_m by the plain sum over the grid on explicit distances, and
    the sums of the integrands' magnitudes, which bound their rounding."""
    grid = product_grid(ctx, src.resolve_radial_order())
    fw = src.values_on(grid) * grid.weights
    dist = np.linalg.norm(pts[:, None, :] - grid.points[None, :, :], axis=-1)
    k_h, k_m = phi_h_of_r(ctx, dist), phi_m_of_r(ctx, dist)
    return -k_h @ fw, -k_m @ fw, np.abs(k_h) @ np.abs(fw), np.abs(k_m) @ np.abs(fw)


class TestLatticeQuadrature:
    """Probe rings on the grid's angle lattice share one kernel table per
    radius; every other point set takes the dense sum."""

    @pytest.mark.parametrize(
        "root, kind", [(1, "gaussian"), (5, "gaussian"), (10, "gaussian"), (4, "bump")],
        ids=["gaussian-r1", "gaussian-r5", "gaussian-r10", "bump-r4"],
    )
    def test_verdict_probes_match_dense_sum(self, root, kind, kernel_values):
        ctx = WaveContext.with_root_wavenumber(2, 1.0, root)
        src = _gaussian(ctx) if kind == "gaussian" else make_bump_nonradiating(ctx)
        dirs, _ = direction_grid(ctx, 16)
        pts = np.vstack([f * ctx.radius * dirs for f in PROBE_FACTORS])
        _, f_h, f_m = eval_field_batch(ctx, src, pts, method="quadrature")
        grid = product_grid(ctx, src.resolve_radial_order())
        assert kernel_values[0] == len(PROBE_FACTORS) * grid.points.shape[0]
        ref_h, ref_m, mag_h, mag_m = _dense_oracle(ctx, src, pts)
        # relative to the integrand's magnitude: the invisible bump's field
        # is itself rounding noise
        assert np.max(np.abs(f_h - ref_h) / mag_h) <= 1e-13
        assert np.max(np.abs(f_m - ref_m) / mag_m) <= 1e-13
        if kind == "gaussian":
            assert np.max(np.abs(f_h - ref_h)) <= 1e-13 * np.max(np.abs(ref_h))
            assert np.max(np.abs(f_m - ref_m)) <= 1e-13 * np.max(np.abs(ref_m))

    @pytest.mark.parametrize("layout", ["half-step", "mixed"])
    def test_off_lattice_points_take_dense_sum(self, layout, kernel_values):
        src = _gaussian(CTX2)
        if layout == "half-step":
            theta = 2.0 * np.pi * np.arange(16) / 16 + np.pi / 256  # half of the grid's step
            pts = 1.5 * np.column_stack([np.cos(theta), np.sin(theta)])
        else:
            dirs, _ = direction_grid(CTX2, 16)
            pts = np.vstack([1.05 * dirs, [[1.3, 0.4]]])
        _, f_h, f_m = eval_field_batch(CTX2, src, pts, method="quadrature")
        grid = product_grid(CTX2, src.resolve_radial_order())
        assert kernel_values[0] == len(pts) * grid.points.shape[0]
        ref_h, ref_m, _, _ = _dense_oracle(CTX2, src, pts)
        np.testing.assert_array_equal(f_h, ref_h)
        np.testing.assert_array_equal(f_m, ref_m)


class TestBoundaryTrace:
    def test_nonradiating_bump_trace_dark(self):
        src = make_bump_nonradiating(CTX2)
        grid = boundary_grid(CTX2, 64)
        tr = boundary_trace(CTX2, src, grid)
        assert np.max(np.abs(tr.stacked())) < 1e-8 * src.l2_norm()

    def test_single_mode_trace_is_single_mode(self):
        from scipy.special import jv

        k = CTX2.kappa
        src = SourceField.from_callable(CTX2, oracles.single_mode(lambda r: jv(3, k * r), 3))
        grid = boundary_grid(CTX2, 64)
        tr = boundary_trace(CTX2, src, grid)
        spectrum = np.fft.fft(tr.u) / grid.count
        mags = np.abs(spectrum)
        assert mags[3] > 1e3 * (np.sum(mags) - mags[3] + 1e-300)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_normal_derivative_matches_fd(self, ctx):
        src = _gaussian(ctx)
        grid = boundary_grid(ctx, 16 if ctx.dimension == 3 else 32)
        tr = boundary_trace(ctx, src, grid)
        eps = 1e-4 * ctx.radius
        node = 3
        point = grid.points[node]
        nu = grid.normals[node]
        up = eval_field_batch(ctx, src, (point + eps * nu)[None, :], method="modal")[0][0]
        dn = eval_field_batch(ctx, src, (point - eps * nu)[None, :], method="modal")[0][0]
        fd = (up - dn) / (2.0 * eps)
        assert abs(fd - tr.du_dnu[node]) < 1e-6 * max(1.0, abs(tr.du_dnu[node]))

    def test_laplacian_channel_consistent_with_fd(self):
        src = _gaussian(CTX2)
        grid = boundary_grid(CTX2, 32)
        tr = boundary_trace(CTX2, src, grid)
        node = 5

        def u_scalar(p):
            return eval_field_batch(CTX2, src, p[None, :], method="modal")[0][0]

        fd = oracles.fd_laplacian(u_scalar, grid.points[node], 2e-4)
        assert abs(fd - tr.lap_u[node]) < 1e-5 * max(1.0, abs(tr.lap_u[node]))

    def test_support_violation(self):
        src = _gaussian(CTX2)
        big = WaveContext(2, CTX2.kappa, 0.5)
        grid = boundary_grid(big, 16)
        with pytest.raises(Exception):
            boundary_trace(big, src, grid)

    def test_csv_schema(self):
        src = _gaussian(CTX2)
        grid = boundary_grid(CTX2, 16)
        tr = boundary_trace(CTX2, src, grid)
        buf = io.StringIO()
        write_trace_csv(tr, buf, {"case": "demo"})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# case=demo"
        assert lines[1].split(",") == [
            "theta", "u_re", "u_im", "dnu_u_re", "dnu_u_im",
            "lap_u_re", "lap_u_im", "dnu_lap_u_re", "dnu_lap_u_im",
        ]
        assert len(lines) == 2 + grid.count


class TestFarField:
    def test_nonradiating_dark(self):
        src = make_2d_bessel_nonradiating(CTX2)
        dirs = np.column_stack(
            [np.cos(np.linspace(0, 2 * np.pi, 64, endpoint=False)),
             np.sin(np.linspace(0, 2 * np.pi, 64, endpoint=False))]
        )
        vals = far_field(CTX2, src, dirs)
        assert np.max(np.abs(vals)) < 1e-8 * src.l2_norm()

    def test_conjugate_symmetry_for_real_source(self):
        src = gaussian_source(CTX2, center=None, sigma=0.2)  # real and even
        d = np.array([[0.6, 0.8]])
        fwd = far_field(CTX2, src, d)[0]
        bwd = far_field(CTX2, src, -d)[0]
        assert bwd == pytest.approx(np.conj(fwd), rel=1e-12)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_asymptotic_consistency(self, ctx):
        src = _gaussian(ctx)
        xhat = np.zeros(ctx.dimension)
        xhat[0] = 1.0
        uinf = far_field(ctx, src, xhat[None, :])[0]
        mu = FarFieldConvention.for_context(ctx).mu_d
        errs = []
        for factor in (1e3, 2e3):
            x = factor * ctx.radius * xhat
            rx = np.linalg.norm(x)
            u = eval_field(ctx, src, x, method="quadrature").u
            scaled = abs(u / mu) * 8.0 * ctx.kappa**2 * (np.pi * rx) ** ((ctx.dimension - 1) / 2.0)
            errs.append(abs(scaled - abs(uinf)) / abs(uinf))
        assert errs[0] < 1e-2
        assert errs[1] < 0.7 * errs[0]

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            far_field(CTX2, _gaussian(CTX2), np.array([[2.0, 0.0]]))
