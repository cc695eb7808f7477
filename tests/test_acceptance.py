"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion with the measured margins.
"""

import time

import numpy as np
import pytest
from scipy import special as sp

from biharwave import WaveContext, kernels
from biharwave.fields import boundary_trace, eval_field_batch, far_field
from biharwave.quadrature import boundary_grid
from biharwave.sources import (
    gaussian_source,
    make_2d_bessel_nonradiating,
    make_3d_bessel_nonradiating,
    make_bump_nonradiating,
    modal_coefficients,
)
from biharwave.spectral import (
    direction_grid,
    fourier_on_circle,
    fourier_transform_quadrature,
    laplace_on_circle,
    laplace_transform_quadrature,
    u_hat_from_trace,
    v_check_from_trace,
    verdict,
)

import oracles


def _report(name: str, detail: str) -> None:
    print(f"[PASS] {name}: {detail}")


def _random_pairs(ctx, count, rng):
    x = rng.normal(size=(count, ctx.dimension))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= (0.05 + 9.95 * rng.random((count, 1))) * ctx.radius
    return x, np.zeros((count, ctx.dimension))


def _gaussian(ctx):
    center = [0.25, 0.0] if ctx.dimension == 2 else [0.2, 0.1, 0.15]
    return gaussian_source(ctx, center=center, sigma=0.1, support_radius=0.9)


def _field_reference_scale(ctx, src, probe_radii):
    # Cauchy-Schwarz bound on the largest field the source's mass could
    # produce at the probes: ||f|| * sqrt(|B_R|) * max |kernel|
    dmin = min(probe_radii) - ctx.radius
    r = np.linspace(dmin, max(probe_radii) + ctx.radius, 512)
    x = np.column_stack([r] + [np.zeros_like(r)] * (ctx.dimension - 1))
    gmax = float(np.max(np.abs(kernels.green_biharmonic(ctx, x, np.zeros((1, ctx.dimension))))))
    return src.l2_norm() * np.sqrt(ctx.ball_volume) * gmax


def _distance(x, y):
    return np.linalg.norm(x - y, axis=-1)


def test_c01_kernel_decomposition():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 3):
        ctx = WaveContext(dim, 2.0, 1.0)
        x, y = _random_pairs(ctx, 10_000, rng)
        re, im, pm = kernels.kernel_tables(ctx, _distance(x, y))
        ph = re + 1j * im
        g = kernels.green_biharmonic(ctx, x, y)
        ratio = np.abs(g + (ph - pm) / (2.0 * ctx.kappa**2)) / (np.abs(ph) + np.abs(pm))
        worst = max(worst, float(np.max(ratio)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    _report("kernel decomposition", f"worst ratio {worst:.2e}, {elapsed:.2f}s")


def test_c02_regular_kernel_identity_2d():
    rng = np.random.default_rng(102)
    ctx = WaveContext(2, 2.0, 1.0)
    x, y = _random_pairs(ctx, 10_000, rng)
    gap = np.abs(
        kernels.green_biharmonic(ctx, x, y)
        - oracles.green_star(ctx, x, y)
        + 0.25j / ctx.kappa**2 * sp.jv(0, ctx.kappa * np.linalg.norm(x - y, axis=1))
    )
    assert float(np.max(gap)) < 1e-12
    _report("regular-kernel identity (2D)", f"max gap {np.max(gap):.2e}")


def test_c03_addition_theorem_convergence():
    rng = np.random.default_rng(103)
    worst_h = worst_m = 0.0
    for dim in (2, 3):
        ctx = WaveContext(dim, 2.0, 1.0)
        for _ in range(20):
            y = rng.normal(size=dim)
            y *= rng.uniform(0.1, 5.0 / ctx.kappa) / np.linalg.norm(y)  # kappa|y| <= 5
            x = rng.normal(size=dim)
            x *= rng.uniform(2.0, 6.0) * np.linalg.norm(y) / np.linalg.norm(x)
            re, im, pm = kernels.kernel_tables(ctx, _distance(x, y))
            ph = re + 1j * im
            worst_h = max(worst_h, abs(oracles.phi_h_series(ctx, x, y, 40) - ph) / abs(ph))
            worst_m = max(worst_m, abs(oracles.phi_m_series(ctx, x, y, 40) - pm) / abs(pm))
    assert worst_h < 1e-10 and worst_m < 1e-10
    _report(
        "addition-theorem convergence",
        f"relative errors {worst_h:.2e} (oscillatory), {worst_m:.2e} (decaying)",
    )


def _certify(ctx, src, truncation, probe_factors=(1.05, 1.5, 3.0), angles=16):
    coeffs = modal_coefficients(ctx, src, truncation)
    modal_resid = coeffs.max_residual(src.l2_norm())
    dirs, _ = direction_grid(ctx, angles)
    pts = np.vstack([f * ctx.radius * dirs for f in probe_factors])
    u, _, _ = eval_field_batch(ctx, src, pts, method="quadrature")
    scale = _field_reference_scale(ctx, src, [f * ctx.radius for f in probe_factors])
    return modal_resid, float(np.max(np.abs(u))) / scale


def test_c04_certification_2d_radial_pair():
    start = time.perf_counter()
    ctx = WaveContext.with_root_wavenumber(2, 1.0, 1)
    src = make_2d_bessel_nonradiating(ctx)
    modal_resid, field_resid = _certify(ctx, src, truncation=20)
    elapsed = time.perf_counter() - start
    assert modal_resid < 1e-8
    assert field_resid < 1e-7
    assert elapsed < 10.0
    _report(
        "2D radial-pair certification",
        f"modal {modal_resid:.2e}, exterior field {field_resid:.2e}, {elapsed:.2f}s",
    )


def test_c05_certification_3d_radial_pair():
    ctx = WaveContext.with_root_wavenumber(3, 1.0, 1)
    src = make_3d_bessel_nonradiating(ctx, 3, 4)
    modal_resid, field_resid = _certify(ctx, src, truncation=10)
    assert modal_resid < 1e-8
    assert field_resid < 1e-7
    _report(
        "3D radial-pair certification",
        f"modal {modal_resid:.2e}, exterior field {field_resid:.2e}",
    )


def test_c06_bump_verdicts():
    details = []
    for dim in (2, 3):
        ctx = WaveContext.with_root_wavenumber(dim, 1.0, 1)
        result = verdict(ctx, make_bump_nonradiating(ctx))
        assert result.is_nonradiating
        assert result.tolerance == 1e-6
        details.append(
            f"{dim}D residuals ({result.residual_modal:.1e}, "
            f"{result.residual_spectral:.1e}, {result.residual_field:.1e})"
        )
    _report("smooth-bump verdicts", "; ".join(details))


def _identity_gaps(ctx, functional, transform_modal, transform_quad):
    src = _gaussian(ctx)
    norm = src.l2_norm()
    dirs, _ = direction_grid(ctx, 64)
    grid = boundary_grid(ctx, 32 if ctx.dimension == 3 else 256)
    trace = boundary_trace(ctx, src, grid)
    modal = transform_modal(ctx, src, dirs)
    quad = transform_quad(ctx, src, dirs)
    from_trace = functional(ctx, trace, dirs)
    return (
        float(np.max(np.abs(modal - quad))) / norm,
        float(np.max(np.abs(modal - from_trace))) / norm,
        dirs.shape[0],
    )


def test_c07_fourier_identity_from_boundary_data():
    for dim in (2, 3):
        ctx = WaveContext.with_root_wavenumber(dim, 1.0, 1)
        route_gap, identity_gap, ndirs = _identity_gaps(
            ctx, u_hat_from_trace, fourier_on_circle, fourier_transform_quadrature
        )
        assert route_gap < 1e-9
        assert identity_gap < 1e-6
        _report(
            f"Fourier data from boundary measurements ({dim}D)",
            f"{ndirs} directions, route agreement {route_gap:.1e}, identity {identity_gap:.1e}",
        )


def test_c08_exponential_identity_from_boundary_data():
    for dim in (2, 3):
        ctx = WaveContext.with_root_wavenumber(dim, 1.0, 1)
        route_gap, identity_gap, ndirs = _identity_gaps(
            ctx, v_check_from_trace, laplace_on_circle, laplace_transform_quadrature
        )
        assert route_gap < 1e-9
        assert identity_gap < 1e-6
        _report(
            f"exponential-weight data from boundary measurements ({dim}D)",
            f"{ndirs} directions, route agreement {route_gap:.1e}, identity {identity_gap:.1e}",
        )


def test_c09_nonuniqueness_demonstration():
    ctx = WaveContext.with_root_wavenumber(2, 1.0, 1)
    f = _gaussian(ctx)
    g = make_2d_bessel_nonradiating(ctx)
    g = g.scaled(2.0 * f.l2_norm() / g.l2_norm())  # ||g|| / ||f|| = 2 >= 1
    assert g.l2_norm() / f.l2_norm() >= 1.0
    grid = boundary_grid(ctx, 128)
    gap = float(
        np.max(
            np.abs(
                boundary_trace(ctx, f, grid).stacked()
                - boundary_trace(ctx, f + g, grid).stacked()
            )
        )
    )
    bound = 1e-8 * (f.l2_norm() + g.l2_norm())
    assert gap < bound
    _report(
        "invisible unit-size perturbation",
        f"trace gap {gap:.2e} vs bound {bound:.2e}, ||g||/||f|| = "
        f"{g.l2_norm() / f.l2_norm():.1f}",
    )


def test_c10_far_field_consistency():
    for dim in (2, 3):
        ctx = WaveContext.with_root_wavenumber(dim, 1.0, 1)
        src = _gaussian(ctx)
        xhat = np.zeros(dim)
        xhat[0] = 1.0
        uinf = far_field(ctx, src, xhat[None, :])[0]
        mu = oracles.far_field_mu(ctx)
        errs = []
        for factor in (1e3, 2e3):
            x = factor * ctx.radius * xhat
            rx = np.linalg.norm(x)
            u = eval_field_batch(ctx, src, x[None, :], method="quadrature")[0][0]
            scaled = abs(u / mu) * 8.0 * ctx.kappa**2 * (np.pi * rx) ** ((dim - 1) / 2.0)
            errs.append(abs(scaled - abs(uinf)) / abs(uinf))
        assert errs[0] < 1e-2
        assert errs[1] < 0.7 * errs[0]
        _report(
            f"far-field pattern equals restricted Fourier data ({dim}D)",
            f"errors {errs[0]:.1e} -> {errs[1]:.1e} as the radius doubles",
        )


def test_c11_special_function_floor():
    start = time.perf_counter()
    z = np.concatenate([np.linspace(0.1, 5, 40), np.linspace(5, 50, 60)])
    for n in range(0, 31):
        jn = sp.jv(n, z)
        jn1 = sp.jv(n + 1, z)
        yn = sp.yv(n, z)
        yn1 = sp.yv(n + 1, z)
        resid = np.abs(jn1 * yn - jn * yn1 - 2.0 / (np.pi * z))
        assert np.all(resid < 1e-10 * (1.0 + np.abs(yn)))
    for n in (0, 1, 3, 6, 10):
        for zz in (0.4, 1.7, 5.0, 11.0):
            ref = np.sqrt(np.pi / (2.0 * zz)) * oracles.j_series(n + 0.5, zz).real
            assert abs(sp.spherical_jn(n, zz) - ref) <= 1e-10 * (abs(ref) + 1e-12)
    for n in (0, 1, 3, 7, 13, 20):
        for t in (0.5, 2.0, 8.0, 20.0):
            ref = oracles.j_series(n, 1j * t, terms=220)
            assert abs(1j**n * sp.iv(n, t) - ref) <= 1e-10 * abs(ref)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        "special-function floor",
        f"cross-order, bridge, and imaginary-axis identities in {elapsed:.2f}s",
    )
