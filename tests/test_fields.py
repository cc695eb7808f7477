"""Forward solver: field split, mutual oracles, traces, far field, decay."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharwave import WaveContext, context, fields, sources, specfun
from biharwave.fields import (
    boundary_trace,
    eval_field,
    eval_field_batch,
    far_field,
    write_trace_csv,
)
from biharwave.quadrature import boundary_grid, product_grid, spherical_params
from biharwave.sources import (
    ModalCoefficients,
    SourceField,
    default_mode_truncation,
    gaussian_source,
    make_2d_bessel_nonradiating,
    make_3d_bessel_nonradiating,
    make_bump_nonradiating,
    modal_coefficients,
    project_modes,
)
from biharwave.kernels import kernel_tables
from biharwave.specfun import mode_degrees, regular_wave_tables
from biharwave.spectral import (
    PROBE_FACTORS,
    direction_grid,
    fourier_transform_quadrature,
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


def _complex_leaf(real, imag):
    """One pointwise source of real + 0.5j imag, sources of one context: a
    leaf with unrelated real and imaginary parts on one grid, so that the
    real sums take both rows of its weighted values (a sum of two real
    sources would add two real leaves, each on its own grid)."""
    return SourceField.from_callable(real.ctx, lambda p: real.evaluate(p) + 0.5j * imag.evaluate(p),
                                     max(real.support_radius, imag.support_radius))


def _complex_gaussian(ctx):
    """A complex source whose real part is _gaussian and whose imaginary part
    is a broader Gaussian over the whole ball."""
    other = gaussian_source(ctx, center=[-0.3] + [0.1] * (ctx.dimension - 1), sigma=0.2)
    return _complex_leaf(_gaussian(ctx), other)


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

    @pytest.mark.parametrize("truncation", [12, -3])
    def test_quadrature_refuses_truncation(self, truncation):
        # the quadrature has no modes: a truncation, even -3, was ignored
        src, pts = _gaussian(CTX2), np.array([[1.5, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match=rf"'quadrature' takes no truncation \(got truncation={truncation}\)"):
            eval_field_batch(CTX2, src, pts, method="quadrature", truncation=truncation)
        with pytest.raises(ValueError, match="'quadrature' takes no truncation"):
            eval_field(CTX2, src, pts[0], method="quadrature", truncation=truncation)

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

    def test_no_points(self):
        empty = eval_field_batch(CTX3, _gaussian(CTX3), np.zeros((0, 3)), method="quadrature")
        assert all(part.shape == (0,) for part in empty)

    def test_superposition(self):
        f = _gaussian(CTX2)
        g = make_2d_bessel_nonradiating(CTX2)
        pts = np.array([[1.3, 0.4], [0.0, -2.0]])
        uf = eval_field_batch(CTX2, f, pts, method="quadrature")[0]
        ug = eval_field_batch(CTX2, g, pts, method="quadrature")[0]
        ufg = eval_field_batch(CTX2, f + g, pts, method="quadrature")[0]
        assert np.max(np.abs(ufg - (uf + ug))) < 1e-12 * np.max(np.abs(uf) + np.abs(ug))

    def test_exterior_pde_residual(self):
        # (bilaplacian - kappa^4) u = 0 outside the support, FD oracle, at a
        # lattice point and three generic ones.  The composed fourth-order
        # stencil amplifies the rounding of the field values by 1/h^4: at
        # (1.5, 0) residual / |u| reads 1.1e-3, 6.0e-5, 2.6e-6, 5.3e-7 and
        # 6.3e-6 for h = 2e-3, 4e-3, 8e-3, 1.6e-2 and 3.2e-2, so h = 1.6e-2
        # is where truncation and rounding balance (at most 1.7e-6 here).
        src = _gaussian(CTX2)

        def u_scalar(p):
            return eval_field_batch(CTX2, src, p[None, :], method="quadrature")[0][0]

        for x in np.array([[1.5, 0.0], [1.5, 0.3], [1.2, -0.7], [0.0, 2.0]]):
            resid = oracles.fd_bilaplacian(u_scalar, x, 1.6e-2) - CTX2.kappa**4 * u_scalar(x)
            assert abs(resid) < 1e-5 * abs(u_scalar(x))

    def test_modified_part_decays_exponentially(self):
        src = _gaussian(CTX2)
        f2 = eval_field(CTX2, src, np.array([2.0, 0.0]), method="quadrature").f_m
        f3 = eval_field(CTX2, src, np.array([3.0, 0.0]), method="quadrature").f_m
        ratio = abs(f3) / abs(f2)
        expected = np.exp(-CTX2.kappa * CTX2.radius)
        assert expected / 2.0 < ratio < expected * 2.0


def _verdict_probes(ctx):
    dirs, _ = direction_grid(ctx, 16)
    return np.vstack([f * ctx.radius * dirs for f in PROBE_FACTORS])


def _assert_matches_dense_sum(ctx, src, pts, f_h, f_m):
    ref_h, ref_m, mag_h, mag_m = oracles.dense_kernel_sums(ctx, src, pts)
    # relative to the integrand's magnitude: an invisible source's field
    # is itself rounding noise
    assert np.max(np.abs(f_h - ref_h) / mag_h) <= 1e-13
    assert np.max(np.abs(f_m - ref_m) / mag_m) <= 1e-13
    return ref_h, ref_m, mag_h, mag_m


def _orbit_values(grid, f, equator=False):
    """Kernel values one symmetry group evaluates on the grid, R P' n': its
    canonical point's tables on a fundamental domain of its stabilizer over
    the grid's R radial nodes (the source's own grid, the one its direct
    sums walk), n/2 + 1 azimuth columns at f = 0 (l -> -l), n/2 at
    f = 1/2 (l -> 1 - l), all n otherwise, and half the polar rings on the
    3D equator."""
    n, polar = grid.angular.azimuth_count, grid.angular.polar_count
    columns = {0: n // 2 + 1, 0.5: n // 2}.get(f, n)
    return grid.shape[0] * (polar // 2 if equator else polar) * columns


@st.composite
def _group_layouts(draw):
    """Images of canonical points (r, theta_c, f 2 pi / n) under any subset
    of the grid's symmetries (shift s, reflection eps, flip): f on the angle
    lattice, half a step off it or generic, on or off the 3D equator, at one
    to three radii, in batch order radius by radius, so each radius is one
    group whose first member is its first point.  Returns the dimension,
    the points, those first members and the imaginary weight of the source."""
    dimension = draw(st.sampled_from([2, 3]))
    n = 256 if dimension == 2 else 64
    f = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.05, 0.45))
    theta = 0.5 * np.pi if dimension == 2 or draw(st.booleans()) else draw(st.floats(0.2, 1.3))
    flips = st.booleans() if dimension == 3 else st.just(False)
    images = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([1, -1]), flips),
                           min_size=1, max_size=4, unique=True))
    radii = draw(st.lists(st.sampled_from([1.05, 1.5, 2.4]), min_size=1, max_size=3, unique=True))
    pts = []
    for r in radii:
        for shift, sign, flip in images:
            phi, polar = (shift + sign * f) * 2.0 * np.pi / n, np.pi - theta if flip else theta
            direction = [np.sin(polar) * np.cos(phi), np.sin(polar) * np.sin(phi), np.cos(polar)]
            pts.append(r * np.array(direction[:2] if dimension == 2 else direction))
    firsts = [i * len(images) for i in range(len(radii))]
    return dimension, np.array(pts), firsts, draw(st.sampled_from([0.0, 0.5]))


def _layout_source(dimension, imag):
    """A Gaussian of support 0.9 on a short radial rule, plus imag times a
    broad Gaussian over the whole ball: orders 80 in 2D and 20 in 3D, so
    that the sums walk two radial blocks in 2D and three in 3D."""
    ctx = CTX2 if dimension == 2 else CTX3
    gauss = _gaussian(ctx)
    if not imag:
        return ctx, SourceField(ctx, gauss.evaluate, gauss.support_radius, 80 if dimension == 2 else 20)
    other = gaussian_source(ctx, center=[-0.3] + [0.1] * (dimension - 1), sigma=0.2)
    return ctx, SourceField(ctx, lambda p: gauss.evaluate(p) + imag * 1j * other.evaluate(p), ctx.radius,
                            80 if dimension == 2 else 20)


class TestSymmetryGroupQuadrature:
    """Points that are images of each other under the source grid's
    symmetries (azimuth step rotations, phi -> -phi, z -> -z in 3D) share
    one kernel table, evaluated on its stabilizer's fundamental domain and
    mirrored; scattered points are groups of one."""

    @pytest.mark.parametrize(
        "root, kind", [(1, "gaussian"), (5, "gaussian"), (10, "gaussian"), (4, "bump")],
        ids=["gaussian-r1", "gaussian-r5", "gaussian-r10", "bump-r4"],
    )
    def test_verdict_probes_match_dense_sum(self, root, kind, kernel_values):
        ctx = WaveContext.with_root_wavenumber(2, 1.0, root)
        src = _gaussian(ctx) if kind == "gaussian" else make_bump_nonradiating(ctx)
        pts = _verdict_probes(ctx)
        _, f_h, f_m = eval_field_batch(ctx, src, pts, method="quadrature")
        grid, _ = src.default_samples()
        # every probe is on the angle lattice (f = 0): 129 of 256 columns,
        # on each radial node of the source's grid
        assert kernel_values[0] == len(PROBE_FACTORS) * _orbit_values(grid, 0)
        assert kernel_values[0] == len(PROBE_FACTORS) * 129 * grid.shape[0]
        ref_h, ref_m, _, _ = _assert_matches_dense_sum(ctx, src, pts, f_h, f_m)
        if kind == "gaussian":
            assert np.max(np.abs(f_h - ref_h)) <= 1e-13 * np.max(np.abs(ref_h))
            assert np.max(np.abs(f_m - ref_m)) <= 1e-13 * np.max(np.abs(ref_m))

    @pytest.mark.parametrize(
        "root, kind", [(1, "gaussian"), (2, "bessel"), (1, "bump")],
        ids=["gaussian-r1", "bessel-r2", "bump-r1"],
    )
    def test_3d_verdict_probes_match_dense_sum(self, root, kind, kernel_values):
        # 3 polar rings x 6 azimuths at 60 degrees, off the 64-azimuth
        # lattice: 2 azimuth classes (0 and 1/3 of a step from it) times 2
        # polar classes (the outer rings mirror each other) per radius
        ctx = WaveContext.with_root_wavenumber(3, 1.0, root)
        make = {"gaussian": _gaussian, "bessel": make_3d_bessel_nonradiating,
                "bump": make_bump_nonradiating}[kind]
        src = make(ctx)
        pts = _verdict_probes(ctx)
        _, f_h, f_m = eval_field_batch(ctx, src, pts, method="quadrature")
        grid, _ = src.default_samples()
        # per radius: f = 0 and f = 1/3, each on the equator and off it
        per_radius = sum(_orbit_values(grid, f, eq) for f in (0, 1 / 3) for eq in (True, False))
        assert kernel_values[0] == len(PROBE_FACTORS) * per_radius
        # 13,968 per radial node of the source's grid (on the 64-node grid
        # of the whole-ball Bessel source, 893,952 of 12 * 131,072)
        assert kernel_values[0] == 13968 * grid.shape[0]
        _assert_matches_dense_sum(ctx, src, pts, f_h, f_m)

    @pytest.mark.parametrize(
        "layout, orbits, firsts",
        [("half-step", [(0.5, False)], [0]), ("mixed", [(0, False), (None, False)], [0, 16]),
         ("3d", 2 * [(f, eq) for f in (0, 1 / 3) for eq in (True, False)], [0, 1, 6, 7, 18, 19, 24, 25])],
        ids=["half-step", "mixed", "3d"],
    )
    def test_symmetric_layouts_share_tables(self, layout, orbits, firsts, kernel_values):
        ctx = CTX3 if layout == "3d" else CTX2
        src = _complex_gaussian(ctx)
        if layout == "half-step":
            # half a grid step off the lattice: each point is the mirror
            # image of the next under phi -> -phi about a lattice angle
            theta = 2.0 * np.pi * np.arange(16) / 16 + np.pi / 256
            pts = 1.5 * np.column_stack([np.cos(theta), np.sin(theta)])
        elif layout == "mixed":
            dirs, _ = direction_grid(CTX2, 16)
            pts = np.vstack([1.05 * dirs, [[1.3, 0.4]]])
        else:
            dirs, _ = direction_grid(CTX3, 16)
            pts = np.vstack([1.05 * dirs, 3.0 * dirs])
        _, f_h, f_m = eval_field_batch(ctx, src, pts, method="quadrature")
        grid, _ = src.default_samples()
        assert kernel_values[0] == sum(_orbit_values(grid, *orbit) for orbit in orbits)
        if layout == "half-step":
            assert kernel_values[0] == 8192  # 64 x 128 columns
        _, _, mag_h, mag_m = _assert_matches_dense_sum(ctx, src, pts, f_h, f_m)
        # alone, a point is the first of its own group: the first point of
        # each group (in batch order) sums its own tables, so its value is
        # independent of the batch (and chunk) it came in; another member
        # sums the permuted values against its first point's tables
        alone = [eval_field_batch(ctx, src, p[None, :], method="quadrature") for p in pts]
        alone_h = np.array([a[1][0] for a in alone])
        alone_m = np.array([a[2][0] for a in alone])
        np.testing.assert_array_equal(f_h[firsts], alone_h[firsts])
        np.testing.assert_array_equal(f_m[firsts], alone_m[firsts])
        assert np.max(np.abs(f_h - alone_h) / mag_h) <= 2e-15
        assert np.max(np.abs(f_m - alone_m) / mag_m) <= 2e-15

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(layout=_group_layouts())
    def test_folded_sums_over_layouts(self, layout):
        # every stabilizer (f = 0, 1/2 or none, on or off the equator), any
        # subset of a group's images, real and complex sources: the folded
        # sums match the dense sum, and the first member of each group sums
        # exactly what the same point sums alone
        dimension, pts, firsts, imag = layout
        ctx, src = _layout_source(dimension, imag)
        _, f_h, f_m = eval_field_batch(ctx, src, pts, method="quadrature")
        _assert_matches_dense_sum(ctx, src, pts, f_h, f_m)
        for i in firsts:
            _, alone_h, alone_m = eval_field_batch(ctx, src, pts[i:i + 1], method="quadrature")
            assert f_h[i] == alone_h[0] and f_m[i] == alone_m[0]

    def test_group_members_agree_with_own_tables(self):
        # a member's permuted sum and the sum over its own kernel tables
        # differ only in rounding; test_exterior_pde_residual's stencil
        # would amplify a gap between them by 1/h^4
        src = _complex_gaussian(CTX2)
        dirs, _ = direction_grid(CTX2, 16)
        ring = 1.5 * dirs
        _, ring_h, ring_m = eval_field_batch(CTX2, src, ring, method="quadrature")
        own = [eval_field_batch(CTX2, src, p[None, :], method="quadrature") for p in ring]
        own_h = np.array([o[1][0] for o in own])
        own_m = np.array([o[2][0] for o in own])
        assert np.max(np.abs(ring_h - own_h) / np.abs(own_h)) <= 2e-15
        assert np.max(np.abs(ring_m - own_m) / np.abs(own_m)) <= 2e-15

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_near_image_forms_its_own_group(self, ctx, kernel_values):
        # the mirror image of a member (phi -> -phi, and z -> -z in 3D) joins
        # its group; turned by 1e-9 rad about the z axis it is no image of
        # any point and must take tables of its own
        src = _complex_gaussian(ctx)
        dirs, params = direction_grid(ctx, 16)
        grid, _ = src.default_samples()
        # of dirs[0] and dirs[1]: one on the 2D lattice, two off the 3D equator
        groups = _orbit_values(grid, 0) + (_orbit_values(grid, 1 / 3) if ctx.dimension == 3 else 0)
        nodes = grid.points.shape[0]
        for turn, own in ((0.0, 0), (1e-9, 1)):
            if ctx.dimension == 2:
                phi = -params[1] + turn
                near = [np.cos(phi), np.sin(phi)]
            else:
                theta, phi = np.pi - params[1, 0], -params[1, 1] + turn
                near = [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
            pts = 1.5 * np.vstack([dirs[:2], near])
            kernel_values[0] = 0
            _, f_h, f_m = eval_field_batch(ctx, src, pts, method="quadrature")
            assert kernel_values[0] == groups + own * nodes
            _assert_matches_dense_sum(ctx, src, pts, f_h, f_m)

    @pytest.mark.parametrize("imag", [0.0, 0.5], ids=["real", "complex"])
    def test_radial_blocks_with_partial_last_block(self, imag, kernel_values):
        # radial order 67 on the 32 x 64 sphere rule: blocks of 8 radial
        # nodes (16384 nodes), 3 in the last; every stabilizer domain, its
        # mirror images and a generic point, in one batch.  A broad source
        # on the whole ball, so that every block carries its weight.
        def func(p):
            return np.exp(-np.sum((p - [0.3, 0.1, -0.2]) ** 2, axis=-1)) + imag * 1j * p[:, 2]

        src = SourceField(CTX3, func, CTX3.radius, 67)
        step = 2.0 * np.pi / 64
        params = [  # (r, theta, phi) and the group's (f, equator), or None for an image
            (1.2, 0.7, 5 * step, (0, False)), (1.2, np.pi - 0.7, -5 * step, None),
            (2.0, 2.0, 7.5 * step, (0.5, False)), (2.0, np.pi - 2.0, 3.5 * step, None),
            (1.2, 0.5 * np.pi, 3 * step, (0, True)), (1.6, 0.5 * np.pi, -0.5 * step, (0.5, True)),
            (1.6, 0.5 * np.pi, 0.3, (None, True)), (1.6, 0.5 * np.pi, 2 * np.pi - 0.3, None),
            (3.0, 1.1, 2.2, (None, False)),
        ]
        r, theta, phi = np.array([p[:3] for p in params]).T
        pts = r[:, None] * np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
        _, f_h, f_m = eval_field_batch(CTX3, src, pts, method="quadrature")
        grid, _ = src.default_samples()
        assert kernel_values[0] == sum(_orbit_values(grid, *p[3]) for p in params if p[3])
        _, _, mag_h, mag_m = _assert_matches_dense_sum(CTX3, src, pts, f_h, f_m)
        alone = [eval_field_batch(CTX3, src, p[None, :], method="quadrature") for p in pts]
        alone_h = np.array([a[1][0] for a in alone])
        alone_m = np.array([a[2][0] for a in alone])
        firsts = [i for i, p in enumerate(params) if p[3]]  # each group's first point
        np.testing.assert_array_equal(f_h[firsts], alone_h[firsts])
        np.testing.assert_array_equal(f_m[firsts], alone_m[firsts])
        assert np.max(np.abs(f_h - alone_h) / mag_h) <= 2e-15
        assert np.max(np.abs(f_m - alone_m) / mag_m) <= 2e-15

    def test_scattered_points_are_groups_of_one(self, kernel_values):
        src = _gaussian(CTX2)
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 2))
        pts *= (1.2 + rng.random((40, 1))) / np.linalg.norm(pts, axis=1, keepdims=True)
        _, f_h, f_m = eval_field_batch(CTX2, src, pts, method="quadrature")
        grid, _ = src.default_samples()
        # a whole table per point on every node of the source's grid
        assert kernel_values[0] == len(pts) * grid.points.shape[0] == 40 * 256 * grid.shape[0]
        _assert_matches_dense_sum(CTX2, src, pts, f_h, f_m)


def _cut_sources(ctx, kind):
    """A source whose support ends inside the ball: a Gaussian (support
    0.85), the rho 0.8R bump, or a complex source whose real and imaginary
    parts end at 0.85 and 0.7."""
    center = [0.2, -0.1, 0.1][: ctx.dimension]
    gauss = gaussian_source(ctx, center=center, sigma=0.15, support_radius=0.85)
    if kind == "gaussian":
        return gauss
    if kind == "bump":
        return make_bump_nonradiating(ctx)
    other = gaussian_source(ctx, center=[-0.1, 0.2, 0.0][: ctx.dimension], sigma=0.2, support_radius=0.7)
    return _complex_leaf(gauss, other)


def _support_grid_routes(ctx, src):
    """Every sum over the source's grid: its norm, its modal coefficients,
    the field quadrature at the 2D/3D verdict probes and six scattered
    points, the far field and both volume transforms."""
    dirs, _ = direction_grid(ctx, 16)
    rng = np.random.default_rng(3)
    scattered = rng.normal(size=(6, ctx.dimension))
    scattered *= 1.3 / np.linalg.norm(scattered, axis=1, keepdims=True)
    pts = np.vstack([f * dirs for f in PROBE_FACTORS] + [scattered])
    coeffs = modal_coefficients(ctx, src)
    _, f_h, f_m = eval_field_batch(ctx, src, pts, method="quadrature")
    out = {"norm": np.array([src.l2_norm()]), "alpha": coeffs.alpha, "beta": coeffs.beta,
           "f_h": f_h, "f_m": f_m, "far": far_field(ctx, src, dirs),
           "fhat": fourier_transform_quadrature(ctx, src, dirs),
           "fcheck": laplace_transform_quadrature(ctx, src, dirs)}
    return pts, dirs, out


def _term_magnitudes(ctx, src, pts, dirs):
    """Bounds on the sums of _support_grid_routes over the magnitudes of
    their terms: sum |f w| times the largest kernel (at the probe nearest
    the support) or phase weight, and for the coefficients the profiles'
    magnitudes against the wave tables'."""
    mass = oracles.volume_transform(ctx, src, dirs, 0.0)[1]
    nearest = np.array([np.min(np.linalg.norm(pts, axis=1)) - src.support_radius])
    re_h, im_h, phi_m = np.abs(kernel_tables(ctx, nearest))[:, 0]
    out = {"f_h": mass * np.hypot(re_h, im_h), "f_m": mass * phi_m, "far": mass, "fhat": mass,
           "fcheck": mass * np.exp(ctx.kappa * src.support_radius)}
    modal = project_modes(src, default_mode_truncation(ctx))
    rule = modal.rule
    degree = np.abs(mode_degrees(ctx.dimension, modal.truncation))
    measure = rule.weights * rule.nodes ** (ctx.dimension - 1)
    tables = regular_wave_tables(ctx.dimension, modal.truncation, ctx.kappa * rule.nodes)
    for key, table in zip(("alpha", "beta"), tables):
        out[key] = np.max(np.sum(np.abs(modal.values) * np.abs(table[degree]) * measure, axis=1))
    return out


class TestSupportGrid:
    """Each source's grids end at its support: every route sums the radial
    nodes inside it, and agrees with the masked sums over the whole [0, R]
    rule (the grids every source had before), to 1e-15 of their peak (for
    the nonradiating bump, of the magnitudes of their terms)."""

    @pytest.mark.parametrize("dimension, kind", [(2, "gaussian"), (2, "bump"), (2, "complex"),
                                                 (3, "gaussian"), (3, "complex")])
    def test_routes_match_whole_grid_masked_sums(self, dimension, kind, monkeypatch):
        ctx = WaveContext.with_root_wavenumber(dimension, 1.0, 2)
        src = _cut_sources(ctx, kind)
        assert src.default_samples()[0].shape[0] < src.resolve_radial_order()
        pts, dirs, cut = _support_grid_routes(ctx, src)
        whole = sources.product_grid
        monkeypatch.setattr(sources, "product_grid", lambda c, order, count=None, extent=None: whole(c, order, count))
        ref_src = _cut_sources(ctx, kind)
        assert ref_src.default_samples()[0].shape[0] == ref_src.resolve_radial_order()
        _, _, ref = _support_grid_routes(ctx, ref_src)
        scale = {key: np.max(np.abs(value)) for key, value in ref.items()}
        if kind == "bump":  # nonradiating: its sums are rounding noise, so bound by their terms
            scale.update(_term_magnitudes(ctx, ref_src, pts, dirs))
        for key, value in cut.items():
            assert np.max(np.abs(value - ref[key])) <= 1e-15 * scale[key], key


class TestSeriesOverflow:
    """A truncation so high that the radial factors leave the double range
    at kappa r is refused, naming kappa r and the truncation: the series
    would give inf * 0 = NaN at every point."""

    # (context, truncation): 2D Gaussian at kappa R = j_0,1; a 3D Gaussian at
    # kappa R = 1e-3, where the spherical K family overflows between degrees 60 and 70
    CASES = {"2d": (CTX2, 200), "3d": (WaveContext(3, 1e-3, 1.0), 70)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_modal_field_refused(self, case):
        ctx, truncation = self.CASES[case]
        point = np.zeros((1, ctx.dimension))
        point[0, 0] = ctx.radius
        match = rf"kappa\*r = {ctx.kappa * ctx.radius:.6g}: .*\(truncation {truncation}\)"
        with pytest.raises(OverflowError, match=match):
            eval_field_batch(ctx, _gaussian(ctx), point, method="modal", truncation=truncation)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trace_refused(self, case):
        ctx, truncation = self.CASES[case]
        grid = boundary_grid(ctx, 16)
        with pytest.raises(OverflowError, match=rf"\(truncation {truncation}\)"):
            boundary_trace(ctx, _gaussian(ctx), grid, truncation=truncation)


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
        nu = grid.directions[node]
        point = ctx.radius * nu
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

        fd = oracles.fd_laplacian(u_scalar, CTX2.radius * grid.directions[node], 2e-4)
        assert abs(fd - tr.lap_u[node]) < 1e-5 * max(1.0, abs(tr.lap_u[node]))

    def test_support_violation(self):
        src = _gaussian(CTX2)
        big = WaveContext(2, CTX2.kappa, 0.5)
        grid = boundary_grid(big, 16)
        with pytest.raises(Exception):
            boundary_trace(big, src, grid)

    def test_rule_holds_no_radius(self):
        # the trace is data on the context's sphere |x| = R: the boundary
        # rule of a context of R = 2 is the rule of R = 1, and gives the
        # same trace under R = 1, so no second radius can disagree with R
        other = boundary_grid(WaveContext(2, CTX2.kappa, 2.0), 16)
        grid = boundary_grid(CTX2, 16)
        assert np.array_equal(other.directions, grid.directions) and np.array_equal(other.weights, grid.weights)
        src = _gaussian(CTX2)
        assert np.array_equal(boundary_trace(CTX2, src, other).stacked(), boundary_trace(CTX2, src, grid).stacked())

    def test_grid_of_another_dimension_refused(self):
        # a 3D grid under a 2D context gave a 2048-value trace, which failed
        # only later, in a matrix product of the trace functionals
        grid = boundary_grid(CTX3, 32)
        with pytest.raises(ValueError, match="grid is 3D but the context is 2D"):
            boundary_trace(CTX2, _gaussian(CTX2), grid)

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


def _per_point_series(ctx, coeffs, r, basis):
    """The modal series and their radial derivatives, with the radial tables
    evaluated at every point."""
    tables = fields._radial_tables(ctx, coeffs.truncation, ctx.kappa * r[:, None])
    return [(basis * table) @ c for table, c in zip(tables, (coeffs.alpha, coeffs.beta) * 2)]


class TestSeparableModalRoute:
    """Radial tables once per distinct radius; in 3D, harmonic transforms
    separated on product rules instead of the dense harmonic block."""

    def test_3d_projection_and_trace_build_no_harmonic_block(self, harmonic_blocks):
        src = _gaussian(CTX3)
        modal_coefficients(CTX3, src, 12)
        assert harmonic_blocks[0] == 0
        boundary_trace(CTX3, src, boundary_grid(CTX3, 16), truncation=12)
        assert harmonic_blocks[0] == 0
        # the verdict's spectral residual and the null-space probes
        # synthesize on the direction rule too
        verdict(CTX3, src)
        assert harmonic_blocks[0] == 0
        nullspace_residual(CTX3, src, [1.5, 3.0])
        assert harmonic_blocks[0] == 0

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_trace_tabulates_one_radius(self, ctx, radial_table_radii):
        boundary_trace(ctx, _gaussian(ctx), boundary_grid(ctx, 16 if ctx.dimension == 3 else 64), truncation=12)
        assert radial_table_radii == [1]

    @staticmethod
    def _check_2d_trace(coeffs):
        # the inverse FFT sums in another order than the dense per-point sum,
        # so the four series (f_h, f_m and their radial derivatives) agree to
        # rounding (measured 3e-16 to 6e-16 of each one's peak)
        N, M = coeffs.truncation, 64
        grid = boundary_grid(CTX2, M)
        series = fields._sphere_series(CTX2, coeffs, grid)
        r = np.full(grid.count, CTX2.radius)
        # the grid's angles are the lattice 2 pi j / M, so n theta_j reduces
        # exactly to 2 pi (n j mod M) / M: exp(i n theta_j) at |n| = 100
        # straight from theta_j would carry a phase error of 1e-13
        j = np.arange(M)
        assert np.array_equal(grid.params, 2.0 * np.pi * j / M)
        basis = np.exp(2j * np.pi * (np.outer(j, np.arange(-N, N + 1)) % M) / M)
        expected = _per_point_series(CTX2, coeffs, r, basis)
        for got, ref in zip(series, expected):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_2d_trace_equals_per_point_tables(self):
        # 41 orders on 64 angles: no two orders share a column of the FFT
        self._check_2d_trace(modal_coefficients(CTX2, _gaussian(CTX2), 20))

    def test_2d_trace_folds_orders_beyond_half_the_angles(self):
        # 201 orders on 64 angles, up to four sharing each column of the FFT.
        # A Gaussian's orders beyond 32 weigh 1e-20 of its peak at r = R, so
        # the coefficients are drawn to give every order a term of size one
        N = 100
        h, s, _, _ = fields._radial_tables(CTX2, N, np.array([[CTX2.kappa * CTX2.radius]]))
        rng = np.random.default_rng(7)
        alpha, beta = rng.normal(size=(2, 2 * N + 1, 2)) @ [1.0, 1j]
        self._check_2d_trace(ModalCoefficients(2, N, alpha / np.abs(h[0]), beta / np.abs(s[0])))

    def test_modal_field_equals_per_point_tables(self, radial_table_radii):
        # two probe rings: one table row per distinct radius, gathered back
        # to every point, bit for bit the per-point tables
        src = _gaussian(CTX3)
        dirs, _ = direction_grid(CTX3, 8)
        pts = np.vstack([1.2 * dirs, 2.0 * dirs])
        _, f_h, f_m = eval_field_batch(CTX3, src, pts, method="modal", truncation=10)
        r, theta, phi = spherical_params(pts)
        assert radial_table_radii == [np.unique(r).size]
        assert np.unique(r).size < len(pts) / 4
        coeffs = modal_coefficients(CTX3, src, 10)
        ref_h, ref_m, _, _ = _per_point_series(CTX3, coeffs, r, specfun.sph_harmonic_block(10, theta, phi))
        np.testing.assert_array_equal(f_h, ref_h)
        np.testing.assert_array_equal(f_m, ref_m)


class TestFarField:
    @pytest.mark.parametrize("transform", ["far_field", "fourier", "laplace"])
    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_real_phase_sums_match_complex_exp(self, ctx, transform):
        src = _complex_gaussian(ctx)
        rng = np.random.default_rng(41)
        dirs = rng.normal(size=(12, ctx.dimension))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        func, scale = {
            "far_field": (far_field, -1j * ctx.kappa),
            "fourier": (fourier_transform_quadrature, -1j * ctx.kappa),
            "laplace": (laplace_transform_quadrature, -ctx.kappa),
        }[transform]
        ref, mass = oracles.volume_transform(ctx, src, dirs, scale)
        assert np.max(np.abs(func(ctx, src, dirs) - ref)) <= 1e-14 * mass

    @pytest.mark.parametrize("transform", ["far_field", "laplace"])
    @pytest.mark.parametrize("part", ["real", "complex"])
    def test_phase_sums_over_node_blocks(self, part, transform):
        # at 12 directions the grid goes in several node blocks of the table
        # budget, the last one partial here; the block sums add up to the
        # whole sum
        src = _gaussian(CTX3)
        if part == "complex":
            other = gaussian_source(CTX3, center=[-0.3, 0.1, 0.1], sigma=0.2, support_radius=0.9)
            src = _complex_leaf(src, other)
        rng = np.random.default_rng(59)
        dirs = rng.normal(size=(12, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        nodes = len(src.default_samples()[0].points)
        block = context._BLOCK_BUDGET // len(dirs)
        assert nodes > 2 * block and nodes % block
        func, scale = (far_field, -1j * CTX3.kappa) if transform == "far_field" else \
            (laplace_transform_quadrature, -CTX3.kappa)
        ref, mass = oracles.volume_transform(CTX3, src, dirs, scale)
        assert np.max(np.abs(func(CTX3, src, dirs) - ref)) <= 1e-14 * mass

    @pytest.mark.parametrize("oscillating", [True, False], ids=["oscillating", "exponential"])
    def test_phase_sums_of_a_grid_build_its_points_by_block(self, oscillating):
        # at 12 directions a block of 1365 nodes spans parts of two rows of
        # 2048; the grid's blocks give the bits of its whole points array
        grid, values = _gaussian(CTX3).default_samples()
        rng = np.random.default_rng(67)
        dirs = rng.normal(size=(12, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert grid.angular.count % (context._BLOCK_BUDGET // len(dirs))
        sums = [fields._phase_sums(CTX3, points, values, grid.weights, dirs, oscillating)
                for points in (grid, grid.points)]
        assert np.array_equal(sums[0].view(np.uint64), sums[1].view(np.uint64))

    @pytest.mark.parametrize("oscillating", [True, False], ids=["oscillating", "exponential"])
    def test_phase_sums_past_the_table_budget(self, oscillating):
        # more directions than the table budget holds: one node per block,
        # and the blocks add up to the dense complex-exp sum
        rng = np.random.default_rng(61)
        points = 0.5 * rng.uniform(-1.0, 1.0, size=(5, 3))
        data = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))  # two complex parts
        weights = rng.uniform(0.5, 1.0, size=5)
        dirs = rng.normal(size=(context._BLOCK_BUDGET + 3, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        got = fields._phase_sums(CTX3, points, data, weights, dirs, oscillating)
        scale = (-1j if oscillating else -1.0) * CTX3.kappa
        ref = np.exp(scale * (dirs @ points.T)) @ (data * weights).T
        mass = float(np.sum(np.abs(data * weights)))
        assert got.shape == ref.shape == (len(dirs), 2)
        assert np.max(np.abs(got - ref)) <= 1e-14 * mass

    @pytest.mark.parametrize("oscillating", [True, False], ids=["oscillating", "exponential"])
    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_phase_sums_do_not_depend_on_the_data_layout(self, ctx, oscillating):
        # the trace functionals' columns stack normals.T * q, which is
        # Fortran-ordered: the same columns in either memory order give the
        # same bits, since the weighted rows are laid out in C order (at
        # R = 1 the boundary nodes and weights are the rule's own)
        grid = boundary_grid(ctx)
        trace = boundary_trace(ctx, _gaussian(ctx), grid)
        columns = grid.directions.T * trace.lap_u
        assert columns.flags.f_contiguous and not columns.flags.c_contiguous
        dirs, _ = direction_grid(ctx, 32)
        sums = [fields._phase_sums(ctx, grid.directions, data, grid.weights, dirs, oscillating)
                for data in (columns, np.ascontiguousarray(columns))]
        assert np.array_equal(sums[0].view(np.uint64), sums[1].view(np.uint64))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_no_directions(self, ctx):
        src = _gaussian(ctx)
        trace = boundary_trace(ctx, src, boundary_grid(ctx))
        none = np.empty((0, ctx.dimension))
        for values in (far_field(ctx, src, none), fourier_transform_quadrature(ctx, src, none),
                       laplace_transform_quadrature(ctx, src, none), u_hat_from_trace(ctx, trace, none),
                       v_check_from_trace(ctx, trace, none)):
            assert values.shape == (0,)

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
        mu = oracles.far_field_mu(ctx)
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
