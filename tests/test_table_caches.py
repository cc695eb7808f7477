"""The exterior factors of the boundary traces, built once per fixed
frequency and kept read-only, and the linear sums: a sum or a scaled source
adds its leaves' results, each leaf on its own grid with its own kept
samples and coefficients.

The kept factors depend only on their key (the context, the truncation and
whether they are the derivatives), never on a source, so a kept pair is bit
for bit the one a fresh build gives.  The routes of a derived source read no
leaf again once the leaf's samples and coefficients are kept, and give the
same bits, signed zeros included, whether or not they were kept first.
"""

import numpy as np
import pytest

from biharwave import WaveContext, fields, sources
from biharwave.fields import boundary_trace, eval_field_batch, far_field
from biharwave.quadrature import boundary_grid, product_grid
from biharwave.sources import (
    SourceField,
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
    laplace_transform_quadrature,
)

CTX2 = WaveContext.with_root_wavenumber(2, 1.0, 2)
CTX3 = WaveContext.with_root_wavenumber(3, 1.0, 1)


def _bessel(ctx):
    return make_2d_bessel_nonradiating(ctx) if ctx.dimension == 2 else make_3d_bessel_nonradiating(ctx)


def _assert_identical(a, b):
    """Equal arrays of one dtype whose zeros carry the same signs too."""
    assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(np.signbit(np.real(a)), np.signbit(np.real(b)))
    assert np.array_equal(np.signbit(np.imag(a)), np.signbit(np.imag(b)))


class TestSphereFactors:
    """fields' exterior factors at r = R, four tables kept per (context, truncation)."""

    def test_bounded_cache(self):
        assert fields._sphere_factors.cache_info().maxsize == fields._SPHERE_FACTORS

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    @pytest.mark.parametrize("pair", [slice(0, 2), slice(2, 4)], ids=["value", "derivative"])
    def test_kept_factors_equal_fresh_ones(self, ctx, pair):
        kept = fields._sphere_factors(ctx, 12)
        assert len(kept) == 4
        assert kept is fields._sphere_factors(WaveContext(ctx.dimension, ctx.kappa, ctx.radius), 12)
        fields._sphere_factors.cache_clear()
        rebuilt = fields._sphere_factors(ctx, 12)
        assert rebuilt is not kept
        # the one row of the radial tables at r = R, prefactors and exp(-kappa R) folded in:
        # the f_h and f_m factors, or their radial derivatives
        fresh_tables = fields._radial_tables(ctx, 12, np.array([[ctx.kappa * ctx.radius]]))[pair]
        for got, again, fresh in zip(kept[pair], rebuilt[pair], (table[0] for table in fresh_tables)):
            _assert_identical(got, fresh)
            _assert_identical(again, fresh)
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0.0

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_traces_of_f_and_f_plus_g_tabulate_once(self, ctx, radial_table_radii):
        f = gaussian_source(ctx, center=[0.2, -0.1, 0.1][: ctx.dimension], sigma=0.15, support_radius=0.9)
        g = _bessel(ctx)
        grid = boundary_grid(ctx)
        trace_f = boundary_trace(ctx, f, grid, truncation=12)
        trace_fg = boundary_trace(ctx, f + g, grid, truncation=12)
        # one tabulation of the values and derivatives, at the one radius R
        assert radial_table_radii == [1]
        # g is invisible: the two traces agree to rounding
        base = trace_f.stacked()
        assert np.max(np.abs(base - trace_fg.stacked())) <= 1e-8 * np.max(np.abs(base))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_trace_is_bitwise_the_same_after_cache_clear(self, ctx):
        src = gaussian_source(ctx, center=[0.2, -0.1, 0.1][: ctx.dimension], sigma=0.15)
        grid = boundary_grid(ctx, 16 if ctx.dimension == 3 else 64)
        first = boundary_trace(ctx, src, grid, truncation=12).stacked()
        fields._sphere_factors.cache_clear()
        _assert_identical(boundary_trace(ctx, src, grid, truncation=12).stacked(), first)

    def test_overflow_is_refused_on_every_call(self):
        # an exception is not kept: the refusal repeats, naming the truncation
        ctx = WaveContext(3, 1e-3, 1.0)
        src = gaussian_source(ctx)
        for _ in range(2):
            with pytest.raises(OverflowError, match=r"\(truncation 70\)"):
                boundary_trace(ctx, src, boundary_grid(ctx, 16), truncation=70)


def _counting_gaussian(ctx, **kwargs):
    """A Gaussian source whose function records the number of points of each call."""
    gauss = gaussian_source(ctx, **kwargs)
    calls = []

    def func(points):
        calls.append(len(points))
        return gauss._func(points)

    return SourceField.from_callable(ctx, func, support_radius=gauss.support_radius), calls


def _center(ctx):
    return [0.2, -0.1, 0.1][: ctx.dimension]


def _routes(ctx, src, truncation=8):
    """Every linear route of a source, as arrays: its modal coefficients, the
    quadrature field at the verdict's nearest probes and at two scattered
    points, the far field and both volume transforms."""
    dirs, _ = direction_grid(ctx, 16)
    pts = np.vstack([1.05 * dirs, 1.4 * np.eye(ctx.dimension)[:2]])
    coeffs = modal_coefficients(ctx, src, truncation)
    _, f_h, f_m = eval_field_batch(ctx, src, pts, method="quadrature")
    return [coeffs.alpha, coeffs.beta, f_h, f_m, far_field(ctx, src, dirs),
            fourier_transform_quadrature(ctx, src, dirs), laplace_transform_quadrature(ctx, src, dirs)]


class TestSampleReuse:
    """A leaf's kept default samples and coefficients serve every sum and
    scaling it is part of: their routes never evaluate the leaf's function
    again, and give the bits a fresh leaf gives."""

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_sum_reads_the_cached_samples(self, ctx):
        f, calls = _counting_gaussian(ctx, center=_center(ctx), sigma=0.15, support_radius=0.9)
        g = _bessel(ctx).scaled(1.5)
        f.default_samples()
        assert len(calls) == 1
        for src in (f + g, f.scaled(-2.0), f.scaled(0.5 - 1j) + g, g + (f + g).scaled(2.0)):
            _routes(ctx, src)
            boundary_trace(ctx, src, boundary_grid(ctx), truncation=8)
        assert len(calls) == 1
        # the sum's own read, for its norm, evaluates f on the sum's grid
        (f + g).l2_norm()
        assert len(calls) == 2

    @pytest.mark.parametrize("amplitude", [1.5, 1.5 - 0.5j, -2.0 + 0.0j], ids=["real", "complex", "negative"])
    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_reuse_is_bitwise_signed_zeros_included(self, ctx, amplitude):
        g = _bessel(ctx).scaled(-0.75)
        reads = []
        for kept in (True, False):
            f = gaussian_source(ctx, center=_center(ctx), sigma=0.15, amplitude=amplitude, support_radius=0.85)
            if kept:
                _routes(ctx, f)
            reads.append(_routes(ctx, f + g) + _routes(ctx, g + f.scaled(-1.0)) + _routes(ctx, f.scaled(-1.0)))
        for got, expected in zip(*reads):
            _assert_identical(got, expected)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_samples_of_a_narrow_function_are_reused(self, ctx):
        # a float32 function's samples are kept as float, the dtype of every
        # read, so the kept samples give a sum or a scaling the bits of a
        # fresh read
        def func(points):
            return np.exp(-np.sum(points**2, axis=-1)).astype(np.float32)

        g = _bessel(ctx).scaled(-0.75)
        reads = []
        for kept in (True, False):
            f = SourceField.from_callable(ctx, func, support_radius=0.85)
            if kept:
                assert f.default_samples()[1].dtype == float
            reads.append(_routes(ctx, f + g) + _routes(ctx, f.scaled(-1.0)))
        for got, expected in zip(*reads):
            _assert_identical(got, expected)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_other_grids_evaluate_the_function(self, ctx):
        f, calls = _counting_gaussian(ctx, sigma=0.15, support_radius=0.9)
        f.default_samples()
        finer = 40 if ctx.dimension == 3 else 512
        others = [
            product_grid(ctx, 64, finer, extent=0.9),           # another angular rule
            product_grid(ctx, 48, extent=0.9),                  # another radial order
            product_grid(ctx, 64, extent=0.5),                  # fewer radial nodes
            product_grid(WaveContext(ctx.dimension, ctx.kappa, 2.0), 64),  # another R: other nodes
        ]
        for grid in others:
            f.values_on(grid)
        assert len(calls) == 1 + len(others)

    def test_radial_source_reads_its_profile(self):
        # a radial read is one profile value per radial node, on every read
        sizes = []

        def profile(r):
            sizes.append(np.size(r))
            return np.exp(-(np.asarray(r) ** 2))

        src = SourceField.from_radial(CTX3, profile)
        grid, _ = src.default_samples()
        src.values_on(grid)
        assert sizes == [64, 64]

    def test_cached_modal_coefficients_unchanged_by_reuse(self):
        center = [0.2, -0.1]
        f = gaussian_source(CTX2, center=center, sigma=0.15, support_radius=0.9)
        f.l2_norm()
        g = _bessel(CTX2)
        reused = modal_coefficients(CTX2, f + g, 10)
        fresh = modal_coefficients(CTX2, gaussian_source(CTX2, center=center, sigma=0.15, support_radius=0.9) + g, 10)
        _assert_identical(reused.alpha, fresh.alpha)
        _assert_identical(reused.beta, fresh.beta)


class TestLinearSums:
    """A sum or a scaled source keeps its leaves, and every linear route adds
    their results times their factors, each leaf on its own grid."""

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_summed_coefficients_are_the_weighted_leaves(self, ctx):
        f = gaussian_source(ctx, center=_center(ctx), sigma=0.15, support_radius=0.85)
        g = _bessel(ctx)
        h = gaussian_source(ctx, sigma=0.3, amplitude=1.0 - 2.0j)
        c, d = 0.5 - 1j, -2.0
        src = (f + g.scaled(c)) + h.scaled(d)
        co = modal_coefficients(ctx, src, 10)
        co_f, co_g, co_h = (modal_coefficients(ctx, leaf, 10) for leaf in (f, g, h))
        # the same products and additions in the same order: bit for bit
        _assert_identical(co.alpha, co_f.alpha + c * co_g.alpha + d * co_h.alpha)
        _assert_identical(co.beta, co_f.beta + c * co_g.beta + d * co_h.beta)
        # kept, read-only, like a leaf's
        assert modal_coefficients(ctx, src, 10) is co
        for values in (co.alpha, co.beta):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_trace_of_a_sum_reads_no_leaf_again(self, ctx, monkeypatch):
        projected = []
        project_modes = sources.project_modes

        def counting(src, truncation):
            projected.append(src)
            return project_modes(src, truncation)

        monkeypatch.setattr(sources, "project_modes", counting)
        f, calls = _counting_gaussian(ctx, center=_center(ctx), sigma=0.15, support_radius=0.9)
        g = _bessel(ctx)
        grid = boundary_grid(ctx)
        trace_f = boundary_trace(ctx, f, grid, truncation=12)
        assert len(calls) == 1 and projected == [f]
        trace_fg = boundary_trace(ctx, f + g.scaled(2.0), grid, truncation=12)
        # f's function and f's projection are not read again; g is projected once
        assert len(calls) == 1 and projected == [f, g]
        base = trace_f.stacked()
        assert np.max(np.abs(base - trace_fg.stacked())) <= 1e-8 * np.max(np.abs(base))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_bump_plus_gaussian_equals_its_parts(self, ctx):
        # the bump's grid (radial order 320) and the Gaussian's (64) share
        # no radial node, so one grid could read the sum only across a jump
        # at the Gaussian's support; each leaf is read on its own
        gauss = gaussian_source(ctx, center=_center(ctx), sigma=0.15, support_radius=0.9)
        bump = make_bump_nonradiating(ctx)
        nodes = [leaf.default_samples()[0].radial.nodes for leaf in (gauss, bump)]
        assert not np.intersect1d(*nodes).size
        total = gauss + bump
        assert total.radial_order == 320 and total.support_radius == 0.9
        grid = boundary_grid(ctx)
        traces = [boundary_trace(ctx, src, grid, truncation=12).stacked() for src in (total, gauss, bump)]
        assert np.max(np.abs(traces[0] - (traces[1] + traces[2]))) <= 1e-8 * np.max(np.abs(traces[1]))
        dirs, _ = direction_grid(ctx, 16)
        pts = np.vstack([1.5 * dirs, [[1.3, 0.4, -0.2][: ctx.dimension]]])
        u = [eval_field_batch(ctx, src, pts, method="quadrature")[0] for src in (total, gauss, bump)]
        assert np.max(np.abs(u[0] - (u[1] + u[2]))) <= 1e-12 * np.max(np.abs(u[1]))
        mass = sum(float(np.sum(np.abs(v) * g.weights)) for g, v in (leaf.default_samples() for leaf in (gauss, bump)))
        far = [far_field(ctx, src, dirs) for src in (total, gauss, bump)]
        assert np.max(np.abs(far[0] - (far[1] + far[2]))) <= 1e-14 * mass

    def test_nested_sums_and_scalings_flatten(self):
        f = gaussian_source(CTX2, sigma=0.2, support_radius=0.6)
        g = _bessel(CTX2)
        h = make_bump_nonradiating(CTX2)
        src = ((f + g).scaled(2.0) + (h.scaled(-1j) + f)).scaled(0.5)
        assert [leaf for _, leaf in src._parts] == [f, g, h, f]
        assert [factor for factor, _ in src._parts] == [1.0, 1.0, -0.5j, 0.5]
        assert all(not leaf._parts for _, leaf in src._parts)
        assert (src.support_radius, src.radial_order) == (g.support_radius, 320)
        # a factor of 1 multiplies nothing: a plain sum keeps its leaves' factors
        assert [factor for factor, _ in (f + g.scaled(-0.5j))._parts] == [1, -0.5j]
        np.testing.assert_array_equal(
            modal_coefficients(CTX2, src, 6).alpha,
            modal_coefficients(CTX2, f, 6).alpha + modal_coefficients(CTX2, g, 6).alpha
            + -0.5j * modal_coefficients(CTX2, h, 6).alpha + 0.5 * modal_coefficients(CTX2, f, 6).alpha)

    @pytest.mark.parametrize("route", ["coefficients", "quadrature", "far_field", "fourier", "laplace",
                                       "trace", "modal_field", "fourier_on_circle"])
    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_each_linear_route_adds_its_leaves(self, ctx, route):
        # route(f + c g) = route(f) + c route(g): bit for bit for the routes
        # that add their leaves' sums, to rounding for those that synthesize
        # from the summed coefficients
        f = gaussian_source(ctx, center=_center(ctx), sigma=0.15, support_radius=0.85)
        g = gaussian_source(ctx, center=[-0.3] + [0.1] * (ctx.dimension - 1), sigma=0.2)
        c = 0.75 - 0.5j
        dirs, _ = direction_grid(ctx, 16)
        pts = np.vstack([1.5 * dirs, [[1.3, 0.4, -0.2][: ctx.dimension]]])
        compute = {
            "coefficients": lambda s: np.concatenate([modal_coefficients(ctx, s, 10).alpha,
                                                      modal_coefficients(ctx, s, 10).beta]),
            "quadrature": lambda s: np.concatenate(eval_field_batch(ctx, s, pts, method="quadrature")[1:]),
            "far_field": lambda s: far_field(ctx, s, dirs),
            "fourier": lambda s: fourier_transform_quadrature(ctx, s, dirs),
            "laplace": lambda s: laplace_transform_quadrature(ctx, s, dirs),
            "trace": lambda s: boundary_trace(ctx, s, boundary_grid(ctx), truncation=10).stacked(),
            "modal_field": lambda s: eval_field_batch(ctx, s, pts, method="modal", truncation=10)[0],
            "fourier_on_circle": lambda s: fourier_on_circle(ctx, s, dirs, 10),
        }[route]
        got, expected = compute(f + g.scaled(c)), compute(f) + c * compute(g)
        if route in ("coefficients", "quadrature", "far_field", "fourier", "laplace"):
            _assert_identical(got, expected)
        else:
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
