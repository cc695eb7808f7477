"""The exterior factors of the boundary traces, built once per fixed
frequency and kept read-only, and a sum's reuse of its parts' cached samples.

The kept factors depend only on their key (the context, the truncation and
whether they are the derivatives), never on a source, so a kept pair is bit
for bit the one a fresh build gives.  A pointwise source with cached default
samples reads them back on a grid that extends its default grid, bit for
bit, signed zeros included.
"""

import numpy as np
import pytest

from biharwave import WaveContext, fields
from biharwave.fields import boundary_trace
from biharwave.quadrature import boundary_grid, product_grid
from biharwave.sources import (
    SourceField,
    gaussian_source,
    make_2d_bessel_nonradiating,
    make_3d_bessel_nonradiating,
    make_bump_nonradiating,
    modal_coefficients,
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
    """fields' exterior factors at r = R, kept per (context, truncation, derivative)."""

    def test_bounded_cache(self):
        assert fields._sphere_factors.cache_info().maxsize == fields._SPHERE_FACTORS

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    @pytest.mark.parametrize("derivative", [False, True], ids=["value", "derivative"])
    def test_kept_factors_equal_fresh_ones(self, ctx, derivative):
        kept = fields._sphere_factors(ctx, 12, derivative)
        assert kept is fields._sphere_factors(WaveContext(ctx.dimension, ctx.kappa, ctx.radius), 12, derivative)
        fields._sphere_factors.cache_clear()
        rebuilt = fields._sphere_factors(ctx, 12, derivative)
        assert rebuilt is not kept
        # the one row of the radial tables at r = R, prefactors and exp(-kappa R) folded in
        fresh_tables = fields._radial_tables(ctx, 12, np.array([[ctx.kappa * ctx.radius]]), derivative)
        for got, again, fresh in zip(kept, rebuilt, (table[0] for table in fresh_tables)):
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
        # one value table and one derivative table, at the one radius R
        assert radial_table_radii == [1, 1]
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


class TestSampleReuse:
    """A pointwise source's cached default samples stand in for its function
    on every grid that extends its default grid."""

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_sum_reads_the_cached_samples(self, ctx):
        center = [0.2, -0.1, 0.1][: ctx.dimension]
        f, calls = _counting_gaussian(ctx, center=center, sigma=0.15, support_radius=0.9)
        g = _bessel(ctx).scaled(1.5)
        f.default_samples()
        assert len(calls) == 1
        total = f + g
        grid, values = total.default_samples()
        assert grid.shape[0] > f.default_samples()[0].shape[0]  # the sum's grid extends f's
        assert len(calls) == 1
        f.scaled(-2.0).values_on(f.default_samples()[0])
        (f.scaled(0.5 - 1j) + g).values_on(grid)
        assert len(calls) == 1
        # the same read with a fresh f evaluates its function
        fresh, fresh_calls = _counting_gaussian(ctx, center=center, sigma=0.15, support_radius=0.9)
        _assert_identical(values, (fresh + g).values_on(grid))
        assert len(fresh_calls) == 1

    @pytest.mark.parametrize("amplitude", [1.5, 1.5 - 0.5j, -2.0 + 0.0j], ids=["real", "complex", "negative"])
    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_reuse_is_bitwise_signed_zeros_included(self, ctx, amplitude):
        center = [0.2, -0.1, 0.1][: ctx.dimension]
        g = _bessel(ctx).scaled(-0.75)
        reads = []
        for cached in (True, False):
            f = gaussian_source(ctx, center=center, sigma=0.15, amplitude=amplitude, support_radius=0.85)
            if cached:
                f.default_samples()
            grid = (f + g).default_samples()[0]
            reads.append([(f + g).values_on(grid), (g + f.scaled(-1.0)).values_on(grid),
                          f.scaled(-1.0).values_on(grid)])
        for got, expected in zip(*reads):
            _assert_identical(got, expected)

    def test_samples_that_dropped_an_imaginary_part_are_not_reused(self):
        # f's zero imaginary part, -0.0 at every node, is kept: the samples
        # stay complex, so the reused samples give a sum the signs of the
        # zeros a fresh read gives, where g's imaginary part is -0.0 too
        def func(points):
            values = np.empty(len(points), dtype=complex)
            values.real, values.imag = np.exp(-np.sum(points**2, axis=-1)), -0.0
            return values

        def other(points):
            return np.where(points[:, 0] > 0.0, complex(0.5, 1.0), complex(0.5, -0.0))

        reads = []
        for cached in (True, False):
            f = SourceField.from_callable(CTX2, func, support_radius=0.9)
            g = SourceField.from_callable(CTX2, other)
            if cached:
                assert f.default_samples()[1].dtype == complex
            grid = (f + g).default_samples()[0]
            reads.append((f + g).values_on(grid))
        assert reads[0].dtype == complex and np.any(np.signbit(reads[0].imag))
        _assert_identical(*reads)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_samples_of_a_narrow_function_are_reused(self, ctx):
        # a float32 function's samples are kept as float, the dtype of every
        # read, so the kept samples reproduce a fresh read of a sum or a scaling
        def func(points):
            return np.exp(-np.sum(points**2, axis=-1)).astype(np.float32)

        g = _bessel(ctx).scaled(-0.75)
        reads = []
        for cached in (True, False):
            f = SourceField.from_callable(ctx, func, support_radius=0.85)
            if cached:
                assert f.default_samples()[1].dtype == float
            grid = (f + g).default_samples()[0]
            reads.append([(f + g).values_on(grid), f.scaled(-1.0).values_on(grid)])
        for got, expected in zip(*reads):
            _assert_identical(got, expected)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_bump_plus_gaussian_does_not_reuse(self, ctx):
        # the bump's radial order (320) is not the Gaussian's (64), so the
        # sum's grid does not extend the Gaussian's default grid
        center = [0.2, -0.1, 0.1][: ctx.dimension]
        f, calls = _counting_gaussian(ctx, center=center, sigma=0.15, support_radius=0.9)
        f.default_samples()
        bump = make_bump_nonradiating(ctx)
        grid = (f + bump).default_samples()[0]
        assert grid.radial.order == bump.resolve_radial_order() != f.resolve_radial_order()
        assert len(calls) == 2
        fresh = gaussian_source(ctx, center=center, sigma=0.15, support_radius=0.9)
        _assert_identical((f + bump).values_on(grid), (fresh + bump).values_on(grid))

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
        # a radial read is one profile value per radial node, which a sum
        # or a scaling broadcasts over the angles: the kept samples would be
        # whole rows, so they do not replace it
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
