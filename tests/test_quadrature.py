"""Quadrature rules: polynomial exactness, classical integrals, grid shapes."""

import re

import numpy as np
import pytest
from scipy import special as sp

from biharwave import WaveContext, context, quadrature
from biharwave.sources import make_2d_bessel_nonradiating

import oracles

CTX2 = WaveContext(dimension=2, kappa=2.0, radius=1.0)
CTX3 = WaveContext(dimension=3, kappa=2.0, radius=1.0)


class TestRadialRule:
    def test_monomial_exactness(self):
        rule = quadrature.radial_rule(CTX2, 16)
        R = CTX2.radius
        assert np.sum(rule.nodes * rule.weights) == pytest.approx(R**2 / 2.0, abs=1e-14)
        assert np.sum(rule.nodes**3 * rule.weights) == pytest.approx(R**4 / 4.0, abs=1e-14)
        assert np.sum(rule.weights) == pytest.approx(R, abs=1e-14)

    def test_nodes_increasing_inside(self):
        rule = quadrature.radial_rule(CTX2, 64)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > 0 and rule.nodes[-1] < CTX2.radius
        assert np.all(rule.weights > 0)

    def test_bessel_norm_integral(self):
        # kappa R at the first zero: integral of J_0(k r)^2 r dr = (R^2/2) J_1(kR)^2
        ctx = WaveContext.with_root_wavenumber(2, 1.0, 1)
        rule = quadrature.radial_rule(ctx, 64)
        got = np.sum(sp.jv(0, ctx.kappa * rule.nodes) ** 2 * rule.weights * rule.nodes)
        closed = 0.5 * sp.jv(1, ctx.kappa * ctx.radius) ** 2
        adaptive = oracles.adaptive_radial(
            lambda r: oracles.j_series(0, ctx.kappa * r).real ** 2 * r, 0.0, ctx.radius
        )
        assert got == pytest.approx(closed, rel=1e-12)
        assert got == pytest.approx(adaptive, rel=1e-11)

    def test_order_validation(self):
        for order in (1, 2.5, 64.0, True, "64"):
            with pytest.raises(ValueError, match="radial order must be an integer >= 2"):
                quadrature.radial_rule(CTX2, order)


def _integrate(ctx, g, radial_order=quadrature.DEFAULT_RADIAL_ORDER):
    grid = quadrature.product_grid(ctx, radial_order)
    return complex(np.sum(g(grid.points) * grid.weights))


class TestVolumeIntegration:
    def test_disk_area(self):
        val = _integrate(CTX2, lambda p: np.ones(p.shape[0]))
        assert val.real == pytest.approx(np.pi * CTX2.radius**2, rel=1e-14)

    def test_ball_volume(self):
        val = _integrate(CTX3, lambda p: np.ones(p.shape[0]))
        assert val.real == pytest.approx(4.0 / 3.0 * np.pi * CTX3.radius**3, rel=1e-14)

    def test_plane_wave_against_radial_reduction(self):
        # integral over the unit disk of exp(-i xi . x) with |xi| R = 1
        xi = np.array([1.0, 0.0])
        val = _integrate(CTX2, lambda p: np.exp(-1j * p @ xi), radial_order=48)
        closed = 2.0 * np.pi * sp.jv(1, 1.0)
        reduction = 2.0 * np.pi * oracles.adaptive_radial(
            lambda r: oracles.j_series(0, r).real * r, 0.0, 1.0
        )
        assert val == pytest.approx(closed, rel=1e-12)
        assert val == pytest.approx(reduction, rel=1e-11)

    def test_self_convergence_on_shipped_source(self):
        ctx = WaveContext.with_root_wavenumber(2, 1.0, 1)
        src = make_2d_bessel_nonradiating(ctx)
        lo = _integrate(ctx, src.evaluate, radial_order=64)
        hi = _integrate(ctx, src.evaluate, radial_order=128)
        scale = _integrate(ctx, lambda p: np.abs(src.evaluate(p)), radial_order=128).real
        assert abs(lo - hi) < 1e-10 * scale


class TestAngularRule:
    def test_2d_discrete_orthogonality(self):
        rule = quadrature.angular_rule(CTX2, 32)
        for n in range(1, 32):
            val = np.sum(np.exp(1j * n * rule.params) * rule.weights)
            assert abs(val) < 1e-12

    def test_2d_total(self):
        rule = quadrature.angular_rule(CTX2)
        assert np.sum(rule.weights) == pytest.approx(2.0 * np.pi, abs=1e-13)

    def test_3d_total_and_counts(self):
        rule = quadrature.angular_rule(CTX3, 16)
        assert np.sum(rule.weights) == pytest.approx(4.0 * np.pi, abs=1e-12)
        assert rule.count == 16 * 32
        assert rule.polar_count == 16 and rule.azimuth_count == 32

    def test_3d_integrates_harmonics_to_zero(self):
        rule = quadrature.angular_rule(CTX3, 12)
        for n, m in ((1, 0), (2, 1), (5, -3), (9, 9)):
            val = np.sum(
                sp.sph_harm_y(n, m, rule.params[:, 0], rule.params[:, 1]) * rule.weights
            )
            assert abs(val) < 1e-12


class TestBoundaryGrid:
    """The boundary rule is the context's angular rule: its directions are
    the outward unit normals of the sphere |x| = R, and R scales its nodes
    and weights only where the trace functionals sum over them."""

    def test_2d_measures(self):
        grid = quadrature.boundary_grid(CTX2, 64)
        assert isinstance(grid, quadrature.AngularRule) and grid.count == 64
        assert np.sum(grid.weights) == pytest.approx(2.0 * np.pi, abs=1e-13)
        assert np.allclose(np.linalg.norm(grid.directions, axis=1), 1.0, atol=1e-13)
        assert np.all(grid.weights > 0)
        # weights dotted with nu.nu reproduce the measure (normals are unit)
        assert np.sum(grid.weights * np.sum(grid.directions**2, axis=1)) == pytest.approx(2.0 * np.pi, abs=1e-12)

    def test_3d_measures(self):
        grid = quadrature.boundary_grid(CTX3, 16)
        assert np.sum(grid.weights) == pytest.approx(4.0 * np.pi, rel=1e-13)

    def test_first_coordinate_second_moment(self):
        # integral over the unit circle of y_1^2 ds = pi, dense-trapezoid oracle
        grid = quadrature.boundary_grid(WaveContext(2, 1.0, 1.0), 128)
        got = np.sum(grid.directions[:, 0] ** 2 * grid.weights)
        ref = oracles.trapezoid_angular(lambda t: np.cos(t) ** 2)
        assert got == pytest.approx(np.pi, abs=1e-12)
        assert got == pytest.approx(ref.real, abs=1e-12)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            quadrature.boundary_grid(CTX2, 4)


class TestProductGrid:
    def test_weights_integrate_volume(self):
        grid = quadrature.product_grid(CTX3, 24, 12)
        assert np.sum(grid.weights) == pytest.approx(CTX3.ball_volume, rel=1e-13)

    def test_points_shape(self):
        grid = quadrature.product_grid(CTX2, 8, 16)
        assert grid.points.shape == (8 * 16, 2)
        assert grid.shape == (8, 16)

    def test_node_points_are_slices_of_points(self):
        # within one row, across rows, past the last node, and on a grid of no row
        grid = quadrature.product_grid(CTX3, 8, 8)
        ring = grid.angular.count
        points = grid.radial.nodes[:, None, None] * grid.angular.directions
        points = points.reshape(-1, 3)
        for start, stop in ((0, 3), (5, ring), (ring - 2, ring + 1), (ring - 2, ring + 3), (0, 8 * ring),
                            (3 * ring, 5 * ring + 1), (8 * ring - 5, 9 * ring), (8 * ring, 8 * ring)):
            assert np.array_equal(grid.node_points(start, stop), points[start:stop])
        assert np.array_equal(grid.points, points)
        empty = quadrature.product_grid(CTX3, 8, 8, extent=1e-6)
        assert empty.shape[0] == 0 and empty.node_points(0, 4).shape == empty.points.shape == (0, 3)


class TestExtent:
    """A rule cut at an extent keeps the nodes below it, those of the whole
    rule on [0, R] bit for bit, and drops the rest (a source's grids end at
    its support)."""

    @pytest.mark.parametrize("order", [64, 320])
    @pytest.mark.parametrize("extent", [0.3, 0.85, 0.9, 1.0])
    def test_kept_nodes_are_the_first_of_the_whole_rule(self, order, extent):
        full = quadrature.radial_rule(CTX2, order)
        cut = quadrature.radial_rule(CTX2, order, extent)
        k = len(cut.nodes)
        assert cut.order == order and len(cut.weights) == k
        assert np.array_equal(cut.nodes, full.nodes[:k])
        assert np.array_equal(cut.weights, full.weights[:k])
        assert np.all(cut.nodes < extent) and np.all(full.nodes[k:] >= extent)
        if extent == CTX2.radius:  # the whole ball: every node
            assert k == order

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_grid_is_the_first_rows_of_the_whole_grid(self, ctx):
        full = quadrature.product_grid(ctx, 64, 8)
        cut = quadrature.product_grid(ctx, 64, 8, extent=0.9)
        rows = len(cut.radial.nodes)
        assert rows == 51 and cut.shape == (51, full.angular.count)
        assert np.array_equal(cut.points, full.points[:rows * full.angular.count])
        assert np.array_equal(cut.weights, full.weights[:rows * full.angular.count])

    def test_node_at_the_extent_is_dropped(self):
        # the test a source masks its rows by: a node at the support is outside
        full = quadrature.radial_rule(CTX2, 32)
        assert len(quadrature.radial_rule(CTX2, 32, full.nodes[20]).nodes) == 20
        assert len(quadrature.radial_rule(CTX2, 32, np.nextafter(full.nodes[20], 2.0)).nodes) == 21

    @pytest.mark.parametrize("extent", [float("nan"), 0.0, -1.0, float("inf"), True],
                             ids=["nan", "zero", "negative", "inf", "bool"])
    def test_extent_not_positive_and_finite_is_refused(self, extent):
        # NaN kept every node without a word, and 0 and -1 gave an empty rule
        message = re.escape(f"extent must be positive and finite, got {extent!r}")
        with pytest.raises(ValueError, match=message):
            quadrature.radial_rule(CTX2, 64, extent)
        with pytest.raises(ValueError, match=message):
            quadrature.product_grid(CTX3, 64, 8, extent=extent)


class TestRuleCache:
    @pytest.mark.parametrize("order", [2, 7, 32, 64, 320])
    def test_bit_equal_to_leggauss(self, order):
        nodes, weights = quadrature.gauss_legendre(order)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)

    def test_cached_arrays_read_only(self):
        nodes, weights = quadrature.gauss_legendre(16)
        assert quadrature.gauss_legendre(16)[0] is nodes
        for array in (nodes, weights):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_rules_own_their_arrays(self):
        first = quadrature.radial_rule(CTX2, 16)
        first.nodes[:] = -1.0
        assert np.array_equal(quadrature.radial_rule(CTX2, 16).nodes,
                              0.5 * (np.polynomial.legendre.leggauss(16)[0] + 1.0))
        # an angular rule's arrays are kept per (dimension, count) and copied
        # into each rule: a caller's writes reach no later rule
        for ctx, count in ((CTX2, 12), (CTX3, 12)):
            ref = quadrature.angular_rule(ctx, count)
            ref = [array.copy() for array in (ref.directions, ref.weights, ref.params)]
            ang = quadrature.angular_rule(ctx, count)
            for array in (ang.directions, ang.weights, ang.params):
                array[:] = -1.0
            again = quadrature.angular_rule(ctx, count)
            for got, want in zip((again.directions, again.weights, again.params), ref):
                assert np.array_equal(got, want)
            assert np.sum(again.weights) == pytest.approx((2.0 if ctx.dimension == 2 else 4.0) * np.pi, rel=1e-13)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_rules_of_one_count_share_no_memory(self, ctx):
        first, second = quadrature.angular_rule(ctx, 8), quadrature.angular_rule(ctx, 8)
        arrays = [(rule.directions, rule.weights, rule.params) for rule in (first, second)]
        for a in arrays[0]:
            assert a.flags.writeable and a.flags.owndata
            for b in arrays[1]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_kept_rule_arrays_equal_fresh_ones(self, ctx, monkeypatch):
        monkeypatch.setattr(context, "_kept", {})
        rule = quadrature.angular_rule(ctx, 10)
        kept = context._kept[("angular rule", ctx.dimension, 10)]
        fresh = quadrature._angular_arrays(ctx.dimension, 10)
        for array, got, want in zip(kept, (rule.directions, rule.weights, rule.params), fresh):
            assert not array.flags.writeable
            assert np.array_equal(array, want) and np.array_equal(got, want)


class TestCounts:
    """Counts of nodes and directions are integers: a fraction or a bool is
    refused by name, never truncated."""

    @pytest.mark.parametrize(
        "ctx, make, name, value",
        [(CTX2, quadrature.angular_rule, "angular count", 64.7),
         (CTX2, quadrature.angular_rule, "angular count", True),
         (CTX3, quadrature.angular_rule, "polar count", 8.5),
         (CTX2, quadrature.boundary_grid, "resolution", 64.7),
         (CTX3, quadrature.boundary_grid, "resolution", 16.0),
         (CTX2, "direction_grid", "direction count", 16.5),
         (CTX2, "direction_grid", "direction count", True),
         (CTX3, "direction_grid", "direction count", 16.5)],
        ids=["angular-frac", "angular-bool", "polar-frac", "boundary-2d", "boundary-3d-float",
             "directions-frac", "directions-bool", "directions-3d"],
    )
    def test_fraction_or_bool_refused(self, ctx, make, name, value):
        if make == "direction_grid":
            from biharwave.spectral import direction_grid as make
        with pytest.raises(ValueError, match=f"{name} must be an integer >= .*, got {value!r}"):
            make(ctx, value)

    def test_numpy_integers_accepted(self):
        from biharwave.spectral import direction_grid

        assert quadrature.boundary_grid(CTX2, np.int64(64)).count == 64
        assert quadrature.angular_rule(CTX3, np.int32(4)).count == 32
        assert len(direction_grid(CTX2, np.int64(16))[0]) == 16
