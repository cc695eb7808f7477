"""Kernels: closed forms, the fourth-order assembly, expansions, asymptotics."""

import mpmath
import numpy as np
import pytest

from biharwave import WaveContext, kernels

import oracles

CTX2 = WaveContext(dimension=2, kappa=2.0, radius=1.0)
CTX3 = WaveContext(dimension=3, kappa=2.0, radius=1.0)


def _random_pairs(ctx, count, rng, lo=0.05, hi=10.0):
    d = ctx.dimension
    x = rng.normal(size=(count, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= (lo + (hi - lo) * rng.random((count, 1))) * ctx.radius
    y = np.zeros((count, d))
    return x, y


def _phi_h_of_r(ctx, r):
    re, im, _ = kernels.kernel_tables(ctx, r)
    return re + 1j * im


def _phi_m_of_r(ctx, r):
    return kernels.kernel_tables(ctx, r)[2]


def _phi_h(ctx, x, y):
    return _phi_h_of_r(ctx, np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1))


def _phi_m(ctx, x, y):
    return _phi_m_of_r(ctx, np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1))


class TestPointSourceKernels:
    def test_3d_helmholtz_closed_form(self):
        assert _phi_h_of_r(CTX3, 1.0) == pytest.approx(
            np.exp(2j) / (4.0 * np.pi), rel=1e-14
        )

    def test_2d_symmetry(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(2, 5, 2))
        assert np.allclose(_phi_h(CTX2, x, y), _phi_h(CTX2, y, x))

    def test_2d_helmholtz_series_value(self):
        # kappa r = 1: (i/4)(J_0(1) + i Y_0(1)) from the series oracles
        ref = 0.25j * (oracles.j_series(0, 1.0).real + 1j * oracles.y0_series(1.0))
        assert _phi_h_of_r(CTX2, 0.5) == pytest.approx(ref, rel=1e-12)

    def test_3d_modified_closed_form(self):
        ctx = WaveContext(3, 1.0, 1.0)
        assert _phi_m_of_r(ctx, 1.0) == pytest.approx(
            np.exp(-1.0) / (4.0 * np.pi), rel=1e-14
        )

    def test_2d_modified_real_positive(self):
        rng = np.random.default_rng(5)
        x, y = _random_pairs(CTX2, 50, rng)
        vals = _phi_m(CTX2, x, y)
        assert np.all(np.isreal(vals)) and np.all(vals.real > 0)

    def test_2d_modified_integral_oracle(self):
        # kappa r = 1 gives K_0(1) / (2 pi)
        ref = oracles.k0_integral(1.0) / (2.0 * np.pi)
        assert _phi_m_of_r(CTX2, 0.5) == pytest.approx(ref, rel=1e-11)

    def test_singularity_raises(self):
        # the kernels of distance are singular at r = 0 (green_biharmonic
        # refuses such pairs); the companion oracle refuses x == y
        with np.errstate(divide="ignore", invalid="ignore"):
            for ctx in (CTX2, CTX3):
                assert not np.isfinite(_phi_h_of_r(ctx, 0.0))
                assert not np.isfinite(_phi_m_of_r(ctx, 0.0))
        z = np.zeros(2)
        with pytest.raises(ValueError):
            oracles.green_star(CTX2, z, z)


class TestKernelTables:
    """The real tables against mpmath at the argument they see, t = fl(kappa r)."""

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_mpmath_oracle(self, ctx):
        rng = np.random.default_rng(29)
        r = np.concatenate([np.geomspace(1e-8, 2000.0, 120), rng.uniform(1.0, 2000.0, 80)]) / ctx.kappa
        t = ctx.kappa * r
        re, im, phi_m = kernels.kernel_tables(ctx, r)
        err_h, err_m = [], []
        with mpmath.workdps(40):
            for k in range(len(r)):
                tk, rk = mpmath.mpf(t[k]), mpmath.mpf(r[k])
                if ctx.dimension == 2:
                    ref = (-mpmath.bessely(0, tk) / 4, mpmath.besselj(0, tk) / 4,
                           mpmath.besselk(0, tk) / (2 * mpmath.pi))
                else:
                    s = 4 * mpmath.pi * rk
                    ref = (mpmath.cos(tk) / s, mpmath.sin(tk) / s, mpmath.exp(-tk) / s)
                # both parts of phi_h relative to its modulus: J_0, Y_0, cos
                # and sin have zeros, where a relative error means nothing
                modulus = mpmath.sqrt(ref[0] ** 2 + ref[1] ** 2)
                err_h.append(float(max(abs(re[k] - ref[0]), abs(im[k] - ref[1])) / modulus))
                # phi_m underflows past t ~ 700; there only its absolute error is defined
                err_m.append(float(abs(phi_m[k] - ref[2]) / max(ref[2], mpmath.mpf(1e-290))))
        # 2D: specfun.j0_y0 and specfun.k0 read 6.8e-16 and 6.7e-16 at or
        # below t = 5 and 2 (scipy's j0/y0 there: 2.6e-15) and 3.5e-16 and
        # 3.8e-16 above, where they keep their precision at large t (scipy's
        # j0/y0 lose about 1e-16 * t)
        err_h, err_m = np.array(err_h), np.array(err_m)
        bound = 3e-15 if ctx.dimension == 2 else 1e-15
        assert np.all(err_h <= bound)
        assert np.all(err_m <= bound)
        if ctx.dimension == 2:
            assert np.all(err_h[t > 5.0] <= 5e-16)
            assert np.all(err_m[t > 2.0] <= 5e-16)


    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_caller_buffer(self, ctx):
        # the caller's r is left as it was, bit for bit, and the tables are
        # one fresh (3,) + r.shape array that shares no memory with it; a
        # second call gives the same bits
        rng = np.random.default_rng(41)
        for _ in range(2):
            r = rng.uniform(1e-3, 50.0, (4, 50))
            kept = r.copy()
            got = kernels.kernel_tables(ctx, r)
            assert got.shape == (3, 4, 50)
            assert np.array_equal(r.view(np.uint64), kept.view(np.uint64))
            assert not np.shares_memory(got, r)
            again = kernels.kernel_tables(ctx, r)
            assert not np.shares_memory(again, got)
            assert np.array_equal(got.view(np.uint64), again.view(np.uint64))


class TestFourthOrderKernel:
    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_decomposition(self, ctx):
        rng = np.random.default_rng(11)
        x, y = _random_pairs(ctx, 10_000, rng)
        ph = _phi_h(ctx, x, y)
        pm = _phi_m(ctx, x, y)
        g = kernels.green_biharmonic(ctx, x, y)
        resid = np.abs(g + (ph - pm) / (2.0 * ctx.kappa**2))
        assert np.all(resid < 1e-12 * (np.abs(ph) + np.abs(pm)))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_symmetric(self, ctx):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(20, ctx.dimension))
        y = rng.normal(size=(20, ctx.dimension)) * 0.3
        assert np.allclose(
            kernels.green_biharmonic(ctx, x, y), kernels.green_biharmonic(ctx, y, x)
        )

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_coincidence_refused(self, ctx):
        x = np.zeros(ctx.dimension)
        with pytest.raises(ValueError, match="distance 0$"):
            kernels.green_biharmonic(ctx, x, x)
        # a batch is refused on its closest pair, which the message names
        batch = np.zeros((2, ctx.dimension))
        batch[:, 0] = [0.5, 1e-9 * ctx.radius]
        with pytest.raises(ValueError, match="distance 1e-09$"):
            kernels.green_biharmonic(ctx, batch, x)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_near_coincidence_limit(self, ctx):
        # limit values: -i/(8 kappa^2) in 2D, -(1+i)/(8 pi kappa) in 3D
        limit = -0.125j / ctx.kappa**2 if ctx.dimension == 2 else -(1.0 + 1j) / (8.0 * np.pi * ctx.kappa)
        x = np.zeros(ctx.dimension)
        just_out = x.copy()
        just_out[0] = 2e-8 * ctx.radius
        assert kernels.green_biharmonic(ctx, just_out, x) == pytest.approx(limit, rel=1e-6)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_annihilated_by_operator(self, ctx):
        # (bilaplacian - kappa^4) G = 0 away from the diagonal, FD oracle
        y = np.zeros(ctx.dimension)
        x = np.zeros(ctx.dimension)
        x[0] = 1.3

        def g(p):
            return kernels.green_biharmonic(ctx, p, y)

        resid = oracles.fd_bilaplacian(g, x, 1e-2) - ctx.kappa**4 * g(x)
        assert abs(resid) < 1e-4


class TestRegularKernel:
    def test_difference_identity(self):
        rng = np.random.default_rng(17)
        x, y = _random_pairs(CTX2, 10_000, rng)
        lhs = kernels.green_biharmonic(CTX2, x, y) - oracles.green_star(CTX2, x, y)
        rhs = oracles.psi_kernel(CTX2, x, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_value_at_coincidence(self):
        # psi(x, x) = -i/(4 kappa^2), twice the fourth-order kernel's limit
        x = np.array([0.3, -0.2])
        psi = oracles.psi_kernel(CTX2, x, x)
        assert psi == pytest.approx(-0.25j / CTX2.kappa**2)

    def test_purely_imaginary(self):
        rng = np.random.default_rng(19)
        x, y = _random_pairs(CTX2, 200, rng)
        assert np.max(np.abs(oracles.psi_kernel(CTX2, x, y).real)) == 0.0

    def test_solves_helmholtz(self):
        # green - green_star (= psi) solves the homogeneous Helmholtz equation
        y = np.array([0.1, 0.2])
        x = np.array([0.9, -0.4])

        def psi(p):
            return kernels.green_biharmonic(CTX2, p, y) - oracles.green_star(CTX2, p, y)

        resid = oracles.fd_laplacian(psi, x, 1e-3) + CTX2.kappa**2 * psi(x)
        assert abs(resid) < 1e-6

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            oracles.green_star(CTX3, np.ones(3), np.zeros(3))
        with pytest.raises(ValueError):
            oracles.psi_kernel(CTX3, np.ones(3), np.zeros(3))


class TestMultipoleSeries:
    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_converges_to_closed_form(self, ctx):
        rng = np.random.default_rng(23)
        for _ in range(5):
            y = rng.normal(size=ctx.dimension)
            y *= rng.uniform(0.2, 1.0) / np.linalg.norm(y)
            x = rng.normal(size=ctx.dimension)
            x *= rng.uniform(2.5, 4.0) / np.linalg.norm(x)
            sh = oracles.phi_h_series(ctx, x, y, 40)
            sm = oracles.phi_m_series(ctx, x, y, 40)
            assert abs(sh - _phi_h(ctx, x, y)) < 1e-10 * abs(sh)
            assert abs(sm - _phi_m(ctx, x, y)) < 1e-10 * abs(sm)

    def test_origin_source_single_term(self):
        x = np.array([2.0, 0.0])
        y = np.array([1e-300, 0.0])
        assert oracles.phi_h_series(CTX2, x, y, 10) == pytest.approx(
            _phi_h(CTX2, x, y), rel=1e-13
        )

    def test_precondition(self):
        with pytest.raises(ValueError):
            oracles.phi_h_series(CTX2, np.array([0.5, 0.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_truncation_error_decays_geometrically(self, ctx):
        x = np.zeros(ctx.dimension)
        x[0] = 3.0
        y = np.full(ctx.dimension, 0.9 / np.sqrt(ctx.dimension))
        exact = _phi_h(ctx, x, y)
        onset = int(np.ceil(np.e * ctx.kappa * np.linalg.norm(y) / 2.0))
        err = [abs(oracles.phi_h_series(ctx, x, y, n) - exact) for n in (onset + 4, onset + 9)]
        assert err[1] < 0.5 * err[0]

    def test_default_truncation(self):
        n = oracles.default_truncation(CTX2, 1.0)
        assert n == int(np.ceil(np.e * CTX2.kappa / 2.0)) + 16
        # the series at its default truncation already matches the closed forms
        x, y = np.array([2.5, 0.4]), np.array([-0.6, 0.5])
        assert oracles.phi_h_series(CTX2, x, y) == pytest.approx(_phi_h(CTX2, x, y), rel=1e-12)
        assert oracles.phi_m_series(CTX2, x, y) == pytest.approx(_phi_m(CTX2, x, y), rel=1e-12)


class TestFarFieldAsymptotics:
    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
    def test_kernel_asymptote(self, ctx):
        mu = oracles.far_field_mu(ctx)
        y = np.zeros(ctx.dimension)
        y[0] = 0.4
        xhat = np.zeros(ctx.dimension)
        xhat[-1] = 1.0
        errs = []
        for radius in (1e3, 2e3):
            x = radius * ctx.radius * xhat
            rx = np.linalg.norm(x)
            asym = (
                -mu
                / (8.0 * ctx.kappa**2)
                * np.exp(1j * ctx.kappa * rx)
                / (np.pi * rx) ** ((ctx.dimension - 1) / 2.0)
                * np.exp(-1j * ctx.kappa * (x @ y) / rx)
            )
            errs.append(abs(kernels.green_biharmonic(ctx, x, y) - asym) / abs(asym))
        assert errs[0] < 1e-2
        assert 0.3 < errs[1] / errs[0] < 0.7  # linear decay in 1/|x|
