"""WaveContext: validation of the constructor and of the root-wavenumber constructor."""

import mpmath
import numpy as np
import pytest

from biharwave import WaveContext


@pytest.mark.parametrize("dimension", [2, 3])
class TestWithRootWavenumber:
    def test_zero_radius_named(self, dimension):
        with pytest.raises(ValueError, match=r"R must be positive and finite, got 0\.0"):
            WaveContext.with_root_wavenumber(dimension, 0.0, 1)

    def test_negative_radius_named_not_kappa(self, dimension):
        with pytest.raises(ValueError, match=r"R must be positive and finite, got -1\.0"):
            WaveContext.with_root_wavenumber(dimension, -1.0, 1)

    def test_fractional_root_index_refused(self, dimension):
        with pytest.raises(ValueError, match=r"root_index must be an integer >= 1, got 2\.5"):
            WaveContext.with_root_wavenumber(dimension, 1.0, 2.5)

    def test_bool_root_index_refused(self, dimension):
        with pytest.raises(ValueError, match=r"root_index must be an integer >= 1, got True"):
            WaveContext.with_root_wavenumber(dimension, 1.0, True)


@pytest.mark.parametrize("field, args", [("kappa", (2, True, 1.0)), ("R", (3, 2.0, True))], ids=["kappa", "R"])
def test_bool_kappa_or_radius_refused(field, args):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite, got True"):
        WaveContext(*args)


@pytest.mark.parametrize("dimension", [2.0, 3.0, True], ids=["2.0", "3.0", "True"])
def test_non_integer_dimension_refused(dimension):
    # 2.0 in (2, 3) holds, and such a context failed later inside numpy
    pattern = rf"dimension must be the integer 2 or 3, got {dimension!r}"
    with pytest.raises(ValueError, match=pattern):
        WaveContext(dimension, 2.0, 1.0)
    with pytest.raises(ValueError, match=pattern):
        WaveContext.with_root_wavenumber(dimension, 1.0, 1)


def test_numpy_numbers_accepted():
    ctx = WaveContext(np.int64(3), np.float32(2.0), np.int64(1))
    assert (ctx.kappa, ctx.radius) == (2.0, 1)
    assert WaveContext.with_root_wavenumber(np.int64(2), 1.0, 1) == WaveContext.with_root_wavenumber(2, 1.0, 1)


def test_2d_roots_are_the_zeros_of_j0():
    # McMahon's start and Newton's steps on specfun's J_0 and J_1: every zero
    # within an ulp of mpmath's, 99 of these 100 the nearest double (the
    # 20th lies 0.0009 ulp from the midpoint of two doubles)
    for k in range(1, 101):
        zero = float(mpmath.besseljzero(0, k))
        assert abs(WaveContext.with_root_wavenumber(2, 1.0, k).kappa - zero) <= np.spacing(zero)
